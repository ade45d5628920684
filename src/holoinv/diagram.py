"""Slice-list tangle diagrams.

A diagram is a stack of elementary slices read bottom to top.  Each slice acts
on a word of oriented strands and is one of six pieces:

    X+     positive crossing of two adjacent upward strands
    X-     negative crossing of two adjacent upward strands
    evL    cap consuming (x,-)(x,+)
    evR    cap consuming (x,+)(x,-)
    coevL  cup producing (x,+)(x,-)
    coevR  cup producing (x,-)(x,+)

Planar isotopy is quotiented away by the slice representation: two diagrams
are "the same" when their slice lists agree, and isotopic presentations are
related by Reidemeister moves plus trivial slice commutations, which are not
normalized.  The module holds what the pipeline runs: building a diagram,
bending it closed (a closure closes every strand, a cut every strand but
the one it opens) and propagating colors.

Edges are maximal arcs between slice events.  An edge is identified by the
lexicographically least *port* it touches, where a port is a pair
(level, position): level t is the horizontal line below slice t, position i
the strand index at that level.  One upward scan names them: an edge begins
at a bottom port, at a crossing output or at a cup, whose two legs are one
edge, and pass-through strands carry it to the next level.  Only a cap joins
two edges, and the joined edge keeps the lesser id, so every edge is named
by the port where it begins, its least.

Colors are opaque tokens stored per edge; propagation rules live with the
quandle/biquandle oracles, not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from .errors import (
    InconsistentColoring,
    NoSuchEdge,
    NotClosed,
    ParseError,
    WordMismatch,
)
from .params import TOL

PIECES = ("X+", "X-", "evL", "evR", "coevL", "coevR")

# sign patterns consumed / produced
IN_SIGNS = {"X+": "++", "X-": "++", "evL": "-+", "evR": "+-", "coevL": "", "coevR": ""}
OUT_SIGNS = {"X+": "++", "X-": "++", "evL": "", "evR": "", "coevL": "+-", "coevR": "-+"}

# (inputs, outputs) arity of each piece
ARITY = {p: (len(IN_SIGNS[p]), len(OUT_SIGNS[p])) for p in PIECES}


@dataclass(frozen=True)
class Slice:
    offset: int
    piece: str

    def __post_init__(self):
        if self.piece not in PIECES:
            raise ParseError(f"unknown piece {self.piece!r}")
        if self.offset < 0:
            raise ParseError("negative slice offset")


def colors_equal(a: Any, b: Any, tol: float = TOL) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if hasattr(a, "approx_eq"):
        return a.approx_eq(b, tol)
    return a == b


class Diagram:
    """An oriented framed tangle diagram with optional edge colors.

    Its structure (the signs and the edge ids of each level) depends only
    on the bottom signs and the slices, so recolored copies share it.
    """

    def __init__(
        self,
        bottom_signs: Sequence[str],
        slices: Sequence[Slice | tuple],
        edge_colors: Optional[dict[str, Any]] = None,
    ):
        norm = [s if isinstance(s, Slice) else Slice(int(s[0]), str(s[1]))
                for s in slices]
        self.bottom_signs = tuple(bottom_signs)
        if any(s not in ("+", "-") for s in self.bottom_signs):
            raise ParseError("signs must be '+' or '-'")
        self.slices = tuple(norm)
        self._build()
        self._set_colors(edge_colors or {})

    def _set_colors(self, colors: dict[str, Any]):
        for e in colors:
            if e not in self._edges:
                raise NoSuchEdge(e)
        self.edge_colors: dict[str, Any] = dict(colors)

    def _recolored(self, colors: dict[str, Any]) -> "Diagram":
        """A diagram sharing this one's structure, with the given colors."""
        new = object.__new__(Diagram)
        new.__dict__.update(self.__dict__)
        new._set_colors(colors)
        return new

    # --- structure ---

    def _build(self):
        cur = self.bottom_signs
        ids = tuple((0, i) for i in range(len(cur)))
        signs, levels, born = [cur], [ids], list(ids)
        joined = []  # (greater, lesser) ids, in the order caps join them
        for t, sl in enumerate(self.slices):
            o, piece = sl.offset, sl.piece
            nin, nout = ARITY[piece]
            if o + nin > len(cur):
                raise ParseError(f"slice {t} ({piece}@{o}) overflows width {len(cur)}")
            got = "".join(cur[o:o + nin])
            if got != IN_SIGNS[piece]:
                raise ParseError(
                    f"slice {t} ({piece}@{o}) needs signs {IN_SIGNS[piece]!r}, got {got!r}"
                )
            if not nin:  # a cup: both legs are one edge
                new = ((t + 1, o),) * 2
            elif nout:  # a crossing: the outputs are new edges
                new = ((t + 1, o), (t + 1, o + 1))
            else:  # a cap joins the edges of its legs
                new = ()
                a, b = sorted(ids[o:o + 2])
                if a != b:
                    joined.append((b, a))
                    ids = tuple(a if e == b else e for e in ids)
            born += new
            cur = cur[:o] + tuple(OUT_SIGNS[piece]) + cur[o + nin:]
            ids = ids[:o] + new + ids[o + nin:]
            signs.append(cur)
            levels.append(ids)
        # a joined id becomes the id its cap kept, and follows that id's
        # own later joins
        root: dict[tuple[int, int], tuple[int, int]] = {}
        for b, a in reversed(joined):
            root[b] = root.get(a, a)
        name = {p: _fmt(root.get(p, p)) for p in born}
        self._level_signs = signs
        self._level_edges = [tuple(name[p] for p in lv) for lv in levels]
        # every edge begins at its least port, so `born` is in port order
        self._edges = dict.fromkeys(name.values())

    @property
    def n_slices(self) -> int:
        return len(self.slices)

    def level_signs(self, t: int) -> tuple[str, ...]:
        return self._level_signs[t]

    @property
    def top_signs(self) -> tuple[str, ...]:
        return self._level_signs[-1]

    def max_width(self) -> int:
        return max(len(w) for w in self._level_signs)

    def edge_at(self, t: int, i: int) -> str:
        """Edge id of the strand at level t, position i."""
        if t >= 0 and i >= 0:
            try:
                return self._level_edges[t][i]
            except IndexError:
                pass
        raise NoSuchEdge(f"no port at level {t} position {i}")

    def edges(self) -> list[str]:
        return list(self._edges)

    def is_closed(self) -> bool:
        return not self.bottom_signs and not self.top_signs

    # --- colors ---

    def color_at(self, t: int, i: int):
        return self.edge_colors.get(self.edge_at(t, i))

    def with_colors(self, mapping: dict[str, Any]) -> "Diagram":
        merged = dict(self.edge_colors)
        merged.update(mapping)
        return self._recolored(merged)

    def map_colors(self, f: Callable[[Any], Any]) -> "Diagram":
        return self._recolored({e: f(c) for e, c in self.edge_colors.items()})

    def fully_colored(self) -> bool:
        return all(e in self.edge_colors for e in self._edges)

    def __repr__(self):
        b = "".join(self.bottom_signs)
        s = " ".join(f"{sl.piece}@{sl.offset}" for sl in self.slices)
        return f"Diagram({b!r}, [{s}])"


def _fmt(port: tuple[int, int]) -> str:
    return f"{port[0]}:{port[1]}"


def _remap_colors(new: Diagram, parts: list[tuple[Diagram, Callable]]) -> Diagram:
    """Transfer colors of sub-diagrams into `new`, port by port.

    `parts` pairs each old diagram with a callable mapping its ports to ports
    of the new diagram, or to None for a port whose color is not carried
    over.  Where a new edge merges different old edges, conflicting colors
    raise; the ports of one old edge carry its one color and are not compared.
    """
    out: dict[str, Any] = {}
    source: dict[str, tuple[int, str]] = {}
    for k, (old, port_map) in enumerate(parts):
        for t, level in enumerate(old._level_edges):
            for i, e_old in enumerate(level):
                if e_old not in old.edge_colors:
                    continue
                q = port_map((t, i))
                if q is None:
                    continue
                e_new = new.edge_at(*q)
                c = old.edge_colors[e_old]
                if (e_new in out and source[e_new] != (k, e_old)
                        and not colors_equal(out[e_new], c)):
                    raise InconsistentColoring(f"edge {e_new} gets conflicting colors")
                out[e_new], source[e_new] = c, (k, e_old)
    return new.with_colors(out)


def _bend(d: Diagram, t: int, keep: Optional[int] = None) -> Diagram:
    """Unroll `d` at level t, to slices t.. then ..t-1 on the word
    w = d.level_signs(t), and bend closed every strand but `keep`: those
    left of it around the left, the others around the right."""
    w = d.level_signs(t)
    m, c = (0, 0) if keep is None else (keep, 1)
    pre, post = [], []
    # left cups are created outermost first, each nesting inside the last, so
    # strand j gets its return leg at m-1-j and its other leg at m+j, where
    # the tangle (shifted by m) has strand j.  Caps close the innermost first.
    for j, s in enumerate(w[:m]):
        pre.insert(0, Slice(m - 1 - j, "coevR" if s == "+" else "coevL"))
        post.append(Slice(m - 1 - j, "evL" if s == "+" else "evR"))
    for j, s in enumerate(w[m + c:]):
        pre.append(Slice(2 * m + c + j, "coevL" if s == "+" else "coevR"))
        post.insert(m, Slice(c + j, "evR" if s == "+" else "evL"))
    mid = [Slice(s.offset + m, s.piece) for s in d.slices[t:] + d.slices[:t]]
    new = Diagram(w[m:m + c], pre + mid + post)
    # port (lv, i) of d lies at level lv - t of the unrolled tangle if lv >= t,
    # else at lv + n - t; bending adds len(pre) to the level and m to the
    # position.  Per-port transfer lets the kept edge's two ends share a color.
    below, above = len(pre) + d.n_slices - t, len(pre) - t
    return _remap_colors(new, [(d, lambda q: (
        q[0] + (above if q[0] >= t else below), q[1] + m))])


def closure(d: Diagram) -> Diagram:
    """Trace closure around the right side: every strand is bent closed."""
    if d.bottom_signs != d.top_signs:
        raise WordMismatch("closure needs equal bottom and top words")
    return _bend(d, 0)


def cut_edge(d: Diagram, e: Optional[str] = None) -> Diagram:
    """Open one edge of a closed diagram into a 1-1 tangle with boundary (x,+).

    Default edge: lexicographically least (in (level, position) port order).
    The diagram is unrolled at a level where the edge is upward strand p,
    and the n-n tangle this gives is bent closed on every strand but p, as
    `closure` bends closed every strand.
    """
    if not d.is_closed():
        raise NotClosed("cut_edge needs a closed diagram")
    if e is None:
        e = next(iter(d._edges), None)
    if e not in d._edges:
        raise NoSuchEdge(e or "empty diagram")
    # cut at the first upward port of the edge.  One exists at some level
    # 1..n-1: a closed diagram has no ports at levels 0 and n, crossings take
    # only upward strands, and a cup or cap joins a downward leg to an
    # upward one, so every edge has an upward port.
    t, p = next((t, i) for t in range(1, d.n_slices)
                for i, s in enumerate(d.level_signs(t))
                if s == "+" and d.edge_at(t, i) == e)
    return _bend(d, t, p)


# --- generic coloring propagation -----------------------------------------

def propagate_colors(d: Diagram, bottom: Sequence[Any], oracle) -> Diagram:
    """Color an uncolored braid diagram from its bottom word by a
    biquandle-style oracle, in one sweep over the current colors: a
    crossing (B for X+, B_inv for X-) replaces its two, whose outputs are
    new edges, so nothing is compared (`closure` checks the seams).  Any
    other slice, or a preset color, raises InconsistentColoring."""
    if d.edge_colors:
        raise InconsistentColoring("propagation needs an uncolored diagram")
    if len(bottom) != len(d.bottom_signs):
        raise InconsistentColoring("bottom color count mismatch")
    cur = list(bottom)
    colors = {d.edge_at(0, i): c for i, c in enumerate(cur)}
    for t, sl in enumerate(d.slices):
        if sl.piece not in ("X+", "X-"):
            raise InconsistentColoring(f"slice {t} is not a crossing")
        o = sl.offset
        cur[o:o + 2] = (oracle.B if sl.piece == "X+" else oracle.B_inv)(*cur[o:o + 2])
        colors[d.edge_at(t + 1, o)], colors[d.edge_at(t + 1, o + 1)] = cur[o:o + 2]
    return d._recolored(colors)


def braid_diagram(strands: int, word: Sequence[int]) -> Diagram:
    """Braid-group word as a diagram: letter ±i crosses strands i-1, i."""
    slices = []
    for g in word:
        if g == 0 or abs(g) >= strands:
            raise ParseError(f"braid letter {g} out of range")
        slices.append(Slice(abs(g) - 1, "X+" if g > 0 else "X-"))
    return Diagram(["+"] * strands, slices)
