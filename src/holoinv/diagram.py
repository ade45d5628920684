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
closing a braid, cutting an edge and propagating colors.

Edges are maximal arcs between slice events.  An edge is identified by the
lexicographically least *port* it touches, where a port is a pair
(level, position): level t is the horizontal line below slice t, position i
the strand index at that level.  Ports are merged by union-find: pass-through
strands connect consecutive levels, cups/caps merge their two legs into one
edge, crossings terminate edges.

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

# (inputs, outputs) arity of each piece
ARITY = {
    "X+": (2, 2),
    "X-": (2, 2),
    "evL": (2, 0),
    "evR": (2, 0),
    "coevL": (0, 2),
    "coevR": (0, 2),
}

# sign patterns consumed / produced
IN_SIGNS = {"X+": "++", "X-": "++", "evL": "-+", "evR": "+-", "coevL": "", "coevR": ""}
OUT_SIGNS = {"X+": "++", "X-": "++", "evL": "", "evR": "", "coevL": "+-", "coevR": "-+"}


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


class _UnionFind:
    def __init__(self):
        self.parent: dict[tuple[int, int], tuple[int, int]] = {}

    def add(self, x):
        if x not in self.parent:
            self.parent[x] = x

    def find(self, x):
        self.add(x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # keep the smaller port as representative
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


class Diagram:
    """An oriented framed tangle diagram with optional edge colors.

    Its structure (level signs, edge ids, port -> edge id table) depends only
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
        uf = _UnionFind()
        signs = [list(self.bottom_signs)]
        cur = list(self.bottom_signs)
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
            # pass-through unions
            for i in range(o):
                uf.union((t, i), (t + 1, i))
            for i in range(o + nin, len(cur)):
                uf.union((t, i), (t + 1, i - nin + nout))
            if piece in ("evL", "evR"):
                uf.union((t, o), (t, o + 1))
            elif piece in ("coevL", "coevR"):
                uf.union((t + 1, o), (t + 1, o + 1))
            # crossings: input ports die, output ports are fresh
            for i in range(o, o + nin):
                uf.add((t, i))
            cur = cur[:o] + list(OUT_SIGNS[piece]) + cur[o + nin:]
            for i in range(o, o + nout):
                uf.add((t + 1, i))
            signs.append(list(cur))
        # make sure every port of the top level exists
        for i in range(len(cur)):
            uf.add((len(self.slices), i))
        self._level_signs = [tuple(s) for s in signs]
        self._port_edge = {p: _fmt(uf.find(p)) for p in uf.parent}
        # an edge's root is its least port; the ids in port order, as dict keys
        self._edges = dict.fromkeys(_fmt(p) for p in sorted(uf.parent)
                                    if uf.parent[p] == p)

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
        try:
            return self._port_edge[t, i]
        except KeyError:
            raise NoSuchEdge(f"no port at level {t} position {i}") from None

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
        for port, e_old in old._port_edge.items():
            if e_old not in old.edge_colors:
                continue
            q = port_map(port)
            if q is None:
                continue
            e_new = new.edge_at(*q)
            c = old.edge_colors[e_old]
            if (e_new in out and source[e_new] != (k, e_old)
                    and not colors_equal(out[e_new], c)):
                raise InconsistentColoring(f"edge {e_new} gets conflicting colors")
            out[e_new], source[e_new] = c, (k, e_old)
    return new.with_colors(out)


def closure(d: Diagram) -> Diagram:
    """Trace closure around the right side."""
    if d.bottom_signs != d.top_signs:
        raise WordMismatch("closure needs equal bottom and top words")
    n = len(d.bottom_signs)
    pre = []
    for i, s in enumerate(d.bottom_signs):
        pre.append(Slice(i, "coevL" if s == "+" else "coevR"))
    mid = list(d.slices)  # ambient right pad needs no offset change
    post = []
    for i in range(n - 1, -1, -1):
        s = d.bottom_signs[i]
        post.append(Slice(i, "evR" if s == "+" else "evL"))
    new = Diagram([], pre + mid + post)
    npre = len(pre)
    # a seam whose top and bottom colors differ makes _remap_colors raise
    return _remap_colors(new, [(d, lambda p: (p[0] + npre, p[1]))])


def cut_edge(d: Diagram, e: Optional[str] = None) -> Diagram:
    """Open one edge of a closed diagram into a 1-1 tangle with boundary (x,+).

    Default edge: lexicographically least (in (level, position) port order).
    The diagram is unrolled at a level where the edge is upward strand p,
    and the n-n tangle this gives is bent open keeping strand p: strands
    left of p return around the left, strands right of p around the right.
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
                if s == "+" and d._port_edge[t, i] == e)
    w = d.level_signs(t)
    m, k = p, len(w) - p - 1
    pre: list[Slice] = []
    # left arcs: a cup created at offset `step` nests inside the earlier
    # ones, so creating j = m-1 first puts strand j's return leg at m-1-j and
    # its other leg at m+j, where the tangle (shifted by m) has strand j.
    for step, j in enumerate(range(m - 1, -1, -1)):
        pre.append(Slice(step, "coevR" if w[j] == "+" else "coevL"))
    # right arcs: create cup for j = 0 .. k-1
    for j in range(k):
        s = w[p + 1 + j]
        pre.append(Slice(2 * m + 1 + j, "coevL" if s == "+" else "coevR"))
    mid = [Slice(s.offset + m, s.piece) for s in d.slices[t:] + d.slices[:t]]
    post: list[Slice] = []
    for j in range(m):  # left caps, innermost (j=0) first
        post.append(Slice(m - 1 - j, "evL" if w[j] == "+" else "evR"))
    for j in range(k - 1, -1, -1):  # right caps, innermost (j=k-1) first
        s = w[p + 1 + j]
        post.append(Slice(1 + j, "evR" if s == "+" else "evL"))
    new = Diagram([w[p]], pre + mid + post)
    # port (lv, i) of d lies at level lv - t of the unrolled tangle if lv >= t,
    # else at lv + n - t; bending adds npre to the level and m to the position.
    # The cut edge legitimately becomes two edges (bottom and top boundary)
    # with the same color, which per-port transfer allows.
    below, above = len(pre) + d.n_slices - t, len(pre) - t
    return _remap_colors(new, [(d, lambda q: (
        q[0] + (above if q[0] >= t else below), q[1] + m))])


# --- generic coloring propagation -----------------------------------------

def propagate_colors(d: Diagram, bottom: Sequence[Any], oracle) -> Diagram:
    """Color all edges from the bottom word using a biquandle-style oracle.

    One forward sweep: crossings fire in slice order (B for X+, B_inv for
    X-), and each output must agree with any color its edge already has,
    which checks the seams of a closed diagram.  Cups and caps need no rule
    since their legs are one edge.  The oracle's Undefined propagates where
    a needed partial value is missing; InconsistentColoring is raised if a
    crossing has an uncolored input, colors clash, or edges stay uncolored.
    """
    if len(bottom) != len(d.bottom_signs):
        raise InconsistentColoring("bottom color count mismatch")
    colors: dict[str, Any] = dict(d.edge_colors)

    def put(e: str, c: Any):
        if e in colors:
            if not colors_equal(colors[e], c):
                raise InconsistentColoring(f"edge {e} forced to two colors")
        else:
            colors[e] = c

    for i, c in enumerate(bottom):
        put(d.edge_at(0, i), c)
    for t, sl in enumerate(d.slices):
        if sl.piece not in ("X+", "X-"):
            continue
        o = sl.offset
        ins = [colors.get(d.edge_at(t, i)) for i in (o, o + 1)]
        if any(x is None for x in ins):
            raise InconsistentColoring(f"crossing at slice {t} has an uncolored input")
        v = (oracle.B if sl.piece == "X+" else oracle.B_inv)(*ins)
        put(d.edge_at(t + 1, o), v[0])
        put(d.edge_at(t + 1, o + 1), v[1])
    out = d.with_colors(colors)
    if not out.fully_colored():
        raise InconsistentColoring("coloring did not reach every edge")
    return out


def braid_diagram(strands: int, word: Sequence[int]) -> Diagram:
    """Braid-group word as a diagram: letter ±i crosses strands i-1, i."""
    slices = []
    for g in word:
        if g == 0 or abs(g) >= strands:
            raise ParseError(f"braid letter {g} out of range")
        slices.append(Slice(abs(g) - 1, "X+" if g > 0 else "X-"))
    return Diagram(["+"] * strands, slices)
