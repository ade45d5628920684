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
related by Reidemeister moves (`apply_rmove`) plus trivial slice commutations
which we do not normalize.

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
from typing import Any, Callable, Iterable, Optional, Sequence

from .errors import (
    InconsistentColoring,
    NoSuchEdge,
    NotClosed,
    ParseError,
    PatternMismatch,
    WordMismatch,
)

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


def colors_equal(a: Any, b: Any, tol: float = 1e-9) -> bool:
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
    """An oriented framed tangle diagram with optional edge colors."""

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
        self.edge_colors: dict[str, Any] = {}
        if edge_colors:
            known = {_fmt(x) for x in self._edge_ids}
            for e, c in edge_colors.items():
                if e not in known:
                    raise NoSuchEdge(e)
                self.edge_colors[e] = c

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
        self._uf = uf
        self._level_signs = [tuple(s) for s in signs]
        self._edge_ids = sorted({uf.find(p) for p in uf.parent})

    @property
    def n_slices(self) -> int:
        return len(self.slices)

    def level_signs(self, t: int) -> tuple[str, ...]:
        return self._level_signs[t]

    @property
    def top_signs(self) -> tuple[str, ...]:
        return self._level_signs[-1]

    def width(self, t: int) -> int:
        return len(self._level_signs[t])

    def max_width(self) -> int:
        return max(len(w) for w in self._level_signs)

    def edge_at(self, t: int, i: int) -> str:
        """Edge id of the strand at level t, position i."""
        if not (0 <= t <= self.n_slices) or not (0 <= i < self.width(t)):
            raise NoSuchEdge(f"no port at level {t} position {i}")
        return _fmt(self._uf.find((t, i)))

    def edges(self) -> list[str]:
        return [_fmt(e) for e in self._edge_ids]

    def is_closed(self) -> bool:
        return not self.bottom_signs and not self.top_signs

    # --- colors ---

    def color_at(self, t: int, i: int):
        return self.edge_colors.get(self.edge_at(t, i))

    def level_word(self, t: int) -> tuple[tuple[Any, str], ...]:
        return tuple(
            (self.color_at(t, i), s) for i, s in enumerate(self._level_signs[t])
        )

    def bottom_word(self):
        return self.level_word(0)

    def top_word(self):
        return self.level_word(self.n_slices)

    def with_colors(self, mapping: dict[str, Any]) -> "Diagram":
        merged = dict(self.edge_colors)
        merged.update(mapping)
        return Diagram(self.bottom_signs, self.slices, merged)

    def map_colors(self, f: Callable[[Any], Any]) -> "Diagram":
        return Diagram(
            self.bottom_signs, self.slices, {e: f(c) for e, c in self.edge_colors.items()}
        )

    def fully_colored(self) -> bool:
        return all(e in self.edge_colors for e in self.edges())

    def __repr__(self):
        b = "".join(self.bottom_signs)
        s = " ".join(f"{sl.piece}@{sl.offset}" for sl in self.slices)
        return f"Diagram({b!r}, [{s}])"


def _fmt(port: tuple[int, int]) -> str:
    return f"{port[0]}:{port[1]}"


def identity(word: Iterable[tuple[Any, str]]) -> Diagram:
    word = list(word)
    d = Diagram([s for _, s in word], [])
    return d.with_colors(
        {d.edge_at(0, i): c for i, (c, _) in enumerate(word) if c is not None}
    )


def _remap_colors(
    new: Diagram, parts: list[tuple[Diagram, Callable]], tol: float = 1e-9
) -> Diagram:
    """Transfer colors of sub-diagrams into `new`, port by port.

    `parts` pairs each old diagram with a callable mapping its ports to ports
    of the new diagram, or to None for a port whose color is not carried
    over.  Conflicting colors on a merged edge raise.
    """
    out: dict[str, Any] = {}
    for old, port_map in parts:
        for port in old._uf.parent:
            q = port_map(port)
            if q is None:
                continue
            e_old = _fmt(old._uf.find(port))
            if e_old not in old.edge_colors:
                continue
            e_new = new.edge_at(*q)
            c = old.edge_colors[e_old]
            if e_new in out and not colors_equal(out[e_new], c, tol):
                raise InconsistentColoring(f"edge {e_new} gets conflicting colors")
            out[e_new] = c
    return new.with_colors(out)


def compose(d1: Diagram, d2: Diagram, tol: float = 1e-9) -> Diagram:
    """Stack d2 on top of d1 (d1 first)."""
    if d1.top_signs != tuple(d2.bottom_signs):
        raise WordMismatch(
            f"top {''.join(d1.top_signs)!r} != bottom {''.join(d2.bottom_signs)!r}"
        )
    for i in range(d1.width(d1.n_slices)):
        c1 = d1.color_at(d1.n_slices, i)
        c2 = d2.color_at(0, i)
        if c1 is not None and c2 is not None and not colors_equal(c1, c2, tol):
            raise WordMismatch(f"boundary colors differ at position {i}")
    n1 = d1.n_slices
    new = Diagram(d1.bottom_signs, d1.slices + d2.slices)
    return _remap_colors(
        new, [(d1, lambda p: p), (d2, lambda p: (p[0] + n1, p[1]))], tol
    )


def tensor(d1: Diagram, d2: Diagram, tol: float = 1e-9) -> Diagram:
    """Place d2 to the right of d1 (d1's slices first, then d2's shifted)."""
    n1 = d1.n_slices
    w1_top = d1.width(n1)
    shifted = [Slice(s.offset + w1_top, s.piece) for s in d2.slices]
    new = Diagram(
        tuple(d1.bottom_signs) + tuple(d2.bottom_signs), list(d1.slices) + shifted
    )

    def map2(p):
        t, i = p
        if t == 0:
            return (0, d1.width(0) + i)
        return (t + n1, w1_top + i)

    return _remap_colors(new, [(d1, lambda p: p), (d2, map2)], tol)


def closure(d: Diagram, tol: float = 1e-9) -> Diagram:
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
    colored = _remap_colors(new, [(d, lambda p: (p[0] + npre, p[1]))], tol)
    # closure seams must match colors; union-find enforced merging, but if the
    # original diagram had different colors top/bottom, _remap_colors raised.
    return colored


def _bend_open(tangle: Diagram, p: int, tol: float) -> Diagram:
    """Bend an n-n tangle into a 1-1 tangle keeping boundary strand p.

    Strands left of p return around the left, strands right of p around the
    right, connecting bottom strand j to top strand j by nested arcs.
    """
    w = list(tangle.bottom_signs)
    if tangle.top_signs != tuple(w):
        raise WordMismatch("bending needs equal boundary words")
    m, k = p, len(w) - p - 1
    pre: list[Slice] = []
    # left arcs: a cup created at offset `step` nests inside the earlier
    # ones, so creating j = m-1 first puts strand j's return leg at m-1-j and
    # its other leg at m+j, where the tangle (shifted by m) has strand j.
    for step, j in enumerate(range(m - 1, -1, -1)):
        s = w[j]
        pre.append(Slice(step, "coevR" if s == "+" else "coevL"))
    # right arcs: create cup for j = 0 .. k-1
    for j in range(k):
        s = w[p + 1 + j]
        pre.append(Slice(2 * m + 1 + j, "coevL" if s == "+" else "coevR"))
    mid = [Slice(s.offset + m, s.piece) for s in tangle.slices]
    post: list[Slice] = []
    wlen = len(w)
    for j in range(m):  # left caps, innermost (j=0) first
        s = w[j]
        post.append(Slice(m - 1 - j, "evL" if s == "+" else "evR"))
    for j in range(k - 1, -1, -1):  # right caps, innermost (j=k-1) first
        s = w[p + 1 + j]
        post.append(Slice(1 + j, "evR" if s == "+" else "evL"))
    new = Diagram([w[p]], pre + mid + post)
    npre = len(pre)
    # port map for the original tangle: level t -> npre + t, position i -> m + i
    return _remap_colors(new, [(tangle, lambda q: (q[0] + npre, q[1] + m))], tol)


def cut_edge(d: Diagram, e: Optional[str] = None, tol: float = 1e-9) -> Diagram:
    """Open one edge of a closed diagram into a 1-1 tangle with boundary (x,+).

    Default edge: lexicographically least (in (level, position) port order).
    """
    if not d.is_closed():
        raise NotClosed("cut_edge needs a closed diagram")
    if e is None:
        if not d._edge_ids:
            raise NoSuchEdge("empty diagram")
        e = _fmt(d._edge_ids[0])
    if e not in d.edges():
        raise NoSuchEdge(e)
    # cut at the first upward port of the edge.  One exists at some level
    # 1..n-1: a closed diagram has no ports at levels 0 and n, crossings take
    # only upward strands, and a cup or cap joins a downward leg to an
    # upward one, so every edge has an upward port.
    t, p = next((t, i) for t in range(1, d.n_slices) for i in range(d.width(t))
                if d.edge_at(t, i) == e and d.level_signs(t)[i] == "+")
    # unroll: top part first, then bottom part; the cut level becomes boundary
    rolled = Diagram(d.level_signs(t), d.slices[t:] + d.slices[:t])
    n_top = d.n_slices - t

    def port_map(q):
        lv, i = q
        if lv >= t:
            return (lv - t, i)
        return (lv + n_top, i)

    # the cut edge touches ports in both halves; it legitimately becomes two
    # edges (bottom and top boundary) with the same color, which per-port
    # transfer allows
    rolled = _remap_colors(rolled, [(d, port_map)], tol)
    return _bend_open(rolled, p, tol)


# --- Reidemeister moves ---------------------------------------------------

@dataclass(frozen=True)
class RMove:
    kind: str  # RII_pp | RII_mp | RII_pm | RIII_ppp | RI_f
    slice_index: int
    offset: int
    direction: str = "apply"  # apply | undo
    variant: str = "+-"  # RII_pp only: order of crossing signs when applied


def _require(cond: bool, msg: str):
    if not cond:
        raise PatternMismatch(msg)


def apply_rmove(d: Diagram, m: RMove, oracle, tol: float = 1e-9) -> Diagram:
    """Apply or undo a generator Reidemeister move at a given location.

    `oracle` is a biquandle oracle with partial maps B, B_inv, S, S_inv and
    alpha; where one has no value it raises Undefined, which propagates.  Colors
    outside the modified disk are untouched (edge identities outside the disk
    are preserved by reindexing).
    """
    i, o = m.slice_index, m.offset
    sl = d.slices

    if m.kind == "RII_pp":
        if m.direction == "apply":
            x1, x2 = d.color_at(i, o), d.color_at(i, o + 1)
            _require(
                d.level_signs(i)[o: o + 2] == ("+", "+"), "need two upward strands"
            )
            if m.variant == "+-":
                pat = [Slice(o, "X+"), Slice(o, "X-")]
            else:
                pat = [Slice(o, "X-"), Slice(o, "X+")]
            new = Diagram(d.bottom_signs, sl[:i] + tuple(pat) + sl[i:])
            new = _transfer_outside(new, d, i, 2, 0)
            if x1 is not None and x2 is not None:
                f = oracle.B if m.variant == "+-" else oracle.B_inv
                mid = f(x1, x2)
                new = new.with_colors(
                    {new.edge_at(i + 1, o): mid[0], new.edge_at(i + 1, o + 1): mid[1]}
                )
                # the seam above the cancelling pair carries the inputs again;
                # set it explicitly so insertions at the top boundary stay
                # fully colored
                new = new.with_colors(
                    {new.edge_at(i + 2, o): x1, new.edge_at(i + 2, o + 1): x2}
                )
            return new
        _require(i + 1 < len(sl), "no two slices at location")
        a, c = sl[i], sl[i + 1]
        _require(
            a.offset == o and c.offset == o
            and {a.piece, c.piece} == {"X+", "X-"}
            and a.piece != c.piece,
            "pattern is not an opposite crossing pair",
        )
        new = Diagram(d.bottom_signs, sl[:i] + sl[i + 2:])
        return _transfer_outside(new, d, i, 0, 2)

    if m.kind == "RIII_ppp":
        _require(i + 2 < len(sl), "no three slices at location")
        a, bb, c = sl[i], sl[i + 1], sl[i + 2]
        _require(all(x.piece == "X+" for x in (a, bb, c)), "pattern needs X+ X+ X+")
        if (a.offset, bb.offset, c.offset) == (o, o + 1, o):
            pat = [Slice(o + 1, "X+"), Slice(o, "X+"), Slice(o + 1, "X+")]
        elif (a.offset, bb.offset, c.offset) == (o + 1, o, o + 1):
            pat = [Slice(o, "X+"), Slice(o + 1, "X+"), Slice(o, "X+")]
        else:
            raise PatternMismatch("offsets do not match a braid relation")
        new = Diagram(d.bottom_signs, sl[:i] + tuple(pat) + sl[i + 3:])
        new = _transfer_outside(new, d, i, 3, 3)
        xs = [d.color_at(i, o + j) for j in range(3)]
        if all(x is not None for x in xs):
            new = _recolor_patch(new, i, 3, o, 3, oracle)
        return new

    if m.kind in ("RII_pm", "RII_mp"):
        if m.kind == "RII_pm":
            pat_template = ["coevL", "X+", "evL", "coevR", "X-", "evR"]
            offs = [o + 2, o + 1, o, o, o + 1, o + 2]
            need_signs = ("-", "+")
        else:
            pat_template = ["coevR", "X-", "evR", "coevL", "X+", "evL"]
            offs = [o, o + 1, o + 2, o + 2, o + 1, o]
            need_signs = ("+", "-")
        if m.direction == "apply":
            _require(d.level_signs(i)[o: o + 2] == need_signs, "wrong strand signs")
            ca, cb = d.color_at(i, o), d.color_at(i, o + 1)
            pat = [Slice(off, pc) for off, pc in zip(offs, pat_template)]
            new = Diagram(d.bottom_signs, sl[:i] + tuple(pat) + sl[i:])
            new = _transfer_outside(new, d, i, 6, 0)
            if ca is not None and cb is not None:
                if m.kind == "RII_pm":
                    # (x4, x1) -> (x3, x2)
                    x3, x2 = oracle.S(ca, cb)
                    x4, x1 = ca, cb
                    patch = {
                        new.edge_at(i + 1, o + 2): x2,
                        new.edge_at(i + 2, o + 1): x4,
                        new.edge_at(i + 2, o + 2): x3,
                        new.edge_at(i + 4, o): x4,
                        new.edge_at(i + 5, o + 1): x2,
                    }
                else:
                    # (x3, x2) -> (x4, x1)
                    x4, x1 = oracle.S_inv(ca, cb)
                    x3, x2 = ca, cb
                    patch = {
                        new.edge_at(i + 1, o): x4,
                        new.edge_at(i + 2, o + 1): x1,
                        new.edge_at(i + 2, o + 2): x2,
                        new.edge_at(i + 4, o + 2): x2,
                        new.edge_at(i + 4, o + 1): x4,
                    }
                new = new.with_colors(patch)
            return new
        _require(i + 5 < len(sl), "no six slices at location")
        got = [(s2.offset, s2.piece) for s2 in sl[i: i + 6]]
        _require(got == list(zip(offs, pat_template)), "pattern mismatch")
        new = Diagram(d.bottom_signs, sl[:i] + sl[i + 6:])
        return _transfer_outside(new, d, i, 0, 6)

    if m.kind == "RI_f":
        pat_template = ["coevL", "X+", "evR", "coevL", "X-", "evR"]
        offs = [o + 1, o, o + 1, o + 1, o, o + 1]
        if m.direction == "apply":
            _require(d.level_signs(i)[o] == "+", "need an upward strand")
            x = d.color_at(i, o)
            pat = [Slice(off, pc) for off, pc in zip(offs, pat_template)]
            new = Diagram(d.bottom_signs, sl[:i] + tuple(pat) + sl[i:])
            new = _transfer_outside(new, d, i, 6, 0)
            if x is not None:
                y = oracle.alpha(x)
                new = new.with_colors(
                    {new.edge_at(i + 1, o + 1): y, new.edge_at(i + 4, o + 1): y}
                )
            return new
        _require(i + 5 < len(sl), "no six slices at location")
        got = [(s2.offset, s2.piece) for s2 in sl[i: i + 6]]
        _require(got == list(zip(offs, pat_template)), "pattern mismatch")
        new = Diagram(d.bottom_signs, sl[:i] + sl[i + 6:])
        return _transfer_outside(new, d, i, 0, 6)

    raise PatternMismatch(f"unknown move kind {m.kind!r}")


def _transfer_outside(new: Diagram, old: Diagram, i: int, n_new: int, n_old: int) -> Diagram:
    """Transfer colors via ports, skipping levels strictly inside the patch."""

    def port_map(port):
        t, pos = port
        if i < t < i + n_old:
            return None
        return (t if t <= i else t - n_old + n_new, pos)

    return _remap_colors(new, [(old, port_map)])


def _recolor_patch(d: Diagram, i: int, n: int, o: int, width: int, oracle) -> Diagram:
    """Re-propagate colors inside slices [i, i+n) over strands [o, o+width)."""
    patch: dict[str, Any] = {}
    cur = [d.color_at(i, o + j) for j in range(width)]
    for t in range(i, i + n):
        sl = d.slices[t]
        rel = sl.offset - o
        if sl.piece in ("X+", "X-") and 0 <= rel <= width - 2:
            f = oracle.B if sl.piece == "X+" else oracle.B_inv
            v = f(cur[rel], cur[rel + 1])
            cur[rel], cur[rel + 1] = v
            patch[d.edge_at(t + 1, o + rel)] = v[0]
            patch[d.edge_at(t + 1, o + rel + 1)] = v[1]
    return d.with_colors(patch)


# --- generic coloring propagation -----------------------------------------

def propagate_colors(
    d: Diagram, bottom: Sequence[Any], oracle, tol: float = 1e-9
) -> Diagram:
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
            if not colors_equal(colors[e], c, tol):
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
