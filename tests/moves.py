"""Diagram assembly and Reidemeister moves, for the tests (not collected).

The pipeline only builds, closes and cuts diagrams (`holoinv.diagram`).
The functor laws and the move invariance are tested on diagrams assembled
from pieces (`identity`, `compose`, `tensor`) and rewritten by generator
Reidemeister moves (`apply_rmove`); `level_word` and its two ends read a
level's colors and signs back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from holoinv.diagram import Diagram, Slice, _remap_colors, colors_equal
from holoinv.errors import HoloinvError, WordMismatch


class PatternMismatch(HoloinvError):
    """A move's pattern is not found at the given location."""


def width(d: Diagram, t: int) -> int:
    return len(d.level_signs(t))


def level_word(d: Diagram, t: int) -> tuple[tuple[Any, str], ...]:
    return tuple((d.color_at(t, i), s) for i, s in enumerate(d.level_signs(t)))


def bottom_word(d: Diagram):
    return level_word(d, 0)


def top_word(d: Diagram):
    return level_word(d, d.n_slices)


def identity(word: Iterable[tuple[Any, str]]) -> Diagram:
    word = list(word)
    d = Diagram([s for _, s in word], [])
    return d.with_colors(
        {d.edge_at(0, i): c for i, (c, _) in enumerate(word) if c is not None}
    )


def compose(d1: Diagram, d2: Diagram) -> Diagram:
    """Stack d2 on top of d1 (d1 first)."""
    if d1.top_signs != tuple(d2.bottom_signs):
        raise WordMismatch(
            f"top {''.join(d1.top_signs)!r} != bottom {''.join(d2.bottom_signs)!r}"
        )
    for i in range(width(d1, d1.n_slices)):
        c1 = d1.color_at(d1.n_slices, i)
        c2 = d2.color_at(0, i)
        if c1 is not None and c2 is not None and not colors_equal(c1, c2):
            raise WordMismatch(f"boundary colors differ at position {i}")
    n1 = d1.n_slices
    new = Diagram(d1.bottom_signs, d1.slices + d2.slices)
    return _remap_colors(new, [(d1, lambda p: p), (d2, lambda p: (p[0] + n1, p[1]))])


def tensor(d1: Diagram, d2: Diagram) -> Diagram:
    """Place d2 to the right of d1 (d1's slices first, then d2's shifted)."""
    n1 = d1.n_slices
    w1_top = width(d1, n1)
    shifted = [Slice(s.offset + w1_top, s.piece) for s in d2.slices]
    new = Diagram(
        tuple(d1.bottom_signs) + tuple(d2.bottom_signs), list(d1.slices) + shifted
    )

    def map2(p):
        t, i = p
        if t == 0:
            return (0, width(d1, 0) + i)
        return (t + n1, w1_top + i)

    return _remap_colors(new, [(d1, lambda p: p), (d2, map2)])


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


def apply_rmove(d: Diagram, m: RMove, oracle) -> Diagram:
    """Apply or undo a generator Reidemeister move at a given location.

    `oracle` is a biquandle oracle (see `oracles.FactorizationOracle`) with
    partial maps B, B_inv, S, S_inv and alpha; where one has no value it
    raises Undefined, which propagates.  Colors outside the modified disk are
    untouched (edge identities outside the disk are preserved by reindexing).
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
