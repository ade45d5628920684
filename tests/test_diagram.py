"""Slice-diagram structure: composition, closure, cutting, Reidemeister moves."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holoinv.braiding import BraidingProvider
from holoinv.diagram import (
    IN_SIGNS,
    OUT_SIGNS,
    PIECES,
    Diagram,
    Slice,
    braid_diagram,
    closure,
    cut_edge,
    propagate_colors,
)
from holoinv.errors import (
    InconsistentColoring,
    NotClosed,
    NoSuchEdge,
    ParseError,
    WordMismatch,
)
from holoinv.invariant import tilde_Fprime
from holoinv.params import root_params

from conftest import commuting_link, riley_trefoil
from references import qcolor, slice_closure, slice_cut_edge, union_find_edges
from moves import (
    RMove,
    apply_rmove,
    bottom_word,
    compose,
    identity,
    tensor,
    top_word,
    width,
)


class _ToyOracle:
    """Total biquandle on integers: B(x, y) = (y, x) with trivial diagonal."""

    def B(self, x, y):
        return (y, x)

    def B_inv(self, x, y):
        return (y, x)

    def S(self, x4, x1):
        return (x4, x1)

    def S_inv(self, x3, x2):
        return (x3, x2)

    def alpha(self, x):
        return x

    def alpha_inv(self, x):
        return x


def test_identity_word_roundtrip():
    d = identity([("a", "+"), ("b", "-")])
    assert bottom_word(d) == (("a", "+"), ("b", "-"))
    assert top_word(d) == bottom_word(d)
    assert d.max_width() == 2


def test_slice_sign_validation():
    with pytest.raises(ParseError):
        Diagram("+-", [(0, "X+")])  # crossings need two upward strands
    with pytest.raises(ParseError):
        Diagram("+", [(0, "evL")])  # overflow
    with pytest.raises(ParseError):
        Diagram("++", [(0, "evL")])  # evL wants "-+"


def test_compose_and_tensor_shapes():
    d1 = braid_diagram(2, [1])
    d2 = braid_diagram(2, [-1])
    c = compose(d2, d1)
    assert c.n_slices == 2
    t = tensor(d1, d2)
    assert width(t, 0) == 4
    with pytest.raises(WordMismatch):
        compose(braid_diagram(3, [1]), d1)


def test_closure_and_cut_edge_structure():
    d = braid_diagram(2, [1, 1])
    cl = closure(d)
    assert cl.is_closed()
    # cutting any edge gives a 1-1 tangle with an upward boundary strand
    for e in cl.edges():
        t = cut_edge(cl, e)
        assert t.bottom_signs == ("+",)
        assert t.top_signs == ("+",)
    with pytest.raises(NoSuchEdge):
        cut_edge(cl, "99:9")
    with pytest.raises(NotClosed):
        cut_edge(d)


def test_cut_edge_keeps_colors():
    d = braid_diagram(2, [1, 1])
    colored = propagate_colors(d, ["a", "b"], _ToyOracle())
    cl = closure(colored)
    t = cut_edge(cl)
    assert t.fully_colored()
    assert t.color_at(0, 0) == t.color_at(t.n_slices, 0)


def test_edge_at_rejects_ports_outside_the_diagram():
    d = closure(braid_diagram(2, [1, -1]))
    n = d.n_slices
    for t in (-1, n + 1):
        with pytest.raises(NoSuchEdge):
            d.edge_at(t, 0)
    for t in range(n + 1):
        for i in (-1, width(d, t)):
            with pytest.raises(NoSuchEdge):
                d.edge_at(t, i)
        assert all(d.edge_at(t, i) in d.edges() for i in range(width(d, t)))


@st.composite
def slice_words(draw):
    """(bottom signs, slices): 0-4 bottom strands and up to 25 slices, each
    piece legal for the signs below it.  A word on no bottom strands is
    often capped off, which closes the diagram."""
    cur = draw(st.lists(st.sampled_from("+-"), max_size=4))
    bottom, slices = tuple(cur), []
    for _ in range(draw(st.integers(0, 25))):
        sl = draw(st.sampled_from([
            Slice(o, p) for p in PIECES
            for o in range(len(cur) - len(IN_SIGNS[p]) + 1)
            if "".join(cur[o:o + len(IN_SIGNS[p])]) == IN_SIGNS[p]]))
        slices.append(sl)
        o, n = sl.offset, len(IN_SIGNS[sl.piece])
        cur = cur[:o] + list(OUT_SIGNS[sl.piece]) + cur[o + n:]
    if not bottom and draw(st.booleans()):
        while cur:  # a balanced word always has a cappable pair
            o = next(j for j in range(len(cur) - 1) if cur[j] != cur[j + 1])
            slices.append(Slice(o, "evR" if cur[o] == "+" else "evL"))
            del cur[o:o + 2]
    return bottom, slices


@settings(deadline=None, derandomize=True)
@given(slice_words())
def test_edges_match_the_union_find_reference(word):
    d = Diagram(*word)
    for t in [d] + ([cut_edge(d, e) for e in d.edges()] if d.is_closed() else []):
        port_edge, edges = union_find_edges(t.bottom_signs, t.slices)
        assert t.edges() == edges
        ports = [(lv, i) for lv in range(t.n_slices + 1) for i in range(width(t, lv))]
        assert {q: t.edge_at(*q) for q in ports} == port_edge


_INVERSE = {"X+": "X-", "X-": "X+", "coevL": "evR", "coevR": "evL",
            "evL": "coevR", "evR": "coevL"}


def _seam_colored(d: Diagram) -> Diagram:
    """`d` with one token per edge of its closure: edges that the closure's
    seam joins, bottom port i to top port i, share a token."""
    root = {e: e for e in d.edges()}

    def find(e):
        while root[e] != e:
            e = root[e]
        return e

    for i in range(len(d.bottom_signs)):
        root[find(d.edge_at(d.n_slices, i))] = find(d.edge_at(0, i))
    return d.with_colors({e: find(e) for e in d.edges()})


def _same_tangle(a: Diagram, b: Diagram) -> None:
    assert a.bottom_signs == b.bottom_signs
    assert a.slices == b.slices
    assert a.edges() == b.edges()
    assert a.edge_colors == b.edge_colors


@settings(deadline=None, derandomize=True, max_examples=100)
@given(slice_words())
def test_closures_and_cuts_match_the_slice_references(word):
    # the word, and the word followed by its inverse, whose end words agree
    bottom, slices = word
    back = [Slice(s.offset, _INVERSE[s.piece]) for s in reversed(slices)]
    for d in (Diagram(bottom, slices), Diagram(bottom, slices + back)):
        if d.bottom_signs != d.top_signs:
            for f in (closure, slice_closure):
                with pytest.raises(WordMismatch):
                    f(d)
            continue
        d = _seam_colored(d)
        cl = closure(d)
        _same_tangle(cl, slice_closure(d))
        # a distinct token per edge of the closed diagram: a port moved to
        # another edge of the cut shows as a moved or clashing color
        cl = cl.with_colors({e: e for e in cl.edges()})
        for e in cl.edges():
            _same_tangle(cut_edge(cl, e), slice_cut_edge(cl, e))


def test_recolored_copies_share_structure_but_not_colors():
    d = braid_diagram(2, [1])
    colored = propagate_colors(d, ["a", "b"], _ToyOracle())
    upper = colored.map_colors(str.upper)
    assert d.edge_colors == {}
    assert upper.edges() == colored.edges() == d.edges()
    assert upper.edge_colors == {e: c.upper() for e, c in colored.edge_colors.items()}
    for x in (colored, upper):
        with pytest.raises(NoSuchEdge):
            x.with_colors({"99:9": "z"})


def test_closure_compares_only_colors_of_different_edges():
    # the through strand's bottom and top ports lie on one edge, whose one
    # color must not be compared with itself: a NaN entry equals nothing
    d = Diagram(["+"], [(0, "coevL"), (0, "evR")])
    nan = qcolor([[np.nan, 0], [0, 1]], 0.0)
    one = qcolor(np.eye(2), 0.0)
    cl = closure(d.with_colors({e: nan for e in d.edges()}))
    assert all(c is nan for c in cl.edge_colors.values())
    # a seam that joins two edges of different colors still conflicts
    bd = braid_diagram(2, [1])
    top = {bd.edge_at(bd.n_slices, i) for i in range(2)}
    with pytest.raises(InconsistentColoring, match="conflicting"):
        closure(bd.with_colors({e: one if e in top else nan for e in bd.edges()}))


@pytest.mark.parametrize("link", ["commuting", "trefoil"])
def test_warm_evaluation_builds_one_structure(link, monkeypatch):
    # the gauge move, the lift and its round trip recolor the link's diagram;
    # only the cut's 1-1 tangle has a new slice list
    d = (commuting_link(5, [1, 1, 1, -1]) if link == "commuting"
         else riley_trefoil(5))
    provider = BraidingProvider(root_params(5))
    for e in d.edges():
        tilde_Fprime(d, provider, cut=e)  # resolves every braiding
    build, built = Diagram._build, []

    def counting(self):
        built.append(self)
        build(self)

    monkeypatch.setattr(Diagram, "_build", counting)
    for e in d.edges():
        built.clear()
        tilde_Fprime(d, provider, cut=e)
        assert len(built) == 1, e


def test_propagate_colors_fires_positive_and_negative_crossings():
    d = braid_diagram(2, [1, -1])
    colored = propagate_colors(d, ["a", "b"], _ToyOracle())
    assert top_word(colored) == (("a", "+"), ("b", "+"))


def test_propagate_colors_rejects_a_clashing_preset_color():
    # propagation colors an uncolored braid: a preset color, clashing
    # (B(a, b) puts b at 1:0) or not, is refused, never overwritten
    d = braid_diagram(2, [1])
    for preset in ("c", "b"):
        with pytest.raises(InconsistentColoring, match="uncolored diagram"):
            propagate_colors(d.with_colors({d.edge_at(1, 0): preset}),
                             ["a", "b"], _ToyOracle())


def test_propagate_colors_rejects_an_unreachable_crossing_input():
    # an uncolored closure: the crossing's inputs come from cups, not the
    # bottom, and a cup is no braid slice
    with pytest.raises(InconsistentColoring, match="slice 0 is not a crossing"):
        propagate_colors(closure(braid_diagram(2, [1])), [], _ToyOracle())


def test_rmove_r2_insert_and_undo():
    d = identity([("a", "+"), ("b", "+")])
    m = RMove("RII_pp", 0, 0, "apply", "+-")
    up = apply_rmove(d, m, _ToyOracle())
    assert [s.piece for s in up.slices] == ["X+", "X-"]
    assert top_word(up) == top_word(d)
    back = apply_rmove(up, RMove("RII_pp", 0, 0, "undo"), _ToyOracle())
    assert back.slices == d.slices
    assert top_word(back) == top_word(d)


def test_rmove_r3_preserves_boundary_colors():
    d = propagate_colors(braid_diagram(3, [1, 2, 1]), ["a", "b", "c"], _ToyOracle())
    moved = apply_rmove(d, RMove("RIII_ppp", 0, 0), _ToyOracle())
    assert [s.offset for s in moved.slices] == [1, 0, 1]
    assert bottom_word(moved) == bottom_word(d)
    assert top_word(moved) == top_word(d)


def test_braid_diagram_validation():
    with pytest.raises(ParseError):
        braid_diagram(2, [2])
    with pytest.raises(ParseError):
        braid_diagram(2, [0])
