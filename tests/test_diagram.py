"""Slice-diagram structure: composition, closure, cutting, Reidemeister moves."""

from __future__ import annotations

import pytest

from holoinv.diagram import (
    Diagram,
    RMove,
    apply_rmove,
    braid_diagram,
    closure,
    compose,
    cut_edge,
    identity,
    propagate_colors,
    tensor,
)
from holoinv.errors import (
    InconsistentColoring,
    NotClosed,
    NoSuchEdge,
    ParseError,
    WordMismatch,
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
    assert d.bottom_word() == (("a", "+"), ("b", "-"))
    assert d.top_word() == d.bottom_word()
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
    assert t.width(0) == 4
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


def test_propagate_colors_fires_positive_and_negative_crossings():
    d = braid_diagram(2, [1, -1])
    colored = propagate_colors(d, ["a", "b"], _ToyOracle())
    assert colored.top_word() == (("a", "+"), ("b", "+"))


def test_propagate_colors_rejects_a_clashing_preset_color():
    d = braid_diagram(2, [1])
    d = d.with_colors({d.edge_at(1, 0): "c"})  # B(a, b) puts b there
    with pytest.raises(InconsistentColoring, match="two colors"):
        propagate_colors(d, ["a", "b"], _ToyOracle())


def test_propagate_colors_rejects_an_unreachable_crossing_input():
    # an uncolored closure: the crossing's inputs come from cups, not the bottom
    with pytest.raises(InconsistentColoring, match="uncolored input"):
        propagate_colors(closure(braid_diagram(2, [1])), [], _ToyOracle())


def test_rmove_r2_insert_and_undo():
    d = identity([("a", "+"), ("b", "+")])
    m = RMove("RII_pp", 0, 0, "apply", "+-")
    up = apply_rmove(d, m, _ToyOracle())
    assert [s.piece for s in up.slices] == ["X+", "X-"]
    assert up.top_word() == d.top_word()
    back = apply_rmove(up, RMove("RII_pp", 0, 0, "undo"), _ToyOracle())
    assert back.slices == d.slices
    assert back.top_word() == d.top_word()


def test_rmove_r3_preserves_boundary_colors():
    d = propagate_colors(braid_diagram(3, [1, 2, 1]), ["a", "b", "c"], _ToyOracle())
    moved = apply_rmove(d, RMove("RIII_ppp", 0, 0), _ToyOracle())
    assert [s.offset for s in moved.slices] == [1, 0, 1]
    assert moved.bottom_word() == d.bottom_word()
    assert moved.top_word() == d.top_word()


def test_braid_diagram_validation():
    with pytest.raises(ParseError):
        braid_diagram(2, [2])
    with pytest.raises(ParseError):
        braid_diagram(2, [0])
