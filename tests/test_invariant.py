"""Evaluation functor laws and the renormalized link invariant."""

from __future__ import annotations

import numpy as np
import pytest

from holoinv.braiding import BraidingProvider, ModScalar, equal_mod_roots
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
    GaugeExhausted,
    HoloinvError,
    InconsistentColoring,
    ParseError,
)
from holoinv.invariant import (
    evaluate_F,
    evaluate_Fprime,
    gauge_fix,
    gauge_orbit_compare,
    tilde_Fprime,
)
from holoinv.modtrace import modified_dim
from holoinv.params import root_params
from holoinv.quandle import random_sl2
from holoinv.sl2factor import (
    FactorizationOracle,
    q_functor,
    random_gstar,
    random_ycolor,
)

from conftest import commuting_link, random_unknot_qcolor, unknot_diagram


def _colored_braid(ell, word, seed):
    p = root_params(ell)
    rng = np.random.default_rng(seed)
    bq = FactorizationOracle()
    n = max(abs(w) for w in word) + 1
    for _ in range(40):
        bottom = [random_ycolor(rng, p) for _ in range(n)]
        try:
            return propagate_colors(braid_diagram(n, word), bottom, bq)
        except HoloinvError:
            continue
    pytest.skip("no generic coloring found")


def _y_unknot(provider, seed):
    rng = np.random.default_rng(seed)
    y = random_ycolor(rng, provider.p)
    d = Diagram([], [(0, "coevL"), (0, "evR")])
    return d.with_colors({d.edges()[0]: y}), y


def test_functor_on_identity_is_identity(providers):
    provider = providers[4]
    rng = np.random.default_rng(1)
    y = random_ycolor(rng, provider.p)
    d = identity([(y, "+"), (y, "-")])
    m = evaluate_F(d, provider)
    assert np.allclose(m, np.eye(provider.p.r ** 2))


def test_functor_respects_composition(providers):
    provider = providers[4]
    for seed in range(4):
        d1 = _colored_braid(4, [1], seed)
        # continue with a second crossing colored by d1's top word
        top = [d1.color_at(d1.n_slices, i) for i in range(2)]
        d2 = propagate_colors(braid_diagram(2, [-1]), top, FactorizationOracle())
        m1 = evaluate_F(d1, provider)
        m2 = evaluate_F(d2, provider)
        m = evaluate_F(compose(d1, d2), provider)
        assert np.abs(m - m2 @ m1).max() < 1e-8


def test_functor_respects_tensor(providers):
    provider = providers[4]
    d1 = _colored_braid(4, [1], 5)
    d2 = _colored_braid(4, [-1], 6)
    m = evaluate_F(tensor(d1, d2), provider)
    assert np.abs(m - np.kron(evaluate_F(d1, provider),
                              evaluate_F(d2, provider))).max() < 1e-8


def test_zig_zag_is_identity(providers):
    provider = providers[4]
    rng = np.random.default_rng(2)
    y = random_ycolor(rng, provider.p)
    # cap-cup snakes on an upward strand
    d = Diagram(["+"], [(0, "coevL"), (1, "evL")])
    d = d.with_colors({e: y for e in d.edges()})
    assert np.abs(evaluate_F(d, provider) - np.eye(provider.p.r)).max() < 1e-8
    d = Diagram(["+"], [(1, "coevR"), (0, "evR")])
    d = d.with_colors({e: y for e in d.edges()})
    assert np.abs(evaluate_F(d, provider) - np.eye(provider.p.r)).max() < 1e-8


def test_inverse_crossing_cancels_mod_roots(providers):
    for ell in (3, 4):
        provider = providers[ell]
        d = _colored_braid(ell, [1, -1], 7)
        m = evaluate_F(d, provider)
        ok, _, res = equal_mod_roots(
            m, np.eye(provider.p.r ** 2), provider.p.r, 1e-6
        )
        assert ok and res < 1e-6


def test_unknot_evaluates_to_modified_dimension(providers):
    for ell in (3, 4):
        provider = providers[ell]
        d, y = _y_unknot(provider, 30 + ell)
        v = evaluate_Fprime(d, provider)
        dchi = modified_dim(provider.char(y), provider.p)
        assert v.approx_eq(ModScalar(complex(dchi), provider.p.r), 1e-8)


def _y_link(providers, ell, word, seed):
    """Closed Y-colored link: Q-colored braid closure lifted to Y colors."""
    from holoinv.sl2factor import q_functor_inv

    provider = providers[ell]
    return q_functor_inv(commuting_link(ell, word, seed)), provider


def test_split_union_scales_by_loop_quantum_dimension(providers):
    # the partial-trace axiom: a split closed loop contributes its plain
    # quantum dimension as a scalar factor; for cyclic modules that
    # dimension vanishes, so the bracket of any split union is zero,
    # independently of the cut edge
    link, provider = _y_link(providers, 4, [1, 1], 9)
    u, y = _y_unknot(provider, 31)
    both = tensor(link, u)
    v1 = evaluate_Fprime(link, provider)
    dd = provider.duality(y)
    qdim = complex((dd.ev_R @ dd.coev_L).reshape(()))
    assert abs(qdim) < 1e-10
    for e in both.edges():
        v2 = evaluate_Fprime(both, provider, cut=e)
        assert abs(v2.value - qdim * v1.value) < 1e-7


def test_cut_edge_independence(providers):
    for ell in (3, 4):
        link, provider = _y_link(providers, ell, [1, 1], 40 + ell)
        vals = [evaluate_Fprime(link, provider, cut=e).canonical
                for e in link.edges()]
        ref = vals[0]
        scale = max(1.0, abs(ref))
        assert all(abs(v - ref) / scale < 1e-7 for v in vals)


def test_reidemeister_move_preserves_functor(providers):
    # insert a cancelling pair of crossings; the open-diagram matrices must
    # agree up to a root-of-unity scalar
    provider = providers[4]

    class _Oracle:
        def B(self, a, b):
            hb = provider.braiding(a, b)
            return hb.y4, hb.y3

        def B_inv(self, a, b):
            return provider.braiding_inv(a, b)[0]

    d = _colored_braid(4, [1], 12)
    m0 = evaluate_F(d, provider)
    d2 = apply_rmove(d, RMove("RII_pp", 1, 0, "apply"), _Oracle())
    m2 = evaluate_F(d2, provider)
    ok, _, res = equal_mod_roots(m2, m0, provider.p.r, 1e-6)
    assert ok and res < 1e-6


def test_pipeline_unknot_matches_modified_dimension(providers):
    from holoinv.sl2factor import q_functor_inv

    for ell in (3, 4):
        provider = providers[ell]
        q = random_unknot_qcolor(ell, seed=ell)
        d = unknot_diagram(q)
        res = tilde_Fprime(d, provider)
        # oracle: the crossingless unknot evaluates to the modified
        # dimension of (any lift of) its color
        lifted = q_functor_inv(d)
        y = next(iter(lifted.edge_colors.values()))
        dchi = modified_dim(provider.char(y), provider.p)
        want = ModScalar(complex(dchi), provider.p.r)
        assert res.value.approx_eq(want, 1e-8)


def test_reversed_unknot_matches_modified_dimension():
    # the loop coevR / evL starts downward, so its cut must be placed at the
    # upward leg; the value is still the modified dimension of the color
    from holoinv.sl2factor import q_functor_inv

    for ell in (3, 4, 5):
        provider = BraidingProvider(root_params(ell))
        d = Diagram([], [(0, "coevR"), (0, "evL")])
        d = d.with_colors({d.edges()[0]: random_unknot_qcolor(ell, seed=ell)})
        res = tilde_Fprime(d, provider)
        tangle = cut_edge(q_functor_inv(d), res.cut_edge)
        assert tangle.bottom_signs == ("+",)
        dchi = modified_dim(provider.char(tangle.color_at(0, 0)), provider.p)
        want = ModScalar(complex(dchi), provider.p.r)
        assert res.value.approx_eq(want, 1e-8)


def test_pipeline_reidemeister_independence(providers):
    # sigma^2 closure vs the same link with an extra cancelling pair
    for ell in (3, 4):
        provider = providers[ell]
        a = commuting_link(ell, [1, 1], seed=21)
        b = commuting_link(ell, [1, 1, 1, -1], seed=21)
        va = tilde_Fprime(a, provider, seed=0).value
        vb = tilde_Fprime(b, provider, seed=0).value
        assert va.approx_eq(vb, 1e-6)


def test_pipeline_seed_independence(providers):
    provider = providers[3]
    d = commuting_link(3, [1, 1], seed=22)
    v0 = tilde_Fprime(d, provider, seed=0).value.canonical
    for seed in (1, 2, 3):
        v = tilde_Fprime(d, provider, seed=seed).value.canonical
        assert abs(v - v0) <= 1e-6 * max(1.0, abs(v0))


def test_gauge_orbit_invariance(providers):
    provider = providers[4]
    d = commuting_link(4, [1, 1], seed=23)
    rng = np.random.default_rng(24)
    gens = [random_gstar(rng) for _ in range(3)]
    gens.append(random_sl2(rng))
    report = gauge_orbit_compare(d, gens, provider, seed=0)
    assert report["pass"], report
    assert report["max_deviation"] < 1e-6


def test_width_guard_raises_parse_error(providers):
    provider = providers[4]
    d = braid_diagram(9, [1])
    with pytest.raises(ParseError):
        evaluate_F(d, provider, max_width=8)


def test_gauge_exhausted_on_zero_budget(providers):
    provider = providers[4]
    d = commuting_link(4, [1, 1], seed=25)
    with pytest.raises(GaugeExhausted):
        tilde_Fprime(d, provider, max_gauge=0)


def test_missing_color_is_an_input_error(providers):
    # two loops, only the first colored: bad input, which no gauge can mend,
    # so the gauge loop must not retry it
    d = Diagram([], [(0, "coevL"), (2, "coevL"), (2, "evR"), (0, "evR")])
    assert d.edges() == ["1:0", "2:2"]
    with pytest.raises(InconsistentColoring, match="2:2"):
        gauge_fix(d.with_colors({"1:0": random_unknot_qcolor(4)}), max_gauge=5)
    yd = d.with_colors({"1:0": random_ycolor(np.random.default_rng(5),
                                             root_params(4))})
    with pytest.raises(InconsistentColoring):
        q_functor(yd)
    with pytest.raises(InconsistentColoring):
        evaluate_F(yd, providers[4])
