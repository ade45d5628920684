"""Evaluation functor laws and the renormalized link invariant."""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import math

import numpy as np
import pytest

import holoinv.braiding as braiding
import holoinv.cli as cli
import holoinv.invariant as invariant
import holoinv.uqsl2 as uqsl2

from holoinv.braiding import BraidingProvider, ModScalar, equal_mod_roots
from holoinv.diagram import (
    Diagram,
    braid_diagram,
    closure,
    cut_edge,
    propagate_colors,
)
from holoinv.errors import (
    BranchInconsistent,
    ChebyshevMismatch,
    GaugeExhausted,
    HoloinvError,
    InconsistentColoring,
    NonScalarResult,
    NoSuchEdge,
    OutsideGPrime,
    ParseError,
    Singular,
    SingularSolution,
    UnresolvableYB,
)
from holoinv.invariant import evaluate_F, evaluate_Fprime, gauge_fix, tilde_Fprime
from holoinv.modtrace import modified_dim
from holoinv.params import TOL, root_params
from holoinv.quandle import QColor, gauge_act_matrix, propagate_qcolors, z_candidates
from holoinv.sl2factor import GStarElem, YColor, psi_inv, random_gstar
from holoinv.uqsl2 import (
    ZChar,
    build_cyclic_module,
    char_from_ycolor,
    is_steinberg,
    steinberg_char,
)

from conftest import (
    commuting_link,
    ill_conditioned_riley_colors,
    random_unknot_qcolor,
    riley_trefoil,
    unknot_diagram,
)
from moves import RMove, apply_rmove, compose, identity, tensor
from oracles import FactorizationOracle
from references import arr, inv2, q_functor, qcolor, same_mod_roots, tup
from samplers import gauge_orbit_compare, random_sl2, random_ycolor


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
        assert same_mod_roots(v, ModScalar(complex(dchi), provider.p.r), 1e-8)


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
        assert same_mod_roots(res.value, want, 1e-8)


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
        assert same_mod_roots(res.value, want, 1e-8)


def test_pipeline_reidemeister_independence(providers):
    # sigma^2 closure vs the same link with an extra cancelling pair
    for ell in (3, 4):
        provider = providers[ell]
        a = commuting_link(ell, [1, 1], seed=21)
        b = commuting_link(ell, [1, 1, 1, -1], seed=21)
        va = tilde_Fprime(a, provider, seed=0).value
        vb = tilde_Fprime(b, provider, seed=0).value
        assert same_mod_roots(va, vb, 1e-6)


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
    with pytest.raises(ParseError, match="width 9 exceeds the guard 8"):
        evaluate_F(d, provider)


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


# --- the network contraction against the slice sweep it replaced ---------

def _sweep(d, provider):
    """Reference functor: a dense state with one size-r axis per strand,
    swept bottom to top, each slice applied as I (x) m (x) I."""
    r = provider.p.r
    w0 = len(d.bottom_signs)
    state = np.eye(r ** w0, dtype=complex).reshape((r,) * w0 + (r ** w0,))
    for t, sl in enumerate(d.slices):
        o = sl.offset
        if sl.piece in ("X+", "X-"):
            ya, yb = d.color_at(t, o), d.color_at(t, o + 1)
            m = (provider.braiding(ya, yb).c if sl.piece == "X+"
                 else provider.braiding_inv(ya, yb)[1])
            nin, nout = 2, 2
        else:
            nin, nout = (2, 0) if sl.piece.startswith("ev") else (0, 2)
            dd = provider.duality(d.color_at(t if nin else t + 1, o))
            m = getattr(dd, {"evL": "ev_L", "evR": "ev_R",
                             "coevL": "coev_L", "coevR": "coev_R"}[sl.piece])
        mt = m.reshape((r,) * (nout + nin))
        out = np.tensordot(mt, state, axes=(list(range(nout, nout + nin)),
                                            list(range(o, o + nin))))
        state = np.moveaxis(out, list(range(nout)), list(range(o, o + nout)))
    return state.reshape(r ** len(d.top_signs), r ** w0)


def _assert_matches_sweep(d, provider, scale=None):
    got, want = evaluate_F(d, provider), _sweep(d, provider)
    assert got.shape == want.shape
    scale = np.linalg.norm(want) if scale is None else scale
    assert np.linalg.norm(got - want) <= 1e-12 * scale


@pytest.fixture(scope="module")
def wide_providers(providers):
    """Providers at ell 3, 4 (shared), 5 and 7 (r = 3, 2, 5, 7)."""
    out = dict(providers)
    out.update({ell: BraidingProvider(root_params(ell)) for ell in (5, 7)})
    return out


def _closures(ell):
    """Lifted 2-strand closures: a commuting one and a Riley trefoil."""
    from holoinv.sl2factor import q_functor_inv

    return [q_functor_inv(commuting_link(ell, [1, 1, 1, -1], seed=50 + ell)),
            gauge_fix(riley_trefoil(ell, seed=ell))[1]]


def test_contraction_matches_sweep_on_open_diagrams(providers):
    provider = providers[4]
    rng = np.random.default_rng(3)
    y = random_ycolor(rng, provider.p)
    # zero-slice diagrams: the empty one and identities
    _assert_matches_sweep(Diagram([], []), provider)
    _assert_matches_sweep(identity([(y, "+"), (y, "-"), (y, "+")]), provider)
    # strand 0 is touched by no slice
    d = _colored_braid(4, [2, -2, 2], 8)
    assert all(sl.offset == 1 for sl in d.slices)
    _assert_matches_sweep(d, provider)
    # disconnected parts
    d1, d2 = _colored_braid(4, [1], 5), _colored_braid(4, [-1, 1], 6)
    _assert_matches_sweep(tensor(d1, d2), provider)
    _assert_matches_sweep(tensor(d1, identity([(y, "-")])), provider)


def test_contraction_matches_sweep_on_split_union(providers):
    # the loop's quantum dimension vanishes, so every evaluation of the
    # union is rounding noise; it is held to the scale of the link's terms
    link, provider = _y_link(providers, 4, [1, 1], 9)
    u, _ = _y_unknot(provider, 31)
    both = tensor(link, u)
    scale = np.linalg.norm(evaluate_F(cut_edge(link), provider))
    _assert_matches_sweep(both, provider, scale)
    for e in both.edges():
        _assert_matches_sweep(cut_edge(both, e), provider, scale)


def test_contraction_matches_sweep_on_every_cut(wide_providers):
    for ell in (3, 4, 5, 7):
        provider = wide_providers[ell]
        for link in _closures(ell):
            for e in link.edges():
                _assert_matches_sweep(cut_edge(link, e), provider)


def test_contraction_intermediates_stay_at_r4(wide_providers, monkeypatch):
    # the sweep holds r^(width + 1) entries, r^8 on a width-7 cut
    provider = wide_providers[5]
    r = provider.p.r
    sizes = []
    tensordot = np.tensordot

    def recording(*args, **kwargs):
        out = tensordot(*args, **kwargs)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(invariant.np, "tensordot", recording)
    widths = set()
    for link in _closures(5):
        for e in link.edges():
            tangle = cut_edge(link, e)
            widths.add(tangle.max_width())
            sizes.clear()
            evaluate_F(tangle, provider)
            assert sizes and max(sizes) <= r ** 4, (e, max(sizes))
    assert max(widths) == 7


def test_non_scalar_cut_tangle_raises(providers, monkeypatch):
    link, provider = _y_link(providers, 4, [1, 1], 9)
    tangle = cut_edge(link, link.edges()[0])
    assert any(sl.piece == "coevL" for sl in tangle.slices)
    evaluate_Fprime(link, provider)  # unperturbed: scalar
    r = provider.p.r
    duality = provider.duality

    def perturbed(y):
        dd = duality(y)
        leg = np.diag(1.0 + np.arange(r))  # non-scalar on the first leg
        coev = (leg @ dd.coev_L.reshape(r, r)).reshape(r * r, 1)
        return dataclasses.replace(dd, coev_L=coev)

    monkeypatch.setattr(provider, "duality", perturbed)
    with pytest.raises(NonScalarResult):
        evaluate_Fprime(link, provider)


# --- braiding resolution at large r -------------------------------------------

def test_generic_pairs_resolve_without_steinberg_pairs(monkeypatch):
    # every pair is resolved by the R-matrix solver alone: no Steinberg
    # pair, no Casimir block and no eigenproblem is needed along the way
    calls: dict = {}
    for owner, name in ((braiding, "steinberg_pair_braiding"),
                        (braiding, "block_braiding"),
                        (braiding, "casimir_block_structure"),
                        (np.linalg, "eig")):
        def recording(*args, _real=getattr(owner, name),
                      _seen=calls.setdefault(name, [])):
            _seen.append(args)
            return _real(*args)

        monkeypatch.setattr(owner, name, recording)
    for ell in (5, 7):
        provider = BraidingProvider(root_params(ell))
        for link in (commuting_link(ell, [1, 1]),
                     commuting_link(ell, [1, 1, 1, -1]), riley_trefoil(ell)):
            tilde_Fprime(link, provider)
        assert any(not (is_steinberg(provider.char(hb.y1), provider.p)
                        or is_steinberg(provider.char(hb.y2), provider.p))
                   for hb in provider._braidings.values())
        assert all(seen == [] for seen in calls.values()), (ell, calls.keys())


def _log_phase_gap(a: ModScalar, b: ModScalar) -> float:
    """The larger of |r^2 log|a/b|| and |r^2 arg(a/b)| mod 2 pi: a comparison
    of the canonical values a^(r^2) and b^(r^2) that cannot overflow."""
    n = a.r * a.r
    va, vb = complex(a.value), complex(b.value)
    return max(abs(n * (math.log(abs(va)) - math.log(abs(vb)))),
               abs(math.remainder(n * (cmath.phase(va) - cmath.phase(vb)), math.tau)))


def _hopf(ell, style, rng):
    """The Hopf link as `commuting_link` builds it, or as the benchmark
    corpus does: a random g and two distinct z drawn at random."""
    if style == "conftest":
        return commuting_link(ell, [1, 1])
    g = random_sl2(rng)
    zs = z_candidates(np.trace(g), root_params(ell))
    i, j = rng.choice(len(zs), size=2, replace=False)
    return closure(propagate_qcolors(braid_diagram(2, [1, 1]),
                                     [qcolor(g, zs[i]), qcolor(g, zs[j])]))


@pytest.mark.parametrize("style", ["conftest", "perfbench"])
@pytest.mark.parametrize("ell", [9, 11])
def test_hopf_at_large_ell_is_gauge_independent(ell, style):
    # canonical values are v^(r^2) with r^2 = 81 and 121 here, beyond the
    # float range for |v| of a few units, so the comparison is in log form
    rng = np.random.default_rng(210 + ell)
    d = _hopf(ell, style, rng)
    values = [tilde_Fprime(link, BraidingProvider(root_params(ell))).value
              for link in (d, gauge_act_matrix(tup(random_sl2(rng)), d))]
    assert all(np.isfinite(v.value) and abs(v.value) > 1e-6 for v in values)
    assert _log_phase_gap(*values) <= 1e-6


@pytest.mark.parametrize("ell", range(3, 8))
def test_diagonal_closures_resolve_in_the_identity_gauge(ell):
    # g = diag(lam, 1/lam) lifts to (lam, 0, 0): E and F act nilpotently,
    # and the R-matrix solver must resolve the pairs as they are
    p = root_params(ell)
    rng = np.random.default_rng(230 + ell)
    for lam in (2.0, 1.3 + 0.4j):
        g = np.diag([lam, 1 / lam])
        zs = z_candidates(np.trace(g), p)
        for word in ([1, 1], [1, -1, 1, 1], [1, 1, 1, 1]):
            d = closure(propagate_qcolors(braid_diagram(2, word),
                                          [qcolor(g, zs[0]), qcolor(g, zs[-1])]))
            res = tilde_Fprime(d, BraidingProvider(p))
            assert res.attempts == 1
            conj = tilde_Fprime(gauge_act_matrix(tup(random_sl2(rng)), d),
                                BraidingProvider(p))
            assert _log_phase_gap(res.value, conj.value) <= 1e-8, (lam, word)
            if ell == 3 and lam == 2.0 and word == [1, 1]:
                assert abs(res.value.canonical - 19683) <= 1e-8 * 19683


@pytest.mark.parametrize("ell", range(3, 8))
def test_riley_trefoil_resolves_in_the_identity_gauge(ell):
    # Riley's x = [[m, 1], [0, 1/m]] lifts to (m, -1, 0), a module with
    # f_r = 0 and e_r != 0; with the right E^r its pairs resolve as they are
    riley = tilde_Fprime(riley_trefoil(ell, seed=ell, conjugate=False),
                         BraidingProvider(root_params(ell)), max_gauge=1)
    conj = tilde_Fprime(riley_trefoil(ell, seed=ell),
                        BraidingProvider(root_params(ell)))
    assert _log_phase_gap(riley.value, conj.value) <= 1e-8
    if ell == 4:
        # 16 tau^2 with the trefoil's Reidemeister torsion tau = 2
        assert abs(riley.value.canonical - 64) <= 1e-8 * 64


@pytest.mark.parametrize("s", [40, 80])
def test_ill_conditioned_riley_trefoil_keeps_its_torsion(s):
    # conjugated by a matrix of condition number 1,602 (s = 40) or 6,402
    # (s = 80), the holonomy entries reach s^2; the closure seam and the
    # lift's round trip compare them relative to that size, so the value is
    # still 16 tau^2 = 64
    bottom = ill_conditioned_riley_colors(4, s)
    d = closure(propagate_qcolors(braid_diagram(2, [1, 1, 1]), bottom))
    v = tilde_Fprime(d, BraidingProvider(root_params(4))).value.canonical
    assert abs(v - 64) <= 1e-5 * 64, v


def test_planted_seam_conflict_still_raises():
    # the s = 40 coloring, with one top color conjugated by a 1e-4 shear
    # the closure must glue to a bottom color: 1e-4 apart relative to the
    # entries, far beyond the seam's relative tolerance
    braid = propagate_qcolors(braid_diagram(2, [1, 1, 1]),
                              ill_conditioned_riley_colors(4, 40))
    closure(braid)  # as propagated, the seam holds
    e = braid.edge_at(braid.n_slices, 0)
    c, shear = braid.edge_colors[e], np.array([[1.0, 1e-4], [0.0, 1.0]])
    planted = braid.with_colors(
        {e: qcolor(shear @ arr(c.g) @ inv2(shear), c.z)})
    with pytest.raises(InconsistentColoring, match="conflicting"):
        closure(planted)


def test_hopf_at_ell_13_does_not_depend_on_the_cut():
    d = commuting_link(13, [1, 1])
    provider = BraidingProvider(root_params(13))
    values = [tilde_Fprime(d, provider, cut=e).value for e in d.edges()]
    assert len(values) > 1
    assert all(_log_phase_gap(v, values[0]) <= 1e-8 for v in values)


def test_a_diagram_with_no_edge_has_no_cut():
    with pytest.raises(NoSuchEdge):
        tilde_Fprime(Diagram([], []), BraidingProvider(root_params(3)))


# --- every gate fails on a NaN ------------------------------------------------

_NAN = complex("nan")


def _nan_coproduct(call, keys):
    """Braid a generic pair with the generators `keys` of the `call`-th
    coproduct that rmatrix_braiding builds all NaN: call 0 is V1 (x) V2,
    call 1 is V4 (x) V3."""

    def plant(monkeypatch, provider):
        real, calls = braiding.coproduct_matrices, []

        def planted(V1, V2):
            calls.append(V1)
            d = real(V1, V2)
            if len(calls) - 1 != call:
                return d
            return {u: np.full_like(m, np.nan) if u in keys else m
                    for u, m in d.items()}

        monkeypatch.setattr(braiding, "coproduct_matrices", planted)
        rng = np.random.default_rng(11)
        y1, y2 = random_ycolor(rng, provider.p), random_ycolor(rng, provider.p)
        braiding.rmatrix_braiding(y1, y2, provider)

    return plant


def _nan_svd(monkeypatch, provider):
    monkeypatch.setattr(np.linalg, "svd", lambda c, compute_uv: np.full(2, np.nan))
    braiding._unit_det(np.eye(2, dtype=complex))


def _nan_contraction(monkeypatch, provider):
    r = provider.p.r
    monkeypatch.setattr(invariant, "evaluate_F", lambda d, pr: np.full((r, r), _NAN))
    tilde_Fprime(commuting_link(provider.p.ell, [1, 1]), provider)


def _nan_branch_denominator(monkeypatch, provider):
    monkeypatch.setattr(uqsl2, "prod", lambda factors: _NAN)
    build_cyclic_module(steinberg_char(provider.p), provider.p)


def _nan_cli_det(monkeypatch, provider):
    # past the parser's finiteness check, a NaN entry meets the det rule
    monkeypatch.setattr(cli, "_cplx", complex)
    cli._matrix([[_NAN, 0], [0, 1]])


def _nan_cli_chebyshev(monkeypatch, provider):
    d = unknot_diagram(QColor((1, 0, 0, 1), _NAN))
    cli._ell(argparse.Namespace(ell=None), provider.p.ell, d)


def _nan_series_root(monkeypatch, provider):
    V = build_cyclic_module(steinberg_char(provider.p), provider.p)
    braiding.dilog_series(V, V, _NAN, provider.p)


_NAN_GATES = {
    "uqsl2-chebyshev": (lambda mp, pr: char_from_ycolor(
        YColor(GStarElem.one(), _NAN), pr.p), ChebyshevMismatch, "Chebyshev"),
    "uqsl2-branch-denominator": (_nan_branch_denominator, BranchInconsistent,
                                 "denominator"),
    "sl2factor-det": (lambda mp, pr: psi_inv((_NAN, 0j, 0j, 1 + 0j)),
                      OutsideGPrime, "SL"),
    "cli-det": (_nan_cli_det, ParseError, "not in SL2"),
    "cli-chebyshev": (_nan_cli_chebyshev, ParseError, "Chebyshev"),
    "braiding-unit-det": (_nan_svd, SingularSolution, "singular"),
    "braiding-series-pole": (_nan_series_root, UnresolvableYB, "pole"),
    "braiding-stray": (_nan_coproduct(0, "E"), UnresolvableYB, r"Delta\(E\)"),
    "braiding-link-weight": (_nan_coproduct(1, "EF"), UnresolvableYB, "not unique"),
    "braiding-residual": (_nan_coproduct(1, "K"), UnresolvableYB,
                          "intertwines, residual"),
    "invariant-scalar": (_nan_contraction, NonScalarResult, "not scalar"),
    "modtrace-pole": (lambda mp, pr: modified_dim(
        ZChar(1 + 0j, 0j, 0j, _NAN), pr.p), Singular, "pole"),
}


@pytest.mark.parametrize("plant, error, match", _NAN_GATES.values(),
                         ids=_NAN_GATES.keys())
def test_each_gate_rejects_a_nan(monkeypatch, plant, error, match):
    # each check is written so that a NaN fails it: `value > bound` would
    # let the NaN through, `not value <= bound` does not
    with pytest.raises(error, match=match):
        plant(monkeypatch, BraidingProvider(root_params(4)))


@pytest.mark.parametrize("edit, match", [
    ("drop-crossing-input", "uncolored crossing"),
    ("replace-crossing-output", "stored top color disagrees"),
    ("drop-cut-edge", "cut edge has no color"),
])
def test_evaluation_checks_the_colors_it_is_given(providers, edit, match):
    lifted = gauge_fix(commuting_link(4, [1, 1]))[1]
    # the outputs of the first crossing are the inputs of the second, and
    # the cut edge is the least one, a cup's
    t = next(t for t, s in enumerate(lifted.slices) if s.piece == "X+")
    mid, other = lifted.edge_at(t + 1, 0), lifted.edge_at(t + 1, 1)
    cut = lifted.edges()[0]
    colors = dict(lifted.edge_colors)
    assert cut not in (mid, other)
    assert not colors[mid].approx_eq(colors[other], 1e3 * TOL)
    if edit == "replace-crossing-output":
        d = lifted.with_colors({mid: colors[other]})
    else:
        del colors[cut if edit == "drop-cut-edge" else mid]
        d = Diagram(lifted.bottom_signs, lifted.slices, colors)
    with pytest.raises(InconsistentColoring, match=match):
        evaluate_Fprime(d, providers[4])
