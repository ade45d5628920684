"""Evaluation functor laws and the renormalized link invariant."""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import functools
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
    Undefined,
    UnresolvableYB,
)
from holoinv.invariant import evaluate_F, evaluate_Fprime, gauge_fix, tilde_Fprime
from holoinv.modtrace import modified_dim
from holoinv.params import TOL, root_params
from holoinv.quandle import QColor, gauge_act_matrix, propagate_qcolors, z_candidates
from holoinv.sl2factor import GStarElem, YColor, psi_inv, random_gstar, sl2_B
from holoinv.uqsl2 import (
    ZChar,
    build_cyclic_module,
    char_from_ycolor,
    is_steinberg,
    steinberg_char,
)

import colorings
from alexander import torsion
from conftest import (
    commuting_link,
    ill_conditioned_riley_colors,
    random_unknot_qcolor,
    riley_trefoil,
    unknot_diagram,
)
from moves import RMove, apply_rmove, compose, identity, tensor
from oracles import FactorizationOracle, alpha
from references import (
    arr, inv2, q_functor, qcolor, same_mod_roots, tensordot_contract, tup, twist,
)
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


def _open_diagrams(provider):
    """Zero-slice diagrams (the empty one and an identity), a braid whose
    strand 0 no slice touches, and two disconnected ones."""
    rng = np.random.default_rng(3)
    y = random_ycolor(rng, provider.p)
    d = _colored_braid(4, [2, -2, 2], 8)
    assert all(sl.offset == 1 for sl in d.slices)
    d1, d2 = _colored_braid(4, [1], 5), _colored_braid(4, [-1, 1], 6)
    return [Diagram([], []), identity([(y, "+"), (y, "-"), (y, "+")]), d,
            tensor(d1, d2), tensor(d1, identity([(y, "-")]))]


def _split_union(providers):
    """A link and a loop whose quantum dimension vanishes, side by side,
    and the scale of the link's terms."""
    link, provider = _y_link(providers, 4, [1, 1], 9)
    u, _ = _y_unknot(provider, 31)
    return tensor(link, u), np.linalg.norm(evaluate_F(cut_edge(link), provider))


def test_contraction_matches_sweep_on_open_diagrams(providers):
    for d in _open_diagrams(providers[4]):
        _assert_matches_sweep(d, providers[4])


def test_contraction_matches_sweep_on_split_union(providers):
    # the loop's quantum dimension vanishes, so every evaluation of the
    # union is rounding noise; it is held to the scale of the link's terms
    both, scale = _split_union(providers)
    _assert_matches_sweep(both, providers[4], scale)
    for e in both.edges():
        _assert_matches_sweep(cut_edge(both, e), providers[4], scale)


def test_contraction_matches_sweep_on_every_cut(wide_providers):
    for ell in (3, 4, 5, 7):
        provider = wide_providers[ell]
        for link in _closures(ell):
            for e in link.edges():
                _assert_matches_sweep(cut_edge(link, e), provider)


def _network(d, provider):
    """`evaluate_F(d)`, and the nodes and open labels it hands `_contract`."""
    contract, seen = invariant._contract, []

    def capturing(tensors, open_labels):
        seen.append((list(tensors), list(open_labels)))
        return contract(tensors, open_labels)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(invariant, "_contract", capturing)
        got = evaluate_F(d, provider)
    (tensors, open_labels), = seen
    return got, tensors, open_labels


def _assert_contraction_is_bitwise(d, provider):
    """`evaluate_F`'s contraction gives, bit for bit, what the same heap
    order makes of its network with `np.tensordot` at every step."""
    got, tensors, open_labels = _network(d, provider)
    want = tensordot_contract(tensors, open_labels)
    assert np.array_equal(got, want.reshape(got.shape))


def test_contraction_matches_the_tensordot_reference_bitwise(wide_providers):
    for d in _open_diagrams(wide_providers[4]):
        _assert_contraction_is_bitwise(d, wide_providers[4])
    both, _ = _split_union(wide_providers)
    for d in [both] + [cut_edge(both, e) for e in both.edges()]:
        _assert_contraction_is_bitwise(d, wide_providers[4])
    for ell in (3, 4, 5, 7):
        for link in _closures(ell):
            for e in link.edges():
                _assert_contraction_is_bitwise(cut_edge(link, e), wide_providers[ell])


def test_contraction_intermediates_stay_at_r4(wide_providers, monkeypatch):
    # a dense state swept up the diagram would hold r^(width + 1) entries,
    # r^8 on a width-7 cut.  Every numpy product an evaluation forms (a
    # diagonal multiplied into a crossing axis, a curl's trace, a pair's
    # `np.dot`, the outer product of the parts left) takes and gives arrays
    # of at most r^4 entries
    provider = wide_providers[5]
    r = provider.p.r
    links = _closures(5)
    tangles = [cut_edge(link, e) for link in links + [_curled(k) for k in links]
               for e in link.edges()]
    for tangle in tangles:
        evaluate_F(tangle, provider)  # resolves every braiding
    sizes, seen = {}, set()

    def recording(name):
        product = getattr(np, name)

        def run(*args, **kwargs):
            out = product(*args, **kwargs)
            sizes.setdefault(name, []).append(max(np.size(x) for x in (*args[:2], out)))
            return out
        return run

    names = ("dot", "tensordot", "multiply", "trace")
    for name in names:
        monkeypatch.setattr(invariant.np, name, recording(name))
    for tangle in tangles:
        sizes.clear()
        evaluate_F(tangle, provider)
        assert sizes["dot"] and sizes["tensordot"], tangle
        assert max(max(v) for v in sizes.values()) <= r ** 4, (tangle, sizes)
        seen.update(sizes)
    assert seen == set(names)
    assert max(t.max_width() for t in tangles) == 7


def test_the_network_has_one_node_per_crossing(wide_providers):
    # cups and caps are diagonal pairings: they join labels and weight a
    # crossing axis, and make no node of their own
    for link in _closures(5):
        for e in link.edges():
            tangle = cut_edge(link, e)
            _, net, _ = _network(tangle, wide_providers[5])
            crossings = sum(sl.piece in ("X+", "X-") for sl in tangle.slices)
            assert len(net) == crossings
            assert all(len(labels) == 4 == m.ndim for m, labels in net)


def _curled(link):
    """`link` with a positive and a negative curl (RI_f) on strand 0 above
    slice 1; each curl's crossing carries one label on two of its axes."""
    return apply_rmove(link, RMove("RI_f", 1, 0), FactorizationOracle())


def test_a_curl_is_traced_on_its_crossing(wide_providers, monkeypatch):
    provider = wide_providers[5]
    r, traces, trace = provider.p.r, [], np.trace

    def counting(*args, **kwargs):
        traces.append(np.ndim(args[0]))
        return trace(*args, **kwargs)

    monkeypatch.setattr(invariant.np, "trace", counting)
    links = _closures(5)
    for link in links:
        curled = _curled(link)
        assert _log_phase_gap(evaluate_Fprime(curled, provider),
                              evaluate_Fprime(link, provider)) <= 1e-8
        for e in curled.edges():
            _assert_matches_sweep(cut_edge(curled, e), provider)
    assert traces
    # the 1-1 curl alone: the right closure of c_{y, alpha(y)}, the twist
    y = links[0].color_at(1, 0)
    curl = Diagram(["+"], [(1, "coevL"), (0, "X+"), (1, "evR")])
    curl = curl.with_colors({curl.edge_at(0, 0): y, curl.edge_at(1, 1): alpha(y),
                             curl.edge_at(2, 0): y})
    traces.clear()
    _assert_matches_sweep(curl, provider)
    assert traces == [4]
    eye = np.eye(r, dtype=complex)
    ok, _, res = equal_mod_roots(evaluate_F(curl, provider),
                                 twist(y, provider).value * eye, r, 1e-9)
    assert ok, res


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


@pytest.mark.parametrize("ell", [9, 11, 13])
def test_riley_trefoil_at_large_ell_is_gauge_independent(ell):
    # the non-abelian counterpart of the Hopf test above: Riley's trefoil
    # with m = e^(0.3+0.7i) in the identity gauge and in two random gauges.
    # Regression pin: the trefoil's |v| is the constant r^(3/2)
    m = np.exp(0.3 + 0.7j)
    x = np.array([[m, 1], [0, 1 / m]])
    y = np.array([[m, 0], [1 - m**2 - m**-2, 1 / m]])
    p = root_params(ell)
    z = z_candidates(m + 1 / m, p)[0]
    d = closure(propagate_qcolors(braid_diagram(2, [1, 1, 1]), [qcolor(x, z), qcolor(y, z)]))
    rng = np.random.default_rng(240 + ell)
    values = [tilde_Fprime(d, BraidingProvider(p), max_gauge=1).value]
    values += [tilde_Fprime(gauge_act_matrix(random_gstar(rng).phi_plus(), d),
                            BraidingProvider(p)).value for _ in range(2)]
    assert all(_log_phase_gap(v, values[0]) <= 1e-8 for v in values[1:])
    r2 = p.r * p.r
    assert abs(r2 * math.log(abs(values[0].value)) - 1.5 * r2 * math.log(p.r)) <= 1e-6


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


FIGURE_EIGHT = (3, [1, -2, 1, -2])  # 4_1, with X- crossings
FIGURE_EIGHT_M = cmath.exp(0.3 + 0.7j)


@functools.cache
def _figure_eight_roots():
    return colorings.colorings(*FIGURE_EIGHT, [FIGURE_EIGHT_M])


@pytest.mark.parametrize("ell", [3, 4, 5])
def test_figure_eight_is_gauge_independent_on_both_roots(ell):
    # 4_1's two non-abelian colorings at one meridian, at the default cut
    # (the one cut of a 3-strand closure under the width guard), and again
    # after a fixed SL(2, C) conjugation; at ell 5 the roots' values differ
    p, (strands, word) = root_params(ell), FIGURE_EIGHT
    roots = _figure_eight_roots()
    assert len(roots) == 2
    z = z_candidates(FIGURE_EIGHT_M + 1 / FIGURE_EIGHT_M, p)[0]
    h = tup(random_sl2(np.random.default_rng(41)))
    values = []
    for mats, _ in roots:
        d = closure(propagate_qcolors(braid_diagram(strands, word),
                                      [qcolor(x, z) for x in mats]))
        v = tilde_Fprime(d, BraidingProvider(p)).value
        w = tilde_Fprime(gauge_act_matrix(h, d), BraidingProvider(p)).value
        assert _log_phase_gap(v, w) <= 1e-8
        values.append(p.r * p.r * math.log(abs(v.value)))
    if ell == 5:
        assert abs(values[0] - values[1]) > 0.1, values


ALEXANDER_KNOTS = {"3_1": (2, [1, 1, 1]), "5_1": (2, [1] * 5),
                   "4_1": (3, [1, -2, 1, -2]), "5_2": (3, [1, 1, 1, 2, -1, 2])}


@pytest.mark.parametrize("knot", list(ALEXANDER_KNOTS))
def test_ell_4_knot_value_is_sixteen_torsion_squared(providers, knot):
    # a knot closure whose strands all carry h diag(m, 1/m) h^-1: at ell 4
    # its canonical value is 16 tau(m)^2, which moves with the meridian m
    strands, word = ALEXANDER_KNOTS[knot]
    provider = providers[4]
    rng = np.random.default_rng(27)
    for m in (1.3 + 0.2j, cmath.exp(0.3 + 0.7j), 0.7 - 0.9j):
        want = ModScalar(cmath.sqrt(4 * torsion(strands, word, m)), 2)  # 16 tau^2
        for h in (np.eye(2), random_sl2(rng)):
            g = h @ np.diag([m, 1 / m]) @ np.linalg.inv(h)
            for z in z_candidates(m + 1 / m, provider.p):
                d = closure(propagate_qcolors(braid_diagram(strands, word),
                                              [qcolor(g, z)] * strands))
                got = tilde_Fprime(d, provider).value
                assert _log_phase_gap(got, want) <= 1e-8, (m, z, got, want)


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


def _braid_a_generic_pair(provider):
    rng = np.random.default_rng(11)
    y1, y2 = random_ycolor(rng, provider.p), random_ycolor(rng, provider.p)
    braiding.rmatrix_braiding(y1, y2, provider)


def _nan_coproduct(part, keys):
    """Braid a generic pair with the class blocks of the generators `keys`
    of one coproduct that rmatrix_braiding builds all NaN: its coproducts
    come as one stack, part 0 V1 (x) V2 and part 1 V4 (x) V3."""

    def plant(monkeypatch, provider):
        real = braiding.coproduct_blocks

        def planted(V1, V2):
            d = real(V1, V2)
            d[part, ["EFK".index(u) for u in keys]] = np.nan
            return d

        monkeypatch.setattr(braiding, "coproduct_blocks", planted)
        _braid_a_generic_pair(provider)

    return plant


def _nan_svd(monkeypatch, provider):
    monkeypatch.setattr(np.linalg, "svd", lambda c, compute_uv: np.full((1, 1, 2), np.nan))
    braiding._unit_det(np.eye(2, dtype=complex)[None, None])


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
    braiding.dilog_series([V], [V], [_NAN], provider.p)


def _nan_sideways(monkeypatch, provider):
    # one entry of every s_plus NaN, while c and c^-1 stay finite
    real = braiding.sideways_matrices

    def planted(*args):
        s_plus, s_minus = real(*args)
        s_plus = s_plus.copy()
        s_plus[..., 0, 0] = np.nan
        return s_plus, s_minus

    monkeypatch.setattr(braiding, "sideways_matrices", planted)
    _braid_a_generic_pair(provider)


def _nan_sideways_residual(monkeypatch, provider):
    # a NaN anywhere in the sideways morphisms also makes the root of unity
    # NaN, which the root-defect test rejects; here only the residual is NaN
    monkeypatch.setattr(braiding, "proportionality", lambda a, b: (1 + 0j, math.nan))
    _braid_a_generic_pair(provider)


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
    "braiding-sideways": (_nan_sideways, UnresolvableYB, "sideways"),
    "braiding-sideways-residual": (_nan_sideways_residual, UnresolvableYB, "sideways"),
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


def test_a_wrong_top_color_raises_before_a_later_unresolvable_pair(monkeypatch):
    # the first crossing's stored top color is wrong and the second
    # crossing's pair has no braiding: the stored-top check comes first, as
    # in a walk that resolves pair by pair, so neither working the pairs out
    # up front nor the stack that fails on the second pair may raise before it
    lifted = gauge_fix(commuting_link(4, [1, 1]))[1]
    t0, t1 = [t for t, s in enumerate(lifted.slices) if s.piece in ("X+", "X-")]
    mid, other = lifted.edge_at(t0 + 1, 0), lifted.edge_at(t0 + 1, 1)
    d = lifted.with_colors({mid: lifted.edge_colors[other]})
    provider = BraidingProvider(root_params(4))
    first = invariant._braided(d, t0, d.slices[t0])
    later = invariant._braided(d, t1, d.slices[t1])
    chis = (provider.char(later[0]), provider.char(later[1]))
    assert (provider.char(first[0]), provider.char(first[1])) != chis
    real = braiding.pair_defined
    monkeypatch.setattr(braiding, "pair_defined", lambda chi1, chi2, p: not (
        chi1 is chis[0] and chi2 is chis[1]) and real(chi1, chi2, p))
    with pytest.raises(InconsistentColoring, match="stored top color disagrees"):
        evaluate_F(d, provider)
    with pytest.raises(Undefined, match="obstruction vanishes"):
        provider.braiding(*later)


def test_an_uncolored_cap_raises_before_any_braiding_is_solved(monkeypatch):
    # a crossing, then a cap on its right output and a downward bottom
    # strand; every braiding is planted to fail, and only the cap's edge has
    # no color: every cup, cap and crossing-input color is checked before
    # any braiding is solved, so the cap raises, and no solve is tried
    rng = np.random.default_rng(17)
    ya, yb = random_ycolor(rng, root_params(4)), random_ycolor(rng, root_params(4))
    y4, y3 = sl2_B(ya, yb)
    bare = Diagram("++-", [(0, "X+"), (1, "evR")])
    colors = {bare.edge_at(0, 0): ya, bare.edge_at(0, 1): yb, bare.edge_at(1, 0): y4}
    d, full = bare.with_colors(colors), bare.with_colors({**colors, bare.edge_at(1, 1): y3})
    calls = []

    def unresolvable(pairs, provider):
        calls.append(pairs)
        raise UnresolvableYB("planted")

    monkeypatch.setattr(braiding, "rmatrix_braidings", unresolvable)
    with pytest.raises(InconsistentColoring, match="uncolored cup or cap at slice 1"):
        evaluate_F(d, BraidingProvider(root_params(4)))
    assert calls == []
    # with the cap's color back, the planted crossing raises at its slice
    with pytest.raises(UnresolvableYB, match="planted"):
        evaluate_F(full, BraidingProvider(root_params(4)))
    assert calls
