"""Triangular factorization of SL2, its biquandle maps, and the holonomy functor."""

from __future__ import annotations

import numpy as np
import pytest

import references
from holoinv import quandle, sl2factor
from holoinv.cli import load_link
from holoinv.diagram import braid_diagram, propagate_colors
from holoinv.errors import OutsideGPrime, Undefined
from holoinv.invariant import gauge_fix
from holoinv.params import root_params
from holoinv.quandle import gauge_act_matrix, propagate_qcolors, z_candidates
from holoinv.sl2factor import (
    GStarElem,
    YColor,
    alpha_inv,
    psi_inv,
    q_functor_inv,
    random_gstar,
    sl2_B,
    sl2_B_inv,
    steinberg_ycolor,
)

from conftest import commuting_link, riley_trefoil, write_link_file
from oracles import FactorizationOracle, alpha, sl2_S
from references import arr, inv2, phi_minus, phi_plus, psi, q_functor, qcolor
from samplers import gstar_mul, random_ycolor


def test_psi_roundtrip_and_image():
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = random_gstar(rng)
        assert abs(np.linalg.det(psi(x)) - 1.0) < 1e-9
        back = psi_inv(x.matrix())
        assert back.approx_eq(x, 1e-8)
    # matrices with vanishing upper-left entry are off the factorizable locus
    with pytest.raises(OutsideGPrime):
        psi_inv((0.0, 1.0, -1.0, 0.0))


def test_B_solves_crossing_equations():
    # oracle: B must satisfy x4 x3 = x1 x2 in the factorization group and
    # the mixed triangular relation phi+(x4) phi-(x3) = phi-(x1) phi+(x2)
    rng = np.random.default_rng(1)
    p = root_params(4)
    for _ in range(100):
        y1, y2 = random_ycolor(rng, p), random_ycolor(rng, p)
        try:
            y4, y3 = sl2_B(y1, y2)
        except Undefined:
            continue
        prod_l, prod_r = gstar_mul(y4.g, y3.g), gstar_mul(y1.g, y2.g)
        assert prod_l.approx_eq(prod_r, 1e-7)
        mix_l = phi_plus(y4.g) @ phi_minus(y3.g)
        mix_r = phi_minus(y1.g) @ phi_plus(y2.g)
        assert np.abs(mix_l - mix_r).max() < 1e-7
        # z data trade places
        assert abs(y4.z - y2.z) < 1e-12 and abs(y3.z - y1.z) < 1e-12
        u, v = sl2_B_inv(y4, y3)
        assert u.approx_eq(y1, 1e-6) and v.approx_eq(y2, 1e-6)


def test_sideways_matches_B():
    rng = np.random.default_rng(2)
    p = root_params(3)
    for _ in range(50):
        y1, y2 = random_ycolor(rng, p), random_ycolor(rng, p)
        try:
            y4, y3 = sl2_B(y1, y2)
            s3, s2 = sl2_S(y4, y1)
        except Undefined:
            continue
        assert s3.approx_eq(y3, 1e-6) and s2.approx_eq(y2, 1e-6)


def test_alpha_is_braiding_fixed_point():
    rng = np.random.default_rng(3)
    p = root_params(4)
    for _ in range(50):
        y = random_ycolor(rng, p)
        try:
            ax = alpha(y)
            y4, y3 = sl2_B(y, ax)
        except Undefined:
            continue
        assert y4.approx_eq(y, 1e-6) and y3.approx_eq(ax, 1e-6)
        assert alpha_inv(ax).approx_eq(y, 1e-6)


def test_steinberg_color_is_central():
    for ell in (3, 4, 5, 6):
        p = root_params(ell)
        st = steinberg_ycolor(p)
        assert np.abs(psi(st.g) - (-p.sign_r) * np.eye(2)).max() < 1e-12


def _colored_braid(ell, word, seed):
    p = root_params(ell)
    rng = np.random.default_rng(seed)
    bq = FactorizationOracle()
    for _ in range(40):
        bottom = [random_ycolor(rng, p) for _ in range(max(abs(w) for w in word) + 1)]
        try:
            return propagate_colors(braid_diagram(len(bottom), word), bottom, bq)
        except Exception:
            continue
    pytest.skip("no generic coloring found")


def test_q_functor_roundtrip():
    # q_functor o q_functor_inv = id on its image
    count = 0
    for seed in range(30):
        d = _colored_braid(4, [1, -1] if seed % 2 else [1, 1], seed)
        q = q_functor(d)
        try:
            y2 = q_functor_inv(q)
        except Undefined:
            continue
        q2 = q_functor(y2)
        for e in q.edge_colors:
            assert q2.edge_colors[e].approx_eq(q.edge_colors[e], 1e-6)
        count += 1
    assert count >= 20


def test_gauge_fix_recovers_lift_after_bad_gauge(monkeypatch):
    d = _colored_braid(4, [1, 1], 7)
    q = q_functor(d)
    # a gauge built to zero the upper-left entry of the first bottom
    # holonomy, so the identity-gauge lift must fail
    g0 = q.color_at(0, 0).g
    x = GStarElem(1.0, 0.0, g0[0] / g0[1])
    broke = gauge_act_matrix(x.phi_plus(), q)
    with pytest.raises(Undefined):
        q_functor_inv(broke)
    made = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: made.append(seed) or default_rng(seed))
    gauge_fix(q)  # the identity gauge lifts: no generator is made
    assert made == []
    for seed in range(5):
        gauge, lifted, attempts = gauge_fix(broke, seed=seed)
        # the first gauge `random_gstar` draws from `seed`, as it always was
        assert attempts == 2 and made[-1] == seed
        assert gauge == random_gstar(default_rng(seed))
        assert lifted.fully_colored()
        # the recovered lift reproduces the holonomies in the found gauge
        regauged = gauge_act_matrix(gauge.phi_plus(), broke)
        q2 = q_functor(lifted)
        for e in broke.edge_colors:
            assert q2.edge_colors[e].approx_eq(regauged.edge_colors[e], 1e-6)


def test_gauge_move_conjugates_holonomy():
    # the gauge move by x conjugates every holonomy by phi_plus(x)
    d = _colored_braid(3, [1, 1], 3)
    q = q_functor(d)
    x = GStarElem(1.3 + 0.2j, 0.4, -0.7 + 0.1j)
    q2 = gauge_act_matrix(x.phi_plus(), q)
    h = phi_plus(x)
    for e, c in q.edge_colors.items():
        want = h @ arr(c.g) @ inv2(h)
        assert np.abs(arr(q2.edge_colors[e].g) - want).max() < 1e-9


def _pair_off_g_prime():
    # B needs psi_inv of phi_minus(x1) psi(x2) phi_minus(x1)^(-1), whose
    # upper-left entry kappa2 + eps1 phi2 vanishes for this pair
    return (YColor(GStarElem(2.0, -1.0, 0.5), 0.3),
            YColor(GStarElem(1.0, 0.0, 1.0), 0.7))


def test_oracle_raises_undefined_off_g_prime():
    y1, y2 = _pair_off_g_prime()
    with pytest.raises(Undefined):
        FactorizationOracle().B(y1, y2)


def test_propagation_through_undefined_crossing_raises_undefined():
    with pytest.raises(Undefined):
        propagate_colors(braid_diagram(2, [1]), list(_pair_off_g_prime()),
                         FactorizationOracle())


# --- the scalar lift against the array lift it replaced -----------------------

def _rel(a: GStarElem, b: GStarElem) -> float:
    scale = max(1.0, abs(b.kappa), abs(b.eps), abs(b.phi))
    return max(abs(a.kappa - b.kappa), abs(a.eps - b.eps),
               abs(a.phi - b.phi)) / scale


def _su2_braid(rng, ell):
    """A 3-strand braid with negative crossings, Q-colored by random SU(2)
    holonomies.  Their condition number 1 keeps the two lifts within ~1e-14
    of each other; holonomy entries near 1e4 widen that to ~1e-11, where
    either lift reproduces the coloring the holonomies came from only to
    ~1e-9."""
    p = root_params(ell)
    bottom = []
    for _ in range(3):
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        g = np.array([[a, -np.conj(b)], [b, np.conj(a)]]) / np.hypot(abs(a), abs(b))
        bottom.append(qcolor(g, z_candidates(np.trace(g), p)[0]))
    return propagate_qcolors(braid_diagram(3, [1, -2, -1, 2, -1]), bottom)


def _same_outcome(got, want):
    """Two calls returned colors equal to 1e-12 relative, or raised alike."""
    if isinstance(want, Exception):
        assert type(got) is type(want), (got, want)
        return 0
    for a, b in zip(got, want):
        assert _rel(a.g, b.g) <= 1e-12 and a.z == b.z
    return 1


def _outcome(f, *args):
    try:
        return f(*args)
    except Undefined as e:
        return e


def test_scalar_lift_matches_the_array_lift():
    rng = np.random.default_rng(8)
    links = [riley_trefoil(5), riley_trefoil(4, conjugate=False)]
    links += [commuting_link(ell, w, seed=ell) for ell in (3, 5, 7)
              for w in ([1, 1], [1, 1, 1, -1], [-1, -1, 1, -1])]
    links += [_su2_braid(rng, 4) for _ in range(8)]
    lifted = 0
    for d in links:
        for k in range(4):  # the identity gauge, then random ones
            dd = gauge_act_matrix(random_gstar(rng).phi_plus(), d) if k else d
            want = _outcome(references.q_functor_inv, dd)
            got = _outcome(q_functor_inv, dd)
            if isinstance(want, Exception):
                lifted += _same_outcome(got, want)
            else:
                es = list(want.edge_colors)
                lifted += _same_outcome([got.edge_colors[e] for e in es],
                                        [want.edge_colors[e] for e in es])
    assert lifted >= 60


def test_crossing_maps_match_the_array_maps():
    rng = np.random.default_rng(9)
    p = root_params(5)
    solved = 0
    for _ in range(200):
        y1, y2 = random_ycolor(rng, p), random_ycolor(rng, p)
        for new, old in ((sl2_B, references.sl2_B),
                         (sl2_B_inv, references.sl2_B_inv)):
            want = _outcome(old, y1, y2)
            solved += _same_outcome(_outcome(new, y1, y2), want)
    assert solved >= 350
    # off G': a vanishing upper-left entry, and a determinant other than 1
    for m in ([[0.0, 1.0], [-1.0, 0.0]], [[2.0, 0.0], [0.0, 1.0]]):
        with pytest.raises(OutsideGPrime):
            references.psi_inv(np.array(m, dtype=complex))
        with pytest.raises(OutsideGPrime):
            psi_inv(tuple(np.ravel(m)))
    # B_inv's first solve has upper-left entry kappa3 + eps3 phi4 = 0
    pairs = [(sl2_B, references.sl2_B, _pair_off_g_prime()),
             (sl2_B_inv, references.sl2_B_inv,
              (YColor(GStarElem(1.0, 0.0, 1.0), 0.3),
               YColor(GStarElem(2.0, -2.0, 0.5), 0.7)))]
    for new, old, (y1, y2) in pairs:
        with pytest.raises(OutsideGPrime, match="upper-left"):
            old(y1, y2)
        with pytest.raises(OutsideGPrime, match="upper-left"):
            new(y1, y2)


def test_lift_runs_without_array_arithmetic(tmp_path):
    # every Q-color holds its holonomy as four Python complex, whether a
    # link file or propagation made it, and the quandle layer has no numpy
    # that an ndarray holonomy could come back through
    assert not hasattr(quandle, "np")
    assert not {"mat2", "inv2", "gauge_act_diagram"} & (set(vars(quandle))
                                                        | set(vars(sl2factor)))
    f = tmp_path / "hopf.json"
    write_link_file(f, 5, [1, 1, 1, -1])
    links = [load_link(str(f))[1], commuting_link(5, [1, 1, 1, -1]),
             riley_trefoil(5)]
    for d in links:
        for c in d.edge_colors.values():
            assert type(c.g) is tuple and len(c.g) == 4
            assert all(type(v) is complex for v in c.g), c
        gauge, lifted, attempts = gauge_fix(d)
        assert attempts == 1 and lifted.fully_colored()
