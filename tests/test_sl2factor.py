"""Triangular factorization of SL2, its biquandle maps, and the holonomy functor."""

from __future__ import annotations

import numpy as np
import pytest

from holoinv.diagram import braid_diagram, propagate_colors
from holoinv.errors import OutsideGPrime, Undefined
from holoinv.invariant import gauge_fix
from holoinv.params import root_params
from holoinv.quandle import inv2
from holoinv.sl2factor import (
    FactorizationOracle,
    GStarElem,
    YColor,
    alpha,
    alpha_inv,
    gauge_act_diagram,
    psi,
    psi_inv,
    q_functor,
    q_functor_inv,
    random_gstar,
    random_ycolor,
    sl2_B,
    sl2_B_inv,
    sl2_S,
    steinberg_ycolor,
)


def test_psi_roundtrip_and_image():
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = random_gstar(rng)
        m = psi(x)
        assert abs(np.linalg.det(m) - 1.0) < 1e-9
        back = psi_inv(m)
        assert back.approx_eq(x, 1e-8)
    # matrices with vanishing upper-left entry are off the factorizable locus
    with pytest.raises(OutsideGPrime):
        psi_inv(np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex))


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
        prod_l, prod_r = y4.g.mul(y3.g), y1.g.mul(y2.g)
        assert prod_l.approx_eq(prod_r, 1e-7)
        mix_l = y4.g.phi_plus() @ y3.g.phi_minus()
        mix_r = y1.g.phi_minus() @ y2.g.phi_plus()
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


def test_gauge_fix_recovers_lift_after_bad_gauge():
    d = _colored_braid(4, [1, 1], 7)
    q = q_functor(d)
    # a gauge built to zero the upper-left entry of the first bottom
    # holonomy, so the identity-gauge lift must fail
    g0 = q.color_at(0, 0).g
    x = GStarElem(1.0, 0.0, g0[0, 0] / g0[0, 1])
    broke = gauge_act_diagram(x, q)
    with pytest.raises(Undefined):
        q_functor_inv(broke)
    gauge, lifted, _ = gauge_fix(broke, seed=1)
    assert lifted.fully_colored()
    # the recovered lift reproduces the holonomies in the found gauge
    regauged = gauge_act_diagram(gauge, broke)
    q2 = q_functor(lifted)
    for e in broke.edge_colors:
        assert q2.edge_colors[e].approx_eq(regauged.edge_colors[e], 1e-6)


def test_gauge_act_diagram_conjugates_holonomy():
    d = _colored_braid(3, [1, 1], 3)
    q = q_functor(d)
    x = GStarElem(1.3 + 0.2j, 0.4, -0.7 + 0.1j)
    q2 = gauge_act_diagram(x, q)
    h = x.phi_plus()
    for e, c in q.edge_colors.items():
        want = h @ c.g @ inv2(h)
        assert np.abs(q2.edge_colors[e].g - want).max() < 1e-9


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
