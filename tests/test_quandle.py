"""Conjugation quandle on SL2 colors, against direct matrix oracles."""

from __future__ import annotations

import numpy as np

from holoinv.params import root_params
from holoinv.quandle import QColor, inv2, q_act, q_act_inv, z_candidates

from axioms import check_quandle_axioms
from moves import identity
from oracles import ConjugationOracle
from samplers import gauge_act, random_qcolor, random_sl2, steinberg_qcolor


def test_quandle_axioms_sampled():
    for ell in (3, 4):
        rep = check_quandle_axioms(samples=400, seed=5, p=root_params(ell))
        assert rep["max_violation"] <= 1e-8


def test_action_is_matrix_conjugation():
    # oracle: a acting on b conjugates holonomy by a's matrix and keeps z
    rng = np.random.default_rng(0)
    p = root_params(5)
    for _ in range(50):
        a, b = random_qcolor(rng, p), random_qcolor(rng, p)
        c = q_act(a, b)
        want = inv2(a.g) @ b.g @ a.g
        assert np.abs(c.g - want).max() < 1e-9
        assert c.z == b.z
        back = q_act_inv(a, c)
        assert np.abs(back.g - b.g).max() < 1e-9


def test_approx_eq_agrees_with_allclose():
    # the largest entry difference straddles tol; on a zero entry a shift by
    # exactly tol is exact, so some pairs sit at the threshold itself
    rng = np.random.default_rng(4)
    tol = 1e-9
    a = random_qcolor(rng, root_params(4))
    decided = set()
    for k in range(400):
        g1 = a.g.copy()
        j = divmod(int(rng.integers(4)), 2)
        shift = tol * rng.choice([1j, 1.0]) * (1.0 if k % 4 == 0
                                               else rng.uniform(0.5, 1.5))
        if k % 4 == 0:
            g1[j] = 0.0
        g2 = g1 + rng.uniform(-0.5, 0.5, (2, 2)) * tol
        g2[j] = g1[j] + shift
        want = np.allclose(g1, g2, rtol=0.0, atol=tol)
        assert QColor(g1, a.z).approx_eq(QColor(g2, a.z), tol) == want
        assert QColor(g2, a.z).approx_eq(QColor(g1, a.z), tol) == want
        decided.add((k % 4 == 0, want))
    assert decided == {(True, True), (False, True), (False, False)}
    nan = a.g.copy()
    nan[1, 0] = np.nan
    assert not QColor(nan, a.z).approx_eq(a)
    assert not a.approx_eq(QColor(nan, a.z))


def test_z_candidates_satisfy_chebyshev():
    rng = np.random.default_rng(1)
    for ell in (3, 4, 5, 6):
        p = root_params(ell)
        for _ in range(20):
            g = random_sl2(rng)
            zs = z_candidates(np.trace(g), p)
            assert len(zs) >= 1
            for z in zs:
                # the compatible z values reproduce the trace under Cb_r
                assert abs(p.cheb(z) - p.sign_ell_plus1 * np.trace(g)) < 1e-7


def test_steinberg_color_is_quandle_fixed_point():
    for ell in (3, 4):
        p = root_params(ell)
        st = steinberg_qcolor(p)
        assert np.abs(q_act(st, st).g - st.g).max() < 1e-12


def test_gauge_act_preserves_z_and_conjugates():
    rng = np.random.default_rng(2)
    p = root_params(4)
    b = random_qcolor(rng, p)
    c = random_qcolor(rng, p)
    d = identity([(c, "+")])
    d2 = gauge_act(b, d)
    got = list(d2.edge_colors.values())[0]
    assert abs(got.z - c.z) < 1e-12
    assert np.abs(got.g - inv2(b.g) @ c.g @ b.g).max() < 1e-9


def test_crossing_oracle_sideways_consistency():
    rng = np.random.default_rng(3)
    p = root_params(3)
    o = ConjugationOracle()
    for _ in range(50):
        a, b = random_qcolor(rng, p), random_qcolor(rng, p)
        x4, x3 = o.B(a, b)
        assert o.B_inv(x4, x3)[0].approx_eq(a, 1e-9)
        x3b, x2 = o.S(x4, a)
        assert x3b.approx_eq(x3, 1e-9) and x2.approx_eq(b, 1e-9)
