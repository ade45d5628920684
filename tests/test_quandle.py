"""Conjugation quandle on SL2 colors, against direct matrix oracles."""

from __future__ import annotations

import numpy as np

from holoinv.params import root_params
from holoinv.quandle import QColor, in_sl2, q_act, q_act_inv, z_candidates

from axioms import check_quandle_axioms
from moves import identity
from oracles import ConjugationOracle
from references import arr, inv2, tup
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
        want = inv2(arr(a.g)) @ arr(b.g) @ arr(a.g)
        assert np.abs(arr(c.g) - want).max() < 1e-9
        assert c.z == b.z
        back = q_act_inv(a, c)
        assert np.abs(arr(back.g) - arr(b.g)).max() < 1e-9


def _scale(*gs) -> float:
    return max(1.0, *(abs(v) for g in gs for v in tup(g)))


def test_approx_eq_agrees_with_allclose():
    # holonomies compare to tol times the largest entry of either color (at
    # least 1).  The largest entry difference straddles that bound; on a
    # zero entry a shift by exactly the bound is exact, so some pairs sit
    # at the threshold itself.  The largest entry is left as it is, so the
    # bound the shift was made from is the bound of the pair.
    rng = np.random.default_rng(4)
    tol = 1e-9
    a = random_qcolor(rng, root_params(4))
    big = int(np.abs(arr(a.g)).argmax())
    assert _scale(a.g) > 1.5  # the relative rule is not the absolute one
    decided = set()
    for k in range(400):
        g1 = arr(a.g)
        j = divmod(int(rng.choice([i for i in range(4) if i != big])), 2)
        noise = rng.uniform(-0.5, 0.5, (2, 2)) * tol
        noise.flat[big] = 0.0
        if k % 4 == 0:
            g1[j] = 0.0
        lim = tol * _scale(g1)
        shift = lim * rng.choice([1j, 1.0]) * (1.0 if k % 4 == 0
                                               else rng.uniform(0.5, 1.5))
        g2 = g1 + noise
        g2[j] = g1[j] + shift
        want = np.allclose(g1, g2, rtol=0.0, atol=tol * _scale(g1, g2))
        assert QColor(tup(g1), a.z).approx_eq(QColor(tup(g2), a.z), tol) == want
        assert QColor(tup(g2), a.z).approx_eq(QColor(tup(g1), a.z), tol) == want
        decided.add((k % 4 == 0, want))
    assert decided == {(True, True), (False, True), (False, False)}
    # large entries: a difference of 100 tol is within the relative bound of
    # entries near 1e4, and beyond the absolute one
    h = np.diag([100.0, 0.01])
    g1 = h @ arr(a.g) @ inv2(h)
    g2 = g1 + np.array([[0.0, 100 * tol], [0.0, 0.0]])
    assert not np.allclose(g1, g2, rtol=0.0, atol=tol)
    assert np.allclose(g1, g2, rtol=0.0, atol=tol * _scale(g1, g2))
    assert QColor(tup(g1), a.z).approx_eq(QColor(tup(g2), a.z), tol)
    nan = arr(a.g)
    nan[1, 0] = np.nan
    assert not QColor(tup(nan), a.z).approx_eq(a)
    assert not a.approx_eq(QColor(tup(nan), a.z))


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
        assert np.abs(arr(q_act(st, st).g) - arr(st.g)).max() < 1e-12


def test_gauge_act_preserves_z_and_conjugates():
    rng = np.random.default_rng(2)
    p = root_params(4)
    b = random_qcolor(rng, p)
    c = random_qcolor(rng, p)
    d = identity([(c, "+")])
    d2 = gauge_act(b, d)
    got = list(d2.edge_colors.values())[0]
    assert abs(got.z - c.z) < 1e-12
    assert np.abs(arr(got.g) - inv2(arr(b.g)) @ arr(c.g) @ arr(b.g)).max() < 1e-9


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


def test_in_sl2_is_relative_to_the_det_terms_and_never_raises():
    big = complex(1.7e308, 1.7e308)  # finite parts, abs() beyond the range
    nan = complex("nan")
    assert in_sl2((2, 1, 1, 1)) and in_sl2((1e200, 0, 0, 1e-200))
    # exact SL(2) matrices; the second's det rounds to 0 in floats
    assert in_sl2((1e6, 1e12, 0, 1e-6)) and in_sl2((1e8 + 1, 1e8, 1e8 + 2, 1e8 + 1))
    # |det - 1| <= TOL * max(1, |a||d| + |b||c|): 3e-9 for [[2, 1], [1, 1]]
    assert in_sl2((2, 1, 1, 1 + 2.9e-9 / 2)) and not in_sl2((2, 1, 1, 1 + 3.1e-9 / 2))
    # one large entry scales nothing that its determinant term does not
    for g in [(1, 1e6, 0, 2), (1, 1e9, 0, 1e6), (1e200, 0, 0, 1e200),
              (big, 0, 0, 1), (1, big, big, 1), (nan, 0, 0, 1),
              (1, 0, 0, nan), (float("inf"), 0, 0, 1)]:
        assert not in_sl2(g), g
