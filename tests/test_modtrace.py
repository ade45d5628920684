"""Modified dimension: closed forms, forced values, poles, gauge invariance."""

from __future__ import annotations

import numpy as np
import pytest

from holoinv.errors import Singular
from holoinv.modtrace import alpha_from_omega, modified_dim
from holoinv.params import root_params
from holoinv.quandle import z_candidates
from holoinv.uqsl2 import ZChar, build_cyclic_module, casimir_matrix, steinberg_char

from axioms import check_dim_gauge_invariance
from references import dual_rep, modified_dim_product, modified_dim_ratio


def _random_chars(p, n, seed):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        omega = complex(rng.normal(scale=2), rng.normal(scale=2))
        try:
            modified_dim_from = modified_dim(ZChar(1.0, 0.0, 0.0, omega), p)
        except Singular:
            continue
        out.append((omega, modified_dim_from))
    return out


@pytest.mark.parametrize("ell", [3, 4, 5, 6])
def test_closed_forms_agree(ell):
    # Chebyshev-reciprocal form vs product of quantum-integer ratios vs
    # the two-bracket ratio form, on a large random sample
    p = root_params(ell)
    n = 1000 if ell in (3, 4) else 100
    worst = 0.0
    for omega, d in _random_chars(p, n, seed=ell):
        alpha = alpha_from_omega(omega, p)
        dp = modified_dim_product(alpha, p)
        dr = modified_dim_ratio(alpha, p)
        scale = max(1.0, abs(d))
        worst = max(worst, abs(d - dp) / scale, abs(d - dr) / scale)
    assert worst < 1e-9, worst


def test_alpha_branch_reproduces_omega():
    for ell in (3, 4, 5, 6):
        p = root_params(ell)
        for omega, _ in _random_chars(p, 50, seed=100 + ell):
            alpha = alpha_from_omega(omega, p)
            # direct check: omega = (-1)^r (xi^alpha + xi^-alpha)
            w = p.sign_r * (p.xi_pow(alpha) + p.xi_pow(-alpha))
            assert abs(w - omega) < 1e-9
            assert alpha.imag >= -1e-12
            assert -1e-9 <= alpha.real < p.ell + 1e-9


def test_forced_value_ell4_half():
    # alpha = 1/2 at ell = 4 gives exactly -sqrt(2)
    p = root_params(4)
    omega = p.sign_r * (p.xi_pow(0.5) + p.xi_pow(-0.5))
    d = modified_dim(ZChar(1.0, 0.0, 0.0, complex(omega)), p)
    assert abs(d - (-np.sqrt(2))) < 1e-9


def test_steinberg_dim_is_one():
    for ell in (3, 4, 5, 6):
        p = root_params(ell)
        assert abs(modified_dim(steinberg_char(p), p) - 1.0) < 1e-12


def test_integer_alpha_pole_raises_singular():
    # alpha = 1 puts a quantum bracket [alpha + r - 1] = [r] = 0 in the
    # denominator; the reciprocal-Chebyshev form must flag it
    for ell in (3, 4, 5):
        p = root_params(ell)
        omega = p.sign_r * (p.xi_pow(1.0) + p.xi_pow(-1.0))
        with pytest.raises(Singular):
            modified_dim(ZChar(1.0, 0.0, 0.0, complex(omega)), p)


def test_dim_only_depends_on_omega():
    p = root_params(3)
    rng = np.random.default_rng(7)
    omega = complex(rng.normal(), rng.normal())
    vals = {
        modified_dim(ZChar(complex(rng.normal(), rng.normal()) + 3.0,
                           complex(rng.normal()), complex(rng.normal()),
                           omega), p)
        for _ in range(5)
    }
    ref = vals.pop()
    assert all(abs(v - ref) < 1e-12 for v in vals)


@pytest.mark.parametrize("ell", [3, 4, 5])
def test_gauge_invariance_along_braiding_orbit(ell):
    report = check_dim_gauge_invariance(root_params(ell), samples=40,
                                        seed=ell, tol=1e-9)
    assert report["pass"], report
    assert report["max_deviation"] <= 1e-9


def test_trace_character_compatibility():
    # z values produced for a holonomy matrix solve the Chebyshev relation
    # that ties the module parameter omega to the matrix trace
    p = root_params(5)
    rng = np.random.default_rng(11)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m = m / np.sqrt(np.linalg.det(m))
    for z in z_candidates(np.trace(m), p):
        assert abs(p.cheb(z) - p.sign_ell_plus1 * np.trace(m)) < 1e-8


@pytest.mark.parametrize("ell", [3, 4, 5, 6])
def test_dual_module_has_the_same_modified_dimension(ell):
    # the Casimir acts on the dual of V_chi by a scalar, and that Casimir
    # value gives d(chi) again; characters as `holoinv dim` builds them
    p = root_params(ell)
    rng = np.random.default_rng(40 + ell)
    omegas = [0.3 + 0.4j] + [complex(*rng.normal(size=2)) for _ in range(5)]
    for omega in omegas:
        kappa = np.roots([1.0, p.sign_ell * p.cheb(omega), 1.0])[0]
        chi = ZChar(complex(kappa), 0.0, 0.0, omega)
        d = dual_rep(build_cyclic_module(chi, p))
        om = casimir_matrix(d.E @ d.F, np.eye(p.r), d.K, np.linalg.inv(d.K), p)
        dual_omega = np.trace(om) / p.r
        scale = max(1.0, abs(dual_omega))
        assert np.abs(om - dual_omega * np.eye(p.r)).max() <= 1e-9 * scale
        want = modified_dim(chi, p)
        got = modified_dim(ZChar(1.0, 0.0, 0.0, dual_omega), p)
        assert abs(got - want) <= 1e-7 * max(1.0, abs(want)), omega
