"""Root-of-unity parameters and Chebyshev helpers against trig oracles."""

from __future__ import annotations

import cmath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holoinv.params import (
    cheb_first_kind,
    cheb_first_kind_roots,
    cheb_holds,
    cheb_second_kind,
    root_params,
)

from references import cheb_first_kind_coeffs


@given(st.integers(0, 12), st.floats(-3.0, 3.0))
@settings(max_examples=200)
def test_first_kind_matches_cosine_oracle(n, theta):
    # C_n(2 cos t) = 2 cos(n t), valid for all real t
    t = 2.0 * cmath.cos(theta)
    assert abs(cheb_first_kind(n, t) - 2.0 * cmath.cos(n * theta)) < 1e-9


@given(st.integers(0, 12), st.floats(0.1, 3.0))
@settings(max_examples=200)
def test_second_kind_matches_sine_oracle(n, theta):
    # S_n(2 cos t) = sin((n+1) t) / sin(t)
    t = 2.0 * cmath.cos(theta)
    want = cmath.sin((n + 1) * theta) / cmath.sin(theta)
    assert abs(cheb_second_kind(n, t) - want) < 1e-8


def test_first_kind_coeffs_evaluate_consistently():
    for n in range(8):
        coeffs = cheb_first_kind_coeffs(n)
        t = 0.7321
        val = sum(c * t ** k for k, c in enumerate(coeffs))
        assert abs(val - cheb_first_kind(n, t)) < 1e-9


@pytest.mark.parametrize("ell,r", [(3, 3), (4, 2), (5, 5), (6, 3), (7, 7), (8, 4)])
def test_order_r(ell, r):
    p = root_params(ell)
    assert p.r == r
    # xi is a primitive ell-th root, xi^2 a primitive r-th root of 1
    assert abs(p.xi ** ell - 1) < 1e-12
    assert abs(p.xi_pow(2) ** r - 1) < 1e-12


def test_qbracket_antisymmetry_and_zero():
    p = root_params(5)
    assert abs(p.qbracket(p.r)) < 1e-12
    for x in (0.3, 1.7 + 0.2j):
        assert abs(p.qbracket(x) + p.qbracket(-x)) < 1e-12


def test_ell_lower_bound():
    with pytest.raises(ValueError):
        root_params(2)


def test_cheb_holds_is_relative_to_the_trace_and_never_raises():
    p, nan = root_params(3), complex("nan")
    z = cheb_first_kind_roots(3.0, p.r)[0]  # Cb_3(z) = 3 = (-1)^4 tr
    assert cheb_holds(z, 3.0, p)
    # the bound is TOL * 1e2 * max(1, |tr|): 3e-7 at tr 3, 0.3 at tr 3e6
    assert not cheb_holds(z, 3.0 + 5e-7, p) and cheb_holds(z, 3.0 + 2e-7, p)
    w = cheb_first_kind_roots(3e6, p.r)[0]
    assert cheb_holds(w, 3e6 + 0.2, p) and not cheb_holds(w, 3e6 + 2.0, p)
    big = complex(1.7e308, 1.7e308)  # finite parts, abs() beyond the range
    for zz, tr in [(nan, 3.0), (z, nan), (z, big), (big, 3.0), (z, float("inf")),
                   (2.5 + 0.1j, 3.0)]:
        assert not cheb_holds(zz, tr, p), (zz, tr)
    # Cb_2001(2.5 + 0.1i) overflows to NaN
    assert not cheb_holds(2.5 + 0.1j, 3.0, root_params(2001))
