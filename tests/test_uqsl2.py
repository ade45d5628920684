"""Cyclic modules: defining relations, central characters, Casimir structure."""

from __future__ import annotations

import numpy as np
import pytest

from holoinv.errors import HoloinvError, NotAdmissible
from holoinv.params import root_params
from holoinv.sl2factor import random_ycolor
from holoinv.uqsl2 import (
    ZChar,
    build_cyclic_module,
    casimir_block_structure,
    char_from_ycolor,
    cheb_defect,
    coproduct_casimir,
    coproduct_matrices,
    dual_rep,
    duality_tensors,
    is_admissible,
    predicted_casimir_values,
    steinberg_char,
    tensor_central_scalars,
)


def _sample_modules(ell, n, seed):
    p = root_params(ell)
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        y = random_ycolor(rng, p)
        try:
            chi = char_from_ycolor(y, p)
            out.append(build_cyclic_module(chi, p))
        except Exception:
            continue
    return p, out


@pytest.mark.parametrize("ell", [3, 4, 5, 6])
def test_module_defining_relations(ell):
    p, mods = _sample_modules(ell, 50, seed=ell)
    xi, r = p.xi, p.r
    eye = np.eye(r)
    worst = 0.0
    for V in mods:
        E, F, K, Ki = V.E, V.F, V.K, V.K_inv()
        worst = max(worst, np.abs(K @ E @ Ki - xi ** 2 * E).max())
        worst = max(worst, np.abs(K @ F @ Ki - xi ** -2 * F).max())
        worst = max(worst,
                    np.abs(E @ F - F @ E - (K - Ki) / p.qbracket(1)).max())
        chi = V.chi
        worst = max(worst, np.abs(np.linalg.matrix_power(E, r) - chi.e_r * eye).max())
        worst = max(worst, np.abs(np.linalg.matrix_power(F, r) - chi.f_r * eye).max())
        worst = max(worst, np.abs(np.linalg.matrix_power(K, r) - chi.kappa * eye).max())
        worst = max(worst, np.abs(V.omega_matrix() - chi.omega * eye).max())
        # the character satisfies the degree-r Chebyshev compatibility
        worst = max(worst, abs(cheb_defect(chi, p)))
    assert worst <= 1e-7


@pytest.mark.parametrize("ell", [3, 4, 5, 6])
def test_right_quantum_dimension_vanishes(ell):
    p, mods = _sample_modules(ell, 10, seed=10 + ell)
    for V in mods:
        dd = duality_tensors(V)
        qdim = (dd.ev_R @ dd.coev_L)[0, 0]
        assert abs(qdim) <= 1e-7
        # zig-zag identities of the two dualities
        r = p.r
        eye = np.eye(r)
        zig = np.kron(dd.ev_L, eye) @ np.kron(eye, dd.coev_L)
        assert np.abs(zig - eye).max() < 1e-9
        zag = np.kron(eye, dd.ev_R) @ np.kron(dd.coev_R, eye)
        assert np.abs(zag - eye).max() < 1e-9


def test_dual_rep_satisfies_the_algebra():
    # transpose of an antipode twist: the dual matrices again represent
    # the defining relations
    p, mods = _sample_modules(5, 10, seed=1)
    xi = p.xi
    for V in mods:
        D = dual_rep(V)
        Ki = np.linalg.inv(D.K)
        assert np.abs(D.K @ D.E @ Ki - xi ** 2 * D.E).max() < 1e-8
        assert np.abs(D.K @ D.F @ Ki - xi ** -2 * D.F).max() < 1e-8
        assert np.abs(
            D.E @ D.F - D.F @ D.E - (D.K - Ki) / p.qbracket(1)
        ).max() < 1e-8


def test_nonadmissible_character_rejected():
    p = root_params(4)
    # parabolic non-Steinberg: kappa = -1 with no nilpotent part, omega = +2
    chi = ZChar(kappa=-1.0, e_r=0.0, f_r=0.0, omega=2.0)
    assert not is_admissible(chi, p)
    with pytest.raises(NotAdmissible):
        build_cyclic_module(chi, p)


def test_steinberg_module_is_nilpotent_highest_weight():
    for ell in (3, 4):
        p = root_params(ell)
        V = build_cyclic_module(steinberg_char(p), p)
        r = p.r
        assert np.abs(np.linalg.matrix_power(V.E, r)).max() < 1e-10
        assert np.abs(np.linalg.matrix_power(V.F, r)).max() < 1e-10
        assert np.abs(np.linalg.matrix_power(V.K, r) + p.sign_r * np.eye(r)).max() < 1e-10


@pytest.mark.parametrize("ell", [3, 4, 5])
def test_casimir_blocks_on_tensor_products(ell):
    p = root_params(ell)
    rng = np.random.default_rng(20 + ell)
    r = p.r
    done = 0
    while done < 5:
        y1, y2 = random_ycolor(rng, p), random_ycolor(rng, p)
        try:
            chi1 = char_from_ycolor(y1, p)
            chi2 = char_from_ycolor(y2, p)
            V1 = build_cyclic_module(chi1, p)
            V2 = build_cyclic_module(chi2, p)
            blocks = casimir_block_structure(V1, V2)
        except HoloinvError:
            continue
        done += 1
        # exactly r distinct eigenvalues, each of multiplicity r
        assert len(blocks.values) == r
        assert all(b.shape[1] == r for b in blocks.bases)
        # eigenvalues match the predicted two-cosine set
        pred = predicted_casimir_values(chi1, chi2, p)
        for v in blocks.values:
            assert min(abs(v - w) for w in pred) < 1e-6
        # coproduct Casimir commutes with the generators' coproducts
        com = coproduct_matrices(V1, V2)
        omega = coproduct_casimir(V1, V2)
        for gmat in com.values():
            assert np.abs(omega @ gmat - gmat @ omega).max() < 1e-6


def test_tensor_central_scalars_multiplicative():
    p = root_params(3)
    rng = np.random.default_rng(5)
    y1, y2 = random_ycolor(rng, p), random_ycolor(rng, p)
    chi1, chi2 = char_from_ycolor(y1, p), char_from_ycolor(y2, p)
    s = tensor_central_scalars(chi1, chi2)
    assert abs(s["K"] - chi1.kappa * chi2.kappa) < 1e-9
    # oracle: r-th powers of the coproduct matrices act by these scalars
    V1 = build_cyclic_module(chi1, p)
    V2 = build_cyclic_module(chi2, p)
    com = coproduct_matrices(V1, V2)
    eye = np.eye(p.r * p.r)
    for gen in ("E", "F", "K"):
        mat = np.linalg.matrix_power(com[gen], p.r)
        assert np.abs(mat - s[gen] * eye).max() < 1e-7
