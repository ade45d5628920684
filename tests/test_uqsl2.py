"""Cyclic modules: defining relations, central characters, Casimir structure."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from holoinv.errors import (
    BranchInconsistent,
    DegenerateSpectrum,
    HoloinvError,
    NotAdmissible,
)
from holoinv.params import cheb_holds, root_params
from holoinv.quandle import z_candidates
from holoinv.sl2factor import GStarElem, YColor, random_gstar
from holoinv.uqsl2 import (
    ZChar,
    build_cyclic_module,
    casimir_block_structure,
    char_from_ycolor,
    coproduct_blocks,
    duality_tensors,
    is_admissible,
    predicted_casimir_values,
    steinberg_char,
    tensor_central_scalars,
    trace_psi,
    weight_classes,
)

from references import (
    block_bases,
    block_cobases,
    coproduct_casimir,
    coproduct_matrices,
    dual_rep,
    k_inv,
    kron,
    loop_cyclic_module,
    omega_matrix,
    pairing,
    psi,
)
from samplers import random_ycolor


def _sample_modules(ell, n, seed):
    p = root_params(ell)
    rng = np.random.default_rng(seed)
    out, attempts = [], 0
    while len(out) < n and attempts < 3 * n:
        attempts += 1
        y = random_ycolor(rng, p)
        try:
            chi = char_from_ycolor(y, p)
            out.append(build_cyclic_module(chi, p))
        except Exception:
            continue
    assert len(out) == n, (ell, attempts)
    return p, out


def _branch_modules(p, n, seed):
    """Modules of the branches of `build_cyclic_module` that random colors
    miss: n lifts each with phi = 0 (f_r = 0, e_r != 0), eps = 0 (e_r = 0,
    f_r != 0) and eps = phi = 0 (an ADO module), and the Steinberg module."""
    rng = np.random.default_rng(seed)
    out = {"steinberg": [build_cyclic_module(steinberg_char(p), p)]}
    for branch, keep_eps, keep_phi in (("f_r = 0", 1, 0), ("e_r = 0", 0, 1),
                                       ("ado", 0, 0)):
        mods = out[branch] = []
        attempts = 0
        while len(mods) < n and attempts < 3 * n:
            attempts += 1
            x = random_gstar(rng)
            g = GStarElem(x.kappa, keep_eps * x.eps, keep_phi * x.phi)
            zs = z_candidates(complex(np.trace(psi(g))), p)
            try:
                chi = char_from_ycolor(YColor(g, zs[rng.integers(len(zs))]), p)
                mods.append(build_cyclic_module(chi, p))
            except HoloinvError:
                continue
        assert len(mods) == n, (branch, attempts)
    return out


@pytest.mark.parametrize("ell", [3, 4, 5, 6])
def test_module_defining_relations(ell):
    # every branch: generic, f_r = 0 with e_r != 0, e_r = 0 with f_r != 0,
    # ADO and Steinberg; E^r, F^r, K^r and Omega act by the character
    p, mods = _sample_modules(ell, 50, seed=ell)
    branches = {"generic": mods, **_branch_modules(p, 20, seed=ell)}
    xi, r = p.xi, p.r
    eye = np.eye(r)
    worst = dict.fromkeys(branches, 0.0)
    for branch, mods in branches.items():
        for V in mods:
            E, F, K, Ki = V.E, V.F, V.K, k_inv(V)
            chi = V.chi
            worst[branch] = max(
                worst[branch],
                np.abs(K @ E @ Ki - xi ** 2 * E).max(),
                np.abs(K @ F @ Ki - xi ** -2 * F).max(),
                np.abs(E @ F - F @ E - (K - Ki) / p.qbracket(1)).max(),
                np.abs(np.linalg.matrix_power(E, r) - chi.e_r * eye).max(),
                np.abs(np.linalg.matrix_power(F, r) - chi.f_r * eye).max(),
                np.abs(np.linalg.matrix_power(K, r) - chi.kappa * eye).max(),
                np.abs(omega_matrix(V) - chi.omega * eye).max())
            # the character satisfies the degree-r Chebyshev compatibility
            assert cheb_holds(chi.omega, trace_psi(chi, p), p)
    assert max(worst.values()) <= 1e-7, worst


@pytest.mark.parametrize("ell", [3, 4, 5, 6])
def test_right_quantum_dimension_vanishes(ell):
    p, mods = _sample_modules(ell, 10, seed=10 + ell)
    for V in mods:
        dd = duality_tensors(V)
        qdim = dd.ev_R.sum()
        assert abs(qdim) <= 1e-7
        # zig-zag identities of the two dualities
        r = p.r
        eye = np.eye(r)
        # the left cup and cap are the identity pairing, which
        # `braiding.sideways_matrices` reads as a permutation of c's legs,
        # so the record stores the right ones only, as diagonals
        assert [f.name for f in dataclasses.fields(dd)] == ["ev_R", "coev_R"]
        assert dd.ev_R.shape == dd.coev_R.shape == (r,)
        assert np.array_equal(pairing(dd, "evL").reshape(r, r), eye)
        assert np.array_equal(pairing(dd, "coevL").reshape(r, r), eye)
        # the right ones are diagonal too, K^(1-r) and K^(r-1): `evaluate_F`
        # folds every cup and cap into a crossing axis on that fact
        k = np.linalg.matrix_power(V.K, r - 1)
        for piece, want in (("evR", np.linalg.inv(k)), ("coevR", k)):
            m = pairing(dd, piece).reshape(r, r)
            assert np.array_equal(m, np.diag(np.diagonal(m)))
            assert np.abs(m - want).max() <= 1e-9 * np.abs(want).max()
        zig = np.kron(pairing(dd, "evL"), eye) @ np.kron(eye, pairing(dd, "coevL"))
        assert np.abs(zig - eye).max() < 1e-9
        zag = np.kron(eye, pairing(dd, "evR")) @ np.kron(pairing(dd, "coevR"), eye)
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
    done = attempts = 0
    while done < 5 and attempts < 100:
        attempts += 1
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
        assert all(b.shape[1] == r for b in block_bases(blocks))
        # eigenvalues match the predicted two-cosine set
        pred = predicted_casimir_values(chi1, chi2, p)
        for v in blocks.values:
            assert min(abs(v - w) for w in pred) < 1e-6
        # coproduct Casimir commutes with the generators' coproducts
        com = coproduct_matrices(V1, V2)
        omega = coproduct_casimir(V1, V2)
        for gmat in com.values():
            assert np.abs(omega @ gmat - gmat @ omega).max() < 1e-6
    assert done == 5, attempts


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


# --- weight-graded Casimir blocks ---------------------------------------------

def _dense_projectors(V1, V2):
    """Spectral projectors of Delta(Omega) from one dense eig of the r^2 x r^2
    Casimir, its spectrum clustered with the relative gap 1e-6 (reference)."""
    w, vecs = np.linalg.eig(coproduct_casimir(V1, V2))
    vinv = np.linalg.inv(vecs)
    scale = max(1.0, float(np.abs(w).max()))
    clusters: list[list[int]] = []
    for i in np.lexsort((w.imag, w.real)):
        for cl in clusters:
            if abs(w[cl[0]] - w[i]) <= 1e-6 * scale:
                cl.append(i)
                break
        else:
            clusters.append([i])
    return {complex(np.mean(w[cl])): vecs[:, cl] @ vinv[cl] for cl in clusters}


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_graded_projectors_match_dense_eig(ell):
    p, mods = _sample_modules(ell, 8, seed=40 + ell)
    r = p.r
    for V1, V2 in zip(mods[0::2], mods[1::2]):
        dense = _dense_projectors(V1, V2)
        blocks = casimir_block_structure(V1, V2)
        assert len(dense) == len(blocks.values) == r
        for v, b, cb in zip(blocks.values, block_bases(blocks),
                            block_cobases(blocks)):
            assert b.shape == (r * r, r) and cb.shape == (r, r * r)
            want = dense[min(dense, key=lambda u: abs(u - v))]
            assert np.linalg.norm(b @ cb - want) <= 1e-10 * np.linalg.norm(want)


def test_graded_spectrum_raises_in_graded_terms():
    # Steinberg (x) Steinberg has T_r(omega) = +-2, so its Casimir values
    # coincide in pairs, inside every weight class
    for ell in (3, 4, 5):
        p = root_params(ell)
        st = build_cyclic_module(steinberg_char(p), p)
        with pytest.raises(DegenerateSpectrum, match="repeats"):
            casimir_block_structure(st, st)
    # a module labelled with a wrong E^r scalar predicts other Casimir
    # values than its class blocks carry
    p, (V1, V2) = _sample_modules(5, 2, seed=3)
    off = dataclasses.replace(V1, chi=dataclasses.replace(V1.chi, e_r=2 * V1.chi.e_r))
    with pytest.raises(DegenerateSpectrum, match="disagree"):
        casimir_block_structure(off, V2)


@pytest.mark.parametrize("ell", [3, 4, 5])
def test_coproduct_matrices_match_kron_bitwise(ell):
    # the dense reference, and the program's weight-class blocks scattered
    # to the r^2 x r^2 grid, are both bitwise the np.kron sums
    p, (V1, V2) = _sample_modules(ell, 2, seed=60 + ell)
    r = p.r
    I = np.eye(r, dtype=complex)
    want = {"E": np.kron(I, V2.E) + np.kron(V1.E, V2.K),
            "F": np.kron(k_inv(V1), V2.F) + np.kron(V1.F, I),
            "K": np.kron(V1.K, V2.K)}
    got = coproduct_matrices(V1, V2)
    assert all(np.array_equal(got[g], want[g]) for g in "EFK")
    cls = weight_classes(r)
    for g, shift, blocks in zip("EFK", (-1, 1, 0), coproduct_blocks([V1], [V2])[0]):
        dense = np.zeros_like(want[g])
        dense[cls[(np.arange(r) + shift) % r][:, :, None], cls[:, None, :]] = blocks
        assert np.array_equal(dense, want[g]), g
    a, b = V1.E[:, :2], V2.F[:1]
    assert np.array_equal(kron(a, b), np.kron(a, b))


@pytest.mark.parametrize("ell", [3, 4, 5])
def test_f_r_zero_needs_a_root_k_matching_the_casimir(ell):
    # with f_r = 0 the branch k must give omega = (-1)^(l-1) (k + 1/k), and
    # no root k of k^r = (-1)^(r-1) 2 gives 0.3
    chi = ZChar(2, 0, 0, 0.3)
    assert is_admissible(chi, root_params(ell))
    with pytest.raises(BranchInconsistent, match="no root k matches"):
        build_cyclic_module(chi, root_params(ell))


@pytest.mark.parametrize("ell", range(3, 12))
def test_module_matrices_match_the_loop_reference_bitwise(ell):
    # random characters, the Steinberg one, and characters with f_r = 0
    # whose branch is chosen by the Casimir value (one per root of unity)
    p = root_params(ell)
    rng = np.random.default_rng(400 + ell)
    chars, attempts = [steinberg_char(p)], 0
    while len(chars) < 9 and attempts < 160:
        attempts += 1
        try:
            chars.append(char_from_ycolor(random_ycolor(rng, p), p))
        except HoloinvError:
            continue
    assert len(chars) == 9, attempts
    kappa = complex(rng.normal(), rng.normal())
    k0 = (-p.sign_r * kappa) ** (1.0 / p.r)
    chars += [ZChar(kappa, complex(rng.normal(), rng.normal()), 0j,
                    -p.sign_ell * (k + 1 / k))
              for k in (k0 * np.exp(2j * np.pi * j / p.r) for j in range(p.r))]
    for chi in chars:
        got, want = build_cyclic_module(chi, p), loop_cyclic_module(chi, p)
        for g in "EFK":
            assert np.array_equal(getattr(got, g), getattr(want, g)), (chi, g)
