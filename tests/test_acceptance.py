"""End-to-end acceptance suite for the holonomy link invariant.

Each test exercises one headline guarantee of the package at full sample
scale: biquandle axioms, the associated-quandle law, the coloring
translation functor, cyclic module invariants, Casimir block structure,
braiding coherence, Steinberg encirclement, the modified dimension, the
renormalized invariant pipeline, and CLI determinism.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from holoinv.braiding import ModScalar, equal_mod_roots, sideways_matrices
from holoinv.cli import main as cli_main
from holoinv.diagram import braid_diagram, propagate_colors
from holoinv.errors import HoloinvError, Undefined
from holoinv.invariant import evaluate_Fprime, tilde_Fprime
from holoinv.modtrace import alpha_from_omega, modified_dim
from holoinv.params import root_params
from holoinv.sl2factor import q_functor_inv, random_gstar
from holoinv.uqsl2 import (
    ZChar,
    build_cyclic_module,
    casimir_block_structure,
    char_from_ycolor,
    duality_tensors,
    predicted_casimir_values,
)

from axioms import associated_quandle, check_biquandle_axioms, \
    check_dim_gauge_invariance
from conftest import commuting_link, random_unknot_qcolor, unknot_diagram, \
    write_link_file
from moves import RMove, apply_rmove
from oracles import ConjugationOracle, FactorizationOracle
from references import (
    block_bases,
    coproduct_casimir,
    inv2,
    k_inv,
    modified_dim_product,
    omega_matrix,
    psi,
    q_functor,
    same_mod_roots,
    steinberg_encirclement,
    twist,
)
from samplers import gauge_orbit_compare, random_sl2, random_ycolor
from yb import resolve_scalars_yb


# --- 1. biquandle axiom suite ------------------------------------------------

def test_biquandle_axioms_sl2_factorization():
    bq = FactorizationOracle()
    rng = np.random.default_rng(101)
    p = root_params(4)

    def sample():
        return random_ycolor(rng, p)

    rep = check_biquandle_axioms(bq, sample, samples=1000, tol=1e-8)
    assert rep["samples"] - rep["skipped"] >= 1000 * 0.9
    assert rep["max_violation"] == 0.0, rep


# --- 2. associated-quandle law -----------------------------------------------

def test_associated_quandle_is_conjugation():
    bq = FactorizationOracle()
    q = associated_quandle(bq)
    rng = np.random.default_rng(103)
    p = root_params(4)
    worst = 0.0
    done = attempts = 0
    while done < 1000 and attempts < 3000:
        attempts += 1
        a = random_ycolor(rng, p)
        b = random_ycolor(rng, p)
        try:
            c = q.op(a, b)
        except Undefined:
            continue
        done += 1
        lhs = psi(c.g)
        rhs = inv2(psi(a.g)) @ psi(b.g) @ psi(a.g)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    assert done == 1000, attempts
    assert worst <= 1e-8, worst


# --- 3. coloring translation functor -----------------------------------------

def _colored_braid(ell, word, rng):
    p = root_params(ell)
    bq = FactorizationOracle()
    n = max(abs(w) for w in word) + 1
    for _ in range(40):
        bottom = [random_ycolor(rng, p) for _ in range(n)]
        try:
            return propagate_colors(braid_diagram(n, word), bottom, bq)
        except HoloinvError:
            continue
    return None


def test_translation_functor_roundtrip_and_moves():
    rng = np.random.default_rng(104)
    qoracle = ConjugationOracle()
    yoracle = FactorizationOracle()
    roundtrips = 0
    move_checks = 0
    words = ([1], [1, -1], [1, 1], [1, 2, 1], [-1, 2])
    attempts = 0
    while (roundtrips < 100 or move_checks < 100) and attempts < 600:
        attempts += 1
        word = words[attempts % len(words)]
        d = _colored_braid(4, word, rng)
        if d is None:
            continue
        q = q_functor(d)
        # round trip where defined
        try:
            back = q_functor(q_functor_inv(q))
        except Undefined:
            back = None
        if back is not None:
            for e in q.edge_colors:
                assert back.edge_colors[e].approx_eq(q.edge_colors[e], 1e-6)
            roundtrips += 1
        # a Y-colored move maps to the same move on the Q-coloring
        move = RMove("RII_pp", len(d.slices), 0, "apply")
        moved_y = apply_rmove(d, move, yoracle)
        moved_q = apply_rmove(q, move, qoracle)
        got = q_functor(moved_y)
        for e in got.edge_colors:
            assert got.edge_colors[e].approx_eq(moved_q.edge_colors[e], 1e-6), e
        move_checks += 1
    assert roundtrips >= 100 and move_checks >= 100


# --- 4. cyclic module invariants ----------------------------------------------

@pytest.mark.parametrize("ell", [3, 4, 5, 6])
def test_cyclic_module_invariants_at_scale(ell):
    p = root_params(ell)
    rng = np.random.default_rng(105 + ell)
    r, xi = p.r, p.xi
    eye = np.eye(r)
    worst = 0.0
    qdim_worst = 0.0
    done = attempts = 0
    while done < 1000 and attempts < 3000:
        attempts += 1
        y = random_ycolor(rng, p)
        try:
            chi = char_from_ycolor(y, p)
            V = build_cyclic_module(chi, p)
        except HoloinvError:
            continue
        done += 1
        E, F, K, Ki = V.E, V.F, V.K, k_inv(V)
        worst = max(worst, np.abs(K @ E @ Ki - xi ** 2 * E).max())
        worst = max(worst, np.abs(K @ F @ Ki - F / xi ** 2).max())
        worst = max(worst,
                    np.abs(E @ F - F @ E - (K - Ki) / p.qbracket(1)).max())
        worst = max(worst,
                    np.abs(np.linalg.matrix_power(E, r) - chi.e_r * eye).max())
        worst = max(worst,
                    np.abs(np.linalg.matrix_power(F, r) - chi.f_r * eye).max())
        worst = max(worst,
                    np.abs(np.linalg.matrix_power(K, r) - chi.kappa * eye).max())
        # Casimir acts by chi(Omega), and the Chebyshev operator identity
        # ties it to the r-th central scalars
        worst = max(worst, np.abs(omega_matrix(V) - chi.omega * eye).max())
        worst = max(worst, abs(p.cheb(chi.omega)
                               - p.qbracket(1) ** (2 * r) * chi.e_r * chi.f_r
                               + p.sign_ell * (chi.kappa + 1.0 / chi.kappa)))
        if done % 50 == 0:
            dd = duality_tensors(V)
            qdim_worst = max(qdim_worst, abs(dd.ev_R.sum()))
    assert done == 1000, (ell, attempts)
    assert worst <= 1e-7, (ell, worst)
    assert qdim_worst <= 1e-7, (ell, qdim_worst)


# --- 5. Casimir block structure -------------------------------------------------

@pytest.mark.parametrize("ell", [3, 4, 5])
def test_casimir_spectrum_blocks(ell):
    p = root_params(ell)
    rng = np.random.default_rng(110 + ell)
    r = p.r
    done = attempts = 0
    while done < 3 and attempts < 60:
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
        assert len(blocks.values) == r
        for b in block_bases(blocks):
            assert b.shape == (r * r, r)
        predicted = predicted_casimir_values(chi1, chi2, p)
        scale = max(1.0, max(abs(v) for v in blocks.values))
        for v in blocks.values:
            assert min(abs(v - w) for w in predicted) <= 1e-6 * scale
        # the braided pair carries the same holonomy product, hence the
        # same spectrum, matched value for value
        try:
            from holoinv.sl2factor import sl2_B
            y4, y3 = sl2_B(y1, y2)
            W1 = build_cyclic_module(char_from_ycolor(y4, p), p)
            W2 = build_cyclic_module(char_from_ycolor(y3, p), p)
        except HoloinvError:
            done -= 1
            continue
        w2 = np.sort_complex(np.linalg.eigvals(coproduct_casimir(W1, W2)))
        w1 = np.sort_complex(np.linalg.eigvals(coproduct_casimir(V1, V2)))
        assert np.abs(w1 - w2).max() <= 1e-6 * scale
    assert done == 3, (ell, attempts)


# --- 6. braiding coherence -------------------------------------------------------

@pytest.mark.parametrize("ell", [3, 4])
def test_braiding_coherence_at_scale(providers, ell):
    provider = providers[ell]
    p = provider.p
    rng = np.random.default_rng(113 + ell)
    r = p.r
    eye = np.eye(r * r)
    yb_done = pair_done = twist_done = attempts = 0
    while (yb_done < 50 or pair_done < 50 or twist_done < 50) and attempts < 300:
        attempts += 1
        y1, y2, y3 = (random_ycolor(rng, p) for _ in range(3))
        if yb_done < 50:
            try:
                rep = resolve_scalars_yb(y1, y2, y3, provider)
                assert rep["residual"] <= 1e-6
                yb_done += 1
            except HoloinvError:
                pass
        if pair_done < 50:
            try:
                hb = provider.braiding(y1, y2)
                (u, v), cinv = provider.braiding_inv(hb.y4, hb.y3)
                ok, _, res = equal_mod_roots(cinv @ hb.c, eye, r, 1e-6)
                assert ok and res <= 1e-6
                sp, sm = (x[0] for x in sideways_matrices(
                    hb.c[None], hb.c_inv[None], provider.duality(hb.y4).coev_R[None],
                    provider.duality(hb.y2).ev_R[None], r))
                ok, _, res = equal_mod_roots(sm @ sp, eye, r, 1e-6)
                assert ok and res <= 1e-6
                pair_done += 1
            except HoloinvError:
                pass
        if twist_done < 50:
            try:
                twist(y3, provider)  # raises if left and right closures differ
                twist_done += 1
            except HoloinvError:
                pass
    assert (yb_done, pair_done, twist_done) == (50, 50, 50), (ell, attempts)


# --- 7. Steinberg encirclement ----------------------------------------------------

@pytest.mark.parametrize("ell", [3, 4])
def test_steinberg_encirclement_at_scale(providers, ell):
    provider = providers[ell]
    p = provider.p
    rng = np.random.default_rng(115 + ell)
    want = ModScalar(complex(p.r), p.r)
    done = attempts = 0
    while done < 20 and attempts < 200:
        attempts += 1
        y = random_ycolor(rng, p)
        try:
            s = steinberg_encirclement(y, provider)
        except HoloinvError:
            continue
        done += 1
        assert same_mod_roots(s, want, 1e-6)
    assert done == 20, (ell, attempts)


# --- 8. modified dimension ----------------------------------------------------------

def test_modified_dimension_at_scale():
    for ell in (3, 4, 5, 6):
        p = root_params(ell)
        rng = np.random.default_rng(117 + ell)
        done = attempts = 0
        worst = 0.0
        target = 1000 if ell <= 4 else 250
        while done < target and attempts < 3 * target:
            attempts += 1
            omega = complex(rng.normal(scale=2), rng.normal(scale=2))
            try:
                d = modified_dim(ZChar(1.0, 0.0, 0.0, omega), p)
            except HoloinvError:
                continue
            done += 1
            dp = modified_dim_product(alpha_from_omega(omega, p), p)
            worst = max(worst, abs(d - dp) / max(1.0, abs(d)))
        assert done == target, (ell, attempts)
        assert worst <= 1e-9, (ell, worst)

    # analytically forced value at ell = 4, alpha = 1/2
    p = root_params(4)
    omega = p.sign_r * (p.xi_pow(0.5) + p.xi_pow(-0.5))
    d = modified_dim(ZChar(1.0, 0.0, 0.0, complex(omega)), p)
    assert abs(d - (-np.sqrt(2))) <= 1e-9


def test_modified_dimension_gauge_invariant_along_orbits():
    for ell in (3, 4, 5):
        rep = check_dim_gauge_invariance(root_params(ell), samples=50,
                                         seed=118, tol=1e-9)
        assert rep["pass"] and rep["max_deviation"] <= 1e-9, (ell, rep)


# --- 9. invariant pipeline ------------------------------------------------------------

def test_pipeline_unknot_is_modified_dimension(providers):
    for ell in (3, 4):
        provider = providers[ell]
        q = random_unknot_qcolor(ell, seed=119 + ell)
        d = unknot_diagram(q)
        res = tilde_Fprime(d, provider)
        y = next(iter(q_functor_inv(d).edge_colors.values()))
        want = ModScalar(complex(modified_dim(provider.char(y), provider.p)),
                         provider.p.r)
        assert same_mod_roots(res.value, want, 1e-6)


def test_pipeline_cut_edge_independence(providers):
    for ell in (3, 4):
        provider = providers[ell]
        link = q_functor_inv(commuting_link(ell, [1, 1], seed=120))
        vals = [evaluate_Fprime(link, provider, cut=e).canonical
                for e in link.edges()]
        scale = max(1.0, abs(vals[0]))
        assert len(vals) >= 2
        assert max(abs(v - vals[0]) for v in vals) <= 1e-6 * scale


def test_pipeline_gauge_independence(providers):
    provider = providers[4]
    d = commuting_link(4, [1, 1], seed=121)
    rng = np.random.default_rng(122)
    gens = [random_gstar(rng) for _ in range(7)]
    gens += [random_sl2(rng) for _ in range(3)]
    rep = gauge_orbit_compare(d, gens, provider, seed=0)
    assert rep["generators"] == 10
    assert rep["max_deviation"] <= 1e-6, rep


def test_pipeline_reidemeister_independence(providers):
    for ell in (3, 4):
        provider = providers[ell]
        a = commuting_link(ell, [1, 1], seed=123)
        b = commuting_link(ell, [1, 1, 1, -1], seed=123)
        va = tilde_Fprime(a, provider, seed=0).value
        vb = tilde_Fprime(b, provider, seed=0).value
        assert same_mod_roots(va, vb, 1e-6)


# --- 10. determinism --------------------------------------------------------------------

def test_cli_invariant_deterministic(tmp_path, capsys):
    f = tmp_path / "link.json"
    write_link_file(f, 3, [1, 1], seed=124)
    outs = []
    for _ in range(2):
        assert cli_main(["invariant", str(f), "--ell", "3", "--seed", "5"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    canon = []
    for seed in (0, 3, 9):
        assert cli_main(["invariant", str(f), "--ell", "3",
                         "--seed", str(seed)]) == 0
        c = json.loads(capsys.readouterr().out)["canonical"]
        canon.append(complex(c[0], c[1]))
    scale = max(1.0, abs(canon[0]))
    assert max(abs(v - canon[0]) for v in canon) <= 1e-6 * scale
