"""Holonomy braidings: coproduct intertwining, Yang-Baxter, twists, closure."""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import references
from holoinv import braiding, uqsl2
from holoinv.braiding import (
    BraidingProvider,
    ModScalar,
    dilog_series,
    equal_mod_roots,
    pair_defined,
    sideways_matrices,
)
from holoinv.errors import (
    BlockIntertwinerDim,
    ChebyshevMismatch,
    HoloinvError,
    Undefined,
    UnresolvableYB,
)
from holoinv.cli import load_link
from holoinv.invariant import evaluate_F, gauge_fix, tilde_Fprime
from holoinv.params import GATE, root_params
from holoinv.diagram import braid_diagram, closure, cut_edge
from holoinv.quandle import gauge_act_matrix, propagate_qcolors, z_candidates
from holoinv.sl2factor import GStarElem, YColor, random_gstar, steinberg_ycolor
from holoinv.uqsl2 import (
    build_cyclic_module,
    DualityData,
    is_steinberg,
    steinberg_char,
    weight_classes,
)

from conftest import commuting_link, riley_trefoil
from references import (assemble, coproduct_matrices, dense_dilog_series,
                        dense_rmatrix_braiding, dense_unit_det, psi, qcolor, same_mod_roots,
                        steinberg_encirclement, twist)
from samplers import random_ycolor
from yb import (_nullspace, _on_strands, flip_matrix, preflip,
                resolve_scalars_yb)

CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"


def _random_pairs(provider, n, seed):
    rng = np.random.default_rng(seed)
    p = provider.p
    out = []
    while len(out) < n:
        y1, y2 = random_ycolor(rng, p), random_ycolor(rng, p)
        try:
            if pair_defined(provider.char(y1), provider.char(y2), p):
                out.append((y1, y2))
        except HoloinvError:
            continue
    return out


def test_modscalar_canonical_form():
    a = ModScalar(2.0 + 0.0j, 2)
    zeta = np.exp(2j * np.pi / 4)
    b = ModScalar(2.0 * zeta, 2)
    assert same_mod_roots(a, b, 1e-9)
    assert not same_mod_roots(a, ModScalar(2.1, 2), 1e-6)


def test_braiding_intertwines_coproducts(providers):
    # the defining property: c rho12(Delta u) = rho43(Delta u) c
    for ell in (3, 4):
        provider = providers[ell]
        for y1, y2 in _random_pairs(provider, 3, seed=ell):
            hb = provider.braiding(y1, y2)
            c12 = coproduct_matrices(provider.module(hb.y1), provider.module(hb.y2))
            c43 = coproduct_matrices(provider.module(hb.y4), provider.module(hb.y3))
            for g in ("E", "F", "K"):
                res = np.abs(hb.c @ c12[g] - c43[g] @ hb.c).max()
                assert res < 1e-7, (ell, g, res)
            assert abs(np.linalg.det(hb.c) - 1.0) < 1e-7


def test_yang_baxter_resolution(providers):
    for ell in (3, 4):
        provider = providers[ell]
        p = provider.p
        rng = np.random.default_rng(40 + ell)
        done = 0
        while done < 3:
            y1, y2, y3 = (random_ycolor(rng, p) for _ in range(3))
            try:
                rep = resolve_scalars_yb(y1, y2, y3, provider)
            except HoloinvError:
                continue
            done += 1
            assert rep["residual"] < 1e-6
            assert abs(rep["zeta"] ** (p.r ** 2) - 1.0) < 1e-6


def test_negative_crossing_is_matrix_inverse(providers):
    provider = providers[4]
    for y1, y2 in _random_pairs(provider, 3, seed=17):
        hb = provider.braiding(y1, y2)
        (u, v), cinv = provider.braiding_inv(hb.y4, hb.y3)
        assert u.approx_eq(y1, 1e-6) and v.approx_eq(y2, 1e-6)
        assert np.abs(cinv @ hb.c - np.eye(hb.c.shape[0])).max() < 1e-7


def test_sideways_morphisms_invert(providers):
    for ell in (3, 4):
        provider = providers[ell]
        r = provider.p.r
        eye = np.eye(r * r)
        for y1, y2 in _random_pairs(provider, 3, seed=50 + ell):
            hb = provider.braiding(y1, y2)
            sp, sm = (x[0] for x in sideways_matrices(
                hb.c[None], hb.c_inv[None], provider.duality(hb.y4).coev_R[None],
                provider.duality(hb.y2).ev_R[None], r))
            ok, _, res = equal_mod_roots(sm @ sp, eye, r, 1e-6)
            assert ok and res < 1e-6


def test_twist_left_equals_right_and_unimodular(providers):
    for ell in (3, 4):
        provider = providers[ell]
        rng = np.random.default_rng(60 + ell)
        done = 0
        while done < 3:
            y = random_ycolor(rng, provider.p)
            try:
                t = twist(y, provider)  # internally checks left == right
            except HoloinvError:
                continue
            done += 1
            assert abs(abs(t.value) - 1.0) < 1e-6


def test_steinberg_self_braiding_is_unitary_twist(providers):
    # oracle: the truncated unipotent series is exact in the Steinberg
    # sector, so the closed-form braiding must intertwine coproducts
    for ell in (3, 4, 5):
        provider = providers.get(ell) or BraidingProvider(root_params(ell))
        st = steinberg_ycolor(provider.p)
        hb = provider.braiding(st, st)
        c12 = coproduct_matrices(provider.module(hb.y1), provider.module(hb.y2))
        for g in ("E", "F", "K"):
            assert np.abs(hb.c @ c12[g] - c12[g] @ hb.c).max() < 1e-8
        y = _steinberg_partners(provider, 1, seed=140 + ell)[0]
        for pair in ((y, st), (st, y)):
            hb = provider.braiding(*pair)
            c12 = coproduct_matrices(provider.module(hb.y1), provider.module(hb.y2))
            c43 = coproduct_matrices(provider.module(hb.y4), provider.module(hb.y3))
            for g in ("E", "F", "K"):
                res = np.abs(hb.c @ c12[g] - c43[g] @ hb.c).max()
                assert res < 1e-8, (ell, pair[0] is st, g, res)


def test_unipotent_series_truncation_is_exact():
    # E nilpotent on the Steinberg module kills all terms from degree r on
    p = root_params(4)
    V0 = build_cyclic_module(steinberg_char(p), p)
    S, = dilog_series([V0], [V0], [1.0], p)
    extra = np.kron(np.linalg.matrix_power(V0.E, p.r),
                    np.linalg.matrix_power(V0.F, p.r))
    assert np.abs(extra).max() < 1e-12
    assert S.shape == (p.r, p.r, p.r)


def test_steinberg_encirclement_gives_r(providers):
    for ell in (3, 4):
        provider = providers[ell]
        p = provider.p
        rng = np.random.default_rng(70 + ell)
        done = 0
        while done < 5:
            y = random_ycolor(rng, p)
            try:
                s = steinberg_encirclement(y, provider)
            except HoloinvError:
                continue
            done += 1
            want = ModScalar(complex(p.r), p.r)
            assert same_mod_roots(s, want, 1e-6)


def test_flip_matrix_swaps_factors():
    f = flip_matrix(2, 3)
    a = np.arange(2 * 3)
    x = np.random.default_rng(0).normal(size=2)
    y = np.random.default_rng(1).normal(size=3)
    assert np.allclose(f @ np.kron(x, y), np.kron(y, x))


def _skew_sideways(monkeypatch):
    """Skew every s_plus that `sideways_matrices` returns, so every sideways
    check fails."""
    real = braiding.sideways_matrices

    def skewed(*args):
        s_plus, s_minus = real(*args)
        s_plus = s_plus.copy()
        s_plus[..., 0, 0] += 1.0
        return s_plus, s_minus

    monkeypatch.setattr(braiding, "sideways_matrices", skewed)


def test_failed_resolution_rolls_back_the_cache(monkeypatch):
    # the sideways morphisms of one fresh pair are skewed, so its check fails;
    # the cache must be as it was, and the pair must resolve once unpatched
    p = root_params(3)
    provider = BraidingProvider(p)
    _generic_braiding(provider, seed=80)
    want = _generic_braiding(BraidingProvider(p), seed=81)
    cached = dict(provider._braidings)
    _skew_sideways(monkeypatch)
    with pytest.raises(UnresolvableYB, match="sideways"):
        provider.braiding(want.y1, want.y2)
    assert provider._braidings == cached
    monkeypatch.undo()
    got = provider.braiding(want.y1, want.y2)
    ok, _, res = equal_mod_roots(got.c, want.c, p.r, 1e-7)
    assert ok, res


def test_the_solver_returns_only_checked_braidings(monkeypatch):
    # the sideways check belongs to the solver: with the sideways morphisms
    # skewed, no braiding leaves it, for a generic pair or a Steinberg one
    p = root_params(3)
    hb = _generic_braiding(BraidingProvider(p), seed=82)
    _skew_sideways(monkeypatch)
    with pytest.raises(UnresolvableYB, match="sideways"):
        braiding.rmatrix_braiding(hb.y1, hb.y2, BraidingProvider(p))
    with pytest.raises(UnresolvableYB, match="sideways"):
        braiding.steinberg_self_braiding(BraidingProvider(p))


# --- index-form braiding layer ------------------------------------------------

def _kron_sideways(c, c_inv, d4, d2, r):
    """The sideways morphisms as dense kron compositions (reference form)."""
    I = np.eye(r, dtype=complex)
    I2 = np.eye(r * r, dtype=complex)
    s_plus = (np.kron(d4.ev_L, I2) @ np.kron(np.kron(I, c), I)
              @ np.kron(I2, d2.coev_L))
    s_minus = (np.kron(I2, d2.ev_R) @ np.kron(np.kron(I, c_inv), I)
               @ np.kron(d4.coev_R, I2))
    return s_plus, s_minus


def _crandn(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("r", [3, 5])
def test_sideways_index_form_matches_kron(r):
    # dense random right cups and caps exercise every transpose, not just
    # the diagonal ones of a real duality; the left ones are the canonical
    # pairings, which `duality_tensors` always returns
    rng = np.random.default_rng(90 + r)
    eye = np.eye(r, dtype=complex)

    def duality():
        return DualityData(ev_L=eye.reshape(1, r * r),
                           coev_L=eye.reshape(r * r, 1),
                           ev_R=_crandn(rng, 1, r * r),
                           coev_R=_crandn(rng, r * r, 1))

    # a stack of two: each pair's morphisms are its own
    c = _crandn(rng, 2, r * r, r * r)
    c_inv = np.linalg.inv(c)
    d4, d2 = [duality(), duality()], [duality(), duality()]
    got = sideways_matrices(c, c_inv, np.array([d.coev_R for d in d4]),
                            np.array([d.ev_R for d in d2]), r)
    for k in range(2):
        want = _kron_sideways(c[k], c_inv[k], d4[k], d2[k], r)
        for g, w in zip(got, want):
            assert g[k].shape == w.shape == (r * r, r * r)
            assert np.abs(g[k] - w).max() <= 1e-12 * max(1.0, np.abs(w).max())


@pytest.mark.parametrize("r", [3, 5])
def test_strand_product_matches_kron(r):
    rng = np.random.default_rng(95 + r)
    c = _crandn(rng, r * r, r * r)
    m = _crandn(rng, r ** 3, 2 * r)
    I = np.eye(r, dtype=complex)
    for pos, embedded in ((0, np.kron(c, I)), (1, np.kron(I, c))):
        want = embedded @ m
        got = _on_strands(c, pos, m, r)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _steinberg(provider, y) -> bool:
    return is_steinberg(provider.char(y), provider.p)


def _unit(c):
    """c rescaled to unit determinant (reference)."""
    return dense_unit_det(c) * c


def _generic_braiding(provider, seed):
    rng = np.random.default_rng(seed)
    p = provider.p
    while True:
        y1, y2 = random_ycolor(rng, p), random_ycolor(rng, p)
        if _steinberg(provider, y1) or _steinberg(provider, y2):
            continue
        try:
            return provider.braiding(y1, y2)
        except HoloinvError:
            continue


@pytest.mark.parametrize("ell", [3, 5, 10])
def test_sideways_check_rejects_rescaled_blocks(ell):
    # a braiding with one Casimir-block scalar moved off its ray is still
    # an intertwiner, and only the sideways check can tell
    provider = BraidingProvider(root_params(ell))
    hb = _generic_braiding(provider, seed=100 + ell)
    bb = braiding.block_braiding(hb.y1, hb.y2, provider)
    basis = np.array([b.ravel() for b in bb.blocks]).T
    lam, *_ = np.linalg.lstsq(basis, hb.c.ravel(), rcond=None)
    assert np.abs(basis @ lam - hb.c.ravel()).max() < 1e-8

    def check(lambdas):
        c = _unit(assemble(bb, lambdas))
        braiding.check_sideways(c[None], np.linalg.inv(c)[None],
                                provider.duality(bb.y4).coev_R[None],
                                provider.duality(bb.y2).ev_R[None], provider.p.r)

    check(lam)
    for factor in (1.7, np.exp(0.3j)):
        bent = lam.copy()
        bent[1] *= factor
        with pytest.raises(UnresolvableYB, match="sideways"):
            check(bent)


def test_inverse_braiding_is_computed_once(providers):
    # the inverse comes from the factors c = tau P D S, with no second inv:
    # a generic pair at ell 3, and every braiding two links resolve at ell 5
    cases = [(providers[3], [_generic_braiding(providers[3], seed=120)])]
    for d in (riley_trefoil(5), commuting_link(5, [1, 1, 1, -1])):
        provider = BraidingProvider(root_params(5))
        for e in d.edges():
            tilde_Fprime(d, provider, cut=e)
        cases.append((provider, list(provider._braidings.values())))
    for provider, hbs in cases:
        assert hbs
        for hb in hbs:
            _, cinv = provider.braiding_inv(hb.y4, hb.y3)
            assert cinv is hb.c_inv
            assert np.abs(cinv @ hb.c - np.eye(hb.c.shape[0])).max() < 1e-9


def _plain_nullspace(a, rel_tol=1e-8):
    """Nullspace by a thin SVD of a itself (reference for the QR path)."""
    _, s, vh = np.linalg.svd(a, full_matrices=False)
    rank = int(np.sum(s > rel_tol * max(1.0, s[0])))
    return vh[rank:].conj().T


@pytest.mark.parametrize("r", [3, 5])
def test_tall_nullspace_qr_matches_svd(r):
    rng = np.random.default_rng(130 + r)
    n = 2 * r
    a = _crandn(rng, r ** 6, n)
    ns = _nullspace(a)
    assert ns.shape == (n, 0) and _plain_nullspace(a).shape == (n, 0)
    # plant the null direction v by projecting it out of every row
    v = _crandn(rng, n)
    v /= np.linalg.norm(v)
    a = a - np.outer(a @ v, v.conj())
    got, want = _nullspace(a), _plain_nullspace(a)
    assert got.shape == want.shape == (n, 1)
    assert abs(abs(np.vdot(got[:, 0], want[:, 0])) - 1.0) < 1e-10
    assert abs(abs(np.vdot(got[:, 0], v)) - 1.0) < 1e-10


# --- Steinberg pair braidings ------------------------------------------------

def _weight_self_braiding(provider):
    """The Steinberg self braiding from its integer K-weights (reference)."""
    p = provider.p
    r = p.r
    V = provider.module(steinberg_ycolor(provider.p))
    weights = [r + 1 - 2 * (i + 1) for i in range(r)]
    qh = np.exp(1j * np.pi / p.ell)  # principal square root of q
    cartan = np.diag([qh ** (wi * wj) for wi in weights for wj in weights])
    return _unit(flip_matrix(r, r) @ cartan @ dense_dilog_series(V, V, 1.0, p))


def _block_pair_braiding(y1, y2, provider):
    """A Steinberg pair from its Casimir blocks (reference): the one ray in
    their span that is diagonal once the flip and the series are peeled off."""
    bb = braiding.block_braiding(y1, y2, provider)
    r = provider.p.r
    V1, V2 = provider.module(y1), provider.module(y2)
    S_inv = np.linalg.inv(dense_dilog_series(V1, V2, 1.0, provider.p))
    tau = flip_matrix(r, r)
    off = ~np.eye(r * r, dtype=bool)
    ns = _nullspace(
        np.array([(tau @ b @ S_inv)[off] for b in bb.blocks]).T)
    assert ns.shape[1] == 1
    return _unit(assemble(bb, ns[:, 0]))


def _steinberg_partners(provider, n, seed):
    """n random colors y whose pairs (y, st) and (st, y) both resolve."""
    rng = np.random.default_rng(seed)
    st = steinberg_ycolor(provider.p)
    out = []
    while len(out) < n:
        y = random_ycolor(rng, provider.p)
        try:
            for pair in ((y, st), (st, y)):
                provider.braiding(*pair)
        except HoloinvError:
            continue
        out.append(y)
    return out


@pytest.mark.parametrize("ell", range(3, 11))
def test_steinberg_self_pair_matches_weight_formula(ell):
    provider = BraidingProvider(root_params(ell))
    got = braiding.steinberg_pair_braiding(steinberg_ycolor(provider.p),
                                           steinberg_ycolor(provider.p), provider)
    ok, _, res = equal_mod_roots(got.c, _weight_self_braiding(provider),
                                 provider.p.r, 1e-8)
    assert ok, res


@pytest.mark.parametrize("ell", [3, 4, 5, 7, 10])
def test_steinberg_pair_matches_block_oracle(ell):
    # colors are drawn where the oracle resolves; the solver must too
    provider = BraidingProvider(root_params(ell))
    st = steinberg_ycolor(provider.p)
    rng = np.random.default_rng(150 + ell)
    done = 0
    while done < 4:
        y = random_ycolor(rng, provider.p)
        for pair in ((y, st), (st, y)):
            try:
                want = _block_pair_braiding(*pair, provider)
            except HoloinvError:
                continue
            got = braiding.steinberg_pair_braiding(*pair, provider)
            ok, _, res = equal_mod_roots(got.c, want, provider.p.r, 1e-8)
            assert ok, (pair[0] is st, res)
            done += 1


@pytest.mark.parametrize("ell", [3, 4, 5])
def test_steinberg_solver_rejects_a_broken_coproduct(ell, monkeypatch):
    # Delta_43(E) with one structural nonzero of its class blocks dropped:
    # that equation on D is gone, so the check that A_u vanishes wherever
    # B_u does rejects it
    provider = BraidingProvider(root_params(ell))
    st = steinberg_ycolor(provider.p)
    y = _steinberg_partners(provider, 1, seed=170 + ell)[0]
    hb = provider.braiding(y, st)
    V4, V3 = provider.module(hb.y4), provider.module(hb.y3)
    real = braiding.coproduct_blocks

    def broken(V1, V2):
        d = real(V1, V2)
        for k, pair in enumerate(zip(V1, V2)):
            if pair[0] is V4 and pair[1] is V3:
                d[(k, 0, *np.argwhere(d[k, 0])[0])] = 0.0
        return d

    monkeypatch.setattr(braiding, "coproduct_blocks", broken)
    with pytest.raises(UnresolvableYB):
        braiding.steinberg_pair_braiding(y, st, provider)


@pytest.mark.parametrize("ell", [3, 4, 5])
def test_steinberg_solver_checks_every_cartan_equation(ell, monkeypatch):
    # Delta_43(E) with one structural nonzero scaled by 1.5 on a link that
    # the recurrence does not walk: the diagonal entry [w, a, a] of its
    # class blocks is 1 (x) E at V4 index a, the coordinate (a, b) of
    # V4 (x) V3 is the grid point (b - s, a) after the flip and the
    # relabeling, so with a >= 1 it links two rows of grid column a >= 1.
    # Only the residual of every equation, not the links alone, sees it.
    provider = BraidingProvider(root_params(ell))
    st = steinberg_ycolor(provider.p)
    y = _steinberg_partners(provider, 1, seed=175 + ell)[0]
    hb = provider.braiding(y, st)
    V4, V3 = provider.module(hb.y4), provider.module(hb.y3)
    real = braiding.coproduct_blocks

    def skewed(V1, V2):
        d = real(V1, V2)
        for k, pair in enumerate(zip(V1, V2)):
            if pair[0] is V4 and pair[1] is V3:
                w, a = next((w, a) for w, a, b in np.argwhere(d[k, 0]) if a == b >= 1)
                d[k, 0, w, a, a] *= 1.5
        return d

    monkeypatch.setattr(braiding, "coproduct_blocks", skewed)
    with pytest.raises(UnresolvableYB, match="residual"):
        braiding.steinberg_pair_braiding(y, st, provider)


@pytest.mark.parametrize("ell", [4, 8])
def test_steinberg_check_is_normwise_on_the_riley_trefoil(ell):
    # Riley's trefoil coloring without a conjugation: in these gauges some
    # Steinberg equations have an entry of B that is only rounding noise,
    # which an entrywise relative residual rejected
    m = np.exp(0.3 + 0.7j)
    x = np.array([[m, 1], [0, 1 / m]])
    y = np.array([[m, 0], [1 - m**2 - m**-2, 1 / m]])
    p = root_params(ell)
    z = z_candidates(m + 1 / m, p)[0]
    d = closure(propagate_qcolors(braid_diagram(2, [1, 1, 1]),
                                  [qcolor(x, z), qcolor(y, z)]))
    rng = np.random.default_rng(0)
    vals = [tilde_Fprime(gauge_act_matrix(random_gstar(rng).phi_plus(), d),
                         BraidingProvider(p)).value.canonical
            for _ in range(10)]
    assert all(abs(v / vals[0] - 1) <= 1e-8 for v in vals)
    if ell == 4:
        # 16 tau^2 with the trefoil's Reidemeister torsion tau = 2
        assert abs(vals[0] - 64) <= 1e-8 * 64


def test_unit_det_survives_an_underflowing_determinant():
    # eleven blocks 1e-3 I of size 11: the product of their determinants,
    # 1e-363, underflows to 0; the sum of their logarithms does not
    blocks = np.tile(1e-3 * np.eye(11, dtype=complex), (11, 1, 1))
    got = braiding._unit_det(blocks[None])[0] * blocks
    assert np.abs(got - np.eye(11)).max() < 1e-12


@pytest.mark.parametrize("ell", [3, 4, 5])
def test_twist_raises_undefined_off_the_alpha_domain(ell):
    # with kappa^2 = eps phi the matrix that alpha factorizes has a vanishing
    # upper-left entry, so alpha has no value; that is an Undefined
    p = root_params(ell)
    g = GStarElem(1, 1, 1)
    y = YColor(g, z_candidates(complex(np.trace(psi(g))), p)[0])
    with pytest.raises(Undefined):
        twist(y, BraidingProvider(p))


# --- lean cold resolution -----------------------------------------------------

def _random_module(provider, rng):
    while True:
        try:
            return provider.module(random_ycolor(rng, provider.p))
        except HoloinvError:
            continue


@pytest.mark.parametrize("ell", [3, 5])
def test_unipotent_series_matches_kron_bitwise(ell):
    # the series as it was written with np.kron (reference), at the root
    # rho = 1 of a Steinberg pair and at a generic root; its class blocks,
    # scattered to the r^2 x r^2 grid, are bitwise the kron sum
    p = root_params(ell)
    provider = BraidingProvider(p)
    rng = np.random.default_rng(170 + ell)
    st = provider.module(steinberg_ycolor(provider.p))
    for rho, V1, V2 in ((1.0, st, _random_module(provider, rng)),
                        (0.8 + 0.3j, _random_module(provider, rng),
                         _random_module(provider, rng))):
        r, q = p.r, p.xi
        want = np.zeros((r * r, r * r), dtype=complex)
        En = Fn = np.eye(r, dtype=complex)
        coef = 1.0 + 0j
        for n in range(r):
            if n:
                En, Fn = En @ V1.E, Fn @ V2.F
                coef *= p.qbracket(1) ** 2 / (q * (1 - rho * q ** (-2 * n)))
            want += coef * np.kron(En, Fn)
        got = np.zeros_like(want)
        cls = weight_classes(r)
        got[cls[:, :, None], cls[:, None, :]] = dilog_series([V1], [V2], [rho], p)[0]
        assert np.array_equal(got, want)


@pytest.mark.parametrize("ell", [3, 4, 5, 7])
def test_block_pieces_are_rank_r_intertwiners(ell):
    # each recurrence-built piece intertwines Delta(E), Delta(F), Delta(K),
    # and the r pieces of a pair sum to an invertible matrix
    provider = BraidingProvider(root_params(ell))
    r = provider.p.r
    for y1, y2 in _random_pairs(provider, 2, seed=180 + ell):
        bb = braiding.block_braiding(y1, y2, provider)
        d12 = coproduct_matrices(provider.module(bb.y1), provider.module(bb.y2))
        d43 = coproduct_matrices(provider.module(bb.y4), provider.module(bb.y3))
        assert len(bb.blocks) == r
        for piece in bb.blocks:
            sv = np.linalg.svd(piece, compute_uv=False)
            assert sv[r - 1] > 1e-6 * sv[0] and sv[r] < 1e-10 * sv[0]
            for u in "EFK":
                res = np.linalg.norm(piece @ d12[u] - d43[u] @ piece)
                assert res <= 1e-10 * np.linalg.norm(d12[u]), (u, res)
        sv = np.linalg.svd(sum(bb.blocks), compute_uv=False)
        assert sv[-1] > 1e-8 * sv[0]


def test_recurrence_raises_when_its_coefficients_vanish(monkeypatch):
    provider = BraidingProvider(root_params(3))
    (y1, y2), = _random_pairs(provider, 1, seed=190)
    braiding.block_braiding(y1, y2, provider)
    real = braiding.casimir_block_structure

    def silent(V1, V2):
        b = real(V1, V2)
        return dataclasses.replace(b, e=0 * b.e, f=0 * b.f)

    monkeypatch.setattr(braiding, "casimir_block_structure", silent)
    with pytest.raises(BlockIntertwinerDim, match="vanish"):
        braiding.block_braiding(y1, y2, provider)


def test_character_key_is_computed_once_per_color(monkeypatch):
    provider = BraidingProvider(root_params(3))
    hb = _generic_braiding(provider, seed=200)
    char = braiding.char_from_ycolor
    calls = []

    def counting(y, *args):
        calls.append(y)
        return char(y, *args)

    monkeypatch.setattr(braiding, "char_from_ycolor", counting)
    for _ in range(3):
        assert provider.braiding(hb.y1, hb.y2) is hb
        provider.duality(hb.y2)
        assert not _steinberg(provider, hb.y1)
    assert calls == []
    # a color failing the Chebyshev check is not remembered
    bad = dataclasses.replace(hb.y1, z=hb.y1.z + 0.5)
    for _ in range(2):
        with pytest.raises(ChebyshevMismatch):
            provider.pair_key(bad, hb.y2)
    assert calls == [bad, bad]


# --- the series root, the block reference and the braid relation ------------

@pytest.mark.parametrize("ell", [3, 4, 5])
def test_two_rank_one_candidates_are_not_a_braiding(ell, monkeypatch):
    # the root rho xi^2 shifts the series coefficients by one, which gives
    # the form of c (E1 (x) F2), the other rank-one candidate in a block
    # span; no Cartan factor makes it, or any root rho xi^(2m) with m != 0,
    # intertwine (for rho = 1 the root is a pole of the series).  Generic
    # and Steinberg pairs raise, and nothing is cached.
    provider = BraidingProvider(root_params(ell))
    r, st = provider.p.r, steinberg_ycolor(provider.p)
    hb = _generic_braiding(provider, seed=210 + ell)
    y = _steinberg_partners(provider, 1, seed=220 + ell)[0]
    real = braiding.dilog_series
    for m in range(1, r):
        monkeypatch.setattr(braiding, "dilog_series", lambda V1, V2, rho, p:
                            real(V1, V2, rho * p.xi ** (2 * m), p))
        fresh = BraidingProvider(provider.p)
        pairs = [(hb.y1, hb.y2)] + ([(y, st), (st, y)] if m == 1 else [])
        for pair in pairs:
            with pytest.raises(UnresolvableYB):
                fresh.braiding(*pair)
        assert fresh._braidings == {}


def _generic_pairs(provider, links):
    """The generic pairs that evaluating the links resolves."""
    for d in links:
        tilde_Fprime(d, provider)
    return [(hb.y1, hb.y2) for hb in provider._braidings.values()
            if not (_steinberg(provider, hb.y1) or _steinberg(provider, hb.y2))]


def _assert_references_hold(provider, pairs):
    # each braiding lies in the span of its pair's Casimir-block pieces
    # (reference); the braid relation holds on (y1', st, y2), where the pair
    # meets four pairs with a Steinberg factor, and on an all-generic triple
    # through the same pair
    st = steinberg_ycolor(provider.p)
    assert pairs
    for y1, y2 in pairs:
        c = provider.braiding(y1, y2).c
        basis = np.array(braiding.block_braiding(y1, y2, provider).blocks)
        basis = basis.reshape(len(basis), -1).T
        lam = np.linalg.lstsq(basis, c.ravel(), rcond=None)[0]
        assert np.abs(basis @ lam - c.ravel()).max() <= GATE * np.abs(c).max()
        for trip in ((preflip(y1, provider), st, y2), (y1, y2, y1)):
            rep = resolve_scalars_yb(*trip, provider)
            assert rep["residual"] <= GATE


@pytest.mark.parametrize("ell", range(3, 8))
def test_braid_relation_holds_on_resolved_pairs(ell):
    provider = BraidingProvider(root_params(ell))
    links = [commuting_link(ell, [1, 1]), commuting_link(ell, [1, 1, 1, -1]),
             riley_trefoil(ell)]
    _assert_references_hold(provider, _generic_pairs(provider, links))


def _cold_corpus(seed, names, tmp_path, monkeypatch):
    """The links of the benchmark's cold corpus at ell 5, two gauges each,
    from its own link generator, loaded read-only from its path."""
    spec = importlib.util.spec_from_file_location("perfbench_corpus", CORPUS)
    corpus = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, corpus)
    spec.loader.exec_module(corpus)
    rng = np.random.default_rng(seed)
    links = []
    for case in corpus.cases(names, 5, rng, 2):
        path = tmp_path / f"{case.name}_{case.gauge}.json"
        path.write_text(json.dumps(case.doc))
        links.append(load_link(str(path))[1])
    return links


@pytest.mark.parametrize("seed", [1, 7])
def test_braid_relation_holds_on_the_cold_corpus(seed, tmp_path, monkeypatch):
    links = _cold_corpus(seed, ("hopf", "mix2", "s3", "t23", "t25"), tmp_path, monkeypatch)
    provider = BraidingProvider(root_params(5))
    _assert_references_hold(provider, _generic_pairs(provider, links))


# --- the weight-class solve against the dense one ----------------------------

def _outcome(solve, pair, provider):
    """A braiding, or the class of the HoloinvError its solve raised."""
    try:
        return solve(*pair, provider)
    except HoloinvError as e:
        return type(e)


@pytest.mark.parametrize("ell", range(3, 12))
def test_class_block_solver_matches_the_dense_reference(ell, monkeypatch):
    # the pairs of Riley's trefoil in the identity gauge and in one random
    # gauge, and pairs with a Steinberg factor: c and c^-1 equal the dense
    # solver's modulo roots, or both solvers raise the same error class; at
    # every planted root rho xi^(2m) both raise the same error class
    p = root_params(ell)
    provider = BraidingProvider(p)
    d = riley_trefoil(ell, seed=ell, conjugate=False)
    rng = np.random.default_rng(250 + ell)
    for link in (d, gauge_act_matrix(random_gstar(rng).phi_plus(), d)):
        tilde_Fprime(link, provider, max_gauge=1)
    st = steinberg_ycolor(p)
    generic = [(hb.y1, hb.y2) for hb in provider._braidings.values()]
    pairs = generic + [(st, st)] + [q for y1, y2 in generic for q in ((y1, st), (st, y2))]
    for pair in pairs:
        got = _outcome(braiding.rmatrix_braiding, pair, provider)
        want = _outcome(dense_rmatrix_braiding, pair, provider)
        if isinstance(want, type):
            assert got is want, pair
            continue
        for a, b in ((got.c, want.c), (got.c_inv, want.c_inv)):
            ok, _, res = equal_mod_roots(a, b, p.r, 1e-12)
            assert ok, res
    real, dense = braiding.dilog_series, references.dense_dilog_series
    for m in range(1, p.r):
        root = p.xi ** (2 * m)
        monkeypatch.setattr(braiding, "dilog_series",
                            lambda V1, V2, rho, p: real(V1, V2, rho * root, p))
        monkeypatch.setattr(references, "dense_dilog_series",
                            lambda V1, V2, rho, p: dense(V1, V2, rho * root, p))
        for pair in (generic[0], (generic[0][0], st)):
            got = _outcome(braiding.rmatrix_braiding, pair, provider)
            want = _outcome(dense_rmatrix_braiding, pair, provider)
            assert isinstance(want, type) and got is want, (m, want, got)


def test_resolution_calls_linear_algebra_on_class_blocks_only(monkeypatch, tmp_path):
    # the O(r^4) guard: resolving a generic and a Steinberg pair at ell 11,
    # sideways check included, hands np.linalg no array wider than r x r,
    # and runs no kron: numpy's, the dense reference's, or one in the package.
    # The batching guard: a cold evaluation of a T(2,5) cut at ell 5 resolves
    # its five pairs with one inv, one svd and one slogdet.
    p = root_params(11)
    r, st = p.r, steinberg_ycolor(p)
    hb = _generic_braiding(BraidingProvider(p), seed=260)
    y = _steinberg_partners(BraidingProvider(p), 1, seed=261)[0]
    lifted = gauge_fix(_cold_corpus(1, ("t25",), tmp_path, monkeypatch)[0])[1]
    tangle = cut_edge(lifted, lifted.edges()[0])
    calls = []
    for name in np.linalg.__all__:
        fn = getattr(np.linalg, name)
        if callable(fn) and not isinstance(fn, type):
            def recording(*args, _fn=fn, _name=name, **kwargs):
                calls.extend((_name, a.shape) for a in args
                             if isinstance(a, np.ndarray) and a.ndim >= 2)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)

    def forbidden(*args):
        raise AssertionError("kron during a resolution")

    for owner in (np, references, braiding, uqsl2):
        monkeypatch.setattr(owner, "kron", forbidden, raising=False)
    fresh = BraidingProvider(p)
    fresh.braiding(hb.y1, hb.y2)
    fresh.braiding(y, st)
    assert {"inv", "svd", "slogdet"} <= {name for name, _ in calls}
    assert all(shape[-2] <= r and shape[-1] <= r for _, shape in calls), calls
    calls.clear()
    cold = BraidingProvider(root_params(5))
    evaluate_F(tangle, cold)
    assert len(cold._braidings) == 5
    assert sorted(name for name, _ in calls) == ["inv", "slogdet", "svd"], calls
    assert all(shape[-2] <= 5 and shape[-1] <= 5 for _, shape in calls), calls



# --- one stack per evaluation -------------------------------------------------

def _stack_cases(ell):
    """A provider, pairs that each resolve alone in it, and their braidings
    alone: the pairs of Riley's trefoil in the identity gauge and in one
    random gauge, random generic pairs, and (st, st), (y1, st), (st, y2) for
    one trefoil pair (y1, y2)."""
    p = root_params(ell)
    provider = BraidingProvider(p)
    d = riley_trefoil(ell, seed=ell, conjugate=False)
    rng = np.random.default_rng(250 + ell)
    for link in (d, gauge_act_matrix(random_gstar(rng).phi_plus(), d)):
        tilde_Fprime(link, provider, max_gauge=1)
    st = steinberg_ycolor(p)
    trefoil = [(hb.y1, hb.y2) for hb in provider._braidings.values()]
    (y1, y2), fresh = trefoil[0], BraidingProvider(p)
    pairs = (trefoil + _random_pairs(provider, 3, seed=330 + ell)
             + [(st, st), (y1, st), (st, y2)])
    alone = {q: _outcome(braiding.rmatrix_braiding, q, fresh) for q in pairs}
    pairs = [q for q in pairs if not isinstance(alone[q], type)]
    assert len(pairs) >= 7
    return fresh, pairs, alone


def _same_bits(a, b) -> bool:
    return np.array_equal(a.c, b.c) and np.array_equal(a.c_inv, b.c_inv)


@pytest.mark.parametrize("ell", [3, 4, 5, 7, 11])
def test_a_stack_resolves_each_pair_as_it_resolves_alone(ell):
    provider, pairs, alone = _stack_cases(ell)
    for stack in (pairs, pairs[::-1], pairs[1::2]):
        for q, hb in zip(stack, braiding.rmatrix_braidings(stack, provider)):
            assert _same_bits(hb, alone[q]), q


def _plant_pole(monkeypatch, provider, bad):
    # the series root of `bad` moved onto xi^2, a pole at n = 1
    real, V = braiding.dilog_series, provider.module(bad[0])
    monkeypatch.setattr(braiding, "dilog_series", lambda V1, V2, rho, p: real(
        V1, V2, [p.xi ** 2 if a is V else x for a, x in zip(V1, rho)], p))


def _plant_obstruction(monkeypatch, provider, bad):
    # the pair obstruction of `bad` vanishes
    real, chi = braiding.pair_defined, provider.char(bad[0])
    monkeypatch.setattr(braiding, "pair_defined",
                        lambda chi1, chi2, p: chi1 is not chi and real(chi1, chi2, p))


def _plant_nan(monkeypatch, provider, bad):
    # Delta(E) on V1 (x) V2 of `bad` all NaN
    real, V = braiding.coproduct_blocks, provider.module(bad[0])

    def planted(V1, V2):
        d = real(V1, V2)
        d[[a is V for a in V1], 0] = np.nan
        return d

    monkeypatch.setattr(braiding, "coproduct_blocks", planted)


_PLANTS = {
    "pole": (_plant_pole, UnresolvableYB, "pole at n = 1"),
    "obstruction": (_plant_obstruction, Undefined, "obstruction vanishes"),
    "nan-coproduct": (_plant_nan, UnresolvableYB, r"Delta\(E\)"),
}


@pytest.mark.parametrize("plant", _PLANTS)
@pytest.mark.parametrize("ell", [3, 4, 5, 7, 11])
def test_a_failing_pair_changes_nothing_else_in_its_stack(ell, plant, monkeypatch):
    # one planted pair fails in the middle of a stack: the stack raises the
    # planted error, and the provider's `resolve` of it caches nothing and
    # raises nothing; every other pair, asked for after it, resolves bitwise
    # as alone, and the planted pair raises alone and is not cached
    provider, pairs, alone = _stack_cases(ell)
    bad = next(q for q in _random_pairs(provider, 4, seed=340 + ell)
               if not isinstance(_outcome(braiding.rmatrix_braiding, q, provider), type))
    planting, error, match = _PLANTS[plant]
    planting(monkeypatch, provider, bad)
    stack = pairs[:2] + [bad] + pairs[2:]
    with pytest.raises(error, match=match):
        braiding.rmatrix_braiding(*bad, provider)
    with pytest.raises(error, match=match):
        braiding.rmatrix_braidings(stack, provider)
    provider.resolve(stack)
    assert not provider._braidings
    for q in pairs:
        assert _same_bits(provider.braiding(*q), alone[q]), q
    with pytest.raises(error, match=match):
        provider.braiding(*bad)
    assert provider.pair_key(*bad) not in provider._braidings
