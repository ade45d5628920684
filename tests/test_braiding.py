"""Holonomy braidings: coproduct intertwining, Yang-Baxter, twists, closure."""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from holoinv import braiding
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
from holoinv.invariant import tilde_Fprime
from holoinv.params import GATE, root_params
from holoinv.diagram import braid_diagram, closure
from holoinv.quandle import QColor, propagate_qcolors, z_candidates
from holoinv.sl2factor import GStarElem, YColor, gauge_act_diagram, psi, random_gstar
from holoinv.uqsl2 import (
    build_cyclic_module,
    DualityData,
    coproduct_matrices,
    is_steinberg,
    steinberg_char,
)

from conftest import commuting_link, riley_trefoil
from references import assemble, same_mod_roots, steinberg_encirclement, twist
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
            sp, sm = sideways_matrices(hb.c, hb.c_inv(),
                                       provider.duality(hb.y4),
                                       provider.duality(hb.y2), r)
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
        st = provider.steinberg
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
    S = dilog_series(V0, V0, 1.0, p)
    extra = np.kron(np.linalg.matrix_power(V0.E, p.r),
                    np.linalg.matrix_power(V0.F, p.r))
    assert np.abs(extra).max() < 1e-12
    assert S.shape == (p.r ** 2, p.r ** 2)


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


def test_failed_resolution_rolls_back_the_cache(monkeypatch):
    # the sideways morphisms of one fresh pair are skewed, so its check fails;
    # the cache must be as it was, and the pair must resolve once unpatched
    p = root_params(3)
    provider = BraidingProvider(p)
    _generic_braiding(provider, seed=80)
    want = _generic_braiding(BraidingProvider(p), seed=81)
    cached = dict(provider._braidings)
    real = braiding.sideways_matrices

    def skewed(*args):
        s_plus, s_minus = real(*args)
        s_plus = s_plus.copy()
        s_plus[0, 0] += 1.0
        return s_plus, s_minus

    monkeypatch.setattr(braiding, "sideways_matrices", skewed)
    with pytest.raises(UnresolvableYB, match="sideways"):
        provider.braiding(want.y1, want.y2)
    assert provider._braidings == cached
    monkeypatch.undo()
    got = provider.braiding(want.y1, want.y2)
    ok, _, res = equal_mod_roots(got.c, want.c, p.r, 1e-7)
    assert ok, res


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
    # dense random cups and caps exercise every transpose, not just the
    # delta pairings of a real duality
    rng = np.random.default_rng(90 + r)

    def duality():
        return DualityData(ev_L=_crandn(rng, 1, r * r),
                           coev_L=_crandn(rng, r * r, 1),
                           ev_R=_crandn(rng, 1, r * r),
                           coev_R=_crandn(rng, r * r, 1))

    c = _crandn(rng, r * r, r * r)
    c_inv = np.linalg.inv(c)
    d4, d2 = duality(), duality()
    got = sideways_matrices(c, c_inv, d4, d2, r)
    want = _kron_sideways(c, c_inv, d4, d2, r)
    for g, w in zip(got, want):
        assert g.shape == w.shape == (r * r, r * r)
        assert np.abs(g - w).max() <= 1e-12 * max(1.0, np.abs(w).max())


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

    def candidate(lambdas):
        c = braiding._unit_det(assemble(bb, lambdas))
        return braiding.HolonomyBraiding(
            y1=bb.y1, y2=bb.y2, y4=bb.y4, y3=bb.y3, c=c)

    provider._check_sideways(candidate(lam))
    for factor in (1.7, np.exp(0.3j)):
        bent = lam.copy()
        bent[1] *= factor
        with pytest.raises(UnresolvableYB, match="sideways"):
            provider._check_sideways(candidate(bent))


def test_inverse_braiding_is_computed_once(providers):
    provider = providers[3]
    hb = _generic_braiding(provider, seed=120)
    _, cinv = provider.braiding_inv(hb.y4, hb.y3)
    assert cinv is hb.c_inv()
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
    V = provider.module(provider.steinberg)
    weights = [r + 1 - 2 * (i + 1) for i in range(r)]
    qh = np.exp(1j * np.pi / p.ell)  # principal square root of q
    cartan = np.diag([qh ** (wi * wj) for wi in weights for wj in weights])
    return braiding._unit_det(
        flip_matrix(r, r) @ cartan @ dilog_series(V, V, 1.0, p))


def _block_pair_braiding(y1, y2, provider):
    """A Steinberg pair from its Casimir blocks (reference): the one ray in
    their span that is diagonal once the flip and the series are peeled off."""
    bb = braiding.block_braiding(y1, y2, provider)
    r = provider.p.r
    V1, V2 = provider.module(y1), provider.module(y2)
    S_inv = np.linalg.inv(dilog_series(V1, V2, 1.0, provider.p))
    tau = flip_matrix(r, r)
    off = ~np.eye(r * r, dtype=bool)
    ns = _nullspace(
        np.array([(tau @ b @ S_inv)[off] for b in bb.blocks]).T)
    assert ns.shape[1] == 1
    return braiding._unit_det(assemble(bb, ns[:, 0]))


def _steinberg_partners(provider, n, seed):
    """n random colors y whose pairs (y, st) and (st, y) both resolve."""
    rng = np.random.default_rng(seed)
    st = provider.steinberg
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
    got = braiding.steinberg_pair_braiding(provider.steinberg,
                                           provider.steinberg, provider)
    ok, _, res = equal_mod_roots(got.c, _weight_self_braiding(provider),
                                 provider.p.r, 1e-8)
    assert ok, res


@pytest.mark.parametrize("ell", [3, 4, 5, 7, 10])
def test_steinberg_pair_matches_block_oracle(ell):
    # colors are drawn where the oracle resolves; the solver must too
    provider = BraidingProvider(root_params(ell))
    st = provider.steinberg
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
    # Delta_43(E) with one structural nonzero dropped: that equation on D
    # is gone, so the check that A_u vanishes wherever B_u does rejects it
    provider = BraidingProvider(root_params(ell))
    st = provider.steinberg
    y = _steinberg_partners(provider, 1, seed=170 + ell)[0]
    hb = provider.braiding(y, st)
    V4, V3 = provider.module(hb.y4), provider.module(hb.y3)
    real = braiding.coproduct_matrices

    def broken(V1, V2):
        d = real(V1, V2)
        if V1 is V4 and V2 is V3:
            E = d["E"].copy()
            E[tuple(np.argwhere(E)[0])] = 0.0
            d = {**d, "E": E}
        return d

    monkeypatch.setattr(braiding, "coproduct_matrices", broken)
    with pytest.raises(UnresolvableYB):
        braiding.steinberg_pair_braiding(y, st, provider)


@pytest.mark.parametrize("ell", [3, 4, 5])
def test_steinberg_solver_checks_every_cartan_equation(ell, monkeypatch):
    # Delta_43(E) with one structural nonzero scaled by 1.5 on a link that
    # the recurrence does not walk: the coordinate a r + b of V4 (x) V3 is
    # the grid point (b - s, a) after the flip and the relabeling, and an
    # entry of 1 (x) E with a >= 1 links two rows of grid column a >= 1.
    # Only the residual of every equation, not the links alone, sees it.
    provider = BraidingProvider(root_params(ell))
    r, st = provider.p.r, provider.steinberg
    y = _steinberg_partners(provider, 1, seed=175 + ell)[0]
    hb = provider.braiding(y, st)
    V4, V3 = provider.module(hb.y4), provider.module(hb.y3)
    real = braiding.coproduct_matrices

    def skewed(V1, V2):
        d = real(V1, V2)
        if V1 is V4 and V2 is V3:
            E = d["E"].copy()
            x, z = next((x, z) for x, z in np.argwhere(E) if x // r == z // r >= 1)
            E[x, z] *= 1.5
            d = {**d, "E": E}
        return d

    monkeypatch.setattr(braiding, "coproduct_matrices", skewed)
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
                                  [QColor(x, z), QColor(y, z)]))
    rng = np.random.default_rng(0)
    vals = [tilde_Fprime(gauge_act_diagram(random_gstar(rng), d),
                         BraidingProvider(p)).value.canonical
            for _ in range(10)]
    assert all(abs(v / vals[0] - 1) <= 1e-8 for v in vals)
    if ell == 4:
        # 16 tau^2 with the trefoil's Reidemeister torsion tau = 2
        assert abs(vals[0] - 64) <= 1e-8 * 64


def test_unit_det_survives_an_underflowing_determinant():
    # det(1e-3 I) = 1e-363 underflows to 0; its logarithm does not
    got = braiding._unit_det(1e-3 * np.eye(121))
    assert np.abs(got - np.eye(121)).max() < 1e-12


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
    # rho = 1 of a Steinberg pair and at a generic root
    p = root_params(ell)
    provider = BraidingProvider(p)
    rng = np.random.default_rng(170 + ell)
    st = provider.module(provider.steinberg)
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
        assert np.array_equal(dilog_series(V1, V2, rho, p), want)


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
    r, st = provider.p.r, provider.steinberg
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
    st = provider.steinberg
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


@pytest.mark.parametrize("seed", [1, 7])
def test_braid_relation_holds_on_the_cold_corpus(seed, tmp_path, monkeypatch):
    # the benchmark's own link generator, loaded read-only from its path
    spec = importlib.util.spec_from_file_location("perfbench_corpus", CORPUS)
    corpus = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, corpus)
    spec.loader.exec_module(corpus)
    rng = np.random.default_rng(seed)
    links = []
    for case in corpus.cases(("hopf", "mix2", "s3", "t23", "t25"), 5, rng, 2):
        path = tmp_path / f"{case.name}_{case.gauge}.json"
        path.write_text(json.dumps(case.doc))
        links.append(load_link(str(path))[1])
    provider = BraidingProvider(root_params(5))
    _assert_references_hold(provider, _generic_pairs(provider, links))
