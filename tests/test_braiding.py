"""Holonomy braidings: coproduct intertwining, Yang-Baxter, twists, closure."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from holoinv import braiding
from holoinv.braiding import (
    BraidingProvider,
    ModScalar,
    equal_mod_roots,
    flip_matrix,
    pair_defined,
    resolve_scalars_yb,
    sideways_matrices,
    steinberg_encirclement,
    twist,
    unipotent_series,
)
from holoinv.errors import (
    BlockIntertwinerDim,
    ChebyshevMismatch,
    HoloinvError,
    Undefined,
    UnresolvableYB,
)
from holoinv.invariant import tilde_Fprime
from holoinv.params import root_params
from holoinv.quandle import z_candidates
from holoinv.sl2factor import GStarElem, YColor, random_ycolor
from holoinv.uqsl2 import (
    build_cyclic_module,
    DualityData,
    coproduct_matrices,
    steinberg_char,
)

from conftest import commuting_link, riley_trefoil


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
    assert a.approx_eq(b, 1e-9)
    assert not a.approx_eq(ModScalar(2.1, 2), 1e-6)


def test_braiding_intertwines_coproducts(providers):
    # the defining property: c rho12(Delta u) = rho43(Delta u) c
    for ell in (3, 4):
        provider = providers[ell]
        for y1, y2 in _random_pairs(provider, 3, seed=ell):
            hb = provider.braiding(y1, y2)
            c12 = coproduct_matrices(hb.V1, hb.V2)
            c43 = coproduct_matrices(hb.V4, hb.V3)
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
        c12 = coproduct_matrices(hb.V1, hb.V2)
        for g in ("E", "F", "K"):
            assert np.abs(hb.c @ c12[g] - c12[g] @ hb.c).max() < 1e-8
        y = _steinberg_partners(provider, 1, seed=140 + ell)[0]
        for pair in ((y, st), (st, y)):
            hb = provider.braiding(*pair)
            c12 = coproduct_matrices(hb.V1, hb.V2)
            c43 = coproduct_matrices(hb.V4, hb.V3)
            for g in ("E", "F", "K"):
                res = np.abs(hb.c @ c12[g] - c43[g] @ hb.c).max()
                assert res < 1e-8, (ell, pair[0] is st, g, res)


def test_unipotent_series_truncation_is_exact():
    # E nilpotent on the Steinberg module kills all terms from degree r on
    p = root_params(4)
    V0 = build_cyclic_module(steinberg_char(p), p)
    S = unipotent_series(V0, V0, p)
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
            assert s.approx_eq(want, 1e-6)


def test_flip_matrix_swaps_factors():
    f = flip_matrix(2, 3)
    a = np.arange(2 * 3)
    x = np.random.default_rng(0).normal(size=2)
    y = np.random.default_rng(1).normal(size=3)
    assert np.allclose(f @ np.kron(x, y), np.kron(y, x))


def test_failed_resolution_rolls_back_the_cache(monkeypatch):
    # the final braid-relation check of every anchored solve is made to fail
    p = root_params(3)
    fresh = BraidingProvider(p)
    rng = np.random.default_rng(80)
    while True:
        y1, y2 = random_ycolor(rng, p), random_ycolor(rng, p)
        try:
            want = fresh.braiding(y1, y2)
        except HoloinvError:
            continue
        if not (fresh.is_steinberg(y1) or fresh.is_steinberg(y2)):
            break

    total = braiding._total_from_cache

    def skewed(provider, pairs, word):
        out = total(provider, pairs, word)
        if word == braiding._WORD_L:
            out = out.copy()
            out[0, 0] += 1.0
        return out

    provider = BraidingProvider(p)
    monkeypatch.setattr(braiding, "_total_from_cache", skewed)
    with pytest.raises(UnresolvableYB):
        provider.braiding(y1, y2)
    st = provider.pair_key(provider.steinberg, provider.steinberg)[0]
    assert all(st in key for key in provider._braidings)
    monkeypatch.undo()
    got = provider.braiding(y1, y2)
    ok, _, res = equal_mod_roots(got.c, want.c, p.r, 1e-7)
    assert ok, res


def test_redetermined_pair_must_agree_with_the_cache():
    # an anchored solve determines its generic pairs afresh; where a pair is
    # already cached the two rays must agree up to an r^2-th root of unity
    provider = BraidingProvider(root_params(4))
    hb = _generic_braiding(provider, 83)
    key = provider.pair_key(hb.y1, hb.y2)
    trip = (provider._preflip(hb.y1), provider.steinberg, hb.y2)
    cached = dict(provider._braidings)
    braiding._anchored_triple_solve(trip, provider)
    assert all(provider._braidings[k] is v for k, v in cached.items())
    provider._braidings[key] = dataclasses.replace(hb, c=hb.c * np.exp(0.3j))
    cached = dict(provider._braidings)
    with pytest.raises(UnresolvableYB, match="disagree"):
        braiding._anchored_triple_solve(trip, provider)
    assert provider._braidings.keys() == cached.keys()


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
        got = braiding._on_strands(c, pos, m, r)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _generic_braiding(provider, seed):
    rng = np.random.default_rng(seed)
    p = provider.p
    while True:
        y1, y2 = random_ycolor(rng, p), random_ycolor(rng, p)
        if provider.is_steinberg(y1) or provider.is_steinberg(y2):
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
        c = braiding._unit_det(bb.assemble(lambdas), provider.tol)
        return braiding.HolonomyBraiding(
            y1=bb.y1, y2=bb.y2, y4=bb.y4, y3=bb.y3,
            V1=bb.V1, V2=bb.V2, V4=bb.V4, V3=bb.V3, c=c)

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
    ns = braiding._nullspace(a)
    assert ns.shape == (n, 0) and _plain_nullspace(a).shape == (n, 0)
    # plant the null direction v by projecting it out of every row
    v = _crandn(rng, n)
    v /= np.linalg.norm(v)
    a = a - np.outer(a @ v, v.conj())
    got, want = braiding._nullspace(a), _plain_nullspace(a)
    assert got.shape == want.shape == (n, 1)
    assert abs(abs(np.vdot(got[:, 0], want[:, 0])) - 1.0) < 1e-10
    assert abs(abs(np.vdot(got[:, 0], v)) - 1.0) < 1e-10


# --- Steinberg-anchored braidings ---------------------------------------------

def _weight_self_braiding(provider):
    """The Steinberg self braiding from its integer K-weights (reference)."""
    p = provider.p
    r = p.r
    V = provider.module(provider.steinberg)
    weights = [r + 1 - 2 * (i + 1) for i in range(r)]
    qh = np.exp(1j * np.pi / p.ell)  # principal square root of q
    cartan = np.diag([qh ** (wi * wj) for wi in weights for wj in weights])
    return braiding._unit_det(
        flip_matrix(r, r) @ cartan @ unipotent_series(V, V, p), provider.tol)


def _block_pair_braiding(y1, y2, provider):
    """A Steinberg pair from its Casimir blocks (reference): the one ray in
    their span that is diagonal once the flip and the series are peeled off."""
    bb = braiding.block_braiding(y1, y2, provider)
    r = provider.p.r
    S_inv = np.linalg.inv(unipotent_series(bb.V1, bb.V2, provider.p))
    tau = flip_matrix(r, r)
    off = ~np.eye(r * r, dtype=bool)
    ns = braiding._nullspace(
        np.array([(tau @ b @ S_inv)[off] for b in bb.blocks]).T)
    assert ns.shape[1] == 1
    return braiding._unit_det(bb.assemble(ns[:, 0]), provider.tol)


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


def test_steinberg_solver_rejects_a_generic_pair(providers):
    provider = providers[4]
    for y1, y2 in _random_pairs(provider, 2, seed=160):
        with pytest.raises(UnresolvableYB):
            braiding.steinberg_pair_braiding(y1, y2, provider)


@pytest.mark.parametrize("ell", [3, 4, 5])
def test_steinberg_solver_rejects_a_broken_coproduct(ell, monkeypatch):
    # Delta_43(E) with one structural nonzero dropped: that equation on D
    # is gone, so the check that A_u vanishes wherever B_u does rejects it
    provider = BraidingProvider(root_params(ell))
    st = provider.steinberg
    y = _steinberg_partners(provider, 1, seed=170 + ell)[0]
    hb = provider.braiding(y, st)
    V4, V3 = hb.V4, hb.V3
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
    # the grid point (b, a) after the flip, and an entry of 1 (x) E with
    # a >= 1 links two rows of grid column a >= 1.  Only the residual of
    # every equation, not the links alone, sees it.
    provider = BraidingProvider(root_params(ell))
    r, st = provider.p.r, provider.steinberg
    y = _steinberg_partners(provider, 1, seed=175 + ell)[0]
    hb = provider.braiding(y, st)
    V4, V3 = hb.V4, hb.V3
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


def test_unit_det_survives_an_underflowing_determinant():
    # det(1e-3 I) = 1e-363 underflows to 0; its logarithm does not
    got = braiding._unit_det(1e-3 * np.eye(121), 1e-9)
    assert np.abs(got - np.eye(121)).max() < 1e-12


@pytest.mark.parametrize("ell", [3, 4, 5])
def test_twist_raises_undefined_off_the_alpha_domain(ell):
    # with kappa^2 = eps phi the matrix that alpha factorizes has a vanishing
    # upper-left entry, so alpha has no value; that is an Undefined
    p = root_params(ell)
    g = GStarElem(1, 1, 1)
    y = YColor(g, z_candidates(g.trace(), p)[0])
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
    # the series as it was written with np.kron (reference)
    p = root_params(ell)
    provider = BraidingProvider(p)
    rng = np.random.default_rng(170 + ell)
    for V1, V2 in ((provider.module(provider.steinberg), _random_module(provider, rng)),
                   (_random_module(provider, rng), _random_module(provider, rng))):
        r, q = p.r, p.xi
        want = np.zeros((r * r, r * r), dtype=complex)
        En = Fn = np.eye(r, dtype=complex)
        coef = 1.0 + 0j
        for n in range(r):
            if n:
                En, Fn = En @ V1.E, Fn @ V2.F
                coef *= (q - 1 / q) * q ** (n - 1) * p.qbracket(1) / p.qbracket(n)
            want += coef * np.kron(En, Fn)
        assert np.array_equal(unipotent_series(V1, V2, p), want)


@pytest.mark.parametrize("ell", [3, 4, 5, 7])
def test_block_pieces_are_rank_r_intertwiners(ell):
    # each recurrence-built piece intertwines Delta(E), Delta(F), Delta(K),
    # and the r pieces of a pair sum to an invertible matrix
    provider = BraidingProvider(root_params(ell))
    r = provider.p.r
    for y1, y2 in _random_pairs(provider, 2, seed=180 + ell):
        bb = braiding.block_braiding(y1, y2, provider)
        d12 = coproduct_matrices(bb.V1, bb.V2)
        d43 = coproduct_matrices(bb.V4, bb.V3)
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

    # the provider keeps each pair's blocks, so a fresh one reaches the patch
    monkeypatch.setattr(braiding, "casimir_block_structure", silent)
    with pytest.raises(BlockIntertwinerDim, match="vanish"):
        braiding.block_braiding(y1, y2, BraidingProvider(root_params(3)))


@pytest.mark.parametrize("link, n_pairs", [("hopf", 2), ("trefoil", 3)])
def test_casimir_blocks_and_block_braidings_are_built_once(link, n_pairs,
                                                           monkeypatch):
    # a provider keeps each pair's Casimir blocks, and both sides of an
    # anchored relation share their unknown pair, so one block braiding
    # serves the whole triple
    calls: dict = {}
    for name in ("casimir_block_structure", "block_braiding",
                 "_anchored_triple_solve"):
        def counting(*args, _real=getattr(braiding, name),
                     _seen=calls.setdefault(name, [])):
            _seen.append(args[:2])
            return _real(*args)

        monkeypatch.setattr(braiding, name, counting)
    d = commuting_link(5, [1, 1]) if link == "hopf" else riley_trefoil(5)
    tilde_Fprime(d, BraidingProvider(root_params(5)))
    modules = [(id(V1), id(V2)) for V1, V2 in calls["casimir_block_structure"]]
    assert len(modules) == len(set(modules)) == n_pairs
    assert len(calls["block_braiding"]) == n_pairs
    assert len(calls["_anchored_triple_solve"]) == n_pairs


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
        assert not provider.is_steinberg(hb.y1)
    assert calls == []
    # a color failing the Chebyshev check is not remembered
    bad = dataclasses.replace(hb.y1, z=hb.y1.z + 0.5)
    for _ in range(2):
        with pytest.raises(ChebyshevMismatch):
            provider.pair_key(bad, hb.y2)
    assert calls == [bad, bad]
