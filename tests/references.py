"""Closed forms and cross-checks, for the tests (not collected).

None of these runs in the pipeline.  They are the second computations that
the tests hold the program against: the twist and the Steinberg
encirclement of the braidings, the dual representation and the coproduct
Casimir of the modules, the Casimir-block views of `uqsl2.CasimirBlocks`,
the product and ratio forms of the modified dimension, and the exact
Chebyshev coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from holoinv.braiding import BlockBraiding, BraidingProvider, ModScalar, proportionality
from holoinv.errors import NonScalarResult, Singular, Undefined
from holoinv.params import GATE, TOL, RootParams
from holoinv.sl2factor import YColor, alpha_inv
from holoinv.uqsl2 import (
    CasimirBlocks,
    CyclicModule,
    casimir_matrix,
    coproduct_matrices,
)

from oracles import alpha


class AlphaUndefined(Undefined):
    """The diagonal partner of a color is not a braiding fixed point."""


def same_mod_roots(a: ModScalar, b: ModScalar, tol: float = TOL) -> bool:
    """a and b agree modulo r^2-th roots of unity: their canonical values
    agree to tol, relative to the larger one."""
    x, y = a.canonical, b.canonical
    return abs(x - y) <= tol * max(1.0, abs(x), abs(y))


# --- braidings -------------------------------------------------------------------

def twist(y: YColor, provider: BraidingProvider) -> ModScalar:
    """The twist scalar of a color, from braiding with its diagonal partner.

    Computed by closing the braiding c_{x, alpha(x)} to the right; the left
    closure through alpha^{-1}(x) must give the same scalar up to an r^2-th
    root of unity.  Where alpha or its inverse has no value, their
    OutsideGPrime (an Undefined) propagates.
    """
    r = provider.p.r
    I = np.eye(r, dtype=complex)
    ax, az = alpha(y), alpha_inv(y)
    hb = provider.braiding(y, ax)
    if not (hb.y4.approx_eq(y, 1e-6) and hb.y3.approx_eq(ax, 1e-6)):
        raise AlphaUndefined("diagonal partner is not a braiding fixed point")
    dax = provider.duality(ax)
    right = np.kron(I, dax.ev_R) @ np.kron(hb.c, I) @ np.kron(I, dax.coev_L)
    s, res = proportionality(right, I)
    if res > GATE:
        raise NonScalarResult(f"twist endomorphism residual {res:.3e}")
    if abs(s) <= 1e-6:
        raise NonScalarResult("twist scalar vanishes")
    # left version through the inverse diagonal
    hb2 = provider.braiding(az, y)
    daz = provider.duality(az)
    left = np.kron(daz.ev_L, I) @ np.kron(I, hb2.c) @ np.kron(daz.coev_R, I)
    s2, res2 = proportionality(left, I)
    if res2 > GATE:
        raise NonScalarResult(f"left twist endomorphism residual {res2:.3e}")
    if not same_mod_roots(ModScalar(s, r), ModScalar(s2, r), GATE):
        raise NonScalarResult("left and right twists disagree beyond roots")
    return ModScalar(complex(s), r)


def steinberg_encirclement(y: YColor, provider: BraidingProvider) -> ModScalar:
    """Close a generic strand around its double braiding with Steinberg.

    The composite c_{st, y^-} . c_{y, st} is an endomorphism of
    V_y (x) V_st; closing the generic strand (left evaluation against right
    coevaluation on V_y) must give r times the identity on the Steinberg
    module, up to an r^2-th root of unity.  Returns the scalar.
    """
    r = provider.p.r
    c1 = provider.braiding(y, provider.steinberg)
    c2 = provider.braiding(c1.y4, c1.y3)
    double = c2.c @ c1.c
    d = provider.duality(y)
    I = np.eye(r, dtype=complex)
    closed = np.kron(d.ev_L, I) @ np.kron(I, double) @ np.kron(d.coev_R, I)
    s, res = proportionality(closed, I)
    if res > GATE:
        raise NonScalarResult(f"encirclement residual {res:.3e}")
    return ModScalar(complex(s), r)


def assemble(bb: BlockBraiding, lambdas) -> np.ndarray:
    """The intertwiner with scalar lambdas[m] on Casimir block m."""
    return sum(l * b for l, b in zip(lambdas, bb.blocks))


# --- modules -----------------------------------------------------------------------

def omega_matrix(V: CyclicModule) -> np.ndarray:
    """The Casimir on a module."""
    return casimir_matrix(V.E, V.F, V.K, V.K_inv(), V.p)


@dataclass(frozen=True)
class DualRep:
    """Generator matrices on the dual module: rho*(u) = rho(S(u))^T."""

    E: np.ndarray
    F: np.ndarray
    K: np.ndarray


def dual_rep(V: CyclicModule) -> DualRep:
    Kinv = V.K_inv()
    return DualRep(
        E=(-V.E @ Kinv).T,
        F=(-V.K @ V.F).T,
        K=Kinv.T,
    )


def coproduct_casimir(V1: CyclicModule, V2: CyclicModule) -> np.ndarray:
    d = coproduct_matrices(V1, V2)
    return casimir_matrix(d["E"], d["F"], d["K"], np.diag(1 / np.diag(d["K"])), V1.p)


def block_bases(b: CasimirBlocks) -> tuple[np.ndarray, ...]:
    """Block m's vectors as an (r^2, r) matrix, one column per weight class."""
    r = len(b.values)
    out = np.zeros((r, r * r, r), dtype=complex)
    out[:, b.classes, np.arange(r)[:, None]] = b.vecs.transpose(2, 0, 1)
    return tuple(out)


def block_cobases(b: CasimirBlocks) -> tuple[np.ndarray, ...]:
    """Block m's covectors as an (r, r^2) matrix: block_bases(b)[m] @
    block_cobases(b)[m] is the spectral projector of Casimir value m."""
    r = len(b.values)
    out = np.zeros((r, r, r * r), dtype=complex)
    out[:, np.arange(r)[:, None], b.classes] = b.covecs.transpose(1, 0, 2)
    return tuple(out)


# --- the modified dimension and Chebyshev polynomials ----------------------------

def modified_dim_product(alpha: complex, p: RootParams) -> complex:
    """Cross-check form: (-1)^(r-1) prod_{j=1}^{r-1} [j] / [alpha + r - j]."""
    out = complex(-p.sign_r)
    for j in range(1, p.r):
        den = p.qbracket(alpha + p.r - j)
        if abs(den) <= TOL:
            raise Singular(f"bracket [alpha + {p.r - j}] vanishes")
        out *= p.qbracket(j) / den
    return out


def modified_dim_ratio(alpha: complex, p: RootParams) -> complex:
    """Cross-check form: (-1)^(r-1) r [alpha] / [r alpha], for [r alpha] != 0."""
    den = p.qbracket(p.r * alpha)
    if abs(den) <= TOL:
        raise Singular("bracket [r alpha] vanishes")
    return -p.sign_r * p.r * p.qbracket(alpha) / den


def cheb_first_kind_coeffs(n: int) -> list[int]:
    """Exact integer coefficients (ascending powers) of the degree-n polynomial."""
    prev, cur = [2], [0, 1]
    if n == 0:
        return prev
    for _ in range(n - 1):
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return cur
