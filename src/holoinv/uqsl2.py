"""Cyclic modules of quantum sl(2) at a root of unity.

Conventions, with xi = exp(2*pi*i/ell) and [x] = xi^x - xi^(-x):

    K E K^(-1) = xi^2 E,  K F K^(-1) = xi^(-2) F,
    [E, F] = (K - K^(-1)) / (xi - xi^(-1)),
    Delta(E) = 1 (x) E + E (x) K,   Delta(F) = K^(-1) (x) F + F (x) 1,
    Delta(K) = K (x) K,   S(E) = -E K^(-1),  S(F) = -K F,  S(K) = K^(-1).

A character chi records the scalars of the central elements K^r, E^r, F^r
and of the Casimir Omega = [1]^2 EF + K xi^(-1) + K^(-1) xi, subject to the
Chebyshev compatibility Cb_r(omega) = [1]^(2r) e_r f_r - (-1)^l (kappa +
1/kappa).  For non-parabolic (admissible) characters there is an r-dimensional
simple module, built here by explicit r x r matrices depending on a chosen
r-th root k of (-1)^(r-1) kappa.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import prod
from typing import Sequence

import numpy as np

from .errors import (
    BranchInconsistent,
    ChebyshevMismatch,
    DegenerateSpectrum,
    NotAdmissible,
)
from .params import TOL, RootParams, cheb_first_kind_roots, cheb_holds
from .sl2factor import YColor


@dataclass(frozen=True)
class ZChar:
    """Central character: scalars of K^r, E^r, F^r and the Casimir."""

    kappa: complex
    e_r: complex
    f_r: complex
    omega: complex

    def approx_eq(self, o: "ZChar", tol: float = TOL) -> bool:
        return (
            abs(self.kappa - o.kappa) <= tol
            and abs(self.e_r - o.e_r) <= tol
            and abs(self.f_r - o.f_r) <= tol
            and abs(self.omega - o.omega) <= tol
        )


def char_from_ycolor(y: YColor, p: RootParams) -> ZChar:
    """Characters from factorization colors: kappa, [1]^(-r) eps,
    (-1)^l [1]^(-r) phi/kappa, z."""
    br = p.qbracket(1) ** p.r
    chi = ZChar(
        kappa=y.g.kappa,
        e_r=y.g.eps / br,
        f_r=p.sign_ell * y.g.phi / (br * y.g.kappa),
        omega=y.z,
    )
    if not cheb_holds(chi.omega, trace_psi(chi, p), p):
        raise ChebyshevMismatch("character fails the Chebyshev compatibility")
    return chi


def steinberg_char(p: RootParams) -> ZChar:
    return ZChar(kappa=complex(-p.sign_r), e_r=0.0, f_r=0.0,
                 omega=2.0 * (-p.sign_ell))


def is_steinberg(chi: ZChar, p: RootParams) -> bool:
    return chi.approx_eq(steinberg_char(p), TOL)


def trace_psi(chi: ZChar, p: RootParams) -> complex:
    """Trace of the underlying holonomy, recovered from the character."""
    br2r = p.qbracket(1) ** (2 * p.r)
    return chi.kappa + 1.0 / chi.kappa - p.sign_ell * br2r * chi.e_r * chi.f_r


def is_admissible(chi: ZChar, p: RootParams) -> bool:
    """Non-parabolic trace condition guaranteeing a simple cyclic module."""
    if is_steinberg(chi, p):
        return True
    t = trace_psi(chi, p)
    return abs(t - 2.0) > TOL and abs(t + 2.0) > TOL


@dataclass(frozen=True)
class CyclicModule:
    """An r-dimensional module with explicit generator matrices."""

    chi: ZChar
    E: np.ndarray
    F: np.ndarray
    K: np.ndarray
    p: RootParams

    @property
    def r(self) -> int:
        return self.p.r


@cache
def _module_constants(p: RootParams) -> tuple:
    """Read-only constants of the modules at p: the K weights xi^(r + 1 - 2i)
    for i = 1..r, the r-th roots of unity, the triples (xi^-i, xi^i, [i])
    for i = 1..r-1, and [1]."""
    xi, r, zeta = p.xi, p.r, np.exp(2j * np.pi / p.r)
    return (tuple(xi ** (r + 1 - 2 * i) for i in range(1, r + 1)),
            tuple(zeta ** j for j in range(r)),
            tuple((xi ** (-i), xi ** i, p.qbracket(i)) for i in range(1, r)),
            p.qbracket(1))


def build_cyclic_module(chi: ZChar, p: RootParams) -> CyclicModule:
    """Construct the cyclic module of an admissible character.

    The root k is the principal r-th root of (-1)^(r-1) kappa; when f_r = 0
    the branch must additionally satisfy omega = (-1)^(l-1)(k + 1/k), which
    selects k among the r roots (BranchInconsistent if none qualifies).
    Parabolic characters other than the distinguished central one are
    rejected (including both boundary traces at ell = 4: simplicity of the
    module is only guaranteed away from the parabolic locus).
    """
    if not is_admissible(chi, p):
        raise NotAdmissible("parabolic holonomy trace")
    r, (weights, unity, pw, br1) = p.r, _module_constants(p)
    k0 = (-p.sign_r * chi.kappa) ** (1.0 / r)  # the principal root
    if abs(chi.f_r) > TOL:
        k = k0 * unity[0]
    else:
        k = next((k for k in (k0 * z for z in unity) if abs(chi.omega - (-p.sign_ell)
                  * (k + 1.0 / k)) <= TOL * 1e2 * max(1.0, abs(chi.omega))), None)
        if k is None:
            raise BranchInconsistent("f_r = 0 but no root k matches the Casimir value")
    K, E, F = np.zeros((3, r, r), dtype=complex)  # flat steps of r + 1 walk a diagonal
    K.reshape(-1)[::r + 1] = [k * w for w in weights]
    F.reshape(-1)[r::r + 1] = 1.0  # F[i, i - 1]
    F[0, r - 1] = chi.f_r
    kf = [k * a - b / k for a, b, _ in pw]  # k xi^-i - xi^i / k
    if abs(chi.f_r) > TOL:
        eps_p = (chi.omega + p.sign_ell * (k + 1.0 / k)) / (br1 ** 2 * chi.f_r)
    else:
        den = prod(qb * x for (_, _, qb), x in zip(pw, kf))
        if not abs(den) > TOL:
            raise BranchInconsistent("degenerate branch denominator")
        eps_p = -p.sign_r * br1 ** (2 * (r - 1)) * chi.e_r / den
    E.reshape(-1)[1::r + 1] = [chi.f_r * eps_p - p.sign_ell * x * qb / br1 ** 2
                               for (_, _, qb), x in zip(pw, kf)]  # E[i - 1, i]
    E[r - 1, 0] = eps_p
    return CyclicModule(chi=chi, E=E, F=F, K=K, p=p)


@dataclass(frozen=True)
class DualityData:
    """Cup and cap tensors of a module and its dual.

    ev_L : V* (x) V -> C is the canonical pairing; coev_L : C -> V (x) V* the
    canonical copairing; ev_R : V (x) V* -> C inserts K^(1-r); coev_R :
    C -> V* (x) V inserts K^(r-1).
    """

    ev_L: np.ndarray
    coev_L: np.ndarray
    ev_R: np.ndarray
    coev_R: np.ndarray


def duality_tensors(V: CyclicModule) -> DualityData:
    r = V.r
    kdiag = np.diag(V.K)
    eye = np.eye(r, dtype=complex)
    return DualityData(ev_L=eye.reshape(1, r * r), coev_L=eye.reshape(r * r, 1),
                       ev_R=np.diag(kdiag ** (1 - r)).reshape(1, r * r),
                       coev_R=np.diag(kdiag ** (r - 1)).reshape(r * r, 1))


# --- coproduct action -----------------------------------------------------------

def weight_classes(r: int) -> np.ndarray:
    """Row s: the coordinates i r + j of e_i (x) f_j with i + j = s mod r, by i.
    K (x) K is the scalar k1 k2 xi^(2(r - 1 - s)) on this weight class; Delta(E)
    maps it to class s - 1 and Delta(F) to class s + 1, mod r."""
    i = np.arange(r)
    return i * r + (i[:, None] - i) % r


def coproduct_blocks(V1: Sequence[CyclicModule], V2: Sequence[CyclicModule]) -> np.ndarray:
    """Delta(E), Delta(F), Delta(K) on V1[m] (x) V2[m] for each m, by weight
    classes: [m, u, s] is the r x r block of the u-th from class s to class
    s - 1, s + 1 and s, rows and columns ordered as in `weight_classes`,
    from the shifted diagonals E[i - 1, i], F[i + 1, i] and K[i, i]."""
    r, i = V1[0].r, np.arange(V1[0].r)
    j, s, up, down = (i[:, None] - i) % r, i[:, None], i - 1, (i + 1) % r
    (e1, f1, k1), (e2, f2, k2) = ((g[:, 0, up, i], g[:, 1, down, i], g[:, 2, i, i]) for g in
                                  (np.array([(V.E, V.F, V.K) for V in W]) for W in (V1, V2)))
    k1, k2 = k1[:, None], k2[:, j]  # row i of class s is (i, j[s, i])
    d = np.zeros((len(V1), 3, r, r, r), dtype=complex)
    # 1 (x) E, K^-1 (x) F, K (x) K
    d.swapaxes(0, 1)[:, :, s, i, i] = e2[:, j], 1.0 / k1 * f2[:, j], k1 * k2
    d[:, 0, s, up, i] = e1[:, None] * k2  # E (x) K
    d[:, 1, s, down, i] = f1[:, None]  # F (x) 1
    return d


# --- Casimir blocks -------------------------------------------------------------
#
# The pipeline runs neither `casimir_block_structure` nor the helpers below.
# perfbench/spans.py looks it up by name, and the tests use it as the
# reference that every braiding is compared against.

def tensor_central_scalars(chi1: ZChar, chi2: ZChar) -> dict[str, complex]:
    """Scalars of K^r, E^r, F^r on a tensor product of cyclic modules."""
    return {
        "K": chi1.kappa * chi2.kappa,
        "E": chi2.e_r + chi1.e_r * chi2.kappa,
        "F": chi2.f_r / chi1.kappa + chi1.f_r,
    }


def predicted_casimir_values(
    chi1: ZChar, chi2: ZChar, p: RootParams
) -> list[complex]:
    """The r solutions omega of Cb_r(omega) = (chi1 chi2)(Cb_r(Omega))."""
    s = tensor_central_scalars(chi1, chi2)
    c = (
        p.qbracket(1) ** (2 * p.r) * s["E"] * s["F"]
        - p.sign_ell * (s["K"] + 1.0 / s["K"])
    )
    return cheb_first_kind_roots(c, p.r)


@dataclass(frozen=True)
class CasimirBlocks:
    """Weight-graded eigen decomposition of the coproduct Casimir on V1 (x) V2.

    Each eigenvalue `values[m]` has one eigenvector u per weight class s:
    `vecs[s, :, m]` on the coordinates `classes[s]`, where Delta(K) is
    `weights[s]`, with `covecs[s, m, :]` the matching row of that class's
    inverse eigenvector matrix.  Delta(E) u = `e[s, m]` u' and Delta(F) u =
    `f[s, m]` u'', u' and u'' being the block's vectors in classes s - 1 and
    s + 1.
    """

    values: tuple[complex, ...]
    classes: np.ndarray
    weights: np.ndarray
    vecs: np.ndarray
    covecs: np.ndarray
    e: np.ndarray
    f: np.ndarray


def casimir_block_structure(V1: CyclicModule, V2: CyclicModule) -> CasimirBlocks:
    """Spectral blocks of Delta(Omega), one r x r eigenproblem per weight class.

    Delta(Omega) commutes with Delta(K) = K (x) K, which is diagonal with r
    weight classes of dimension r (`weight_classes`), so each class block
    carries every Casimir value once.  Each class spectrum is matched
    against `predicted_casimir_values` within the relative gap 1e-6.
    Raises DegenerateSpectrum when a value repeats inside a class or the
    class spectra disagree (with the prediction, hence with each other).
    """
    p, r = V1.p, V1.p.r
    d = coproduct_blocks([V1], [V2])[0]
    k = np.diagonal(d[2], axis1=1, axis2=2)  # Delta(K), then Omega, on each class
    w, vecs = np.linalg.eig(p.qbracket(1) ** 2 * np.roll(d[0], -1, axis=0) @ d[1]
                            + d[2] / p.xi + np.eye(r) / k[:, :, None] * p.xi)
    pred = np.asarray(predicted_casimir_values(V1.chi, V2.chi, p))
    gap = 1e-6 * max(1.0, float(np.abs(w).max()))
    i, j = np.triu_indices(r, 1)
    if np.abs(w[:, i] - w[:, j]).min() <= gap:
        raise DegenerateSpectrum("a Casimir value repeats inside a weight class")
    dist = np.abs(w[:, :, None] - pred)
    label = dist.argmin(axis=2)
    if (dist.min(axis=2).max() > gap
            or np.any(np.sort(label, axis=1) != np.arange(r))):
        raise DegenerateSpectrum("the weight-class Casimir spectra disagree")
    cls = np.arange(r)[:, None]
    order = np.empty_like(label)  # order[s, m]: column of value m in class s
    order[cls, label] = np.arange(r)
    u = vecs[cls, :, order].transpose(0, 2, 1)
    v = np.linalg.inv(vecs)[cls, order]
    # Delta(E) maps class s to s - 1 and Delta(F) to s + 1
    e, f = (np.einsum("smi,sij,sjm->sm", np.roll(v, n, axis=0), d[g], u)
            for g, n in ((0, 1), (1, -1)))
    return CasimirBlocks(
        values=tuple(complex(x) for x in w[cls, order].mean(axis=0)),
        classes=weight_classes(r), weights=k[:, 0], vecs=u, covecs=v, e=e, f=f)
