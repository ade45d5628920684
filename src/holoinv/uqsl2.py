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
from math import prod
from typing import Optional

import numpy as np

from .errors import (
    BranchInconsistent,
    ChebyshevMismatch,
    DegenerateSpectrum,
    NotAdmissible,
)
from .params import RootParams, cheb_first_kind, cheb_first_kind_roots
from .sl2factor import YColor


@dataclass(frozen=True)
class ZChar:
    """Central character: scalars of K^r, E^r, F^r and the Casimir."""

    kappa: complex
    e_r: complex
    f_r: complex
    omega: complex

    def approx_eq(self, o: "ZChar", tol: float = 1e-9) -> bool:
        return (
            abs(self.kappa - o.kappa) <= tol
            and abs(self.e_r - o.e_r) <= tol
            and abs(self.f_r - o.f_r) <= tol
            and abs(self.omega - o.omega) <= tol
        )


def char_from_ycolor(y: YColor, p: RootParams, tol: Optional[float] = None) -> ZChar:
    """Characters from factorization colors: kappa, [1]^(-r) eps,
    (-1)^l [1]^(-r) phi/kappa, z."""
    tol = p.tol if tol is None else tol
    br = p.qbracket(1) ** p.r
    chi = ZChar(
        kappa=y.g.kappa,
        e_r=y.g.eps / br,
        f_r=p.sign_ell * y.g.phi / (br * y.g.kappa),
        omega=y.z,
    )
    if abs(cheb_defect(chi, p)) > tol * 1e2:
        raise ChebyshevMismatch("character fails the Chebyshev compatibility")
    return chi


def steinberg_char(p: RootParams) -> ZChar:
    return ZChar(kappa=complex(-p.sign_r), e_r=0.0, f_r=0.0,
                 omega=2.0 * (-p.sign_ell))


def is_steinberg(chi: ZChar, p: RootParams, tol: float = 1e-9) -> bool:
    return chi.approx_eq(steinberg_char(p), tol)


def trace_psi(chi: ZChar, p: RootParams) -> complex:
    """Trace of the underlying holonomy, recovered from the character."""
    br2r = p.qbracket(1) ** (2 * p.r)
    return chi.kappa + 1.0 / chi.kappa - p.sign_ell * br2r * chi.e_r * chi.f_r


def cheb_defect(chi: ZChar, p: RootParams) -> complex:
    br2r = p.qbracket(1) ** (2 * p.r)
    rhs = br2r * chi.e_r * chi.f_r - p.sign_ell * (chi.kappa + 1.0 / chi.kappa)
    return cheb_first_kind(p.r, chi.omega) - rhs


def is_admissible(chi: ZChar, p: RootParams, tol: Optional[float] = None) -> bool:
    """Non-parabolic trace condition guaranteeing a simple cyclic module."""
    tol = p.tol if tol is None else tol
    if is_steinberg(chi, p, max(tol, 1e-9)):
        return True
    t = trace_psi(chi, p)
    return abs(t - 2.0) > tol and abs(t + 2.0) > tol


@dataclass(frozen=True)
class CyclicModule:
    """An r-dimensional module with explicit generator matrices."""

    chi: ZChar
    k: complex
    E: np.ndarray
    F: np.ndarray
    K: np.ndarray
    p: RootParams

    @property
    def r(self) -> int:
        return self.p.r

    def K_inv(self) -> np.ndarray:
        return np.diag(1.0 / np.diag(self.K))

    def omega_matrix(self) -> np.ndarray:
        return casimir_matrix(self.E, self.F, self.K, self.K_inv(), self.p)


def casimir_matrix(E: np.ndarray, F: np.ndarray, K: np.ndarray,
                   K_inv: np.ndarray, p: RootParams) -> np.ndarray:
    """The Casimir [1]^2 E F + K xi^(-1) + K^(-1) xi on generator matrices."""
    return p.qbracket(1) ** 2 * E @ F + K / p.xi + K_inv * p.xi


def branch_roots(kappa: complex, p: RootParams) -> list[complex]:
    """The r roots k of k^r = (-1)^(r-1) kappa, principal first."""
    target = -p.sign_r * kappa
    k0 = target ** (1.0 / p.r)
    zeta = np.exp(2j * np.pi / p.r)
    return [k0 * zeta ** j for j in range(p.r)]


def build_cyclic_module(
    chi: ZChar, p: RootParams, tol: Optional[float] = None
) -> CyclicModule:
    """Construct the cyclic module of an admissible character.

    The root k is the principal r-th root of (-1)^(r-1) kappa; when f_r = 0
    the branch must additionally satisfy omega = (-1)^(l-1)(k + 1/k), which
    selects k among the r roots (BranchInconsistent if none qualifies).
    Parabolic characters other than the distinguished central one are
    rejected (including both boundary traces at ell = 4: simplicity of the
    module is only guaranteed away from the parabolic locus).
    """
    tol = p.tol if tol is None else tol
    if not is_admissible(chi, p, tol):
        raise NotAdmissible("parabolic holonomy trace")
    r, xi = p.r, p.xi
    roots = branch_roots(chi.kappa, p)
    if abs(chi.f_r) > tol:
        k = roots[0]
    else:
        k = None
        for cand in roots:
            if abs(chi.omega - (-p.sign_ell) * (cand + 1.0 / cand)) <= tol * 1e2 * max(
                1.0, abs(chi.omega)
            ):
                k = cand
                break
        if k is None:
            raise BranchInconsistent(
                "f_r = 0 but no root k matches the Casimir value"
            )
    K = np.diag([k * xi ** (r + 1 - 2 * i) for i in range(1, r + 1)]).astype(complex)
    F = np.zeros((r, r), dtype=complex)
    for i in range(1, r):
        F[i, i - 1] = 1.0
    F[0, r - 1] = chi.f_r
    br1 = p.qbracket(1)
    if abs(chi.f_r) > tol:
        eps_p = (chi.omega + p.sign_ell * (k + 1.0 / k)) / (br1 ** 2 * chi.f_r)
    else:
        den = prod(
            p.qbracket(i) * (k * xi ** (-i) - xi ** i / k) for i in range(1, r)
        )
        if abs(den) <= tol:
            raise BranchInconsistent("degenerate branch denominator")
        eps_p = -p.sign_r * br1 ** (2 * r) * chi.e_r / den
    E = np.zeros((r, r), dtype=complex)
    for i in range(1, r):
        E[i - 1, i] = (
            chi.f_r * eps_p
            - p.sign_ell * (k * xi ** (-i) - xi ** i / k) * p.qbracket(i) / br1 ** 2
        )
    E[r - 1, 0] = eps_p
    return CyclicModule(chi=chi, k=k, E=E, F=F, K=K, p=p)


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
    Kp = np.diag(kdiag ** (1 - r))
    Km = np.diag(kdiag ** (r - 1))
    ev_L = np.zeros((1, r * r), dtype=complex)
    coev_L = np.zeros((r * r, 1), dtype=complex)
    ev_R = np.zeros((1, r * r), dtype=complex)
    coev_R = np.zeros((r * r, 1), dtype=complex)
    for i in range(r):
        for j in range(r):
            ev_L[0, i * r + j] = 1.0 if i == j else 0.0
            ev_R[0, j * r + i] = Kp[i, j]
            coev_R[j * r + i, 0] = Km[i, j]
        coev_L[i * r + i, 0] = 1.0
    return DualityData(ev_L=ev_L, coev_L=coev_L, ev_R=ev_R, coev_R=coev_R)


# --- coproduct action and Casimir blocks -------------------------------------

def coproduct_matrices(V1: CyclicModule, V2: CyclicModule) -> dict[str, np.ndarray]:
    I1 = np.eye(V1.r, dtype=complex)
    I2 = np.eye(V2.r, dtype=complex)
    return {
        "E": np.kron(I1, V2.E) + np.kron(V1.E, V2.K),
        "F": np.kron(V1.K_inv(), V2.F) + np.kron(V1.F, I2),
        "K": np.kron(V1.K, V2.K),
    }


def coproduct_casimir(V1: CyclicModule, V2: CyclicModule) -> np.ndarray:
    d = coproduct_matrices(V1, V2)
    return casimir_matrix(d["E"], d["F"], d["K"], np.linalg.inv(d["K"]), V1.p)


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
    """Eigen decomposition of the coproduct Casimir on V1 (x) V2.

    `values[i]` is the i-th eigenvalue; `bases[i]` an (r^2, r) matrix of
    eigenvectors; `cobases[i]` the matching rows of the inverse eigenvector
    matrix, so that bases[i] @ cobases[i] is the spectral projector.
    """

    values: tuple[complex, ...]
    bases: tuple[np.ndarray, ...]
    cobases: tuple[np.ndarray, ...]


def casimir_block_structure(V1: CyclicModule, V2: CyclicModule) -> CasimirBlocks:
    """Spectral blocks of Delta(Omega); exactly r eigenvalues of multiplicity r.

    Raises DegenerateSpectrum when eigenvalue clusters are closer than the
    relative gap 1e-6 or the multiplicity pattern is not r x r.
    """
    p = V1.p
    r = p.r
    om = coproduct_casimir(V1, V2)
    w, vecs = np.linalg.eig(om)
    scale = max(1.0, float(np.abs(w).max()))
    order = np.lexsort((w.imag, w.real))
    w = w[order]
    vecs = vecs[:, order]
    clusters: list[list[int]] = []
    for idx in range(len(w)):
        for cl in clusters:
            if abs(w[cl[0]] - w[idx]) <= 1e-6 * scale:
                cl.append(idx)
                break
        else:
            clusters.append([idx])
    if len(clusters) != r or any(len(cl) != r for cl in clusters):
        raise DegenerateSpectrum(
            f"cluster sizes {[len(c) for c in clusters]} (want {r} x {r})"
        )
    # inter-cluster gap check
    means = [np.mean([w[i] for i in cl]) for cl in clusters]
    for i in range(len(means)):
        for j in range(i + 1, len(means)):
            if abs(means[i] - means[j]) < 1e-6 * scale:
                raise DegenerateSpectrum("eigenvalue clusters too close")
    vinv = np.linalg.inv(vecs)
    values, bases, cobases = [], [], []
    for cl in clusters:
        values.append(complex(np.mean([w[i] for i in cl])))
        bases.append(vecs[:, cl])
        cobases.append(vinv[cl, :])
    return CasimirBlocks(
        values=tuple(values), bases=tuple(bases), cobases=tuple(cobases)
    )
