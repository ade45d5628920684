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
    r, xi = p.r, p.xi
    roots = branch_roots(chi.kappa, p)
    if abs(chi.f_r) > TOL:
        k = roots[0]
    else:
        k = None
        for cand in roots:
            if abs(chi.omega - (-p.sign_ell) * (cand + 1.0 / cand)) <= TOL * 1e2 * max(
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
    if abs(chi.f_r) > TOL:
        eps_p = (chi.omega + p.sign_ell * (k + 1.0 / k)) / (br1 ** 2 * chi.f_r)
    else:
        den = prod(
            p.qbracket(i) * (k * xi ** (-i) - xi ** i / k) for i in range(1, r)
        )
        if not abs(den) > TOL:
            raise BranchInconsistent("degenerate branch denominator")
        eps_p = -p.sign_r * br1 ** (2 * (r - 1)) * chi.e_r / den
    E = np.zeros((r, r), dtype=complex)
    for i in range(1, r):
        E[i - 1, i] = (
            chi.f_r * eps_p
            - p.sign_ell * (k * xi ** (-i) - xi ** i / k) * p.qbracket(i) / br1 ** 2
        )
    E[r - 1, 0] = eps_p
    return CyclicModule(chi=chi, k=k, E=E, F=F, K=K, p=p)


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

def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a, b) of two matrices as one broadcast outer product; the
    entries are bitwise those of np.kron."""
    (m, n), (k, l) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * k, n * l)


def coproduct_matrices(V1: CyclicModule, V2: CyclicModule) -> dict[str, np.ndarray]:
    I1 = np.eye(V1.r, dtype=complex)
    I2 = np.eye(V2.r, dtype=complex)
    return {
        "E": kron(I1, V2.E) + kron(V1.E, V2.K),
        "F": kron(V1.K_inv(), V2.F) + kron(V1.F, I2),
        "K": kron(V1.K, V2.K),
    }


# --- Casimir blocks -------------------------------------------------------------
#
# The pipeline does not run `casimir_block_structure` or the helpers below it.
# They stay in the package because the benchmark's traced run
# (perfbench/spans.py) looks `casimir_block_structure` up by name; the tests
# use them as the reference that every braiding is compared against.

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


def weight_classes(r: int) -> np.ndarray:
    """Row s: the coordinates i r + j of e_i (x) f_j with i + j = s mod r, by i.
    K (x) K is the scalar k1 k2 xi^(2(r - 1 - s)) on this weight class; Delta(E)
    maps it to class s - 1 and Delta(F) to class s + 1, mod r."""
    i = np.arange(r)
    return i * r + (i[:, None] - i) % r


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
    idx = weight_classes(r)
    d = coproduct_matrices(V1, V2)
    om = casimir_matrix(d["E"], d["F"], d["K"], np.diag(1 / np.diag(d["K"])), p)
    w, vecs = np.linalg.eig(om[idx[:, :, None], idx[:, None, :]])
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
    e, f = (np.einsum("smi,sij,sjm->sm", np.roll(v, k, axis=0),
                      d[g][np.roll(idx, k, axis=0)[:, :, None], idx[:, None, :]], u)
            for g, k in (("E", 1), ("F", -1)))
    return CasimirBlocks(
        values=tuple(complex(x) for x in w[cls, order].mean(axis=0)),
        classes=idx, weights=np.diag(d["K"])[idx[:, 0]], vecs=u, covecs=v, e=e, f=f)
