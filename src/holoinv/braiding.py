"""Holonomy braidings between cyclic modules.

A braiding here is an isomorphism c : V1 (x) V2 -> V4 (x) V3 whose target
colors are the biquandle images (chi4, chi3) = B(chi1, chi2), intertwining
the coproduct action: c rho12(Delta u) = rho43(Delta u) c for u in {E, F, K}.

Every braiding has the R-matrix form of Kashaev-Reshetikhin: tau^-1 c =
D Sum_n s_n E1^n (x) F2^n, with tau the flip, D diagonal after a cyclic
relabeling of the output grid that matches the Delta(K) weights, and s_n
the cyclic quantum dilogarithm series, whose root is read off the K
weights.  `rmatrix_braiding` builds the series and fixes D by a recurrence
along the (i, j) grid of V1 (x) V2, up to one scalar; every intertwining
equation must then hold.  A pair with a Steinberg factor has root 1: the
truncated quantum exponential.  Each pair resolves on its own, and every
braiding passes a sideways-invertibility check.  The overall scale of each
braiding is then fixed by det(c) = 1 via the principal root, which leaves
exactly the r^2-th root-of-unity ambiguity the theory predicts; all
scalar-level statements are therefore made modulo that group, through
ModScalar.

`block_braiding` builds the braiding of a generic pair up to one scalar
per Casimir block instead.  The pipeline does not call it, nor the two
`steinberg_*_braiding` names; they stay in the package only because the
benchmark's traced run (perfbench/spans.py) looks them up by name.  The
tests use `block_braiding` as the reference for every braiding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BlockIntertwinerDim,
    DegenerateSpectrum,
    SingularSolution,
    Undefined,
    UnresolvableYB,
)
from .params import GATE, TOL, RootParams
from .sl2factor import YColor, sl2_B, sl2_B_inv, steinberg_ycolor
from .uqsl2 import (
    CyclicModule,
    DualityData,
    ZChar,
    build_cyclic_module,
    casimir_block_structure,
    char_from_ycolor,
    coproduct_matrices,
    duality_tensors,
    kron,
)


@dataclass(frozen=True)
class ModScalar:
    """A complex scalar regarded modulo r^2-th roots of unity."""

    value: complex
    r: int

    @property
    def canonical(self) -> complex:
        return complex(self.value) ** (self.r * self.r)

    def __repr__(self):
        return f"ModScalar({self.value:.6g} mod Theta_{self.r**2})"


def pair_defined(chi1: ZChar, chi2: ZChar, p: RootParams) -> bool:
    """Nonvanishing of the pair obstruction
    1 + (-1)^l [1]^(2r) chi1(K^-r E^r) chi2(F^r K^r)."""
    w = 1.0 + p.sign_ell * p.qbracket(1) ** (2 * p.r) * (
        chi1.e_r / chi1.kappa
    ) * (chi2.f_r * chi2.kappa)
    return abs(w) > TOL


def _unit_det(c: np.ndarray) -> np.ndarray:
    """c / det(c)^(1/n) with the principal root, from the log-determinant so
    that a determinant beyond the float range neither under- nor overflows."""
    sv = np.linalg.svd(c, compute_uv=False)
    if sv[-1] <= TOL * max(1.0, sv[0]):
        raise SingularSolution("braiding matrix is singular")
    sign, logdet = np.linalg.slogdet(c)
    return c * np.exp(-(logdet + 1j * np.angle(sign)) / c.shape[0])


@dataclass
class _Colored:
    """The colors (y1, y2) -> (y4, y3) of a crossing."""

    y1: YColor
    y2: YColor
    y4: YColor
    y3: YColor


@dataclass
class HolonomyBraiding(_Colored):
    c: np.ndarray
    _c_inv: np.ndarray | None = field(default=None, init=False, repr=False)

    def c_inv(self) -> np.ndarray:
        """The inverse braiding matrix, computed on first use."""
        if self._c_inv is None:
            self._c_inv = np.linalg.inv(self.c)
        return self._c_inv


# --- Casimir blocks (reference, kept for perfbench/spans.py) ---------------------

@dataclass
class BlockBraiding(_Colored):
    """A braiding resolved only up to one scalar per Casimir block."""

    blocks: tuple[np.ndarray, ...]  # rank-r pieces of c, unit Frobenius norm


def block_braiding(y1: YColor, y2: YColor,
                   provider: "BraidingProvider") -> BlockBraiding:
    """Build the braiding of a pair up to block scalars (a test reference).

    The Casimir blocks of V1 (x) V2 and V4 (x) V3 are matched by eigenvalue.
    A block has one vector u_s per weight class s, and Delta(K) matches class
    s with one class t of V4 (x) V3, so an intertwiner of matched blocks is
    u_s -> mu_s w_t.  With Delta(E) u_s = e_s u_(s-1) and Delta(F) u_(s-1) =
    f_s u_s (primes for the w), the link between classes s - 1 and s reads
    mu_(s-1) e_s = mu_s e'_t and mu_s f_s = mu_(s-1) f'_t.  mu follows by this
    recurrence around the r classes, skipping the weakest link: O(r) per
    block.  BlockIntertwinerDim is raised when both coefficients of a second
    link vanish, or when mu leaves a link unbalanced.
    """
    p, r = provider.p, provider.p.r
    if not pair_defined(provider.char(y1), provider.char(y2), p):
        raise Undefined("pair obstruction vanishes")
    y4, y3 = sl2_B(y1, y2)
    b12, b43 = (casimir_block_structure(provider.module(a), provider.module(b))
                for a, b in ((y1, y2), (y4, y3)))
    v12, v43 = np.array(b12.values), np.array(b43.values)
    hit = np.abs(v12[:, None] - v43) <= 1e-6 * max(1.0, np.abs(v12).max())
    if np.any(hit.sum(axis=1) != 1):
        raise DegenerateSpectrum("Casimir eigenvalues do not match bijectively")
    mate = hit.argmax(axis=1)
    # the braiding sends weight class s to class sig[s] of equal Delta(K)
    k12, k43 = b12.weights, b43.weights
    sig = (np.arange(r) + np.abs(k43 - k12[0]).argmin()) % r
    if np.abs(k43[sig] - k12).max() > 1e-6 * np.abs(k12).max():
        raise BlockIntertwinerDim(0, "no Delta(K) weight match")
    e43, f43 = b43.e[sig][:, mate], b43.f[sig][:, mate]
    # link s of block m: mu_s a1 = mu_(s-1) b1 and mu_s a2 = mu_(s-1) b2
    a1, b1, a2, b2 = e43, b12.e, np.roll(b12.f, 1, axis=0), np.roll(f43, 1, axis=0)
    weight = np.abs(a1) ** 2 + np.abs(a2) ** 2
    if np.any(np.sort(weight, axis=0)[1] <= 1e-16 * weight.max(axis=0)):
        raise BlockIntertwinerDim(2, "both recurrence coefficients vanish")
    ratio = (a1.conj() * b1 + a2.conj() * b2) / np.maximum(weight, 1e-300)
    m = np.arange(r)
    links = (weight.argmin(axis=0) + m[:, None]) % r  # from the weakest link on
    step = ratio[links, m]
    step[0] = 1.0
    mu = np.empty_like(step)
    mu[links, m] = np.cumprod(step, axis=0)
    prev = np.roll(mu, 1, axis=0)
    unbalanced = np.abs(mu * a1 - prev * b1) + np.abs(mu * a2 - prev * b2)
    if np.any(unbalanced.max(axis=0) > 1e-6 * (abs(mu) * weight ** 0.5).max(axis=0)):
        raise BlockIntertwinerDim(0, "the weight recurrence does not close")
    pieces = np.zeros((r, r * r, r * r), dtype=complex)
    pieces[:, b43.classes[sig][:, :, None], b12.classes[:, None, :]] = (
        mu.T[:, :, None, None]
        * b43.vecs[sig][:, :, mate].transpose(2, 0, 1)[..., None]
        * b12.covecs.transpose(1, 0, 2)[:, :, None, :])
    pieces /= np.linalg.norm(pieces, axis=(1, 2))[:, None, None]
    return BlockBraiding(y1=y1, y2=y2, y4=y4, y3=y3, blocks=tuple(pieces))


# --- sideways and scalar comparison ------------------------------------------

def sideways_matrices(c: np.ndarray, c_inv: np.ndarray, d4: DualityData,
                      d2: DualityData, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The two sideways morphisms built from a braiding and dualities.

    s_plus_L : V4* (x) V1 -> V3 (x) V2* threads the braiding through a left
    cup on V2 and a left cap on V4; s_minus_R : V3 (x) V2* -> V4* (x) V1 uses
    the inverse braiding with the right-handed cups and caps.  Both are
    contracted in index form, with c and c_inv as (out, out, in, in) tensors
    and the cups and caps as r x r matrices: two matmuls and a transpose each.
    """
    ev, coev = d4.ev_L.reshape(r, r), d2.coev_L.reshape(r, r)
    s_plus = (ev @ c.reshape(r, r ** 3)).reshape(r ** 3, r) @ coev  # (a, y, i, j)
    cut = d2.ev_R.reshape(r, r).T @ c_inv.reshape(r, r, r * r)  # (i, v, x u)
    s_minus = d4.coev_R.reshape(r, r) @ cut.reshape(r * r, r, r)  # (i v, a, u)
    return (s_plus.reshape((r,) * 4).transpose(1, 3, 0, 2).reshape(r * r, r * r),
            s_minus.reshape((r,) * 4).transpose(2, 0, 3, 1).reshape(r * r, r * r))


def proportionality(a: np.ndarray, b: np.ndarray) -> tuple[complex, float]:
    """Best scalar s with a = s b, and the relative residual."""
    denom = np.vdot(b, b)
    if abs(denom) == 0:
        return 0.0, float(np.abs(a).max())
    s = np.vdot(b, a) / denom
    res = float(np.abs(a - s * b).max()) / max(1.0, float(np.abs(a).max()))
    return complex(s), res


def equal_mod_roots(a: np.ndarray, b: np.ndarray, r: int,
                    tol: float = 1e-6) -> tuple[bool, complex, float]:
    """Check a = zeta b with zeta an r^2-th root of unity; return (ok, zeta, res)."""
    s, res = proportionality(a, b)
    if res > tol:
        return False, s, res
    root_defect = abs(s ** (r * r) - 1.0)
    return root_defect <= tol * 1e2, s, max(res, root_defect)


# --- R-matrix-form braidings ------------------------------------------------

def dilog_series(V1: CyclicModule, V2: CyclicModule, rho: complex,
                 p: RootParams) -> np.ndarray:
    """The cyclic quantum dilogarithm Sum_n s_n E^n (x) F^n on V1 (x) V2.

    s_0 = 1 and s_n / s_(n-1) = [1]^2 / (xi (1 - rho xi^(-2n))), for n < r.
    rho = 1 gives the truncated quantum exponential, whose truncation is
    exact when E acts nilpotently on V1 or F on V2 (the Steinberg module).
    A root rho = xi^(2n) with 0 < n < r is a pole: UnresolvableYB.
    """
    r, q = p.r, p.xi
    S = np.zeros((r * r, r * r), dtype=complex)
    En = np.eye(r, dtype=complex)
    Fn = np.eye(r, dtype=complex)
    coef = 1.0 + 0j
    for n in range(r):
        if n:
            En = En @ V1.E
            Fn = Fn @ V2.F
            pole = 1 - rho * q ** (-2 * n)
            if abs(pole) <= TOL:
                raise UnresolvableYB(f"the series has a pole at n = {n}")
            coef *= p.qbracket(1) ** 2 / (q * pole)
        S += coef * kron(En, Fn)
    return S


def rmatrix_braiding(y1: YColor, y2: YColor,
                     provider: "BraidingProvider") -> HolonomyBraiding:
    """The braiding of a pair, in the R-matrix form of Kashaev-Reshetikhin.

    c = tau P D S: tau is the flip, S the `dilog_series` and D a diagonal
    Cartan factor on the (i, j) grid of V1 (x) V2, read on V3 (x) V4 after
    the relabeling P : (i, j) -> (i + s, j) that matches the Delta(K)
    weights.  The series root is rho = K1[0, 0] / K3[s, s].  c intertwines
    exactly when D_o (A_u)_oo' = (B_u)_oo' D_o' for u in {E, F, K}, where
    A_u = S rho12(Delta u) S^-1 and B_u = (tau P)^-1 rho43(Delta u) tau P.
    A_u must vanish wherever B_u does.  Delta(E), Delta(F) link grid
    neighbours, so D follows by recurrence from D_(0, 0) = 1: down column
    0, then along each row, every link ratio the least-squares ratio of its
    E and F equations.  A link without a coefficient on its far end would
    leave D free there; afterwards every structural equation, not only the
    links, must hold.
    """
    p, r = provider.p, provider.p.r
    if not pair_defined(provider.char(y1), provider.char(y2), p):
        raise Undefined("pair obstruction vanishes")
    y4, y3 = sl2_B(y1, y2)
    V1, V2, V4, V3 = (provider.module(y) for y in (y1, y2, y4, y3))
    k1, k2, k3, k4 = (np.diag(V.K) for V in (V1, V2, V3, V4))
    s = int(np.abs(k3 * k4[0] - k1[0] * k2[0]).argmin())
    S = dilog_series(V1, V2, k1[0] / k3[s], p)
    S_inv = np.linalg.inv(S)
    # grid point (i, j) of V1 (x) V2 lands on (i + s, j) of V3 (x) V4, which
    # is coordinate j r + i + s of V4 (x) V3
    i, j = np.divmod(np.arange(r * r), r)
    out = j * r + (i + s) % r
    d12, d43 = coproduct_matrices(V1, V2), coproduct_matrices(V4, V3)
    A = np.array([S @ d12[u] @ S_inv for u in "EFK"])
    B = np.array([d43[u][out[:, None], out] for u in "EFK"])
    for u, a, b in zip("EFK", A, B):
        stray = np.abs(a[b == 0]).max(initial=0.0) / np.abs(a).max()
        if stray > GATE:
            raise UnresolvableYB(f"no Cartan factor intertwines Delta({u}), "
                                 f"residual {stray:.3e}")
    # links P -> Q down column 0, then along the rows; x = D_Q / D_P solves
    # a x = b for the E and F equations at (P, Q) and at (Q, P)
    g = np.arange(r * r).reshape(r, r)
    P = np.concatenate([g[:-1, 0], g[:, :-1].ravel()])
    Q = np.concatenate([g[1:, 0], g[:, 1:].ravel()])
    a = np.concatenate([B[:2, P, Q], A[:2, Q, P]])
    b = np.concatenate([A[:2, P, Q], B[:2, Q, P]])
    weight = (np.abs(a) ** 2).sum(axis=0)
    if weight.min() <= 1e-16 * weight.max():
        raise UnresolvableYB("Cartan factor not unique: a grid link has no equation")
    step = (a.conj() * b).sum(axis=0) / weight
    col = np.cumprod(np.r_[1, step[:r - 1]])
    D = np.cumprod(np.column_stack([col, step[r - 1:].reshape(r, -1)]), axis=1).ravel()
    # normwise per generator: an entry of B that is only rounding noise has
    # lhs and rhs of that size, and their entrywise ratio would be arbitrary
    res = 0.0
    for a, b in zip(A, B):
        i, j = np.nonzero(b)
        lhs, rhs = D[i] * a[i, j], b[i, j] * D[j]
        size = (np.abs(lhs) + np.abs(rhs)).max()
        res = max(res, np.abs(lhs - rhs).max() / max(size, 1e-300))
    if res > GATE:
        raise UnresolvableYB(f"no Cartan factor intertwines, residual {res:.3e}")
    c = np.empty_like(S)
    c[out] = D[:, None] * S
    return HolonomyBraiding(y1=y1, y2=y2, y4=y4, y3=y3, c=_unit_det(c))


def steinberg_pair_braiding(
    y1: YColor, y2: YColor, provider: "BraidingProvider"
) -> HolonomyBraiding:
    """`rmatrix_braiding` on a pair with a Steinberg factor.  The provider
    does not call it; it stays because perfbench/spans.py wraps this name."""
    return rmatrix_braiding(y1, y2, provider)


def steinberg_self_braiding(provider: "BraidingProvider") -> HolonomyBraiding:
    """`rmatrix_braiding` on (st, st); kept, like `steinberg_pair_braiding`,
    only because perfbench/spans.py wraps this name."""
    return rmatrix_braiding(provider.steinberg, provider.steinberg, provider)


# --- provider ----------------------------------------------------------------

def _char_key(chi: ZChar):
    return tuple((round(complex(z).real, 9), round(complex(z).imag, 9))
                 for z in (chi.kappa, chi.e_r, chi.f_r, chi.omega))


class BraidingProvider:
    """Caches modules, dualities and braidings by character.

    Each braiding is resolved on its own, deterministically, by
    `rmatrix_braiding`, pairs with a Steinberg factor included.  Modules
    come from `module`, built once per character; only the requested pair
    is cached.
    """

    def __init__(self, p: RootParams):
        self.p = p
        self.modules: dict = {}
        self._braidings: dict = {}
        self._duals: dict = {}
        self._chars: dict = {}
        self.steinberg = steinberg_ycolor(p)

    def _lookup(self, y: YColor) -> tuple[ZChar, tuple]:
        """The character of a color and its cache key, computed once per
        color.  A color failing the Chebyshev check is not stored, so it
        raises ChebyshevMismatch on every lookup."""
        try:
            return self._chars[y]
        except KeyError:
            chi = char_from_ycolor(y, self.p)
            self._chars[y] = found = (chi, _char_key(chi))
            return found

    def char(self, y: YColor) -> ZChar:
        return self._lookup(y)[0]

    def pair_key(self, y1: YColor, y2: YColor):
        return (self._lookup(y1)[1], self._lookup(y2)[1])

    def module(self, y: YColor) -> CyclicModule:
        chi, key = self._lookup(y)
        if key not in self.modules:
            self.modules[key] = build_cyclic_module(chi, self.p)
        return self.modules[key]

    def duality(self, y: YColor) -> DualityData:
        key = self._lookup(y)[1]
        if key not in self._duals:
            self._duals[key] = duality_tensors(self.module(y))
        return self._duals[key]

    def braiding(self, y1: YColor, y2: YColor) -> HolonomyBraiding:
        key = self.pair_key(y1, y2)
        if key in self._braidings:
            return self._braidings[key]
        hb = rmatrix_braiding(y1, y2, self)
        self._check_sideways(hb)
        self._braidings[key] = hb
        return hb

    def _check_sideways(self, hb: HolonomyBraiding) -> None:
        """Reject any braiding whose sideways morphisms fail to invert.

        The two sideways morphisms of a genuine braiding compose to the
        identity up to an r^2-th root of unity; this is the property that
        separates the braiding ray from other intertwiners in the span of
        the block pieces, so it is enforced on every resolution.
        """
        r = self.p.r
        d4 = self.duality(hb.y4)
        d2 = self.duality(hb.y2)
        s_plus, s_minus = sideways_matrices(hb.c, hb.c_inv(), d4, d2, r)
        eye = np.eye(r * r, dtype=complex)
        ok, _, res = equal_mod_roots(s_minus @ s_plus, eye, r, GATE)
        if not ok:
            raise UnresolvableYB("sideways morphisms do not invert, "
                                 f"residual {res:.3e}")

    def braiding_inv(self, ya: YColor, yb: YColor):
        """Inverse braiding for a negative crossing with bottom colors (ya, yb).

        Returns (top colors (u, v) = B_inv(ya, yb), matrix of c_{u,v}^(-1))."""
        u, v = sl2_B_inv(ya, yb)
        hb = self.braiding(u, v)
        return (u, v), hb.c_inv()
