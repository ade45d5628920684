"""Holonomy braidings between cyclic modules.

A braiding here is an isomorphism c : V1 (x) V2 -> V4 (x) V3 whose target
colors are the biquandle images (chi4, chi3) = B(chi1, chi2), intertwining
the coproduct action: c rho12(Delta u) = rho43(Delta u) c for u in {E, F, K}.

Every braiding has the R-matrix form of Kashaev-Reshetikhin: tau^-1 c =
D Sum_n s_n E1^n (x) F2^n, with tau the flip, D diagonal (after a cyclic
relabeling of the output grid) and s_n a quantum dilogarithm series.
When one factor of a pair is Steinberg (the self pair included), E or F
acts nilpotently and the series is the truncated quantum exponential, so
`steinberg_pair_braiding` fixes D by a recurrence along the (i, j) grid of
V1 (x) V2, up to one scalar.
For a generic pair, the coproduct Casimir splits both tensor products into
r matched eigenblocks, one vector per Delta(K) weight class each, solved
once per pair and provider, one r x r class at a time.  The Delta(E) and
Delta(F) recurrence between neighbouring classes gives the intertwiner of
a matched block pair (`block_braiding`), which fixes the braiding up to
one scalar per block.  `generic_pair_braiding` picks the block scalars as
the one combination with the R-matrix form: an r x r eigenproblem and a
rank-one test, certified unique.  Each pair resolves on its own, and every
braiding passes a sideways-invertibility check.  The overall scale of each
braiding is then fixed by det(c) = 1 via the principal root, which leaves
exactly the r^2-th root-of-unity ambiguity the theory predicts; all
scalar-level statements are therefore made modulo that group, through
ModScalar.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AlphaUndefined,
    BlockIntertwinerDim,
    DegenerateSpectrum,
    NonScalarResult,
    SingularSolution,
    Undefined,
    UnresolvableYB,
)
from .params import GATE, TOL, RootParams
from .sl2factor import (
    YColor,
    alpha as y_alpha,
    alpha_inv as y_alpha_inv,
    sl2_B,
    sl2_B_inv,
    steinberg_ycolor,
)
from .uqsl2 import (
    CasimirBlocks,
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

    def approx_eq(self, other: "ModScalar", tol: float = TOL) -> bool:
        a, b = self.canonical, other.canonical
        return abs(a - b) <= tol * max(1.0, abs(a), abs(b))

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


def flip_matrix(m: int, n: int) -> np.ndarray:
    """The swap V (x) W -> W (x) V on coordinates, dim V = m, dim W = n."""
    eye = np.eye(m * n, dtype=complex).reshape(m, n, m * n)
    return eye.swapaxes(0, 1).reshape(m * n, m * n)


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


# --- Casimir blocks ------------------------------------------------------------

@dataclass
class BlockBraiding(_Colored):
    """A braiding resolved only up to one scalar per Casimir block."""

    blocks: tuple[np.ndarray, ...]  # rank-r pieces of c, unit Frobenius norm

    def assemble(self, lambdas) -> np.ndarray:
        return sum(l * b for l, b in zip(lambdas, self.blocks))


def _char_key(chi: ZChar, digits: int = 9):
    return tuple((round(complex(z).real, digits), round(complex(z).imag, digits))
                 for z in (chi.kappa, chi.e_r, chi.f_r, chi.omega))


def block_braiding(y1: YColor, y2: YColor,
                   provider: "BraidingProvider") -> BlockBraiding:
    """Build the braiding of a pair up to block scalars.

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
    b12, b43 = provider.blocks(y1, y2), provider.blocks(y4, y3)
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

def unipotent_series(V1: CyclicModule, V2: CyclicModule, p: RootParams) -> np.ndarray:
    """The quantum exponential Sum_n a_n E^n (x) F^n on V1 (x) V2.

    a_n = (q - q^{-1})^n q^{n(n-1)/2} / [n]! with [n] the balanced quantum
    integer, truncated at n = r - 1.  The truncation is exact exactly when E
    acts nilpotently on V1 or F acts nilpotently on V2 (in particular when
    either factor is the Steinberg module).  It is the factor S of the
    braidings tau D S of `steinberg_pair_braiding`, the only place the
    series is used.
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
            # a_n / a_{n-1} = (q - q^{-1}) q^{n-1} / [n]
            coef *= (q - 1 / q) * q ** (n - 1) * p.qbracket(1) / p.qbracket(n)
        S += coef * kron(En, Fn)
    return S


def steinberg_self_braiding(provider: "BraidingProvider") -> HolonomyBraiding:
    """The braiding of the Steinberg module with itself.

    `steinberg_pair_braiding` on (st, st); a separate name, so that the
    self pair can be traced on its own (perfbench/spans.py)."""
    return steinberg_pair_braiding(provider.steinberg, provider.steinberg, provider)


def steinberg_pair_braiding(
    y1: YColor, y2: YColor, provider: "BraidingProvider"
) -> HolonomyBraiding:
    """Braiding of a pair with a Steinberg factor, the self pair included.

    It has the R-matrix form c = tau D S: tau is the flip, S the truncated
    `unipotent_series` and D a diagonal Cartan factor.  c intertwines
    exactly when D_i (A_u)_ij = (B_u)_ij D_j for u in {E, F, K}, where
    A_u = S rho12(Delta u) S^-1 and B_u = tau rho43(Delta u) tau.  A_u must
    vanish wherever B_u does.  D lives on the (i, j) grid of V1 (x) V2, and
    Delta(E), Delta(F) link grid neighbours, so D follows by recurrence
    from D_(0, 0) = 1: down column 0, then along each row, every link
    ratio the least-squares ratio of its E and F equations.  A link without
    a coefficient on its far end would leave D free there; afterwards every
    structural equation, not only the links, must hold.
    """
    p, r = provider.p, provider.p.r
    if not pair_defined(provider.char(y1), provider.char(y2), p):
        raise Undefined("pair obstruction vanishes")
    y4, y3 = sl2_B(y1, y2)
    V1, V2, V4, V3 = (provider.module(y) for y in (y1, y2, y4, y3))
    S = unipotent_series(V1, V2, p)
    S_inv = np.linalg.inv(S)
    tau = flip_matrix(r, r)
    d12, d43 = coproduct_matrices(V1, V2), coproduct_matrices(V4, V3)
    A = np.array([S @ d12[u] @ S_inv for u in "EFK"])
    B = np.array([tau @ d43[u] @ tau for u in "EFK"])
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
    c = _unit_det(tau @ (D[:, None] * S))
    return HolonomyBraiding(y1=y1, y2=y2, y4=y4, y3=y3, c=c)


def _series_tables(bb: BlockBraiding, provider: "BraidingProvider") -> np.ndarray:
    """The tables T_k[o, n] of the block pieces b_k, shape (r, r^2, r).

    Row o = (i, j) is a point of the grid of V1 (x) V2, and E1^n (x) F2^n
    has one nonzero in row o, den[o, n] at column (i + n, j - n).  T_k[o, n]
    is the entry of tau^-1 b_k there over den[o, n], with the output grid
    V3 (x) V4 read after the cyclic relabeling (i, j) -> (i + s, j) that
    matches the Delta(K) weights.  Any relabeling (i + s + t, j - t) would
    serve as well: E1 (x) F2 permutes the grid by (-1, 1) and keeps the form.
    Each row is then scaled by min_n |den[o, n]|, which keeps the rank and
    bounds every entry by the pieces': where E1 or F2 is (nearly) nilpotent,
    an entry over a den that is only rounding noise must not dominate, and
    over a den = 0 the entry is the piece's own, which the form sets to 0.
    """
    r = provider.p.r
    V1, V2, V4, V3 = (provider.module(y) for y in (bb.y1, bb.y2, bb.y4, bb.y3))
    k1, k2, k3, k4 = (np.diag(V.K) for V in (V1, V2, V3, V4))
    # block_braiding has matched the weight classes, so one s fits
    s = int(np.abs(k3 * k4[0] - k1[0] * k2[0]).argmin())
    i = np.arange(r)
    # e[i, n] = E1^n[i, i + n] and f[j, n] = F2^n[j, j - n], as cyclic walks
    # over the one nonzero per row of E1 and of F2
    e_step, f_step = np.diag(np.roll(V1.E, -1, axis=1)), np.diag(np.roll(V2.F, 1, axis=1))
    e = np.cumprod(np.c_[np.ones(r), e_step[(i[:, None] + i[:-1]) % r]], axis=1)
    f = np.cumprod(np.c_[np.ones(r), f_step[(i[:, None] - i[:-1]) % r]], axis=1)
    den = (e[:, None] * f).reshape(r * r, r)
    size = np.abs(den)
    scale = np.divide(size.min(axis=1, keepdims=True), den,
                      out=np.ones_like(den), where=size > 0)
    ii, jj, nn = np.meshgrid(i, i, i, indexing="ij")
    rows = jj * r + (ii + s) % r  # the pieces' rows are V4 (x) V3
    cols = (ii + nn) % r * r + (jj - nn) % r
    return np.array(bb.blocks)[:, rows, cols].reshape(r, r * r, r) * scale


def generic_pair_braiding(y1: YColor, y2: YColor,
                          provider: "BraidingProvider") -> HolonomyBraiding:
    """Braiding of a pair without a Steinberg factor, by rank-one selection.

    A holonomy braiding has the R-matrix form tau^-1 c = D Sum_n s_n E1^n (x)
    F2^n, D diagonal after a cyclic relabeling of the output grid, with s_n a
    cyclic quantum dilogarithm (Kashaev-Reshetikhin).  Its table T[o, n] =
    D_o s_n (`_series_tables`) has rank one.  c is the combination
    Sum lambda_k b_k of the block pieces of `block_braiding` whose table
    Sum lambda_k T_k has rank one.  The columns A_n of that table then
    satisfy A_1 lambda = (s_1 / s_0) A_0 lambda, so lambda is one of the r
    eigenvectors of A_0^+ A_1; the one whose table is nearest rank one, by
    sigma_2 / sigma_1, is kept.  Its residual must be at most GATE and every
    other candidate's larger by the factor GATE / TOL: otherwise the choice
    is not certified unique, and UnresolvableYB is raised.
    """
    try:
        bb = block_braiding(y1, y2, provider)
    except Undefined as e:
        raise UnresolvableYB(f"could not resolve braiding scalars: {e}") from e
    T = _series_tables(bb, provider)
    ratio = np.linalg.lstsq(T[:, :, 0].T, T[:, :, 1].T, rcond=None)[0]
    lam = np.linalg.eig(ratio)[1]
    sv = np.linalg.svd(np.einsum("kon,km->mon", T, lam), compute_uv=False)
    res = sv[:, 1] / np.maximum(sv[:, 0], 1e-300)
    order = np.argsort(res)
    best, second = res[order[:2]]
    if not (best <= GATE and second >= best * GATE / TOL):
        raise UnresolvableYB("no unique rank-one braiding: residual "
                             f"{best:.3e}, next {second:.3e}")
    c = _unit_det(bb.assemble(lam[:, order[0]]))
    return HolonomyBraiding(y1=bb.y1, y2=bb.y2, y4=bb.y4, y3=bb.y3, c=c)


# --- provider ----------------------------------------------------------------

class BraidingProvider:
    """Caches modules, dualities, Casimir blocks and braidings by character.

    Each braiding is resolved on its own, deterministically: in closed form
    for a pair with a Steinberg factor, by rank-one selection otherwise.
    Modules and Casimir blocks come from `module` and `blocks`, built once
    per character or pair of characters; only the requested pair is cached.
    """

    def __init__(self, p: RootParams):
        self.p = p
        self.modules: dict = {}
        self._braidings: dict = {}
        self._duals: dict = {}
        self._chars: dict = {}
        self._blocks: dict = {}
        self.steinberg = steinberg_ycolor(p)
        self._st_key = self._lookup(self.steinberg)[1]

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

    def is_steinberg(self, y: YColor) -> bool:
        return self._lookup(y)[1] == self._st_key

    def pair_key(self, y1: YColor, y2: YColor):
        return (self._lookup(y1)[1], self._lookup(y2)[1])

    def module(self, y: YColor) -> CyclicModule:
        chi, key = self._lookup(y)
        if key not in self.modules:
            self.modules[key] = build_cyclic_module(chi, self.p)
        return self.modules[key]

    def blocks(self, y1: YColor, y2: YColor) -> CasimirBlocks:
        key = self.pair_key(y1, y2)
        if key not in self._blocks:
            self._blocks[key] = casimir_block_structure(self.module(y1),
                                                        self.module(y2))
        return self._blocks[key]

    def duality(self, y: YColor) -> DualityData:
        key = self._lookup(y)[1]
        if key not in self._duals:
            self._duals[key] = duality_tensors(self.module(y))
        return self._duals[key]

    def braiding(self, y1: YColor, y2: YColor) -> HolonomyBraiding:
        key = self.pair_key(y1, y2)
        if key in self._braidings:
            return self._braidings[key]
        st1, st2 = self.is_steinberg(y1), self.is_steinberg(y2)
        if st1 and st2:
            hb = steinberg_self_braiding(self)
        elif st1 or st2:
            hb = steinberg_pair_braiding(y1, y2, self)
        else:
            hb = generic_pair_braiding(y1, y2, self)
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


# --- twist --------------------------------------------------------------------

def twist(y: YColor, provider: BraidingProvider) -> ModScalar:
    """The twist scalar of a color, from braiding with its diagonal partner.

    Computed by closing the braiding c_{x, alpha(x)} to the right; the left
    closure through alpha^{-1}(x) must give the same scalar up to an r^2-th
    root of unity.  Where alpha or its inverse has no value, their
    OutsideGPrime (an Undefined) propagates.
    """
    r = provider.p.r
    I = np.eye(r, dtype=complex)
    ax, az = y_alpha(y), y_alpha_inv(y)
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
    if not ModScalar(s, r).approx_eq(ModScalar(s2, r), GATE):
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
