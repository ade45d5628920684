"""Holonomy braidings between cyclic modules.

A braiding here is an isomorphism c : V1 (x) V2 -> V4 (x) V3 whose target
colors are the biquandle images (chi4, chi3) = B(chi1, chi2), intertwining
the coproduct action: c rho12(Delta u) = rho43(Delta u) c for u in {E, F, K}.

Every braiding has the R-matrix form of Kashaev-Reshetikhin: the flip, a
diagonal Cartan factor after a cyclic relabeling that matches the Delta(K)
weights, and the cyclic quantum dilogarithm series in E (x) F, whose root is
read off the K weights (root 1, the truncated quantum exponential, for a
pair with a Steinberg factor).  `rmatrix_braidings` solves it on the weight
classes of Delta(K) for a stack of pairs, one numpy call per stage and every
check per pair, and every braiding it returns has passed the sideways check.
The overall scale of each braiding is then fixed by det(c) = 1 via the
principal root, which leaves exactly the r^2-th root-of-unity ambiguity the
theory predicts; all scalar-level statements are therefore made modulo that
group, through ModScalar.

`block_braiding` builds the braiding of a generic pair up to one scalar
per Casimir block instead.  The pipeline does not call it, nor the two
`steinberg_*_braiding` names; they stay in the package only because the
benchmark's traced run (perfbench/spans.py) looks them up by name.  The
tests use `block_braiding` as the reference for every braiding.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BlockIntertwinerDim,
    DegenerateSpectrum,
    HoloinvError,
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
    coproduct_blocks,
    duality_tensors,
    weight_classes,
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


def _unit_det(blocks: np.ndarray, sign: complex = 1.0) -> np.ndarray:
    """The scale 1 / det(c)^(1/n), principal root, giving c unit determinant,
    for c a row permutation of sign `sign` of the block-diagonal matrix with
    the blocks [m] of a stack [m, w], for each m as [m, 1, 1, 1]: from their
    singular values and summed log-determinants."""
    sv = np.linalg.svd(blocks, compute_uv=False).reshape(len(blocks), -1)
    if not (sv.min(axis=1) > TOL * np.maximum(1.0, sv.max(axis=1))).all():
        raise SingularSolution("braiding matrix is singular")
    # in C order each m's row is reduced innermost, as a lone m's is
    signs, logdets = map(np.ascontiguousarray, np.linalg.slogdet(blocks))
    n = blocks.shape[1] * blocks.shape[-1]  # the size of c
    return np.array([cmath.exp(-(x + 1j * cmath.phase(sign * g)) / n) for x, g
                     in zip(logdets.sum(axis=1), signs.prod(axis=1))])[:, None, None, None]


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
    c_inv: np.ndarray


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
        raise BlockIntertwinerDim("no Delta(K) weight match")
    e43, f43 = b43.e[sig][:, mate], b43.f[sig][:, mate]
    # link s of block m: mu_s a1 = mu_(s-1) b1 and mu_s a2 = mu_(s-1) b2
    a1, b1, a2, b2 = e43, b12.e, np.roll(b12.f, 1, axis=0), np.roll(f43, 1, axis=0)
    weight = np.abs(a1) ** 2 + np.abs(a2) ** 2
    if np.any(np.sort(weight, axis=0)[1] <= 1e-16 * weight.max(axis=0)):
        raise BlockIntertwinerDim("both recurrence coefficients vanish")
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
        raise BlockIntertwinerDim("the weight recurrence does not close")
    pieces = np.zeros((r, r * r, r * r), dtype=complex)
    pieces[:, b43.classes[sig][:, :, None], b12.classes[:, None, :]] = (
        mu.T[:, :, None, None]
        * b43.vecs[sig][:, :, mate].transpose(2, 0, 1)[..., None]
        * b12.covecs.transpose(1, 0, 2)[:, :, None, :])
    pieces /= np.linalg.norm(pieces, axis=(1, 2))[:, None, None]
    return BlockBraiding(y1=y1, y2=y2, y4=y4, y3=y3, blocks=tuple(pieces))


# --- sideways and scalar comparison ------------------------------------------

def sideways_matrices(c: np.ndarray, c_inv: np.ndarray, coev4: np.ndarray,
                      ev2: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The two sideways morphisms of a braiding.

    s_plus_L : V4* (x) V1 -> V3 (x) V2* threads c through the left cup of V2
    and left cap of V4, the canonical (co)pairings: the identity in dual
    bases, so s_plus is c with its legs permuted.  s_minus_R : V3 (x) V2* ->
    V4* (x) V1 threads c_inv, an (out, out, in, in) tensor, through the right
    cap of V2 and right cup of V4, diagonal in the weight basis: c_inv scaled
    by their diagonals `ev2` and `coev4` on its second and third legs, with
    its legs permuted.  Every array is a stack, with one leading axis, of a
    pair's.
    """
    m = len(c)
    s_minus = (c_inv.reshape(m, r, r, r, r) * ev2[:, None, :, None, None]
               * coev4[:, None, None, :, None])
    return (c.reshape(m, r, r, r, r).transpose(0, 2, 4, 1, 3).reshape(m, r * r, r * r),
            s_minus.transpose(0, 3, 1, 4, 2).reshape(m, r * r, r * r))


def proportionality(a: np.ndarray, b: np.ndarray) -> tuple[complex, float]:
    """Best scalar s with a = s b, and the relative residual."""
    denom = np.vdot(b, b)
    if abs(denom) == 0:
        return 0.0, float(np.abs(a).max())
    s = np.vdot(b, a) / denom
    res = float(np.abs(a - s * b).max()) / max(1.0, float(np.abs(a).max()))
    return complex(s), res


def equal_mod_roots(a: np.ndarray, b: np.ndarray, r: int,
                    tol: float) -> tuple[bool, complex, float]:
    """Check a = zeta b with zeta an r^2-th root of unity; return (ok, zeta, res)."""
    s, res = proportionality(a, b)
    if not res <= tol:
        return False, s, res
    root_defect = abs(s ** (r * r) - 1.0)
    return root_defect <= tol * 1e2, s, max(res, root_defect)


def check_sideways(c: np.ndarray, c_inv: np.ndarray, coev4: np.ndarray,
                   ev2: np.ndarray, r: int) -> None:
    """Raise UnresolvableYB if the sideways morphisms (`sideways_matrices`) of
    a braiding of the stack do not invert up to an r^2-th root of unity: the
    property that separates the braiding ray from the other intertwiners in
    the span of its Casimir-block pieces."""
    s_plus, s_minus = sideways_matrices(c, c_inv, coev4, ev2, r)
    eye = np.eye(r * r, dtype=complex)
    for x in s_minus @ s_plus:
        ok, _, res = equal_mod_roots(x, eye, r, GATE)
        if not ok:
            raise UnresolvableYB(f"sideways morphisms do not invert, residual {res:.3e}")


# --- R-matrix-form braidings ------------------------------------------------

@functools.cache
def _layout(r: int) -> tuple:
    """Read-only flat indices of the weight-class solve at r.  Row x of class
    w is (x, w - x), at cls[w, x]; Delta(u) maps class w to to[u, w], and
    E^n (x) F^n row x to row a for n = n[a, x].  The links P -> Q, class w to
    w + 1, take a, b of their E and F equations at (P, Q) and (Q, P) from
    stack([A, B]) at eqs; at r > 2 two of the four read 0 = 0 and are left out."""
    i, cls = np.arange(r), weight_classes(r)
    flip, shift = cls % r, (i[:, None] + i) % r
    to, n = (i + np.array([[-1], [1], [0]])) % r, flip.T
    e_at = np.ravel_multi_index((n, 0, i[:, None], i), (r, 2, r, r))  # E^n[a, x]
    f_at = np.ravel_multi_index((n, 1, flip[:, :, None], flip[:, None, :]), (r, 2, r, r))
    b43 = np.ravel_multi_index((np.arange(3)[:, None, None, None], shift[:, None, :, None, None],
                                flip[to][..., None], flip[:, None, :]), (3, r, r, r))
    out = (flip * r + shift[:, None, :])[..., None]  # [s, w, x]: V4 (x) V3 coordinate of tau P
    c_at = np.array([out * r * r + cls[:, None], cls[..., None] * r * r + out.swapaxes(2, 3)])
    x, j = np.divmod(np.arange(r * r - r), r - 1)
    iP, iQ = np.concatenate([i[:-1], x]), np.concatenate([i[1:], x])
    cP = np.concatenate([i[:-1], (x + j) % r])
    keep = slice(None) if r == 2 else [0, 3]
    pos = np.array([((cP + 1) % r, iP, iQ)] * 2 + [(cP, iQ, iP)] * 2)[keep].transpose(1, 0, 2)
    gen, ab = np.array([[0], [1], [0], [1]])[keep], np.array([[1], [1], [0], [0]])[keep]
    eqs = np.ravel_multi_index((np.array([ab, 1 - ab]), gen, *pos), (2, 3, r, r, r))
    for v in (n, e_at, f_at, to, cls, b43, c_at, eqs):
        v.setflags(write=False)
    return n, e_at, f_at, to, cls, b43, eqs, c_at


def dilog_series(V1: Sequence[CyclicModule], V2: Sequence[CyclicModule],
                 rho: Sequence[complex], p: RootParams) -> np.ndarray:
    """The cyclic quantum dilogarithm Sum_n s_n E^n (x) F^n on V1[m] (x) V2[m]
    at rho[m], for each m of a stack, as weight-class blocks (`_layout`):
    [m, w, a, x] maps row x of class w to row a.

    s_0 = 1 and s_n / s_(n-1) = [1]^2 / (xi (1 - rho xi^(-2n))), for n < r.
    rho = 1 gives the truncated quantum exponential, whose truncation is
    exact when E acts nilpotently on V1 or F on V2 (the Steinberg module).
    A root rho = xi^(2n) with 0 < n < r is a pole: UnresolvableYB.
    """
    r, q, b2 = p.r, p.xi, p.qbracket(1) ** 2
    coef = np.ones((len(rho), r), dtype=complex)
    for m, x in enumerate(rho):  # in scalars, as a lone pair rounds
        for n in range(1, r):
            pole = 1 - x * q ** (-2 * n)
            if not abs(pole) > TOL:
                raise UnresolvableYB(f"the series has a pole at n = {n}")
            coef[m, n] = coef[m, n - 1] * (b2 / (q * pole))
    powers = np.empty((len(rho), r, 2, r, r), dtype=complex)  # E^n and F^n
    powers[:, 0], EF = np.eye(r), np.array([(a.E, b.F) for a, b in zip(V1, V2)])
    for n in range(1, r):
        np.matmul(powers[:, n - 1], EF, out=powers[:, n])
    n, e_at, f_at = _layout(r)[:3]
    flat = powers.reshape(len(rho), -1)
    return coef.take(n, 1)[:, None] * (flat.take(e_at, 1)[:, None] * flat.take(f_at, 1))


def rmatrix_braidings(pairs: Sequence[tuple[YColor, YColor]],
                      provider: "BraidingProvider") -> list[HolonomyBraiding]:
    """The braidings of a stack of pairs, in the R-matrix form of
    Kashaev-Reshetikhin.

    c = tau P D S: tau is the flip, S the `dilog_series` and D a diagonal
    Cartan factor on the (i, j) grid of V1 (x) V2, read on V3 (x) V4 after
    the relabeling P : (i, j) -> (i + s, j) that matches the Delta(K)
    weights.  The series root is rho = K1[0, 0] / K3[s, s].  c intertwines
    exactly when D_o (A_u)_oo' = (B_u)_oo' D_o' for u in {E, F, K}, where
    A_u = S rho12(Delta u) S^-1 and B_u = (tau P)^-1 rho43(Delta u) tau P.
    A_u must vanish wherever B_u does.  Each is a stack of weight-class
    blocks, and c a row permutation of the block-diagonal D S.  Delta(E),
    Delta(F) link grid neighbours, so D follows by recurrence from D_(0, 0) =
    1: down column 0, then along each row, every link ratio the least-squares
    ratio of its E and F equations.  A link without a coefficient on its far
    end would leave D free there; afterwards every structural equation, not
    only the links, must hold.  The inverse is S^-1 D^-1 (tau P)^-1.

    Each stage is one numpy call on the whole stack, each pair on its own
    slices, so no pair's c and c^-1 depend on the others.  Each check is
    made pair by pair, `check_sideways` last, and one failing raises for the stack.
    """
    p, r, m = provider.p, provider.p.r, len(pairs)
    for y1, y2 in pairs:
        if not pair_defined(provider.char(y1), provider.char(y2), p):
            raise Undefined("pair obstruction vanishes")
    colors = [(y1, y2, *sl2_B(y1, y2)) for y1, y2 in pairs]
    # pair by pair: a module is built from the first color of its key
    V1, V2, V4, V3 = zip(*([provider.module(y) for y in ys] for ys in colors))
    k1, k2, k3, k4 = (np.array([V.K.diagonal() for V in W]) for W in (V1, V2, V3, V4))
    s = np.abs(k3 * k4[:, :1] - (k1[:, 0] * k2[:, 0])[:, None]).argmin(axis=1)
    at, (to, cls, b43, eqs, c_at) = np.arange(m), _layout(r)[3:]
    S = dilog_series(V1, V2, k1[:, 0] / k3[at, s], p)
    S_inv = np.linalg.inv(S)
    AB = np.empty((m, 2, 3, r, r, r), dtype=complex)
    A, B = AB[:, 0], AB[:, 1]
    d = coproduct_blocks(V1 + V4, V2 + V3)  # V1 (x) V2, then V4 (x) V3
    np.matmul(S.take(to, 1) @ d[:m], S_inv[:, None], out=A)
    B[...] = d[m:].reshape(-1)[b43[s] + 3 * r ** 3 * at[:, None, None, None, None]]
    size, nz = np.abs(A), B != 0
    stray = np.where(nz, 0, size).max(axis=(2, 3, 4)) / size.max(axis=(2, 3, 4))
    for u, x in zip("EFK", stray.T):
        if not (x <= GATE).all():
            raise UnresolvableYB(
                f"no Cartan factor intertwines Delta({u}), residual {x.max():.3e}")
    a, b = AB.reshape(m, -1).take(eqs, 1).swapaxes(0, 1)
    weight = (np.abs(a) ** 2).sum(axis=1)
    if not (weight.min(axis=1) > 1e-16 * weight.max(axis=1)).all():
        raise UnresolvableYB("Cartan factor not unique: a grid link has no equation")
    step = (a.conj() * b).sum(axis=1) / weight
    col = np.cumprod(np.concatenate([np.ones((m, 1)), step[:, :r - 1]], axis=1), axis=1)
    D = np.cumprod(np.concatenate([col[:, :, None], step[:, r - 1:].reshape(m, r, -1)], axis=2),
                   axis=2).reshape(m, -1).take(cls, 1)
    # normwise per generator: an entry of B that is only rounding noise has
    # lhs and rhs of that size, and their entrywise ratio would be arbitrary
    lhs, rhs = D.take(to, 1)[..., None] * A, B * D[:, None, :, None, :]
    size = np.where(nz, np.abs(lhs) + np.abs(rhs), 0).max(axis=(2, 3, 4))
    res = (np.where(nz, np.abs(lhs - rhs), 0).max(axis=(2, 3, 4))
           / np.maximum(size, 1e-300)).max(axis=1)
    if not (res <= GATE).all():
        raise UnresolvableYB(f"no Cartan factor intertwines, residual {res.max():.3e}")
    DS = D[..., None] * S
    u = _unit_det(DS, (-1) ** (r * (r - 1) // 2))  # tau P's: a transpose; r shifts cancel
    c, c_inv = np.zeros((2, m, r * r, r * r), dtype=complex)
    at = r ** 4 * at[:, None, None, None]
    c.reshape(-1)[c_at[0, s] + at], c_inv.reshape(-1)[c_at[1, s] + at] = (
        u * DS, S_inv / D[:, :, None, :] / u)
    check_sideways(c, c_inv, np.array([provider.duality(y4).coev_R for _, _, y4, _ in colors]),
                   np.array([provider.duality(y2).ev_R for _, y2, _, _ in colors]), r)
    return [HolonomyBraiding(*ys, c[i], c_inv[i]) for i, ys in enumerate(colors)]


def rmatrix_braiding(y1: YColor, y2: YColor,
                     provider: "BraidingProvider") -> HolonomyBraiding:
    """The braiding of one pair: `rmatrix_braidings` on a stack of one."""
    return rmatrix_braidings([(y1, y2)], provider)[0]


steinberg_pair_braiding = rmatrix_braiding


def steinberg_self_braiding(provider: "BraidingProvider") -> HolonomyBraiding:
    st = steinberg_ycolor(provider.p)
    return rmatrix_braiding(st, st, provider)


# --- provider ----------------------------------------------------------------

def _char_key(chi: ZChar):
    return tuple((round(complex(z).real, 9), round(complex(z).imag, 9))
                 for z in (chi.kappa, chi.e_r, chi.f_r, chi.omega))


class BraidingProvider:
    """Caches modules, dualities and braidings by character.

    Braidings are solved and checked by `rmatrix_braidings`, pairs with a
    Steinberg factor included, and only what it returns is cached: an
    evaluation's uncached pairs as one stack (`resolve`), any other pair
    alone on its first `braiding`.  A character's module and its dualities
    are one record, built together on the first `module` or `duality` of it.
    """

    def __init__(self, p: RootParams):
        self.p = p
        self._modules: dict = {}  # character key -> (module, dualities)
        self._braidings: dict = {}
        self._chars: dict = {}

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

    def _record(self, y: YColor) -> tuple[CyclicModule, DualityData]:
        chi, key = self._lookup(y)
        if key not in self._modules:
            V = build_cyclic_module(chi, self.p)
            self._modules[key] = (V, duality_tensors(V))
        return self._modules[key]

    def module(self, y: YColor) -> CyclicModule:
        return self._record(y)[0]

    def duality(self, y: YColor) -> DualityData:
        return self._record(y)[1]

    def resolve(self, pairs: Sequence[tuple[YColor, YColor]]) -> None:
        """Solve the uncached pairs, one per key, as one stack and cache them
        all.  Best effort: if anything fails, nothing is cached and nothing
        raised, and each pair is solved, or raises, alone on its `braiding`."""
        try:
            todo: dict = {}
            for pair in pairs:
                if (key := self.pair_key(*pair)) not in self._braidings:
                    todo.setdefault(key, pair)
            if todo:
                self._braidings.update(zip(todo, rmatrix_braidings(list(todo.values()), self)))
        except (HoloinvError, np.linalg.LinAlgError):
            pass

    def braiding(self, y1: YColor, y2: YColor) -> HolonomyBraiding:
        """The braiding of a pair: cached, or solved alone and cached."""
        key = self.pair_key(y1, y2)
        if key not in self._braidings:
            self._braidings[key] = rmatrix_braiding(y1, y2, self)
        return self._braidings[key]

    def braiding_inv(self, ya: YColor, yb: YColor):
        """Inverse braiding for a negative crossing with bottom colors (ya, yb).

        Returns (top colors (u, v) = B_inv(ya, yb), matrix of c_{u,v}^(-1))."""
        u, v = sl2_B_inv(ya, yb)
        hb = self.braiding(u, v)
        return (u, v), hb.c_inv
