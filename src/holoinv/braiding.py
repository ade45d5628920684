"""Holonomy braidings between cyclic modules.

A braiding here is an isomorphism c : V1 (x) V2 -> V4 (x) V3 whose target
colors are the biquandle images (chi4, chi3) = B(chi1, chi2), intertwining
the coproduct action: c rho12(Delta u) = rho43(Delta u) c for u in {E, F, K}.

The construction is self-contained and anchored at the Steinberg color;
every braiding comes from `steinberg_pair_braiding` or `block_braiding`.
When one factor of a pair is Steinberg (the self pair included), E or F
acts nilpotently and the quantum exponential series S = Sum a_n E^n (x) F^n
truncates exactly, so the braiding has the R-matrix form c = tau D S with
tau the flip and D diagonal, which a recurrence along the (i, j) grid of
V1 (x) V2 fixes up to one scalar.
For a generic pair (x, y), the coproduct Casimir splits both tensor
products into r matched eigenblocks, one vector per Delta(K) weight class
each, solved once per pair and provider, one r x r class at a time.  The
Delta(E) and Delta(F) recurrence between neighbouring classes gives the
intertwiner of a matched block pair, which fixes the braiding up to one
scalar per block.  The block scalars are resolved by imposing the colored
Yang-Baxter equation, on two fixed probe vectors, on the triple
(x', st, y), where x' is the partner color with B(x', st) = (st, x): every
other braiding in that relation involves the Steinberg color and is
already known, so the relation is linear in the unknown braiding of each
side (at most ell the same pair, built once) and pins their block
scalars as a one-dimensional joint nullspace; the full relation is
verified afterwards.  The overall scale of each braiding is then fixed by
det(c) = 1 via the principal root, which leaves exactly the r^2-th
root-of-unity ambiguity the theory predicts; all scalar-level statements
are therefore made modulo that group, through ModScalar.
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


def _nullspace(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical nullspace of a.

    A tall a is first reduced to its R factor: same row space and singular
    values, at a fraction of the SVD's cost."""
    if a.shape[0] > a.shape[1]:
        a = np.linalg.qr(a, mode="r")
    full = a.shape[0] < a.shape[1]
    _, s, vh = np.linalg.svd(a, full_matrices=full)
    if s.size == 0:
        return vh.conj().T
    cutoff = 1e-8 * max(1.0, s[0])
    rank = int(np.sum(s > cutoff))
    return vh[rank:].conj().T


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


# --- Yang-Baxter scalar resolution -------------------------------------------

# positions of the six braidings in the two sides of the braid relation on
# three strands; side L is sigma1 sigma2 sigma1, side R is sigma2 sigma1 sigma2
_WORD_L = (0, 1, 0)
_WORD_R = (1, 0, 1)


def _yb_pairs(y1: YColor, y2: YColor, y3: YColor):
    """The six colored pairs of the braid relation and the output colors."""
    sides = []
    for word in (_WORD_L, _WORD_R):
        colors = [y1, y2, y3]
        pairs = []
        for pos in word:
            a, b = colors[pos], colors[pos + 1]
            t4, t3 = sl2_B(a, b)
            pairs.append((a, b))
            colors[pos], colors[pos + 1] = t4, t3
        sides.append((pairs, colors))
    (pairs_l, out_l), (pairs_r, out_r) = sides
    for a, b in zip(out_l, out_r):
        if not a.approx_eq(b, 1e-6):
            raise Undefined("output colors of the braid relation disagree")
    return pairs_l, pairs_r, out_l


def _on_strands(c: np.ndarray, pos: int, m: np.ndarray, r: int) -> np.ndarray:
    """Apply c to strands (pos, pos + 1) of m, whose r^3 rows are 3 strands.

    Equals kron(c, I) @ m for pos 0 and kron(I, c) @ m for pos 1.
    """
    k = m.shape[1]
    if pos == 0:
        return (c @ m.reshape(r * r, r * k)).reshape(r ** 3, k)
    return (c @ m.reshape(r, r * r, k)).reshape(r ** 3, k)


def unipotent_series(V1: CyclicModule, V2: CyclicModule, p: RootParams) -> np.ndarray:
    """The quantum exponential Sum_n a_n E^n (x) F^n on V1 (x) V2.

    a_n = (q - q^{-1})^n q^{n(n-1)/2} / [n]! with [n] the balanced quantum
    integer, truncated at n = r - 1.  The truncation is exact exactly when E
    acts nilpotently on V1 or F acts nilpotently on V2 (in particular when
    either factor is the Steinberg module).  It is the factor S of the
    Steinberg-anchored braidings tau D S of `steinberg_pair_braiding`, the
    only place the series is used.
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


def _probes(r: int) -> np.ndarray:
    """Two fixed pseudo-random complex vectors on three strands, seeded by r."""
    g = np.random.default_rng(r).standard_normal((2, r ** 3, 2))
    return g[0] + 1j * g[1]


def _anchored_triple_solve(trip: tuple[YColor, YColor, YColor],
                           provider: "BraidingProvider") -> dict:
    """Resolve the two generic braidings of one braid-relation triple.

    Every member pair that involves the Steinberg color enters with its
    closed-form matrix; each side must have exactly one other member, whose
    block scalars are unknown.  The relation is linear in the two sets of
    block scalars.  It is imposed on two fixed probe vectors (`_probes`), a
    system of 2 r^3 rows, whose joint nullspace must be one-dimensional.  Each
    solution is det-normalized; a pair already cached, or determined by both
    sides, must agree with its first determination up to an r^2-th root of
    unity, and any other is sideways-checked and cached.  The full relation
    is then verified up to an r^2-th root of unity; on any failure the
    braidings cached here are dropped again.
    """
    r = provider.p.r
    pairs_l, pairs_r, out = _yb_pairs(*trip)
    unks, cols = [], []
    for pairs, word in ((pairs_l, _WORD_L), (pairs_r, _WORD_R)):
        generic = [i for i, (a, b) in enumerate(pairs)
                   if not (provider.is_steinberg(a) or provider.is_steinberg(b))]
        if len(generic) != 1:
            raise UnresolvableYB(f"{len(generic)} unresolved braidings on one "
                                 "side of the relation, want 1")
        i0 = generic[0]
        known = [None if i == i0 else provider.braiding(*pair).c
                 for i, pair in enumerate(pairs)]
        key = provider.pair_key(*pairs[i0])  # both sides often share it
        bb = (unks[0][1] if unks and unks[0][0] == key
              else block_braiding(*pairs[i0], provider))
        unks.append((key, bb))
        # column j is this side, with the j-th block for the unknown braiding,
        # applied to the probes and raveled; all blocks go through side by side
        m = _probes(r)
        for c, pos in zip(known, word):
            m = (_on_strands(c, pos, m, r) if c is not None else
                 np.hstack([_on_strands(b, pos, m, r) for b in bb.blocks]))
        n = len(bb.blocks)
        cols.append(m.reshape(r ** 3, n, -1).swapaxes(1, 2).reshape(-1, n))
    ns = _nullspace(np.hstack([cols[0], -cols[1]]))
    if ns.shape[1] != 1:
        raise UnresolvableYB(f"braid-relation joint nullspace dim {ns.shape[1]}")
    nl = cols[0].shape[1]
    added: list = []
    try:
        for (key, bb), lam in zip(unks, (ns[:nl, 0], ns[nl:, 0])):
            c = _unit_det(bb.assemble(lam))
            if key in provider._braidings:
                ok, _, res = equal_mod_roots(provider._braidings[key].c, c, r, GATE)
                if not ok:
                    raise UnresolvableYB("repeated-pair determinations "
                                         f"disagree, residual {res:.3e}")
                continue
            hb = HolonomyBraiding(y1=bb.y1, y2=bb.y2, y4=bb.y4, y3=bb.y3, c=c)
            provider._check_sideways(hb)
            provider._braidings[key] = hb
            added.append(key)
        report = _verified_relation(provider, pairs_l, pairs_r)
    except Exception:
        for key in added:
            provider._braidings.pop(key, None)
        raise
    return {**report, "colors": out}


def resolve_scalars_yb(y1: YColor, y2: YColor, y3: YColor,
                       provider: "BraidingProvider") -> dict:
    """Resolve and verify the six braidings of a braid-relation triple.

    Each of the six pairs appearing in the two sides of the colored braid
    relation on (y1, y2, y3) is resolved through the provider (closed-form
    for Steinberg-anchored pairs, linear Yang-Baxter solve for generic
    pairs, cached braidings reused as-is), and the assembled relation is
    verified to hold up to a single r^2-th root of unity with residual
    <= GATE.  Returns the two composite matrices, the root factor,
    the residual, and the output colors.
    """
    pairs_l, pairs_r, out = _yb_pairs(y1, y2, y3)
    for a, b in pairs_l + pairs_r:
        provider.braiding(a, b)
    return {**_verified_relation(provider, pairs_l, pairs_r),
            "colors": out}


def _verified_relation(provider, pairs_l, pairs_r) -> dict:
    """Both sides of the braid relation from cached braidings, which must
    agree up to one r^2-th root of unity."""
    lhs = _total_from_cache(provider, pairs_l, _WORD_L)
    rhs = _total_from_cache(provider, pairs_r, _WORD_R)
    ok, zeta, resid = equal_mod_roots(lhs, rhs, provider.p.r, GATE)
    if not ok:
        raise UnresolvableYB("braid relation fails up to roots of unity, "
                             f"residual {resid:.3e}")
    return {"lhs": lhs, "rhs": rhs, "zeta": zeta, "residual": resid}


def _total_from_cache(provider, pairs, word):
    """One side of the braid relation as an r^3 x r^3 matrix; the first
    braiding enters as its kron embedding, the others by `_on_strands`."""
    eye = np.eye(provider.p.r, dtype=complex)
    c = provider.braiding(*pairs[0]).c
    total = kron(c, eye) if word[0] == 0 else kron(eye, c)
    for (a, b), pos in zip(pairs[1:], word[1:]):
        total = _on_strands(provider.braiding(a, b).c, pos, total, provider.p.r)
    return total


# --- provider ----------------------------------------------------------------

class BraidingProvider:
    """Caches modules, dualities, Casimir blocks and braidings by character.

    Braidings are resolved deterministically by anchoring Yang-Baxter
    triples at the Steinberg color.  Modules and Casimir blocks come from
    `module` and `blocks`, built once per character or pair of characters.
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
            hb = self._resolve_anchored(y1, y2, key)
        self._check_sideways(hb)
        self._braidings[key] = hb
        return hb

    def _preflip(self, y: YColor) -> YColor:
        """The color y' with B(y', st) = (st, y); at odd ell y' = y."""
        return sl2_B(y, self.steinberg)[1]

    def _resolve_anchored(self, y1: YColor, y2: YColor, key) -> HolonomyBraiding:
        """Resolve a generic pair through a Steinberg-anchored braid relation.

        In the triple (y1', st, y2) with B(y1', st) = (st, y1), the only
        members not involving the Steinberg color are (y1, y2) and one
        partner pair, each appearing once per side, so the relation is
        linear in their block scalars.  This one placement is the only one
        tried; where it fails, the pair raises UnresolvableYB.
        """
        try:
            _anchored_triple_solve((self._preflip(y1), self.steinberg, y2), self)
        except Undefined as e:
            raise UnresolvableYB(f"could not resolve braiding scalars: {e}") from e
        if key not in self._braidings:
            raise UnresolvableYB("could not resolve braiding scalars: "
                                 "the anchored relation misses the pair")
        return self._braidings[key]

    def _check_sideways(self, hb: HolonomyBraiding) -> None:
        """Reject any braiding whose sideways morphisms fail to invert.

        The two sideways morphisms of a genuine braiding compose to the
        identity up to an r^2-th root of unity; this is the property that
        separates the braiding ray from other Yang-Baxter-compatible rays,
        so it is enforced on every resolution.
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
