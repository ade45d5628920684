"""Holonomy braidings between cyclic modules.

A braiding here is an isomorphism c : V1 (x) V2 -> V4 (x) V3 whose target
colors are the biquandle images (chi4, chi3) = B(chi1, chi2), intertwining
the coproduct action: c rho12(Delta u) = rho43(Delta u) c for u in {E, F, K}.

The construction is self-contained and anchored at the Steinberg color.
When one factor of a pair is Steinberg (the self pair included), E or F
acts nilpotently and the quantum exponential series S = Sum a_n E^n (x) F^n
truncates exactly, so the braiding has the R-matrix form c = tau D S with
tau the flip and D a diagonal Cartan factor, which the intertwining
equations determine up to one scalar.
For a generic pair (x, y), the coproduct Casimir splits both tensor
products into r matched eigenblocks, each carrying a one-dimensional space
of intertwiners, so intertwining fixes the braiding only up to one scalar
per block.  The block scalars are resolved by imposing the colored
Yang-Baxter equation on the triple (x', st, y), where x' is the partner
color with B(x', st) = (st, x): every other braiding in that relation
involves the Steinberg color and is already known, which makes the
relation linear in the two remaining unknown braidings, one per side, and
pins them as a one-dimensional joint nullspace.  The overall scale of each
braiding is then fixed by det(c) = 1 via the principal root, which leaves
exactly the r^2-th root-of-unity ambiguity the theory predicts; all
scalar-level statements are therefore made modulo that group, through
ModScalar.  `skolem_noether_solve` recovers the matrix conjugating V1 (x) V2
from the images of its six generator slots.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AlphaUndefined,
    BlockIntertwinerDim,
    DegenerateSpectrum,
    NonScalarResult,
    NullspaceDimension,
    SingularSolution,
    Undefined,
    UnresolvableYB,
)
from .params import RootParams
from .sl2factor import (
    YColor,
    alpha as y_alpha,
    alpha_inv as y_alpha_inv,
    sl2_B,
    sl2_B_inv,
    steinberg_ycolor,
)
from .uqsl2 import (
    CyclicModule,
    DualityData,
    ZChar,
    build_cyclic_module,
    casimir_block_structure,
    char_from_ycolor,
    coproduct_matrices,
    duality_tensors,
)


@dataclass(frozen=True)
class ModScalar:
    """A complex scalar regarded modulo r^2-th roots of unity."""

    value: complex
    r: int

    @property
    def canonical(self) -> complex:
        return complex(self.value) ** (self.r * self.r)

    def approx_eq(self, other: "ModScalar", tol: float = 1e-9) -> bool:
        a, b = self.canonical, other.canonical
        return abs(a - b) <= tol * max(1.0, abs(a), abs(b))

    def __repr__(self):
        return f"ModScalar({self.value:.6g} mod Theta_{self.r**2})"


def pair_defined(chi1: ZChar, chi2: ZChar, p: RootParams, tol: float = 1e-9) -> bool:
    """Nonvanishing of the pair obstruction
    1 + (-1)^l [1]^(2r) chi1(K^-r E^r) chi2(F^r K^r)."""
    w = 1.0 + p.sign_ell * p.qbracket(1) ** (2 * p.r) * (
        chi1.e_r / chi1.kappa
    ) * (chi2.f_r * chi2.kappa)
    return abs(w) > tol


def _nullspace(a: np.ndarray, rel_tol: float = 1e-8) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical nullspace of a.

    A tall a is first reduced to its R factor: same row space and singular
    values, at a fraction of the SVD's cost."""
    if a.shape[0] > a.shape[1]:
        a = np.linalg.qr(a, mode="r")
    full = a.shape[0] < a.shape[1]
    _, s, vh = np.linalg.svd(a, full_matrices=full)
    if s.size == 0:
        return vh.conj().T
    cutoff = rel_tol * max(1.0, s[0])
    rank = int(np.sum(s > cutoff))
    return vh[rank:].conj().T


def _unit_det(c: np.ndarray, tol: float) -> np.ndarray:
    """c / det(c)^(1/n) with the principal root, from the log-determinant so
    that a determinant beyond the float range neither under- nor overflows."""
    sv = np.linalg.svd(c, compute_uv=False)
    if sv[-1] <= tol * max(1.0, sv[0]):
        raise SingularSolution("braiding matrix is singular")
    sign, logdet = np.linalg.slogdet(c)
    return c * np.exp(-(logdet + 1j * np.angle(sign)) / c.shape[0])


def flip_matrix(m: int, n: int) -> np.ndarray:
    """The swap V (x) W -> W (x) V on coordinates, dim V = m, dim W = n."""
    t = np.zeros((m * n, m * n), dtype=complex)
    for i in range(m):
        for j in range(n):
            t[j * m + i, i * n + j] = 1.0
    return t


@dataclass
class HolonomyBraiding:
    y1: YColor
    y2: YColor
    y4: YColor
    y3: YColor
    V1: CyclicModule
    V2: CyclicModule
    V4: CyclicModule
    V3: CyclicModule
    c: np.ndarray
    _c_inv: np.ndarray | None = field(default=None, init=False, repr=False)

    def c_inv(self) -> np.ndarray:
        """The inverse braiding matrix, computed on first use."""
        if self._c_inv is None:
            self._c_inv = np.linalg.inv(self.c)
        return self._c_inv


def _sylvester_system(pairs) -> np.ndarray:
    """Stacked matrices of X -> X A - B X on column-major vec X, one per (A, B).

    Each is kron(A^T, I) - kron(I, B), written entry by entry without the
    kron products; the entries are bitwise those of the kron form.
    """
    n = len(pairs[0][0])
    idx = np.arange(n)
    out = np.zeros((len(pairs), n, n, n, n), dtype=complex)
    for g, (a, b) in enumerate(pairs):
        out[g][:, idx, :, idx] = a.T
        out[g][idx, :, idx, :] -= b
    return out.reshape(len(pairs) * n * n, n * n)


# --- Skolem-Noether solve ------------------------------------------------------

def generator_slots(V1: CyclicModule, V2: CyclicModule) -> dict[str, np.ndarray]:
    """The six generator images E (x) 1, ..., 1 (x) K on V1 (x) V2."""
    I1 = np.eye(V1.r, dtype=complex)
    I2 = np.eye(V2.r, dtype=complex)
    return {
        "E1": np.kron(V1.E, I2),
        "F1": np.kron(V1.F, I2),
        "K1": np.kron(V1.K, I2),
        "E2": np.kron(I1, V2.E),
        "F2": np.kron(I1, V2.F),
        "K2": np.kron(I1, V2.K),
    }


def skolem_noether_solve(
    auto: dict[str, np.ndarray],
    V1: CyclicModule,
    V2: CyclicModule,
    tol: float = 1e-9,
) -> np.ndarray:
    """Solve R rho12(g) = auto[g] R for the six generator slots g.

    The solution space must be one-dimensional; the representative is scaled
    to det(R) = 1 with the principal root, and returned *without* the flip
    (callers compose with the swap to produce a braiding).
    """
    slots = generator_slots(V1, V2)
    n = V1.r * V2.r
    ns = _nullspace(_sylvester_system(
        [(a, np.asarray(auto[g], dtype=complex)) for g, a in slots.items()]))
    if ns.shape[1] != 1:
        raise NullspaceDimension(ns.shape[1])
    R = ns[:, 0].reshape((n, n), order="F")
    return _unit_det(R, tol)


# --- Casimir blocks ------------------------------------------------------------

@dataclass
class BlockBraiding:
    """A braiding resolved only up to one scalar per Casimir block."""

    y1: YColor
    y2: YColor
    y4: YColor
    y3: YColor
    V1: CyclicModule
    V2: CyclicModule
    V4: CyclicModule
    V3: CyclicModule
    blocks: tuple[np.ndarray, ...]  # rank-r pieces of c, unit Frobenius norm

    def assemble(self, lambdas) -> np.ndarray:
        return sum(l * b for l, b in zip(lambdas, self.blocks))


def _char_key(chi: ZChar, digits: int = 9):
    def ck(z):
        z = complex(z)
        return (round(z.real, digits), round(z.imag, digits))

    return (ck(chi.kappa), ck(chi.e_r), ck(chi.f_r), ck(chi.omega))


def block_braiding(
    y1: YColor, y2: YColor, provider: "BraidingProvider"
) -> BlockBraiding:
    """Build the braiding of a pair up to block scalars.

    Matches the Casimir eigenblocks of V1 (x) V2 and V4 (x) V3 by eigenvalue
    and solves the one-dimensional intertwiner space of each matched block.
    """
    p, tol = provider.p, provider.tol
    if not pair_defined(provider.char(y1), provider.char(y2), p, tol):
        raise Undefined("pair obstruction vanishes")
    y4, y3 = sl2_B(y1, y2, tol)
    V1, V2, V4, V3 = (provider.module(y) for y in (y1, y2, y4, y3))
    b12 = casimir_block_structure(V1, V2)
    b43 = casimir_block_structure(V4, V3)
    d12 = coproduct_matrices(V1, V2)
    d43 = coproduct_matrices(V4, V3)
    r = p.r
    scale = max(1.0, max(abs(v) for v in b12.values))
    blocks = []
    for i, val in enumerate(b12.values):
        js = [j for j, v in enumerate(b43.values) if abs(v - val) <= 1e-6 * scale]
        if len(js) != 1:
            raise DegenerateSpectrum(
                "Casimir eigenvalues do not match bijectively"
            )
        j = js[0]
        P, Pc = b12.bases[i], b12.cobases[i]
        Q, Qc = b43.bases[j], b43.cobases[j]
        ns = _nullspace(_sylvester_system(
            [(Pc @ d12[g] @ P, Qc @ d43[g] @ Q) for g in ("E", "F", "K")]))
        if ns.shape[1] != 1:
            raise BlockIntertwinerDim(ns.shape[1])
        M = ns[:, 0].reshape((r, r), order="F")
        piece = Q @ M @ Pc
        blocks.append(piece / np.linalg.norm(piece))
    return BlockBraiding(y1=y1, y2=y2, y4=y4, y3=y3,
                         V1=V1, V2=V2, V4=V4, V3=V3, blocks=tuple(blocks))


# --- sideways and scalar comparison ------------------------------------------

def sideways_matrices(
    c: np.ndarray,
    c_inv: np.ndarray,
    d4: DualityData,
    d2: DualityData,
    r: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The two sideways morphisms built from a braiding and dualities.

    s_plus_L : V4* (x) V1 -> V3 (x) V2* threads the braiding through a left
    cup on V2 and a left cap on V4; s_minus_R : V3 (x) V2* -> V4* (x) V1 uses
    the inverse braiding with the right-handed cups and caps.  Both are
    contracted in index form, with c and c_inv as (out, out, in, in) tensors
    and the cups and caps as r x r matrices.
    """
    s_plus = np.einsum("ax,xyiz,zj->yjai", d4.ev_L.reshape(r, r),
                       c.reshape(r, r, r, r), d2.coev_L.reshape(r, r))
    s_minus = np.einsum("ax,ibxu,bv->aiuv", d4.coev_R.reshape(r, r),
                        c_inv.reshape(r, r, r, r), d2.ev_R.reshape(r, r))
    return s_plus.reshape(r * r, r * r), s_minus.reshape(r * r, r * r)


def proportionality(a: np.ndarray, b: np.ndarray) -> tuple[complex, float]:
    """Best scalar s with a = s b, and the relative residual."""
    denom = np.vdot(b, b)
    if abs(denom) == 0:
        return 0.0, float(np.abs(a).max())
    s = np.vdot(b, a) / denom
    res = float(np.abs(a - s * b).max()) / max(1.0, float(np.abs(a).max()))
    return complex(s), res


def equal_mod_roots(
    a: np.ndarray, b: np.ndarray, r: int, tol: float = 1e-6
) -> tuple[bool, complex, float]:
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


def _yb_pairs(y1: YColor, y2: YColor, y3: YColor, tol: float):
    """The six colored pairs of the braid relation and the output colors."""
    sides = []
    for word in (_WORD_L, _WORD_R):
        colors = [y1, y2, y3]
        pairs = []
        for pos in word:
            a, b = colors[pos], colors[pos + 1]
            t4, t3 = sl2_B(a, b, tol)
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


def unipotent_series(
    V1: CyclicModule, V2: CyclicModule, p: RootParams
) -> np.ndarray:
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
        S += coef * np.kron(En, Fn)
    return S


def steinberg_self_braiding(provider: "BraidingProvider") -> HolonomyBraiding:
    """The braiding of the Steinberg module with itself.

    `steinberg_pair_braiding` on (st, st); a separate name, so that the
    self pair can be traced on its own (perfbench/spans.py)."""
    st = provider.steinberg
    return steinberg_pair_braiding(st, st, provider)


def steinberg_pair_braiding(
    y1: YColor, y2: YColor, provider: "BraidingProvider"
) -> HolonomyBraiding:
    """Braiding of a pair with a Steinberg factor, the self pair included.

    It has the R-matrix form c = tau D S: tau is the flip, S the truncated
    `unipotent_series` and D a diagonal Cartan factor.  c intertwines
    exactly when D A_u = B_u D for u in {E, F, K}, where
    A_u = S rho12(Delta u) S^-1 and B_u = tau rho43(Delta u) tau; entrywise,
    D_i (A_u)_ij = (B_u)_ij D_j.  B_u is a kron product with exact zeros,
    so each of its structural nonzeros gives one equation on D, whose
    solution must be one-dimensional, and A_u must vanish wherever B_u
    does: without that check the result need not intertwine.
    """
    p, tol = provider.p, provider.tol
    if not pair_defined(provider.char(y1), provider.char(y2), p, tol):
        raise Undefined("pair obstruction vanishes")
    y4, y3 = sl2_B(y1, y2, tol)
    V1, V2, V4, V3 = (provider.module(y) for y in (y1, y2, y4, y3))
    r = p.r
    S = unipotent_series(V1, V2, p)
    S_inv = np.linalg.inv(S)
    tau, eye = flip_matrix(r, r), np.eye(r * r)
    d12, d43 = coproduct_matrices(V1, V2), coproduct_matrices(V4, V3)
    rows = []
    for u in ("E", "F", "K"):
        a = S @ d12[u] @ S_inv
        b = tau @ d43[u] @ tau
        stray = np.abs(a[b == 0]).max(initial=0.0) / np.abs(a).max()
        if stray > max(1e3 * tol, 1e-8):
            raise UnresolvableYB(f"no Cartan factor intertwines Delta({u}), "
                                 f"residual {stray:.3e}")
        i, j = np.nonzero(b)
        rows.append(a[i, j, None] * eye[i] - b[i, j, None] * eye[j])
    ns = _nullspace(np.vstack(rows))
    if ns.shape[1] != 1:
        raise UnresolvableYB(
            f"Cartan-factor nullspace dim {ns.shape[1]} for a "
            "Steinberg-anchored pair"
        )
    c = _unit_det(tau @ (ns[:, :1] * S), tol)
    return HolonomyBraiding(y1=y1, y2=y2, y4=y4, y3=y3,
                            V1=V1, V2=V2, V4=V4, V3=V3, c=c)


def _anchored_triple_solve(
    trip: tuple[YColor, YColor, YColor],
    provider: "BraidingProvider",
    tol: float,
) -> dict:
    """Resolve the two generic braidings of one braid-relation triple.

    Every member pair that involves the Steinberg color enters with its
    closed-form matrix; each side must have exactly one other member, whose
    block scalars are unknown.  The relation is linear in the two sets of
    block scalars, and their joint nullspace must be one-dimensional.  Each
    solution is det-normalized; a pair already cached, or determined by both
    sides, must agree with its first determination up to an r^2-th root of
    unity, and any other is sideways-checked and cached.  The full relation
    is then verified up to an r^2-th root of unity; on any failure the
    braidings cached here are dropped again.
    """
    r = provider.p.r
    pairs_l, pairs_r, out = _yb_pairs(*trip, tol)
    sides = []
    for pairs, word in ((pairs_l, _WORD_L), (pairs_r, _WORD_R)):
        generic = [i for i, (a, b) in enumerate(pairs)
                   if not (provider.is_steinberg(a) or provider.is_steinberg(b))]
        if len(generic) != 1:
            raise UnresolvableYB(f"{len(generic)} unresolved braidings on one "
                                 "side of the relation, want 1")
        i0 = generic[0]
        known = {i: provider.braiding(*pair)
                 for i, pair in enumerate(pairs) if i != i0}
        unk = (i0, pairs[i0], block_braiding(*pairs[i0], provider))
        sides.append((word, known, unk))

    def columns(word, known, unk):
        # column j is (pre @ b_j @ post).ravel(), with b_j the j-th block on
        # the unknown's strands; all blocks go through pre side by side
        i0, _, bb = unk
        post = np.eye(r ** 3, dtype=complex)
        for i in range(i0):
            post = _on_strands(known[i].c, word[i], post, r)
        cols = np.hstack([_on_strands(b, word[i0], post, r)
                          for b in bb.blocks])
        for i in range(i0 + 1, len(word)):
            cols = _on_strands(known[i].c, word[i], cols, r)
        nb = len(bb.blocks)
        cols = cols.reshape(r ** 3, nb, r ** 3).transpose(1, 0, 2)
        return cols.reshape(nb, r ** 6).T

    # named, so both stay alive through the solve: freeing them earlier
    # raised the peak RSS of resolving at r = 7 by about 5 MB (allocator reuse)
    cols_l = columns(*sides[0])
    cols_r = columns(*sides[1])
    ns = _nullspace(np.hstack([cols_l, -cols_r]))
    if ns.shape[1] != 1:
        raise UnresolvableYB(f"braid-relation joint nullspace dim {ns.shape[1]}")
    unks = [unk for _, _, unk in sides]
    nl = len(unks[0][2].blocks)
    added: list = []
    try:
        for (_, pair, bb), lam in zip(unks, (ns[:nl, 0], ns[nl:, 0])):
            c = _unit_det(bb.assemble(lam), tol)
            key = provider.pair_key(*pair)
            if key in provider._braidings:
                ok, _, res = equal_mod_roots(provider._braidings[key].c, c,
                                             r, max(1e3 * tol, 1e-8))
                if not ok:
                    raise UnresolvableYB(
                        "repeated-pair determinations disagree, residual "
                        f"{res:.3e}"
                    )
                continue
            hb = HolonomyBraiding(y1=bb.y1, y2=bb.y2, y4=bb.y4, y3=bb.y3,
                                  V1=bb.V1, V2=bb.V2, V4=bb.V4, V3=bb.V3, c=c)
            provider._check_sideways(hb)
            provider._braidings[key] = hb
            added.append(key)
        report = _verified_relation(provider, pairs_l, pairs_r, tol)
    except Exception:
        for key in added:
            provider._braidings.pop(key, None)
        raise
    return {**report, "colors": out}


def resolve_scalars_yb(
    y1: YColor,
    y2: YColor,
    y3: YColor,
    provider: "BraidingProvider",
    tol: float = 1e-9,
) -> dict:
    """Resolve and verify the six braidings of a braid-relation triple.

    Each of the six pairs appearing in the two sides of the colored braid
    relation on (y1, y2, y3) is resolved through the provider (closed-form
    for Steinberg-anchored pairs, linear Yang-Baxter solve for generic
    pairs, cached braidings reused as-is), and the assembled relation is
    verified to hold up to a single r^2-th root of unity with residual
    <= 1e3 tol.  Returns the two composite matrices, the root factor, the
    residual, and the output colors.
    """
    pairs_l, pairs_r, out = _yb_pairs(y1, y2, y3, tol)
    for a, b in pairs_l + pairs_r:
        provider.braiding(a, b)
    return {**_verified_relation(provider, pairs_l, pairs_r, tol),
            "colors": out}


def _verified_relation(provider, pairs_l, pairs_r, tol) -> dict:
    """Both sides of the braid relation from cached braidings, which must
    agree up to one r^2-th root of unity."""
    lhs = _total_from_cache(provider, pairs_l, _WORD_L)
    rhs = _total_from_cache(provider, pairs_r, _WORD_R)
    ok, zeta, resid = equal_mod_roots(lhs, rhs, provider.p.r,
                                      max(1e3 * tol, 1e-8))
    if not ok:
        raise UnresolvableYB(
            f"braid relation fails up to roots of unity, residual {resid:.3e}"
        )
    return {"lhs": lhs, "rhs": rhs, "zeta": zeta, "residual": resid}


def _total_from_cache(provider, pairs, word):
    r = provider.p.r
    total = np.eye(r ** 3, dtype=complex)
    for (a, b), pos in zip(pairs, word):
        hb = provider.braiding(a, b)
        total = _on_strands(hb.c, pos, total, r)
    return total


# --- provider ----------------------------------------------------------------

class BraidingProvider:
    """Caches modules, dualities and resolved braidings keyed by character.

    Braidings are resolved deterministically by anchoring Yang-Baxter
    triples at the Steinberg color.  Every cyclic module the braidings use
    comes from `module`, so each character's module is built once.
    """

    def __init__(self, p: RootParams, tol: float = 1e-9):
        self.p = p
        self.tol = tol
        self.modules: dict = {}
        self._braidings: dict = {}
        self._duals: dict = {}
        self.steinberg = steinberg_ycolor(p)
        self._st_key = _char_key(char_from_ycolor(self.steinberg, p, tol))

    def char(self, y: YColor) -> ZChar:
        return char_from_ycolor(y, self.p, self.tol)

    def is_steinberg(self, y: YColor) -> bool:
        return _char_key(self.char(y)) == self._st_key

    def pair_key(self, y1: YColor, y2: YColor):
        return (_char_key(self.char(y1)), _char_key(self.char(y2)))

    def module(self, y: YColor) -> CyclicModule:
        chi = self.char(y)
        key = _char_key(chi)
        if key not in self.modules:
            self.modules[key] = build_cyclic_module(chi, self.p, self.tol)
        return self.modules[key]

    def duality(self, y: YColor) -> DualityData:
        key = _char_key(self.char(y))
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
        return sl2_B(y, self.steinberg, self.tol)[1]

    def _resolve_anchored(self, y1: YColor, y2: YColor, key) -> HolonomyBraiding:
        """Resolve a generic pair through a Steinberg-anchored braid relation.

        In the triple (y1', st, y2) with B(y1', st) = (st, y1), the only
        members not involving the Steinberg color are (y1, y2) and one
        partner pair, each appearing once per side, so the relation is
        linear in their block scalars.  The placement with the anchor on
        the other strand serves as a fallback for degenerate spectra.
        """
        st = self.steinberg
        last: Exception | None = None
        for trip in ((self._preflip(y1), st, y2),
                     (y1, st, self._preflip(y2))):
            try:
                _anchored_triple_solve(trip, self, self.tol)
            except Undefined as e:
                last = e
                continue
            if key in self._braidings:
                return self._braidings[key]
        raise UnresolvableYB(f"could not resolve braiding scalars: {last}")

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
        ok, _, res = equal_mod_roots(s_minus @ s_plus, eye, r,
                                     max(1e3 * self.tol, 1e-8))
        if not ok:
            raise UnresolvableYB(
                f"sideways morphisms do not invert, residual {res:.3e}"
            )

    def braiding_inv(self, ya: YColor, yb: YColor):
        """Inverse braiding for a negative crossing with bottom colors (ya, yb).

        Returns (top colors (u, v) = B_inv(ya, yb), matrix of c_{u,v}^(-1))."""
        u, v = sl2_B_inv(ya, yb, self.tol)
        hb = self.braiding(u, v)
        return (u, v), hb.c_inv()


# --- twist --------------------------------------------------------------------

def twist(
    y: YColor, provider: BraidingProvider, tol: float = 1e-9
) -> ModScalar:
    """The twist scalar of a color, from braiding with its diagonal partner.

    Computed by closing the braiding c_{x, alpha(x)} to the right; the left
    closure through alpha^{-1}(x) must give the same scalar up to an r^2-th
    root of unity.  Where alpha or its inverse has no value, their
    OutsideGPrime (an Undefined) propagates.
    """
    p = provider.p
    r = p.r
    I = np.eye(r, dtype=complex)
    ax = y_alpha(y, tol)
    az = y_alpha_inv(y, tol)
    hb = provider.braiding(y, ax)
    if not (hb.y4.approx_eq(y, 1e-6) and hb.y3.approx_eq(ax, 1e-6)):
        raise AlphaUndefined("diagonal partner is not a braiding fixed point")
    dax = provider.duality(ax)
    right = (
        np.kron(I, dax.ev_R) @ np.kron(hb.c, I) @ np.kron(I, dax.coev_L)
    )
    s, res = proportionality(right, I)
    if res > max(tol * 1e3, 1e-8):
        raise NonScalarResult(f"twist endomorphism residual {res:.3e}")
    if abs(s) <= 1e-6:
        raise NonScalarResult("twist scalar vanishes")
    # left version through the inverse diagonal
    hb2 = provider.braiding(az, y)
    daz = provider.duality(az)
    left = (
        np.kron(daz.ev_L, I) @ np.kron(I, hb2.c) @ np.kron(daz.coev_R, I)
    )
    s2, res2 = proportionality(left, I)
    if res2 > max(tol * 1e3, 1e-8):
        raise NonScalarResult(f"left twist endomorphism residual {res2:.3e}")
    if not ModScalar(s, r).approx_eq(ModScalar(s2, r), max(tol * 1e3, 1e-8)):
        raise NonScalarResult("left and right twists disagree beyond roots")
    return ModScalar(complex(s), r)


def steinberg_encirclement(
    y: YColor, provider: BraidingProvider, tol: float = 1e-9
) -> ModScalar:
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
    if res > max(tol * 1e3, 1e-8):
        raise NonScalarResult(f"encirclement residual {res:.3e}")
    return ModScalar(complex(s), r)
