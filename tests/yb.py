"""The colored braid relation, as an oracle for the tests (not collected).

The program resolves each braiding on its own (`braiding.rmatrix_braiding`);
nothing in it imposes the Yang-Baxter equation.  These helpers assemble
both sides of the braid relation on three strands from a provider's
braidings, so that a test can check the relation to GATE modulo r^2-th
roots of unity.
"""

from __future__ import annotations

import numpy as np

from holoinv.braiding import equal_mod_roots
from holoinv.errors import Undefined, UnresolvableYB
from holoinv.params import GATE
from holoinv.sl2factor import YColor, sl2_B
from holoinv.uqsl2 import kron


def flip_matrix(m: int, n: int) -> np.ndarray:
    """The swap V (x) W -> W (x) V on coordinates, dim V = m, dim W = n."""
    eye = np.eye(m * n, dtype=complex).reshape(m, n, m * n)
    return eye.swapaxes(0, 1).reshape(m * n, m * n)


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


# positions of the six braidings in the two sides of the braid relation on
# three strands; side L is sigma1 sigma2 sigma1, side R is sigma2 sigma1 sigma2
_WORD_L = (0, 1, 0)
_WORD_R = (1, 0, 1)


def preflip(y: YColor, provider) -> YColor:
    """The color y' with B(y', st) = (st, y); at odd ell y' = y."""
    return sl2_B(y, provider.steinberg)[1]


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


def resolve_scalars_yb(y1: YColor, y2: YColor, y3: YColor, provider) -> dict:
    """Resolve and verify the six braidings of a braid-relation triple.

    Each of the six pairs appearing in the two sides of the colored braid
    relation on (y1, y2, y3) is resolved through the provider (cached
    braidings reused as-is), and the assembled relation is verified to hold
    up to a single r^2-th root of unity with residual <= GATE.  Returns the
    two composite matrices, the root factor, the residual, and the output
    colors.
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
