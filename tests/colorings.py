"""Non-abelian SL(2, C) colorings of braid closures, by Gauss-Newton on the
closure seam.

The bottom colors x_1..x_n of a braid on n strands color its closure when
the braid carries them to themselves.  x_1 = [[m, 1], [0, 1/m]] is fixed and
x_2 = [[1/m', 0], [u, m']] is lower triangular, which fixes the conjugation
gauge: e_1 and e_2 are the eigenvectors of x_1 and x_2 to m and m' (in the
form with 1/m' and m' swapped, random starts reach one of 4_1's two roots at
m = e^(0.3+0.7i) only rarely).  x_3..x_n are free 2x2 matrices, held to
det 1 and trace m + 1/m by two residuals each.  Each strand's m is the
meridian eigenvalue of its component.  The braid acts in the program's convention: sigma_i sends
(a, b) to (a^-1 b a, a), sigma_i^-1 sends it to (b, b a b^-1), with
adjugates for the inverses, so every residual is a polynomial in the
unknowns and its finite-difference Jacobian is complex linear.  From seeded
random starts, `lstsq` steps; a solution is kept when its seam is at most
1e-11 and x_1, x_2 do not commute, one per tr(x_1 x_2).
"""

from __future__ import annotations

import numpy as np

SEAM = 1e-11


def _adj(a: np.ndarray) -> np.ndarray:
    """The adjugate, the inverse of a determinant-1 matrix."""
    return np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]])


def components(strands: int, word) -> list[int]:
    """The component of each bottom strand of the closure, numbered in the
    order of their least strands."""
    pos = list(range(strands))  # bottom strand -> its top position
    for g in word:
        a = abs(g) - 1
        pos = [a + 1 if p == a else a if p == a + 1 else p for p in pos]
    label = [-1] * strands
    for s in range(strands):
        k = s
        while label[k] < 0:
            label[k], k = s, pos[k]
    return [sorted(set(label)).index(c) for c in label]


def propagate(word, mats) -> list[np.ndarray]:
    """The top colors of the braid with bottom colors `mats`."""
    cur = list(mats)
    for g in word:
        i = abs(g) - 1
        a, b = cur[i], cur[i + 1]
        cur[i], cur[i + 1] = (_adj(a) @ b @ a, a) if g > 0 else (b, b @ a @ _adj(b))
    return cur


def seam(word, mats) -> float:
    """How far the braid moves its bottom colors: 0 on a coloring."""
    return float(max(np.abs(t - x).max() for t, x in zip(propagate(word, mats), mats)))


def _colors(z: np.ndarray, ms) -> list[np.ndarray]:
    return [np.array([[ms[0], 1], [0, 1 / ms[0]]]), np.array([[1 / ms[1], 0], [z[0], ms[1]]]),
            *z[1:].reshape(-1, 2, 2)]


def _residual(z: np.ndarray, word, ms) -> np.ndarray:
    mats = _colors(z, ms)
    eqs = [(t - x).ravel() for t, x in zip(propagate(word, mats), mats)]
    eqs += [[np.linalg.det(x) - 1, np.trace(x) - m - 1 / m] for x, m in zip(mats[2:], ms[2:])]
    return np.concatenate(eqs)


def colorings(strands: int, word, meridians, starts: int = 60, seed: int = 0,
              steps: int = 60) -> list[tuple[list[np.ndarray], float]]:
    """The non-abelian colorings found of the closure of `word` on `strands`
    strands, with meridian eigenvalue meridians[c] on component c
    (`components`): (bottom colors, seam residual) pairs, by tr(x_1 x_2)."""
    ms = [meridians[c] for c in components(strands, word)]
    rng = np.random.default_rng(seed)
    found: dict = {}
    for _ in range(starts):
        z = rng.normal(size=(4 * strands - 7, 2)) @ [1, 1j]
        with np.errstate(all="ignore"):
            for _ in range(steps):
                f = _residual(z, word, ms)
                if not np.isfinite(f).all() or np.abs(f).max() <= 1e-14:
                    break
                h = 1e-7 * max(1.0, np.abs(z).max())
                jac = np.stack([_residual(z + h * e, word, ms) - f
                                for e in np.eye(len(z))], axis=1) / h
                z = z - np.linalg.lstsq(jac, f, rcond=None)[0]
        mats = _colors(z, ms)
        if not np.isfinite(z).all() or seam(word, mats) > SEAM:
            continue
        if np.abs(mats[0] @ mats[1] - mats[1] @ mats[0]).max() <= 1e-6:
            continue  # the reducible colorings
        t = complex(np.trace(mats[0] @ mats[1]))
        found.setdefault((round(t.real, 6), round(t.imag, 6)), (mats, seam(word, mats)))
    return [found[k] for k in sorted(found)]
