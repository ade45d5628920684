"""Conjugation quandle colors on SL(2,C) and their diagram calculus.

A Q-color is a pair (g, z) with g in SL(2,C) and z a complex number tied to g
by a Chebyshev trace relation: Cb_r(z) = (-1)^(l+1) tr(g), where Cb_r is the
first-kind Chebyshev polynomial normalized by Cb_r(w + 1/w) = w^r + w^(-r).
The z component selects an r-th root datum used downstream when colors are
promoted to quantum-group characters; the quandle operation itself only
conjugates the matrix part and permutes the z's.

The quandle operation is written as a right action: acting on b by a gives
a^(-1) b a.  At a positive crossing with bottom colors (a, b) read west to
east, the top colors are (a^(-1) b a, a).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .params import TOL, RootParams, cheb_first_kind_roots

_ID2 = np.eye(2, dtype=complex)


def mat2(a, b, c, d) -> np.ndarray:
    return np.array([[a, b], [c, d]], dtype=complex)


def inv2(m: np.ndarray) -> np.ndarray:
    a, b, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    det = a * d - b * c
    return np.array([[d, -b], [-c, a]], dtype=complex) / det


@dataclass(frozen=True)
class QColor:
    """A conjugation-quandle color: SL(2,C) holonomy plus root datum z."""

    g: np.ndarray
    z: complex

    def approx_eq(self, other: "QColor", tol: float = TOL) -> bool:
        return (
            np.abs(self.g - other.g).max() <= tol
            and abs(self.z - other.z) <= tol
        )

    def trace(self) -> complex:
        return complex(self.g[0, 0] + self.g[1, 1])

    def __repr__(self):
        g = self.g
        return (
            f"QColor([[{g[0,0]:.4g},{g[0,1]:.4g}],[{g[1,0]:.4g},{g[1,1]:.4g}]],"
            f" z={self.z:.4g})"
        )


def q_act(a: QColor, b: QColor) -> QColor:
    """Act on b by a: the matrix of b is conjugated to a^(-1) b a."""
    return QColor(inv2(a.g) @ b.g @ a.g, b.z)


def q_act_inv(a: QColor, b: QColor) -> QColor:
    return QColor(a.g @ b.g @ inv2(a.g), b.z)


def steinberg_qcolor(p: RootParams) -> QColor:
    """The one permitted parabolic color: g = (-1)^(r-1) Id, z = 2(-1)^(l-1)."""
    s = -p.sign_r  # (-1)^(r-1)
    return QColor(s * np.eye(2, dtype=complex), 2.0 * (-p.sign_ell))


def z_candidates(trace: complex, p: RootParams) -> list[complex]:
    """All z with Cb_r(z) = (-1)^(l+1) * trace, i.e. w^r + w^(-r) = target."""
    # deduplicate numerically
    uniq: list[complex] = []
    for z in cheb_first_kind_roots(p.sign_ell_plus1 * trace, p.r):
        if all(abs(z - z2) > 1e-10 for z2 in uniq):
            uniq.append(z)
    return uniq


class QuandleCrossingOracle:
    """Biquandle-style crossing maps for quandle colors.

    Positive crossing bottom (a, b) gives top (a^(-1) b a, a); the sideways
    and twist maps follow, with trivial diagonal (alpha = id).
    """

    def B(self, a: QColor, b: QColor):
        return (q_act(a, b), a)

    def B_inv(self, c: QColor, d: QColor):
        return (d, q_act_inv(d, c))

    def S(self, x4: QColor, x1: QColor):
        return (x1, q_act_inv(x1, x4))

    def S_inv(self, x3: QColor, x2: QColor):
        return (q_act(x3, x2), x3)

    def alpha(self, x: QColor):
        return x

    def alpha_inv(self, x: QColor):
        return x


def propagate_qcolors(d, bottom: Sequence[QColor]):
    """Color a diagram's edges from bottom Q-colors."""
    from .diagram import propagate_colors

    return propagate_colors(d, bottom, QuandleCrossingOracle())


def random_sl2(rng: np.random.Generator) -> np.ndarray:
    while True:
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        det = np.linalg.det(m)
        if abs(det) > 1e-6:
            return m / np.sqrt(det)


def random_qcolor(rng: np.random.Generator, p: RootParams) -> QColor:
    g = random_sl2(rng)
    zs = z_candidates(complex(g[0, 0] + g[1, 1]), p)
    return QColor(g, zs[rng.integers(len(zs))])


def gauge_act_matrix(h: np.ndarray, d):
    """Conjugate every holonomy of a Q-colored diagram by a fixed matrix h."""
    return d.map_colors(lambda c: QColor(h @ c.g @ inv2(h), c.z))


def gauge_act(b: QColor, d):
    """Gauge move by a color b: every edge color c becomes b acting on c."""
    return d.map_colors(lambda c: q_act(b, c))
