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

A 2x2 matrix [[a, b], [c, d]] is the tuple (a, b, c, d) of complex scalars,
`Mat2`, multiplied and inverted by `_mul` and `_inv`: the package's one 2x2
arithmetic, which `sl2factor` shares.  At this size plain complex
arithmetic is several times faster than numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .params import TOL, RootParams, cheb_first_kind_roots

Mat2 = tuple[complex, complex, complex, complex]  # [[a, b], [c, d]]

_ID: Mat2 = (1.0, 0.0, 0.0, 1.0)


def _mul(m: Mat2, n: Mat2) -> Mat2:
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _inv(m: Mat2) -> Mat2:
    a, b, c, d = m
    det = a * d - b * c
    return (d / det, -b / det, -c / det, a / det)


@dataclass(frozen=True)
class QColor:
    """A conjugation-quandle color: SL(2,C) holonomy plus root datum z."""

    g: Mat2
    z: complex

    def approx_eq(self, other: "QColor", tol: float = TOL) -> bool:
        """Holonomies agree to tol times their largest entry (at least 1), z
        to tol, as crossings copy it unchanged; a NaN agrees with nothing."""
        lim = tol * max(1.0, *map(abs, self.g), *map(abs, other.g))
        return (all(abs(u - v) <= lim for u, v in zip(self.g, other.g))
                and abs(self.z - other.z) <= tol)

    def trace(self) -> complex:
        return complex(self.g[0] + self.g[3])

    def __repr__(self):
        a, b, c, d = self.g
        return f"QColor([[{a:.4g},{b:.4g}],[{c:.4g},{d:.4g}]], z={self.z:.4g})"


def q_act(a: QColor, b: QColor) -> QColor:
    """Act on b by a: the matrix of b is conjugated to a^(-1) b a."""
    return QColor(_mul(_mul(_inv(a.g), b.g), a.g), b.z)


def q_act_inv(a: QColor, b: QColor) -> QColor:
    return QColor(_mul(_mul(a.g, b.g), _inv(a.g)), b.z)


def z_candidates(trace: complex, p: RootParams) -> list[complex]:
    """All z with Cb_r(z) = (-1)^(l+1) * trace, i.e. w^r + w^(-r) = target."""
    # deduplicate numerically
    uniq: list[complex] = []
    for z in cheb_first_kind_roots(p.sign_ell_plus1 * trace, p.r):
        if all(abs(z - z2) > 1e-10 for z2 in uniq):
            uniq.append(z)
    return uniq


class QuandleCrossingOracle:
    """The crossing maps of quandle colors, as `propagate_colors` reads them.

    Positive crossing bottom (a, b) gives top (a^(-1) b a, a).
    """

    def B(self, a: QColor, b: QColor):
        return (q_act(a, b), a)

    def B_inv(self, c: QColor, d: QColor):
        return (d, q_act_inv(d, c))


def propagate_qcolors(d, bottom: Sequence[QColor]):
    """Color a diagram's edges from bottom Q-colors."""
    from .diagram import propagate_colors

    return propagate_colors(d, bottom, QuandleCrossingOracle())


def gauge_act_matrix(h: Mat2, d):
    """Conjugate every holonomy of a Q-colored diagram by a fixed matrix h."""
    h_inv = _inv(h)
    return d.map_colors(lambda c: QColor(_mul(_mul(h, c.g), h_inv), c.z))
