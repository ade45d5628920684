"""Random colors and gauge orbits, for the tests (not collected).

The pipeline draws only random gauges (`sl2factor.random_gstar`).  The
tests also sample holonomies, Q-colors and factorization colors, act on
colorings by quandle gauge moves, and recompute the invariant along a
sampled gauge orbit (`gauge_orbit_compare`).
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from holoinv.braiding import BraidingProvider
from holoinv.diagram import Diagram
from holoinv.invariant import tilde_Fprime
from holoinv.params import GATE, RootParams
from holoinv.quandle import QColor, gauge_act_matrix, q_act, z_candidates
from holoinv.sl2factor import GStarElem, YColor, gauge_act_diagram, psi, random_gstar


def gstar_mul(a: GStarElem, b: GStarElem) -> GStarElem:
    """The product in the factorization group."""
    return GStarElem(a.kappa * b.kappa, b.eps + a.eps * b.kappa,
                     a.phi * b.kappa + b.phi)


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


def random_ycolor(rng: np.random.Generator, p: RootParams) -> YColor:
    g = random_gstar(rng)
    zs = z_candidates(complex(np.trace(psi(g))), p)
    return YColor(g, zs[rng.integers(len(zs))])


def steinberg_qcolor(p: RootParams) -> QColor:
    """The one permitted parabolic color: g = (-1)^(r-1) Id, z = 2(-1)^(l-1)."""
    s = -p.sign_r  # (-1)^(r-1)
    return QColor(s * np.eye(2, dtype=complex), 2.0 * (-p.sign_ell))


def gauge_act(b: QColor, d):
    """Gauge move by a color b: every edge color c becomes b acting on c."""
    return d.map_colors(lambda c: q_act(b, c))


def gauge_orbit_compare(d: Diagram, generators: Sequence[Any],
                        provider: BraidingProvider,
                        seed: int = 0, max_gauge: int = 100) -> dict:
    """Recompute the invariant along a sampled gauge orbit of `d`.

    Each generator is applied to the Q-coloring: a QColor acts by the
    quandle operation, a GStarElem by conjugating holonomies with its
    positive factor, a 2x2 matrix by plain conjugation.  Returns the
    worst canonical-value deviation across the orbit.
    """
    base = tilde_Fprime(d, provider, seed, max_gauge).value.canonical
    scale = max(1.0, abs(base))
    worst = 0.0
    for g in generators:
        if isinstance(g, QColor):
            dd = gauge_act(g, d)
        elif isinstance(g, GStarElem):
            dd = gauge_act_diagram(g, d)
        else:
            dd = gauge_act_matrix(np.asarray(g, dtype=complex), d)
        v = tilde_Fprime(dd, provider, seed, max_gauge).value.canonical
        worst = max(worst, abs(v - base) / scale)
    return {
        "base": base,
        "generators": len(generators),
        "max_deviation": worst,
        "pass": worst <= GATE * 1e2,
    }
