"""Shared fixtures: root parameters and cached braiding providers."""

from __future__ import annotations

import json

import numpy as np
import pytest

from holoinv.braiding import BraidingProvider
from holoinv.diagram import Diagram, braid_diagram, closure
from holoinv.params import root_params
from holoinv.quandle import QColor, propagate_qcolors, z_candidates
from holoinv.sl2factor import psi

from samplers import random_sl2, random_ycolor


@pytest.fixture(scope="session")
def providers():
    """One braiding provider per desk-scale ell, shared across tests."""
    return {ell: BraidingProvider(root_params(ell)) for ell in (3, 4)}


def unknot_diagram(q: QColor) -> Diagram:
    d = Diagram([], [(0, "coevL"), (0, "evR")])
    return d.with_colors({d.edges()[0]: q})


def commuting_link(ell: int, word, seed: int = 11) -> Diagram:
    """Closure of a 2-strand braid whose strands share one holonomy axis.

    Components of a braid closure in the torus have commuting holonomies,
    so both strands carry the same SL2 matrix with independent z choices.
    """
    p = root_params(ell)
    rng = np.random.default_rng(seed)
    g = random_sl2(rng)
    zs = z_candidates(np.trace(g), p)
    a, b = QColor(g, zs[0]), QColor(g, zs[-1])
    return closure(propagate_qcolors(braid_diagram(2, word), [a, b]))


def riley_trefoil(ell: int, seed: int = 0, conjugate: bool = True) -> Diagram:
    """Nonabelian coloring of the trefoil, the closure of sigma_1^3.

    x = [[m, 1], [0, 1/m]] and y = [[m, 0], [u, 1/m]] satisfy x y x = y x y
    exactly when u = 1 - m^2 - m^-2 (R. Riley, Quart. J. Math. 1984).  The
    pair is conjugated by a random SU(2) matrix, whose condition number 1
    keeps the closure seam at rounding level; both strands lie on the one
    component, so they share z.  With `conjugate` false the pair stays in
    Riley form, with the same m: in the identity gauge x lifts to
    (m, -1, 0) and y to (m, 0, u), whose modules have f_r = 0 and e_r = 0.
    """
    p = root_params(ell)
    rng = np.random.default_rng(seed)
    m = np.exp(rng.uniform(0.2, 0.5) + 1j * rng.uniform(0.3, 1.2))
    a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
    h = np.array([[a, -np.conj(b)], [b, np.conj(a)]]) / np.hypot(abs(a), abs(b))
    if not conjugate:
        h = np.eye(2)
    x, y = (h @ np.array(g, dtype=complex) @ h.conj().T
            for g in ([[m, 1], [0, 1 / m]], [[m, 0], [1 - m**2 - m**-2, 1 / m]]))
    z = z_candidates(m + 1 / m, p)[0]
    braid = propagate_qcolors(braid_diagram(2, [1, 1, 1]), [QColor(x, z), QColor(y, z)])
    return closure(braid)


def random_unknot_qcolor(ell: int, seed: int = 0) -> QColor:
    p = root_params(ell)
    rng = np.random.default_rng(seed)
    y = random_ycolor(rng, p)
    return QColor(psi(y.g), y.z)


def write_link_file(path, ell: int, word, seed: int = 11) -> None:
    p = root_params(ell)
    rng = np.random.default_rng(seed)
    g = random_sl2(rng)
    zs = z_candidates(np.trace(g), p)

    def cp(z):
        z = complex(z)
        return [z.real, z.imag]

    def mat(m):
        return [[cp(m[0, 0]), cp(m[0, 1])], [cp(m[1, 0]), cp(m[1, 1])]]

    doc = {
        "ell": ell,
        "braid": {"strands": 2, "word": list(word)},
        "colors": [{"g": mat(g), "z": cp(zs[0])}, {"g": mat(g), "z": cp(zs[-1])}],
    }
    with open(path, "w") as f:
        json.dump(doc, f)
