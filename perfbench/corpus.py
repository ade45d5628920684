"""Seeded link documents for the benchmark, built with numpy alone.

Every case is a braid closure written in the link-file format that
`holoinv invariant` reads, so the program sees nothing but generated input.

Two families:

* commuting closures: every strand carries one random SL(2, C) matrix, so
  the holonomy is abelian and the braid only permutes the z data;
* Riley colorings of the 2-strand closure of sigma_1^n, n odd (the torus
  knot T(2, n)): x = [[m, 1], [0, 1/m]] on the first strand and
  y = [[m, 0], [u, 1/m]] on the second, with u a nonzero root of the
  closure condition (R. Riley, "Nonabelian representations of 2-bridge
  knot groups", Quart. J. Math. 1984), Newton-polished so the closure
  seam holds to about 1e-12.

Each coloring is then conjugated by a random SL(2, C) matrix: a generic
gauge, in which the lift to factorization colors succeeds at once.  The
Riley form itself (the identity gauge) is not used; its gauge-retry failure
is a separate item.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial


@dataclass(frozen=True)
class LinkCase:
    """One generated link file: its link's name, its gauge copy, the doc."""

    name: str
    gauge: int
    doc: dict

    @property
    def ell(self) -> int:
        return self.doc["ell"]

    @property
    def key(self) -> str:
        return f"{self.name}@ell{self.ell}/g{self.gauge}"


def rank(ell: int) -> int:
    """r, the dimension of the cyclic modules at xi = exp(2 pi i / ell)."""
    return ell // 2 if ell % 2 == 0 else ell


def z_roots(trace: complex, ell: int) -> list[complex]:
    """All z with w^r + w^-r = (-1)^(ell+1) trace, z = w + 1/w."""
    r = rank(ell)
    target = (1 if ell % 2 else -1) * trace
    disc = cmath.sqrt(target * target - 4.0)
    u = (target + disc) / 2.0
    w0 = u ** (1.0 / r)
    return [w + 1.0 / w for w in
            (w0 * cmath.exp(2j * cmath.pi * k / r) for k in range(r))]


def random_sl2(rng: np.random.Generator) -> np.ndarray:
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return m / np.sqrt(np.linalg.det(m))


def _inv(m: np.ndarray) -> np.ndarray:
    """Inverse of a determinant-1 matrix: its adjugate."""
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])


def _strand_permutation(strands: int, word) -> list[int]:
    """perm[i]: the top position reached by the strand starting at bottom i."""
    pos = list(range(strands))
    for g in word:
        a = abs(g) - 1
        pos = [a + 1 if p == a else a if p == a + 1 else p for p in pos]
    return pos


def _components(strands: int, word) -> list[int]:
    """Component label of each bottom strand of the closure."""
    perm = _strand_permutation(strands, word)
    label = [-1] * strands
    for s in range(strands):
        k = s
        while label[k] < 0:
            label[k] = s
            k = perm[k]
    return label


# --- Riley colorings of T(2, n) ---------------------------------------------

def _pmul(a, b):
    return [[a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)]
            for i in range(2)]


def _closure_poly(m: complex, n: int) -> Polynomial:
    """The Riley polynomial of T(2, n), n odd, in u.

    sigma_1^n fixes (x, y) exactly when W x = y W with W = (x y)^((n-1)/2),
    the relation of the torus knot group; its lower-left entry vanishes on
    the nonabelian solutions.
    """
    c = lambda v: Polynomial([complex(v)])  # noqa: E731
    x = [[c(m), c(1)], [c(0), c(1 / m)]]
    y = [[c(m), c(0)], [Polynomial([0, 1 + 0j]), c(1 / m)]]
    w = [[c(1), c(0)], [c(0), c(1)]]
    for _ in range((n - 1) // 2):
        w = _pmul(w, _pmul(x, y))
    lhs, rhs = _pmul(w, x), _pmul(y, w)
    return lhs[1][0] - rhs[1][0]


def _riley_pair(m: complex, u: complex):
    x = np.array([[m, 1], [0, 1 / m]], dtype=complex)
    y = np.array([[m, 0], [u, 1 / m]], dtype=complex)
    return x, y


def riley_roots(m: complex, n: int) -> list[complex]:
    """Nonzero u for which sigma_1^n (n odd) fixes the Riley pair.

    numpy's companion-matrix roots are good to about 1e-8; Newton steps on
    the same polynomial take them to rounding level, which the 1e-9 seam
    check of the closure needs.
    """
    p = _closure_poly(m, n)
    dp = p.deriv()
    out: list[complex] = []
    for u in p.roots():
        if abs(u) < 1e-6:
            continue  # u = 0 is the reducible representation
        for _ in range(50):
            step = p(u) / dp(u)
            u -= step
            if abs(step) <= 1e-15 * max(1.0, abs(u)):
                break
        if (seam_residual([1] * n, _riley_pair(m, u)) < 1e-11
                and all(abs(u - v) > 1e-6 for v in out)):
            out.append(complex(u))
    return sorted(out, key=lambda v: (round(v.real, 6), round(v.imag, 6)))


# --- link documents -------------------------------------------------------

def _cpair(z: complex) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _doc(ell: int, strands: int, word, mats, zs) -> dict:
    colors = [{"g": [[_cpair(g[i, j]) for j in range(2)] for i in range(2)],
               "z": _cpair(z)} for g, z in zip(mats, zs)]
    return {"ell": ell, "braid": {"strands": strands, "word": list(word)},
            "colors": colors}


def seam_residual(word, mats) -> float:
    """How far the braid moves its bottom holonomies: 0 for a closed link.

    A positive crossing sends (a, b) to (a^-1 b a, a), a negative one to
    (b, b a b^-1).
    """
    cur = list(mats)
    for g in word:
        i = abs(g) - 1
        a, b = cur[i], cur[i + 1]
        cur[i], cur[i + 1] = ((_inv(a) @ b @ a, a) if g > 0
                              else (b, b @ a @ _inv(b)))
    return float(max(np.abs(c - m).max() for c, m in zip(cur, mats)))


def _zs_per_component(strands, word, trace, ell, rng) -> list[complex]:
    """A z for each component, distinct across components.

    Distinct z give every component its own module, so the number of
    braidings to resolve is the same on every seed.
    """
    roots = z_roots(trace, ell)
    comps = _components(strands, word)
    labels = sorted(set(comps))
    picks = rng.choice(len(roots), size=len(labels), replace=False)
    z = {c: roots[k] for c, k in zip(labels, picks)}
    return [z[c] for c in comps]


def _gauge_copies(name, ell, strands, word, mats, zs, rng, gauges):
    """Conjugate the coloring by `gauges` random matrices.

    A draw whose rounding error would break the program's 1e-9 closure seam
    check (an ill-conditioned conjugator) is replaced by the next draw.
    """
    out = []
    while len(out) < gauges:
        h = random_sl2(rng)
        hi = _inv(h)
        conj = [h @ g @ hi for g in mats]
        if seam_residual(word, conj) <= 1e-11:
            out.append(LinkCase(name, len(out),
                                _doc(ell, strands, word, conj, zs)))
    return out


def commuting_cases(name, strands, word, ell, rng, gauges=2) -> list[LinkCase]:
    """A closure whose strands all carry one matrix, in `gauges` gauges."""
    g = random_sl2(rng)
    zs = _zs_per_component(strands, word, np.trace(g), ell, rng)
    return _gauge_copies(name, ell, strands, word, [g] * strands, zs, rng,
                         gauges)


def random_meridian(rng: np.random.Generator) -> complex:
    """A generic meridian eigenvalue m, away from roots of unity."""
    return complex(np.exp(rng.uniform(0.2, 0.5) + 1j * rng.uniform(0.3, 1.2)))


def riley_cases(name, n, ell, rng, gauges=2) -> list[LinkCase]:
    """A nonabelian coloring of the knot closing sigma_1^n, in `gauges` gauges.

    The character is always the Riley root with the least real part, so a
    case means the same representation family on every seed.
    """
    m = random_meridian(rng)
    roots = riley_roots(m, n)
    if not roots:
        raise ValueError(f"no nonabelian Riley root for T(2,{n}) at m={m}")
    word = [1] * n
    zs = _zs_per_component(2, word, m + 1 / m, ell, rng)
    return _gauge_copies(name, ell, 2, word, list(_riley_pair(m, roots[0])),
                         zs, rng, gauges)


# braid closures colored by one matrix, and knots sigma_1^n with Riley colors
COMMUTING = {"hopf": (2, [1, 1]), "mix2": (2, [1, 1, 1, -1]),
             "s3": (3, [1, 2, 1, 2]), "mix3": (3, [1, -2, 1, -2])}
RILEY = {"t23": 3, "t25": 5}


def cases(names, ell, rng, gauges) -> list[LinkCase]:
    """The named links at one ell, each in `gauges` gauges, in order."""
    out = []
    for name in names:
        if name in RILEY:
            out += riley_cases(name, RILEY[name], ell, rng, gauges)
        else:
            strands, word = COMMUTING[name]
            out += commuting_cases(name, strands, word, ell, rng, gauges)
    return out
