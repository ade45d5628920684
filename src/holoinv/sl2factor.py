"""Generic factorization of SL(2,C) and the induced biquandle colors.

Elements of the factorization group G* are triples x = (kappa, eps, phi) with
kappa != 0, standing for the pair of matrices

    phi_plus(x)  = [[kappa, 0], [phi, 1]]      (lower triangular)
    phi_minus(x) = [[1, eps], [0, kappa]]      (upper triangular)

multiplied componentwise.  The map psi(x) = phi_plus(x) * phi_minus(x)^(-1) =
[[kappa, -eps], [phi, (1 - eps*phi)/kappa]] lands in SL(2,C); it restricts to
a bijection from G* onto the dense open set G' of SL(2,C) matrices with
nonzero upper-left entry, with inverse psi_inv.

Matrices are `quandle.Mat2` tuples (a, b, c, d), as Q-color holonomies are.

X-colors are pairs (x, z) with x in G* and Cb_r(z) = (-1)^(l+1) tr psi(x).
The crossing map B conjugates the psi-images by the triangular parts and is
defined whenever the intermediate matrices stay in G'; the z components just
swap sides.  The holonomy functor turns an X-colored diagram into a Q-colored
one by accumulating region holonomies west to east with phi_plus transition
factors; q_functor_inv inverts it when every region solve stays in G', in
one scan that also maps every port back and checks it against the input,
and `invariant.gauge_fix` searches the gauge orbit for a point where it
does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InconsistentColoring, InternalInconsistency, OutsideGPrime
from .params import TOL, RootParams
from .quandle import _ID, Mat2, _inv, _mul, in_sl2


@dataclass(frozen=True)
class GStarElem:
    """An element (kappa, eps, phi) of the factorization group."""

    kappa: complex
    eps: complex
    phi: complex

    def __post_init__(self):
        if self.kappa == 0:
            raise ValueError("kappa must be nonzero")

    def phi_plus(self) -> Mat2:
        return (self.kappa, 0.0, self.phi, 1.0)

    def phi_plus_inv(self) -> Mat2:
        return (1.0 / self.kappa, 0.0, -self.phi / self.kappa, 1.0)

    def phi_minus(self) -> Mat2:
        return (1.0, self.eps, 0.0, self.kappa)

    def matrix(self) -> Mat2:
        """psi(x)."""
        k, e, f = self.kappa, self.eps, self.phi
        return (k, -e, f, (1.0 - e * f) / k)

    def inv(self) -> "GStarElem":
        return GStarElem(
            1.0 / self.kappa, -self.eps / self.kappa, -self.phi / self.kappa
        )

    def approx_eq(self, o: "GStarElem", tol: float = TOL) -> bool:
        """Entries agree to tol relative to the largest of either element;
        a NaN agrees with nothing."""
        k, e, f, k2, e2, f2 = self.kappa, self.eps, self.phi, o.kappa, o.eps, o.phi
        lim = tol * max(1.0, abs(k), abs(e), abs(f), abs(k2), abs(e2), abs(f2))
        return abs(k - k2) <= lim and abs(e - e2) <= lim and abs(f - f2) <= lim

    @staticmethod
    def one() -> "GStarElem":
        return GStarElem(1.0, 0.0, 0.0)

    def __repr__(self):
        return f"GStarElem({self.kappa:.6g}, {self.eps:.6g}, {self.phi:.6g})"


def psi_inv(m: Mat2) -> GStarElem:
    """Invert psi on G'; raises OutsideGPrime off the domain."""
    if not in_sl2(m):
        raise OutsideGPrime("matrix is not in SL(2,C)")
    a, b, c, _ = m
    if not abs(a) > TOL:
        raise OutsideGPrime("vanishing upper-left entry")
    return GStarElem(complex(a), complex(-b), complex(c))


@dataclass(frozen=True)
class YColor:
    """An X-color: factorization-group holonomy plus root datum z."""

    g: GStarElem
    z: complex

    def approx_eq(self, other: "YColor", tol: float = TOL) -> bool:
        return self.g.approx_eq(other.g, tol) and abs(self.z - other.z) <= tol

    def __repr__(self):
        return f"YColor({self.g!r}, z={self.z:.4g})"


def steinberg_ycolor(p: RootParams) -> YColor:
    """The one permitted parabolic X-color, hitting the central holonomy."""
    s = -p.sign_r  # (-1)^(r-1)
    return YColor(GStarElem(complex(s), 0.0, 0.0), 2.0 * (-p.sign_ell))


def _conj_solve(h: Mat2, m: Mat2) -> GStarElem:
    return psi_inv(_mul(_mul(h, m), _inv(h)))


def sl2_B(y1: YColor, y2: YColor) -> tuple[YColor, YColor]:
    """Positive-crossing map; raises OutsideGPrime when a solve leaves G'."""
    x1, x2 = y1.g, y2.g
    x4 = _conj_solve(x1.phi_minus(), x2.matrix())
    x3 = _conj_solve(x4.phi_plus_inv(), x1.matrix())
    return (YColor(x4, y2.z), YColor(x3, y1.z))


def sl2_B_inv(y4: YColor, y3: YColor) -> tuple[YColor, YColor]:
    x4, x3 = y4.g, y3.g
    x1 = _conj_solve(x4.phi_plus(), x3.matrix())
    x2 = _conj_solve(_inv(x1.phi_minus()), x4.matrix())
    return (YColor(x1, y3.z), YColor(x2, y4.z))


def alpha_inv(y: YColor) -> YColor:
    """Inverse of the biquandle diagonal alpha, where B(x, alpha(x)) =
    (x, alpha(x)); it untwists the downward strands of a lift."""
    return YColor(psi_inv(_inv(y.g.matrix())).inv(), y.z)


def random_gstar(rng: np.random.Generator) -> GStarElem:
    logk = rng.uniform(-1.0, 1.0)
    arg = rng.uniform(0.0, 2.0 * np.pi)
    kappa = np.exp(logk) * np.exp(1j * arg)
    eps = complex(rng.normal(), rng.normal())
    phi = complex(rng.normal(), rng.normal())
    return GStarElem(kappa, eps, phi)


# --- the holonomy functor ---------------------------------------------------

def q_functor_inv(d):
    """Recover an X-coloring from a Q-colored diagram, when all solves stay in G'.

    The holonomy functor colors the upward edge x at a level with west
    holonomy h by h psi(x) h^(-1), a downward edge with its east holonomy,
    where crossing a strand x multiplies the holonomy by phi_plus(x), or by
    its inverse on a downward strand; the west end of each level carries
    the identity.  This inverts it in one scan of the levels, west to east:
    an edge met for the first time with Q-color q and west holonomy h gets
    psi_inv(h^(-1) q h), a downward strand additionally untwisted by the
    diagonal.  Every port then maps its edge's X-color back and checks it
    against q to TOL * 1e3 times q's largest entry (at least 1).  Raises
    OutsideGPrime (an Undefined) when a solve leaves G', InconsistentColoring
    on an uncolored edge and, once every solve has succeeded,
    InternalInconsistency when a port failed its check: a failed solve stays
    the error that `gauge_fix` retries.
    """
    ycolors: dict[str, YColor] = {}
    targets: dict[str, tuple[Mat2, float]] = {}  # each edge's q and bound
    bad = None  # the first edge whose round trip fails
    for t in range(d.n_slices + 1):
        h = h_inv = _ID
        for i, s in enumerate(d.level_signs(t)):
            e = d.edge_at(t, i)
            target = targets.get(e)
            if target is None:
                c = d.edge_colors.get(e)
                if c is None:
                    raise InconsistentColoring(f"edge {e} is uncolored")
                target = targets[e] = (c.g, TOL * 1e3 * max(1.0, *map(abs, c.g)))
                y = YColor(psi_inv(_mul(_mul(h_inv, c.g), h)), c.z)
                ycolors[e] = alpha_inv(y) if s == "-" else y
            q, lim = target
            x = ycolors[e].g
            if s == "+":
                back = _mul(_mul(h, x.matrix()), h_inv)
                h, h_inv = _mul(h, x.phi_plus()), _mul(x.phi_plus_inv(), h_inv)
            else:
                h, h_inv = _mul(h, x.phi_plus_inv()), _mul(x.phi_plus(), h_inv)
                back = _mul(_mul(h, x.matrix()), h_inv)
            if bad is None and not all(abs(u - v) <= lim for u, v in zip(back, q)):
                bad = e
    if bad is not None:
        raise InternalInconsistency(f"round trip fails on edge {bad}")
    return d.with_colors(ycolors)
