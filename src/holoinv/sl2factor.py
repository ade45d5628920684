"""Generic factorization of SL(2,C) and the induced biquandle colors.

Elements of the factorization group G* are triples x = (kappa, eps, phi) with
kappa != 0, standing for the pair of matrices

    phi_plus(x)  = [[kappa, 0], [phi, 1]]      (lower triangular)
    phi_minus(x) = [[1, eps], [0, kappa]]      (upper triangular)

multiplied componentwise.  The map psi(x) = phi_plus(x) * phi_minus(x)^(-1) =
[[kappa, -eps], [phi, (1 - eps*phi)/kappa]] lands in SL(2,C); it restricts to
a bijection from G* onto the dense open set G' of SL(2,C) matrices with
nonzero upper-left entry, with inverse psi_inv.

X-colors are pairs (x, z) with x in G* and Cb_r(z) = (-1)^(l+1) tr psi(x).
The crossing map B conjugates the psi-images by the triangular parts and is
defined whenever the intermediate matrices stay in G'; the z components just
swap sides.  The holonomy functor q_functor turns an X-colored diagram into a
Q-colored one by accumulating region holonomies west to east with phi_plus
transition factors; q_functor_inv inverts it when every region solve stays in
G', and `invariant.gauge_fix` searches the gauge orbit for a point where it
does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InconsistentColoring, InternalInconsistency, OutsideGPrime
from .params import TOL, RootParams
from .quandle import QColor, gauge_act_matrix, inv2, mat2

_ID2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class GStarElem:
    """An element (kappa, eps, phi) of the factorization group."""

    kappa: complex
    eps: complex
    phi: complex

    def __post_init__(self):
        if self.kappa == 0:
            raise ValueError("kappa must be nonzero")

    def phi_plus(self) -> np.ndarray:
        return mat2(self.kappa, 0.0, self.phi, 1.0)

    def phi_minus(self) -> np.ndarray:
        return mat2(1.0, self.eps, 0.0, self.kappa)

    def matrix(self) -> np.ndarray:
        k, e, f = self.kappa, self.eps, self.phi
        return mat2(k, -e, f, (1.0 - e * f) / k)

    def inv(self) -> "GStarElem":
        return GStarElem(
            1.0 / self.kappa, -self.eps / self.kappa, -self.phi / self.kappa
        )

    def approx_eq(self, o: "GStarElem", tol: float = TOL) -> bool:
        return (
            abs(self.kappa - o.kappa) <= tol
            and abs(self.eps - o.eps) <= tol
            and abs(self.phi - o.phi) <= tol
        )

    @staticmethod
    def one() -> "GStarElem":
        return GStarElem(1.0, 0.0, 0.0)

    def __repr__(self):
        return f"GStarElem({self.kappa:.6g}, {self.eps:.6g}, {self.phi:.6g})"


def psi(x: GStarElem) -> np.ndarray:
    return x.matrix()


def psi_inv(m: np.ndarray) -> GStarElem:
    """Invert psi on G'; raises OutsideGPrime off the domain."""
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if abs(det - 1.0) > TOL * max(1.0, float(np.abs(m).max()) ** 2):
        raise OutsideGPrime("matrix is not in SL(2,C)")
    if abs(m[0, 0]) <= TOL:
        raise OutsideGPrime("vanishing upper-left entry")
    return GStarElem(complex(m[0, 0]), complex(-m[0, 1]), complex(m[1, 0]))


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


def _conj_solve(h: np.ndarray, m: np.ndarray) -> GStarElem:
    return psi_inv(h @ m @ inv2(h))


def sl2_B(y1: YColor, y2: YColor) -> tuple[YColor, YColor]:
    """Positive-crossing map; raises OutsideGPrime when a solve leaves G'."""
    x1, x2 = y1.g, y2.g
    x4 = _conj_solve(x1.phi_minus(), psi(x2))
    x3 = _conj_solve(inv2(x4.phi_plus()), psi(x1))
    return (YColor(x4, y2.z), YColor(x3, y1.z))


def sl2_B_inv(y4: YColor, y3: YColor) -> tuple[YColor, YColor]:
    x4, x3 = y4.g, y3.g
    x1 = _conj_solve(x4.phi_plus(), psi(x3))
    x2 = _conj_solve(inv2(x1.phi_minus()), psi(x4))
    return (YColor(x1, y3.z), YColor(x2, y4.z))


def alpha_inv(y: YColor) -> YColor:
    """Inverse of the biquandle diagonal alpha, where B(x, alpha(x)) =
    (x, alpha(x)); it untwists the downward strands of a lift."""
    return YColor(psi_inv(inv2(psi(y.g))).inv(), y.z)


def random_gstar(rng: np.random.Generator) -> GStarElem:
    logk = rng.uniform(-1.0, 1.0)
    arg = rng.uniform(0.0, 2.0 * np.pi)
    kappa = np.exp(logk) * np.exp(1j * arg)
    eps = complex(rng.normal(), rng.normal())
    phi = complex(rng.normal(), rng.normal())
    return GStarElem(kappa, eps, phi)


# --- the holonomy functor ---------------------------------------------------

def q_functor(d):
    """Turn an X-colored diagram into the Q-colored diagram of its holonomies.

    At each horizontal level the region west of everything carries the
    identity holonomy; crossing an upward strand colored x multiplies the
    holonomy by phi_plus(x) (downward by its inverse).  An upward edge at a
    level with west holonomy h receives Q-color h psi(x) h^(-1); a downward
    edge uses the east holonomy.  Values computed at different levels for the
    same edge must agree; otherwise the coloring was inconsistent.
    """
    qcolors: dict[str, QColor] = {}
    for t in range(d.n_slices + 1):
        h = _ID2
        for i, s in enumerate(d.level_signs(t)):
            e = d.edge_at(t, i)
            y = d.edge_colors.get(e)
            if y is None:
                raise InconsistentColoring(f"edge {e} is uncolored")
            if s == "+":
                q = QColor(h @ psi(y.g) @ inv2(h), y.z)
                h = h @ y.g.phi_plus()
            else:
                h = h @ inv2(y.g.phi_plus())
                q = QColor(h @ psi(y.g) @ inv2(h), y.z)
            if e in qcolors:
                if not qcolors[e].approx_eq(q, TOL * 1e3):
                    raise InternalInconsistency(
                        f"edge {e} receives conflicting holonomies"
                    )
            else:
                qcolors[e] = q
    return d.map_colors(lambda y: None).with_colors(qcolors)


def q_functor_inv(d):
    """Recover an X-coloring from a Q-colored diagram, when all solves stay in G'.

    Scans each level west to east; an upward strand with Q-color q and west
    holonomy h needs psi_inv(h^(-1) q h), a downward strand additionally
    untwists by the diagonal.  Raises OutsideGPrime (an Undefined) when a
    solve leaves G', and InconsistentColoring on an uncolored edge.
    """
    ycolors: dict[str, YColor] = {}
    for t in range(d.n_slices + 1):
        h = _ID2
        for i, s in enumerate(d.level_signs(t)):
            e = d.edge_at(t, i)
            q = d.edge_colors.get(e)
            if q is None:
                raise InconsistentColoring(f"edge {e} is uncolored")
            y = ycolors.get(e)
            if y is None:
                y = YColor(psi_inv(inv2(h) @ q.g @ h), q.z)
                if s == "-":
                    y = alpha_inv(y)
                ycolors[e] = y
            if s == "+":
                h = h @ y.g.phi_plus()
            else:
                h = h @ inv2(y.g.phi_plus())
    out = d.map_colors(lambda q: None).with_colors(ycolors)
    # round-trip check guards against inconsistent input colorings
    back = q_functor(out)
    for e, q in d.edge_colors.items():
        if not back.edge_colors[e].approx_eq(q, TOL * 1e3):
            raise InternalInconsistency(f"round trip fails on edge {e}")
    return out


def gauge_act_diagram(x: GStarElem, d):
    """The gauge move by x: conjugate every Q-color by phi_plus(x)."""
    return gauge_act_matrix(x.phi_plus(), d)
