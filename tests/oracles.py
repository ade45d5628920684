"""The full biquandle oracles, for the tests (not collected).

Coloring a diagram needs only the crossing maps B and B_inv, which the
package's quandle oracle and `holoinv.sl2factor` provide.  The biquandle
axioms and the Reidemeister moves also need the sideways map S, its
inverse and the diagonal alpha; they are here, for the factorization
biquandle (`FactorizationOracle`) and for the conjugation quandle
(`ConjugationOracle`, whose diagonal is trivial).
"""

from __future__ import annotations

from holoinv.quandle import QColor, QuandleCrossingOracle, q_act, q_act_inv
from holoinv.sl2factor import (
    YColor,
    _conj_solve,
    _inv,
    alpha_inv,
    psi_inv,
    sl2_B,
    sl2_B_inv,
)


def sl2_S(y4: YColor, y1: YColor) -> tuple[YColor, YColor]:
    """Sideways map: S(B1(x,y), x) = (B2(x,y), y)."""
    x4, x1 = y4.g, y1.g
    x3 = _conj_solve(x4.phi_plus_inv(), x1.matrix())
    x2 = _conj_solve(_inv(x1.phi_minus()), x4.matrix())
    return (YColor(x3, y1.z), YColor(x2, y4.z))


def sl2_S_inv(y3: YColor, y2: YColor) -> tuple[YColor, YColor]:
    """Inverse sideways map, via S^(-1) = (i x Id) B (Id x i) on the G* parts."""
    a, b = sl2_B(YColor(y3.g, y3.z), YColor(y2.g.inv(), y2.z))
    return (YColor(a.g.inv(), y2.z), YColor(b.g, y3.z))


def alpha(y: YColor) -> YColor:
    """The biquandle diagonal: B(x, alpha(x)) = (x, alpha(x))."""
    return YColor(psi_inv(_inv(y.g.inv().matrix())), y.z)


class FactorizationOracle:
    """The SL(2, C) factorization biquandle on X-colors.

    A biquandle oracle has these partial maps on a color set X:

        B      : X x X -> X x X   positive crossing, bottom to top
        B_inv  : inverse of B
        S      : sideways map, S(B1(x,y), x) = (B2(x,y), y)
        S_inv  : inverse of S
        alpha  : diagonal bijection with B(x, alpha(x)) = (x, alpha(x))

    A map raises `errors.Undefined` (or a subclass) where it has no value and
    never returns None; callers treat that as a normal outcome and may retry
    after a gauge move.  Here the maps are the ones above, so the z fibres
    swap at crossings (each output keeps the z of the opposite input, as
    `sl2_B` builds it), and a map raises OutsideGPrime where a solve leaves G'.
    """

    B = staticmethod(sl2_B)
    B_inv = staticmethod(sl2_B_inv)
    S = staticmethod(sl2_S)
    S_inv = staticmethod(sl2_S_inv)
    alpha = staticmethod(alpha)
    alpha_inv = staticmethod(alpha_inv)


class ConjugationOracle(QuandleCrossingOracle):
    """The conjugation quandle as a biquandle oracle.

    Positive crossing bottom (a, b) gives top (a^(-1) b a, a); the sideways
    and twist maps follow, with trivial diagonal (alpha = id).
    """

    def S(self, x4: QColor, x1: QColor):
        return (x1, q_act_inv(x1, x4))

    def S_inv(self, x3: QColor, x2: QColor):
        return (q_act(x3, x2), x3)

    def alpha(self, x: QColor):
        return x

    def alpha_inv(self, x: QColor):
        return x
