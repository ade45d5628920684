"""Biquandles: partial crossing calculus on an abstract color set.

A biquandle oracle is any object with these partial maps on a color set X:

    B      : X x X -> X x X   positive crossing, bottom to top
    B_inv  : inverse of B
    S      : sideways map, S(B1(x,y), x) = (B2(x,y), y)
    S_inv  : inverse of S
    alpha  : diagonal bijection with B(x, alpha(x)) = (x, alpha(x))

A map raises `errors.Undefined` (or a subclass) where it has no value and
never returns None; callers treat that as a normal outcome and may retry
after a gauge move.  The module provides the associated quandle, a
semi-cyclic example which is total (defined everywhere), and sampled axiom
checks.  The SL(2, C) factorization biquandle that the pipeline colors with
is `sl2factor.FactorizationOracle`; its z-fibre swap is built into
`sl2factor.sl2_B`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from .errors import Undefined


# --- derived quandle --------------------------------------------------------

@dataclass(frozen=True)
class QuandleOracle:
    op: Callable[[Any, Any], Any]
    inv_op: Callable[[Any, Any], Any]


def associated_quandle(bq) -> QuandleOracle:
    """The quandle x |> y = B1(x, S1(x, y)) derived from a biquandle.

    Division: the unique c with a = b |> c is B_inv(b, S(a, b)[1])[0].
    Raises Undefined when a needed partial value is missing.
    """

    def op(x, y):
        return bq.B(x, bq.S(x, y)[0])[0]

    def inv_op(b, a):
        return bq.B_inv(b, bq.S(a, b)[1])[0]

    return QuandleOracle(op=op, inv_op=inv_op)


# --- semi-cyclic example ------------------------------------------------------

@dataclass(frozen=True)
class SemiCyclicColor:
    """A color (kappa, eps) of the semi-cyclic biquandle; kappa nonzero.

    An optional weight `a` rides along unchanged; it records a choice of
    logarithm of kappa when the instance is used with root-of-unity data.
    """

    kappa: complex
    eps: complex
    a: Optional[complex] = None

    def approx_eq(self, other: "SemiCyclicColor", tol: float = 1e-9) -> bool:
        if abs(self.kappa - other.kappa) > tol or abs(self.eps - other.eps) > tol:
            return False
        if (self.a is None) != (other.a is None):
            return False
        return self.a is None or abs(self.a - other.a) <= tol


class SemiCyclicBiquandle:
    """A total biquandle on pairs (kappa, eps) with kappa invertible."""

    def B(self, p: SemiCyclicColor, q: SemiCyclicColor):
        k1, e1, k2, e2 = p.kappa, p.eps, q.kappa, q.eps
        x4 = SemiCyclicColor(k2, (e1 * k2 + e2 - e1 / k2) / k1, q.a)
        x3 = SemiCyclicColor(k1, e1 / k2, p.a)
        return (x4, x3)

    def B_inv(self, x4: SemiCyclicColor, x3: SemiCyclicColor):
        k1, e1 = x3.kappa, x3.eps * x4.kappa
        k2 = x4.kappa
        e2 = x4.eps * k1 - e1 * k2 + e1 / k2
        return (SemiCyclicColor(k1, e1, x3.a), SemiCyclicColor(k2, e2, x4.a))

    def S(self, x4: SemiCyclicColor, x1: SemiCyclicColor):
        k1, e1, k4, e4 = x1.kappa, x1.eps, x4.kappa, x4.eps
        x3 = SemiCyclicColor(k1, e1 / k4, x1.a)
        x2 = SemiCyclicColor(k4, e4 * k1 - e1 * k4 + e1 / k4, x4.a)
        return (x3, x2)

    def S_inv(self, x3: SemiCyclicColor, x2: SemiCyclicColor):
        k1, e1 = x3.kappa, x3.eps * x2.kappa
        k4 = x2.kappa
        e4 = (x2.eps + e1 * k4 - e1 / k4) / k1
        return (SemiCyclicColor(k4, e4, x2.a), SemiCyclicColor(k1, e1, x3.a))

    def alpha(self, x: SemiCyclicColor):
        return SemiCyclicColor(x.kappa, x.eps / x.kappa, x.a)

    def alpha_inv(self, x: SemiCyclicColor):
        return SemiCyclicColor(x.kappa, x.eps * x.kappa, x.a)


# --- sampled axiom checks ------------------------------------------------------

def check_biquandle_axioms(
    bq,
    sampler: Callable[[], Any],
    samples: int = 200,
    tol: float = 1e-9,
) -> dict:
    """Report max violations of the biquandle axioms over sampled colors.

    Checks the Yang-Baxter equation on X^3, the four-way consistency of
    B/B_inv/S/S_inv, and the diagonal fixed-point property of alpha; sampled
    points where a partial map is undefined are skipped and counted.
    """

    def value(f, *args):
        # "no value" is data here: None where the partial map is undefined
        try:
            return f(*args)
        except Undefined:
            return None

    def dist(u, v):
        if hasattr(u, "approx_eq"):
            # only a boolean is available; map to 0/inf-style metric
            return 0.0 if u.approx_eq(v, tol) else 1.0
        return 0.0 if u == v else 1.0

    report = {"samples": samples, "yb": 0.0, "inverse": 0.0, "sideways": 0.0,
              "alpha": 0.0, "skipped": 0}
    for _ in range(samples):
        x, y, z = sampler(), sampler(), sampler()
        # Yang-Baxter: (B x 1)(1 x B)(B x 1) = (1 x B)(B x 1)(1 x B)
        lhs = value(_yb_side, bq, x, y, z, True)
        rhs = None if lhs is None else value(_yb_side, bq, x, y, z, False)
        if rhs is None:
            report["skipped"] += 1
        else:
            report["yb"] = max(report["yb"], max(dist(a, b) for a, b in zip(lhs, rhs)))
        v = value(bq.B, x, y)
        if v is None:
            report["skipped"] += 1
            continue
        x4, x3 = v
        back = value(bq.B_inv, x4, x3)
        side = value(bq.S, x4, x)
        side_back = None if side is None else value(bq.S_inv, *side)
        if back is not None:
            report["inverse"] = max(
                report["inverse"], dist(back[0], x) + dist(back[1], y)
            )
        if side is not None:
            report["sideways"] = max(
                report["sideways"], dist(side[0], x3) + dist(side[1], y)
            )
        if side_back is not None:
            report["inverse"] = max(
                report["inverse"], dist(side_back[0], x4) + dist(side_back[1], x)
            )
        ax = value(bq.alpha, x)
        if ax is not None:
            fix = value(bq.B, x, ax)
            if fix is not None:
                report["alpha"] = max(
                    report["alpha"], dist(fix[0], x) + dist(fix[1], ax)
                )
            ai = value(bq.alpha_inv, ax)
            if ai is not None:
                report["alpha"] = max(report["alpha"], dist(ai, x))
    report["max_violation"] = max(
        report["yb"], report["inverse"], report["sideways"], report["alpha"]
    )
    return report


def _yb_side(bq, x, y, z, left_first: bool):
    a, b, c = x, y, z
    if left_first:
        a, b = bq.B(a, b)
        b, c = bq.B(b, c)
        a, b = bq.B(a, b)
    else:
        b, c = bq.B(b, c)
        a, b = bq.B(a, b)
        b, c = bq.B(b, c)
    return (a, b, c)
