"""Sampled axiom checks, shared by the tests (not collected by pytest).

Each checker samples colors and reports its worst violation instead of
raising, so a test can assert on the report: the quandle axioms of the
conjugation quandle, the biquandle axioms of a biquandle oracle (see
`oracles.FactorizationOracle`), the quandle derived from a biquandle, and
the gauge invariance of the modified dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from holoinv.errors import HoloinvError, Undefined
from holoinv.modtrace import modified_dim
from holoinv.params import RootParams, root_params
from holoinv.quandle import QColor, q_act, q_act_inv
from holoinv.sl2factor import sl2_B, sl2_B_inv
from holoinv.uqsl2 import char_from_ycolor

from references import arr
from samplers import random_qcolor, random_ycolor


# --- quandle axioms ------------------------------------------------------------

def _qdist(a: QColor, b: QColor) -> float:
    return float(np.abs(arr(a.g) - arr(b.g)).max() + abs(a.z - b.z))


def check_quandle_axioms(
    op=q_act,
    inv_op=q_act_inv,
    sampler=None,
    samples: int = 1000,
    seed: int = 0,
    p: Optional[RootParams] = None,
) -> dict:
    """Report max violations of the quandle axioms over sampled triples.

    Checked: (i) a |> (b |> c) = (a |> b) |> (a |> c), (ii) b |> inv_op(b, a)
    recovers a (unique division), (iii) a |> a = a.  Violations are reported,
    not raised.
    """
    rng = np.random.default_rng(seed)
    if sampler is None:
        pp = p or root_params(3)
        sampler = lambda: random_qcolor(rng, pp)  # noqa: E731
    report = {"samples": samples, "distributivity": 0.0, "division": 0.0,
              "idempotence": 0.0}
    for _ in range(samples):
        a, b, c = sampler(), sampler(), sampler()
        lhs = op(a, op(b, c))
        rhs = op(op(a, b), op(a, c))
        report["distributivity"] = max(report["distributivity"], _qdist(lhs, rhs))
        report["division"] = max(report["division"], _qdist(op(b, inv_op(b, a)), a))
        report["idempotence"] = max(report["idempotence"], _qdist(op(a, a), a))
    report["max_violation"] = max(
        report["distributivity"], report["division"], report["idempotence"]
    )
    return report


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


# --- biquandle axioms ------------------------------------------------------

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


# --- modified dimension along gauge moves --------------------------------------

def check_dim_gauge_invariance(p: RootParams, samples: int = 1000,
                               seed: int = 0, tol: float = 1e-9) -> dict:
    """Verify d is constant along biquandle gauge moves.

    For sampled pairs (y', y) the transformed color B1(y', y) (and its
    inverse-move counterpart) keeps the Casimir coordinate, so d agrees
    exactly; a short harpoon-word orbit is also walked.  Returns a report
    with the worst deviation and the sample count actually used.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    used = 0
    for _ in range(samples):
        ya = random_ycolor(rng, p)
        yb = random_ycolor(rng, p)
        try:
            d_ref = modified_dim(char_from_ycolor(yb, p), p)
            y4, _ = sl2_B(ya, yb)
            d_fwd = modified_dim(char_from_ycolor(y4, p), p)
            _, v = sl2_B_inv(ya, yb)
            d_inv = modified_dim(char_from_ycolor(ya, p), p)
            d_inv2 = modified_dim(char_from_ycolor(v, p), p)
        except HoloinvError:
            continue
        used += 1
        worst = max(worst, abs(d_fwd - d_ref), abs(d_inv2 - d_inv))
        # short harpoon orbit of yb: the first output of B keeps z
        y = yb
        for _ in range(3):
            partner = random_ycolor(rng, p)
            try:
                y, _ = sl2_B(partner, y)
                d_orb = modified_dim(char_from_ycolor(y, p), p)
            except HoloinvError:
                break
            worst = max(worst, abs(d_orb - d_ref))
    return {"samples": used, "max_deviation": worst, "pass": worst <= tol}
