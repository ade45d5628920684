"""Pivotal functor on colored tangle diagrams and the renormalized invariant.

`evaluate_F` folds a Y-colored slice diagram bottom to top: positive
crossings act by the holonomy braiding of their bottom colors, negative
crossings by the inverse braiding, cups and caps by the duality tensors of
the edge's module.  An upward strand carries the r-dimensional module of its
color, a downward strand the dual space; both contribute a factor of r to
the state dimension, so evaluation is dense linear algebra with one tensor
axis per strand.

`evaluate_Fprime` computes the renormalized bracket of a closed diagram:
cut one edge, evaluate the resulting 1-1 tangle (a scalar on a simple
module), and multiply by the modified dimension of the cut color.  The
result is a ModScalar, well defined modulo r^2-th roots of unity and
independent of the chosen cut edge.

`tilde_Fprime` is the full pipeline on holonomy-colored (Q-colored) links:
lift the coloring to factorization colors (`gauge_fix`, retrying in random
gauges when a solve leaves the factorizable locus), then cut, evaluate and
renormalize.
The canonical value (the r^2-th power) is a gauge- and move-independent
invariant of the colored link.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

import numpy as np

from .braiding import BraidingProvider, ModScalar, proportionality
from .diagram import Diagram, colors_equal, cut_edge
from .errors import (
    GaugeExhausted,
    InconsistentColoring,
    NonScalarResult,
    ParseError,
    Undefined,
)
from .modtrace import modified_dim
from .quandle import QColor, gauge_act, gauge_act_matrix
from .sl2factor import (
    GStarElem,
    gauge_act_diagram,
    q_functor_inv,
    random_gstar,
)

DEFAULT_MAX_WIDTH = 8


@dataclass(frozen=True)
class InvariantResult:
    """Outcome of the full pipeline on one colored link diagram."""

    value: ModScalar
    gauge_used: GStarElem
    cut_edge: str
    attempts: int

    def as_json_dict(self) -> dict:
        can = self.value.canonical
        rep = complex(self.value.value)
        return {
            "canonical": [can.real, can.imag],
            "representative": [rep.real, rep.imag],
            "gauge": {
                "kappa": [self.gauge_used.kappa.real, self.gauge_used.kappa.imag],
                "eps": [self.gauge_used.eps.real, self.gauge_used.eps.imag],
                "phi": [self.gauge_used.phi.real, self.gauge_used.phi.imag],
            },
            "attempts": self.attempts,
            "cut_edge": self.cut_edge,
        }


def _apply(state: np.ndarray, m: np.ndarray, offset: int,
           nin: int, nout: int, r: int) -> np.ndarray:
    """Contract I (x) m (x) I into a state with one axis per strand."""
    mt = m.reshape((r,) * nout + (r,) * nin)
    out = np.tensordot(
        mt, state,
        axes=(list(range(nout, nout + nin)), list(range(offset, offset + nin))),
    )
    return np.moveaxis(out, list(range(nout)), list(range(offset, offset + nout)))


def evaluate_F(d: Diagram, provider: BraidingProvider,
               max_width: int = DEFAULT_MAX_WIDTH) -> np.ndarray:
    """The functor on a Y-colored diagram, as a matrix (top space x bottom).

    Crossings map to holonomy braidings of their bottom colors, cups and
    caps to the duality tensors of the edge's module.  Stored top colors at
    each crossing must match the biquandle outputs.
    """
    if d.max_width() > max_width:
        raise ParseError(
            f"diagram width {d.max_width()} exceeds the guard {max_width}"
        )
    r, tol = provider.p.r, provider.tol
    w0 = len(d.bottom_signs)
    dim0 = r ** w0
    state = np.eye(dim0, dtype=complex).reshape((r,) * w0 + (dim0,))
    for t, sl in enumerate(d.slices):
        o = sl.offset
        if sl.piece in ("X+", "X-"):
            ya, yb = d.color_at(t, o), d.color_at(t, o + 1)
            if ya is None or yb is None:
                raise InconsistentColoring(f"uncolored crossing at slice {t}")
            if sl.piece == "X+":
                hb = provider.braiding(ya, yb)
                tops = (hb.y4, hb.y3)
                m = hb.c
            else:
                tops, m = provider.braiding_inv(ya, yb)
            for k in range(2):
                got = d.color_at(t + 1, o + k)
                if got is not None and not colors_equal(tops[k], got, 1e3 * tol):
                    raise InconsistentColoring(
                        f"crossing at slice {t}: stored top color disagrees "
                        "with the biquandle output"
                    )
            state = _apply(state, m, o, 2, 2, r)
        else:
            lv = t if sl.piece in ("evL", "evR") else t + 1
            y = d.color_at(lv, o)
            if y is None:
                raise InconsistentColoring(f"uncolored cup or cap at slice {t}")
            dd = provider.duality(y)
            m = getattr(dd, {"evL": "ev_L", "evR": "ev_R",
                             "coevL": "coev_L", "coevR": "coev_R"}[sl.piece])
            nin, nout = (2, 0) if sl.piece.startswith("ev") else (0, 2)
            state = _apply(state, m, o, nin, nout, r)
    w_top = len(d.top_signs)
    return state.reshape(r ** w_top, dim0)


def evaluate_Fprime(d: Diagram, provider: BraidingProvider,
                    cut: Optional[str] = None) -> ModScalar:
    """Renormalized bracket of a closed Y-colored diagram.

    Cuts one edge (default: the least edge id), evaluates the 1-1 tangle,
    extracts the scalar by which it acts on the simple module of the cut
    color, and multiplies by that color's modified dimension.
    """
    tol = provider.tol
    tangle = cut_edge(d, cut, tol)
    x = tangle.color_at(0, 0)
    if x is None:
        raise InconsistentColoring("cut edge has no color")
    r = provider.p.r
    m = evaluate_F(tangle, provider)
    s, res = proportionality(m, np.eye(r, dtype=complex))
    if res > max(1e3 * tol, 1e-8):
        raise NonScalarResult(
            f"1-1 tangle is not scalar on the cut color, residual {res:.3e}"
        )
    dchi = modified_dim(provider.char(x), provider.p, tol)
    return ModScalar(dchi * s, r)


def gauge_fix(d: Diagram, seed: int = 0, max_gauge: int = 100,
              tol: float = 1e-9) -> tuple[GStarElem, Diagram, int]:
    """Find a gauge in which a Q-colored diagram lifts to factorization colors.

    Tries the identity gauge first, then gauges drawn by `random_gstar` from
    `seed`.  Returns (gauge, lifted diagram, attempts made); raises
    GaugeExhausted after `max_gauge` failed lifts.  An uncolored edge is bad
    input, not a gauge failure: its InconsistentColoring is not retried.
    """
    rng = np.random.default_rng(seed)
    last = ""
    for k in range(max_gauge):
        x = GStarElem.one() if k == 0 else random_gstar(rng)
        dd = gauge_act_diagram(x, d) if k else d
        try:
            return x, q_functor_inv(dd, tol), k + 1
        except Undefined as e:
            last = str(e)
    raise GaugeExhausted(
        f"no lifting gauge found in {max_gauge} attempts (last: {last})"
    )


def tilde_Fprime(d: Diagram, provider: BraidingProvider,
                 seed: int = 0, max_gauge: int = 100,
                 cut: Optional[str] = None) -> InvariantResult:
    """Full pipeline on a closed Q-colored diagram.

    Lifts the holonomy coloring to factorization colors, trying the
    identity gauge first and then gauges drawn from `seed`; cuts an edge;
    evaluates; multiplies by the modified dimension.  The canonical value
    of the result does not depend on the gauge, the cut edge, or the
    diagram representative.
    """
    gauge, lifted, attempts = gauge_fix(d, seed, max_gauge, provider.tol)
    e = cut if cut is not None else lifted.edges()[0]
    value = evaluate_Fprime(lifted, provider, e)
    return InvariantResult(value=value, gauge_used=gauge,
                           cut_edge=e, attempts=attempts)


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
        "pass": worst <= max(1e3 * provider.tol, 1e-8) * 1e2,
    }
