"""Pivotal functor on colored tangle diagrams and the renormalized invariant.

`evaluate_F` turns a Y-colored slice diagram into a tensor network: positive
crossings give the holonomy braiding of their bottom colors, negative
crossings the inverse braiding, cups and caps the duality tensors of the
edge's module.  Each strand segment, upward (the module of its color) or
downward (the dual space), is one size-r label.  Functoriality lets any
order contract the network, so it is contracted pairwise, smallest result
first, rather than swept as a state with one axis per strand.

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

`cut_edge`, `modified_dim` and `q_functor_inv` are called through this
module's namespace, where the benchmark's traced run (perfbench/spans.py)
wraps them, so they are imported by name rather than through their modules.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .braiding import BraidingProvider, ModScalar, proportionality
from .diagram import ARITY, Diagram, colors_equal, cut_edge
from .errors import (
    GaugeExhausted,
    InconsistentColoring,
    NonScalarResult,
    ParseError,
    Undefined,
)
from .modtrace import modified_dim
from .params import GATE, TOL
from .sl2factor import GStarElem, gauge_act_diagram, q_functor_inv, random_gstar

MAX_WIDTH = 8  # a policy limit on diagram width, not a memory bound


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


def _contract(tensors: list, open_labels: list) -> np.ndarray:
    """Contract (array, labels) nodes, every axis of size r, in pairs.

    A label on two nodes is summed over, one on a single node stays open.
    Each step tensordots the pair sharing labels whose result has the fewest
    axes; disconnected parts are joined by outer products in the end.
    """
    live = dict(enumerate(tensors))
    where: dict = {}  # label -> ids of the live nodes carrying it
    for i, (_, ls) in enumerate(tensors):
        for x in ls:
            where.setdefault(x, []).append(i)
    heap = [(len(live[i][1]) + len(live[j][1]) - 2 * m, i, j) for (i, j), m
            in Counter(tuple(w) for w in where.values() if len(w) == 2).items()]
    heapq.heapify(heap)
    k = len(tensors)
    while heap:
        _, i, j = heapq.heappop(heap)
        if i not in live or j not in live:
            continue  # stale: one of the pair was merged already
        (a, la), (b, lb) = live.pop(i), live.pop(j)
        shared = [x for x in la if x in lb]
        lc = [x for x in la + lb if x not in shared]
        k += 1
        live[k] = (np.tensordot(a, b, axes=([la.index(x) for x in shared],
                                            [lb.index(x) for x in shared])), lc)
        for x in lc:
            where[x] = [k if q in (i, j) else q for q in where[x]]
        for q, m in Counter(q for x in lc for q in where[x] if q != k).items():
            heapq.heappush(heap, (len(lc) + len(live[q][1]) - 2 * m, q, k))
    out, labels = np.ones((), dtype=complex), []
    for a, la in live.values():
        out, labels = np.tensordot(out, a, axes=0), labels + la
    return out.transpose([labels.index(x) for x in open_labels])


def evaluate_F(d: Diagram, provider: BraidingProvider) -> np.ndarray:
    """The functor on a Y-colored diagram, as a matrix (top space x bottom).

    Crossings map to holonomy braidings of their bottom colors, cups and
    caps to the duality tensors of the edge's module; with an identity per
    bottom strand they form the network that `_contract` evaluates.  Stored
    top colors at each crossing must match the biquandle outputs.
    """
    if d.max_width() > MAX_WIDTH:
        raise ParseError(f"diagram width {d.max_width()} exceeds the guard {MAX_WIDTH}")
    r, w0 = provider.p.r, len(d.bottom_signs)
    # labels 0..w0-1 are the bottom boundary; slice t outputs 2w0 + 2t + k
    cur = list(range(w0, 2 * w0))
    net = [(np.eye(r, dtype=complex), [w0 + k, k]) for k in range(w0)]
    for t, sl in enumerate(d.slices):
        o, (nin, nout) = sl.offset, ARITY[sl.piece]
        if sl.piece in ("X+", "X-"):
            ya, yb = d.color_at(t, o), d.color_at(t, o + 1)
            if ya is None or yb is None:
                raise InconsistentColoring(f"uncolored crossing at slice {t}")
            if sl.piece == "X+":
                hb = provider.braiding(ya, yb)
                tops, m = (hb.y4, hb.y3), hb.c
            else:
                tops, m = provider.braiding_inv(ya, yb)
            for k in range(2):
                got = d.color_at(t + 1, o + k)
                if got is not None and not colors_equal(tops[k], got, 1e3 * TOL):
                    raise InconsistentColoring(
                        f"crossing at slice {t}: stored top color disagrees "
                        "with the biquandle output")
        else:
            y = d.color_at(t if nin else t + 1, o)
            if y is None:
                raise InconsistentColoring(f"uncolored cup or cap at slice {t}")
            # evL -> ev_L, coevR -> coev_R, ...
            m = getattr(provider.duality(y), sl.piece[:-1] + "_" + sl.piece[-1])
        out = list(range(2 * w0 + 2 * t, 2 * w0 + 2 * t + nout))
        net.append((m.reshape((r,) * (nout + nin)), out + cur[o:o + nin]))
        cur[o:o + nin] = out
    return _contract(net, cur + list(range(w0))).reshape(r ** len(cur), r ** w0)


def evaluate_Fprime(d: Diagram, provider: BraidingProvider,
                    cut: Optional[str] = None) -> ModScalar:
    """Renormalized bracket of a closed Y-colored diagram.

    Cuts one edge (default: the least edge id), evaluates the 1-1 tangle,
    extracts the scalar by which it acts on the simple module of the cut
    color, and multiplies by that color's modified dimension.
    """
    tangle = cut_edge(d, cut)
    x = tangle.color_at(0, 0)
    if x is None:
        raise InconsistentColoring("cut edge has no color")
    m = evaluate_F(tangle, provider)
    s, res = proportionality(m, np.eye(provider.p.r, dtype=complex))
    if res > GATE:
        raise NonScalarResult(
            f"1-1 tangle is not scalar on the cut color, residual {res:.3e}"
        )
    dchi = modified_dim(provider.char(x), provider.p)
    return ModScalar(dchi * s, provider.p.r)


def gauge_fix(d: Diagram, seed: int = 0,
              max_gauge: int = 100) -> tuple[GStarElem, Diagram, int]:
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
            return x, q_functor_inv(dd), k + 1
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
    gauge, lifted, attempts = gauge_fix(d, seed, max_gauge)
    e = cut if cut is not None else lifted.edges()[0]
    value = evaluate_Fprime(lifted, provider, e)
    return InvariantResult(value=value, gauge_used=gauge,
                           cut_edge=e, attempts=attempts)
