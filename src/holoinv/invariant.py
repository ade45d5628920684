"""Pivotal functor on colored tangle diagrams and the renormalized invariant.

`evaluate_F` turns a Y-colored slice diagram into a tensor network with one
node per crossing, the holonomy braiding of its bottom colors (X+) or its
inverse (X-).  Cups and caps map to duality pairings, diagonal in the weight
basis (the identity on the left, K^(1-r) and K^(r-1) on the right), so they
only join strand segments into size-r labels, and each label's diagonal is
multiplied into a crossing axis that carries it.  Any
order contracts the network; it is contracted pairwise, smallest result
first, rather than swept slice by slice.

`evaluate_Fprime` computes the renormalized bracket of a closed diagram:
cut one edge, evaluate the resulting 1-1 tangle (a scalar on a simple
module) on the closed diagram from the cut's level, and multiply by the
modified dimension of the cut color.  The result is a ModScalar, well defined modulo r^2-th roots of unity and
independent of the chosen cut edge.

`tilde_Fprime` is the full pipeline on holonomy-colored (Q-colored) links:
lift the coloring to factorization colors (`gauge_fix`, retrying in random
gauges when a solve leaves the factorizable locus), then cut, evaluate and
renormalize.
The canonical value (the r^2-th power) is a gauge- and move-independent
invariant of the colored link.

`cut_edge`, `modified_dim` and `q_functor_inv` are imported by name: the
benchmark's traced run (perfbench/spans.py) wraps them in this namespace.
The pipeline no longer calls `cut_edge`, the tests' reference for a cut.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .braiding import BraidingProvider, ModScalar, proportionality
from .diagram import Diagram, colors_equal, cut_edge, cut_port
from .errors import (
    GaugeExhausted,
    InconsistentColoring,
    NonScalarResult,
    ParseError,
    Undefined,
)
from .modtrace import modified_dim
from .params import GATE, TOL
from .quandle import gauge_act_matrix
from .sl2factor import GStarElem, cpair, q_functor_inv, random_gstar, sl2_B_inv

MAX_WIDTH = 8  # a policy limit on diagram width, not a memory bound


@dataclass(frozen=True)
class InvariantResult:
    """Outcome of the full pipeline on one colored link diagram."""

    value: ModScalar
    gauge_used: GStarElem
    cut_edge: str
    attempts: int

    def as_json_dict(self) -> dict:
        return {
            "canonical": cpair(self.value.canonical),
            "representative": cpair(self.value.value),
            "gauge": self.gauge_used.as_json_dict(),
            "attempts": self.attempts,
            "cut_edge": self.cut_edge,
        }


def _contract(tensors: list, open_labels: list) -> np.ndarray:
    """Contract (array, labels) nodes, every axis of size r, in pairs.

    A label on two nodes is summed over, one on a single node stays open.
    Each step joins the pair sharing labels whose result has the fewest
    axes, by the transposes, reshapes and one `np.dot` that `np.tensordot`
    would make, so bit for bit its result without its per-call checks.
    Disconnected parts are joined by outer products in the end.
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
        fa, fb = [x for x in la if x not in shared], [x for x in lb if x not in shared]
        lc, r = fa + fb, a.shape[0]
        k += 1
        live[k] = (np.dot(
            a.transpose([la.index(x) for x in fa + shared]).reshape(r ** len(fa), -1),
            b.transpose([lb.index(x) for x in shared + fb]).reshape(-1, r ** len(fb)),
        ).reshape((r,) * len(lc)), lc)
        links: dict = {}  # live node -> how many labels it shares with k
        for x in lc:
            where[x] = [k if q in (i, j) else q for q in where[x]]
            for q in where[x]:
                if q != k:
                    links[q] = links.get(q, 0) + 1
        for q, m in links.items():
            heapq.heappush(heap, (len(lc) + len(live[q][1]) - 2 * m, q, k))
    out, labels = np.ones((), dtype=complex), []
    for a, la in live.values():
        out, labels = np.tensordot(out, a, axes=0), labels + la
    return out.transpose([labels.index(x) for x in open_labels])


def _braided(d: Diagram, t: int, sl) -> tuple:
    """The colors whose braiding the crossing at slice t takes: its bottom
    colors at X+, their biquandle preimage B^-1 (its top colors) at X-."""
    ya, yb = d.color_at(t, sl.offset), d.color_at(t, sl.offset + 1)
    if ya is None or yb is None:
        raise InconsistentColoring(f"uncolored crossing at slice {t}")
    return (ya, yb) if sl.piece == "X+" else sl2_B_inv(ya, yb)


def evaluate_F(d: Diagram, provider: BraidingProvider,
               port: Optional[tuple[int, int]] = None) -> np.ndarray:
    """The functor on a Y-colored diagram, as a matrix (top space x bottom).

    Crossings map to holonomy braidings of their bottom colors.  Cups and
    caps, diagonal duality pairings, make no node: they join strand segments
    into labels whose diagonals go into crossing axes, one node per crossing.
    The walk that labels the network checks every cup, cap and crossing-input
    color; one `resolve` then solves the uncached pairs as a stack.  Last, in
    slice order, each crossing reads its braiding (a pair left unsolved
    raises there) and checks its stored top colors.

    With `port=(t, p)` of a closed diagram, the walk starts at level t and
    closes the other strands there as `cut_edge` bends them: the cut's matrix.
    """
    t0, p = port or (0, None)
    r, w0 = provider.p.r, len(signs := d.level_signs(t0))
    if (width := d.max_width() + (w0 - 1 if port else 0)) > MAX_WIDTH:  # as cut
        raise ParseError(f"diagram width {width} exceeds the guard {MAX_WIDTH}")
    crossings, net = [], []  # crossings: (t, slice, the pair it braids, labels)
    root, weight = {}, {}  # label -> the label it joined; root -> its diagonal
    cur, fresh = list(range(w0)), itertools.count(w0)  # 0..w0-1: level t0
    ones = np.ones(r, dtype=complex)  # a left cup or cap: the identity

    def find(x):
        return find(root[x]) if x in root else x

    def join(a, b, diag):  # a cap: the labels of its legs become one
        a, b = find(a), find(b)
        diag = diag * weight.pop(a, 1)
        if a == b:  # the cap closes a loop that meets no crossing
            net.append((np.array(diag.sum()), []))
        else:
            root[b], weight[a] = a, diag * weight.pop(b, 1)

    bent, caps = (*range(p), *range(w0 - 1, p, -1)) if port else (), {}
    for j in bent:  # in the order of the bend's caps, innermost first
        if (y := d.color_at(t0, j)) is None:
            raise InconsistentColoring(f"uncolored strand {j} at the cut level {t0}")
        dual = provider.duality(y)  # left of p, + has the right cup, - the right cap
        weight[j], caps[j] = ((dual.coev_R, ones) if (j < p) == (signs[j] == "+")
                              else (ones, dual.ev_R))
    for t in (*range(t0, d.n_slices), *range(t0)):
        o, piece = (sl := d.slices[t]).offset, sl.piece
        if piece in ("X+", "X-"):
            out = [next(fresh), next(fresh)]
            crossings.append((t, sl, _braided(d, t, sl), out + cur[o:o + 2]))
            cur[o:o + 2] = out
            continue
        cap = piece.startswith("ev")
        y = d.color_at(t if cap else t + 1, o)
        if y is None:
            raise InconsistentColoring(f"uncolored cup or cap at slice {t}")
        dual = provider.duality(y)  # evR -> ev_R, coevR -> coev_R
        w = getattr(dual, piece[:-1] + "_R") if piece.endswith("R") else ones
        if cap:
            join(cur.pop(o), cur.pop(o), w)
        else:
            cur[o:o] = [x := next(fresh)] * 2
            weight[x] = w
    for j in bent:  # a cap left of p has the bottom label first, right of p the top
        join(*((j, cur[j]) if j < p else (cur[j], j)), caps[j])
    provider.resolve([uv for _, _, uv, _ in crossings])
    for t, sl, (u, v), labels in crossings:
        hb = provider.braiding(u, v)
        tops, m = ((hb.y4, hb.y3), hb.c) if sl.piece == "X+" else ((u, v), hb.c_inv)
        for k in range(2):
            got = d.color_at(t + 1, sl.offset + k)
            if got is not None and not colors_equal(tops[k], got, 1e3 * TOL):
                raise InconsistentColoring(
                    f"crossing at slice {t}: stored top color disagrees "
                    "with the biquandle output")
        m, ls = m.reshape((r,) * 4), [find(x) for x in labels]
        for k, x in enumerate(ls):
            if x in weight:
                m = np.multiply(m, weight.pop(x).reshape((r,) + (1,) * (3 - k)))
        for x in [x for k, x in enumerate(ls) if x in ls[:k]]:  # a curl: trace it
            m = np.trace(m, 0, *(k for k, q in enumerate(ls) if q == x))
            ls = [q for q in ls if q != x]
        net.append((m, ls))
    tops, bottoms = ([cur[p]], [p]) if port else (cur, list(range(w0)))
    ends = [find(x) for x in tops + bottoms]
    for k, x in enumerate(ends):
        if x in ends[:k]:  # both ends open: the label's diagonal is a node
            ends[k] = z = next(fresh)
            net.append((np.diag(weight.get(x, ones)), [x, z]))
    return _contract(net, ends).reshape(r ** len(tops), r ** len(bottoms))


def evaluate_Fprime(d: Diagram, provider: BraidingProvider,
                    cut: Optional[str] = None) -> ModScalar:
    """Renormalized bracket of a closed Y-colored diagram.

    Cuts one edge (default: the least edge id), evaluates the 1-1 tangle at
    its `cut_port`, extracts the scalar by which it acts on the simple module
    of the cut color, and multiplies by that color's modified dimension.
    """
    t, p = port = cut_port(d, cut)
    x = d.color_at(t, p)
    if x is None:
        raise InconsistentColoring("cut edge has no color")
    m = evaluate_F(d, provider, port)
    s, res = proportionality(m, np.eye(provider.p.r, dtype=complex))
    if not res <= GATE:
        raise NonScalarResult(
            f"1-1 tangle is not scalar on the cut color, residual {res:.3e}"
        )
    dchi = modified_dim(provider.char(x), provider.p)
    return ModScalar(dchi * s, provider.p.r)


def _gauges(seed: int):
    """The identity gauge, then gauges drawn by `random_gstar` from `seed`;
    the generator is made only when a second gauge is needed."""
    yield GStarElem.one()
    rng = np.random.default_rng(seed)
    while True:
        yield random_gstar(rng)


def gauge_fix(d: Diagram, seed: int = 0,
              max_gauge: int = 100) -> tuple[GStarElem, Diagram, int]:
    """Find a gauge in which a Q-colored diagram lifts to factorization colors.

    Tries the identity gauge first, then gauges drawn by `random_gstar` from
    `seed`.  Returns (gauge, lifted diagram, attempts made); raises
    GaugeExhausted after `max_gauge` failed lifts.  An uncolored edge is bad
    input, not a gauge failure: its InconsistentColoring is not retried.
    """
    last = ""
    for k, x in zip(range(max_gauge), _gauges(seed)):
        dd = gauge_act_matrix(x.phi_plus(), d) if k else d
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
    # None on a diagram with no edge, which cut_edge rejects as NoSuchEdge
    e = cut if cut is not None else next(iter(lifted.edges()), None)
    value = evaluate_Fprime(lifted, provider, e)
    return InvariantResult(value=value, gauge_used=gauge,
                           cut_edge=e, attempts=attempts)
