"""Closed forms and cross-checks, for the tests (not collected).

None of these runs in the pipeline.  They are the second computations that
the tests hold the program against: the edge ids of a slice diagram by
union-find over its ports; a braid closure and an edge cut, each with its
own cups and caps; the greedy contraction of a labelled tensor network by
heap and `np.tensordot`, whose every step `holoinv.invariant` runs as one
`np.dot`; the lift and the crossing maps of `holoinv.sl2factor` on 2x2
numpy arrays, with the holonomy functor
`q_functor` and the converters between arrays and the package's `Mat2`
tuples; the twist and the Steinberg encirclement of the braidings, the
cyclic module built in loops, the
dense R-matrix solver that the weight-class solver replaced, the
dense coproduct, the dual representation and the coproduct Casimir of the
modules, the
Casimir-block views of `uqsl2.CasimirBlocks`, the product and ratio forms
of the modified dimension, and the exact Chebyshev coefficients.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from math import prod
from typing import Optional, Sequence

import numpy as np

from holoinv import sl2factor
from holoinv.diagram import (ARITY, IN_SIGNS, OUT_SIGNS, Diagram, Slice, _fmt,
                             _remap_colors)
from holoinv.braiding import (BlockBraiding, BraidingProvider, HolonomyBraiding, ModScalar,
                              pair_defined, proportionality)
from holoinv.errors import (
    BranchInconsistent,
    InconsistentColoring,
    InternalInconsistency,
    NonScalarResult,
    NoSuchEdge,
    NotAdmissible,
    NotClosed,
    OutsideGPrime,
    ParseError,
    Singular,
    SingularSolution,
    Undefined,
    UnresolvableYB,
    WordMismatch,
)
from holoinv.params import GATE, TOL, RootParams
from holoinv.quandle import Mat2, QColor
from holoinv.sl2factor import GStarElem, YColor, sl2_B, steinberg_ycolor
from holoinv.uqsl2 import CasimirBlocks, CyclicModule, ZChar, is_admissible

from oracles import alpha


class AlphaUndefined(Undefined):
    """The diagonal partner of a color is not a braiding fixed point."""


def same_mod_roots(a: ModScalar, b: ModScalar, tol: float = TOL) -> bool:
    """a and b agree modulo r^2-th roots of unity: their canonical values
    agree to tol, relative to the larger one."""
    x, y = a.canonical, b.canonical
    return abs(x - y) <= tol * max(1.0, abs(x), abs(y))


# --- slice-diagram edges by union-find over ports ---------------------------------
# The general construction that `Diagram`'s upward scan must reproduce: pass-
# through strands connect consecutive levels, cups and caps merge their two
# legs into one edge, crossings terminate edges.

class _UnionFind:
    def __init__(self):
        self.parent: dict[tuple[int, int], tuple[int, int]] = {}

    def add(self, x):
        if x not in self.parent:
            self.parent[x] = x

    def find(self, x):
        self.add(x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # keep the smaller port as representative
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def union_find_edges(bottom_signs, slices: Sequence[Slice]
                     ) -> tuple[dict[tuple[int, int], str], list[str]]:
    """The port -> edge id table and the edge ids in port order."""
    uf = _UnionFind()
    cur = list(bottom_signs)
    for t, sl in enumerate(slices):
        o, piece = sl.offset, sl.piece
        nin, nout = ARITY[piece]
        if o + nin > len(cur):
            raise ParseError(f"slice {t} ({piece}@{o}) overflows width {len(cur)}")
        got = "".join(cur[o:o + nin])
        if got != IN_SIGNS[piece]:
            raise ParseError(
                f"slice {t} ({piece}@{o}) needs signs {IN_SIGNS[piece]!r}, got {got!r}"
            )
        # pass-through unions
        for i in range(o):
            uf.union((t, i), (t + 1, i))
        for i in range(o + nin, len(cur)):
            uf.union((t, i), (t + 1, i - nin + nout))
        if piece in ("evL", "evR"):
            uf.union((t, o), (t, o + 1))
        elif piece in ("coevL", "coevR"):
            uf.union((t + 1, o), (t + 1, o + 1))
        # crossings: input ports die, output ports are fresh
        for i in range(o, o + nin):
            uf.add((t, i))
        cur = cur[:o] + list(OUT_SIGNS[piece]) + cur[o + nin:]
        for i in range(o, o + nout):
            uf.add((t + 1, i))
    # make sure every port of the top level exists
    for i in range(len(cur)):
        uf.add((len(slices), i))
    port_edge = {p: _fmt(uf.find(p)) for p in uf.parent}
    # an edge's root is its least port
    edges = [_fmt(p) for p in sorted(uf.parent) if uf.parent[p] == p]
    return port_edge, edges


# --- closures and cuts, each with its own cups and caps ----------------------------
# The two constructions that `diagram._bend` folds into one: a trace closure
# around the right, and a cut that bends strands left of the kept one around
# the left and the others around the right.

def slice_closure(d: Diagram) -> Diagram:
    """Trace closure around the right side."""
    if d.bottom_signs != d.top_signs:
        raise WordMismatch("closure needs equal bottom and top words")
    n = len(d.bottom_signs)
    pre = []
    for i, s in enumerate(d.bottom_signs):
        pre.append(Slice(i, "coevL" if s == "+" else "coevR"))
    mid = list(d.slices)  # ambient right pad needs no offset change
    post = []
    for i in range(n - 1, -1, -1):
        s = d.bottom_signs[i]
        post.append(Slice(i, "evR" if s == "+" else "evL"))
    new = Diagram([], pre + mid + post)
    npre = len(pre)
    # a seam whose top and bottom colors differ makes _remap_colors raise
    return _remap_colors(new, [(d, lambda p: (p[0] + npre, p[1]))])


def slice_cut_edge(d: Diagram, e: Optional[str] = None) -> Diagram:
    """Open one edge of a closed diagram into a 1-1 tangle with boundary (x,+).

    Default edge: lexicographically least (in (level, position) port order).
    The diagram is unrolled at a level where the edge is upward strand p,
    and the n-n tangle this gives is bent open keeping strand p: strands
    left of p return around the left, strands right of p around the right.
    """
    if not d.is_closed():
        raise NotClosed("cut_edge needs a closed diagram")
    if e is None:
        e = next(iter(d._edges), None)
    if e not in d._edges:
        raise NoSuchEdge(e or "empty diagram")
    # cut at the first upward port of the edge.  One exists at some level
    # 1..n-1: a closed diagram has no ports at levels 0 and n, crossings take
    # only upward strands, and a cup or cap joins a downward leg to an
    # upward one, so every edge has an upward port.
    t, p = next((t, i) for t in range(1, d.n_slices)
                for i, s in enumerate(d.level_signs(t))
                if s == "+" and d.edge_at(t, i) == e)
    w = d.level_signs(t)
    m, k = p, len(w) - p - 1
    pre: list[Slice] = []
    # left arcs: a cup created at offset `step` nests inside the earlier
    # ones, so creating j = m-1 first puts strand j's return leg at m-1-j and
    # its other leg at m+j, where the tangle (shifted by m) has strand j.
    for step, j in enumerate(range(m - 1, -1, -1)):
        pre.append(Slice(step, "coevR" if w[j] == "+" else "coevL"))
    # right arcs: create cup for j = 0 .. k-1
    for j in range(k):
        s = w[p + 1 + j]
        pre.append(Slice(2 * m + 1 + j, "coevL" if s == "+" else "coevR"))
    mid = [Slice(s.offset + m, s.piece) for s in d.slices[t:] + d.slices[:t]]
    post: list[Slice] = []
    for j in range(m):  # left caps, innermost (j=0) first
        post.append(Slice(m - 1 - j, "evL" if w[j] == "+" else "evR"))
    for j in range(k - 1, -1, -1):  # right caps, innermost (j=k-1) first
        s = w[p + 1 + j]
        post.append(Slice(1 + j, "evR" if s == "+" else "evL"))
    new = Diagram([w[p]], pre + mid + post)
    # port (lv, i) of d lies at level lv - t of the unrolled tangle if lv >= t,
    # else at lv + n - t; bending adds npre to the level and m to the position.
    # The cut edge legitimately becomes two edges (bottom and top boundary)
    # with the same color, which per-port transfer allows.
    below, above = len(pre) + d.n_slices - t, len(pre) - t
    return _remap_colors(new, [(d, lambda q: (
        q[0] + (above if q[0] >= t else below), q[1] + m))])


# --- the network contraction by np.tensordot -------------------------------------
# `invariant._contract`'s heap order over the live nodes, each step one
# `np.tensordot`, which `_contract` unfolds into its transposes and `np.dot`.

def tensordot_contract(tensors: list, open_labels: list) -> np.ndarray:
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


# --- the lift on 2x2 arrays ------------------------------------------------------
# The ndarray form of sl2factor's maps, which the scalar ones must reproduce.

_ID2 = np.eye(2, dtype=complex)


def mat2(a, b, c, d) -> np.ndarray:
    return np.array([[a, b], [c, d]], dtype=complex)


def inv2(m: np.ndarray) -> np.ndarray:
    a, b, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    det = a * d - b * c
    return np.array([[d, -b], [-c, a]], dtype=complex) / det


def arr(g: Mat2) -> np.ndarray:
    """A Mat2 tuple as a 2x2 array."""
    return mat2(*g)


def tup(m) -> Mat2:
    """A 2x2 array (or nested list) as a Mat2 tuple of Python complex."""
    return tuple(complex(v) for v in np.ravel(m))


def qcolor(m, z: complex) -> QColor:
    """The Q-color with holonomy the 2x2 array m."""
    return QColor(tup(m), z)


def phi_plus(x: GStarElem) -> np.ndarray:
    return mat2(x.kappa, 0.0, x.phi, 1.0)


def phi_minus(x: GStarElem) -> np.ndarray:
    return mat2(1.0, x.eps, 0.0, x.kappa)


def psi(x: GStarElem) -> np.ndarray:
    k, e, f = x.kappa, x.eps, x.phi
    return mat2(k, -e, f, (1.0 - e * f) / k)


def psi_inv(m: np.ndarray) -> GStarElem:
    """Invert psi on G'; raises OutsideGPrime off the domain."""
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if abs(det - 1.0) > TOL * max(1.0, float(np.abs(m).max()) ** 2):
        raise OutsideGPrime("matrix is not in SL(2,C)")
    if abs(m[0, 0]) <= TOL:
        raise OutsideGPrime("vanishing upper-left entry")
    return GStarElem(complex(m[0, 0]), complex(-m[0, 1]), complex(m[1, 0]))


def _conj_solve(h: np.ndarray, m: np.ndarray) -> GStarElem:
    return psi_inv(h @ m @ inv2(h))


def sl2_B(y1: YColor, y2: YColor) -> tuple[YColor, YColor]:
    x1, x2 = y1.g, y2.g
    x4 = _conj_solve(phi_minus(x1), psi(x2))
    x3 = _conj_solve(inv2(phi_plus(x4)), psi(x1))
    return (YColor(x4, y2.z), YColor(x3, y1.z))


def sl2_B_inv(y4: YColor, y3: YColor) -> tuple[YColor, YColor]:
    x4, x3 = y4.g, y3.g
    x1 = _conj_solve(phi_plus(x4), psi(x3))
    x2 = _conj_solve(inv2(phi_minus(x1)), psi(x4))
    return (YColor(x1, y3.z), YColor(x2, y4.z))


def alpha_inv(y: YColor) -> YColor:
    return YColor(psi_inv(inv2(psi(y.g))).inv(), y.z)




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
                q = qcolor(h @ psi(y.g) @ inv2(h), y.z)
                h = h @ phi_plus(y.g)
            else:
                h = h @ inv2(phi_plus(y.g))
                q = qcolor(h @ psi(y.g) @ inv2(h), y.z)
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
                y = YColor(psi_inv(inv2(h) @ arr(q.g) @ h), q.z)
                if s == "-":
                    y = alpha_inv(y)
                ycolors[e] = y
            if s == "+":
                h = h @ phi_plus(y.g)
            else:
                h = h @ inv2(phi_plus(y.g))
    out = d.map_colors(lambda q: None).with_colors(ycolors)
    # round-trip check guards against inconsistent input colorings
    back = q_functor(out)
    for e, q in d.edge_colors.items():
        if not back.edge_colors[e].approx_eq(q, TOL * 1e3):
            raise InternalInconsistency(f"round trip fails on edge {e}")
    return out


# --- braidings -------------------------------------------------------------------

def twist(y: YColor, provider: BraidingProvider) -> ModScalar:
    """The twist scalar of a color, from braiding with its diagonal partner.

    Computed by closing the braiding c_{x, alpha(x)} to the right; the left
    closure through alpha^{-1}(x) must give the same scalar up to an r^2-th
    root of unity.  Where alpha or its inverse has no value, their
    OutsideGPrime (an Undefined) propagates.
    """
    r = provider.p.r
    I = np.eye(r, dtype=complex)
    ax, az = alpha(y), sl2factor.alpha_inv(y)
    hb = provider.braiding(y, ax)
    if not (hb.y4.approx_eq(y, 1e-6) and hb.y3.approx_eq(ax, 1e-6)):
        raise AlphaUndefined("diagonal partner is not a braiding fixed point")
    dax = provider.duality(ax)
    right = np.kron(I, dax.ev_R) @ np.kron(hb.c, I) @ np.kron(I, dax.coev_L)
    s, res = proportionality(right, I)
    if res > GATE:
        raise NonScalarResult(f"twist endomorphism residual {res:.3e}")
    if abs(s) <= 1e-6:
        raise NonScalarResult("twist scalar vanishes")
    # left version through the inverse diagonal
    hb2 = provider.braiding(az, y)
    daz = provider.duality(az)
    left = np.kron(daz.ev_L, I) @ np.kron(I, hb2.c) @ np.kron(daz.coev_R, I)
    s2, res2 = proportionality(left, I)
    if res2 > GATE:
        raise NonScalarResult(f"left twist endomorphism residual {res2:.3e}")
    if not same_mod_roots(ModScalar(s, r), ModScalar(s2, r), GATE):
        raise NonScalarResult("left and right twists disagree beyond roots")
    return ModScalar(complex(s), r)


def steinberg_encirclement(y: YColor, provider: BraidingProvider) -> ModScalar:
    """Close a generic strand around its double braiding with Steinberg.

    The composite c_{st, y^-} . c_{y, st} is an endomorphism of
    V_y (x) V_st; closing the generic strand (left evaluation against right
    coevaluation on V_y) must give r times the identity on the Steinberg
    module, up to an r^2-th root of unity.  Returns the scalar.
    """
    r = provider.p.r
    c1 = provider.braiding(y, steinberg_ycolor(provider.p))
    c2 = provider.braiding(c1.y4, c1.y3)
    double = c2.c @ c1.c
    d = provider.duality(y)
    I = np.eye(r, dtype=complex)
    closed = np.kron(d.ev_L, I) @ np.kron(I, double) @ np.kron(d.coev_R, I)
    s, res = proportionality(closed, I)
    if res > GATE:
        raise NonScalarResult(f"encirclement residual {res:.3e}")
    return ModScalar(complex(s), r)


def assemble(bb: BlockBraiding, lambdas) -> np.ndarray:
    """The intertwiner with scalar lambdas[m] on Casimir block m."""
    return sum(l * b for l, b in zip(lambdas, bb.blocks))


# --- the cyclic module, built in loops --------------------------------------
# `uqsl2.build_cyclic_module` as it was before it read its per-r constants
# from a cache: the same Python arithmetic, computed afresh on every call.

def loop_cyclic_module(chi: ZChar, p: RootParams) -> CyclicModule:
    """The cyclic module of an admissible character (reference)."""
    if not is_admissible(chi, p):
        raise NotAdmissible("parabolic holonomy trace")
    r, xi = p.r, p.xi
    k0 = (-p.sign_r * chi.kappa) ** (1.0 / p.r)
    zeta = np.exp(2j * np.pi / p.r)
    roots = [k0 * zeta ** j for j in range(p.r)]
    if abs(chi.f_r) > TOL:
        k = roots[0]
    else:
        k = None
        for cand in roots:
            if abs(chi.omega - (-p.sign_ell) * (cand + 1.0 / cand)) <= TOL * 1e2 * max(
                1.0, abs(chi.omega)
            ):
                k = cand
                break
        if k is None:
            raise BranchInconsistent(
                "f_r = 0 but no root k matches the Casimir value"
            )
    K = np.diag([k * xi ** (r + 1 - 2 * i) for i in range(1, r + 1)]).astype(complex)
    F = np.zeros((r, r), dtype=complex)
    for i in range(1, r):
        F[i, i - 1] = 1.0
    F[0, r - 1] = chi.f_r
    br1 = p.qbracket(1)
    if abs(chi.f_r) > TOL:
        eps_p = (chi.omega + p.sign_ell * (k + 1.0 / k)) / (br1 ** 2 * chi.f_r)
    else:
        den = prod(
            p.qbracket(i) * (k * xi ** (-i) - xi ** i / k) for i in range(1, r)
        )
        if not abs(den) > TOL:
            raise BranchInconsistent("degenerate branch denominator")
        eps_p = -p.sign_r * br1 ** (2 * (r - 1)) * chi.e_r / den
    E = np.zeros((r, r), dtype=complex)
    for i in range(1, r):
        E[i - 1, i] = (
            chi.f_r * eps_p
            - p.sign_ell * (k * xi ** (-i) - xi ** i / k) * p.qbracket(i) / br1 ** 2
        )
    E[r - 1, 0] = eps_p
    return CyclicModule(chi=chi, E=E, F=F, K=K, p=p)


# --- the dense R-matrix solver ------------------------------------------------
# `braiding.rmatrix_braiding` as it was before it solved on weight classes:
# every step on dense r^2 x r^2 matrices.  The class-block solver must
# reproduce its braidings, and raise where it raises.

def dense_unit_det(c: np.ndarray) -> complex:
    """The scale 1 / det(c)^(1/n), with the principal root, that gives c unit
    determinant; from the log-determinant so that a determinant beyond the
    float range neither under- nor overflows."""
    sv = np.linalg.svd(c, compute_uv=False)
    if not sv[-1] > TOL * max(1.0, sv[0]):
        raise SingularSolution("braiding matrix is singular")
    sign, logdet = np.linalg.slogdet(c)
    return np.exp(-(logdet + 1j * np.angle(sign)) / c.shape[0])


def dense_dilog_series(V1: CyclicModule, V2: CyclicModule, rho: complex,
                 p: RootParams) -> np.ndarray:
    """The cyclic quantum dilogarithm Sum_n s_n E^n (x) F^n on V1 (x) V2.

    s_0 = 1 and s_n / s_(n-1) = [1]^2 / (xi (1 - rho xi^(-2n))), for n < r.
    rho = 1 gives the truncated quantum exponential, whose truncation is
    exact when E acts nilpotently on V1 or F on V2 (the Steinberg module).
    A root rho = xi^(2n) with 0 < n < r is a pole: UnresolvableYB.
    """
    r, q = p.r, p.xi
    S = np.zeros((r * r, r * r), dtype=complex)
    En = np.eye(r, dtype=complex)
    Fn = np.eye(r, dtype=complex)
    coef = 1.0 + 0j
    for n in range(r):
        if n:
            En = En @ V1.E
            Fn = Fn @ V2.F
            pole = 1 - rho * q ** (-2 * n)
            if not abs(pole) > TOL:
                raise UnresolvableYB(f"the series has a pole at n = {n}")
            coef *= p.qbracket(1) ** 2 / (q * pole)
        S += coef * kron(En, Fn)
    return S


def dense_rmatrix_braiding(y1: YColor, y2: YColor,
                     provider: "BraidingProvider") -> HolonomyBraiding:
    """The braiding of a pair, in the R-matrix form of Kashaev-Reshetikhin.

    c = tau P D S: tau is the flip, S the `dilog_series` and D a diagonal
    Cartan factor on the (i, j) grid of V1 (x) V2, read on V3 (x) V4 after
    the relabeling P : (i, j) -> (i + s, j) that matches the Delta(K)
    weights.  The series root is rho = K1[0, 0] / K3[s, s].  c intertwines
    exactly when D_o (A_u)_oo' = (B_u)_oo' D_o' for u in {E, F, K}, where
    A_u = S rho12(Delta u) S^-1 and B_u = (tau P)^-1 rho43(Delta u) tau P.
    A_u must vanish wherever B_u does.  Delta(E), Delta(F) link grid
    neighbours, so D follows by recurrence from D_(0, 0) = 1: down column
    0, then along each row, every link ratio the least-squares ratio of its
    E and F equations.  A link without a coefficient on its far end would
    leave D free there; afterwards every structural equation, not only the
    links, must hold.  The inverse is S^-1 D^-1 (tau P)^-1, from the same
    factors.
    """
    p, r = provider.p, provider.p.r
    if not pair_defined(provider.char(y1), provider.char(y2), p):
        raise Undefined("pair obstruction vanishes")
    y4, y3 = sl2_B(y1, y2)
    V1, V2, V4, V3 = (provider.module(y) for y in (y1, y2, y4, y3))
    k1, k2, k3, k4 = (np.diag(V.K) for V in (V1, V2, V3, V4))
    s = int(np.abs(k3 * k4[0] - k1[0] * k2[0]).argmin())
    S = dense_dilog_series(V1, V2, k1[0] / k3[s], p)
    S_inv = np.linalg.inv(S)
    # grid point (i, j) of V1 (x) V2 lands on (i + s, j) of V3 (x) V4, which
    # is coordinate j r + i + s of V4 (x) V3
    i, j = np.divmod(np.arange(r * r), r)
    out = j * r + (i + s) % r
    d12, d43 = coproduct_matrices(V1, V2), coproduct_matrices(V4, V3)
    A = np.array([S @ d12[u] @ S_inv for u in "EFK"])
    B = np.array([d43[u][out[:, None], out] for u in "EFK"])
    for u, a, b in zip("EFK", A, B):
        stray = np.abs(a[b == 0]).max(initial=0.0) / np.abs(a).max()
        if not stray <= GATE:
            raise UnresolvableYB(f"no Cartan factor intertwines Delta({u}), "
                                 f"residual {stray:.3e}")
    # links P -> Q down column 0, then along the rows; x = D_Q / D_P solves
    # a x = b for the E and F equations at (P, Q) and at (Q, P)
    g = np.arange(r * r).reshape(r, r)
    P = np.concatenate([g[:-1, 0], g[:, :-1].ravel()])
    Q = np.concatenate([g[1:, 0], g[:, 1:].ravel()])
    a = np.concatenate([B[:2, P, Q], A[:2, Q, P]])
    b = np.concatenate([A[:2, P, Q], B[:2, Q, P]])
    weight = (np.abs(a) ** 2).sum(axis=0)
    if not weight.min() > 1e-16 * weight.max():
        raise UnresolvableYB("Cartan factor not unique: a grid link has no equation")
    step = (a.conj() * b).sum(axis=0) / weight
    col = np.cumprod(np.r_[1, step[:r - 1]])
    D = np.cumprod(np.column_stack([col, step[r - 1:].reshape(r, -1)]), axis=1).ravel()
    # normwise per generator: an entry of B that is only rounding noise has
    # lhs and rhs of that size, and their entrywise ratio would be arbitrary
    res = 0.0
    for a, b in zip(A, B):
        i, j = np.nonzero(b)
        lhs, rhs = D[i] * a[i, j], b[i, j] * D[j]
        size = (np.abs(lhs) + np.abs(rhs)).max()
        res = np.maximum(res, np.abs(lhs - rhs).max() / max(size, 1e-300))
    if not res <= GATE:
        raise UnresolvableYB(f"no Cartan factor intertwines, residual {res:.3e}")
    c, c_inv = np.empty_like(S), np.empty_like(S)
    c[out] = D[:, None] * S
    c_inv[:, out] = S_inv / D
    u = dense_unit_det(c)
    return HolonomyBraiding(y1=y1, y2=y2, y4=y4, y3=y3, c=u * c, c_inv=c_inv / u)


# --- modules -----------------------------------------------------------------------

def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a, b) of two matrices as one broadcast outer product; the
    entries are bitwise those of np.kron."""
    (m, n), (k, l) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * k, n * l)


def k_inv(V: CyclicModule) -> np.ndarray:
    return np.diag(1.0 / np.diag(V.K))


def casimir_matrix(E: np.ndarray, F: np.ndarray, K: np.ndarray,
                   K_inv: np.ndarray, p: RootParams) -> np.ndarray:
    """The Casimir [1]^2 E F + K xi^(-1) + K^(-1) xi on generator matrices."""
    return p.qbracket(1) ** 2 * E @ F + K / p.xi + K_inv * p.xi


def coproduct_matrices(V1: CyclicModule, V2: CyclicModule) -> dict[str, np.ndarray]:
    """The coproduct action on V1 (x) V2 as dense r^2 x r^2 kron sums."""
    I1 = np.eye(V1.r, dtype=complex)
    I2 = np.eye(V2.r, dtype=complex)
    return {
        "E": kron(I1, V2.E) + kron(V1.E, V2.K),
        "F": kron(k_inv(V1), V2.F) + kron(V1.F, I2),
        "K": kron(V1.K, V2.K),
    }


def omega_matrix(V: CyclicModule) -> np.ndarray:
    """The Casimir on a module."""
    return casimir_matrix(V.E, V.F, V.K, k_inv(V), V.p)


@dataclass(frozen=True)
class DualRep:
    """Generator matrices on the dual module: rho*(u) = rho(S(u))^T."""

    E: np.ndarray
    F: np.ndarray
    K: np.ndarray


def dual_rep(V: CyclicModule) -> DualRep:
    Kinv = k_inv(V)
    return DualRep(
        E=(-V.E @ Kinv).T,
        F=(-V.K @ V.F).T,
        K=Kinv.T,
    )


def coproduct_casimir(V1: CyclicModule, V2: CyclicModule) -> np.ndarray:
    d = coproduct_matrices(V1, V2)
    return casimir_matrix(d["E"], d["F"], d["K"], np.diag(1 / np.diag(d["K"])), V1.p)


def block_bases(b: CasimirBlocks) -> tuple[np.ndarray, ...]:
    """Block m's vectors as an (r^2, r) matrix, one column per weight class."""
    r = len(b.values)
    out = np.zeros((r, r * r, r), dtype=complex)
    out[:, b.classes, np.arange(r)[:, None]] = b.vecs.transpose(2, 0, 1)
    return tuple(out)


def block_cobases(b: CasimirBlocks) -> tuple[np.ndarray, ...]:
    """Block m's covectors as an (r, r^2) matrix: block_bases(b)[m] @
    block_cobases(b)[m] is the spectral projector of Casimir value m."""
    r = len(b.values)
    out = np.zeros((r, r, r * r), dtype=complex)
    out[:, np.arange(r)[:, None], b.classes] = b.covecs.transpose(1, 0, 2)
    return tuple(out)


# --- the modified dimension and Chebyshev polynomials ----------------------------

def modified_dim_product(alpha: complex, p: RootParams) -> complex:
    """Cross-check form: (-1)^(r-1) prod_{j=1}^{r-1} [j] / [alpha + r - j]."""
    out = complex(-p.sign_r)
    for j in range(1, p.r):
        den = p.qbracket(alpha + p.r - j)
        if abs(den) <= TOL:
            raise Singular(f"bracket [alpha + {p.r - j}] vanishes")
        out *= p.qbracket(j) / den
    return out


def modified_dim_ratio(alpha: complex, p: RootParams) -> complex:
    """Cross-check form: (-1)^(r-1) r [alpha] / [r alpha], for [r alpha] != 0."""
    den = p.qbracket(p.r * alpha)
    if abs(den) <= TOL:
        raise Singular("bracket [r alpha] vanishes")
    return -p.sign_r * p.r * p.qbracket(alpha) / den


def cheb_first_kind_coeffs(n: int) -> list[int]:
    """Exact integer coefficients (ascending powers) of the degree-n polynomial."""
    prev, cur = [2], [0, 1]
    if n == 0:
        return prev
    for _ in range(n - 1):
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return cur
