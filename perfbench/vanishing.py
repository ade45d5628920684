"""Evidence for run.VANISHING: the T(2,5) cases whose invariant is exactly 0.

    python3 perfbench/vanishing.py [--seeds 3 4 5]

For each seed (a random meridian m) and each of the two nonabelian Riley
components of T(2,5), prints |v| at ell 5 and ell 10 for three diagrams of
the same colored knot: the closure of sigma_1^5 and its two Markov
stabilizations sigma_1^5 sigma_2^(+-1).  |v| is an invariant, since v is
defined up to r^2-th roots of unity.

Then, for the first seed at ell 5 and 10, splits the invariant of the
component the benchmark colors into the eigen-blocks of the braid word B on
V_x (x) V_y: the invariant is the sum over blocks of (eigenvalue of B) times
(the cut tangle with B replaced by the block's projector).  At ell 5 the
eigenvalues are the five 5th roots of unity and the terms, each of modulus
above 1, cancel.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import corpus  # noqa: E402
from holoinv import braiding, cli, diagram, invariant, modtrace, params  # noqa: E402
from holoinv.sl2factor import q_functor_inv  # noqa: E402

STABILIZED = {"sigma1^5": (2, [1] * 5), "+sigma2": (3, [1] * 5 + [2]),
              "-sigma2": (3, [1] * 5 + [-2])}


def load(doc: dict, tmp: str):
    path = os.path.join(tmp, "link.json")
    Path(path).write_text(json.dumps(doc))
    return cli.load_link(path)[1]


def colored(m, u, ell, strands, word, rng, tmp):
    x, y = corpus._riley_pair(m, u)
    zs = corpus._zs_per_component(strands, word, m + 1 / m, ell, rng)
    case = corpus._gauge_copies("t25", ell, strands, word, [x, y, y][:strands],
                                zs, rng, 1)[0]
    return load(case.doc, tmp)


def blocks(d, ell):
    """(eigenvalue of B / largest, block term) for each eigen-block of B."""
    provider = braiding.BraidingProvider(params.root_params(ell))
    # the corpus gauge lifts at the first attempt, as in tilde_Fprime
    lifted = q_functor_inv(d, provider.tol)
    t = diagram.cut_edge(lifted, lifted.edges()[0], provider.tol)
    r = provider.p.r
    xs = [k for k, s in enumerate(t.slices) if s.piece == "X+"]
    word = np.eye(r * r, dtype=complex)
    for k in xs:
        o = t.slices[k].offset
        word = provider.braiding(t.color_at(k, o), t.color_at(k, o + 1)).c @ word

    def closed(m):
        """The cut tangle's scalar times the modified dimension, with the
        crossings replaced by m."""
        dim0 = r ** len(t.bottom_signs)
        state = np.eye(dim0, dtype=complex).reshape(
            (r,) * len(t.bottom_signs) + (dim0,))
        for k, sl in enumerate(t.slices):
            if sl.piece == "X+":
                if k == xs[0]:
                    state = invariant._apply(state, m, sl.offset, 2, 2, r)
                continue
            lv = k if sl.piece.startswith("ev") else k + 1
            dd = provider.duality(t.color_at(lv, sl.offset))
            tensor = getattr(dd, {"evL": "ev_L", "evR": "ev_R",
                                  "coevL": "coev_L", "coevR": "coev_R"}[sl.piece])
            nin, nout = (2, 0) if sl.piece.startswith("ev") else (0, 2)
            state = invariant._apply(state, tensor, sl.offset, nin, nout, r)
        s = np.trace(state.reshape(r, r)) / r
        return s * modtrace.modified_dim(provider.char(t.color_at(0, 0)),
                                         provider.p, provider.tol)

    w, vec = np.linalg.eig(word)
    inv = np.linalg.inv(vec)
    top = w[np.argmax(abs(w))]
    groups: dict = {}
    for i, e in enumerate(w / top):
        groups.setdefault(round(np.angle(e) / (2 * np.pi) * 5) % 5, []).append(i)
    return [(np.mean(w[idx]) / top, closed(vec[:, idx] @ inv[idx, :]))
            for _, idx in sorted(groups.items())]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[3, 4, 5])
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            rng = np.random.default_rng(seed)
            m = corpus.random_meridian(rng)
            for k, u in enumerate(corpus.riley_roots(m, 5)):
                for ell in (5, 10):
                    vs = []
                    for strands, word in STABILIZED.values():
                        d = colored(m, u, ell, strands, word, rng, tmp)
                        p = braiding.BraidingProvider(params.root_params(ell))
                        vs.append(abs(complex(
                            invariant.tilde_Fprime(d, p).value.value)))
                    print(f"seed {seed} m {m:.3f} component {k} ell {ell:2d}: "
                          + "  ".join(f"{n} {v:.3e}"
                                      for n, v in zip(STABILIZED, vs)))
        rng = np.random.default_rng(args.seeds[0])
        m = corpus.random_meridian(rng)
        u = corpus.riley_roots(m, 5)[0]
        for ell in (5, 10):
            d = colored(m, u, ell, 2, [1] * 5, rng, tmp)
            terms = blocks(d, ell)
            print(f"component 0 ell {ell}: " + "  ".join(
                f"{e.real:+.3f}{e.imag:+.3f}i x {t.real:+.3f}"
                for e, t in terms)
                + f"  -> |sum| {abs(sum(e * t for e, t in terms)):.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
