"""Biquandle axioms, the associated quandle law, and harpoon/guitar moves."""

from __future__ import annotations

import numpy as np

from holoinv.biquandle import (
    SemiCyclicBiquandle,
    SemiCyclicColor,
    associated_quandle,
    check_biquandle_axioms,
    fibered_product,
    guitar_map,
    harpoon_word,
    reverse_word,
)
from holoinv.params import root_params
from holoinv.quandle import inv2
from holoinv.sl2factor import FactorizationOracle, psi, random_ycolor


def _ysampler(ell, seed):
    p = root_params(ell)
    rng = np.random.default_rng(seed)
    return lambda: random_ycolor(rng, p)


def test_sl2_factorization_biquandle_axioms():
    bq = FactorizationOracle()
    rng = np.random.default_rng(0)
    p = root_params(4)

    def sample():
        return random_ycolor(rng, p)

    rep = check_biquandle_axioms(bq, sample, samples=300, tol=1e-8)
    assert rep["max_violation"] == 0.0


def test_semicyclic_biquandle_axioms():
    rng = np.random.default_rng(1)

    def sample():
        k = 0.0
        while abs(k) < 0.2:
            k = complex(rng.normal(), rng.normal())
        return SemiCyclicColor(k, complex(rng.normal(), rng.normal()))

    rep = check_biquandle_axioms(SemiCyclicBiquandle(), sample, samples=400,
                                 tol=1e-8)
    assert rep["max_violation"] == 0.0


def test_associated_quandle_is_matrix_conjugation():
    # the derived operation realizes conjugation through the psi embedding
    bq = FactorizationOracle()
    q = associated_quandle(bq)
    rng = np.random.default_rng(2)
    p = root_params(3)
    worst = 0.0
    for _ in range(200):
        a = random_ycolor(rng, p)
        b = random_ycolor(rng, p)
        c = q.op(a, b)
        want = inv2(psi(a.g)) @ psi(b.g) @ psi(a.g)
        worst = max(worst, float(np.abs(psi(c.g) - want).max()))
        back = q.inv_op(a, c)
        worst = max(worst, float(np.abs(psi(back.g) - psi(b.g)).max()))
    assert worst <= 1e-8


def test_fibered_product_keeps_fiber():
    bq = FactorizationOracle()
    rng = np.random.default_rng(3)
    p = root_params(4)

    def sampler():
        return random_ycolor(rng, p), random_ycolor(rng, p)

    # trace of psi is a crossing invariant, so the fibered product is legal
    from holoinv.biquandle import FiberedColor

    fp = fibered_product(bq, lambda x: np.trace(psi(x.g)),
                         lambda z: z, sampler=sampler, samples=40)
    x, y = sampler()
    a = FiberedColor(x, np.trace(psi(x.g)))
    b = FiberedColor(y, np.trace(psi(y.g)))
    x4, x3 = fp.B(a, b)
    # fibers trade places at the crossing and stay matched to the new colors
    assert abs(x4.z - np.trace(psi(x4.x.g))) < 1e-7
    assert abs(x3.z - np.trace(psi(x3.x.g))) < 1e-7


def test_harpoon_word_inverts_on_reversal():
    bq = FactorizationOracle()
    rng = np.random.default_rng(4)
    p = root_params(4)
    for _ in range(20):
        w = [(random_ycolor(rng, p), "+") for _ in range(3)]
        b = random_ycolor(rng, p)
        fwd = harpoon_word(w, b, "down", bq)
        back = harpoon_word(reverse_word(w), fwd, "down", bq)
        assert back.approx_eq(b, 1e-7)


def test_guitar_map_on_semicyclic_braid():
    # total biquandle: the probe recoloring is defined on any colored braid
    from holoinv.diagram import braid_diagram, propagate_colors

    rng = np.random.default_rng(5)
    bq = SemiCyclicBiquandle()

    def sample():
        k = 0.0
        while abs(k) < 0.2:
            k = complex(rng.normal(), rng.normal())
        return SemiCyclicColor(k, complex(rng.normal(), rng.normal()))

    d = propagate_colors(braid_diagram(2, [1, 1]), [sample(), sample()], bq)
    g = guitar_map(d, bq)
    assert g.fully_colored()
    # the leftmost bottom edge needs no probe steps: color unchanged
    assert g.color_at(0, 0).approx_eq(d.color_at(0, 0), 1e-9)
