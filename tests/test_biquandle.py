"""Biquandle axioms and the associated quandle law."""

from __future__ import annotations

import numpy as np

from holoinv.params import root_params
from holoinv.quandle import inv2
from holoinv.sl2factor import psi

from axioms import associated_quandle, check_biquandle_axioms
from oracles import FactorizationOracle
from samplers import random_ycolor


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
