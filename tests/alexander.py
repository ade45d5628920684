"""The Alexander oracle on knot closures, for the tests (not collected).

At ell 4 (r = 2), a knot closure whose strands all carry one holonomy
h diag(m, 1/m) h^-1 has canonical value 16 tau^2, with tau the abelian
Reidemeister torsion of the knot at the meridian eigenvalue m (Milnor,
Ann. of Math. 76, 1962; Turaev, Russian Math. Surveys 41, 1986).  It is
the first check whose expected value moves with the coloring.
"""

from __future__ import annotations

import numpy as np


def burau(n: int, word, t: complex) -> np.ndarray:
    """The unreduced Burau matrix of a braid word on n strands: sigma_i acts
    as I + [[1 - t, t], [1, 0]] on strands i, i + 1, sigma_i^-1 inversely."""
    b = np.eye(n, dtype=complex)
    for w in word:
        s = np.eye(n, dtype=complex)
        i = abs(w) - 1
        s[i:i + 2, i:i + 2] = [[1 - t, t], [1, 0]]
        b = b @ (s if w > 0 else np.linalg.inv(s))
    return b


def alexander(n: int, word, t: complex) -> complex:
    """Delta(t) = det((I - B)[1:, 1:]) of the closure, up to units +-t^k."""
    return complex(np.linalg.det((np.eye(n) - burau(n, word, t))[1:, 1:]))


def torsion(n: int, word, m: complex) -> complex:
    """tau = Delta(m) Delta(1/m) / ((m - 1)(1/m - 1)), in which the units
    of Delta cancel."""
    return alexander(n, word, m) * alexander(n, word, 1 / m) / ((m - 1) * (1 / m - 1))
