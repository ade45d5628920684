"""Root-of-unity parameters and Chebyshev-like polynomial evaluation.

Everything downstream is parametrized by an integer ell >= 3.  The module
order is r = ell/2 for even ell and r = ell for odd ell; xi = exp(2*pi*i/ell)
is the primitive root of unity; xi**x for complex x always means the principal
branch exp(2*pi*i*x/ell).

`cheb_first_kind` is the normalized first-kind polynomial T with
T(2 cos t) = 2 cos(r t) (T(2) = 2, T(-2) = 2*(-1)**r); `cheb_second_kind` is
the normalized second-kind polynomial S_n with S_n(2 cos t) =
sin((n+1)t)/sin(t).  Both are evaluated by the three-term recurrence for
numerical stability.

`TOL` is the one numerical tolerance: every threshold of the package is
formed from it where the comparison is made, and `GATE` bounds every
relative residual check.  The invariant is exact, so neither is an input.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import lru_cache

TOL = 1e-9
GATE = 1e3 * TOL  # one ulp above the literal 1e-6


def _cheb(n: int, t: complex, c0: complex) -> complex:
    """P_n of the recurrence P_{k+1} = t*P_k - P_{k-1}, P_0 = c0, P_1 = t."""
    if n == 0:
        return c0
    prev, cur = c0, complex(t)
    for _ in range(n - 1):
        prev, cur = cur, t * cur - prev
    return cur


def cheb_first_kind(n: int, t: complex) -> complex:
    """Evaluate the degree-n normalized first-kind polynomial at t: C_0 = 2."""
    return _cheb(n, t, 2.0 + 0.0j)


def cheb_second_kind(n: int, t: complex) -> complex:
    """Evaluate the degree-n normalized second-kind polynomial at t: S_0 = 1.

    For t = u + 1/u this is (u^{n+1} - u^{-(n+1)})/(u - 1/u).
    """
    return _cheb(n, t, 1.0 + 0.0j)


def cheb_first_kind_roots(c: complex, n: int) -> list[complex]:
    """The n solutions t = w + 1/w of C_n(t) = c, i.e. of w^n + w^(-n) = c.

    Listed with multiplicity, one per n-th root w of u = (c + sqrt(c^2 - 4))/2,
    or of u = (c - sqrt(c^2 - 4))/2 where the first rounds to zero.
    """
    disc = cmath.sqrt(c * c - 4.0)
    u = (c + disc) / 2.0
    if u == 0:
        u = (c - disc) / 2.0
    w0 = u ** (1.0 / n)
    out = []
    for k in range(n):
        w = w0 * cmath.exp(2j * cmath.pi * k / n)
        out.append(w + 1.0 / w)
    return out


@dataclass(frozen=True)
class RootParams:
    """Parameters attached to the root of unity xi = exp(2*pi*i/ell)."""

    ell: int
    r: int = field(init=False)

    def __post_init__(self):
        if self.ell < 3:
            raise ValueError("ell must be >= 3")
        object.__setattr__(self, "r", self.ell // 2 if self.ell % 2 == 0 else self.ell)

    @property
    def xi(self) -> complex:
        return cmath.exp(2j * cmath.pi / self.ell)

    def xi_pow(self, x: complex) -> complex:
        """xi**x on the principal branch, defined for complex exponents."""
        return cmath.exp(2j * cmath.pi * x / self.ell)

    def qbracket(self, x: complex) -> complex:
        """[x] = xi^x - xi^{-x}."""
        return self.xi_pow(x) - self.xi_pow(-x)

    def cheb(self, t: complex) -> complex:
        """The order-r first-kind polynomial tying holonomy trace to Casimir value."""
        return cheb_first_kind(self.r, t)

    @property
    def sign_ell(self) -> int:
        """(-1)**ell, the recurring sign in the quantum-algebra formulas."""
        return -1 if self.ell % 2 else 1

    @property
    def sign_r(self) -> int:
        return -1 if self.r % 2 else 1

    @property
    def sign_ell_plus1(self) -> int:
        """(-1)**(ell+1), the sign relating holonomy trace to the z datum."""
        return 1 if self.ell % 2 else -1


@lru_cache(maxsize=32)
def root_params(ell: int) -> RootParams:
    return RootParams(ell)


def cheb_holds(z: complex, trace: complex, p: RootParams) -> bool:
    """The one test of Cb_r(z) = (-1)^(l+1) trace, to TOL * 1e2 relative to
    max(1, |trace|).  A NaN or an overflow fails it; it never raises."""
    try:
        defect = abs(p.cheb(z) - p.sign_ell_plus1 * trace)
        return defect / max(1.0, abs(trace)) <= TOL * 1e2
    except OverflowError:  # abs() of a finite complex beyond the range
        return False
