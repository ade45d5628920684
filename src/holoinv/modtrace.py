"""Modified dimension of cyclic modules.

The quantum dimension of every cyclic module vanishes, so the renormalized
invariant replaces it with the modified dimension d(chi).  Writing the
Casimir value as chi(Omega) = (-1)^r (xi^a + xi^-a), the modified dimension
has two closed forms,

    d(chi) = (-1)^(r-1) prod_{j=1}^{r-1} [j] / [a + r - j]
           = (-1)^(r-1) r [a] / [r a]            (when [r a] != 0),

and the second form shows d(chi)^-1 is the degree r-1 second-kind Chebyshev
polynomial evaluated at (-1)^r chi(Omega).  That reciprocal is the shipped
evaluation path: it needs no branch choice for a and depends only on
chi(Omega).  The tests check it against both a-parameter forms.

d(chi) is a plain complex number (no root-of-unity ambiguity); it enters the
renormalized invariant as an exact prefactor.  It is gauge invariant because
every gauge move preserves the Casimir coordinate z of a color.
"""

from __future__ import annotations

import cmath

from .errors import Singular
from .params import TOL, RootParams, cheb_second_kind
from .uqsl2 import ZChar


def modified_dim(chi: ZChar, p: RootParams) -> complex:
    """d(chi) = (-1)^(r-1) r / S_(r-1)((-1)^r chi(Omega)).

    S_n is the second-kind Chebyshev recurrence.  Raises Singular when the
    denominator vanishes (the bracket [a + r - j] of the product form is
    zero), which happens exactly when a is an integer not divisible by r.
    """
    den = cheb_second_kind(p.r - 1, p.sign_r * chi.omega)
    if abs(den) <= TOL * max(1.0, float(p.r)):
        raise Singular(f"modified dimension pole at chi(Omega) = {chi.omega}")
    return -p.sign_r * p.r / den


def alpha_from_omega(omega: complex, p: RootParams) -> complex:
    """Solve chi(Omega) = (-1)^r (xi^a + xi^-a) for a.

    Branch: imaginary part >= 0, real part reduced into [0, ell).
    """
    # xi^a = exp(i theta) with 2 cos(theta) = (-1)^r omega
    theta = cmath.acos(p.sign_r * omega / 2.0)
    a = theta * p.ell / (2.0 * cmath.pi)
    if a.imag < 0 or (a.imag == 0 and a.real < 0):
        a = -a
    return complex(a.real % p.ell, a.imag)
