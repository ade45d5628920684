"""Error taxonomy for holoinv.

Partiality of the holonomy biquandle is a *normal* outcome: the factorization,
and with it every crossing map, braiding and lift, exists only on a dense open
set.  A partial map that has no value at its input raises `Undefined` or one
of its subclasses; none returns None.  The remedy is the same for the whole
family: try another anchor or another gauge.  The other classes signal bad
input, an exhausted search, or a failed consistency check.
"""

from __future__ import annotations


class HoloinvError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(HoloinvError):
    pass


# --- diagram engine ---

class WordMismatch(HoloinvError):
    pass


class NotClosed(HoloinvError):
    pass


class NoSuchEdge(HoloinvError):
    pass


# --- colorings ---

class InconsistentColoring(HoloinvError):
    pass


class Undefined(HoloinvError):
    """A generically-defined map was evaluated outside its domain."""


class OutsideGPrime(Undefined):
    """Matrix not in the domain of the factorization chart (m11 = 0)."""


class InternalInconsistency(HoloinvError):
    pass


class GaugeExhausted(HoloinvError):
    pass


# --- quantum algebra ---

class ChebyshevMismatch(HoloinvError):
    pass


class NotAdmissible(Undefined):
    pass


class BranchInconsistent(HoloinvError):
    pass


class DegenerateSpectrum(Undefined):
    pass


# --- braiding ---

class SingularSolution(Undefined):
    pass


class BlockIntertwinerDim(Undefined):
    pass


class UnresolvableYB(Undefined):
    pass


# --- invariant ---

class Singular(HoloinvError):
    pass


class NonScalarResult(HoloinvError):
    pass
