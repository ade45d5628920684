"""Error taxonomy for holoinv.

Partiality of the holonomy biquandle is a *normal* outcome; operations that
are partial by design return None (or raise Undefined where a caller has
already promised definedness). Everything else here signals either bad input
or a numerically degenerate configuration that the caller may gauge-retry.
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


class PatternMismatch(HoloinvError):
    pass


# --- colorings ---

class InconsistentColoring(HoloinvError):
    pass


class ColoringUndefined(HoloinvError):
    """A partial biquandle value needed by a coloring does not exist."""


class Undefined(HoloinvError):
    """A generically-defined map was evaluated outside its domain."""


class InvariantViolation(HoloinvError):
    pass


class OutsideGPrime(HoloinvError):
    """Matrix not in the domain of the factorization chart (m11 = 0)."""


class InternalInconsistency(HoloinvError):
    pass


class GaugeExhausted(HoloinvError):
    pass


# --- quantum algebra ---

class ChebyshevMismatch(HoloinvError):
    pass


class NotAdmissible(HoloinvError):
    pass


class BranchInconsistent(HoloinvError):
    pass


class DegenerateSpectrum(HoloinvError):
    pass


# --- braiding ---

class NullspaceDimension(HoloinvError):
    def __init__(self, dim: int, message: str = ""):
        self.dim = dim
        super().__init__(message or f"nullspace dimension {dim}, expected 1")


class SingularSolution(HoloinvError):
    pass


class BlockIntertwinerDim(HoloinvError):
    def __init__(self, dim: int, message: str = ""):
        self.dim = dim
        super().__init__(message or f"block intertwiner dimension {dim}, expected 1")


class UnresolvableYB(HoloinvError):
    pass


class AlphaUndefined(HoloinvError):
    pass


# --- invariant ---

class Singular(HoloinvError):
    pass


class UndefinedCrossing(HoloinvError):
    pass


class NonScalarResult(HoloinvError):
    pass
