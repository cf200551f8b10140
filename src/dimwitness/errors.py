"""Exception types shared across the package, and the integer and real argument checks."""

import math
import numbers


class DimWitnessError(Exception):
    """Base class for every error this package raises deliberately."""


class NotHermitian(DimWitnessError):
    """A matrix failed the Hermitian symmetry check."""


class DimensionMismatch(DimWitnessError):
    """Operands live on Hilbert spaces of different dimension."""


class ShapeMismatch(DimWitnessError):
    """A probability table does not have the shape the witness expects."""


class BadArgument(DimWitnessError):
    """An argument lies outside the documented domain."""


class NotPure(DimWitnessError):
    """An operation needed pure states but a vector representation is missing."""


class IncompleteDecoding(DimWitnessError):
    """A deterministic strategy lacks a decoding entry it needs."""


class TooLarge(DimWitnessError):
    """A search or an array would exceed one of the program's size bounds."""


class OutOfRange(DimWitnessError):
    """A witness value lies outside the certifiable range."""


class NotAPovm(DimWitnessError):
    """A set of effects does not sum to the identity within tolerance."""


class NonMonotonic(DimWitnessError):
    """Internal check failure: an ascent step decreased its objective."""


class FileFormatError(DimWitnessError):
    """A JSON input file is malformed or violates a load-time invariant."""


def require_int(value, name: str, low: float = -math.inf, high: float = math.inf) -> int:
    """Return ``value`` as an ``int`` if it is a non-bool integer in [low, high].

    Anything else -- a bool, a string, a float such as 1.5 or inf, an
    out-of-range integer -- raises ``BadArgument`` naming the argument.
    Without bounds it checks the type alone, so a caller can check the type
    before it compares and then word its own range messages.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not low <= value <= high:
        bounds = "" if (low, high) == (-math.inf, math.inf) else f" in [{low}, {high}]"
        raise BadArgument(f"{name} must be an integer{bounds}, got {value!r}")
    return int(value)


def require_real(value, name: str, low: float = -math.inf, high: float = math.inf) -> float:
    """Return ``value`` as a ``float`` if it is a finite, non-bool real number in [low, high].

    The twin of ``require_int``: a bool, a string, a complex number, NaN, an
    infinity or a number past the float range raises ``BadArgument`` naming it.
    """
    try:
        real = float(value)
    except (TypeError, ValueError, OverflowError):
        real = math.nan
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(real) or not low <= real <= high):
        bounds = "" if (low, high) == (-math.inf, math.inf) else f" in [{low}, {high}]"
        raise BadArgument(f"{name} must be a finite number{bounds}, got {value!r}")
    return real


def require_seed(seed) -> int:
    """A seed keys a Philox stream as one 64-bit word: an integer in [0, 2**64)."""
    return require_int(seed, "seed", 0, 2**64 - 1)
