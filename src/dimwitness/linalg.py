"""Dense Hermitian linear algebra: the package tolerances, the Hermitian check, trace norm.

Functions take square arrays of numbers. Three array rules, ``complex_array``,
``real_array`` and ``integer_array`` (int64), share one check of what counts as
a number in an array, for the API and the file loaders alike.
``require_hermitian`` validates one matrix or a whole stack in one pass;
the stacked eigensolves of the pair computations live in ``kernels``.
"""

from __future__ import annotations

import itertools
from typing import Callable

import numpy as np

from .errors import BadArgument, NotHermitian


# Numerical tolerances: every validator and decomposition in the package
# reads its slack from these constants.
HERMITIAN_TOL = 1e-10        # max |A - A^dag| entry allowed
ZERO_EIGENVALUE_TOL = 1e-10  # eigenvalues with |l| <= this count as zero
TRACE_ONE_TOL = 1e-9         # density-matrix trace deviation
POSITIVITY_TOL = 1e-9        # allowed negative-eigenvalue excursion
EFFECT_CEILING_TOL = 1e-9    # allowed effect eigenvalue excess above 1
UNIT_NORM_TOL = 1e-10        # state-vector norm deviation
POVM_SUM_TOL = 1e-8          # max |sum(effects) - identity| entry
PROBABILITY_TOL = 1e-9       # table entry out-of-range allowance
ROW_SUM_TOL = 1e-8           # table normalization deviation


def member_name(what: str | Callable[[int], str], k: int) -> str:
    """The name of member k in an error: ``what`` itself, or ``what(k)`` for a stack."""
    return what if isinstance(what, str) else what(k)


def _numeric_array(data, need: str, kinds: str, numbers: str) -> np.ndarray:
    """``data`` as an array whose guessed dtype has a kind in ``kinds``, else ``BadArgument`` opening with ``need``.

    Strings, ``None`` and integers past 64 bits are refused, not coerced, and
    so are bools: one among numbers changes no dtype, so the leaf types of a
    list or tuple are scanned in one lazy pass.
    """
    try:
        arr = np.asarray(data)
    except (TypeError, ValueError):
        raise BadArgument(f"{need}, got a ragged input whose members differ in shape") from None
    leaves = [data] if isinstance(data, (list, tuple)) else []
    for _ in range(arr.ndim):
        leaves = itertools.chain.from_iterable(leaves)
    if arr.dtype.kind not in kinds or any(issubclass(t, (bool, np.bool_)) for t in set(map(type, leaves))):
        raise BadArgument(f"{need}, got entries that are not {numbers}")
    return arr


def complex_array(data, need: str) -> np.ndarray:
    """``data`` as a complex array of integers, floats or complex numbers; see ``_numeric_array``."""
    return _numeric_array(data, need, "iufc", "numbers").astype(complex, copy=False)


def real_array(data, need: str) -> np.ndarray:
    """``data`` as a float array of integers or floats; see ``_numeric_array``."""
    return _numeric_array(data, need, "iuf", "real numbers").astype(float, copy=False)


def integer_array(data, need: str) -> np.ndarray:
    """``data`` as an int64 array of integers; see ``_numeric_array``. Unsigned entries past int64 are refused."""
    arr = _numeric_array(data, need, "iu", "integers")
    if arr.dtype == np.uint64 and (arr >> 63).any():
        raise BadArgument(f"{need}, got integers past the int64 range")
    return arr.astype(np.int64, copy=False)


def require_hermitian(a, what: str | Callable[[int], str] = "matrix") -> np.ndarray:
    """Validate ``a`` as finite and Hermitian; return it symmetrized, as complex.

    ``what`` names the input in errors. A string names one matrix, and
    anything but a 2-D ``a`` raises ``BadArgument`` naming its shape; a
    function naming member k of the flattened stack admits a stack of shape
    (..., n, n), checked in one pass. Raises ``BadArgument`` on ragged,
    non-numeric, NaN or infinite entries and ``NotHermitian`` reporting the
    offending deviation when the entrywise asymmetry exceeds ``HERMITIAN_TOL``.
    """
    name = what if isinstance(what, str) else "every member of the stack"
    a = complex_array(a, f"{name} must be a square matrix of numbers")
    if isinstance(what, str) and a.ndim != 2:
        raise BadArgument(f"{name} must be one square matrix, got shape {a.shape}")
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise NotHermitian(f"{name} must be square, got shape {a.shape}")

    adjoint = a.conj().swapaxes(-2, -1)
    dev = np.abs(a - adjoint).max(axis=(-2, -1))
    # a NaN or infinite entry makes its member's deviation NaN or infinite,
    # so finiteness costs nothing to check on valid input
    ok = dev <= HERMITIAN_TOL
    if not ok.all():
        dev = dev.reshape(-1)
        k = int(np.argmin(ok.reshape(-1)))
        if not np.isfinite(a.reshape(dev.size, -1)[k]).all():
            raise BadArgument(f"{member_name(what, k)} has non-finite entries")
        raise NotHermitian(f"{member_name(what, k)} is not Hermitian: max |A - A^dag| = {dev[k]:.3e}")
    symmetrized = a + adjoint
    symmetrized /= 2.0
    return symmetrized


def trace_norm(a) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix (Schatten 1-norm)."""
    h = require_hermitian(a)
    return float(np.sum(np.abs(np.linalg.eigvalsh(h))))
