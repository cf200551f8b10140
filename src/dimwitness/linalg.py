"""Dense Hermitian linear algebra: eigendecomposition, trace norm, projectors.

All functions take square complex arrays (anything ``np.asarray`` coerces).
Eigensolves are delegated to LAPACK through ``numpy.linalg.eigh``; the
wrappers here add the symmetry validation, the descending eigenvalue order,
and the zero-eigenvalue cutoff that downstream modules rely on.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import BadArgument, NotHermitian


# Numerical tolerances: every validator and decomposition in the package
# reads its slack from these constants.
HERMITIAN_TOL = 1e-10        # max |A - A^dag| entry allowed
ZERO_EIGENVALUE_TOL = 1e-10  # eigenvalues with |l| <= this count as zero
RESIDUAL_TOL = 1e-8          # eigenpair residual / orthonormality slack
TRACE_ONE_TOL = 1e-9         # density-matrix trace deviation
POSITIVITY_TOL = 1e-9        # allowed negative-eigenvalue excursion
EFFECT_CEILING_TOL = 1e-9    # allowed effect eigenvalue excess above 1
UNIT_NORM_TOL = 1e-10        # state-vector norm deviation
POVM_SUM_TOL = 1e-8          # max |sum(effects) - identity| entry
PROBABILITY_TOL = 1e-9       # table entry out-of-range allowance
ROW_SUM_TOL = 1e-8           # table normalization deviation


class EigenDecomposition(NamedTuple):
    """Eigenvalues in descending order; column ``vectors[:, i]`` pairs with ``values[i]``."""

    values: np.ndarray
    vectors: np.ndarray


def hermitian_deviation(a) -> float:
    """Largest entrywise deviation of ``a`` from its conjugate transpose."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - a.conj().swapaxes(-2, -1))))


def require_hermitian(a, what: str | Callable[[int], str] = "matrix") -> np.ndarray:
    """Validate ``a`` as finite and Hermitian; return it symmetrized, as complex.

    ``a`` is one square matrix or a stack of shape (..., n, n), checked in
    one pass. ``what`` names the input in errors; for a stack it may be a
    function naming member k of the flattened stack. Raises ``BadArgument``
    on NaN or infinite entries and ``NotHermitian`` reporting the offending
    deviation when the entrywise asymmetry exceeds ``HERMITIAN_TOL``.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise NotHermitian(f"{what} must be square, got shape {a.shape}")

    def name(k: int) -> str:
        return what if isinstance(what, str) else what(k)

    adjoint = a.conj().swapaxes(-2, -1)
    dev = np.abs(a - adjoint).max(axis=(-2, -1))
    # a NaN or infinite entry makes its member's deviation NaN or infinite,
    # so finiteness costs nothing to check on valid input
    ok = dev <= HERMITIAN_TOL
    if not ok.all():
        dev = dev.reshape(-1)
        k = int(np.argmin(ok.reshape(-1)))
        if not np.isfinite(a.reshape(dev.size, -1)[k]).all():
            raise BadArgument(f"{name(k)} has non-finite entries")
        raise NotHermitian(f"{name(k)} is not Hermitian: max |A - A^dag| = {dev[k]:.3e}")
    symmetrized = a + adjoint
    symmetrized /= 2.0
    return symmetrized


def eig_hermitian(a) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues sorted descending.

    The input is validated by ``require_hermitian`` first. Eigenvectors are
    orthonormal columns.
    """
    h = require_hermitian(a)
    values, vectors = np.linalg.eigh(h)
    return EigenDecomposition(values[::-1].copy(), vectors[:, ::-1].copy())


def trace_norm(a) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix (Schatten 1-norm)."""
    h = require_hermitian(a)
    return float(np.sum(np.abs(np.linalg.eigvalsh(h))))


def positive_part_projector(a) -> np.ndarray:
    """Projector onto the strictly positive eigenspace of a Hermitian matrix.

    Eigenvalues with magnitude at or below ``ZERO_EIGENVALUE_TOL``
    are treated as zero and excluded, so a (numerically) vanishing input maps
    to the zero matrix rather than to noise.
    """
    h = require_hermitian(a)
    values, vectors = np.linalg.eigh(h)
    return projector_from_eigh(values, vectors, ZERO_EIGENVALUE_TOL)


def projector_from_eigh(values: np.ndarray, vectors: np.ndarray, cutoff: float) -> np.ndarray:
    """Sum of v v^dag over eigenpairs with eigenvalue > cutoff.

    Works on stacked decompositions: ``values`` of shape (..., n) with
    ``vectors`` of shape (..., n, n), columns matching ``numpy.linalg.eigh``.
    """
    keep = (values > cutoff).astype(float)
    return np.einsum("...ik,...k,...jk->...ij", vectors, keep, vectors.conj())
