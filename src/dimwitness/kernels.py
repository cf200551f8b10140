"""Stacked pair kernels: the array core behind every pair computation.

Internal module. Everything here runs on plain arrays and validates nothing:
states as an (N, d, d) stack of density matrices (pure ones as (N, d)
vectors), pair effects as a (P, d, d) stack of b = 1 effects (rank-one ones
as scale |u><u|) with P = N(N-1)/2, in ``pair_labels`` order -- pair y is
(x, x') = (2,1), (3,1), (3,2), (4,1), ... The domain classes check their
inputs at the edges and hand their arrays in here.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .linalg import ZERO_EIGENVALUE_TOL, projector_from_eigh


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=None)
def pair_labels(n_preparations: int) -> tuple[tuple[int, int], ...]:
    """Measurement labels (x, x') with x > x', in lexicographic order.

    This fixes the meaning of the measurement index y for pair witnesses:
    y = 1, 2, 3, ... corresponds to (2,1), (3,1), (3,2), (4,1), ...
    """
    return tuple((x, xp) for x in range(2, n_preparations + 1) for xp in range(1, x))


def preparation_count(n_pairs: int) -> int | None:
    """The N >= 2 with N(N-1)/2 = n_pairs, or None when n_pairs is no such count."""
    n = (1 + math.isqrt(1 + 8 * n_pairs)) // 2
    return n if n_pairs >= 1 and n * (n - 1) // 2 == n_pairs else None


@lru_cache(maxsize=None)
def pair_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """0-based (x, x') of every pair, in ``pair_labels`` order."""
    # the strict lower triangle in row-major order is exactly that order
    ix, ixp = np.tril_indices(n, k=-1)
    return _frozen(ix), _frozen(ixp)


def positive_projectors(deltas: np.ndarray) -> np.ndarray:
    """Projectors onto the strictly positive eigenspaces of a Hermitian stack.

    One stacked eigensolve; eigenvalues at or below
    ``ZERO_EIGENVALUE_TOL`` count as zero, so a vanishing member
    maps to the zero matrix.
    """
    values, vectors = np.linalg.eigh(deltas)
    return projector_from_eigh(values, vectors, ZERO_EIGENVALUE_TOL)


def born(rhos: np.ndarray, effects: np.ndarray) -> np.ndarray:
    """Born probabilities tr(rho_x E_e) of Hermitian states and effects, shape (N, E)."""

    def interleaved(stack: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(stack, dtype=complex).view(float).reshape(len(stack), -1)

    # for Hermitian E, tr(rho E) = sum_ij rho_ij conj(E_ij), whose real part
    # is the dot product of the (re, im)-interleaved entries: one real matmul
    return interleaved(rhos) @ interleaved(effects).T


def pair_differences(p1: np.ndarray) -> np.ndarray:
    """p1[x, y] - p1[x', y] for every pair y = (x, x') of an (N, P) table."""
    ix, ixp = pair_index(p1.shape[0])
    cols = np.arange(len(ix))
    return p1[ix, cols] - p1[ixp, cols]


def rank_one_projectors(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positive-part projectors scale |u><u| of |a><a| - |b><b| for stacked unit vectors (..., d).

    With c = <a|b> and s = sqrt(1-|c|^2) the positive eigenvalue,
    u = a - (conj(c)/(1+s)) b and scale = 1/<u|u> = (1+s)/(2 s^2); scale is 0
    when s <= ``ZERO_EIGENVALUE_TOL``, as in ``positive_projectors``.
    """
    c = np.einsum("...i,...i->...", a.conj(), b)
    # s as the norm of b's component orthogonal to a vanishes with it, where
    # sqrt(1-|c|^2) keeps rounding noise of order 1e-8 for identical states
    s = np.linalg.norm(b - c[..., None] * a, axis=-1)
    u = a - (c.conj() / (1.0 + s))[..., None] * b
    scale = np.zeros_like(s)
    norms = np.einsum("...i,...i->...", u.conj(), u).real
    np.divide(1.0, norms, out=scale, where=s > ZERO_EIGENVALUE_TOL)
    return u, scale
