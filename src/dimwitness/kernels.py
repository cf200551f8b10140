"""Stacked pair kernels: the array core behind every pair computation.

Internal module. Everything here runs on plain arrays and validates nothing:
states as an (N, d, d) stack of density matrices, pair effects as a
(P, d, d) stack of b = 1 effects with P = N(N-1)/2, both in ``pair_labels``
order -- pair y is (x, x') = (2,1), (3,1), (3,2), (4,1), ... The domain
classes check their inputs at the edges and hand their arrays in here.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .linalg import DEFAULT_TOLS, projector_from_eigh


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


@lru_cache(maxsize=None)
def pair_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """0-based (x, x') of every pair, in ``pair_labels`` order."""
    # the strict lower triangle in row-major order is exactly that order
    ix, ixp = np.tril_indices(n, k=-1)
    return _frozen(ix), _frozen(ixp)


@lru_cache(maxsize=None)
def pair_incidence(n: int) -> np.ndarray:
    """Signed (N, P) incidence: +1 at (x, y) and -1 at (x', y) for pair y = (x, x')."""
    ix, ixp = pair_index(n)
    cols = np.arange(len(ix))
    incidence = np.zeros((n, len(ix)))
    incidence[ix, cols] = 1.0
    incidence[ixp, cols] = -1.0
    return _frozen(incidence)


def state_differences(rhos: np.ndarray) -> np.ndarray:
    """rho_x - rho_x' for every pair, shape (P, d, d)."""
    ix, ixp = pair_index(len(rhos))
    deltas = rhos[ix]
    deltas -= rhos[ixp]
    return deltas


def positive_projectors(deltas: np.ndarray) -> np.ndarray:
    """Projectors onto the strictly positive eigenspaces of a Hermitian stack.

    One stacked eigensolve; eigenvalues at or below
    ``DEFAULT_TOLS.zero_eigenvalue`` count as zero, so a vanishing member
    maps to the zero matrix.
    """
    values, vectors = np.linalg.eigh(deltas)
    return projector_from_eigh(values, vectors, DEFAULT_TOLS.zero_eigenvalue)


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


def pair_sums(n: int, weights: np.ndarray, effects: np.ndarray) -> np.ndarray:
    """H_x = sum_y w_y ([x = x_y] - [x = x'_y]) M_y over the pairs, shape (N, d, d).

    The transpose of ``pair_differences``: tr(rho_x H_x) collects every
    weighted pair difference that preparation x takes part in.
    """
    p, d = effects.shape[0], effects.shape[-1]
    weighted = weights[:, None] * effects.reshape(p, d * d)
    # the incidence is real, so one real matmul on the (re, im) pairs does it
    return (pair_incidence(n) @ weighted.view(float)).view(complex).reshape(n, d, d)
