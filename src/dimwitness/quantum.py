"""Quantum objects: states, effects, ensembles, and discrimination tools.

States are kept as density matrices with an optional pure-vector witness
attached; operations that only make sense for pure states (overlap fidelity,
the pairwise-overlap identity) require that witness and raise ``NotPure``
otherwise. Binary pair measurements store only the b = 1 effect -- the
complement is implicit as identity minus it.

Preparations are indexed 1-based, x in {1..N}; pair measurements are labelled
by ordered pairs (x, x') with x > x'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from . import kernels
from .errors import BadArgument, DimensionMismatch, NotPure, require_int
from .kernels import pair_labels
from .linalg import DEFAULT_TOLS, require_hermitian, trace_norm


@dataclass(frozen=True, eq=False)
class StateVector:
    """Unit-norm complex amplitude vector."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.shape[0] < 1:
            raise BadArgument(f"amplitudes must be a nonempty 1-D array, got shape {amps.shape}")
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= DEFAULT_TOLS.unit_norm:
            if not math.isfinite(norm):
                raise BadArgument("state vector has non-finite amplitudes")
            raise BadArgument(f"state vector norm deviates from 1 by {abs(norm - 1.0):.3e}")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace matrix.

    ``vector`` optionally records a pure-state representation; when present
    it must reproduce the matrix as its outer product.
    """

    matrix: np.ndarray
    vector: StateVector | None = None

    def __post_init__(self) -> None:
        tols = DEFAULT_TOLS
        mat = require_hermitian(self.matrix, what="density matrix")
        eigenvalues = np.linalg.eigvalsh(mat)
        if float(eigenvalues.min()) < -tols.positivity:
            raise BadArgument(f"density matrix has negative eigenvalue {eigenvalues.min():.3e}")
        trace = float(np.trace(mat).real)
        if abs(trace - 1.0) > tols.trace_one:
            raise BadArgument(f"density matrix trace deviates from 1 by {abs(trace - 1.0):.3e}")
        if self.vector is not None:
            if self.vector.dim != mat.shape[0]:
                raise DimensionMismatch("vector witness dimension does not match the matrix")
            outer = np.outer(self.vector.amplitudes, self.vector.amplitudes.conj())
            if float(np.max(np.abs(mat - outer))) > tols.residual:
                raise BadArgument("density matrix does not match its pure-vector witness")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class Effect:
    """Measurement operator with spectrum in [0, 1] within tolerance."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _checked_effects(self.matrix, "effect"))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _checked_effects(stack, what) -> np.ndarray:
    """Validate one effect, or a stack of them in one pass; return it read-only.

    Every member must be finite, Hermitian and have spectrum in [0, 1] within
    tolerance; ``what`` names the input or member k as in
    ``require_hermitian``.
    """
    tols = DEFAULT_TOLS
    mat = require_hermitian(stack, what)
    eigenvalues = np.linalg.eigvalsh(mat).reshape(-1, mat.shape[-1])
    lo, hi = eigenvalues[:, 0], eigenvalues[:, -1]
    bad = np.flatnonzero((lo < -tols.positivity) | (hi > 1 + tols.effect_ceiling))
    if bad.size:
        k = bad[0]
        name = what if isinstance(what, str) else what(k)
        raise BadArgument(f"{name} spectrum [{lo[k]:.3e}, {hi[k]:.3e}] leaves [0, 1]")
    mat.setflags(write=False)
    return mat


@dataclass(frozen=True, eq=False)
class Ensemble:
    """N preparations on a common Hilbert space."""

    states: tuple[DensityMatrix, ...]

    def __post_init__(self) -> None:
        states = tuple(self.states)
        if not states:
            raise BadArgument("ensemble needs at least one state")
        dims = {s.dim for s in states}
        if len(dims) != 1:
            raise DimensionMismatch(f"ensemble states live in different dimensions: {sorted(dims)}")
        object.__setattr__(self, "states", states)

    @property
    def N(self) -> int:
        return len(self.states)

    @property
    def dim(self) -> int:
        return self.states[0].dim

    def matrices(self) -> np.ndarray:
        """Stacked density matrices, shape (N, d, d)."""
        return np.stack([s.matrix for s in self.states])

    def vectors(self) -> np.ndarray:
        """Stacked pure-state amplitudes, shape (N, d); requires pure witnesses."""
        missing = [i + 1 for i, s in enumerate(self.states) if s.vector is None]
        if missing:
            raise NotPure(f"states {missing} carry no pure-vector representation")
        return np.stack([s.vector.amplitudes for s in self.states])


@dataclass(frozen=True, eq=False, init=False)
class PairMeasurementSet:
    """Binary measurements indexed by preparation pairs (x, x'), x > x'.

    Only the b = 1 effect is stored per pair, as one read-only (P, d, d)
    ``stack`` in ``pair_labels`` order, P = N(N-1)/2. Build it from a
    mapping with exactly one ``Effect`` for every pair 1 <= x' < x <= N, or
    from a raw stack with ``from_stack``; ``effects`` gives the mapping back.
    """

    stack: np.ndarray
    N: int

    def __init__(self, effects: Mapping[tuple[int, int], Effect]) -> None:
        effects = dict(effects)
        if not effects:
            raise BadArgument("measurement set needs at least one pair")
        n = max(x for x, _ in effects)
        labels = pair_labels(n)
        if set(effects) != set(labels):
            raise BadArgument(f"pair keys must be exactly all (x, x') with {n} >= x > x' >= 1")
        dims = {e.dim for e in effects.values()}
        if len(dims) != 1:
            raise DimensionMismatch(f"pair effects live in different dimensions: {sorted(dims)}")
        stack = np.stack([effects[pair].matrix for pair in labels])
        stack.setflags(write=False)
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "N", n)

    @classmethod
    def from_stack(cls, stack) -> PairMeasurementSet:
        """Validate a (P, d, d) stack of b = 1 effects in ``pair_labels`` order.

        One batched pass applies the ``Effect`` checks to every member; the
        error names the first offending pair.
        """
        stack = np.asarray(stack, dtype=complex)
        p = stack.shape[0] if stack.ndim == 3 else 0
        n = (1 + math.isqrt(1 + 8 * p)) // 2
        if p < 1 or n * (n - 1) // 2 != p:
            raise BadArgument(f"need a (P, d, d) stack with P = N(N-1)/2 >= 1, got shape {stack.shape}")
        labels = pair_labels(n)
        self = cls.__new__(cls)
        object.__setattr__(self, "stack", _checked_effects(stack, lambda k: f"effect {labels[k]}"))
        object.__setattr__(self, "N", n)
        return self

    @property
    def dim(self) -> int:
        return self.stack.shape[-1]

    @cached_property
    def effects(self) -> dict[tuple[int, int], Effect]:
        """The b = 1 effect of every pair, keyed (x, x')."""
        return {pair: Effect(m) for pair, m in zip(pair_labels(self.N), self.stack)}


def pure_state(amplitudes) -> DensityMatrix:
    """Density matrix of a unit vector, keeping the vector witness attached."""
    vec = StateVector(np.asarray(amplitudes, dtype=complex))
    return DensityMatrix(np.outer(vec.amplitudes, vec.amplitudes.conj()), vector=vec)


def _require_same_dim(a, b) -> None:
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimension mismatch: {a.dim} vs {b.dim}")


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half the trace norm of rho - sigma: the optimal single-shot
    distinguishing advantage between the two states."""
    _require_same_dim(rho, sigma)
    return 0.5 * trace_norm(rho.matrix - sigma.matrix)


def fidelity_pure(psi: StateVector, phi: StateVector) -> float:
    """Overlap magnitude |<psi|phi>| of two pure states."""
    _require_same_dim(psi, phi)
    return float(abs(np.vdot(psi.amplitudes, phi.amplitudes)))


def helstrom_effect(rho: DensityMatrix, sigma: DensityMatrix) -> Effect:
    """Measurement operator that optimally distinguishes rho from sigma.

    The projector onto the positive eigenspace of rho - sigma maximizes
    tr((rho - sigma) M) over all effects, and the maximum equals the trace
    distance. Identical states yield the zero effect.
    """
    _require_same_dim(rho, sigma)
    return Effect(kernels.positive_projectors((rho.matrix - sigma.matrix)[None])[0])


def helstrom_measurements(ensemble: Ensemble) -> PairMeasurementSet:
    """Optimal discrimination effect for every preparation pair of the ensemble."""
    if ensemble.N < 2:
        raise BadArgument("pair measurements need at least two preparations")
    rhos = ensemble.matrices()
    ix, ixp = kernels.pair_index(ensemble.N)
    return PairMeasurementSet.from_stack(kernels.positive_projectors(rhos[ix] - rhos[ixp]))


def fourier_ensemble(n_states: int, dim: int) -> Ensemble:
    """N pure states whose amplitudes are Fourier phases on the first d levels.

    State x (x = 1..N) has amplitudes exp(i 2 pi k x / N) / sqrt(d) for
    k = 0..d-1. The uniform mixture of these states is maximally mixed for
    every 1 <= d <= N, which makes the ensemble saturate the quadratic
    witness ceiling under optimal pair discrimination.
    """
    n_states, dim = require_int(n_states, "n_states"), require_int(dim, "dim")
    if n_states < 1:
        raise BadArgument(f"need at least one state, got {n_states}")
    if dim < 1 or dim > n_states:
        raise BadArgument(f"dimension must satisfy 1 <= d <= N, got d={dim}, N={n_states}")
    k = np.arange(dim)
    states = []
    for x in range(1, n_states + 1):
        amps = np.exp(2j * np.pi * k * x / n_states) / np.sqrt(dim)
        states.append(pure_state(amps))
    return Ensemble(tuple(states))


def average_state(ensemble: Ensemble) -> DensityMatrix:
    """Uniform mixture of the ensemble's states."""
    return DensityMatrix(ensemble.matrices().mean(axis=0))


def purity(rho: DensityMatrix) -> float:
    """tr(rho^2); equals 1 for pure states and 1/d for the maximally mixed state."""
    return float(np.trace(rho.matrix @ rho.matrix).real)


def overlap_sum_identity_check(ensemble: Ensemble) -> tuple[float, float]:
    """Both sides of the pairwise-overlap / average-state-purity identity.

    Returns (lhs, rhs) with lhs the sum of squared overlaps over pairs
    x > x' and rhs = (N^2/2) tr(Omega^2) - N/2 for the uniform mixture
    Omega. The two agree for every pure ensemble, which makes this a useful
    self-test of the ensemble plumbing. Raises ``NotPure`` when a state has
    no vector representation.
    """
    lhs = float(np.sum(np.tril(pure_overlaps(ensemble), k=-1)))
    n = ensemble.N
    rhs = n * n / 2.0 * purity(average_state(ensemble)) - n / 2.0
    return lhs, rhs


def pure_overlaps(ensemble: Ensemble) -> np.ndarray:
    """Matrix of squared overlaps |<psi_x|psi_x'>|^2; requires pure witnesses."""
    vectors = ensemble.vectors()
    gram = vectors.conj() @ vectors.T
    return np.abs(gram) ** 2
