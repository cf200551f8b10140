"""Quantum objects: states, effects, ensembles, and discrimination tools.

A single state is a density matrix; an ensemble holds its states as one stack:
of vectors when it is pure, of matrices otherwise. Operations that only make
sense for pure states (overlap fidelity, the pairwise-overlap identity)
require the vectors and raise ``NotPure`` otherwise. Binary pair measurements
store only the b = 1 effect -- the complement is implicit as identity minus
it.

Preparations are indexed 1-based, x in {1..N}; pair measurements are labelled
by ordered pairs (x, x') with x > x'.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels, linalg
from .errors import BadArgument, DimensionMismatch, NotPure, TooLarge, require_int
from .linalg import complex_array, member_name, require_hermitian, trace_norm


@dataclass(frozen=True, eq=False)
class StateVector:
    """Unit-norm complex amplitude vector."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        need = "amplitudes must be a nonempty 1-D array"
        amps = complex_array(self.amplitudes, need)
        if amps.ndim != 1 or amps.shape[0] < 1:
            raise BadArgument(f"{need}, got shape {amps.shape}")
        object.__setattr__(self, "amplitudes", _checked_vectors(amps, "state vector"))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace matrix."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _checked_densities(self.matrix, "density matrix"))

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


def _checked_vectors(stack: np.ndarray, what) -> np.ndarray:
    """Validate one amplitude vector, or a stack of them in one pass; return a read-only copy.

    Every member must have unit norm within tolerance, which refuses
    non-finite amplitudes too; ``what`` names the input or member k as in
    ``require_hermitian``.
    """
    # a non-finite amplitude, or a norm past the float range, fails the check
    with np.errstate(invalid="ignore", over="ignore"):
        deviations = np.abs(np.linalg.norm(stack, axis=-1).reshape(-1) - 1.0)
    bad = np.flatnonzero(~(deviations <= linalg.UNIT_NORM_TOL))
    if bad.size:
        k = bad[0]
        if not np.isfinite(stack.reshape(deviations.size, -1)[k]).all():
            raise BadArgument(f"{member_name(what, k)} has non-finite amplitudes")
        raise BadArgument(f"{member_name(what, k)} norm deviates from 1 by {deviations[k]:.3e}")
    stack = stack.copy()
    stack.setflags(write=False)
    return stack


def _uncertified_spectra(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The members of a Hermitian stack that need an eigensolve, and their ascending eigenvalues.

    Every eigenvalue l of a Hermitian E obeys |l^2 - l| <= r = ||E^2 - E||_F,
    so l < 0 gives |l| <= |l|(1 + |l|) <= r and l > 1 gives l - 1 <= l(l - 1)
    <= r. A member with r <= min(POSITIVITY_TOL, EFFECT_CEILING_TOL) thus has
    its spectrum inside [-POSITIVITY_TOL, 1 + EFFECT_CEILING_TOL], and both
    the density and the effect check would accept it: a projector, up to
    rounding, needs no solve. Returns the flat indices of the other members,
    ascending, and one stacked ``eigvalsh`` of them, shape (len, d).
    """
    flat = mat.reshape(-1, mat.shape[-1], mat.shape[-1])
    # entries near the float limit overflow to an infinite or NaN residual,
    # which certifies nothing and sends the member to the solve
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = np.linalg.norm(flat @ flat - flat, axis=(1, 2))
    solved = np.flatnonzero(~(residuals <= min(linalg.POSITIVITY_TOL, linalg.EFFECT_CEILING_TOL)))
    if not solved.size:
        return solved, np.empty((0, flat.shape[-1]))
    return solved, np.linalg.eigvalsh(flat[solved])


def _checked_densities(stack, what) -> np.ndarray:
    """Validate one density matrix, or a stack of them in one pass; return it read-only.

    Every member must be finite, Hermitian, positive semidefinite and of unit
    trace within tolerance; ``what`` names the input or member k as in
    ``require_hermitian``.
    """
    mat = require_hermitian(stack, what)
    solved, eigenvalues = _uncertified_spectra(mat)
    lowest = eigenvalues[:, 0]
    bad = np.flatnonzero(lowest < -linalg.POSITIVITY_TOL)
    if bad.size:
        j = bad[0]
        raise BadArgument(f"{member_name(what, solved[j])} has negative eigenvalue {lowest[j]:.3e}")
    deviations = np.abs(np.trace(mat, axis1=-2, axis2=-1).real.reshape(-1) - 1.0)
    bad = np.flatnonzero(deviations > linalg.TRACE_ONE_TOL)
    if bad.size:
        k = bad[0]
        raise BadArgument(f"{member_name(what, k)} trace deviates from 1 by {deviations[k]:.3e}")
    mat.setflags(write=False)
    return mat


def _checked_effects(stack, what) -> np.ndarray:
    """Validate one effect, or a stack of them in one pass; return it read-only.

    Every member must be finite, Hermitian and have spectrum in [0, 1] within
    tolerance; ``what`` names the input or member k as in
    ``require_hermitian``.
    """
    mat = require_hermitian(stack, what)
    solved, eigenvalues = _uncertified_spectra(mat)
    lo, hi = eigenvalues[:, 0], eigenvalues[:, -1]
    bad = np.flatnonzero((lo < -linalg.POSITIVITY_TOL) | (hi > 1 + linalg.EFFECT_CEILING_TOL))
    if bad.size:
        j = bad[0]
        raise BadArgument(f"{member_name(what, solved[j])} spectrum [{lo[j]:.3e}, {hi[j]:.3e}] leaves [0, 1]")
    mat.setflags(write=False)
    return mat


@dataclass(frozen=True, eq=False, init=False)
class Ensemble:
    """N preparations on a common Hilbert space.

    The states are held as the one validated, read-only stack they were
    built from: the (N, d) amplitude vectors of a pure ensemble or the
    (N, d, d) density matrices of a mixed one. ``from_vectors`` and
    ``from_matrices`` are the constructors: each checks a whole stack in one
    pass.
    """

    _stack: np.ndarray

    def __init__(self, *args, **kwargs) -> None:
        raise TypeError("build an Ensemble with Ensemble.from_vectors or Ensemble.from_matrices")

    @classmethod
    def _of_checked(cls, stack: np.ndarray) -> Ensemble:
        self = cls.__new__(cls)
        object.__setattr__(self, "_stack", stack)
        return self

    @classmethod
    def from_vectors(cls, vectors) -> Ensemble:
        """Pure ensemble from an (N, d) stack of unit amplitude vectors.

        One batched pass applies the ``StateVector`` check to every member;
        the error names the first offending state as ``states[i]``, 0-based.
        The outer product of a vector that passes is a valid density matrix:
        its trace is within ~2e-10 of 1 and ||E^2 - E||_F ~ 2e-10, so it
        passes the ``DensityMatrix`` checks with no eigensolve.
        """
        need = "need a nonempty (N, d) stack of amplitude vectors"
        vecs = complex_array(vectors, need)
        if vecs.ndim != 2 or 0 in vecs.shape:
            raise BadArgument(f"{need}, got shape {vecs.shape}")
        return cls._of_checked(_checked_vectors(vecs, lambda i: f"states[{i}]: state vector"))

    @classmethod
    def from_matrices(cls, matrices) -> Ensemble:
        """Mixed ensemble from an (N, d, d) stack of density matrices.

        One batched pass applies the ``DensityMatrix`` checks to every member;
        the error names the first offending state as ``density_matrices[i]``,
        0-based.
        """
        need = "need a nonempty (N, d, d) stack of density matrices"
        mats = complex_array(matrices, need)
        if mats.ndim != 3 or mats.shape[0] < 1:
            raise BadArgument(f"{need}, got shape {mats.shape}")
        return cls._of_checked(_checked_densities(mats, lambda i: f"density_matrices[{i}]: density matrix"))

    @property
    def N(self) -> int:
        return self._stack.shape[0]

    @property
    def dim(self) -> int:
        return self._stack.shape[-1]

    @property
    def pure(self) -> bool:
        """Whether the ensemble was built from amplitude vectors, so ``vectors()`` succeeds."""
        return self._stack.ndim == 2

    def matrices(self) -> np.ndarray:
        """Stacked density matrices, shape (N, d, d), read-only; a pure ensemble's are built per call."""
        if not self.pure:
            return self._stack
        outer = self._stack[:, :, None] * self._stack[:, None, :].conj()
        # symmetrized as require_hermitian does, so every diagonal entry is real
        mats = outer + outer.conj().swapaxes(-2, -1)
        mats /= 2.0
        mats.setflags(write=False)
        return mats

    def vectors(self) -> np.ndarray:
        """Stacked pure-state amplitudes, shape (N, d), read-only; requires a pure ensemble."""
        if not self.pure:
            raise NotPure("the ensemble was built from density matrices, not amplitude vectors")
        return self._stack


@dataclass(frozen=True, eq=False, init=False)
class PairMeasurementSet:
    """Binary measurements indexed by preparation pairs (x, x'), x > x'.

    Only the b = 1 effect is stored per pair, as one read-only (P, d, d)
    ``stack`` in ``pair_labels`` order, P = N(N-1)/2; N comes from the pair
    count P, never from a label. Building it from such a stack applies the
    ``Effect`` checks to every member in one batched pass; the error names
    the first offending pair.
    """

    stack: np.ndarray
    N: int

    def __init__(self, stack) -> None:
        need = "need a (P, d, d) stack with P = N(N-1)/2 >= 1"
        stack = complex_array(stack, need)
        n = kernels.preparation_count(stack.shape[0] if stack.ndim == 3 else 0)
        if n is None:
            raise BadArgument(f"{need}, got shape {stack.shape}")
        # a refused effect names its pair from the index arrays; valid input builds no labels
        object.__setattr__(self, "stack", _checked_effects(
            stack, lambda k: f"effect {tuple(int(i[k]) + 1 for i in kernels.pair_index(n))}"))
        object.__setattr__(self, "N", n)

    @property
    def dim(self) -> int:
        return self.stack.shape[-1]


def require_compatible(ensemble: Ensemble, measurements: PairMeasurementSet) -> None:
    """``DimensionMismatch`` unless the effects share the states' dimension and cover their pairs."""
    if ensemble.dim != measurements.dim:
        raise DimensionMismatch(
            f"states live in dimension {ensemble.dim}, effects in {measurements.dim}"
        )
    if ensemble.N != measurements.N:
        raise DimensionMismatch(
            f"measurements cover pairs of {measurements.N} preparations, ensemble has {ensemble.N}"
        )


def pure_state(amplitudes) -> DensityMatrix:
    """Density matrix |v><v| of a unit vector v, checked as a ``StateVector``."""
    amps = StateVector(amplitudes).amplitudes
    return DensityMatrix(np.outer(amps, amps.conj()))


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


def _bounded_pair_index(ensemble: Ensemble, per_pair: int, counted: str) -> tuple[np.ndarray, np.ndarray]:
    """``kernels.pair_index`` of the ensemble, once P * ``per_pair`` entries pass the size bound."""
    if ensemble.N < 2:
        raise BadArgument("pair measurements need at least two preparations")
    if ensemble.N * (ensemble.N - 1) // 2 * per_pair > kernels.MAX_PAIR_ENTRIES:
        raise TooLarge(f"N={ensemble.N}, d={ensemble.dim} needs more than 10^7 {counted}, "
                       "the Helstrom size bound")
    return kernels.pair_index(ensemble.N)


def _unit_vectors(ensemble: Ensemble) -> np.ndarray:
    # the closed forms want unit vectors; a witness is unit only within tolerance
    vecs = ensemble.vectors()
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def helstrom_measurements(ensemble: Ensemble) -> PairMeasurementSet:
    """Optimal discrimination effect for every preparation pair of the ensemble.

    For a pure ensemble the effects are the closed-form rank-one projectors
    of ``kernels.rank_one_effects``; otherwise one stacked eigensolve gives
    them. ``PairMeasurementSet`` checks them either way. A (P, d, d) stack of
    more than ``kernels.MAX_PAIR_ENTRIES`` entries is refused with ``TooLarge``.
    A pair witness needs only the differences these effects give, which
    ``helstrom_differences`` returns without building them.
    """
    ix, ixp = _bounded_pair_index(ensemble, ensemble.dim**2, "pair-effect entries (N(N-1)/2 * d^2)")
    if ensemble.pure:
        vecs = _unit_vectors(ensemble)
        effects = kernels.rank_one_effects(vecs[ix], vecs[ixp])
    else:
        rhos = ensemble.matrices()
        effects = kernels.positive_projectors(rhos[ix] - rhos[ixp])
    return PairMeasurementSet(effects)


def helstrom_differences(ensemble: Ensemble) -> np.ndarray:
    """Helstrom pair differences P(1|x,(x,x')) - P(1|x',(x,x')), shape (P,), in ``pair_labels`` order.

    Under the effects of ``helstrom_measurements`` each difference is the
    trace distance D(rho_x, rho_x'): the sum of the eigenvalues of
    rho_x - rho_x' above ``ZERO_EIGENVALUE_TOL``. This computes it without
    the effects or a Born table: as the s of ``kernels.pure_pair_gaps`` on
    the renormalized vectors of a pure ensemble, with no eigensolve, or from
    one stacked ``eigvalsh`` for a mixed one. Pair arrays of more than
    ``kernels.MAX_PAIR_ENTRIES`` entries (P * d pure, P * d^2 mixed) are
    refused with ``TooLarge``.
    """
    if ensemble.pure:
        ix, ixp = _bounded_pair_index(ensemble, ensemble.dim, "pair entries (N(N-1)/2 * d)")
        vecs = _unit_vectors(ensemble)
        return kernels.pure_pair_gaps(vecs[ix], vecs[ixp])[1]
    ix, ixp = _bounded_pair_index(ensemble, ensemble.dim**2, "pair-difference entries (N(N-1)/2 * d^2)")
    rhos = ensemble.matrices()
    deltas = rhos[ix]
    deltas -= rhos[ixp]  # in place: one (P, d, d) array fewer at the size bound
    values = np.linalg.eigvalsh(deltas)
    return np.sum(values, axis=-1, where=values > linalg.ZERO_EIGENVALUE_TOL)


def fourier_ensemble(n_states: int, dim: int) -> Ensemble:
    """N pure states whose amplitudes are Fourier phases on the first d levels.

    State x (x = 1..N) has amplitudes exp(i 2 pi k x / N) / sqrt(d) for
    k = 0..d-1. The uniform mixture of these states is maximally mixed for
    every 1 <= d <= N, which makes the ensemble saturate the quadratic
    witness ceiling under optimal pair discrimination. More than
    ``kernels.MAX_PAIR_ENTRIES`` amplitudes (N * d) are refused with ``TooLarge``.
    """
    n_states, dim = require_int(n_states, "n_states"), require_int(dim, "dim")
    if n_states < 1:
        raise BadArgument(f"need at least one state, got {n_states}")
    if dim < 1 or dim > n_states:
        raise BadArgument(f"dimension must satisfy 1 <= d <= N, got d={dim}, N={n_states}")
    if n_states * dim > kernels.MAX_PAIR_ENTRIES:
        raise TooLarge(f"N={n_states}, d={dim} needs more than 10^7 amplitudes (N * d), the ensemble size bound")
    k = np.arange(dim)
    x = np.arange(1, n_states + 1)[:, None]
    return Ensemble.from_vectors(np.exp(2j * np.pi * k * x / n_states) / np.sqrt(dim))


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
    self-test of the ensemble plumbing. Raises ``NotPure`` for an ensemble
    built from density matrices.
    """
    lhs = float(np.sum(np.tril(pure_overlaps(ensemble), k=-1)))
    n = ensemble.N
    rhs = n * n / 2.0 * purity(average_state(ensemble)) - n / 2.0
    return lhs, rhs


def pure_overlaps(ensemble: Ensemble) -> np.ndarray:
    """Matrix of squared overlaps |<psi_x|psi_x'>|^2; requires a pure ensemble."""
    vectors = ensemble.vectors()
    gram = vectors.conj() @ vectors.T
    return np.abs(gram) ** 2
