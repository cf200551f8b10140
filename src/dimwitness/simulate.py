"""Probability tables from explicit quantum models.

Exact tables follow the Born rule P(b|x,y) = tr(rho_x M^b_y). Two optional
distortions feed the certification pipeline with more realistic data:
depolarizing noise applied to the states, and finite-shot sampling that
replaces each cell with an empirical frequency. Sampling is driven by a
counter-based generator keyed per (seed, x, y), so tables are reproducible
cell by cell regardless of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels
from .errors import BadArgument, DimensionMismatch, NotAPovm, ShapeMismatch
from .linalg import DEFAULT_TOLS
from .quantum import DensityMatrix, Effect, Ensemble, PairMeasurementSet
from .witnesses import ProbabilityTable


def _require_seed(seed: int) -> int:
    if not 0 <= seed < 2**64:
        raise BadArgument(f"seed must be a 64-bit unsigned integer, got {seed}")
    return seed


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing strength plus an optional finite shot count.

    ``depolarizing_eta`` mixes each state with the maximally mixed one:
    rho -> (1 - eta) rho + eta I/d. ``shots = None`` means exact
    probabilities.
    """

    depolarizing_eta: float = 0.0
    shots: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.depolarizing_eta <= 1.0:
            raise BadArgument(f"depolarizing_eta must lie in [0, 1], got {self.depolarizing_eta}")
        if self.shots is not None and not self.shots >= 1:
            raise BadArgument(f"shots must be positive when given, got {self.shots}")


def depolarize(rho: DensityMatrix, eta: float) -> DensityMatrix:
    """Mix a state with the maximally mixed one: (1 - eta) rho + eta I/d."""
    if not 0.0 <= eta <= 1.0:
        raise BadArgument(f"eta must lie in [0, 1], got {eta}")
    d = rho.dim
    mixed = (1.0 - eta) * rho.matrix + eta * np.eye(d) / d
    return DensityMatrix(mixed)


def _require_compatible(ensemble: Ensemble, measurements: PairMeasurementSet) -> None:
    if ensemble.dim != measurements.dim:
        raise DimensionMismatch(
            f"states live in dimension {ensemble.dim}, effects in {measurements.dim}"
        )
    if ensemble.N != measurements.N:
        raise DimensionMismatch(
            f"measurements cover pairs of {measurements.N} preparations, ensemble has {ensemble.N}"
        )


def born_table(ensemble: Ensemble, measurements: PairMeasurementSet) -> ProbabilityTable:
    """Exact pair-witness table: P(1|x, (x,x')) = tr(rho_x M_(x,x'))."""
    _require_compatible(ensemble, measurements)
    p1 = kernels.born(ensemble.matrices(), measurements.stack)
    return ProbabilityTable(np.stack([p1, 1.0 - p1], axis=2))


def noisy_table(
    ensemble: Ensemble,
    measurements: PairMeasurementSet,
    noise: NoiseModel,
    seed: int,
) -> ProbabilityTable:
    """Pair-witness table after depolarizing and (optionally) finite sampling.

    Depolarizing acts on the states before the Born rule. With ``shots`` set,
    every (x, y) cell becomes the success frequency of that many Bernoulli
    trials at the exact probability, drawn from a Philox stream keyed by
    (seed, x, y); the result is deterministic given the seed and is flagged
    ``empirical``.
    """
    _require_seed(seed)
    noisy = Ensemble(tuple(depolarize(s, noise.depolarizing_eta) for s in ensemble.states))
    exact = born_table(noisy, measurements)
    if noise.shots is None:
        return exact
    n, m = exact.N, exact.m
    p = np.empty((n, m, 2))
    for x in range(1, n + 1):
        for y in range(1, m + 1):
            cell_key = np.array([seed, (x << 32) | y], dtype=np.uint64)
            rng = np.random.Generator(np.random.Philox(key=cell_key))
            p1 = float(np.clip(exact.p[x - 1, y - 1, 0], 0.0, 1.0))
            freq = rng.binomial(noise.shots, p1) / noise.shots
            p[x - 1, y - 1, 0] = freq
            p[x - 1, y - 1, 1] = 1.0 - freq
    return ProbabilityTable(p, empirical=True)


def guessing_table(ensemble: Ensemble, effects: Sequence[Effect]) -> ProbabilityTable:
    """Single-measurement table P(b|x) = tr(rho_x E_b) for an N-outcome POVM.

    The effects must number one per preparation and sum to the identity
    within tolerance; otherwise ``NotAPovm`` reports the deviation.
    """
    if len(effects) != ensemble.N:
        raise ShapeMismatch(f"need {ensemble.N} effects (one outcome per preparation), got {len(effects)}")
    if any(e.dim != ensemble.dim for e in effects):
        raise DimensionMismatch("effect dimension does not match the ensemble")
    total = sum(e.matrix for e in effects)
    deviation = float(np.max(np.abs(total - np.eye(ensemble.dim))))
    if deviation > DEFAULT_TOLS.povm_sum:
        raise NotAPovm(f"effects sum to identity only within {deviation:.3e}")
    p = kernels.born(ensemble.matrices(), np.stack([e.matrix for e in effects]))
    return ProbabilityTable(p[:, None, :])
