"""Probability tables from explicit quantum models.

Exact tables follow the Born rule P(b|x,y) = tr(rho_x M^b_y). Two optional
distortions feed the certification pipeline with more realistic data:
depolarizing noise, applied to the table through its linear action on the Born
probabilities, and finite-shot sampling that replaces each cell with an
empirical frequency. Every cell draws from its own counter-based Philox stream
keyed by (seed, x, y), so tables are reproducible cell by cell regardless of
evaluation order. One generator serves a whole table: before each cell it is
reset to the fresh state of that cell's stream, which draws exactly what a new
generator would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels
from .errors import BadArgument, DimensionMismatch, NotAPovm, ShapeMismatch, require_int, require_real, require_seed
from .linalg import POVM_SUM_TOL
from .quantum import DensityMatrix, Effect, Ensemble, PairMeasurementSet, require_compatible
from .witnesses import ProbabilityTable


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing strength plus an optional finite shot count.

    ``depolarizing_eta`` mixes each state with the maximally mixed one:
    rho -> (1 - eta) rho + eta I/d. ``shots = None`` means exact
    probabilities; otherwise it is an integer in [1, 2**63 - 1], the range
    of the sampler's trial count.
    """

    depolarizing_eta: float = 0.0
    shots: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "depolarizing_eta", require_real(self.depolarizing_eta, "depolarizing_eta", 0, 1))
        if self.shots is not None:
            object.__setattr__(self, "shots", require_int(self.shots, "shots", 1, 2**63 - 1))


def depolarize(rho: DensityMatrix, eta: float) -> DensityMatrix:
    """Mix a state with the maximally mixed one: (1 - eta) rho + eta I/d."""
    eta = require_real(eta, "eta", 0, 1)
    return DensityMatrix((1.0 - eta) * rho.matrix + eta * np.eye(rho.dim) / rho.dim)


def born_table(ensemble: Ensemble, measurements: PairMeasurementSet) -> ProbabilityTable:
    """Exact pair-witness table: P(1|x, (x,x')) = tr(rho_x M_(x,x'))."""
    require_compatible(ensemble, measurements)
    p1 = kernels.born(ensemble.matrices(), measurements.stack)
    return ProbabilityTable(np.stack([p1, 1.0 - p1], axis=2))


def noisy_table(
    ensemble: Ensemble,
    measurements: PairMeasurementSet,
    noise: NoiseModel,
    seed: int,
) -> ProbabilityTable:
    """Pair-witness table after depolarizing and (optionally) finite sampling.

    Depolarizing is applied to the table: the Born rule is linear in the
    state, so tr(rho_eta E_y) = (1 - eta) tr(rho E_y) + eta tr(E_y)/d for
    rho_eta = (1 - eta) rho + eta I/d, and no depolarized state is built. With
    ``shots`` set, every (x, y) cell becomes the success frequency of that
    many Bernoulli trials at that probability (clipped to [0, 1]), drawn with
    one ``binomial`` call from the Philox stream keyed by
    [seed, (x << 32) | y]. One bit generator serves the table: before each
    cell it is reset to that stream's fresh state (counter 0, empty buffer),
    so each cell gets the same draw as from its own new generator, independent
    of evaluation order. The result is deterministic given the seed and is
    flagged ``empirical``.
    """
    seed = require_seed(seed)
    eta = noise.depolarizing_eta
    traces = np.trace(measurements.stack, axis1=1, axis2=2).real
    p1 = (1.0 - eta) * born_table(ensemble, measurements).p[:, :, 0] + eta * traces / measurements.dim
    shots = noise.shots
    if shots is None:
        return ProbabilityTable(np.stack([p1, 1.0 - p1], axis=2))
    key = [seed, 0]
    fresh = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    bit_generator = np.random.Philox(key=0)  # reset to a cell's stream before every draw
    rng = np.random.Generator(bit_generator)
    counts = []
    for x, row in enumerate(np.clip(p1, 0.0, 1.0).tolist(), start=1):
        for y, prob in enumerate(row, start=1):
            key[1] = (x << 32) | y
            bit_generator.state = fresh
            counts.append(rng.binomial(shots, prob))
    # int / int is correctly rounded for any shot count; a float64 array
    # division is not once counts pass 2**53.
    freq = np.array([c / shots for c in counts]).reshape(p1.shape)
    return ProbabilityTable(np.stack([freq, 1.0 - freq], axis=2), empirical=True)


def guessing_table(ensemble: Ensemble, effects: Sequence[Effect]) -> ProbabilityTable:
    """Single-measurement table P(b|x) = tr(rho_x E_b) for an N-outcome POVM.

    ``effects`` must be a sequence of ``Effect`` objects, one per preparation,
    that sums to the identity within tolerance; otherwise ``NotAPovm``
    reports the deviation.
    """
    if not isinstance(effects, Sequence):
        raise BadArgument(f"effects must be a sequence of Effect objects, got {type(effects).__name__}")
    for i, effect in enumerate(effects):
        if not isinstance(effect, Effect):
            raise BadArgument(f"effects[{i}] must be an Effect, got {type(effect).__name__}")
    if len(effects) != ensemble.N:
        raise ShapeMismatch(f"need {ensemble.N} effects (one outcome per preparation), got {len(effects)}")
    if any(e.dim != ensemble.dim for e in effects):
        raise DimensionMismatch("effect dimension does not match the ensemble")
    total = sum(e.matrix for e in effects)
    deviation = float(np.max(np.abs(total - np.eye(ensemble.dim))))
    if deviation > POVM_SUM_TOL:
        raise NotAPovm(f"effects sum to identity only within {deviation:.3e}")
    p = kernels.born(ensemble.matrices(), np.stack([e.matrix for e in effects]))
    return ProbabilityTable(p[:, None, :])
