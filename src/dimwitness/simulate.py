"""Probability tables from explicit quantum models.

Exact tables follow the Born rule P(b|x,y) = tr(rho_x M^b_y). ``noisy_table``
builds every pair table, exact ones too, with two optional distortions:
depolarizing noise, applied to the table through its linear action on the Born
probabilities, and finite-shot sampling that replaces each cell with an
empirical frequency count/shots, one division for shots <= 2**53. Each
preparation x draws its row of counts from its own counter-based Philox stream
keyed by [seed, x], with one vectorised ``binomial`` call, so a row does not
depend on the other rows or on the order they are drawn in. Seeded finite-shot
tables from versions that keyed one stream per (x, y) cell are not reproduced.
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
    probabilities; otherwise it is an integer in [1, 2**53], the range in
    which every count is an exact double, so a frequency is one division.
    """

    depolarizing_eta: float = 0.0
    shots: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "depolarizing_eta", require_real(self.depolarizing_eta, "depolarizing_eta", 0, 1))
        if self.shots is not None:
            object.__setattr__(self, "shots", require_int(self.shots, "shots", 1, 2**53))


def depolarize(rho: DensityMatrix, eta: float) -> DensityMatrix:
    """Mix a state with the maximally mixed one: (1 - eta) rho + eta I/d."""
    eta = require_real(eta, "eta", 0, 1)
    return DensityMatrix((1.0 - eta) * rho.matrix + eta * np.eye(rho.dim) / rho.dim)


def born_table(ensemble: Ensemble, measurements: PairMeasurementSet) -> ProbabilityTable:
    """Exact pair-witness table P(1|x, (x,x')) = tr(rho_x M_(x,x')): ``noisy_table`` without noise."""
    return noisy_table(ensemble, measurements, NoiseModel(), 0)


def noisy_table(
    ensemble: Ensemble,
    measurements: PairMeasurementSet,
    noise: NoiseModel,
    seed: int,
) -> ProbabilityTable:
    """Pair-witness table after depolarizing and (optionally) finite sampling.

    One checked ``ProbabilityTable`` per call. Depolarizing acts on the table,
    only for eta > 0 (no arithmetic turns a Born -0.0 into +0.0): the Born
    rule is linear in the state, so tr(rho_eta E_y) = (1 - eta) tr(rho E_y) +
    eta tr(E_y)/d for rho_eta = (1 - eta) rho + eta I/d; no state is built. With
    ``shots`` set, every (x, y) cell becomes the success frequency of that
    many Bernoulli trials at that probability (clipped to [0, 1]). Row x is
    drawn by one ``binomial(shots, row)`` call on a new generator over the
    Philox stream keyed [seed, x], so each row is the same whatever the other
    preparations are. Each frequency, count/shots or (shots - count)/shots,
    is one correctly rounded division of exact doubles. The result is
    deterministic given the seed and is flagged ``empirical``; seeded tables
    from versions with one stream per (x, y) cell are not reproduced.
    """
    seed = require_seed(seed)
    eta = noise.depolarizing_eta
    require_compatible(ensemble, measurements)
    p1 = kernels.born(ensemble.matrices(), measurements.stack)
    if eta > 0:
        traces = np.trace(measurements.stack, axis1=1, axis2=2).real
        p1 = (1.0 - eta) * p1 + eta * traces / measurements.dim
    shots = noise.shots
    if shots is None:
        return ProbabilityTable(np.stack([p1, 1.0 - p1], axis=2))
    # as a plain list a seed past 2**63 would turn the key into float64
    keys = np.array([[seed, x] for x in range(1, len(p1) + 1)], dtype=np.uint64)
    counts = np.stack([np.random.Generator(np.random.Philox(key=key)).binomial(shots, row)
                       for key, row in zip(keys, np.clip(p1, 0.0, 1.0))])
    return ProbabilityTable(np.stack([counts, shots - counts], axis=2) / shots, empirical=True)


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
