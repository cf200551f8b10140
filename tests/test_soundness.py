"""Soundness on exact tables: no d-dimensional model certifies a dimension above d.

Seeded random models at every 3 <= N <= 7 and 1 <= d <= N, read through both
pair witnesses: quantum models must never push ``min_quantum_d`` past d, and
classical models (shared randomness over d-message strategies) must push
neither side past d. Models placed exactly on a quantum ceiling certify
exactly their dimension, so a ceiling that sits one dimension too low or too
high fails here.
"""

import numpy as np

from conftest import random_density
from dimwitness import (
    DeterministicStrategy,
    Ensemble,
    PairMeasurementSet,
    ProbabilityTable,
    WitnessKind,
    born_table,
    certify_dimension,
    evaluate,
    fourier_ensemble,
    helstrom_measurements,
    strategy_table,
)

PAIR_KINDS = (WitnessKind.QUADRATIC, WitnessKind.LINEAR)
SIZES = [(n, d) for n in range(3, 8) for d in range(1, n + 1)]
MODELS = 16  # random models of each sort per (N, d)


def random_mixed_ensemble(rng: np.random.Generator, n: int, d: int) -> Ensemble:
    """N random density matrices of dimension d, each of a random rank 1..d."""
    states = [random_density(rng, d, int(rng.integers(1, d + 1))).matrix for _ in range(n)]
    return Ensemble.from_matrices(np.stack(states))


def random_pair_measurements(rng: np.random.Generator, n: int, d: int) -> PairMeasurementSet:
    """One random effect 0 <= E <= I per pair: a random eigenbasis with eigenvalues drawn from [0, 1]."""
    effects = []
    for _ in range(n * (n - 1) // 2):
        q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        effects.append((q * rng.uniform(0.0, 1.0, d)) @ q.conj().T)
    return PairMeasurementSet(np.stack(effects))


def random_strategy(rng: np.random.Generator, n: int, d: int) -> DeterministicStrategy:
    """A d-message strategy with a random encoding and a random binary outcome per (pair, message)."""
    encoding = tuple(int(s) for s in rng.integers(1, d + 1, n))
    pairs = n * (n - 1) // 2
    decoding = [[int(rng.integers(1, 3)) for s in range(1, d + 1)] for y in range(1, pairs + 1)]
    return DeterministicStrategy(n, d, encoding, decoding)


def classical_mixture(rng: np.random.Generator, n: int, d: int) -> ProbabilityTable:
    """A mixture of one to three deterministic d-message strategies: shared randomness."""
    count = int(rng.integers(1, 4))
    weights = rng.dirichlet(np.ones(count))
    # both pair witnesses read the same table shape
    tables = [strategy_table(random_strategy(rng, n, d), WitnessKind.QUADRATIC).p for _ in range(count)]
    return ProbabilityTable(np.einsum("i,i...->...", weights, np.stack(tables)))


def test_quantum_models_never_certify_above_their_dimension():
    rng = np.random.default_rng(20121)
    for n, d in SIZES:
        for _ in range(MODELS):
            ensemble = random_mixed_ensemble(rng, n, d)
            for measurements in (helstrom_measurements(ensemble), random_pair_measurements(rng, n, d)):
                table = born_table(ensemble, measurements)
                for kind in PAIR_KINDS:
                    certified = certify_dimension(kind, n, evaluate(kind, table))
                    assert certified.min_quantum_d <= d, (kind, n, d, certified)


def test_classical_models_certify_neither_side_above_their_dimension():
    rng = np.random.default_rng(20122)
    for n, d in SIZES:
        for _ in range(MODELS):
            table = classical_mixture(rng, n, d)
            for kind in PAIR_KINDS:
                certified = certify_dimension(kind, n, evaluate(kind, table))
                assert certified.min_quantum_d <= d, (kind, n, d, certified)
                classical_d = certified.min_classical_d
                assert classical_d is not None and classical_d <= d, (kind, n, d, certified)


def test_models_on_the_ceiling_certify_exactly_their_dimension():
    on_ceiling = [(WitnessKind.QUADRATIC, n, d) for n, d in SIZES]
    on_ceiling += [(WitnessKind.LINEAR, d + 1, d) for d in range(2, 7)]
    for kind, n, d in on_ceiling:
        ensemble = fourier_ensemble(n, d)
        value = evaluate(kind, born_table(ensemble, helstrom_measurements(ensemble)))
        assert certify_dimension(kind, n, value).min_quantum_d == d, (kind, n, d, value)
