"""Stacked pair kernels against a per-pair oracle, and the batched effect check."""

import numpy as np
import pytest

from conftest import random_density, random_pure, random_pure_ensemble
from dimwitness import (
    BadArgument,
    Effect,
    Ensemble,
    NotHermitian,
    PairMeasurementSet,
    born_table,
    fourier_ensemble,
    helstrom_measurements,
    pair_differences,
    pair_labels,
    positive_part_projector,
)
from dimwitness.kernels import pair_incidence, pair_index, pair_sums


def oracle(ensemble: Ensemble):
    """Per-pair Helstrom projectors, Born table and pair differences."""
    labels = pair_labels(ensemble.N)
    rhos = [s.matrix for s in ensemble.states]
    projectors = [positive_part_projector(rhos[x - 1] - rhos[xp - 1]) for x, xp in labels]
    p1 = np.array([[np.trace(rho @ m).real for m in projectors] for rho in rhos])
    diffs = np.array([p1[x - 1, y] - p1[xp - 1, y] for y, (x, xp) in enumerate(labels)])
    return np.stack(projectors), p1, diffs


def random_mixed_ensemble(rng, n, d):
    return Ensemble(tuple(random_density(rng, d) for _ in range(n)))


def ensembles():
    rng = np.random.default_rng(20)
    cases = [random_pure_ensemble(rng, n, d) for n, d in ((2, 2), (5, 3), (9, 4), (12, 6))]
    cases += [random_mixed_ensemble(rng, n, d) for n, d in ((3, 2), (6, 3), (10, 5))]
    cases += [fourier_ensemble(4, 1), fourier_ensemble(7, 3)]
    repeated = random_pure(rng, 3)
    cases.append(Ensemble((repeated, random_pure(rng, 3), repeated, repeated)))
    return cases


@pytest.mark.parametrize("ensemble", ensembles(), ids=lambda e: f"N{e.N}d{e.dim}")
def test_stacked_kernels_match_per_pair_oracle(ensemble):
    projectors, p1, diffs = oracle(ensemble)
    ms = helstrom_measurements(ensemble)
    table = born_table(ensemble, ms)
    assert np.max(np.abs(ms.stack - projectors)) <= 1e-12
    assert np.max(np.abs(table.p[:, :, 0] - p1)) <= 1e-12
    assert np.max(np.abs(pair_differences(table) - diffs)) <= 1e-12


def test_identical_states_give_zero_projectors():
    rng = np.random.default_rng(21)
    state = random_pure(rng, 3)
    ms = helstrom_measurements(Ensemble((state, state, state)))
    assert np.max(np.abs(ms.stack)) <= 1e-12


def test_index_and_incidence_follow_pair_labels():
    n = 6
    ix, ixp = pair_index(n)
    assert [(x + 1, xp + 1) for x, xp in zip(ix, ixp)] == list(pair_labels(n))
    incidence = pair_incidence(n)
    for y, (x, xp) in enumerate(pair_labels(n)):
        expected = np.zeros(n)
        expected[x - 1], expected[xp - 1] = 1.0, -1.0
        assert np.array_equal(incidence[:, y], expected)


def test_pair_sums_collect_each_preparations_pairs():
    rng = np.random.default_rng(22)
    n, d = 5, 3
    effects = helstrom_measurements(random_pure_ensemble(rng, n, d)).stack
    weights = rng.standard_normal(len(effects))
    expected = np.zeros((n, d, d), dtype=complex)
    for y, (x, xp) in enumerate(pair_labels(n)):
        expected[x - 1] += weights[y] * effects[y]
        expected[xp - 1] -= weights[y] * effects[y]
    assert np.max(np.abs(pair_sums(n, weights, effects) - expected)) <= 1e-12


class TestBatchedEffectCheck:
    def stack(self):
        return helstrom_measurements(fourier_ensemble(4, 2)).stack.copy()

    def test_mapping_and_stack_agree(self):
        ms = helstrom_measurements(fourier_ensemble(4, 2))
        rebuilt = PairMeasurementSet(ms.effects)
        assert np.array_equal(rebuilt.stack, ms.stack)
        assert rebuilt.N == ms.N == 4 and rebuilt.dim == 2

    def test_non_hermitian_member(self):
        stack = self.stack()
        stack[4, 0, 1] += 1e-3
        with pytest.raises(NotHermitian):
            Effect(stack[4])
        with pytest.raises(NotHermitian, match=r"\(4, 2\)"):
            PairMeasurementSet.from_stack(stack)

    def test_out_of_spectrum_member(self):
        stack = self.stack()
        stack[2] = 1.5 * np.eye(2)
        with pytest.raises(BadArgument):
            Effect(stack[2])
        with pytest.raises(BadArgument, match=r"\(3, 2\)"):
            PairMeasurementSet.from_stack(stack)

    def test_nan_member(self):
        stack = self.stack()
        stack[0, 1, 1] = np.nan
        with pytest.raises(BadArgument):
            Effect(stack[0])
        with pytest.raises(BadArgument, match=r"\(2, 1\)"):
            PairMeasurementSet.from_stack(stack)

    def test_stack_size_must_be_a_pair_count(self):
        with pytest.raises(BadArgument):
            PairMeasurementSet.from_stack(np.zeros((2, 2, 2)))
        with pytest.raises(BadArgument):
            PairMeasurementSet.from_stack(np.zeros((2, 2)))

    def test_stack_is_read_only(self):
        ms = helstrom_measurements(fourier_ensemble(3, 2))
        with pytest.raises(ValueError):
            ms.stack[0, 0, 0] = 1.0
