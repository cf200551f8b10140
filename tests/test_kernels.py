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
from dimwitness.kernels import pair_index, positive_projectors, preparation_count, rank_one_projectors


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


def test_index_follows_pair_labels():
    n = 6
    ix, ixp = pair_index(n)
    assert [(x + 1, xp + 1) for x, xp in zip(ix, ixp)] == list(pair_labels(n))


def unit_vectors(rng, shape):
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def projectors_of(vecs):
    return np.einsum("...i,...j->...ij", vecs, vecs.conj())


def test_rank_one_projectors_match_stacked_eigensolve():
    rng = np.random.default_rng(23)
    a, b = unit_vectors(rng, (4, 6, 3)), unit_vectors(rng, (4, 6, 3))
    # a row of identical pairs, and a pair orthogonal by Gram-Schmidt
    b[1] = a[1]
    b[0, 1] -= np.vdot(a[0, 1], b[0, 1]) * a[0, 1]
    b[0, 1] /= np.linalg.norm(b[0, 1])
    u, scale = rank_one_projectors(a, b)
    effects = scale[..., None, None] * projectors_of(u)
    expected = positive_projectors(projectors_of(a) - projectors_of(b))
    assert np.max(np.abs(effects - expected)) <= 1e-12
    assert np.all(scale[1] == 0.0)
    assert np.max(np.abs(effects[0, 1] - projectors_of(a[0, 1]))) <= 1e-12


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

    def test_pair_count_sets_n_not_the_key(self, small_pair_labels):
        effect = Effect(np.eye(2) / 2)
        assert PairMeasurementSet({(2, 1): effect}).N == 2
        for effects in ({(10**9, 1): effect}, {(2, 1): effect, (3, 1): effect}, {}):
            with pytest.raises(BadArgument):
                PairMeasurementSet(effects)

    def test_stack_is_read_only(self):
        ms = helstrom_measurements(fourier_ensemble(3, 2))
        with pytest.raises(ValueError):
            ms.stack[0, 0, 0] = 1.0


def test_preparation_count_inverts_the_pair_count():
    counts = {n * (n - 1) // 2: n for n in range(2, 60)}
    for p in range(0, max(counts) + 2):
        assert preparation_count(p) == counts.get(p)
