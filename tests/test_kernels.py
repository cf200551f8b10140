"""Stacked pair kernels against a per-pair oracle, and the batched effect check."""

import numpy as np
import pytest

from conftest import random_density, random_pure_ensemble, random_state_vector, retained_bytes
from dimwitness import (
    BadArgument,
    Effect,
    Ensemble,
    NotHermitian,
    PairMeasurementSet,
    WitnessKind,
    born_table,
    enumerate_max,
    fourier_ensemble,
    helstrom_measurements,
    pair_differences,
    pair_labels,
)
from dimwitness.kernels import pair_index, positive_projectors, preparation_count, rank_one_effects


def positive_part(delta):
    """Projector onto the eigenvectors of one Hermitian matrix with eigenvalue > 1e-10."""
    values, vectors = np.linalg.eigh(delta)
    kept = vectors[:, values > 1e-10]
    return kept @ kept.conj().T


def oracle(ensemble: Ensemble):
    """Per-pair Helstrom projectors, Born table and pair differences."""
    labels = pair_labels(ensemble.N)
    rhos = list(ensemble.matrices())
    projectors = [positive_part(rhos[x - 1] - rhos[xp - 1]) for x, xp in labels]
    p1 = np.array([[np.trace(rho @ m).real for m in projectors] for rho in rhos])
    diffs = np.array([p1[x - 1, y] - p1[xp - 1, y] for y, (x, xp) in enumerate(labels)])
    return np.stack(projectors), p1, diffs


def random_mixed_ensemble(rng, n, d):
    return Ensemble.from_matrices(np.stack([random_density(rng, d).matrix for _ in range(n)]))


def ensembles():
    rng = np.random.default_rng(20)
    cases = [random_pure_ensemble(rng, n, d) for n, d in ((2, 2), (5, 3), (9, 4), (12, 6))]
    cases += [random_mixed_ensemble(rng, n, d) for n, d in ((3, 2), (6, 3), (10, 5))]
    cases += [fourier_ensemble(4, 1), fourier_ensemble(7, 3)]
    repeated = random_state_vector(rng, 3)
    cases.append(Ensemble.from_vectors([repeated, random_state_vector(rng, 3), repeated, repeated]))
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
    state = random_state_vector(rng, 3)
    ms = helstrom_measurements(Ensemble.from_vectors([state, state, state]))
    assert np.max(np.abs(ms.stack)) <= 1e-12


def closed_form_cases():
    rng = np.random.default_rng(22)
    cases = [random_pure_ensemble(rng, n, d) for n, d in ((2, 2), (6, 3), (10, 5))]
    # orthonormal basis states: every pair orthogonal
    cases.append(Ensemble.from_vectors(np.eye(4)))
    repeated = random_state_vector(rng, 3)
    cases.append(Ensemble.from_vectors([repeated, random_state_vector(rng, 3), repeated, repeated]))
    cases.append(fourier_ensemble(5, 1))
    return cases


@pytest.mark.parametrize("ensemble", closed_form_cases(), ids=lambda e: f"N{e.N}d{e.dim}")
def test_pure_helstrom_closed_form_matches_eigensolve(ensemble):
    assert ensemble.pure
    closed = helstrom_measurements(ensemble).stack
    # the same states as a mixed ensemble take the stacked eigh
    eigensolved = helstrom_measurements(Ensemble.from_matrices(ensemble.matrices())).stack
    assert np.max(np.abs(closed - eigensolved)) <= 1e-12


def test_index_follows_pair_labels():
    n = 6
    ix, ixp = pair_index(n)
    assert [(x + 1, xp + 1) for x, xp in zip(ix, ixp)] == list(pair_labels(n))


def test_enumeration_keeps_no_pair_labels():
    # the 79,800 label tuples of N = 400 take ~8 MB; what stays is the
    # interpreter's free list of small tuples, ~0.1 MB
    enumerate_max(WitnessKind.LINEAR, 100, 1)
    assert retained_bytes(lambda: enumerate_max(WitnessKind.LINEAR, 400, 1)) < 10**6


def test_pair_index_keeps_nothing():
    # the index arrays of N = 300..319 take 14 MB together; once dropped, none of them stays
    assert retained_bytes(lambda: [pair_index(n) for n in range(300, 320)]) < 10**5


def unit_vectors(rng, shape):
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def projectors_of(vecs):
    return np.einsum("...i,...j->...ij", vecs, vecs.conj())


def test_rank_one_effects_match_stacked_eigensolve():
    rng = np.random.default_rng(23)
    a, b = unit_vectors(rng, (4, 6, 3)), unit_vectors(rng, (4, 6, 3))
    # a row of identical pairs, and a pair orthogonal by Gram-Schmidt
    b[1] = a[1]
    b[0, 1] -= np.vdot(a[0, 1], b[0, 1]) * a[0, 1]
    b[0, 1] /= np.linalg.norm(b[0, 1])
    effects = rank_one_effects(a, b)
    assert effects.shape == (4, 6, 3, 3)
    expected = positive_projectors(projectors_of(a) - projectors_of(b))
    assert np.max(np.abs(effects - expected)) <= 1e-12
    assert np.all(effects[1] == 0.0)
    assert np.max(np.abs(effects[0, 1] - projectors_of(a[0, 1]))) <= 1e-12


class TestBatchedEffectCheck:
    def stack(self):
        return helstrom_measurements(fourier_ensemble(4, 2)).stack.copy()

    def test_non_hermitian_member(self):
        stack = self.stack()
        stack[4, 0, 1] += 1e-3
        with pytest.raises(NotHermitian):
            Effect(stack[4])
        with pytest.raises(NotHermitian, match=r"\(4, 2\)"):
            PairMeasurementSet(stack)

    def test_out_of_spectrum_member(self):
        stack = self.stack()
        stack[2] = 1.5 * np.eye(2)
        with pytest.raises(BadArgument):
            Effect(stack[2])
        with pytest.raises(BadArgument, match=r"\(3, 2\)"):
            PairMeasurementSet(stack)

    def test_nan_member(self):
        stack = self.stack()
        stack[0, 1, 1] = np.nan
        with pytest.raises(BadArgument):
            Effect(stack[0])
        with pytest.raises(BadArgument, match=r"\(2, 1\)"):
            PairMeasurementSet(stack)

    def test_stack_size_must_be_a_pair_count(self):
        with pytest.raises(BadArgument):
            PairMeasurementSet(np.zeros((2, 2, 2)))
        with pytest.raises(BadArgument):
            PairMeasurementSet(np.zeros((2, 2)))

    def test_non_square_members_are_named_in_words(self):
        with pytest.raises(NotHermitian, match="^every member of the stack must be square"):
            PairMeasurementSet(np.zeros((1, 2, 3)))

    def test_pair_count_sets_n_not_the_key(self, small_pair_labels):
        half = np.eye(2) / 2
        assert PairMeasurementSet(half[None]).N == 2
        assert PairMeasurementSet(np.stack([half] * 6)).N == 4
        for size in (0, 2, 4):
            with pytest.raises(BadArgument):
                PairMeasurementSet(np.zeros((size, 2, 2)))

    def test_ragged_stack(self):
        with pytest.raises(BadArgument, match="ragged input whose members differ in shape$"):
            PairMeasurementSet([np.eye(2) / 2, np.eye(3) / 3, np.eye(2) / 2])

    def test_stack_is_read_only(self):
        ms = helstrom_measurements(fourier_ensemble(3, 2))
        with pytest.raises(ValueError):
            ms.stack[0, 0, 0] = 1.0


def test_preparation_count_inverts_the_pair_count():
    counts = {n * (n - 1) // 2: n for n in range(2, 60)}
    for p in range(0, max(counts) + 2):
        assert preparation_count(p) == counts.get(p)
