import math

import numpy as np
import pytest

from conftest import random_pure_ensemble
from dimwitness import (
    BadArgument,
    DensityMatrix,
    DimensionMismatch,
    Effect,
    Ensemble,
    NoiseModel,
    NotAPovm,
    PairMeasurementSet,
    ProbabilityTable,
    ShapeMismatch,
    WitnessKind,
    average_state,
    born_table,
    depolarize,
    evaluate,
    fourier_ensemble,
    guessing_table,
    helstrom_measurements,
    noisy_table,
    pair_differences,
    pure_state,
    quantum_bound,
    simulate,
)

Q, L, G = WitnessKind.QUADRATIC, WitnessKind.LINEAR, WitnessKind.GUESSING


def basis_pair():
    return Ensemble.from_vectors(np.eye(2))


def one_pair(effect) -> PairMeasurementSet:
    """The measurement set of N = 2: one b = 1 effect for the pair (2, 1)."""
    return PairMeasurementSet(np.asarray(effect)[None])


class TestNoiseModel:
    def test_validation(self):
        with pytest.raises(BadArgument):
            NoiseModel(depolarizing_eta=1.5)
        with pytest.raises(BadArgument):
            NoiseModel(shots=0)

    @pytest.mark.parametrize("shots", [2.5, 1.0, True, False, 0, -3, 2**63, 10**19, math.inf, "100"])
    def test_shots_must_be_an_integer_in_int64_range(self, shots):
        with pytest.raises(BadArgument):
            NoiseModel(shots=shots)

    @pytest.mark.parametrize("shots", [2**53 + 1, 10**18 + 9, 2**63 - 1])
    def test_shots_past_2_pow_53_are_refused(self, shots):
        """Past 2**53 a count need not be an exact double, so count/shots would round twice."""
        with pytest.raises(BadArgument, match=r"^shots must be an integer in \[1, 9007199254740992\], got "):
            NoiseModel(shots=shots)

    def test_integer_shots_up_to_2_pow_53_are_kept_as_int(self):
        assert NoiseModel(shots=2**53).shots == 2**53
        model = NoiseModel(shots=np.int64(100))
        assert model.shots == 100 and type(model.shots) is int

    def test_depolarize_range_check(self):
        with pytest.raises(BadArgument):
            depolarize(pure_state([1.0, 0.0]), -0.1)


class TestBornTable:
    def test_projective_discrimination_of_basis_states(self):
        ensemble = basis_pair()
        table = born_table(ensemble, one_pair(np.diag([1.0, 0.0])))
        assert table.p[0, 0, 0] == pytest.approx(1.0, abs=1e-12)
        assert table.p[1, 0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_trivial_effect_gives_half(self):
        ensemble = basis_pair()
        table = born_table(ensemble, one_pair(np.eye(2) / 2))
        assert np.allclose(table.p[:, 0, 0], 0.5)

    def test_fourier_helstrom_reference_value(self):
        ensemble = fourier_ensemble(7, 2)
        table = born_table(ensemble, helstrom_measurements(ensemble))
        assert evaluate(Q, table) == pytest.approx(12.25, abs=1e-6)

    def test_dimension_mismatch(self):
        ensemble = basis_pair()
        with pytest.raises(DimensionMismatch):
            born_table(ensemble, one_pair(np.eye(3) / 3))

    def test_pair_count_mismatch(self):
        ensemble = fourier_ensemble(3, 2)
        with pytest.raises(DimensionMismatch):
            born_table(ensemble, one_pair(np.eye(2) / 2))


class TestNoisyTable:
    def test_fully_depolarized_states_are_indistinguishable(self):
        ensemble = fourier_ensemble(4, 2)
        ms = helstrom_measurements(ensemble)
        table = noisy_table(ensemble, ms, NoiseModel(depolarizing_eta=1.0), seed=0)
        assert evaluate(Q, table) == pytest.approx(0.0, abs=1e-24)

    def test_noiseless_exact_equals_born(self):
        # bit for bit, whatever the seed: born_table is noisy_table without noise
        ensemble = fourier_ensemble(4, 2)
        ms = helstrom_measurements(ensemble)
        exact = born_table(ensemble, ms)
        assert exact.empirical is False
        for seed in (0, 2**64 - 1):
            assert noisy_table(ensemble, ms, NoiseModel(), seed).p.tobytes() == exact.p.tobytes()

    @pytest.mark.parametrize("noise", [NoiseModel(), NoiseModel(0.1), NoiseModel(0.1, 1000)],
                             ids=["exact", "depolarized", "sampled"])
    def test_one_table_is_built_per_call(self, monkeypatch, noise):
        built = []

        def counted(*args, **kwargs):
            built.append(args)
            return ProbabilityTable(*args, **kwargs)

        monkeypatch.setattr(simulate, "ProbabilityTable", counted)
        ensemble = fourier_ensemble(5, 3)
        ms = helstrom_measurements(ensemble)
        noisy_table(ensemble, ms, noise, seed=0)
        assert len(built) == 1
        born_table(ensemble, ms)
        assert len(built) == 2

    def test_depolarizing_scales_linear_witness(self):
        ensemble = fourier_ensemble(3, 2)
        ms = helstrom_measurements(ensemble)
        table = noisy_table(ensemble, ms, NoiseModel(depolarizing_eta=0.1), seed=0)
        expected = 0.9 * 3 * np.sqrt(3) / 2
        assert evaluate(L, table) == pytest.approx(expected, abs=1e-10)

    def test_depolarizing_linearity_per_pair(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            ensemble = random_pure_ensemble(rng, 4, 3)
            ms = helstrom_measurements(ensemble)
            eta = float(rng.uniform(0, 1))
            noisy = noisy_table(ensemble, ms, NoiseModel(depolarizing_eta=eta), seed=0)
            exact = born_table(ensemble, ms)
            deviation = pair_differences(noisy) - (1 - eta) * pair_differences(exact)
            assert np.max(np.abs(deviation)) <= 1e-10

    @pytest.mark.parametrize("n, d", [(7, 2), (10, 3), (12, 4), (20, 5), (30, 6)])
    def test_table_space_depolarizing_matches_depolarized_states(self, n, d):
        ensemble = fourier_ensemble(n, d)
        ms = helstrom_measurements(ensemble)
        for eta in (0.0, 0.05, 0.1, 0.37, 0.5, 1.0):
            states = np.stack([depolarize(DensityMatrix(m), eta).matrix for m in ensemble.matrices()])
            reference = born_table(Ensemble.from_matrices(states), ms).p
            table = noisy_table(ensemble, ms, NoiseModel(depolarizing_eta=eta), seed=0)
            assert np.max(np.abs(table.p - reference)) <= 1e-14

    def test_finite_shots_deterministic_and_flagged(self):
        ensemble = fourier_ensemble(4, 2)
        ms = helstrom_measurements(ensemble)
        model = NoiseModel(shots=1000)
        a = noisy_table(ensemble, ms, model, seed=42)
        b = noisy_table(ensemble, ms, model, seed=42)
        c = noisy_table(ensemble, ms, model, seed=43)
        assert a.empirical
        assert np.array_equal(a.p, b.p)
        assert not np.array_equal(a.p, c.p)

    def test_shot_frequencies_have_finite_resolution(self):
        ensemble = fourier_ensemble(3, 2)
        ms = helstrom_measurements(ensemble)
        table = noisy_table(ensemble, ms, NoiseModel(shots=100), seed=5)
        assert np.allclose(table.p * 100, np.round(table.p * 100), atol=1e-9)

    def test_million_shot_convergence_on_reference_model(self):
        ensemble = fourier_ensemble(7, 2)
        ms = helstrom_measurements(ensemble)
        exact = born_table(ensemble, ms)
        shots = 10**6
        empirical = noisy_table(ensemble, ms, NoiseModel(shots=shots), seed=7)
        # Cells are independent binomials of variance p(1 - p)/shots, and pair y
        # is (x, x') in np.tril_indices order. For W = sum_y D_y^2 the bias is
        # sum_y Var(D_y) and, to first order, Var(W) = sum_y 4 D_y^2 Var(D_y).
        p1 = exact.p[:, :, 0]
        cell_var = p1 * (1.0 - p1) / shots
        x, xp = np.tril_indices(7, k=-1)
        y = np.arange(len(x))
        var_d = cell_var[x, y] + cell_var[xp, y]
        sd = math.sqrt(np.sum(4.0 * pair_differences(exact) ** 2 * var_d))
        bound = np.sum(var_d) + 6.0 * sd
        assert abs(evaluate(Q, empirical) - evaluate(Q, exact)) <= bound


def per_row_counts(ensemble, measurements, eta, shots, seed):
    """Reference sampler: a new Philox generator keyed [seed, x] per row, one binomial call each."""
    exact = noisy_table(ensemble, measurements, NoiseModel(eta), seed).p[:, :, 0]
    rows = []
    for x, row in enumerate(exact, start=1):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, x], dtype=np.uint64)))
        rows.append(rng.binomial(shots, np.clip(row, 0.0, 1.0)))
    return np.stack(rows)


def assert_same_as_per_row(table, ensemble, measurements, eta, shots, seed):
    counts = per_row_counts(ensemble, measurements, eta, shots, seed).tolist()
    # Python's int / int is correctly rounded for any shot count
    freq = np.array([[c / shots for c in row] for row in counts])
    rest = np.array([[(shots - c) / shots for c in row] for row in counts])
    assert table.p[:, :, 0].tobytes() == freq.tobytes()
    assert table.p[:, :, 1].tobytes() == rest.tobytes()


class TestSamplerKeying:
    """Each row is one binomial draw from the Philox stream keyed [seed, x]."""

    @pytest.mark.parametrize("shots", [1, 5, 100, 10**4, 10**6])
    def test_matches_a_generator_per_cell(self, shots):
        """Cell by cell, bitwise, the table is what a new generator per row draws."""
        ensemble = fourier_ensemble(7, 3)
        ms = helstrom_measurements(ensemble)
        for seed in (0, 2**64 - 1):
            for eta in (0.0, 0.1):
                table = noisy_table(ensemble, ms, NoiseModel(eta, shots), seed)
                assert_same_as_per_row(table, ensemble, ms, eta, shots, seed)

    def test_matches_a_generator_per_cell_at_the_largest_shot_count(self):
        """The same cell-by-cell match at 2**53 shots, the last count that is an exact double."""
        ensemble = fourier_ensemble(12, 3)
        ms = helstrom_measurements(ensemble)
        table = noisy_table(ensemble, ms, NoiseModel(0.1, 2**53), 2**64 - 1)
        assert_same_as_per_row(table, ensemble, ms, 0.1, 2**53, 2**64 - 1)

    def test_certain_outcomes_on_orthogonal_states(self):
        ensemble = basis_pair()
        table = noisy_table(ensemble, one_pair(np.diag([1.0, 0.0])), NoiseModel(shots=50), seed=4)
        assert table.p[:, 0, 0].tolist() == [1.0, 0.0]
        assert table.p[:, 0, 1].tolist() == [0.0, 1.0]

    def test_interleaved_calls_with_different_seeds_do_not_disturb_each_other(self):
        ensemble = fourier_ensemble(5, 2)
        ms = helstrom_measurements(ensemble)
        model = NoiseModel(0.05, 1000)
        first = noisy_table(ensemble, ms, model, seed=3)
        other = noisy_table(ensemble, ms, model, seed=2**64 - 1)
        again = noisy_table(ensemble, ms, model, seed=3)
        assert first.p.tobytes() == again.p.tobytes()
        assert_same_as_per_row(first, ensemble, ms, 0.05, 1000, 3)
        assert_same_as_per_row(other, ensemble, ms, 0.05, 1000, 2**64 - 1)

    def test_a_row_does_not_depend_on_the_other_preparations(self):
        ensemble = fourier_ensemble(7, 3)
        ms = helstrom_measurements(ensemble)
        vectors = ensemble.vectors().copy()
        changed = 4
        vectors[changed] = np.array([1.0, 1.0j, -1.0]) / np.sqrt(3)
        other = Ensemble.from_vectors(vectors)
        model = NoiseModel(0.1, 1000)
        kept = np.arange(7) != changed
        exact_a, exact_b = born_table(ensemble, ms).p, born_table(other, ms).p
        assert exact_a[kept].tobytes() == exact_b[kept].tobytes()
        a, b = noisy_table(ensemble, ms, model, seed=9).p, noisy_table(other, ms, model, seed=9).p
        assert a[kept].tobytes() == b[kept].tobytes()
        assert not np.array_equal(a[changed], b[changed])

    @pytest.mark.parametrize("seed", [1.5, 1.0, True, -1, 2**64, math.inf, "1"])
    def test_seed_must_be_a_64_bit_unsigned_integer(self, seed):
        ensemble = fourier_ensemble(3, 2)
        with pytest.raises(BadArgument):
            noisy_table(ensemble, helstrom_measurements(ensemble), NoiseModel(shots=10), seed)


class TestGuessingTable:
    def test_orthonormal_states_and_projectors(self):
        n = 4
        ensemble = Ensemble.from_vectors(np.eye(n))
        effects = [Effect(np.outer(np.eye(n)[i], np.eye(n)[i])) for i in range(n)]
        table = guessing_table(ensemble, effects)
        assert evaluate(G, table) == 1.0
        assert table.k == n

    def test_trivial_povm(self):
        n = 3
        ensemble = fourier_ensemble(n, 2)
        effects = [Effect(np.eye(2) / n) for _ in range(n)]
        table = guessing_table(ensemble, effects)
        assert evaluate(G, table) == pytest.approx(1 / n, abs=1e-12)

    def test_square_root_measurement_respects_ceiling(self):
        ensemble = fourier_ensemble(4, 2)
        omega = average_state(ensemble)
        w, v = np.linalg.eigh(omega.matrix)
        inv_sqrt = (v * (1 / np.sqrt(w))) @ v.conj().T
        effects = [Effect(inv_sqrt @ (m / 4) @ inv_sqrt) for m in ensemble.matrices()]
        value = evaluate(G, guessing_table(ensemble, effects))
        assert value <= 0.5 + 1e-9
        assert value == pytest.approx(0.5, abs=1e-9)

    def test_not_a_povm_reports_deviation(self):
        ensemble = fourier_ensemble(3, 2)
        effects = [Effect(np.eye(2) / 4) for _ in range(3)]
        with pytest.raises(NotAPovm) as err:
            guessing_table(ensemble, effects)
        assert "2.5" in str(err.value)

    def test_wrong_effect_count(self):
        ensemble = fourier_ensemble(3, 2)
        with pytest.raises(ShapeMismatch):
            guessing_table(ensemble, [Effect(np.eye(2))])

    def test_member_that_is_not_an_effect_is_named(self):
        ensemble = fourier_ensemble(4, 2)
        effects = [Effect(np.eye(2) / 4)] * 3 + [np.eye(2) / 4]
        with pytest.raises(BadArgument, match=r"^effects\[3\] must be an Effect, got ndarray$"):
            guessing_table(ensemble, effects)

    def test_generator_of_effects_is_refused(self):
        ensemble = fourier_ensemble(4, 2)
        with pytest.raises(BadArgument, match="sequence of Effect objects, got generator"):
            guessing_table(ensemble, (Effect(np.eye(2) / 4) for _ in range(4)))


def test_born_tables_respect_quantum_ceilings():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(3, 7))
        d = int(rng.integers(2, n + 1))
        ensemble = random_pure_ensemble(rng, n, d)
        table = born_table(ensemble, helstrom_measurements(ensemble))
        assert evaluate(Q, table) <= quantum_bound(Q, n, d) + 1e-8
        assert evaluate(L, table) <= quantum_bound(L, n, d) + 1e-8
