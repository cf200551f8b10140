import numpy as np
import pytest

from conftest import (
    random_density,
    random_hermitian,
    random_projector,
    random_pure,
    random_pure_ensemble,
    random_state_vector,
    retained_bytes,
)
from dimwitness import (
    BadArgument,
    DensityMatrix,
    DimensionMismatch,
    DimWitnessError,
    Effect,
    Ensemble,
    NotPure,
    PairMeasurementSet,
    StateVector,
    average_state,
    fidelity_pure,
    born_table,
    fourier_ensemble,
    helstrom_differences,
    helstrom_effect,
    helstrom_measurements,
    overlap_sum_identity_check,
    pair_differences,
    pair_labels,
    pure_overlaps,
    pure_state,
    purity,
    trace_distance,
    trace_norm,
)
from dimwitness.linalg import UNIT_NORM_TOL
from dimwitness.quantum import _uncertified_spectra

SQRT3_HALF = np.sqrt(3) / 2


def basis_state(dim: int, level: int) -> DensityMatrix:
    amps = np.zeros(dim, dtype=complex)
    amps[level] = 1.0
    return pure_state(amps)


def witness(ensemble: Ensemble, x: int) -> StateVector:
    """The amplitude vector of state x (0-based) of a pure ensemble."""
    return StateVector(ensemble.vectors()[x])


def overlap_half_pair():
    rho = basis_state(2, 0)
    sigma = pure_state([0.5, SQRT3_HALF])
    return rho, sigma


class TestValidation:
    def test_state_vector_needs_unit_norm(self):
        with pytest.raises(BadArgument):
            StateVector(np.array([1.0, 1.0]))

    def test_density_needs_unit_trace(self):
        with pytest.raises(BadArgument):
            DensityMatrix(np.eye(2))

    def test_density_needs_positivity(self):
        with pytest.raises(BadArgument):
            DensityMatrix(np.diag([1.5, -0.5]))


class TestBatchedEnsemble:
    """``from_vectors``/``from_matrices`` against the per-state objects and their checks."""

    def vectors(self):
        rng = np.random.default_rng(31)
        return np.stack([random_state_vector(rng, 3) for _ in range(4)])

    def matrices(self):
        rng = np.random.default_rng(32)
        return np.stack([random_density(rng, 3).matrix for _ in range(4)])

    def test_batched_stacks_equal_per_state_ones(self):
        vecs, mats = self.vectors(), self.matrices()
        pure = Ensemble.from_vectors(vecs)
        assert pure.vectors().tobytes() == np.stack([StateVector(v).amplitudes for v in vecs]).tobytes()
        assert pure.matrices().tobytes() == np.stack([pure_state(v).matrix for v in vecs]).tobytes()
        mixed = Ensemble.from_matrices(mats)
        assert mixed.matrices().tobytes() == np.stack([DensityMatrix(m).matrix for m in mats]).tobytes()

    def test_states_are_built_from_the_stacks(self):
        pure = Ensemble.from_vectors(self.vectors())
        for m, v in zip(pure.matrices(), pure.vectors()):
            assert np.max(np.abs(m - np.outer(v, v.conj()))) <= 1e-8
        mixed = Ensemble.from_matrices(self.matrices())
        assert not mixed.pure
        with pytest.raises(NotPure):
            mixed.vectors()

    @pytest.mark.parametrize("sign", [-1, 1])
    @pytest.mark.parametrize("d", [1, 2, 3, 7, 30])
    def test_vectors_at_the_norm_tolerance_give_valid_matrices(self, sign, d):
        # from_vectors runs no density check: a norm within UNIT_NORM_TOL implies it passes
        rng = np.random.default_rng(d)
        vecs = np.stack([random_state_vector(rng, d) for _ in range(6)]) * (1 + sign * 0.99 * UNIT_NORM_TOL)
        pure = Ensemble.from_vectors(vecs)
        assert Ensemble.from_matrices(pure.matrices()).matrices().tobytes() == pure.matrices().tobytes()

    def test_a_pure_ensemble_keeps_only_its_vectors(self):
        # the (1000, 100) vectors take 1.6 MB; their matrices would take 160 MB
        kept = []
        assert retained_bytes(lambda: kept.append(fourier_ensemble(1000, 100))) <= 2 * 10**6

    def test_constructors_are_the_only_way_in(self):
        with pytest.raises(TypeError, match="from_vectors or Ensemble.from_matrices"):
            Ensemble([pure_state([1.0, 0.0])])

    @pytest.mark.parametrize("build", ["vectors", "matrices"])
    def test_stacks_are_read_only(self, build):
        vecs = self.vectors()
        ensemble = {
            "vectors": lambda: Ensemble.from_vectors(vecs),
            "matrices": lambda: Ensemble.from_matrices(self.matrices()),
        }[build]()
        stacks = [ensemble.matrices()] + ([ensemble.vectors()] if ensemble.pure else [])
        for stack in stacks:
            assert not stack.flags.writeable
            with pytest.raises(ValueError):
                stack[0, 0] = 0.0

    def test_from_vectors_copies_its_input(self):
        vecs = self.vectors()
        ensemble = Ensemble.from_vectors(vecs)
        vecs[0] = 0.0
        assert np.linalg.norm(ensemble.vectors()[0]) == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", ["non-unit", "nan", "inf", "overflow"])
    def test_from_vectors_names_the_bad_state(self, bad):
        vecs = self.vectors()
        vecs[2] = {"non-unit": 1.1 * vecs[2], "nan": [np.nan, 0, 0], "inf": [np.inf, 0, 0],
                   "overflow": [1e200, 0, 0]}[bad]
        with pytest.raises(BadArgument) as single:
            pure_state(vecs[2])
        with pytest.raises(BadArgument) as batched:
            Ensemble.from_vectors(vecs)
        assert str(batched.value) == f"states[2]: {single.value}"

    @pytest.mark.parametrize("bad", ["nan", "non-hermitian", "negative", "trace"])
    def test_from_matrices_names_the_bad_state(self, bad):
        mats = self.matrices()
        if bad == "nan":
            mats[1, 0, 0] = np.nan
        elif bad == "non-hermitian":
            mats[1, 0, 1] += 1e-3
        elif bad == "negative":
            mats[1] = np.diag([1.5, -0.5, 0.0])
        else:
            mats[1] *= 1.01
        with pytest.raises(DimWitnessError) as single:
            DensityMatrix(mats[1])
        with pytest.raises(type(single.value)) as batched:
            Ensemble.from_matrices(mats)
        assert str(batched.value) == f"density_matrices[1]: {single.value}"

    @pytest.mark.parametrize("shape", [(0, 2), (3,), (2, 2, 2)])
    def test_from_vectors_needs_an_n_by_d_stack(self, shape):
        with pytest.raises(BadArgument):
            Ensemble.from_vectors(np.ones(shape))

    @pytest.mark.parametrize("shape", [(0, 2, 2), (2, 2), (2, 2, 3)])
    def test_from_matrices_needs_an_n_by_d_by_d_stack(self, shape):
        with pytest.raises(DimWitnessError) as err:
            Ensemble.from_matrices(np.ones(shape))
        assert "<function" not in str(err.value)

    def test_from_vectors_refuses_ragged_input(self):
        with pytest.raises(BadArgument, match="ragged input whose members differ in shape$"):
            Ensemble.from_vectors([[1, 0], [1, 0, 0]])

    def test_from_matrices_refuses_ragged_input(self):
        with pytest.raises(BadArgument, match="ragged input whose members differ in shape$"):
            Ensemble.from_matrices([np.eye(2) / 2, np.eye(3) / 3])

    def test_constructors_refuse_entries_that_are_not_numbers(self):
        with pytest.raises(BadArgument, match="not numbers$"):
            Ensemble.from_vectors([["up", 0]])
        with pytest.raises(BadArgument, match="not numbers$"):
            Ensemble.from_matrices([[[{}, 0], [0, 1]]])

    @pytest.mark.parametrize(
        "build, data, message",
        [
            (Effect, [[1, 0], [0]], "effect must be a square matrix of numbers"),
            (DensityMatrix, [[1, 0], [0]], "density matrix must be a square matrix of numbers"),
            (trace_norm, [[1, 0], [0]], "matrix must be a square matrix of numbers"),
            (StateVector, [1, [0]], "amplitudes must be a nonempty 1-D array"),
            (pure_state, [1, [0]], "amplitudes must be a nonempty 1-D array"),
        ],
        ids=["Effect", "DensityMatrix", "trace_norm", "StateVector", "pure_state"],
    )
    def test_single_objects_refuse_ragged_input(self, build, data, message):
        with pytest.raises(BadArgument) as err:
            build(data)
        assert str(err.value) == f"{message}, got a ragged input whose members differ in shape"

    @pytest.mark.parametrize(
        "build, name",
        [(DensityMatrix, "density matrix"), (Effect, "effect"), (trace_norm, "matrix")],
        ids=["DensityMatrix", "Effect", "trace_norm"],
    )
    @pytest.mark.parametrize(
        "data", [np.stack([np.eye(2) / 2] * 3), np.full(2, 0.5), 0.5], ids=["stack", "vector", "scalar"]
    )
    def test_single_objects_take_one_matrix(self, build, name, data):
        # a stack of three states is no state: taken as one it would claim dim 3 and trace norm 3
        with pytest.raises(BadArgument) as err:
            build(data)
        assert str(err.value) == f"{name} must be one square matrix, got shape {np.shape(data)}"

    @pytest.mark.parametrize("build, data", [(Effect, [[{}, 0], [0, 1]]), (StateVector, ["up", 0])], ids=["Effect", "StateVector"])
    def test_single_objects_refuse_entries_that_are_not_numbers(self, build, data):
        with pytest.raises(BadArgument, match="not numbers$"):
            build(data)


class TestTraceDistance:
    def test_identical_states(self):
        rho = random_pure(np.random.default_rng(0), 3)
        assert trace_distance(rho, rho) <= 1e-10

    def test_orthogonal_pure_states(self):
        assert trace_distance(basis_state(2, 0), basis_state(2, 1)) == pytest.approx(1.0, abs=1e-12)

    def test_overlap_half(self):
        rho, sigma = overlap_half_pair()
        assert trace_distance(rho, sigma) == pytest.approx(SQRT3_HALF, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            trace_distance(basis_state(2, 0), basis_state(3, 0))


class TestFidelityPure:
    def test_self(self):
        psi = StateVector(random_state_vector(np.random.default_rng(1), 4))
        assert fidelity_pure(psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        psi, phi = StateVector(np.array([1.0, 0.0])), StateVector(np.array([0.0, 1.0]))
        assert fidelity_pure(psi, phi) == 0.0

    def test_fourier_overlap_is_inverse_dimension(self):
        for d in (2, 3, 4, 5):
            ensemble = fourier_ensemble(d + 1, d)
            for x in range(ensemble.N):
                for xp in range(x):
                    f = fidelity_pure(witness(ensemble, x), witness(ensemble, xp))
                    assert f == pytest.approx(1.0 / d, abs=1e-10)


class TestHelstrom:
    def test_identical_states_zero_effect(self):
        rho = random_pure(np.random.default_rng(2), 3)
        effect = helstrom_effect(rho, rho)
        assert np.max(np.abs(effect.matrix)) <= 1e-10

    def test_orthogonal_pair(self):
        rho, sigma = basis_state(2, 0), basis_state(2, 1)
        effect = helstrom_effect(rho, sigma)
        assert np.allclose(effect.matrix, rho.matrix, atol=1e-8)
        value = np.trace((rho.matrix - sigma.matrix) @ effect.matrix).real
        assert value == pytest.approx(1.0, abs=1e-10)

    def test_overlap_half_matches_trace_distance(self):
        rho, sigma = overlap_half_pair()
        effect = helstrom_effect(rho, sigma)
        value = np.trace((rho.matrix - sigma.matrix) @ effect.matrix).real
        assert value == pytest.approx(trace_distance(rho, sigma), abs=1e-8)

    def test_measurement_set_covers_all_pairs(self):
        ensemble = fourier_ensemble(5, 3)
        ms = helstrom_measurements(ensemble)
        assert ms.N == 5 and ms.stack.shape == (10, 3, 3)


def _pure_cases():
    rng = np.random.default_rng(41)
    haar = np.stack([random_state_vector(rng, 3) for _ in range(8)])
    repeated = haar.copy()
    repeated[3], repeated[5], repeated[6] = repeated[0], repeated[0], np.exp(0.7j) * repeated[1]
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, (5, 1)))
    # every norm at 0.99 of the tolerance, alternately above and below 1
    near_unit = haar * (1 + 0.99 * UNIT_NORM_TOL * (-1.0) ** np.arange(8))[:, None]
    return {"haar": haar, "repeated": repeated, "d1": phases, "near-unit": near_unit}


def _mixed_cases():
    rng = np.random.default_rng(42)
    full = np.stack([random_density(rng, 3).matrix for _ in range(6)])
    # rank 1 and rank 2 states in d = 4, and a pure state given as a matrix
    deficient = np.stack([random_projector(rng, 4, 1 + x % 2) / (1 + x % 2) for x in range(6)])
    identical = full.copy()
    identical[2], identical[4] = identical[0], identical[0]
    return {"full-rank": full, "rank-deficient": deficient, "identical": identical}


class TestHelstromDifferences:
    """The pair differences without effects equal the effect route and the trace distances."""

    @staticmethod
    def effect_route(ensemble):
        return pair_differences(born_table(ensemble, helstrom_measurements(ensemble)))

    @staticmethod
    def trace_distances(ensemble):
        rhos = [DensityMatrix(m) for m in ensemble.matrices()]
        return np.array([trace_distance(rhos[x - 1], rhos[xp - 1]) for x, xp in pair_labels(ensemble.N)])

    def assert_routes_agree(self, ensemble, atol=1e-12):
        differences = helstrom_differences(ensemble)
        assert differences.shape == (ensemble.N * (ensemble.N - 1) // 2,)
        assert np.max(np.abs(differences - self.effect_route(ensemble))) <= atol
        assert np.max(np.abs(differences - self.trace_distances(ensemble))) <= atol
        return differences

    @pytest.mark.parametrize("case", ["haar", "repeated", "d1"])
    def test_pure(self, case):
        differences = self.assert_routes_agree(Ensemble.from_vectors(_pure_cases()[case]))
        if case == "repeated":
            # pairs (4,1), (6,1), (6,4) and (7,2) hold one state twice
            labels = pair_labels(8)
            zeros = {labels[y] for y in np.flatnonzero(differences == 0.0)}
            assert zeros == {(4, 1), (6, 1), (6, 4), (7, 2)}
        if case == "d1":
            assert np.all(differences == 0.0)

    def test_pure_vectors_unit_only_within_tolerance(self):
        vecs = _pure_cases()["near-unit"]
        unit = Ensemble.from_vectors(vecs / np.linalg.norm(vecs, axis=1, keepdims=True))
        differences = helstrom_differences(Ensemble.from_vectors(vecs))
        # the differences are those of the renormalized states
        assert np.max(np.abs(differences - self.assert_routes_agree(unit))) <= 1e-15
        # the other routes take the outer products as given, off by at most the norm slack
        self.assert_routes_agree(Ensemble.from_vectors(vecs), atol=2 * UNIT_NORM_TOL + 1e-12)

    @pytest.mark.parametrize("case", ["full-rank", "rank-deficient", "identical"])
    def test_mixed(self, case):
        differences = self.assert_routes_agree(Ensemble.from_matrices(_mixed_cases()[case]))
        if case == "identical":
            labels = pair_labels(6)
            zeros = {labels[y] for y in np.flatnonzero(differences == 0.0)}
            assert zeros == {(3, 1), (5, 1), (5, 3)}

    def test_needs_two_preparations(self):
        with pytest.raises(BadArgument, match="at least two preparations"):
            helstrom_differences(fourier_ensemble(1, 1))


class TestFourierEnsemble:
    def test_full_dimension_is_orthogonal(self):
        ensemble = fourier_ensemble(3, 3)
        vectors = ensemble.vectors()
        # independent check: direct inner products
        for x in range(3):
            for xp in range(x):
                inner = sum(vectors[x][k].conjugate() * vectors[xp][k] for k in range(3))
                assert abs(inner) <= 1e-10

    def test_qubit_triple_has_half_overlaps(self):
        ensemble = fourier_ensemble(3, 2)
        for x in range(3):
            for xp in range(x):
                f = fidelity_pure(witness(ensemble, x), witness(ensemble, xp))
                assert f == pytest.approx(0.5, abs=1e-10)

    def test_uniform_mixture_is_maximally_mixed(self):
        omega = average_state(fourier_ensemble(7, 2))
        assert np.max(np.abs(omega.matrix - np.eye(2) / 2)) <= 1e-10

    def test_rejects_bad_dimension(self):
        with pytest.raises(BadArgument):
            fourier_ensemble(3, 4)
        with pytest.raises(BadArgument):
            fourier_ensemble(3, 0)


class TestAverageAndPurity:
    def test_single_state(self):
        vec = random_state_vector(np.random.default_rng(3), 3)
        assert np.allclose(average_state(Ensemble.from_vectors(vec[None])).matrix, pure_state(vec).matrix)

    def test_two_orthogonal_states(self):
        omega = average_state(Ensemble.from_vectors(np.eye(2)))
        assert np.allclose(omega.matrix, np.eye(2) / 2)

    def test_fourier_average_is_identity_over_d(self):
        omega = average_state(fourier_ensemble(5, 3))
        # independent accumulation
        direct = np.zeros((3, 3), dtype=complex)
        for v in fourier_ensemble(5, 3).vectors():
            direct += np.outer(v, v.conj()) / 5
        assert np.max(np.abs(omega.matrix - direct)) <= 1e-12
        assert np.max(np.abs(omega.matrix - np.eye(3) / 3)) <= 1e-10

    def test_purity_of_pure_state(self):
        assert purity(random_pure(np.random.default_rng(4), 4)) == pytest.approx(1.0, abs=1e-10)

    def test_purity_of_maximally_mixed(self):
        assert purity(DensityMatrix(np.eye(4) / 4)) == pytest.approx(0.25, abs=1e-12)

    def test_purity_of_fourier_average(self):
        assert purity(average_state(fourier_ensemble(7, 4))) == pytest.approx(0.25, abs=1e-9)

    def test_purity_floor_met_with_equality_on_fourier_grid(self):
        for n in range(1, 11):
            for d in range(1, n + 1):
                value = purity(average_state(fourier_ensemble(n, d)))
                assert abs(value - 1.0 / d) <= 1e-9, (n, d)


class TestOverlapSumIdentity:
    def test_orthonormal_basis(self):
        ensemble = Ensemble.from_vectors(np.eye(4))
        lhs, rhs = overlap_sum_identity_check(ensemble)
        assert lhs == pytest.approx(0.0, abs=1e-10)
        assert rhs == pytest.approx(0.0, abs=1e-10)

    def test_identical_states(self):
        n = 5
        ensemble = Ensemble.from_vectors(np.tile(np.eye(3)[0], (n, 1)))
        lhs, rhs = overlap_sum_identity_check(ensemble)
        assert lhs == pytest.approx(n * (n - 1) / 2, abs=1e-10)
        assert rhs == pytest.approx(n * n / 2 - n / 2, abs=1e-10)

    def test_fourier_ensemble(self):
        lhs, rhs = overlap_sum_identity_check(fourier_ensemble(6, 3))
        assert abs(lhs - rhs) <= 1e-8

    def test_requires_pure_states(self):
        mixed = Ensemble.from_matrices([np.eye(2) / 2, np.diag([1.0, 0.0])])
        with pytest.raises(NotPure):
            overlap_sum_identity_check(mixed)


def test_pure_overlaps_matches_fidelity():
    ensemble = random_pure_ensemble(np.random.default_rng(6), 4, 3)
    overlaps = pure_overlaps(ensemble)
    for x in range(4):
        for xp in range(4):
            f = fidelity_pure(witness(ensemble, x), witness(ensemble, xp))
            assert overlaps[x, xp] == pytest.approx(f * f, abs=1e-12)


class TestSpectrumCertificate:
    """The idempotency certificate decides every effect and state as a plain ``eigvalsh`` would."""

    TOL = 1e-9

    @staticmethod
    def hermitian_noise(rng, dim, norm):
        h = random_hermitian(rng, dim)
        return norm * h / np.linalg.norm(h)

    def effect_cases(self, rng, dim):
        cases = []
        for _ in range(8):
            p = random_projector(rng, dim, int(rng.integers(0, dim + 1)))
            cases += [p + self.hermitian_noise(rng, dim, eps) for eps in np.logspace(-11, -7, 9)]
        for _ in range(6):
            p = random_projector(rng, dim, int(rng.integers(1, dim + 1)))
            cases += [(1 + 2e-9) * p, (1 - 2e-9) * p]
        for _ in range(6):
            # spectrum strictly inside (0, 1) in a random eigenbasis
            q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
            cases.append((q * rng.uniform(0.05, 0.95, dim)) @ q.conj().T)
        return cases

    def state_cases(self, rng, dim):
        cases = []
        for _ in range(6):
            rho = random_pure(rng, dim).matrix
            cases += [rho + self.hermitian_noise(rng, dim, eps) for eps in np.logspace(-11, -7, 9)]
            cases += [(1 + 2e-9) * rho, (1 - 2e-9) * rho]
        cases += [random_density(rng, dim).matrix for _ in range(6)]
        return cases

    def plain_effect_error(self, m):
        values = np.linalg.eigvalsh((m + m.conj().T) / 2)
        if values[0] < -self.TOL or values[-1] > 1 + self.TOL:
            return f"effect spectrum [{values[0]:.3e}, {values[-1]:.3e}] leaves [0, 1]"
        return None

    def plain_state_error(self, m):
        h = (m + m.conj().T) / 2
        lowest = np.linalg.eigvalsh(h)[0]
        if lowest < -self.TOL:
            return f"density matrix has negative eigenvalue {lowest:.3e}"
        deviation = abs(np.trace(h).real - 1.0)
        if deviation > self.TOL:
            return f"density matrix trace deviates from 1 by {deviation:.3e}"
        return None

    @staticmethod
    def error(build, arg):
        try:
            build(arg)
        except BadArgument as exc:
            return str(exc)
        return None

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_effects_agree_with_eigvalsh(self, dim):
        cases = self.effect_cases(np.random.default_rng(100 + dim), dim)
        expected = [self.plain_effect_error(m) for m in cases]
        assert [self.error(Effect, m) for m in cases] == expected
        # both outcomes occur, and the (1 + 2e-9)-scaled projectors are refused
        assert None in expected and any(expected)
        scaled_up = slice(8 * 9, 8 * 9 + 12, 2)  # after the 8 x 9 noisy projectors
        assert all(expected[scaled_up])
        labels = pair_labels(4)
        for start in range(0, len(cases), 6):
            refused = [k for k in range(6) if expected[start + k]]
            got = self.error(PairMeasurementSet, np.stack(cases[start : start + 6]))
            if not refused:
                assert got is None
            else:
                k = refused[0]
                assert got == expected[start + k].replace("effect", f"effect {labels[k]}", 1)

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_states_agree_with_eigvalsh(self, dim):
        cases = self.state_cases(np.random.default_rng(200 + dim), dim)
        expected = [self.plain_state_error(m) for m in cases]
        assert [self.error(DensityMatrix, m) for m in cases] == expected
        assert None in expected and any(expected)
        for start in range(0, len(cases), 6):
            chunk = expected[start : start + 6]
            # a stack is checked for positivity in full before its traces
            refused = [k for k, e in enumerate(chunk) if e and "negative" in e] or [k for k, e in enumerate(chunk) if e]
            got = self.error(Ensemble.from_matrices, np.stack(cases[start : start + 6]))
            assert got == (f"density_matrices[{refused[0]}]: {chunk[refused[0]]}" if refused else None)

    def test_only_members_off_the_certificate_are_solved(self):
        rng = np.random.default_rng(7)
        near = random_projector(rng, 3, 2) + self.hermitian_noise(rng, 3, 1e-10)
        far = random_projector(rng, 3, 1) + self.hermitian_noise(rng, 3, 1e-8)
        stack = np.stack([near, random_density(rng, 3).matrix, np.zeros((3, 3)), far])
        stack = (stack + stack.conj().swapaxes(1, 2)) / 2
        solved, eigenvalues = _uncertified_spectra(stack)
        assert solved.tolist() == [1, 3]
        assert np.array_equal(eigenvalues, np.linalg.eigvalsh(stack[[1, 3]]))
