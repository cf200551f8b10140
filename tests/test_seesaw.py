import math
from dataclasses import replace

import numpy as np
import pytest

from dimwitness import (
    BadArgument,
    NonMonotonic,
    SeesawConfig,
    WitnessKind,
    born_table,
    evaluate,
    optimize,
    pure_overlaps,
    quantum_bound,
    verify_table2,
)
from dimwitness import kernels

Q, L = WitnessKind.QUADRATIC, WitnessKind.LINEAR


class TestConfigValidation:
    def test_guessing_not_supported(self):
        with pytest.raises(BadArgument):
            SeesawConfig(WitnessKind.GUESSING, 3, 2)

    def test_dimension_window(self):
        with pytest.raises(BadArgument):
            SeesawConfig(L, 3, 1)
        with pytest.raises(BadArgument):
            SeesawConfig(L, 3, 4)

    def test_positive_knobs(self):
        with pytest.raises(BadArgument):
            SeesawConfig(L, 3, 2, restarts=0)
        with pytest.raises(BadArgument):
            SeesawConfig(L, 3, 2, improvement_tol=0.0)
        with pytest.raises(BadArgument):
            SeesawConfig(L, 3, 2, seed=-1)

    @pytest.mark.parametrize("seed", [1.5, 1.0, True, 2**64, math.inf, "1"])
    def test_seed_must_be_a_64_bit_unsigned_integer(self, seed):
        with pytest.raises(BadArgument):
            SeesawConfig(L, 3, 2, seed=seed)

    def test_integer_seeds_up_to_uint64_max_are_kept_as_int(self):
        assert SeesawConfig(L, 3, 2, seed=2**64 - 1).seed == 2**64 - 1
        seed = SeesawConfig(L, 3, 2, seed=np.uint64(7)).seed
        assert seed == 7 and type(seed) is int


class TestQuadraticSeesaw:
    def test_orthogonal_states_suffice_at_full_dimension(self):
        result = optimize(SeesawConfig(Q, 4, 4))
        assert abs(result.best_value - 6.0) <= 1e-6

    def test_reference_attainment_seven_three(self):
        result = optimize(SeesawConfig(Q, 7, 3))
        assert abs(result.best_value - 49 / 3) <= 1e-4

    def test_reported_model_reproduces_value(self):
        result = optimize(SeesawConfig(Q, 5, 3, restarts=5))
        table = born_table(result.ensemble, result.measurements)
        assert evaluate(Q, table) == pytest.approx(result.best_value, abs=1e-9)


class TestLinearSeesaw:
    def test_small_tight_case(self):
        result = optimize(SeesawConfig(L, 4, 2))
        assert quantum_bound(L, 4, 2) - result.best_value <= 1e-3

    def test_recovers_analytic_optimum_next_to_full_dimension(self):
        for d in (2, 3, 4, 5):
            result = optimize(SeesawConfig(L, d + 1, d))
            expected = (d + 1) * math.sqrt(d * d - 1) / 2
            assert abs(result.best_value - expected) <= 1e-4, d


class TestResultStructure:
    def test_best_is_max_of_restarts_and_ceiling_respected(self):
        result = optimize(SeesawConfig(L, 5, 3, restarts=8))
        assert result.best_value == max(result.restart_values)
        assert result.best_value <= quantum_bound(L, 5, 3) + 1e-6
        assert len(result.restart_values) == 8
        assert result.ensemble.N == 5 and result.measurements.N == 5

    def test_reproducible_restart_values(self):
        a = optimize(SeesawConfig(L, 3, 2, restarts=6, seed=9))
        b = optimize(SeesawConfig(L, 3, 2, restarts=6, seed=9))
        assert a.restart_values == b.restart_values
        c = optimize(SeesawConfig(L, 3, 2, restarts=6, seed=10))
        assert a.restart_values != c.restart_values

    @pytest.mark.parametrize("kind", [L, Q])
    def test_restart_results_do_not_depend_on_batch(self, kind):
        cfg = SeesawConfig(kind, 4, 2, restarts=20)
        few, many = optimize(replace(cfg, restarts=3)), optimize(cfg)
        assert few.restart_values == many.restart_values[:3]
        assert few.restart_sweeps == many.restart_sweeps[:3]

    def test_restart_records(self):
        slow = optimize(SeesawConfig(L, 7, 4, seed=1))
        assert slow.restart_sweeps == (500,) * 20
        assert slow.restart_stops == ("max_iters",) * 20
        fast = optimize(SeesawConfig(L, 3, 2, seed=1))
        assert "max_iters" not in fast.restart_stops
        assert all(0 < k < 500 for k in fast.restart_sweeps)
        for result in (slow, fast):
            assert sum(result.restart_sweeps) == result.iterations_used

    def test_decreasing_state_step_names_its_restart(self, monkeypatch):
        # negated operators make the state step pick the worst eigenvector
        pair_sums = kernels.pair_sums
        monkeypatch.setattr(kernels, "pair_sums", lambda *args: -pair_sums(*args))
        with pytest.raises(NonMonotonic, match=r"^restart 0: state step"):
            optimize(SeesawConfig(L, 4, 2, restarts=3))

    def test_states_carry_pure_witnesses(self):
        result = optimize(SeesawConfig(L, 4, 2, restarts=3))
        assert all(s.vector is not None for s in result.ensemble.states)


class TestVerifyTable2:
    def test_smallest_case(self):
        entries = verify_table2(3)
        assert len(entries) == 1
        entry = entries[0]
        assert (entry.N, entry.d) == (3, 2)
        assert entry.attained and entry.gap <= 1e-3

    def test_up_to_five(self):
        entries = verify_table2(5)
        assert [(e.N, e.d) for e in entries] == [(3, 2), (4, 2), (4, 3), (5, 4)]
        assert all(e.attained for e in entries)

    def test_nmax_window(self):
        with pytest.raises(BadArgument):
            verify_table2(2)
        with pytest.raises(BadArgument):
            verify_table2(11)


def test_state_overlap_probe_at_four_preparations_two_dimensions(capsys):
    # Report-only probe: converged optimal qubit models at N = 4 tend toward
    # symmetric constellations; print the squared-overlap matrix for the record.
    result = optimize(SeesawConfig(L, 4, 2))
    overlaps = pure_overlaps(result.ensemble)
    off_diagonal = overlaps[~np.eye(4, dtype=bool)]
    print("converged |<psi_x|psi_x'>|^2 at (N=4, d=2):")
    print(np.array_str(overlaps, precision=4, suppress_small=True))
    print(f"off-diagonal mean {off_diagonal.mean():.4f} (symmetric constellation -> 1/3)")
    assert overlaps.shape == (4, 4)
