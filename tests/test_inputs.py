"""Non-finite, non-integer and boolean input ends in a typed error, and tables
keep their empirical flag."""

import json
import math

import numpy as np
import pytest

from dimwitness import (
    BadArgument,
    DensityMatrix,
    Effect,
    FileFormatError,
    ProbabilityTable,
    SeesawConfig,
    ShapeMismatch,
    StateVector,
    WitnessKind,
    balanced_partition_value,
    bound_report,
    certify_dimension,
    classical_bound,
    depolarize,
    enumerate_max,
    fourier_ensemble,
    helstrom_measurements,
    pure_state,
    quantum_bound,
    verify_table2,
)
from dimwitness.cli import main
from dimwitness.files import load_seesaw_dump, load_table, save_table
from dimwitness.simulate import NoiseModel, noisy_table


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNonFiniteConstruction:
    def test_table_rejects_nan(self):
        p = np.full((2, 1, 2), 0.5)
        p[1, 0, 0] = np.nan
        with pytest.raises(ShapeMismatch):
            ProbabilityTable(p)

    def test_density_matrix_rejects_nan(self):
        with pytest.raises(BadArgument):
            DensityMatrix(np.array([[1.0, np.nan], [np.nan, 0.0]]))

    def test_effect_rejects_nan(self):
        with pytest.raises(BadArgument):
            Effect(np.array([[np.nan, 0.0], [0.0, 0.5]]))

    def test_state_vector_rejects_nan(self):
        with pytest.raises(BadArgument):
            StateVector(np.array([1.0, np.nan]))

    def test_certify_rejects_nan_value(self):
        with pytest.raises(BadArgument):
            certify_dimension(WitnessKind.QUADRATIC, 5, math.nan)

    def test_noise_model_rejects_nan_shots(self):
        with pytest.raises(BadArgument):
            NoiseModel(shots=math.nan)


class TestNonFiniteFiles:
    def test_non_numeric_amplitude_exits_2(self, capsys, tmp_path):
        path = tmp_path / "e.json"
        path.write_text('{"dim": 2, "states": [[[1.0, 0.0], ["abc", 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}')
        code, _, err = run(capsys, "evaluate", "--witness", "quadratic", "--ensemble", str(path), "--helstrom")
        assert code == 2
        assert "states[0][1]" in err

    def test_nan_amplitude_exits_2(self, capsys, tmp_path):
        path = tmp_path / "e.json"
        path.write_text('{"dim": 2, "states": [[[NaN, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}')
        code, _, err = run(capsys, "evaluate", "--witness", "quadratic", "--ensemble", str(path), "--helstrom")
        assert code == 2
        assert "finite" in err

    def test_nan_table_entry_exits_2(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        path.write_text('{"witness": "quadratic", "N": 2, "m": 1, "k": 2, "p": [[[NaN, 0.5]], [[0.5, 0.5]]]}')
        code, out, err = run(capsys, "evaluate", "--witness", "quadratic", "--table", str(path))
        assert code == 2
        assert out == "" and "finite" in err


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_tightness_grid_rejects_bad_tol(capsys, tol):
    code, out, err = run(capsys, "reproduce", "--table", "2", "--nmax", "3", "--tol", tol)
    assert code == 2
    assert out == "" and "tol" in err


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_seesaw_rejects_bad_tol(capsys, tol):
    code, out, err = run(capsys, "seesaw", "--witness", "linear", "--N", "4", "--d", "2", "--tol", tol)
    assert code == 2
    assert out == "" and "improvement_tol" in err


class TestEmpiricalFlag:
    def test_noisy_table_round_trip_through_cli(self, capsys, tmp_path):
        path = tmp_path / "noisy.json"
        ensemble = fourier_ensemble(6, 2)
        table = noisy_table(ensemble, helstrom_measurements(ensemble), NoiseModel(0.1, 1000), seed=3)
        assert table.empirical
        save_table(table, WitnessKind.QUADRATIC, path)
        code, out, _ = run(capsys, "evaluate", "--witness", "quadratic", "--table", str(path), "--json")
        assert code == 0 and json.loads(out)["empirical"] is True
        code, out, _ = run(capsys, "evaluate", "--witness", "quadratic", "--table", str(path))
        assert code == 0 and "note: table holds empirical frequencies" in out

    def test_missing_key_loads_as_exact(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text('{"witness": "quadratic", "N": 2, "m": 1, "k": 2, "p": [[[1.0, 0.0]], [[0.0, 1.0]]]}')
        table, _ = load_table(path)
        assert table.empirical is False

    def test_non_boolean_flag_rejected(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text('{"witness": "quadratic", "N": 2, "m": 1, "k": 2, '
                        '"p": [[[1.0, 0.0]], [[0.0, 1.0]]], "empirical": "yes"}')
        with pytest.raises(FileFormatError):
            load_table(path)


# (N, d) pairs that are in range but not integers
NON_INTEGER_SIZES = [(5, 2.5), (5.0, 3), (5, 3.0), (7, True), (np.float64(6.0), 2), ("5", 2), (5, "2")]


class TestIntegerArguments:
    """Every API edge refuses floats and bools where it needs an integer."""

    @pytest.mark.parametrize(
        "name, value",
        [
            ("N", 3.0), ("d", 2.0), ("restarts", 2.5), ("max_iters", 3.5), ("restarts", True), ("max_iters", True),
            ("N", "3"), ("d", "2"), ("restarts", "2"), ("max_iters", "3"),
        ],
    )
    def test_seesaw_config(self, name, value):
        with pytest.raises(BadArgument, match=name):
            SeesawConfig(**{"witness": WitnessKind.LINEAR, "N": 3, "d": 2, name: value})

    @pytest.mark.parametrize("n, d", [(4, 2.0), (4.0, 2), (True, 1), (4, True), ("4", 2), (4, "2")])
    def test_fourier_ensemble(self, n, d):
        with pytest.raises(BadArgument):
            fourier_ensemble(n, d)

    @pytest.mark.parametrize("n_max", [3.5, 3.0, np.float64(4.0), "5"])
    def test_verify_table2(self, n_max):
        with pytest.raises(BadArgument, match="n_max"):
            verify_table2(n_max)

    @pytest.mark.parametrize("kind", list(WitnessKind))
    @pytest.mark.parametrize("n, d", NON_INTEGER_SIZES)
    def test_quantum_bound(self, kind, n, d):
        with pytest.raises(BadArgument):
            quantum_bound(kind, n, d)

    @pytest.mark.parametrize("kind", list(WitnessKind))
    @pytest.mark.parametrize("n, d", NON_INTEGER_SIZES)
    def test_classical_bound(self, kind, n, d):
        with pytest.raises(BadArgument):
            classical_bound(kind, n, d)

    @pytest.mark.parametrize("kind", list(WitnessKind))
    @pytest.mark.parametrize("n, d", NON_INTEGER_SIZES)
    def test_bound_report(self, kind, n, d):
        with pytest.raises(BadArgument):
            bound_report(kind, n, d)

    @pytest.mark.parametrize("kind", list(WitnessKind))
    @pytest.mark.parametrize("n, d", NON_INTEGER_SIZES)
    def test_enumerate_max(self, kind, n, d):
        with pytest.raises(BadArgument):
            enumerate_max(kind, n, d)

    @pytest.mark.parametrize("n, d", NON_INTEGER_SIZES)
    def test_balanced_partition_value(self, n, d):
        with pytest.raises(BadArgument):
            balanced_partition_value(n, d)

    @pytest.mark.parametrize("kind", list(WitnessKind))
    @pytest.mark.parametrize("n", [5.0, np.float64(4.0), 3.5, "5"])
    def test_certify_dimension(self, kind, n):
        with pytest.raises(BadArgument):
            certify_dimension(kind, n, 0.5)

    @pytest.mark.parametrize("value", ["0.5", True, None, math.inf])
    def test_certify_dimension_value(self, value):
        with pytest.raises(BadArgument, match="witness value"):
            certify_dimension(WitnessKind.QUADRATIC, 5, value)

    @pytest.mark.parametrize("eta", [True, False, "0.5", None, 1.5, -0.1, math.nan])
    def test_noise_model_eta(self, eta):
        with pytest.raises(BadArgument, match="depolarizing_eta"):
            NoiseModel(depolarizing_eta=eta)

    @pytest.mark.parametrize("eta", [True, False, "0.5", None, 1.5, -0.1, math.nan])
    def test_depolarize_eta(self, eta):
        with pytest.raises(BadArgument, match="eta"):
            depolarize(pure_state([1.0, 0.0]), eta)

    def test_integral_values_are_kept_as_int(self):
        report = bound_report(WitnessKind.QUADRATIC, np.int64(7), np.int32(3))
        assert (report.N, report.d) == (7, 3) and type(report.d) is int
        assert quantum_bound(WitnessKind.LINEAR, np.int64(5), np.int64(2)) == quantum_bound(WitnessKind.LINEAR, 5, 2)
        assert type(SeesawConfig(WitnessKind.LINEAR, np.int64(3), 2).N) is int
        assert NoiseModel(np.float64(0.25)).depolarizing_eta == 0.25

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("bounds", "--witness", "linear", "--N", "1", "--d", "2"), "need at least 2 preparations, got 1"),
            (("bounds", "--witness", "linear", "--N", "3", "--d", "0"), "dimension must be positive, got 0"),
            (("classical", "--witness", "linear", "--N", "1", "--d", "2"), "need at least 2 preparations, got 1"),
            (("reproduce", "--table", "2", "--nmax", "2"), "n_max must lie in 3..10, got 2"),
            (("seesaw", "--witness", "linear", "--N", "3", "--d", "2", "--restarts", "0"), "restarts must be at least 1"),
            (("seesaw", "--witness", "linear", "--N", "3", "--d", "2", "--max-iters", "0"), "max_iters must be at least 1"),
            (("states", "--N", "3", "--d", "4", "--out", "unused.json"), "dimension must satisfy 1 <= d <= N, got d=4, N=3"),
        ],
    )
    def test_out_of_range_integers_keep_their_messages(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


class TestBooleanCounts:
    """JSON ``true`` is not a count in any file."""

    def test_boolean_dim_exits_2(self, capsys, tmp_path):
        path = tmp_path / "e.json"
        path.write_text('{"dim": true, "states": [[[1.0, 0.0]], [[1.0, 0.0]]]}')
        code, out, err = run(capsys, "evaluate", "--witness", "quadratic", "--ensemble", str(path), "--helstrom")
        assert code == 2 and out == ""
        assert "'dim'" in err

    @pytest.mark.parametrize("field", ["N", "m", "k"])
    def test_boolean_table_count_rejected(self, tmp_path, field):
        payload = {"witness": "quadratic", "N": 2, "m": 1, "k": 2, "p": [[[1.0, 0.0]], [[0.0, 1.0]]]}
        payload[field] = True
        path = tmp_path / "t.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(FileFormatError, match=f"'{field}'"):
            load_table(path)

    def test_boolean_dump_dim_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"dim": true, "states": [[[1.0, 0.0]], [[1.0, 0.0]]], "effects": {"2,1": [[1.0, 0.0]]}}')
        with pytest.raises(FileFormatError, match="'dim'"):
            load_seesaw_dump(path)
