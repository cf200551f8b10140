"""Non-finite input ends in a typed error, and tables keep their empirical flag."""

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
    ShapeMismatch,
    StateVector,
    WitnessKind,
    certify_dimension,
    fourier_ensemble,
    helstrom_measurements,
)
from dimwitness.cli import main
from dimwitness.files import load_table, save_table
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
