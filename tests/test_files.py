import json

import numpy as np
import pytest

from conftest import random_density, random_pure_ensemble
from dimwitness import (
    Ensemble,
    FileFormatError,
    NoiseModel,
    ProbabilityTable,
    SeesawConfig,
    WitnessKind,
    born_table,
    depolarize,
    fourier_ensemble,
    helstrom_measurements,
    noisy_table,
    optimize,
)
from dimwitness.files import (
    load_ensemble,
    load_seesaw_dump,
    load_table,
    save_ensemble,
    save_seesaw_dump,
    save_table,
)


class TestEnsembleRoundTrip:
    def test_pure_ensemble_is_bit_exact(self, tmp_path):
        path = tmp_path / "fourier.json"
        original = fourier_ensemble(5, 3)
        save_ensemble(original, path)
        loaded = load_ensemble(path)
        assert np.array_equal(loaded.vectors(), original.vectors())

    def test_random_pure_ensemble_is_bit_exact(self, tmp_path):
        path = tmp_path / "random.json"
        original = random_pure_ensemble(np.random.default_rng(1), 4, 3)
        save_ensemble(original, path)
        loaded = load_ensemble(path)
        assert np.array_equal(loaded.vectors(), original.vectors())

    def test_mixed_ensemble_uses_density_matrices(self, tmp_path):
        path = tmp_path / "mixed.json"
        rng = np.random.default_rng(2)
        original = Ensemble(tuple(random_density(rng, 3) for _ in range(3)))
        save_ensemble(original, path)
        loaded = load_ensemble(path)
        assert np.array_equal(loaded.matrices(), original.matrices())
        assert all(s.vector is None for s in loaded.states)


class TestEnsembleLoadErrors:
    def test_invalid_norm_names_offending_index(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"dim": 2, "states": [[[1.0, 0.0], [0.0, 0.0]], [[0.7, 0.0], [0.0, 0.0]]]}'
        )
        with pytest.raises(FileFormatError) as err:
            load_ensemble(path)
        assert "states[1]" in str(err.value)

    def test_invalid_density_matrix_names_offending_index(self, tmp_path):
        path = tmp_path / "bad.json"
        flat_identity = "[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]"
        good = "[[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]"
        path.write_text(f'{{"dim": 2, "density_matrices": [{good}, {flat_identity}]}}')
        with pytest.raises(FileFormatError) as err:
            load_ensemble(path)
        assert "density_matrices[1]" in str(err.value)

    def test_both_representations_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 1, "states": [[[1.0, 0.0]]], "density_matrices": [[[1.0, 0.0]]]}')
        with pytest.raises(FileFormatError):
            load_ensemble(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(FileFormatError):
            load_ensemble(path)

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            load_ensemble(tmp_path / "absent.json")


class TestTableRoundTrip:
    def test_value_identical(self, tmp_path):
        path = tmp_path / "table.json"
        ensemble = fourier_ensemble(4, 2)
        table = born_table(ensemble, helstrom_measurements(ensemble))
        save_table(table, WitnessKind.QUADRATIC, path)
        loaded, kind = load_table(path)
        assert kind is WitnessKind.QUADRATIC
        assert np.array_equal(loaded.p, table.p)

    def test_declared_shape_must_match_kind(self, tmp_path):
        path = tmp_path / "table.json"
        path.write_text('{"witness": "guessing", "N": 2, "m": 1, "k": 3, "p": [[[0.5, 0.25, 0.25]], [[0.5, 0.25, 0.25]]]}')
        with pytest.raises(FileFormatError):
            load_table(path)

    def test_unknown_witness(self, tmp_path):
        path = tmp_path / "table.json"
        path.write_text('{"witness": "cubic", "N": 2, "m": 1, "k": 2, "p": [[[1.0, 0.0]], [[1.0, 0.0]]]}')
        with pytest.raises(FileFormatError):
            load_table(path)

    def test_unnormalized_rows_rejected(self, tmp_path):
        path = tmp_path / "table.json"
        path.write_text('{"witness": "guessing", "N": 2, "m": 1, "k": 2, "p": [[[0.9, 0.0]], [[1.0, 0.0]]]}')
        with pytest.raises(FileFormatError):
            load_table(path)


class TestSeesawDump:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "model.json"
        result = optimize(SeesawConfig(WitnessKind.LINEAR, 3, 2, restarts=3))
        save_seesaw_dump(result, path)
        ensemble, measurements = load_seesaw_dump(path)
        assert np.array_equal(ensemble.vectors(), result.ensemble.vectors())
        for pair, effect in result.measurements.effects.items():
            assert np.array_equal(measurements.effects[pair].matrix, effect.matrix)

    def test_bad_pair_key(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"dim": 1, "states": [[[1.0, 0.0]]], "effects": {"oops": [[1.0, 0.0]]}}')
        with pytest.raises(FileFormatError):
            load_seesaw_dump(path)

    def test_invalid_state_names_offending_index(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"dim": 1, "states": [[[1.0, 0.0]], [[2.0, 0.0]]], "effects": {"2,1": [[1.0, 0.0]]}}')
        with pytest.raises(FileFormatError) as err:
            load_seesaw_dump(path)
        assert str(err.value).startswith("states[1]: ")

    def test_effects_must_cover_the_pairs_of_the_states(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"dim": 1, "states": [[[1.0, 0.0]]], "effects": {"2,1": [[1.0, 0.0]]}}')
        with pytest.raises(FileFormatError, match=r"pairs of 2 preparations, ensemble has 1"):
            load_seesaw_dump(path)

    def test_pair_count_sets_n_not_the_key(self, tmp_path, small_pair_labels):
        path = tmp_path / "model.json"
        path.write_text('{"dim": 1, "states": [[[1.0, 0.0]], [[1.0, 0.0]]], "effects": {"1000000000,1": [[1.0, 0.0]]}}')
        with pytest.raises(FileFormatError, match="effect keys"):
            load_seesaw_dump(path)

    def test_effect_key_order_does_not_matter(self, tmp_path):
        path = tmp_path / "model.json"
        save_seesaw_dump(optimize(SeesawConfig(WitnessKind.LINEAR, 4, 2, restarts=2)), path)
        _, measurements = load_seesaw_dump(path)
        data = json.loads(path.read_text())
        data["effects"] = {key: data["effects"][key] for key in reversed(list(data["effects"]))}
        path.write_text(json.dumps(data))
        assert load_seesaw_dump(path)[1].stack.tobytes() == measurements.stack.tobytes()


def compact_text(path) -> str:
    """The file's text, checked to be one JSON line ending in a newline."""
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert "\n" not in text[:-1]
    return text


class TestCompactWriterRoundTrip:
    """Every float written by the compact writer reads back bit for bit."""

    def test_table_floats_are_bitwise(self, tmp_path):
        path = tmp_path / "table.json"
        p1 = np.random.default_rng(4).random((6, 15))
        p1[0, :4] = [5e-324, 1e-300, 0.1, 1.0 / 3.0]
        table = ProbabilityTable(np.stack([p1, 1.0 - p1], axis=2))
        save_table(table, WitnessKind.QUADRATIC, path)
        compact_text(path)
        loaded, _ = load_table(path)
        assert loaded.p.tobytes() == table.p.tobytes()

    def test_noisy_table_floats_and_flag(self, tmp_path):
        path = tmp_path / "noisy.json"
        ensemble = fourier_ensemble(6, 3)
        table = noisy_table(ensemble, helstrom_measurements(ensemble), NoiseModel(0.1, 997), seed=2)
        save_table(table, WitnessKind.LINEAR, path)
        compact_text(path)
        loaded, kind = load_table(path)
        assert kind is WitnessKind.LINEAR and loaded.empirical
        assert loaded.p.tobytes() == table.p.tobytes()

    def test_pure_ensemble_amplitudes_are_bitwise(self, tmp_path):
        path = tmp_path / "pure.json"
        original = random_pure_ensemble(np.random.default_rng(5), 5, 4)
        save_ensemble(original, path)
        compact_text(path)
        assert load_ensemble(path).vectors().tobytes() == original.vectors().tobytes()

    def test_mixed_ensemble_entries_are_bitwise(self, tmp_path):
        path = tmp_path / "mixed.json"
        original = Ensemble(tuple(depolarize(s, 0.3) for s in fourier_ensemble(4, 3).states))
        save_ensemble(original, path)
        compact_text(path)
        assert load_ensemble(path).matrices().tobytes() == original.matrices().tobytes()

    def test_seesaw_dump_is_bitwise(self, tmp_path):
        path = tmp_path / "model.json"
        result = optimize(SeesawConfig(WitnessKind.QUADRATIC, 4, 3, restarts=2))
        save_seesaw_dump(result, path)
        compact_text(path)
        ensemble, measurements = load_seesaw_dump(path)
        assert ensemble.vectors().tobytes() == result.ensemble.vectors().tobytes()
        assert measurements.stack.tobytes() == result.measurements.stack.tobytes()
