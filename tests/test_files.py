import gc
import json

import numpy as np
import pytest

from conftest import dump_effects, random_density, random_pure_ensemble
from dimwitness import (
    DensityMatrix,
    Ensemble,
    FileFormatError,
    NoiseModel,
    ProbabilityTable,
    SeesawConfig,
    ShapeMismatch,
    WitnessKind,
    born_table,
    depolarize,
    fourier_ensemble,
    helstrom_measurements,
    noisy_table,
    optimize,
)
from dimwitness import files
from dimwitness.cli import main
from dimwitness.files import (
    load_ensemble,
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
        original = Ensemble.from_matrices(np.stack([random_density(rng, 3).matrix for _ in range(3)]))
        save_ensemble(original, path)
        loaded = load_ensemble(path)
        assert np.array_equal(loaded.matrices(), original.matrices())
        assert not loaded.pure


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

    def test_null_amplitude_names_the_entry(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 2, "states": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [null, 1.0]]]}')
        with pytest.raises(FileFormatError, match=r"states\[1\]\[1\]"):
            load_ensemble(path)

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


def _count_eigensolves(monkeypatch) -> list:
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(a, *args, _original=original, _name=name, **kwargs):
            calls.append((_name, np.shape(a)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_pure_file_and_helstrom_run_no_eigensolve(tmp_path, monkeypatch):
    path = tmp_path / "haar.json"
    save_ensemble(random_pure_ensemble(np.random.default_rng(6), 30, 4), path)
    calls = _count_eigensolves(monkeypatch)
    helstrom_measurements(load_ensemble(path))
    # the pure states and their closed-form effects are projectors: the
    # idempotency certificate checks both without a solve
    assert calls == []


def test_mixed_file_and_helstrom_solve_states_and_pair_differences(tmp_path, monkeypatch):
    path = tmp_path / "mixed.json"
    pure = random_pure_ensemble(np.random.default_rng(6), 30, 4)
    save_ensemble(Ensemble.from_matrices(0.9 * pure.matrices() + 0.1 * np.eye(4) / 4), path)
    calls = _count_eigensolves(monkeypatch)
    helstrom_measurements(load_ensemble(path))
    # the 30 mixed states need the positivity solve; the pair differences
    # need one eigh for their projectors, which then pass by certificate
    assert calls == [("eigvalsh", (30, 4, 4)), ("eigh", (435, 4, 4))]


def _evaluate_helstrom(path, capsys) -> None:
    assert main(["evaluate", "--witness", "quadratic", "--ensemble", str(path), "--helstrom", "--json"]) == 0
    capsys.readouterr()


def test_evaluate_helstrom_on_a_pure_file_runs_no_eigensolve(tmp_path, monkeypatch, capsys):
    path = tmp_path / "haar.json"
    save_ensemble(random_pure_ensemble(np.random.default_rng(6), 30, 4), path)
    calls = _count_eigensolves(monkeypatch)
    _evaluate_helstrom(path, capsys)
    assert calls == []


def test_evaluate_helstrom_on_a_mixed_file_solves_states_and_pair_spectra(tmp_path, monkeypatch, capsys):
    path = tmp_path / "mixed.json"
    pure = random_pure_ensemble(np.random.default_rng(6), 30, 4)
    save_ensemble(Ensemble.from_matrices(0.9 * pure.matrices() + 0.1 * np.eye(4) / 4), path)
    calls = _count_eigensolves(monkeypatch)
    _evaluate_helstrom(path, capsys)
    # the state check, then the eigenvalues of the 435 pair differences
    assert calls == [("eigvalsh", (30, 4, 4)), ("eigvalsh", (435, 4, 4))]


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

    def test_save_refuses_a_shape_the_kind_does_not_have(self, tmp_path):
        path = tmp_path / "table.json"
        ensemble = fourier_ensemble(4, 2)
        table = born_table(ensemble, helstrom_measurements(ensemble))
        with pytest.raises(ShapeMismatch, match="guessing witness with N=4"):
            save_table(table, WitnessKind.GUESSING, path)
        assert not path.exists()

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
    """A dump reads back as the ensemble it holds; its effects are the Helstrom effects of those states."""

    def test_round_trip(self, tmp_path):
        path = tmp_path / "model.json"
        result = optimize(SeesawConfig(WitnessKind.LINEAR, 3, 2, restarts=3))
        save_seesaw_dump(result.ensemble, path)
        loaded = load_ensemble(path)
        assert loaded.vectors().tobytes() == result.ensemble.vectors().tobytes()
        assert dump_effects(path).tobytes() == helstrom_measurements(loaded).stack.tobytes()

    def test_invalid_state_names_offending_index(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"dim": 1, "states": [[[1.0, 0.0]], [[2.0, 0.0]]], "effects": {"2,1": [[1.0, 0.0]]}}')
        with pytest.raises(FileFormatError) as err:
            load_ensemble(path)
        assert str(err.value).startswith(f"{path}: states[1]: ")


class TestCollectorPause:
    """A load runs with the cyclic garbage collector paused and leaves it as it found it."""

    def test_loading_a_finite_shot_table_starts_no_collection(self, tmp_path):
        # the N = 30 table of the noisy pipeline parses into 13,081 lists
        path = tmp_path / "table.json"
        ensemble = fourier_ensemble(30, 4)
        table = noisy_table(ensemble, helstrom_measurements(ensemble), NoiseModel(0.1, 10**4), 1)
        save_table(table, WitnessKind.QUADRATIC, path)
        starts = []

        def count(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.collect()
        gc.callbacks.append(count)
        try:
            loaded, _ = load_table(path)
        finally:
            gc.callbacks.remove(count)
        assert starts == []
        assert loaded.p.tobytes() == table.p.tobytes()

    TEXTS = {
        load_ensemble: {
            "loads": '{"dim": 1, "states": [[[1.0, 0.0]]]}',
            "malformed-json": "{not json",
            "bad-content": '{"dim": 1, "states": [[[2.0, 0.0]]]}',
        },
        load_table: {
            "loads": '{"witness": "guessing", "N": 2, "m": 1, "k": 2, "p": [[[1.0, 0.0]], [[0.0, 1.0]]]}',
            "malformed-json": "{not json",
            "bad-content": '{"witness": "guessing", "N": 2, "m": 1, "k": 2, "p": [[[0.9, 0.0]], [[1.0, 0.0]]]}',
        },
    }
    RAISES = {"loads": None, "malformed-json": FileFormatError, "bad-content": FileFormatError, "missing": OSError}

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled-by-caller"])
    @pytest.mark.parametrize("case", list(RAISES))
    @pytest.mark.parametrize("load", [load_ensemble, load_table], ids=lambda load: load.__name__)
    def test_collector_state_is_restored(self, tmp_path, load, case, enabled):
        path = tmp_path / "file.json"
        if case != "missing":
            path.write_text(self.TEXTS[load][case])
        error = self.RAISES[case]
        if not enabled:
            gc.disable()
        try:
            if error is None:
                load(path)
            else:
                with pytest.raises(error):
                    load(path)
            assert gc.isenabled() is enabled
        finally:
            gc.enable()


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
        original = Ensemble.from_matrices(
            np.stack([depolarize(DensityMatrix(m), 0.3).matrix for m in fourier_ensemble(4, 3).matrices()])
        )
        save_ensemble(original, path)
        compact_text(path)
        assert load_ensemble(path).matrices().tobytes() == original.matrices().tobytes()

    def test_seesaw_dump_is_bitwise(self, tmp_path):
        path = tmp_path / "model.json"
        result = optimize(SeesawConfig(WitnessKind.QUADRATIC, 4, 3, restarts=2))
        save_seesaw_dump(result.ensemble, path)
        compact_text(path)
        loaded = load_ensemble(path)
        assert loaded.vectors().tobytes() == result.ensemble.vectors().tobytes()
        assert dump_effects(path).tobytes() == helstrom_measurements(loaded).stack.tobytes()


# -0.0 next to 0.0 catches an encoder that tells floats apart by value, not by bits
SPECIAL = [-0.0, 5e-324, 0.0, 1.0, 1.0 / 3.0]


def pairs_json(stack) -> list:
    """Each member of a stack of vectors or matrices as a flat list of [re, im] pairs, by ``tolist``."""
    return [np.stack([a.real, a.imag], axis=-1).reshape(-1, 2).tolist() for a in stack]


def special_table(kind: WitnessKind, n: int) -> ProbabilityTable:
    """A random table of ``kind`` at N = n that holds every SPECIAL entry."""
    m, k = kind.table_shape(n)
    p = np.random.default_rng(6).random((n, m, k))
    p /= p.sum(axis=2, keepdims=True)
    special = np.array(SPECIAL)
    if k == 2:
        p[0, : len(special)] = np.stack([special, 1.0 - special], axis=1)
    else:
        p[0, 0] = 0.0
        p[0, 0, :6] = [-0.0, 5e-324, 0.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]
        p[1, 0] = 0.0
        p[1, 0, 1] = 1.0
    return ProbabilityTable(p)


def special_ensemble() -> Ensemble:
    third = np.sqrt(1.0 / 3.0)
    return Ensemble.from_vectors(
        np.array(
            [
                [complex(1.0, -0.0), complex(-0.0, 0.0), 0.0],
                [complex(0.0, 5e-324), 1.0, complex(-0.0, -0.0)],
                [third, complex(0.0, third), -third],
                [1.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0],
            ]
        )
    )


class TestWriterBytes:
    """Every writer's file is ``json.dumps`` of its payload as lists, byte for byte, and loads back bitwise."""

    @staticmethod
    def assert_text(path, payload) -> None:
        assert path.read_text(encoding="utf-8") == json.dumps(payload) + "\n"

    @pytest.mark.parametrize(
        "ensemble",
        [special_ensemble(), fourier_ensemble(7, 3), random_pure_ensemble(np.random.default_rng(8), 9, 4)],
        ids=["special", "fourier", "random"],
    )
    def test_pure_ensemble(self, tmp_path, ensemble):
        path = tmp_path / "pure.json"
        save_ensemble(ensemble, path)
        self.assert_text(path, {"dim": ensemble.dim, "states": pairs_json(ensemble.vectors())})
        assert load_ensemble(path).vectors().tobytes() == ensemble.vectors().tobytes()

    @pytest.mark.parametrize("source", ["special", "random"])
    def test_mixed_ensemble(self, tmp_path, source):
        path = tmp_path / "mixed.json"
        if source == "special":
            ensemble = Ensemble.from_matrices(special_ensemble().matrices())
        else:
            rng = np.random.default_rng(9)
            ensemble = Ensemble.from_matrices(np.stack([random_density(rng, 3).matrix for _ in range(5)]))
        save_ensemble(ensemble, path)
        self.assert_text(path, {"dim": ensemble.dim, "density_matrices": pairs_json(ensemble.matrices())})
        assert load_ensemble(path).matrices().tobytes() == ensemble.matrices().tobytes()

    @pytest.mark.parametrize("source", ["special", "seesaw"])
    def test_seesaw_dump(self, tmp_path, source):
        path = tmp_path / "model.json"
        if source == "special":
            ensemble = special_ensemble()
        else:
            ensemble = optimize(SeesawConfig(WitnessKind.LINEAR, 5, 3, restarts=2)).ensemble
        save_seesaw_dump(ensemble, path)
        measurements = helstrom_measurements(ensemble)
        keys = [f"{x},{xp}" for x in range(2, ensemble.N + 1) for xp in range(1, x)]
        effects = dict(zip(keys, pairs_json(measurements.stack)))
        self.assert_text(path, {"dim": ensemble.dim, "states": pairs_json(ensemble.vectors()), "effects": effects})
        loaded = load_ensemble(path)
        assert loaded.vectors().tobytes() == ensemble.vectors().tobytes()
        assert dump_effects(path).tobytes() == helstrom_measurements(loaded).stack.tobytes()

    @staticmethod
    def table_case(name: str) -> tuple[WitnessKind, ProbabilityTable]:
        pair_ensemble = fourier_ensemble(8, 3)
        if name == "special-pairs":
            return WitnessKind.QUADRATIC, special_table(WitnessKind.QUADRATIC, 6)
        if name == "exact-pairs":
            return WitnessKind.LINEAR, born_table(pair_ensemble, helstrom_measurements(pair_ensemble))
        if name == "empirical-pairs":
            noise = NoiseModel(0.1, 50)
            return WitnessKind.QUADRATIC, noisy_table(pair_ensemble, helstrom_measurements(pair_ensemble), noise, 3)
        if name == "special-guessing":
            return WitnessKind.GUESSING, special_table(WitnessKind.GUESSING, 7)
        return WitnessKind.LINEAR, ProbabilityTable(np.random.default_rng(10).dirichlet([1.0, 1.0], (9, 36)))

    @pytest.mark.parametrize(
        "name", ["special-pairs", "exact-pairs", "empirical-pairs", "special-guessing", "all-distinct"]
    )
    def test_table(self, tmp_path, name):
        kind, table = self.table_case(name)
        path = tmp_path / "table.json"
        save_table(table, kind, path)
        self.assert_text(path, {"witness": kind.value, "N": table.N, "m": table.m, "k": table.k,
                                "p": table.p.tolist(), "empirical": table.empirical})
        loaded, loaded_kind = load_table(path)
        assert loaded_kind is kind and loaded.empirical == table.empirical
        assert loaded.p.tobytes() == table.p.tobytes()

    def test_special_values_are_present(self):
        # the cases above hold each special entry, both signed zeros included
        for floats in [
            special_table(WitnessKind.QUADRATIC, 6).p,
            special_table(WitnessKind.GUESSING, 7).p,
            special_ensemble().vectors().view(float),
            Ensemble.from_matrices(special_ensemble().matrices()).matrices().view(float),
        ]:
            written = set(np.ascontiguousarray(floats).view(np.int64).ravel().tolist())
            assert set(np.array(SPECIAL).view(np.int64).tolist()) <= written


class TestWriterBytesInChunks(TestWriterBytes):
    """The same bytes when the float encoder splits each array into many chunks of rows."""

    # one row per chunk, and a few rows per chunk with a last chunk that is short
    @pytest.fixture(autouse=True, params=[1, 40])
    def small_chunks(self, request, monkeypatch):
        monkeypatch.setattr(files, "_CHUNK", request.param)

    def test_rows_of_many_chunks(self):
        # seven rows of six entries: seven chunks of one row, or a chunk of six rows and a chunk of one
        states = files._pairs(fourier_ensemble(7, 3).vectors())
        assert list(files._rows(states)) == [json.dumps(row.tolist()) for row in states]
