import argparse
import ast
import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import dump_effects
from dimwitness import (
    Ensemble,
    NoiseModel,
    SeesawConfig,
    WitnessKind,
    born_table,
    certify_dimension,
    classical_bound,
    evaluate,
    fourier_ensemble,
    helstrom_measurements,
    noisy_table,
    optimize,
    quantum_bound,
    verify_table2,
)
from dimwitness import seesaw as seesaw_mod
from dimwitness.cli import build_parser, main
from dimwitness.files import load_ensemble, save_ensemble, save_table
from dimwitness.kernels import pair_index


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fixed(text):
    """A number printed with six decimals, or bare when it is an integer."""
    return pytest.approx(float(text), rel=0, abs=5.1e-7)


def unless(word, read):
    """``read`` of the text, or ``None`` where the text is ``word``."""
    return lambda text: None if text == word else read(text)


SETTING = [("witness", "witness", str), ("N", "N", int), ("d", "d", int)]
BOUNDS_FIELDS = SETTING + [
    ("Q_d", "quantum_bound", fixed),
    ("C_d", "classical_bound", unless("requires enumeration (no closed form at this N, d)", fixed)),
    (None, "classical_bound_exact", None),
]
EVALUATE_FIELDS = SETTING[:2] + [
    ("value", "value", fixed),
    ("min quantum dimension", "min_quantum_d", int),
    ("min classical dimension", "min_classical_d", unless("unknown (enumeration guard exceeded)", int)),
    (None, "empirical", None),
]
SEESAW_FIELDS = SETTING + [
    ("best value", "best_value", fixed),
    ("Q_d", "quantum_bound", fixed),
    ("gap", "gap", lambda text: pytest.approx(float(text), rel=5e-4, abs=0)),
    ("restarts", None, None),
    (None, "restart_values", None),
    (None, "restart_sweeps", None),
    (None, "restart_stops", None),
    (None, "restart_halvings", None),
    ("iterations", "iterations_used", int),
    (None, "out", None),
]
CLASSICAL_FIELDS = SETTING + [
    ("enumerated maximum", "enumerated", fixed),
    ("closed-form value", "closed_form", unless("none", fixed)),
    ("verdict", "verdict", str),
    ("optimal encoding", "encoding", lambda text: list(ast.literal_eval(text))),
]


def same_fields(capsys, argv, fields, notes=()):
    """Run one report as text and as --json and check that both carry the same fields.

    ``fields`` lists the report's (label, key, read) rows in order. The text
    lines hold the labels in that order, then ``notes``; the JSON keys come in
    that order; and on a row with both, ``read`` of the text equals the JSON
    value. Returns the text fields (label -> text) and the JSON object.
    """
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    labelled = [row for row in fields if row[0] is not None]
    lines = out.splitlines()
    assert lines[len(labelled):] == list(notes)
    text = dict(line.split(": ", 1) for line in lines[:len(labelled)])
    assert list(text) == [label for label, _, _ in labelled]
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert list(payload) == [key for _, key, _ in fields if key is not None]
    for label, key, read in labelled:
        if key is not None:
            assert read(text[label]) == payload[key], label
    return text, payload


class TestBounds:
    def test_quadratic_reference_point(self, capsys):
        code, out, _ = run(capsys, "bounds", "--witness", "quadratic", "--N", "7", "--d", "5")
        assert code == 0
        assert "Q_d: 19.600000" in out
        assert "C_d: 19" in out

    def test_full_dimension_prints_integers(self, capsys):
        code, out, _ = run(capsys, "bounds", "--witness", "quadratic", "--N", "7", "--d", "7")
        assert code == 0
        assert "Q_d: 21" in out and "C_d: 21" in out

    def test_linear_tight_point(self, capsys):
        code, out, _ = run(capsys, "bounds", "--witness", "linear", "--N", "3", "--d", "2")
        assert code == 0
        assert "Q_d: 2.598076" in out and "C_d: 2" in out

    def test_linear_without_closed_form(self, capsys):
        code, out, _ = run(capsys, "bounds", "--witness", "linear", "--N", "5", "--d", "2")
        assert code == 0
        assert "requires enumeration" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "bounds", "--witness", "quadratic", "--N", "7", "--d", "3", "--json")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["quantum_bound"] - 49 / 3) <= 1e-12
        assert payload["classical_bound"] == 16

    @pytest.mark.parametrize("kind", list(WitnessKind))
    def test_json_and_text_report_the_closed_forms(self, capsys, kind):
        # the grid holds linear entries away from d = N - 1, where there is no classical closed form
        for n in (2, 3, 5, 7):
            for d in (1, 2, 3, 6, 9):
                argv = ("bounds", "--witness", kind.value, "--N", str(n), "--d", str(d))
                classical = classical_bound(kind, n, d)
                _, payload = same_fields(capsys, argv, BOUNDS_FIELDS)
                assert payload == {
                    "witness": kind.value,
                    "N": n,
                    "d": d,
                    "quantum_bound": quantum_bound(kind, n, d),
                    "classical_bound": classical,
                    "classical_bound_exact": classical is not None,
                }

    def test_ceilings_that_round_past_each_other_are_reported(self, capsys):
        # at N = 10^11 the float C_d rounds one ulp above the float Q_d, though exactly C_d < Q_d
        code, out, err = run(capsys, "bounds", "--witness", "quadratic", "--N", str(10**11), "--d", "3", "--json")
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["classical_bound"] == classical_bound(WitnessKind.QUADRATIC, 10**11, 3)
        assert payload["quantum_bound"] == quantum_bound(WitnessKind.QUADRATIC, 10**11, 3)

    def test_bad_flags_exit_2(self, capsys):
        assert run(capsys, "bounds", "--witness", "quadratic", "--N", "1", "--d", "2")[0] == 2
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--witness", "cubic", "--N", "3", "--d", "2"])
        assert exc.value.code == 2


class TestStates:
    def test_write_and_reload(self, capsys, tmp_path):
        path = str(tmp_path / "e.json")
        code, _, _ = run(capsys, "states", "--N", "3", "--d", "2", "--out", path)
        assert code == 0
        ensemble = load_ensemble(path)
        vectors = ensemble.vectors()
        for x in range(3):
            for xp in range(x):
                assert abs(abs(np.vdot(vectors[x], vectors[xp])) - 0.5) <= 1e-10
        # the written file round-trips the constructed amplitudes bit-exactly
        from dimwitness import fourier_ensemble

        assert np.array_equal(vectors, fourier_ensemble(3, 2).vectors())

    def test_orthogonal_pair(self, capsys, tmp_path):
        path = str(tmp_path / "e.json")
        assert run(capsys, "states", "--N", "2", "--d", "2", "--out", path)[0] == 0
        vectors = load_ensemble(path).vectors()
        assert abs(np.vdot(vectors[0], vectors[1])) <= 1e-10

    def test_full_basis_average(self, capsys, tmp_path):
        path = str(tmp_path / "e.json")
        assert run(capsys, "states", "--N", "5", "--d", "5", "--out", path)[0] == 0
        vectors = load_ensemble(path).vectors()
        omega = sum(np.outer(v, v.conj()) for v in vectors) / 5
        assert np.max(np.abs(omega - np.eye(5) / 5)) <= 1e-10

    def test_dimension_above_preparations_exits_2(self, capsys, tmp_path):
        path = str(tmp_path / "e.json")
        assert run(capsys, "states", "--N", "2", "--d", "3", "--out", path)[0] == 2

    def test_unwritable_path_exits_3(self, capsys, tmp_path):
        path = str(tmp_path / "missing_dir" / "e.json")
        assert run(capsys, "states", "--N", "2", "--d", "2", "--out", path)[0] == 3


class TestEvaluate:
    def test_fourier_helstrom_quadratic(self, capsys, tmp_path):
        path = str(tmp_path / "e.json")
        run(capsys, "states", "--N", "7", "--d", "2", "--out", path)
        code, out, _ = run(
            capsys, "evaluate", "--witness", "quadratic", "--ensemble", path, "--helstrom"
        )
        assert code == 0
        assert "value: 12.250000" in out
        assert "min quantum dimension: 2" in out
        assert "min classical dimension: 3" in out

    def test_fourier_helstrom_linear(self, capsys, tmp_path):
        path = str(tmp_path / "e.json")
        run(capsys, "states", "--N", "3", "--d", "2", "--out", path)
        code, out, _ = run(
            capsys, "evaluate", "--witness", "linear", "--ensemble", path, "--helstrom"
        )
        assert code == 0
        assert "value: 2.598076" in out
        assert "min quantum dimension: 2" in out
        assert "min classical dimension: 3" in out

    def test_uniform_table_certifies_dimension_one(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        n, m = 3, 3
        p = [[[0.5, 0.5] for _ in range(m)] for _ in range(n)]
        path.write_text(json.dumps({"witness": "quadratic", "N": n, "m": m, "k": 2, "p": p}))
        code, out, _ = run(capsys, "evaluate", "--witness", "quadratic", "--table", str(path))
        assert code == 0
        assert "value: 0.000000" in out
        assert "min quantum dimension: 1" in out
        assert "min classical dimension: 1" in out

    def test_json_and_text_report_the_same_fields(self, capsys, tmp_path):
        ensemble = fourier_ensemble(7, 2)
        save_ensemble(ensemble, tmp_path / "e.json")
        argv = ("evaluate", "--witness", "linear", "--ensemble", str(tmp_path / "e.json"), "--helstrom")
        _, payload = same_fields(capsys, argv, EVALUATE_FIELDS)
        assert (payload["N"], payload["min_quantum_d"], payload["empirical"]) == (7, 2, False)

        table = noisy_table(ensemble, helstrom_measurements(ensemble), NoiseModel(0.1, 500), seed=3)
        save_table(table, WitnessKind.QUADRATIC, tmp_path / "t.json")
        argv = ("evaluate", "--witness", "quadratic", "--table", str(tmp_path / "t.json"))
        _, payload = same_fields(capsys, argv, EVALUATE_FIELDS, ["note: table holds empirical frequencies"])
        assert payload["value"] == evaluate(WitnessKind.QUADRATIC, table) and payload["empirical"] is True

    def test_value_just_above_the_ceiling_certifies_n_classically(self, capsys, tmp_path):
        # every pair difference is 1 + 1.8e-9 inside the probability tolerance: the value passes C_20 = 190
        # by 6.8e-7, within the slack certify_dimension admits, and nothing is enumerated
        n = 20
        p = np.full((n, n * (n - 1) // 2, 2), 0.5)
        x, xp = pair_index(n)
        y = np.arange(x.size)
        p[x, y] = [1 + 9e-10, -9e-10]
        p[xp, y] = [-9e-10, 1 + 9e-10]
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"witness": "quadratic", "N": n, "m": y.size, "k": 2, "p": p.tolist()}))
        text, payload = same_fields(capsys, ("evaluate", "--witness", "quadratic", "--table", str(path)),
                                    EVALUATE_FIELDS)
        assert 190 < payload["value"] < 190 + 1e-6
        assert text["min classical dimension"] == "20" and payload["min_quantum_d"] == 20

    def test_witness_must_match_declared_kind(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        p = [[[0.5, 0.5]], [[0.5, 0.5]]]
        path.write_text(json.dumps({"witness": "quadratic", "N": 2, "m": 1, "k": 2, "p": p}))
        assert run(capsys, "evaluate", "--witness", "linear", "--table", str(path))[0] == 2

    def test_requires_exactly_one_source(self, capsys, tmp_path):
        assert run(capsys, "evaluate", "--witness", "quadratic")[0] == 2
        path = tmp_path / "t.json"
        path.write_text("{}")
        assert (
            run(
                capsys,
                "evaluate",
                "--witness",
                "quadratic",
                "--table",
                str(path),
                "--ensemble",
                str(path),
            )[0]
            == 2
        )

    def test_helstrom_requires_ensemble(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        p = [[[0.5, 0.5]], [[0.5, 0.5]]]
        path.write_text(json.dumps({"witness": "quadratic", "N": 2, "m": 1, "k": 2, "p": p}))
        assert (
            run(capsys, "evaluate", "--witness", "quadratic", "--table", str(path), "--helstrom")[0]
            == 2
        )

    def test_guessing_needs_table(self, capsys, tmp_path):
        path = str(tmp_path / "e.json")
        run(capsys, "states", "--N", "3", "--d", "2", "--out", path)
        assert (
            run(capsys, "evaluate", "--witness", "guessing", "--ensemble", path, "--helstrom")[0]
            == 2
        )


def _n30_ensembles():
    rng = np.random.default_rng(30)
    for d in range(2, 7):
        yield f"fourier-d{d}", fourier_ensemble(30, d)
        vecs = rng.standard_normal((30, d)) + 1j * rng.standard_normal((30, d))
        haar = Ensemble.from_vectors(vecs / np.linalg.norm(vecs, axis=1, keepdims=True))
        yield f"haar-d{d}", haar
        eta = rng.uniform(0.05, 0.3)
        yield f"depolarized-d{d}", Ensemble.from_matrices((1 - eta) * haar.matrices() + eta * np.eye(d) / d)


@pytest.mark.parametrize("kind", [WitnessKind.QUADRATIC, WitnessKind.LINEAR])
def test_evaluate_helstrom_matches_the_effect_route(capsys, tmp_path, kind):
    for name, ensemble in _n30_ensembles():
        path = tmp_path / f"{name}.json"
        save_ensemble(ensemble, path)
        code, out, _ = run(capsys, "evaluate", "--witness", kind.value, "--ensemble", str(path), "--helstrom",
                           "--json")
        assert code == 0, name
        payload = json.loads(out)
        loaded = load_ensemble(path)
        expected = evaluate(kind, born_table(loaded, helstrom_measurements(loaded)))
        certified = certify_dimension(kind, 30, expected)
        assert abs(payload["value"] - expected) <= 1e-12 * abs(expected), name
        assert (payload["min_quantum_d"], payload["min_classical_d"]) == tuple(certified), name


class TestSeesaw:
    def test_small_linear_case_attains(self, capsys):
        code, out, _ = run(
            capsys, "seesaw", "--witness", "linear", "--N", "3", "--d", "2", "--seed", "1", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["gap"] <= 1e-3
        assert len(payload["restart_sweeps"]) == len(payload["restart_stops"]) == 20
        assert sum(payload["restart_sweeps"]) == payload["iterations_used"]
        assert set(payload["restart_stops"]) <= {"stalled", "ceiling"}
        halvings = payload["restart_halvings"]
        assert len(halvings) == 20 and all(type(k) is int and k >= 0 for k in halvings)

    def test_full_dimension_quadratic(self, capsys):
        code, out, _ = run(capsys, "seesaw", "--witness", "quadratic", "--N", "4", "--d", "4")
        assert code == 0
        assert "best value: 6.000000" in out

    def test_seven_six_quadratic_reference(self, capsys):
        code, out, _ = run(
            capsys,
            "seesaw", "--witness", "quadratic", "--N", "7", "--d", "6", "--seed", "1", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["best_value"] - 20.416667) <= 1e-3

    def test_model_dump(self, capsys, tmp_path):
        for witness in ("linear", "quadratic"):
            path = str(tmp_path / f"{witness}.json")
            code, out, _ = run(
                capsys,
                "seesaw", "--witness", witness, "--N", "3", "--d", "2", "--restarts", "3",
                "--out", path, "--json",
            )
            assert code == 0
            best = json.loads(out)["best_value"]
            # the dump reads back as the see-saw's states, next to their Helstrom effects
            loaded = load_ensemble(path)
            states = optimize(SeesawConfig(WitnessKind(witness), 3, 2, restarts=3)).ensemble
            assert loaded.vectors().tobytes() == states.vectors().tobytes()
            assert dump_effects(path).tobytes() == helstrom_measurements(loaded).stack.tobytes()
            # the dumped states reproduce the see-saw's value under their Helstrom measurements
            code, out, _ = run(capsys, "evaluate", "--witness", witness, "--ensemble", path, "--helstrom", "--json")
            assert code == 0
            assert json.loads(out)["value"] == pytest.approx(best, rel=1e-12, abs=0), witness

    @pytest.mark.parametrize("out", [False, True], ids=["no-out", "out"])
    def test_json_and_text_report_the_same_fields(self, capsys, tmp_path, out):
        argv = ("seesaw", "--witness", "linear", "--N", "4", "--d", "3", "--restarts", "3")
        path = str(tmp_path / "m.json")
        notes = []
        if out:
            argv += ("--out", path)
            notes = [f"wrote model to {path}"]
        text, payload = same_fields(capsys, argv, SEESAW_FIELDS, notes)
        assert text["restarts"] == "3" and len(payload["restart_values"]) == 3
        assert payload["out"] == (path if out else None)

    def test_guessing_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["seesaw", "--witness", "guessing", "--N", "3", "--d", "2"])
        assert exc.value.code == 2


class TestReproduce:
    def test_bound_table_values(self, capsys):
        code, out, _ = run(capsys, "reproduce", "--table", "1")
        assert code == 0
        lines = out.splitlines()
        c_row = next(line for line in lines if line.startswith("C_d"))
        q_row = next(line for line in lines if line.startswith("Q_d"))
        assert c_row.split()[1:] == ["12", "16", "18", "19", "20", "21"]
        assert q_row.split()[1:] == ["12.25", "16.33", "18.38", "19.60", "20.42", "21"]

    def test_bound_table_byte_identical_across_runs(self, capsys):
        _, first, _ = run(capsys, "reproduce", "--table", "1")
        _, second, _ = run(capsys, "reproduce", "--table", "1")
        assert first.encode() == second.encode()

    def test_bound_table_json_full_precision(self, capsys):
        code, out, _ = run(capsys, "reproduce", "--table", "1", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["classical"] == [12, 16, 18, 19, 20, 21]
        assert abs(payload["quantum"][1] - 49 / 3) <= 1e-12

    def test_tightness_grid_json_keys_in_order(self, capsys):
        code, out, _ = run(capsys, "reproduce", "--table", "2", "--nmax", "3", "--json")
        payload = json.loads(out)
        assert code == 0
        assert list(payload) == ["restarts", "seed", "tol", "entries"]
        (entry,) = payload["entries"]
        assert list(entry) == ["N", "d", "bound", "best_value", "gap", "attained"]
        assert (entry["N"], entry["d"], entry["attained"]) == (3, 2, True)

    def test_tightness_grid_up_to_five(self, capsys):
        code, out, _ = run(capsys, "reproduce", "--table", "2", "--nmax", "5")
        assert code == 0
        for label in ("N=3 d=2", "N=4 d=2", "N=4 d=3", "N=5 d=4"):
            line = next(l for l in out.splitlines() if l.startswith(label))
            assert line.endswith("attained") and "not attained" not in line

    def test_bad_table_number(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "--table", "3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("settings", [["--nmax", "9", "--restarts", "3", "--seed", "5"], ["--seed", "1"]])
    def test_bound_table_refuses_table_2_settings(self, capsys, settings):
        code, out, err = run(capsys, "reproduce", "--table", "1", *settings)
        assert (code, out) == (2, "")
        given = ", ".join(option for option in settings if option.startswith("--"))
        assert err == f"error: --table 2 settings given with --table 1: {given}\n"

    def test_rows_past_seven_carry_the_local_search_note(self, capsys):
        code, out, _ = run(capsys, "reproduce", "--table", "2", "--nmax", "8", "--restarts", "2")
        assert code == 0
        assert out.splitlines()[-1] == "note: N >= 8 rows are local-search reports; a miss is inconclusive"


class TestClassical:
    def test_quadratic_reference_point(self, capsys):
        code, out, _ = run(capsys, "classical", "--witness", "quadratic", "--N", "7", "--d", "3")
        assert code == 0
        assert "enumerated maximum: 16" in out
        assert "closed-form value: 16" in out
        assert "verdict: match" in out
        assert "(1, 1, 1, 2, 2, 3, 3)" in out

    def test_guessing(self, capsys):
        code, out, _ = run(capsys, "classical", "--witness", "guessing", "--N", "5", "--d", "2")
        assert code == 0
        assert "enumerated maximum: 0.400000" in out

    def test_linear_next_to_full_dimension(self, capsys):
        code, out, _ = run(capsys, "classical", "--witness", "linear", "--N", "4", "--d", "3")
        assert code == 0
        assert "enumerated maximum: 5" in out
        assert "closed-form value: 5" in out
        assert "verdict: match" in out

    def test_guard_exits_2(self, capsys):
        assert run(capsys, "classical", "--witness", "quadratic", "--N", "30", "--d", "3")[0] == 2

    @pytest.mark.parametrize("kind", list(WitnessKind))
    def test_json_and_text_report_the_same_fields(self, capsys, kind):
        text, payload = same_fields(capsys, ("classical", "--witness", kind.value, "--N", "6", "--d", "2"),
                                    CLASSICAL_FIELDS)
        assert payload["verdict"] == ("no closed form" if kind is WitnessKind.LINEAR else "match")
        assert text["optimal encoding"].startswith("(1, ")


class TestProcess:
    """``python -m dimwitness`` as a real process: ``__main__`` and its exit status."""

    @staticmethod
    def dimwitness(*argv, cwd):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, "-m", "dimwitness", *argv], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=120)

    def test_json_run_exits_0_and_parses(self, tmp_path):
        done = self.dimwitness("bounds", "--witness", "quadratic", "--N", "7", "--d", "3", "--json", cwd=tmp_path)
        assert (done.returncode, done.stderr) == (0, "")
        assert json.loads(done.stdout)["classical_bound"] == 16

    def test_bad_argument_exits_2_with_one_error_line(self, tmp_path):
        done = self.dimwitness("bounds", "--witness", "quadratic", "--N", "1", "--d", "2", cwd=tmp_path)
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr == "error: need at least 2 preparations, got 1\n"
        assert "Traceback" not in done.stderr

    def test_missing_table_exits_3(self, tmp_path):
        done = self.dimwitness("evaluate", "--witness", "quadratic", "--table", "missing.json", cwd=tmp_path)
        assert done.returncode == 3 and done.stdout == ""
        assert done.stderr.startswith("i/o error: ") and "Traceback" not in done.stderr



def test_parser_is_built_once_per_process(capsys, monkeypatch):
    assert run(capsys, "bounds", "--witness", "quadratic", "--N", "4", "--d", "2")[0] == 0
    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers",
                        lambda *a, **k: pytest.fail("main rebuilt the parser"))
    assert run(capsys, "classical", "--witness", "guessing", "--N", "3", "--d", "2")[0] == 0


#: The settable values of the see-saw and of each subcommand (``--help`` aside): a knob added or
#: removed here is an API change. The tolerances are module constants, not knobs.
KNOBS = {
    "SeesawConfig": ["witness", "N", "d", "restarts", "max_iters", "seed"],
    "verify_table2": ["n_max", "restarts", "seed"],
    "bounds": ["--json", "--witness", "--N", "--d"],
    "states": ["--json", "--N", "--d", "--out"],
    "evaluate": ["--json", "--witness", "--table", "--ensemble", "--helstrom"],
    "seesaw": ["--json", "--witness", "--N", "--d", "--restarts", "--seed", "--max-iters", "--out"],
    "reproduce": ["--json", "--table", "--nmax", "--restarts", "--seed"],
    "classical": ["--json", "--witness", "--N", "--d"],
}


class TestKnobs:
    def test_knobs_are_the_listed_ones(self):
        subcommands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        knobs = {name: [option for action in sub._actions if not isinstance(action, argparse._HelpAction)
                        for option in action.option_strings]
                 for name, sub in subcommands.choices.items()}
        knobs["SeesawConfig"] = [field.name for field in dataclasses.fields(SeesawConfig)]
        knobs["verify_table2"] = list(inspect.signature(verify_table2).parameters)
        assert knobs == KNOBS

    def test_defaults_are_the_config_ones(self, capsys, monkeypatch):
        defaults = {"restarts": SeesawConfig.restarts, "seed": SeesawConfig.seed}
        seesaw_args = build_parser().parse_args(["seesaw", "--witness", "linear", "--N", "3", "--d", "2"])
        assert {**defaults, "max_iters": SeesawConfig.max_iters} == {
            name: getattr(seesaw_args, name) for name in ("restarts", "seed", "max_iters")}
        # reproduce's table 2 options default to absent; read what it passes on and reports
        calls = []
        monkeypatch.setattr(seesaw_mod, "verify_table2", lambda n_max, **kwargs: calls.append((n_max, kwargs)) or ())
        code, out, _ = run(capsys, "reproduce", "--table", "2", "--json")
        assert code == 0 and calls == [(7, defaults)]
        assert defaults == {name: json.loads(out)[name] for name in defaults}
        assert defaults == {name: p.default for name, p in inspect.signature(verify_table2).parameters.items()
                            if name in defaults}

    @pytest.mark.parametrize("argv", [
        ["seesaw", "--witness", "linear", "--N", "4", "--d", "2", "--tol", "1e-9"],
        ["reproduce", "--table", "2", "--tol", "1e-3"],
    ], ids=["seesaw", "reproduce"])
    def test_tolerances_are_not_flags(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err
