"""The benchmark's tracer wraps program names by attribute: each must exist, and a traced CLI call must run."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import dimwitness
from dimwitness import classical, cli, files, quantum, seesaw, simulate, witnesses  # noqa: F401  as bench/run.py does
from dimwitness.files import save_ensemble

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls(tmp_path, capsys):
    path = tmp_path / "e.json"
    save_ensemble(quantum.fourier_ensemble(6, 2), path)
    originals = (cli.helstrom_measurements, cli.evaluate, np.linalg.eigh, files.load_ensemble)
    tracer = load_tracing().Tracer()
    try:
        tracer.install(dimwitness)
        tracer.op = 0
        code = cli.main(["evaluate", "--witness", "quadratic", "--ensemble", str(path), "--helstrom", "--json"])
    finally:
        tracer.uninstall()
    # the Fourier ensemble reaches the quadratic ceiling Q_2 = 36/2 - 36/4
    assert code == 0 and json.loads(capsys.readouterr().out)["value"] == pytest.approx(9.0, abs=1e-12)
    assert {"files.load_ensemble", "witnesses.certify"} <= {span[0] for span in tracer.spans}
    assert (cli.helstrom_measurements, cli.evaluate, np.linalg.eigh, files.load_ensemble) == originals


def test_tracer_spans_a_seesaw_dump(tmp_path, capsys):
    tracer = load_tracing().Tracer()
    try:
        tracer.install(dimwitness)
        tracer.op = 0
        code = cli.main(["seesaw", "--witness", "linear", "--N", "3", "--d", "2", "--restarts", "2",
                         "--out", str(tmp_path / "model.json")])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    assert {"seesaw.optimize", "files.save_dump"} <= {span[0] for span in tracer.spans}
    assert tracer.counts[0]["seesaw.sweeps"] > 0
