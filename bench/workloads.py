"""The four workloads: inputs made from the seed, one round of operations, and
the independent check of each operation's output.

Every workload drives the program as a user does: through ``cli.main`` in
this process, and through ``simulate.noisy_table`` and ``files.save_table``
directly where no subcommand exists. Program functions are always looked up
on their module at call time, so a traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
from typing import Callable, NamedTuple

import numpy as np

import checks


class Op(NamedTuple):
    name: str
    run: Callable[[], object]
    # returns (failed, problems): failed means the program gave no answer
    check: Callable[[object], tuple[bool, list[str]]]


def run_cli(dw, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = dw.cli.main(argv)
        except SystemExit as exc:  # argparse rejects usage this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def cli_payload(result) -> tuple[dict | None, list[str]]:
    code, out, err = result
    if code != 0:
        return None, [f"exit {code}: {err.strip()}"]
    return json.loads(out), []


def _pairs_json(z: np.ndarray) -> list:
    return [[float(c.real), float(c.imag)] for c in z.reshape(-1)]


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


class Workload:
    """One workload; ``setup`` writes its inputs and returns one round of ops."""

    name = ""
    #: True when the ops of a round differ so much in cost that a median over
    #: them is one op's time; the round is then the unit of op_p50_cal.
    p50_per_round = False
    #: Calibration reference mix (string length, numpy passes): about nine
    #: tenths interpreter work.
    reference = (7, 1)

    def __init__(self, dw, seed: int, workdir: str) -> None:
        self.dw = dw
        self.seed = seed
        self.workdir = workdir
        self.gaps: list[float] = []

    def rng(self) -> np.random.Generator:
        index = list(WORKLOADS).index(self.name)
        return np.random.Generator(np.random.Philox(key=np.array([self.seed, index], dtype=np.uint64)))

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def setup(self) -> list[Op]:
        raise NotImplementedError


class TightnessGrid(Workload):
    """The nine Table-2 entries with N <= 7 as linear see-saws with a model dump."""

    name = "tightness_grid"
    p50_per_round = True
    # the see-saw is mostly small numpy calls: about three quarters numpy passes
    reference = (6, 16)
    ENTRIES = ((3, 2), (4, 2), (4, 3), (5, 4), (6, 3), (6, 5), (7, 3), (7, 4), (7, 6))
    RESTARTS = 20

    def setup(self) -> list[Op]:
        dump = self.path("model.json")
        ops = []
        for n, d in self.ENTRIES:
            argv = ["seesaw", "--witness", "linear", "--N", str(n), "--d", str(d),
                    "--restarts", str(self.RESTARTS), "--seed", str(self.seed), "--out", dump, "--json"]
            ops.append(Op(f"seesaw N={n} d={d}", functools.partial(run_cli, self.dw, argv),
                          functools.partial(self._check, n, d, dump)))
        return ops

    def _check(self, n: int, d: int, dump: str, result) -> tuple[bool, list[str]]:
        payload, problems = cli_payload(result)
        if payload is None:
            return True, problems
        with open(dump, encoding="utf-8") as fh:
            model = json.load(fh)
        self.gaps.append(checks.quantum_ceiling("linear", n, d) - payload["best_value"])
        return False, checks.check_seesaw(n, d, payload, model)


class CertifyEnsembles(Workload):
    """``evaluate --ensemble F --helstrom`` at N = 30 on pure and mixed ensembles."""

    name = "certify_ensembles"
    N = 30
    DIMS = (2, 3, 4, 5, 6)

    def setup(self) -> list[Op]:
        rng = self.rng()
        n = self.N
        fourier, others = [], []
        for d in self.DIMS:
            vecs = checks.fourier_vectors(n, d)
            fourier.append(self._pure_file(f"fourier-d{d}.json", vecs))
        for d in self.DIMS:
            vecs = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
            vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
            others.append(self._pure_file(f"haar-d{d}.json", vecs))
            rhos = checks.depolarized(vecs, float(rng.uniform(0.05, 0.3)))
            path = self.path(f"depolarized-d{d}.json")
            write_json(path, {"dim": d, "density_matrices": [_pairs_json(r) for r in rhos]})
            others.append((path, checks.pair_trace_distances(matrices=rhos)))
        # The linear witness runs on the Fourier files only: its certification
        # fails on every input today, and those files do not depend on the seed.
        ops = [self._op("linear", path, dist) for path, dist in fourier]
        ops += [self._op("quadratic", path, dist) for path, dist in fourier + others]
        return ops

    def _pure_file(self, name: str, vecs: np.ndarray) -> tuple[str, np.ndarray]:
        path = self.path(name)
        write_json(path, {"dim": vecs.shape[1], "states": [_pairs_json(v) for v in vecs]})
        return path, checks.pair_trace_distances(vectors=vecs)

    def _op(self, kind: str, path: str, dist: np.ndarray) -> Op:
        argv = ["evaluate", "--witness", kind, "--ensemble", path, "--helstrom", "--json"]
        expected = float(np.sum(dist)) if kind == "linear" else float(np.sum(dist * dist))
        return Op(f"evaluate {kind} {os.path.basename(path)}", functools.partial(run_cli, self.dw, argv),
                  functools.partial(self._check, kind, expected))

    def _check(self, kind: str, expected: float, result) -> tuple[bool, list[str]]:
        payload, problems = cli_payload(result)
        if payload is None:
            return True, problems
        return checks.check_certification(kind, self.N, payload, expected)


class NoisyCertify(Workload):
    """noisy_table -> save_table -> ``evaluate --witness quadratic --table`` at N = 30."""

    name = "noisy_certify"
    N = 30
    DIMS = (2, 3, 4, 5)
    SHOTS = 10_000

    def __init__(self, dw, seed: int, workdir: str) -> None:
        super().__init__(dw, seed, workdir)
        self.first_tables: dict[tuple[int, int], np.ndarray] = {}

    def setup(self) -> list[Op]:
        rng = self.rng()
        quantum = self.dw.quantum
        ops = []
        for d in self.DIMS:
            ensemble = quantum.fourier_ensemble(self.N, d)
            measurements = quantum.helstrom_measurements(ensemble)
            eta = float(rng.uniform(0.02, 0.2))
            cell_seed = int(rng.integers(2**63))
            exact = checks.helstrom_born(checks.fourier_vectors(self.N, d), eta)
            path = self.path(f"noisy-d{d}.json")
            ops.append(Op(f"noisy pipeline d={d}",
                          functools.partial(self._run, ensemble, measurements, eta, cell_seed, path),
                          functools.partial(self._check, (d, cell_seed), exact, path)))
        return ops

    def _run(self, ensemble, measurements, eta: float, cell_seed: int, path: str):
        dw = self.dw
        noise = dw.simulate.NoiseModel(depolarizing_eta=eta, shots=self.SHOTS)
        table = dw.simulate.noisy_table(ensemble, measurements, noise, cell_seed)
        dw.files.save_table(table, dw.witnesses.WitnessKind.QUADRATIC, path)
        return table, run_cli(dw, ["evaluate", "--witness", "quadratic", "--table", path, "--json"])

    def _check(self, key: tuple[int, int], exact: np.ndarray, path: str, result) -> tuple[bool, list[str]]:
        table, cli_result = result
        with open(path, encoding="utf-8") as fh:
            saved = np.asarray(json.load(fh)["p"], dtype=float)
        problems = checks.check_noisy(saved, exact, self.SHOTS)
        if not np.array_equal(saved, table.p):
            problems.append("saved table differs from the sampled one")
        first = self.first_tables.setdefault(key, saved)
        if not np.array_equal(first, saved):
            problems.append("the same cell seed gave a different table")
        payload, cli_problems = cli_payload(cli_result)
        if payload is None:
            return True, problems + cli_problems
        failed, cert_problems = checks.check_certification(
            "quadratic", self.N, payload, checks.table_value("quadratic", saved))
        return failed, problems + cert_problems


class ClassicalCertify(Workload):
    """``evaluate --witness linear --table`` on N = 10 tables certifying d = 5 classically.

    Each table mixes a deterministic five-message strategy (C_5 = 40) with a
    little random noise, so its value lies in (C_4, C_5] = (37, 40] and every
    certification enumerates the same encodings.
    """

    name = "classical_certify"
    N = 10
    GROUPS = 5
    TABLES = 3

    def setup(self) -> list[Op]:
        rng = self.rng()
        n = self.N
        ix, ixp = checks.pair_index(n)
        ops = []
        for i in range(self.TABLES):
            message = np.empty(n, dtype=int)
            message[rng.permutation(n)] = np.arange(n) % self.GROUPS
            # pair (x, x') answers 1 exactly on x's message
            strategy = (message[:, None] == message[ix][None, :]).astype(float)
            eps = float(rng.uniform(0.01, 0.04))
            while True:
                noise = rng.uniform(0.0, 1.0, (n, len(ix)))
                if abs(float(np.sum(noise[ix, np.arange(len(ix))] - noise[ixp, np.arange(len(ix))]))) <= 5.0:
                    break
            p1 = (1.0 - eps) * strategy + eps * noise
            p = np.stack([p1, 1.0 - p1], axis=2)
            path = self.path(f"classical-{i}.json")
            write_json(path, {"witness": "linear", "N": n, "m": len(ix), "k": 2, "p": p.tolist()})
            argv = ["evaluate", "--witness", "linear", "--table", path, "--json"]
            ops.append(Op(f"evaluate linear {os.path.basename(path)}", functools.partial(run_cli, self.dw, argv),
                          functools.partial(self._check, checks.table_value("linear", p))))
        return ops

    def _check(self, expected: float, result) -> tuple[bool, list[str]]:
        payload, problems = cli_payload(result)
        if payload is None:
            return True, problems
        return checks.check_certification("linear", self.N, payload, expected)


WORKLOADS = {w.name: w for w in (TightnessGrid, CertifyEnsembles, NoisyCertify, ClassicalCertify)}
