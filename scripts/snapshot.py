"""Hash what the program prints and writes on one fixed, seeded grid.

Two checkouts that print the same hashes give the same numbers, byte for
byte, on every command and table of the grid::

    python3 scripts/snapshot.py                     # one SHA-256 per group
    python3 scripts/snapshot.py --small             # a quick subset of the grid
    python3 scripts/snapshot.py --against ../base   # the same grid in another checkout; list what differs
    python3 scripts/snapshot.py --entries           # every entry's hash, as one JSON object

The groups:

- ``cli``: every subcommand, as text and as ``--json``, with its exit code
  and stderr. A ``--json`` report gives one entry per key, so a new key
  shows up as one entry of its own.
- ``files``: the bytes of every file those commands write, among them the
  ``seesaw --out`` dumps of the nine Table-2 entries with N <= 7 at seeds 1
  and 2, and the table files that ``evaluate --table`` reads.
- ``tables``: the ``p`` bytes and the ``empirical`` flag of ``born_table``
  and ``noisy_table`` over four Fourier ensembles and one mixed qutrit
  ensemble, each with its Helstrom measurements, and every depolarizing
  strength, shot count and seed of the grid; and the ``p`` bytes of
  ``strategy_table`` for the maximizer ``enumerate_max`` returns, for every
  witness, 2 <= N <= 8 and 1 <= d <= N + 1.

The checkout whose ``src/`` is imported is the one holding this script, or
``--tree``. ``--against TREE`` runs this script's grid in TREE (for example a
``git worktree`` of the base commit), prints both sides' group hashes and
every entry that differs, and exits 1 when one does. The hashes are not
pinned anywhere: BLAS and numpy versions may round differently, so compare
two checkouts on one machine. Uses the standard library and numpy only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

GROUPS = ("cli", "files", "tables")
TIGHTNESS = ((3, 2), (4, 2), (4, 3), (5, 4), (6, 3), (6, 5), (7, 3), (7, 4), (7, 6))
SEESAW_SEEDS = (1, 2)
ETAS = (0.0, 0.1, 0.37)
SHOTS = (None, 1, 7, 10**4, 10**6, 2**40 + 3, 2**53)
NOISE_SEEDS = (0, 1, 2**64 - 1)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _import_program(tree: Path):
    """``dimwitness`` from ``tree/src``, refusing a copy from anywhere else."""
    src = (tree / "src").resolve()
    sys.path.insert(0, str(src))
    import dimwitness.cli  # binds dimwitness; cli imports files, which the grid writes through

    origin = Path(dimwitness.__file__).resolve()
    if src not in origin.parents:
        raise SystemExit(f"snapshot: imported dimwitness from {origin}, not from {src}")
    return dimwitness


def _mixed_qutrits(dw):
    # twelve qutrit states, each 0.8 of a random pure state plus 0.2 of I/3
    rng = np.random.default_rng(3)
    vecs = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    pure = vecs[:, :, None] * vecs[:, None, :].conj()
    return dw.Ensemble.from_matrices(0.8 * pure + 0.2 * np.eye(3) / 3)


def _ensembles(dw, small: bool) -> dict:
    sizes = ((3, 2), (7, 3)) if small else ((3, 2), (7, 3), (30, 4), (30, 2))
    ensembles = {f"fourier N={n} d={d}": dw.fourier_ensemble(n, d) for n, d in sizes}
    ensembles["mixed qutrits N=12"] = _mixed_qutrits(dw)
    return ensembles


def _tables(dw, entries: dict, small: bool) -> list:
    """Hash every table of the grid into ``entries``; returns the ones written to files."""
    etas, shots, seeds = ((0.0, 0.1), (None, 7), (1,)) if small else (ETAS, SHOTS, NOISE_SEEDS)
    written = []
    for name, ensemble in _ensembles(dw, small).items():
        measurements = dw.helstrom_measurements(ensemble)
        tables = {f"tables: born_table {name}": dw.born_table(ensemble, measurements)}
        for eta in etas:
            for count in shots:
                for seed in seeds:
                    table = dw.noisy_table(ensemble, measurements, dw.NoiseModel(eta, count), seed)
                    tables[f"tables: noisy_table {name} eta={eta} shots={count} seed={seed}"] = table
        for key, table in tables.items():
            entries[key] = _digest(table.p.tobytes() + repr(table.empirical).encode())
        written += [tables[f"tables: born_table {name}"],
                    tables[f"tables: noisy_table {name} eta={etas[-1]} shots={shots[-1]} seed={seeds[0]}"]]
    return written


def _strategy_tables(dw, entries: dict, small: bool) -> None:
    """Hash the deterministic table of every enumerated maximizer of the grid into ``entries``."""
    for kind in dw.WitnessKind:
        for n in range(2, 5 if small else 9):
            for d in range(1, n + 2):
                table = dw.strategy_table(dw.enumerate_max(kind, n, d)[1], kind)
                entries[f"tables: strategy_table {kind.value} N={n} d={d}"] = _digest(table.p.tobytes())


def _table_files(dw, tables: list) -> list[tuple[str, str]]:
    """Write each table for both pair witnesses; returns (witness, file name) pairs."""
    files = dw.files
    names = []
    for i, table in enumerate(tables):
        for kind in (dw.WitnessKind.QUADRATIC, dw.WitnessKind.LINEAR):
            path = f"table{i}-{kind.value}.json"
            files.save_table(table, kind, path)
            names.append((kind.value, path))
    # a guessing table: the Fourier qutrits of N = 3 measured in the computational basis
    basis = [dw.Effect(np.diag(np.eye(3)[k]).astype(complex)) for k in range(3)]
    files.save_table(dw.guessing_table(dw.fourier_ensemble(3, 3), basis), dw.WitnessKind.GUESSING, "guessing.json")
    names.append(("guessing", "guessing.json"))
    return names


def _commands(table_files: list[tuple[str, str]], small: bool) -> list[list[str]]:
    """The grid's command lines; each runs once as text and once with ``--json``."""
    if small:
        return [
            ["bounds", "--witness", "linear", "--N", "7", "--d", "3"],
            ["states", "--N", "5", "--d", "2", "--out", "states.json"],
            ["evaluate", "--witness", "linear", "--ensemble", "states.json", "--helstrom"],
            ["evaluate", "--witness", table_files[0][0], "--table", table_files[0][1]],
            ["seesaw", "--witness", "linear", "--N", "4", "--d", "2", "--restarts", "3", "--out", "m.json"],
            ["reproduce", "--table", "1"],
            ["classical", "--witness", "quadratic", "--N", "4", "--d", "2"],
            ["bounds", "--witness", "linear", "--N", "3", "--d", "4"],
        ]
    commands = []
    for kind in ("quadratic", "linear", "guessing"):
        for n, d in ((3, 2), (7, 3), (7, 7), (10, 4), (30, 5)):
            commands.append(["bounds", "--witness", kind, "--N", str(n), "--d", str(d)])
    # the linear witness's single-message ceiling is closed form, as from d = N - 1 up
    commands.append(["bounds", "--witness", "linear", "--N", "7", "--d", "1"])
    commands += [["states", "--N", str(n), "--d", str(d), "--out", f"states-{n}-{d}.json"]
                 for n, d in ((5, 2), (7, 3), (30, 4))]
    for kind in ("quadratic", "linear"):
        commands += [["evaluate", "--witness", kind, "--ensemble", f"states-{n}-{d}.json", "--helstrom"]
                     for n, d in ((5, 2), (7, 3), (30, 4))]
    commands += [["evaluate", "--witness", kind, "--table", path] for kind, path in table_files]
    for seed in SEESAW_SEEDS:
        commands += [["seesaw", "--witness", "linear", "--N", str(n), "--d", str(d), "--seed", str(seed),
                      "--out", f"seesaw-{n}-{d}-{seed}.json"] for n, d in TIGHTNESS]
    commands += [
        ["seesaw", "--witness", "quadratic", "--N", "7", "--d", "3", "--out", "seesaw-q-7-3.json"],
        ["seesaw", "--witness", "quadratic", "--N", "5", "--d", "5", "--restarts", "4", "--seed", "9"],
        ["seesaw", "--witness", "linear", "--N", "8", "--d", "3", "--max-iters", "30"],
        ["reproduce", "--table", "1"],
        ["reproduce", "--table", "2", "--nmax", "7"],
        ["reproduce", "--table", "2", "--nmax", "10", "--restarts", "5", "--seed", "3"],
    ]
    for kind in ("quadratic", "linear", "guessing"):
        # (8, 3), (9, 4) and (10, 5) are where the walk skips subtrees; (12, 4) and (12, 5) are
        # its longest walks here, (10, 4) the longest that evaluate --table runs at N = 10, and
        # (12, 6) the one whose forced pairs skip nearly every subtree
        commands += [["classical", "--witness", kind, "--N", str(n), "--d", str(d)]
                     for n, d in ((4, 2), (6, 3), (8, 3), (9, 4), (10, 4), (10, 5), (12, 4), (12, 5), (12, 6))]
    commands.append(["classical", "--witness", "linear", "--N", "2", "--d", "3"])
    # guessing past the pair search guard, where its maximizer is closed form
    commands += [["classical", "--witness", "guessing", "--N", str(n), "--d", str(d)]
                 for n, d in ((30, 3), (1000, 999), (5000, 3))]
    # a single-message pair strategy far past a thousand preparations, within the size bound
    commands.append(["classical", "--witness", "linear", "--N", "1500", "--d", "1"])
    # failures: usage (exit 2), validation (exit 2) and i/o (exit 3)
    commands += [
        ["bounds", "--witness", "linear", "--N", "3", "--d", "4"],
        ["states", "--N", "3", "--d", "0", "--out", "bad.json"],
        ["evaluate", "--witness", "linear", "--ensemble", "missing.json", "--helstrom"],
        ["evaluate", "--witness", "linear", "--table", table_files[0][1], "--ensemble", "states-5-2.json"],
        ["evaluate", "--witness", "quadratic", "--table", "guessing.json"],
        ["seesaw", "--witness", "guessing", "--N", "3", "--d", "2"],
        ["seesaw", "--witness", "linear", "--N", "3", "--d", "2", "--restarts", "0"],
        ["seesaw", "--witness", "linear", "--N", "3", "--d", "2", "--restarts", "1", "--out", "no-such-dir/m.json"],
        ["reproduce", "--table", "1", "--nmax", "5"],
        ["classical", "--witness", "quadratic", "--N", "30", "--d", "2"],
    ]
    return commands


def _run(dw, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = dw.cli.main(argv)
        except SystemExit as exc:  # argparse rejects usage this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _cli(dw, commands: list[list[str]], entries: dict) -> None:
    for command in commands:
        out_file = command[command.index("--out") + 1] if "--out" in command else None
        for argv in (command, command + ["--json"]):
            if out_file is not None and os.path.exists(out_file):
                os.remove(out_file)
            code, out, err = _run(dw, argv)
            name = " ".join(argv)
            entries[f"cli: {name} :: exit"] = _digest(str(code).encode())
            entries[f"cli: {name} :: stderr"] = _digest(err.encode())
            try:
                report = json.loads(out) if argv[-1] == "--json" else None
            except ValueError:
                report = None
            if isinstance(report, dict):
                for key, value in report.items():
                    entries[f"cli: {name} :: {key}"] = _digest(json.dumps(value).encode())
            else:
                entries[f"cli: {name} :: stdout"] = _digest(out.encode())
            if out_file is not None:
                written = Path(out_file).read_bytes() if os.path.exists(out_file) else b"(no file)"
                entries[f"files: {name} :: {out_file}"] = _digest(written)


def snapshot(tree: Path, small: bool = False) -> dict:
    """Every entry of the grid, run against ``tree``'s program, as name -> SHA-256."""
    dw = _import_program(tree)
    entries: dict = {}
    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="snapshot-") as workdir:
        os.chdir(workdir)
        try:
            tables = _tables(dw, entries, small)
            _strategy_tables(dw, entries, small)
            table_files = _table_files(dw, tables)
            for _, path in table_files:
                entries[f"files: save_table :: {path}"] = _digest(Path(path).read_bytes())
            _cli(dw, _commands(table_files, small), entries)
        finally:
            os.chdir(home)
    return entries


def group_hashes(entries: dict) -> dict:
    """One SHA-256 per group over its entries' names and hashes, in sorted order."""
    hashes = {}
    for group in GROUPS:
        lines = [f"{name}\t{digest}\n" for name, digest in sorted(entries.items()) if name.startswith(group + ": ")]
        hashes[group] = (_digest("".join(lines).encode()), len(lines))
    return hashes


def _print_groups(label: str, entries: dict) -> None:
    for group, (digest, count) in group_hashes(entries).items():
        print(f"{label}{group:<7} {digest}  ({count} entries)")


def _run_in(tree: Path, small: bool) -> dict:
    argv = [sys.executable, str(Path(__file__).resolve()), "--tree", str(tree), "--entries"]
    done = subprocess.run(argv + (["--small"] if small else []), capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"snapshot: the grid failed in {tree}:\n{done.stderr}")
    return json.loads(done.stdout)


def differences(here: dict, there: dict) -> list[str]:
    """Each entry that is missing on one side or hashes differently, as one line."""
    lines = []
    for name in sorted(set(here) | set(there)):
        if name not in there:
            lines.append(f"only here:  {name}")
        elif name not in here:
            lines.append(f"only there: {name}")
        elif here[name] != there[name]:
            lines.append(f"differs:    {name}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout whose src/ is imported (default: this script's)")
    parser.add_argument("--small", action="store_true", help="a quick subset of the grid")
    parser.add_argument("--entries", action="store_true", help="print every entry's hash as one JSON object")
    parser.add_argument("--against", type=Path, help="run the same grid in this checkout and list what differs")
    args = parser.parse_args(argv)
    here = snapshot(args.tree, args.small)
    if args.entries:
        print(json.dumps(here, indent=0, sort_keys=True))
        return 0
    if args.against is None:
        _print_groups("", here)
        return 0
    there = _run_in(args.against.resolve(), args.small)
    _print_groups("here   ", here)
    _print_groups("there  ", there)
    changed = [group for group, hashes in group_hashes(here).items() if hashes != group_hashes(there)[group]]
    print(f"groups that differ: {', '.join(changed) or 'none'}")
    lines = differences(here, there)
    print("\n".join(lines) if lines else "no entry differs")
    return 1 if lines else 0


if __name__ == "__main__":
    raise SystemExit(main())
