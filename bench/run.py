"""Benchmark of dimwitness: four workloads, calibrated timings, checked outputs.

    python3 bench/run.py                                  # all four workloads
    python3 bench/run.py --workload noisy_certify --seed 3 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. One run sets up (import, inputs, one warm-up operation, three
times over), then repeats whole rounds of the workload's operations until
``--seconds`` have passed, timing each operation and the calibration
reference next to it, and checking each output independently. The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end with ``--trace 0``, per-layer with
``--trace 1``). Full results and trace spans go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")
WORKLOAD_NAMES = ("tightness_grid", "certify_ensembles", "noisy_certify", "classical_certify")
SETUP_REPEATS = 3

# One process, one BLAS thread: the load is the program's own, not a pool's.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must lie in [0, 2**63)")
    return args


IMPORT_SNIPPET = """
import sys
sys.path.insert(0, sys.argv[1])
import dimwitness
from dimwitness import classical, cli, files, quantum, seesaw, simulate, witnesses
"""


def import_program():
    """Import dimwitness from this checkout's src/; returns (package, seconds)."""
    if not os.path.isfile(os.path.join(SRC, "dimwitness", "__init__.py")):
        raise SystemExit(f"error: no dimwitness sources under {SRC}; run from a source checkout")
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import dimwitness
    from dimwitness import classical, cli, files, quantum, seesaw, simulate, witnesses  # noqa: F401
    seconds = time.perf_counter() - start
    if os.path.dirname(os.path.dirname(os.path.abspath(dimwitness.__file__))) != SRC:
        raise SystemExit(f"error: imported dimwitness from {dimwitness.__file__}, not {SRC}")
    return dimwitness, seconds


def child_import() -> None:
    subprocess.run([sys.executable, "-c", IMPORT_SNIPPET, SRC], capture_output=True, check=True)


def run_all(args) -> int:
    """Run every workload in its own process, one after another."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def measure(args, dw, import_s: float, workdir: str) -> dict:
    import calib
    import checks
    import tracing
    import workloads

    checks.self_test()
    wl = workloads.WORKLOADS[args.workload](dw, args.seed, workdir)
    ref = calib.Reference(*wl.reference)
    for _ in range(5):
        ref.measure()

    # Set-up is timed several times over, in fresh interpreters for the
    # import, and calibrated like every other timing.
    problems: list[str] = []
    import_cal = [ref.calibrated(child_import)[1] for _ in range(SETUP_REPEATS)]

    def set_up():
        ops = wl.setup()
        return ops, ops[0].run()

    setup_runs = []
    for _ in range(SETUP_REPEATS):
        seconds, cal, (ops, warm) = ref.calibrated(set_up)
        setup_runs.append((seconds, cal))
        problems += [f"warm-up {ops[0].name}: {p}" for p in ops[0].check(warm)[1]]
    setup_cal = median(import_cal) + median(cal for _, cal in setup_runs)

    tracer = tracing.Tracer()
    ref.samples.clear()
    clock = calib.Clock(ref)
    rounds = []  # per round: (traced, [op index, ...])
    stretches = {}  # op index -> [(start, end), ...] of the op's own time
    marks = {}  # op index -> [(start, end), ...] of reference samples inside the op
    attempted = failed = 0
    op_index = 0
    start = time.perf_counter()
    while True:
        traced = args.trace == 1 and len(rounds) % 2 == 1
        if traced:
            tracer.install(dw)
        records = []
        for op in ops:
            tracer.op = op_index
            clock.start()
            result = op.run()
            stretches[op_index], marks[op_index] = clock.stop()
            tracer.op = -1
            op_failed, op_problems = op.check(result)
            attempted += 1
            failed += op_failed
            problems += [f"{op.name}: {p}" for p in op_problems]
            records.append(op_index)
            op_index += 1
        if traced:
            tracer.uninstall()
        rounds.append((traced, records))
        enough_rounds = args.trace == 0 or len(rounds) >= 2
        if enough_rounds and time.perf_counter() - start >= args.seconds:
            break

    # (op index, seconds, cal), now that the reference samples after the last op are in
    rounds = [
        (traced, [(i, sum(e - s for s, e in stretches[i]), clock.cal(stretches[i])) for i in indices])
        for traced, indices in rounds
    ]

    plain = [records for traced, records in rounds if not traced]
    plain_cal = [round_cal(r) for r in plain]
    plain_raw = [sum(seconds for _, seconds, _ in r) for r in plain]
    if wl.p50_per_round:
        op_cal = plain_cal
    else:
        op_cal = [cal for records in plain for _, _, cal in records]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "correct": not problems,
        "problems": problems[:20],
        "attempted": attempted,
        "failed": failed,
        "rounds": len(plain),
        "round_cal": plain_cal,
        "round_raw_s": plain_raw,
        "op_samples": len(op_cal),
        "op_p50_cal": median(op_cal),
        "op_p90_cal": statistics.quantiles(op_cal, n=10)[-1] if len(op_cal) >= 100 else None,
        "ref_ms": median(ref.samples) * 1e3,
        "ref_samples_ms": [s * 1e3 for s in ref.samples],
        "import_s": import_s,
        "import_cal": import_cal,
        "setup_repeats_s": [seconds for seconds, _ in setup_runs],
        "setup_repeats_cal": [cal for _, cal in setup_runs],
    }
    result["end_to_end"] = {
        "wall_cal": {"value": median(plain_cal), "unit": "cal"},
        "op_p50_cal": {"value": median(op_cal), "unit": "cal"},
        "setup_s": {"value": setup_cal * calib.SETUP_SECONDS_PER_CAL, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }
    if args.trace == 1:
        traced_rounds = [records for traced, records in rounds if traced]
        result["per_layer"] = per_layer(tracer, traced_rounds, marks, plain_cal, plain_raw, wl.gaps, result["ref_ms"])
        with open(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"), "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    return result


def round_cal(records) -> float:
    return sum(cal for _, _, cal in records)


SPAN_METRICS = {
    "seesaw.optimize_cal": "seesaw.optimize",
    "quantum.helstrom_cal": "quantum.helstrom",
    "simulate.born_cal": "simulate.born",
    "simulate.noisy_table_cal": "simulate.noisy_table",
    "files.load_ensemble_cal": "files.load_ensemble",
    "files.load_table_cal": "files.load_table",
    "files.save_table_cal": "files.save_table",
    "files.save_dump_cal": "files.save_dump",
    "witnesses.evaluate_cal": "witnesses.evaluate",
    "witnesses.certify_cal": "witnesses.certify",
    "classical.enumerate_cal": "classical.enumerate",
}


def per_layer(tracer, traced_rounds, marks, plain_cal, plain_raw, gaps, ref_ms) -> dict:
    """Per-round self time of each layer in cal, counts per round, and rates."""
    op_seconds = {i: seconds for records in traced_rounds for i, seconds, _ in records}
    op_scale = {i: seconds / cal for records in traced_rounds for i, seconds, cal in records}
    n_rounds = len(traced_rounds)
    # reference samples taken inside a span are not the span's own time
    sampled = [
        sum(e - s for s, e in marks[op] if s >= start and e <= end)
        for _, start, end, _, op in tracer.spans
    ]
    self_cal: dict[str, float] = {}
    total_cal: dict[str, float] = {}
    top_level = {i: 0.0 for i in op_seconds}
    for name, op, duration, self_time, parent in tracer.self_times(sampled):
        self_cal[name] = self_cal.get(name, 0.0) + self_time / op_scale[op]
        total_cal[name] = total_cal.get(name, 0.0) + duration / op_scale[op]
        if parent == -1:
            top_level[op] += duration
    counts: dict[str, float] = {}
    for per_op in tracer.counts.values():
        for name, amount in per_op.items():
            counts[name] = counts.get(name, 0.0) + amount

    def rate(count: str, span: str) -> float:
        return counts.get(count, 0.0) / total_cal[span] if total_cal.get(span) else 0.0

    metrics = {name: (self_cal.get(span, 0.0) / n_rounds, "cal") for name, span in SPAN_METRICS.items()}
    metrics.update({
        "cli.self_cal": (sum((op_seconds[i] - top_level[i]) / op_scale[i] for i in op_seconds) / n_rounds, "cal"),
        "seesaw.sweeps": (counts.get("seesaw.sweeps", 0.0) / n_rounds, "count"),
        "seesaw.sweeps_per_cal": (rate("seesaw.sweeps", "seesaw.optimize"), "1/cal"),
        "seesaw.max_gap": (max(gaps, default=0.0), "witness"),
        "linalg.eigh_calls": (counts.get("linalg.eigh_calls", 0.0) / n_rounds, "count"),
        "linalg.eigh_matrices": (counts.get("linalg.eigh_matrices", 0.0) / n_rounds, "count"),
        "simulate.cells_per_cal": (rate("simulate.cells", "simulate.noisy_table"), "1/cal"),
        "classical.encodings": (counts.get("classical.encodings", 0.0) / n_rounds, "count"),
        "classical.encodings_per_cal": (rate("classical.encodings", "classical.enumerate"), "1/cal"),
        "run.wall_s": (median(plain_raw), "s"),
        "run.ref_ms": (ref_ms, "ms"),
        "run.trace_overhead_cal": (median([round_cal(r) for r in traced_rounds]) - median(plain_cal), "cal"),
    })
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def report(result: dict) -> None:
    metrics = result["per_layer"] if result["trace"] else result["end_to_end"]
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
          f"{result['attempted']} attempted, {result['failed']} failed, "
          f"{'correct' if result['correct'] else 'INCORRECT'}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    notes = {
        "wall_cal": f"median of {result['rounds']} rounds; raw {median(result['round_raw_s']):.3f} s/round",
        "op_p50_cal": f"n={result['op_samples']}"
        + (f", p90 {result['op_p90_cal']:.4f} cal" if result["op_p90_cal"] is not None else ""),
        "setup_s": f"median of {SETUP_REPEATS} imports + median of {SETUP_REPEATS} set-ups, in cal at 1 ms per cal",
    }
    for name, metric in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<28} {metric['value']:>14.6g} {metric['unit']}{note}")
    print(f"  reference: {result['ref_ms']:.4f} ms per cal")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    dw, import_s = import_program()
    sys.path.insert(0, BENCH_DIR)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        result = measure(args, dw, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    report(result)
    metrics = result["per_layer"] if args.trace else result["end_to_end"]
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
