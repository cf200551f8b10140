"""Run-to-run spread of the end-to-end metrics, raw seconds beside calibrated.

    python3 bench/spread.py --workload tightness_grid --seeds 1-10 --label A

Runs ``run.py`` once per seed, one run at a time, and prints each run's
metrics, their median, and the spread: the distance between the first and
third quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median. ``raw_round_s`` is the same round timed in plain seconds, which
shows what the calibration removes. The summary also goes to
``bench/out/spread-<workload>-<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--label", default="A")
    args = parser.parse_args()

    rows = []
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(os.path.join(BENCH_DIR, "out", f"result-{args.workload}-seed{seed}-trace0.json"),
                  encoding="utf-8") as fh:
            full = json.load(fh)
        row = {name: m["value"] for name, m in last["metrics"].items()}
        row["raw_round_s"] = statistics.median(full["round_raw_s"])
        row["ref_ms"] = full["ref_ms"]
        row["failed_share"] = last["failed"] / last["attempted"]
        row["correct"] = last["correct"]
        rows.append(row)
        print(f"seed {seed}: " + "  ".join(f"{k}={v:.5g}" if isinstance(v, float) else f"{k}={v}"
                                         for k, v in row.items()), flush=True)

    names = [k for k in rows[0] if k != "correct"]
    summary = {"workload": args.workload, "label": args.label, "seeds": args.seeds, "runs": rows,
               "median": {}, "spread": {}}
    for name in names:
        values = [r[name] for r in rows]
        summary["median"][name] = statistics.median(values)
        summary["spread"][name] = spread(values) if len(values) > 1 and statistics.median(values) else 0.0
        print(f"  {name:<14} median {summary['median'][name]:12.6g}   spread {summary['spread'][name]:.4f}")
    out = os.path.join(BENCH_DIR, "out", f"spread-{args.workload}-{args.label}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
