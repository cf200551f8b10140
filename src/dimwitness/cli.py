"""Command-line front end.

Subcommands::

    bounds     closed-form quantum/classical ceilings for one witness
    states     write a Fourier-phase ensemble to a JSON file
    evaluate   witness value + minimal-dimension certification for a model
    seesaw     numerical attainability search for the pair witnesses
    reproduce  print the reference bound table (1) or tightness grid (2)
    classical  exact deterministic maximum vs the closed form

``evaluate --ensemble F --helstrom`` reads a pair witness off the Helstrom
pair differences, which are the pair trace distances
(``quantum.helstrom_differences``): it builds no effects and no Born table.

Exit codes: 0 on success, 2 for usage or validation problems, 3 for I/O
problems. ``--json`` switches every subcommand to machine-readable output.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from . import classical as classical_mod
from . import files, seesaw
from .errors import BadArgument, DimWitnessError
from .quantum import fourier_ensemble, helstrom_differences
from .quantum import helstrom_measurements  # noqa: F401  bench/tracing.py wraps it as a cli attribute
from .witnesses import (
    ANALYTIC_SLACK,
    WitnessKind,
    certify_dimension,
    classical_bound,
    evaluate,
    pair_value,
    quantum_bound,
)

_REPRODUCE_N = 7  # preparations used by the reference bound table


def _fmt(value: float, decimals: int = 6) -> str:
    """Fixed decimals, except exact integers print bare."""
    if value == int(value):
        return str(int(value))
    return f"{value:.{decimals}f}"


def _report(args, fields: list, notes=()) -> None:
    """Print one report from its fields: ``label: text`` lines, then ``notes``,
    or under ``--json`` one object of ``key: value`` entries.

    A field is a (label, key, value, text) row; one with no label is
    JSON-only and one with no key text-only.
    """
    if args.json:
        print(json.dumps({key: value for _, key, value, _ in fields if key is not None}))
    else:
        print("\n".join([f"{label}: {text}" for label, _, _, text in fields if label is not None] + list(notes)))


def _setting(kind: WitnessKind, n: int, d: int | None = None) -> list:
    """The witness, N and (when given) d fields that open a report."""
    fields = [("witness", "witness", kind.value, kind.value), ("N", "N", n, n)]
    return fields if d is None else fields + [("d", "d", d, d)]


def _cmd_bounds(args) -> int:
    kind = WitnessKind(args.witness)
    quantum = quantum_bound(kind, args.N, args.d)
    classical = classical_bound(kind, args.N, args.d)
    _report(args, _setting(kind, args.N, args.d) + [
        ("Q_d", "quantum_bound", quantum, _fmt(quantum)),
        ("C_d", "classical_bound", classical,
         "requires enumeration (no closed form at this N, d)" if classical is None else _fmt(classical)),
        (None, "classical_bound_exact", classical is not None, None),
    ])
    return 0


def _cmd_states(args) -> int:
    ensemble = fourier_ensemble(args.N, args.d)
    files.save_ensemble(ensemble, args.out)
    _report(args, [
        (None, "N", args.N, None),
        (None, "d", args.d, None),
        (None, "out", args.out, None),
    ], [f"wrote fourier ensemble N={args.N} d={args.d} to {args.out}"])
    return 0


def _cmd_evaluate(args) -> int:
    kind = WitnessKind(args.witness)
    if (args.table is None) == (args.ensemble is None):
        raise DimWitnessError("provide exactly one of --table or --ensemble")
    if args.helstrom and args.ensemble is None:
        raise DimWitnessError("--helstrom only applies with --ensemble")
    if args.table is not None:
        table, declared = files.load_table(args.table)
        if declared is not kind:
            raise DimWitnessError(
                f"table declares witness '{declared.value}' but --witness is '{kind.value}'"
            )
        n, value, empirical = table.N, evaluate(kind, table), table.empirical
    else:
        if kind is WitnessKind.GUESSING:
            raise DimWitnessError("--ensemble evaluation supports the pair witnesses; "
                                  "evaluate the guessing witness from a table file")
        if not args.helstrom:
            raise DimWitnessError("--ensemble needs --helstrom to derive the pair measurements")
        ensemble = files.load_ensemble(args.ensemble)
        n, value, empirical = ensemble.N, pair_value(kind, helstrom_differences(ensemble)), False

    quantum_d, classical_d = certify_dimension(kind, n, value)
    _report(args, _setting(kind, n) + [
        ("value", "value", value, f"{value:.6f}"),
        ("min quantum dimension", "min_quantum_d", quantum_d, quantum_d),
        ("min classical dimension", "min_classical_d", classical_d,
         "unknown (enumeration guard exceeded)" if classical_d is None else classical_d),
        (None, "empirical", empirical, None),
    ], ["note: table holds empirical frequencies"] if empirical else [])
    return 0


def _cmd_seesaw(args) -> int:
    kind = WitnessKind(args.witness)
    cfg = seesaw.SeesawConfig(
        witness=kind,
        N=args.N,
        d=args.d,
        restarts=args.restarts,
        max_iters=args.max_iters,
        seed=args.seed,
    )
    if args.out is not None:
        files.require_output_path(args.out)
    result = seesaw.optimize(cfg)
    bound = quantum_bound(kind, args.N, args.d)
    gap = bound - result.best_value
    if args.out is not None:
        files.save_seesaw_dump(result.ensemble, args.out)
    _report(args, _setting(kind, args.N, args.d) + [
        ("best value", "best_value", result.best_value, f"{result.best_value:.6f}"),
        ("Q_d", "quantum_bound", bound, f"{bound:.6f}"),
        ("gap", "gap", gap, f"{gap:.3e}"),
        ("restarts", None, None, args.restarts),
        (None, "restart_values", list(result.restart_values), None),
        (None, "restart_sweeps", list(result.restart_sweeps), None),
        (None, "restart_stops", list(result.restart_stops), None),
        (None, "restart_halvings", list(result.restart_halvings), None),
        ("iterations", "iterations_used", result.iterations_used, result.iterations_used),
        (None, "out", args.out, None),
    ], [f"wrote model to {args.out}"] if args.out is not None else [])
    return 0


def _reproduce_bound_table(args) -> int:
    dims = list(range(2, _REPRODUCE_N + 1))
    classical = [classical_bound(WitnessKind.QUADRATIC, _REPRODUCE_N, d) for d in dims]
    quantum = [quantum_bound(WitnessKind.QUADRATIC, _REPRODUCE_N, d) for d in dims]
    rows = [
        ("d", [str(d) for d in dims]),
        ("C_d", [_fmt(c, 2) for c in classical]),
        ("Q_d", [_fmt(q, 2) for q in quantum]),
    ]
    lines = [f"Pair-comparison witness at N={_REPRODUCE_N}: classical (C_d) vs quantum (Q_d) maxima"]
    for label, cells in rows:
        lines.append((f"{label:<6}" + "".join(f"{cell:<7}" for cell in cells)).rstrip())
    _report(args, [
        (None, "witness", "quadratic", None),
        (None, "N", _REPRODUCE_N, None),
        (None, "d", dims, None),
        (None, "classical", classical, None),
        (None, "quantum", quantum, None),
    ], lines)
    return 0


def _reproduce_tightness(args, nmax=7, restarts=seesaw.SeesawConfig.restarts, seed=seesaw.SeesawConfig.seed) -> int:
    entries = seesaw.verify_table2(nmax, restarts=restarts, seed=seed)
    tol = seesaw.ATTAINMENT_GAP
    lines = [f"Linear-witness tightness grid (restarts={restarts}, seed={seed}, tol={tol:.1e})"]
    for e in entries:
        status = "attained" if e.attained else "not attained"
        lines.append(f"N={e.N} d={e.d}: Q_d {e.bound:.6f}  best {e.best_value:.6f}  gap {e.gap:.2e}  {status}")
    if nmax >= 8:
        lines.append("note: N >= 8 rows are local-search reports; a miss is inconclusive")
    _report(args, [
        (None, "restarts", restarts, None),
        (None, "seed", seed, None),
        (None, "tol", tol, None),
        (None, "entries", [dataclasses.asdict(e) for e in entries], None),
    ], lines)
    return 0


def _cmd_reproduce(args) -> int:
    # the table 2 options default to absent, so table 1 can refuse any that were given
    given = {name: getattr(args, name) for name in ("nmax", "restarts", "seed") if hasattr(args, name)}
    if args.table == 2:
        return _reproduce_tightness(args, **given)
    if given:
        raise BadArgument(f"--table 2 settings given with --table 1: {', '.join('--' + name for name in given)}")
    return _reproduce_bound_table(args)


def _cmd_classical(args) -> int:
    kind = WitnessKind(args.witness)
    value, strategy = classical_mod.enumerate_max(kind, args.N, args.d)
    closed = classical_bound(kind, args.N, args.d)
    if closed is None:
        verdict = "no closed form"
    elif abs(closed - value) <= ANALYTIC_SLACK:
        verdict = "match"
    else:
        verdict = "MISMATCH"
    _report(args, _setting(kind, args.N, args.d) + [
        ("enumerated maximum", "enumerated", value, _fmt(value)),
        ("closed-form value", "closed_form", closed, "none" if closed is None else _fmt(closed)),
        ("verdict", "verdict", verdict, verdict),
        ("optimal encoding", "encoding", strategy.encoding.tolist(), tuple(strategy.encoding.tolist())),
    ])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimwitness",
        description="dimension-witness bounds, evaluation, certification, and attainability",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")

    witness_choices = [k.value for k in WitnessKind]
    pair_choices = [WitnessKind.QUADRATIC.value, WitnessKind.LINEAR.value]

    p = sub.add_parser("bounds", parents=[common], help="closed-form ceilings Q_d and C_d")
    p.add_argument("--witness", choices=witness_choices, required=True)
    p.add_argument("--N", type=int, required=True, help="number of preparations")
    p.add_argument("--d", type=int, required=True, help="system dimension")
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("states", parents=[common], help="write a Fourier-phase ensemble")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(handler=_cmd_states)

    p = sub.add_parser("evaluate", parents=[common], help="witness value + certified dimensions")
    p.add_argument("--witness", choices=witness_choices, required=True)
    p.add_argument("--table", help="probability-table JSON file")
    p.add_argument("--ensemble", help="ensemble JSON file")
    p.add_argument(
        "--helstrom",
        action="store_true",
        help="derive the optimal pair measurements for --ensemble",
    )
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("seesaw", parents=[common], help="L-BFGS attainability search over pure states")
    p.add_argument("--witness", choices=pair_choices, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--restarts", type=int, default=seesaw.SeesawConfig.restarts)
    p.add_argument("--seed", type=int, default=seesaw.SeesawConfig.seed)
    p.add_argument("--max-iters", type=int, default=seesaw.SeesawConfig.max_iters)
    p.add_argument("--out", help="write the best model to this JSON path")
    p.set_defaults(handler=_cmd_seesaw)

    p = sub.add_parser("reproduce", parents=[common], help="print a reference table")
    p.add_argument("--table", type=int, choices=(1, 2), required=True)
    p.add_argument("--nmax", type=int, default=argparse.SUPPRESS, help="largest N for table 2")
    p.add_argument("--restarts", type=int, default=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.set_defaults(handler=_cmd_reproduce)

    p = sub.add_parser("classical", parents=[common], help="deterministic-strategy maximum")
    p.add_argument("--witness", choices=witness_choices, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(handler=_cmd_classical)

    return parser


_parser = functools.cache(build_parser)  # building costs ~20x a parse: pay it once


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except DimWitnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
