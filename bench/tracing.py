"""In-memory spans and counters around calls into dimwitness's public functions.

A traced run replaces the names the program looks up at call time with
timing wrappers, so every call from the CLI, from one module into another, or
from the benchmark itself lands in a span (name, start, end, parent, op).
numpy's Hermitian eigensolvers are wrapped for counts only: a span per call
would cost more than the call. ``uninstall`` puts every original back, so a
run can alternate traced and untraced rounds.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[self.op][name] += amount

    def _wrap(self, owner, attr: str, span: str | None, on_return=None) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if span is None:
                result = original(*args, **kwargs)
                if tracer.op >= 0 and on_return is not None:
                    on_return(tracer, args, kwargs, result)
                return result
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append((span, 0.0, 0.0, parent, tracer.op))
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (span, start, end, parent, tracer.op)
            if on_return is not None:
                on_return(tracer, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._saved.append((owner, attr, original))

    def install(self, dw) -> None:
        """Wrap each public function under the name its callers resolve."""
        cli, files, simulate = dw.cli, dw.files, dw.simulate

        def sweeps(tracer, args, kwargs, result):
            tracer.count("seesaw.sweeps", result.iterations_used)

        def encodings(tracer, args, kwargs, result):
            kind, n, d = args[:3]
            tracer.count("classical.encodings", canonical_encodings(n, min(d, n)))

        def cells(tracer, args, kwargs, result):
            noise = args[2] if len(args) > 2 else kwargs["noise"]
            if noise.shots is not None:
                tracer.count("simulate.cells", result.N * result.m)

        def eigh_count(tracer, args, kwargs, result):
            counts = tracer.counts[tracer.op]
            counts["linalg.eigh_calls"] += 1
            counts["linalg.eigh_matrices"] += math.prod(np.shape(args[0])[:-2])

        self._wrap(cli, "helstrom_measurements", "quantum.helstrom")
        self._wrap(cli, "evaluate", "witnesses.evaluate")
        self._wrap(cli, "certify_dimension", "witnesses.certify")
        # certify_dimension and the classical subcommand both reach it
        # through the module object
        self._wrap(dw.classical, "enumerate_max", "classical.enumerate", encodings)
        self._wrap(dw.seesaw, "optimize", "seesaw.optimize", sweeps)
        self._wrap(files, "load_ensemble", "files.load_ensemble")
        self._wrap(files, "load_table", "files.load_table")
        self._wrap(files, "save_table", "files.save_table")
        self._wrap(files, "save_seesaw_dump", "files.save_dump")
        # noisy_table resolves born_table through its module globals, so
        # exact Born work inside it shows as a child span
        self._wrap(simulate, "born_table", "simulate.born")
        self._wrap(simulate, "noisy_table", "simulate.noisy_table", cells)
        self._wrap(np.linalg, "eigh", None, eigh_count)
        self._wrap(np.linalg, "eigvalsh", None, eigh_count)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self, excluded: list[float]) -> list[tuple[str, int, float, float, int]]:
        """(name, op, duration, self time, parent) per span.

        ``excluded[i]`` is time inside span i that belongs to no layer; self
        time also excludes the child spans.
        """
        durations = [end - start - excluded[i] for i, (_, start, end, _, _) in enumerate(self.spans)]
        child = [0.0] * len(self.spans)
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += durations[i]
        return [
            (name, op, durations[i], durations[i] - child[i], parent)
            for i, (name, _, _, parent, op) in enumerate(self.spans)
        ]

    def dump(self) -> dict:
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "op": o}
                for n, s, e, p, o in self.spans
            ],
            "counts": {str(op): dict(c) for op, c in self.counts.items()},
        }


def canonical_encodings(n: int, d: int) -> int:
    """Restricted-growth strings of length n over at most d symbols."""
    # S(i, j) = j S(i-1, j) + S(i-1, j-1), summed over j <= d
    row = [1] + [0] * d
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, d + 1)]
    return sum(row)
