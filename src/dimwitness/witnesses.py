"""Dimension-witness functionals on probability tables and their ceilings.

Three witnesses over prepare-and-measure data P(b|x,y) are supported:

* guessing   -- one measurement with as many outcomes as preparations;
                value is the average probability of naming the preparation.
* quadratic  -- one binary measurement per preparation pair (x, x'), x > x';
                value is the sum of squared outcome-probability differences.
* linear     -- same measurements, summing the signed differences instead.

For each witness the module provides the maximum value reachable with
d-dimensional quantum systems (``quantum_bound``) and, where a closed form
exists, with d-dimensional classical systems (``classical_bound``), plus the
inverse question: the smallest dimension compatible with an observed value
(``certify_dimension``).
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import BadArgument, OutOfRange, ShapeMismatch, TooLarge, require_int
from .kernels import pair_labels
from .linalg import PROBABILITY_TOL, ROW_SUM_TOL

#: Comparison slack against closed-form bounds.
ANALYTIC_SLACK = 1e-9
#: Comparison slack against enumerated or otherwise numerical bounds.
NUMERIC_SLACK = 1e-6


class WitnessKind(enum.Enum):
    GUESSING = "guessing"
    QUADRATIC = "quadratic"
    LINEAR = "linear"

    def table_shape(self, n_preparations: int) -> tuple[int, int]:
        """Expected (measurements, outcomes) for a table with N preparations."""
        if self is WitnessKind.GUESSING:
            return 1, n_preparations
        m = n_preparations * (n_preparations - 1) // 2
        return m, 2


@dataclass(frozen=True, eq=False)
class ProbabilityTable:
    """Conditional probabilities ``p[x-1, y-1, b-1] = P(b|x, y)``.

    The array has shape (N, m, k). Each conditional distribution must be
    normalized within tolerance; entries may undershoot 0 or overshoot 1 only
    by the probability tolerance. Tables need not be realizable by any
    quantum or classical model -- the witnesses are functionals on data.

    ``empirical`` marks tables whose cells are finite-shot frequencies rather
    than exact model probabilities.
    """

    p: np.ndarray
    empirical: bool = False

    def __post_init__(self) -> None:
        arr = np.asarray(self.p, dtype=float)
        if arr.ndim != 3 or min(arr.shape) < 1:
            raise ShapeMismatch(f"table must have shape (N, m, k), got {arr.shape}")
        # NaN fails both comparisons, so the range check also catches it
        if not (arr.min() >= -PROBABILITY_TOL and arr.max() <= 1 + PROBABILITY_TOL):
            if not np.isfinite(arr).all():
                raise ShapeMismatch("table entries must be finite")
            raise ShapeMismatch("table entries must lie in [0, 1] within tolerance")
        worst = float(np.max(np.abs(arr.sum(axis=2) - 1.0)))
        if worst > ROW_SUM_TOL:
            raise ShapeMismatch(f"conditional distributions must sum to 1; worst deviation {worst:.3e}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "p", arr)

    @property
    def N(self) -> int:
        return self.p.shape[0]

    @property
    def m(self) -> int:
        return self.p.shape[1]

    @property
    def k(self) -> int:
        return self.p.shape[2]


def require_kind_shape(table: ProbabilityTable, kind: WitnessKind) -> None:
    """Raise ``ShapeMismatch`` unless the table has the kind's shape."""
    expected = kind.table_shape(table.N)
    if (table.m, table.k) != expected:
        raise ShapeMismatch(
            f"{kind.value} witness with N={table.N} needs (m, k)={expected}, got ({table.m}, {table.k})"
        )


def pair_differences(table: ProbabilityTable) -> np.ndarray:
    """P(1|x,(x,x')) - P(1|x',(x,x')) for every pair, in ``pair_labels`` order."""
    if table.k != 2 or table.m != table.N * (table.N - 1) // 2:
        raise ShapeMismatch("pair differences need a pair-witness shaped table")
    return kernels.pair_differences(table.p[:, :, 0])


def eval_guessing(table: ProbabilityTable) -> float:
    """Average probability of outcome b = x under preparation x."""
    require_kind_shape(table, WitnessKind.GUESSING)
    return float(np.mean(np.diagonal(table.p[:, 0, :])))


def eval_quadratic(table: ProbabilityTable) -> float:
    """Sum of squared pair differences; ranges over [0, N(N-1)/2]."""
    require_kind_shape(table, WitnessKind.QUADRATIC)
    d = pair_differences(table)
    return float(np.dot(d, d))


def eval_linear(table: ProbabilityTable) -> float:
    """Sum of signed pair differences; ranges over [-N(N-1)/2, N(N-1)/2]."""
    require_kind_shape(table, WitnessKind.LINEAR)
    return float(np.sum(pair_differences(table)))


def evaluate(kind: WitnessKind, table: ProbabilityTable) -> float:
    """Dispatch to the evaluator for ``kind``."""
    if kind is WitnessKind.GUESSING:
        return eval_guessing(table)
    if kind is WitnessKind.QUADRATIC:
        return eval_quadratic(table)
    return eval_linear(table)


def require_bound_args(n_preparations: int, dim: int) -> tuple[int, int]:
    """(N, d) of a ceiling or an enumeration as ``int``s: integers with N >= 2, d >= 1."""
    n, dim = require_int(n_preparations, "n_preparations"), require_int(dim, "dim")
    if n < 2:
        raise BadArgument(f"need at least 2 preparations, got {n}")
    if dim < 1:
        raise BadArgument(f"dimension must be positive, got {dim}")
    return n, dim


def quantum_bound(kind: WitnessKind, n_preparations: int, dim: int) -> float:
    """Largest witness value reachable with dim-dimensional quantum systems."""
    return _quantum_ceiling(kind, *require_bound_args(n_preparations, dim))


def _quantum_ceiling(kind: WitnessKind, n: int, dim: int) -> float:
    # the closed forms behind quantum_bound, on checked (N, d)
    deff = min(dim, n)
    if kind is WitnessKind.GUESSING:
        return deff / n
    if kind is WitnessKind.QUADRATIC:
        # written as a difference so the value is exact whenever deff divides n
        return n * n / 2.0 - n * n / (2.0 * deff)
    return n * math.sqrt(n * (n - 1)) / 2.0 * math.sqrt(1.0 - 1.0 / deff)


def max_distinct_pairs(n_items: int, n_groups: int) -> int:
    """Unordered pairs with members in different groups, most balanced split.

    Splitting n items into groups whose sizes differ by at most one maximizes
    the count; the closed form below equals that maximum for every
    ``n_groups >= 1`` (it returns 0 for a single group and n(n-1)/2 once
    ``n_groups >= n_items``).
    """
    q = n_items // n_groups
    return n_items * (n_items - 1) // 2 - q * n_items + n_groups * q * (q + 1) // 2


def classical_bound(kind: WitnessKind, n_preparations: int, dim: int) -> float | None:
    """Largest witness value reachable classically with dim messages.

    Returns ``None`` for the linear witness away from dim = N - 1, where no
    closed form is available; use the enumeration oracle in
    :mod:`dimwitness.classical` instead.
    """
    return _classical_ceiling(kind, *require_bound_args(n_preparations, dim))


def _classical_ceiling(kind: WitnessKind, n: int, dim: int) -> float | None:
    # the closed forms behind classical_bound, on checked (N, d)
    if kind is WitnessKind.GUESSING:
        return min(dim, n) / n
    if kind is WitnessKind.QUADRATIC or dim == n - 1:
        return float(max_distinct_pairs(n, min(dim, n)))
    return None


@dataclass(frozen=True)
class BoundReport:
    """Both ceilings of one witness at fixed (N, d).

    ``classical_bound_exact`` is True when the classical value comes from a
    closed form; False means it is absent here and requires the enumeration
    oracle.
    """

    kind: WitnessKind
    N: int
    d: int
    quantum_bound: float
    classical_bound: float | None
    classical_bound_exact: bool

    def __post_init__(self) -> None:
        if self.classical_bound is not None and self.classical_bound > self.quantum_bound + ANALYTIC_SLACK:
            raise BadArgument(
                f"classical bound {self.classical_bound} exceeds quantum bound {self.quantum_bound}"
            )


def bound_report(kind: WitnessKind, n_preparations: int, dim: int) -> BoundReport:
    """Assemble quantum and (when closed-form) classical bounds."""
    n, dim = require_bound_args(n_preparations, dim)
    q = _quantum_ceiling(kind, n, dim)
    c = _classical_ceiling(kind, n, dim)
    return BoundReport(kind, n, dim, q, c, c is not None)


class CertifiedDimensions(NamedTuple):
    min_quantum_d: int
    min_classical_d: int | None


def _witness_range(kind: WitnessKind, n_preparations: int) -> tuple[float, float]:
    m = n_preparations * (n_preparations - 1) / 2.0
    if kind is WitnessKind.GUESSING:
        return 0.0, 1.0
    if kind is WitnessKind.QUADRATIC:
        return 0.0, m
    return -m, m


def certify_dimension(kind: WitnessKind, n_preparations: int, value: float) -> CertifiedDimensions:
    """Smallest quantum and classical dimensions compatible with ``value``.

    The quantum side scans d = 1..N against the closed-form ceilings with the
    analytic comparison slack. The classical side does the same where a
    closed form exists and falls back to the deterministic-strategy
    enumeration (with the looser numeric slack) for the linear witness away
    from d = N - 1; if that enumeration would exceed its search guard the
    classical answer is reported as ``None`` rather than guessed.

    Raises ``OutOfRange`` when ``value`` exceeds the unrestricted ceiling (or
    undershoots the witness range) by more than the numeric slack.
    """
    n, _ = require_bound_args(n_preparations, 1)
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise BadArgument(f"witness value must be a finite number, got {value!r}")
    lo, hi = _witness_range(kind, n)
    if value < lo - NUMERIC_SLACK:
        raise OutOfRange(f"value {value} below the {kind.value} witness range [{lo}, {hi}]")
    ceiling = _quantum_ceiling(kind, n, n)
    if value > ceiling + NUMERIC_SLACK:
        raise OutOfRange(f"value {value} exceeds the unrestricted ceiling {ceiling}")

    min_quantum = n
    for d in range(1, n + 1):
        if _quantum_ceiling(kind, n, d) >= value - ANALYTIC_SLACK:
            min_quantum = d
            break

    from . import classical  # deferred: classical depends on this module

    min_classical: int | None = None
    for d in range(1, n + 1):
        bound = _classical_ceiling(kind, n, d)
        slack = ANALYTIC_SLACK
        if bound is None:
            try:
                bound, _ = classical.enumerate_max(kind, n, d)
            except TooLarge:
                break
            slack = NUMERIC_SLACK
        if bound >= value - slack:
            min_classical = d
            break
    return CertifiedDimensions(min_quantum, min_classical)
