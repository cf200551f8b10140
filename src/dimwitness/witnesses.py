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
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import kernels
from .errors import BadArgument, OutOfRange, ShapeMismatch, TooLarge, require_int, require_real
from .linalg import PROBABILITY_TOL, ROW_SUM_TOL, real_array

#: Comparison slack against closed-form bounds.
ANALYTIC_SLACK = 1e-9
#: How far a numerically computed value may pass a ceiling or leave the witness range.
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

    The array has shape (N, m, k) and holds real numbers: ragged input and
    string, bool or complex entries raise ``BadArgument``. Each conditional
    distribution must be normalized within tolerance; entries may undershoot
    0 or overshoot 1 only by the probability tolerance. Tables need not be
    realizable by any quantum or classical model -- the witnesses are
    functionals on data.

    ``empirical``, a bool, marks tables whose cells are finite-shot
    frequencies rather than exact model probabilities.
    """

    p: np.ndarray
    empirical: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.empirical, bool):
            raise BadArgument(f"empirical must be True or False, got {self.empirical!r}")
        arr = real_array(self.p, "a table must be an (N, m, k) array of real numbers")
        if arr.ndim != 3 or min(arr.shape) < 1:
            raise ShapeMismatch(f"table must have shape (N, m, k), got {arr.shape}")
        # NaN fails both comparisons, so the range check also catches it
        if not (arr.min() >= -PROBABILITY_TOL and arr.max() <= 1 + PROBABILITY_TOL):
            if not np.isfinite(arr).all():
                raise ShapeMismatch("table entries must be finite")
            raise ShapeMismatch("table entries must lie in [0, 1] within tolerance")
        # a matmul row sum is ~15x faster than sum(axis=2), and the same bits for k = 2
        worst = float(np.max(np.abs(arr @ np.ones(arr.shape[2]) - 1.0)))
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


def require_kind(kind) -> WitnessKind:
    """``kind`` if it is a ``WitnessKind``; anything else, its value as a string too, raises ``BadArgument``."""
    if not isinstance(kind, WitnessKind):
        raise BadArgument(f"witness kind must be a WitnessKind, got {kind!r}")
    return kind


def _require_table(table) -> ProbabilityTable:
    if not isinstance(table, ProbabilityTable):
        raise BadArgument(f"table must be a ProbabilityTable, got {type(table).__name__}")
    return table


def require_kind_shape(table: ProbabilityTable, kind: WitnessKind) -> None:
    """Raise ``BadArgument`` unless ``kind`` is a ``WitnessKind`` and ``table`` a ``ProbabilityTable``,
    ``ShapeMismatch`` unless the table has the kind's shape."""
    require_kind(kind)
    expected = kind.table_shape(_require_table(table).N)
    if (table.m, table.k) != expected:
        raise ShapeMismatch(
            f"{kind.value} witness with N={table.N} needs (m, k)={expected}, got ({table.m}, {table.k})"
        )


def pair_differences(table: ProbabilityTable) -> np.ndarray:
    """P(1|x,(x,x')) - P(1|x',(x,x')) for every pair, in ``pair_labels`` order."""
    _require_table(table)
    if table.k != 2 or table.m != table.N * (table.N - 1) // 2:
        raise ShapeMismatch("pair differences need a pair-witness shaped table")
    return kernels.pair_differences(table.p[:, :, 0])


def pair_value(kind: WitnessKind, differences: np.ndarray) -> float:
    """A pair witness from its pair differences: their sum (linear) or their sum of squares (quadratic).

    ``differences`` must be a 1-D array of N(N-1)/2 finite real numbers for some N >= 2, else
    ``BadArgument``, which is also raised when finite differences give a witness past the float range.
    """
    require_kind(kind)
    differences = real_array(differences, "pair differences must be a 1-D array of real numbers")
    if differences.ndim != 1 or kernels.preparation_count(len(differences)) is None:
        raise BadArgument(f"need N(N-1)/2 pair differences for some N >= 2, got shape {differences.shape}")
    if kind is WitnessKind.QUADRATIC:
        value = float(np.dot(differences, differences))
    elif kind is WitnessKind.LINEAR:
        value = float(np.sum(differences))
    else:
        raise BadArgument(f"the {kind.value} witness is not a pair witness")
    # as in ProbabilityTable, the entries are scanned only when the value shows something is wrong
    if not math.isfinite(value):
        if not np.isfinite(differences).all():
            raise BadArgument("pair differences must be finite")
        raise BadArgument(f"the {kind.value} witness of these pair differences overflows a float")
    return value


def evaluate(kind: WitnessKind, table: ProbabilityTable) -> float:
    """The ``kind`` witness of a table of its shape.

    guessing: the average probability of outcome b = x under preparation x;
    quadratic and linear: ``pair_value`` of the table's pair differences.
    """
    require_kind_shape(table, kind)
    if kind is WitnessKind.GUESSING:
        return float(np.mean(np.diagonal(table.p[:, 0, :])))
    return pair_value(kind, pair_differences(table))


def require_bound_args(kind: WitnessKind, n_preparations: int, dim: int) -> tuple[int, int]:
    """(N, d) of a ceiling or an enumeration of ``kind`` as ``int``s: integers with 2 <= N <= 10^150, d >= 1."""
    require_kind(kind)
    n, dim = require_int(n_preparations, "n_preparations"), require_int(dim, "dim")
    if n < 2:
        raise BadArgument(f"need at least 2 preparations, got {n}")
    if n > 10**150:
        raise BadArgument("need at most 10^150 preparations: the ceilings of more overflow a float")
    if dim < 1:
        raise BadArgument(f"dimension must be positive, got {dim}")
    return n, dim


def quantum_bound(kind: WitnessKind, n_preparations: int, dim: int) -> float:
    """Largest witness value reachable with dim-dimensional quantum systems."""
    return _quantum_ceiling(kind, *require_bound_args(kind, n_preparations, dim))


def _quantum_ceiling(kind: WitnessKind, n: int, dim: int) -> float:
    # the closed forms behind quantum_bound, on checked (N, d)
    deff = min(dim, n)
    if kind is WitnessKind.GUESSING:
        return deff / n
    if kind is WitnessKind.QUADRATIC:
        # written as a difference so the value is exact whenever deff divides n
        return n * n / 2.0 - n * n / (2.0 * deff)
    # one correctly rounded int / int under the root, so deff = n gives n(n-1)/2 exactly
    return n / 2.0 * math.sqrt(n * (n - 1) * (deff - 1) / deff)


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

    Returns ``None`` for the linear witness at 2 <= dim <= N - 2. A
    deterministic pair scores 1 there exactly when x and x' send different
    messages, so the maximum is ``max_distinct_pairs(N, dim)``, but the package
    still enumerates it: use the oracle in :mod:`dimwitness.classical`.
    """
    return _classical_ceiling(kind, *require_bound_args(kind, n_preparations, dim))


def _classical_ceiling(kind: WitnessKind, n: int, dim: int) -> float | None:
    # the closed forms behind classical_bound, on checked (N, d)
    if kind is WitnessKind.GUESSING:
        return min(dim, n) / n
    # one message tells no pair apart, so the linear witness, like the quadratic one, has C_1 = 0
    if kind is WitnessKind.QUADRATIC or dim == 1 or dim >= n - 1:
        return float(max_distinct_pairs(n, min(dim, n)))
    return None


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


def _smallest_dimension(n: int, value: float, ceiling: Callable[[int], float]) -> int:
    # the first d in 1..N-1 whose ceiling admits value within the analytic slack, else N (the unrestricted ceilings)
    return next((d for d in range(1, n) if ceiling(d) >= value - ANALYTIC_SLACK), n)


def certify_dimension(kind: WitnessKind, n_preparations: int, value: float) -> CertifiedDimensions:
    """Smallest quantum and classical dimensions compatible with ``value``.

    Both sides run one search, ``_smallest_dimension``, with the analytic
    comparison slack: the quantum side over the closed-form ceilings, the
    classical side over them where a closed form exists and over the
    deterministic-strategy enumeration, whose maxima are exact integers, for
    the linear witness at 2 <= d <= N - 2. The classical answer is ``None``
    only when such an enumeration would exceed the pair search guard.

    Raises ``OutOfRange`` when ``value`` exceeds the unrestricted ceiling (or
    undershoots the witness range) by more than the numeric slack.
    """
    n, _ = require_bound_args(kind, n_preparations, 1)
    value = require_real(value, "witness value")
    lo, hi = _witness_range(kind, n)
    if value < lo - NUMERIC_SLACK:
        raise OutOfRange(f"value {value} below the {kind.value} witness range [{lo}, {hi}]")
    ceiling = _quantum_ceiling(kind, n, n)
    if value > ceiling + NUMERIC_SLACK:
        raise OutOfRange(f"value {value} exceeds the unrestricted ceiling {ceiling}")

    from . import classical  # deferred: classical depends on this module

    def classical_ceiling(d: int) -> float:
        bound = _classical_ceiling(kind, n, d)
        return classical.enumerate_max(kind, n, d)[0] if bound is None else bound

    min_quantum = _smallest_dimension(n, value, lambda d: _quantum_ceiling(kind, n, d))
    try:
        min_classical = _smallest_dimension(n, value, classical_ceiling)
    except TooLarge:
        min_classical = None
    return CertifiedDimensions(min_quantum, min_classical)
