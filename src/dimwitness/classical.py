"""Deterministic classical strategies and exact classical maxima.

A classical device of dimension d can forward one of d messages per
preparation; the measuring device then answers from the message alone. By
convexity the witness maxima are reached by deterministic strategies, so an
exact classical bound is a maximum over message assignments (encodings),
each measurement's answer rule (decoding) being optimal in closed form.
Shared randomness is not modelled -- it cannot beat the deterministic
maximum.

The guessing witness scores one per message sent, so its maximizer is
closed form. The pair witnesses are searched over canonical encodings (first
occurrences of symbols in increasing order, i.e. restricted growth strings),
which quotients out symbol relabelling. One depth-first walk visits them in
lexicographic order, keeps the pairs inside one block up to date as it sets
and unsets each position, and skips every subtree that cannot beat the best
encoding found so far: the subtree loses those pairs and one more for each
position left past the free symbols. The walk stops one position short of
the leaves and picks the last symbol in closed form. The best is replaced
only by a strictly higher score, so the reported maximizer is the
lexicographically smallest one, as if every encoding had been scored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import BadArgument, IncompleteDecoding, TooLarge, require_int
from .linalg import integer_array
from .witnesses import ProbabilityTable, WitnessKind, require_bound_args, require_kind

#: The pair-witness search refuses more canonical encodings than this.
SEARCH_GUARD = 10**7


def _canonical_count(n: int, d: int) -> int:
    """Set partitions of n items into <= d blocks, or the first count past ``SEARCH_GUARD``."""
    # Stirling-number recurrence S(i, j) = j S(i-1, j) + S(i-1, j-1); n items use at most n symbols
    row = [1] + [0] * min(d, n)
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, len(row))]
        if sum(row) > SEARCH_GUARD:
            break
    return sum(row)


@dataclass(frozen=True, eq=False)
class DeterministicStrategy:
    """Message per preparation plus an outcome table per (measurement, message).

    Both tables are read-only int64 arrays, copied from the inputs once.
    ``encoding[x-1]``, of shape (N,), is the message in {1..d} sent for
    preparation x; ``decoding[y-1, s-1]``, of shape (m, w) with 1 <= w <= d,
    is the outcome announced when measurement y receives message s. Measurement
    indices follow ``pair_labels`` for pair witnesses and are y = 1 for guessing.
    """

    N: int
    d: int
    encoding: np.ndarray
    decoding: np.ndarray

    def __post_init__(self) -> None:
        for name in ("N", "d"):
            object.__setattr__(self, name, require_int(getattr(self, name), name, 1))
        encoding = integer_array(self.encoding, "encoding must be a sequence of symbols").copy()
        if encoding.shape != (self.N,):
            raise BadArgument(f"encoding must assign all {self.N} preparations")
        bad = (encoding < 1) | (encoding > self.d)
        if bad.any():  # the first offender, in require_int's words
            x = int(bad.argmax())
            require_int(encoding[x].item(), f"symbol of preparation {x + 1}", 1, self.d)
        decoding = integer_array(self.decoding, "decoding must be a table of outcomes").copy()
        if decoding.ndim != 2 or not 1 <= decoding.shape[1] <= self.d:
            raise BadArgument(f"decoding must be an (m, w) table with 1 <= w <= {self.d}, got shape {decoding.shape}")
        for name, table in (("encoding", encoding), ("decoding", decoding)):
            table.setflags(write=False)
            object.__setattr__(self, name, table)


def strategy_table(strategy: DeterministicStrategy, kind: WitnessKind) -> ProbabilityTable:
    """Deterministic 0/1 table P(b|x,y) = [decoding(y, encoding(x)) = b]."""
    m, k = require_kind(kind).table_shape(strategy.N)
    if strategy.N * m * k > kernels.MAX_PAIR_ENTRIES:
        raise TooLarge(f"N={strategy.N} needs more than 10^7 table entries (N * m * k), the table size bound")
    rows, width = strategy.decoding.shape
    symbols = strategy.encoding
    outcomes = np.zeros((strategy.N, m), np.int64)
    outcomes[:, :rows] = strategy.decoding[:m, np.minimum(symbols, width) - 1].T
    # IncompleteDecoding names the first cell, in (x, y) order, that the decoding lacks or maps outside 1..k
    bad = (symbols[:, None] > width) | (np.arange(m) >= rows) | (outcomes < 1) | (outcomes > k)
    if bad.any():
        x, y = divmod(int(bad.argmax()), m)
        if y >= rows or symbols[x] > width:
            raise IncompleteDecoding(f"no decoding for measurement {y + 1}, symbol {symbols[x]}")
        raise IncompleteDecoding(f"decoding({y + 1}, {symbols[x]}) = {outcomes[x, y]} is not an outcome in 1..{k}")
    return ProbabilityTable((outcomes[..., None] == np.arange(1, k + 1)).astype(float))


def _first_maximizer(n: int, d: int) -> tuple[int, tuple[int, ...]]:
    """The most pairs told apart over canonical encodings, and its lexicographically smallest maximizer.

    Iterative, because N may pass the interpreter's recursion limit. An
    encoding scores N(N-1)/2 minus the pairs inside one symbol's block. A
    subtree is skipped when its bound, the total minus the pairs inside a
    block minus max(0, left - (d - used)), is no higher than the best. The
    last position is scored, not walked: its first best symbol is a new one
    while fewer than d are used, else the first with the smallest block.
    """
    total = n * (n - 1) // 2
    last = n - 2  # the deepest position the walk sets
    spare = n - 1 - d  # forced pairs below position i: used - i + spare, when positive
    enc = [0] * (n - 1)  # enc[i] = symbol at position i, 0 while unset
    top = [0] * (n - 1)  # top[i] = max(enc[:i]), the symbols used before position i
    counts = [0] * (d + 1)  # block sizes; within = the pairs inside one block
    within, best, best_enc, i = 0, -1, (), 0
    while i >= 0:
        s = enc[i]
        if s:  # back out of s, and climb once s was the last symbol to try
            counts[s] -= 1
            within -= counts[s]
            if s > top[i] or s == d:
                enc[i] = 0
                i -= 1
                continue
        enc[i] = s = s + 1
        within += counts[s]
        counts[s] += 1
        used = s if s > top[i] else top[i]
        # a pair inside a block stays there; each position left past the d - used free symbols adds one
        reach = bound = total - within
        forced = used - i + spare
        if forced > 0:
            bound -= forced
        if bound <= best:  # ties too: the first maximizer was reached before them
            continue
        if i < last:
            i += 1
            top[i] = used
        # i == last: the position after it is scored without setting it
        elif used < d:  # a new symbol's empty block scores the reach
            best, best_enc = reach, (*enc, used + 1)
        else:  # the first symbol with the smallest block; a tie keeps the earlier best
            smallest = min(counts[1:])
            if reach - smallest > best:
                best, best_enc = reach - smallest, (*enc, counts.index(smallest, 1))
    return best, best_enc


def enumerate_max(
    kind: WitnessKind, n_preparations: int, dim: int
) -> tuple[float, DeterministicStrategy]:
    """Exact witness maximum over deterministic strategies, with a maximizer.

    For a fixed encoding every measurement's optimal decoding is analytic.
    Guessing maps each message to the first preparation that sends it, so
    s = min(d, N) messages score s/N, and the maximizer is closed form: message
    1 repeated, then each new message once; the value is that strategy's own
    score, not the formula. A pair witness answers 1 exactly on the first
    preparation's message, scoring 1 per distinctly-encoded pair; its
    encodings are searched by ``_first_maximizer``, so ties between
    maximizing encodings resolve to the lexicographically smallest canonical
    one. The decoding table is min(d, N) wide: N preparations send only the
    messages 1..min(d, N). Raises ``TooLarge`` past ``kernels.MAX_PAIR_ENTRIES``
    strategy entries (N symbols, an m x min(d, N) decoding) or, for a pair
    witness, past the search guard on canonical encodings, which counts the
    search space rather than the nodes the pruned walk visits.
    """
    n, dim = require_bound_args(kind, n_preparations, dim)
    symbols = min(dim, n)
    guessing = kind is WitnessKind.GUESSING
    if n + kind.table_shape(n)[0] * symbols > kernels.MAX_PAIR_ENTRIES:
        raise TooLarge(f"N={n}, d={dim} needs more than 10^7 strategy entries (N + m * min(d, N)), "
                       "the strategy size bound")
    if not guessing and _canonical_count(n, symbols) > SEARCH_GUARD:
        raise TooLarge(f"N={n}, d={dim} has more than 10^7 canonical encodings, the search guard")

    if guessing:  # each message names the first preparation that sends it
        strategy = DeterministicStrategy(n, dim, np.arange(symbols - n + 1, symbols + 1).clip(1),
                                         np.r_[1, n - symbols + 2:n + 1][None])
        return float(np.mean(strategy.decoding[0, strategy.encoding - 1] == np.arange(1, n + 1))), strategy
    score, best = _first_maximizer(n, symbols)
    # pair (x, x') in pair_labels order answers 1 on x's message; a pair sharing one message scores zero either way
    decoding = np.where(np.repeat(best[1:], np.arange(1, n))[:, None] == np.arange(1, symbols + 1), 1, 2)
    return float(score), DeterministicStrategy(n, dim, best, decoding)
