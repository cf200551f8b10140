import itertools
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import dimwitness.classical
from dimwitness import (
    BadArgument,
    DeterministicStrategy,
    IncompleteDecoding,
    TooLarge,
    WitnessKind,
    classical_bound,
    enumerate_max,
    evaluate,
    strategy_table,
)
from dimwitness.classical import _canonical_count
from dimwitness.witnesses import max_distinct_pairs

Q, L, G = WitnessKind.QUADRATIC, WitnessKind.LINEAR, WitnessKind.GUESSING


class TestStrategyTable:
    def test_two_preparations_distinct_symbols(self):
        strategy = DeterministicStrategy(2, 2, (1, 2), [[2, 1]])
        table = strategy_table(strategy, Q)
        # the lone pair is (2, 1); the b=1 effect fires on preparation 2's symbol
        assert table.p[1, 0, 0] - table.p[0, 0, 0] == 1.0
        assert evaluate(Q, table) == 1.0

    def test_single_message_carries_nothing(self):
        strategy = DeterministicStrategy(2, 1, (1, 1), [[1]])
        assert evaluate(Q, strategy_table(strategy, Q)) == 0.0

    def test_balanced_four_preparations(self):
        _, strategy = enumerate_max(Q, 4, 2)
        table = strategy_table(strategy, Q)
        assert evaluate(Q, table) == 4.0  # 6 pairs, 2 within groups

    def test_missing_decoding_entry(self):
        # one column decodes message 1 only, and preparation 2 sends message 2
        strategy = DeterministicStrategy(2, 2, (1, 2), [[1]])
        with pytest.raises(IncompleteDecoding, match=r"^no decoding for measurement 1, symbol 2$"):
            strategy_table(strategy, Q)

    def test_decoding_is_a_read_only_int64_table(self):
        decoding = np.array([[2, 1]])
        strategy = DeterministicStrategy(2, 2, (1, 2), decoding)
        decoding[0, 0] = 1  # the strategy keeps its own copy
        assert strategy.decoding.tolist() == [[2, 1]] and strategy.decoding.dtype == np.int64
        assert decoding.flags.writeable and not strategy.decoding.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            strategy.decoding[0, 0] = 1

    def test_encoding_validation(self):
        with pytest.raises(BadArgument):
            DeterministicStrategy(2, 2, (1, 3), {})

    @pytest.mark.parametrize("encoding, message", [
        ((1, 3, 1), "symbol of preparation 2 must be an integer in [1, 2], got 3"),
        ((1, 2, 0), "symbol of preparation 3 must be an integer in [1, 2], got 0"),
        ((-5, 7, 1), "symbol of preparation 1 must be an integer in [1, 2], got -5"),
    ])
    def test_first_bad_symbol_is_named(self, encoding, message):
        with pytest.raises(BadArgument) as caught:
            DeterministicStrategy(3, 2, np.array(encoding), [[1, 1]])
        assert str(caught.value) == message

    def test_encoding_is_a_read_only_int64_table(self):
        encoding = np.array([1, 2, 2**62])
        strategy = DeterministicStrategy(3, 10**150, encoding, [[1]])
        encoding[0] = 2  # the strategy keeps its own copy
        assert strategy.encoding.tolist() == [1, 2, 2**62] and strategy.encoding.dtype == np.int64
        assert strategy.encoding.shape == (3,) and not strategy.encoding.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            strategy.encoding[0] = 1

    def test_table_size_is_bounded(self):
        # a 10^5 x 1 x 10^5 guessing table: a TooLarge, not numpy's MemoryError on a 9.3 GiB array
        strategy = enumerate_max(G, 10**5, 7)[1]
        with pytest.raises(TooLarge, match=r"^N=100000 needs more than 10\^7 table entries \(N \* m \* k\)"):
            strategy_table(strategy, G)


def oracle_table(strategy: DeterministicStrategy, kind: WitnessKind) -> np.ndarray:
    """P(b|x,y) = [decoding(y, encoding(x)) = b], one cell at a time, with the cell-by-cell refusals."""
    m, k = kind.table_shape(strategy.N)
    rows, width = strategy.decoding.shape
    p = np.zeros((strategy.N, m, k))
    for x in range(1, strategy.N + 1):
        symbol = strategy.encoding[x - 1]
        for y in range(1, m + 1):
            if y > rows or symbol > width:
                raise IncompleteDecoding(f"no decoding for measurement {y}, symbol {symbol}")
            outcome = int(strategy.decoding[y - 1, symbol - 1])
            if outcome < 1 or outcome > k:
                raise IncompleteDecoding(f"decoding({y}, {symbol}) = {outcome} is not an outcome in 1..{k}")
            p[x - 1, y - 1, outcome - 1] = 1.0
    return p


class TestStrategyTableOracle:
    """``strategy_table`` against the per-cell rule, bit for bit, refusals and messages included."""

    @staticmethod
    def outcome(call):
        try:
            return call()
        except IncompleteDecoding as refusal:
            return str(refusal)

    @pytest.mark.parametrize("kind", [Q, L, G])
    def test_seeded_random_strategies(self, kind):
        rng = np.random.default_rng(2012 + list(WitnessKind).index(kind))
        refused = 0
        for _ in range(300):
            n = int(rng.integers(2, 9))
            d = int(rng.integers(1, n + 3))
            m, k = kind.table_shape(n)
            encoding = rng.integers(1, d + 1, n)
            # a table w < d columns wide, short of rows, or with outcomes outside 1..k, now and then
            rows = m if rng.random() < 0.7 else int(rng.integers(1, m + 2))
            width = d if rng.random() < 0.5 else int(rng.integers(1, d + 1))
            low, high = (1, k + 1) if rng.random() < 0.8 else (0, k + 2)
            strategy = DeterministicStrategy(n, d, encoding, rng.integers(low, high, (rows, width)))
            want = self.outcome(lambda: oracle_table(strategy, kind))
            got = self.outcome(lambda: strategy_table(strategy, kind).p)
            refused += isinstance(want, str)
            assert type(got) is type(want)
            if isinstance(want, str):
                assert got == want
            else:
                assert got.tobytes() == want.tobytes()
        assert 30 < refused < 270  # both outcomes are exercised

    def test_guessing_with_every_preparation_told_apart(self):
        # k = N: each preparation sends its own message and each message names its sender
        for n in range(2, 9):
            value, strategy = enumerate_max(G, n, n)
            assert strategy.decoding.tolist() == [list(range(1, n + 1))] and value == 1.0
            assert strategy_table(strategy, G).p.tobytes() == oracle_table(strategy, G).tobytes()

    def test_narrow_table_of_a_large_dimension(self):
        # w = 2 < d = 5: only the messages sent need columns
        strategy = DeterministicStrategy(4, 5, (1, 2, 2, 1), [[1, 2], [2, 1], [1, 1], [2, 2], [1, 2], [2, 1]])
        assert strategy.decoding.shape == (6, 2)
        assert strategy_table(strategy, Q).p.tobytes() == oracle_table(strategy, Q).tobytes()

    @pytest.mark.parametrize("decoding, message", [
        ([[1, 2], [2, 1]], "no decoding for measurement 3, symbol 1"),  # three pairs, two rows
        ([[1], [2], [1]], "no decoding for measurement 1, symbol 2"),   # preparation 2 sends message 2
        ([[1, 2], [2, 0], [1, 2]], "decoding(2, 2) = 0 is not an outcome in 1..2"),
    ])
    def test_incomplete_decodings(self, decoding, message):
        strategy = DeterministicStrategy(3, 2, (1, 2, 2), decoding)
        assert self.outcome(lambda: oracle_table(strategy, Q)) == message
        with pytest.raises(IncompleteDecoding) as refusal:
            strategy_table(strategy, Q)
        assert str(refusal.value) == message


def walked_first_maximizer(n: int, d: int, guessing: bool) -> tuple[int, tuple[int, ...]]:
    """The pruned walk down to the leaves: every position is set, the last one too, in lexicographic order."""
    total = n * (n - 1) // 2
    enc = [0] * n  # enc[i] = symbol at position i, 0 while unset
    top = [0] * n  # top[i] = max(enc[:i]), the symbols used before position i
    counts = [0] * (d + 1)  # block sizes; within = the pairs inside one block
    within, best, best_enc, i = 0, -1, (), 0
    while i >= 0:
        s = enc[i]
        if s:  # back out of s before trying the next symbol
            counts[s] -= 1
            within -= counts[s]
        if s > top[i] or s == d:
            enc[i] = 0
            i -= 1
            continue
        enc[i] = s = s + 1
        within += counts[s]
        counts[s] += 1
        used = max(top[i], s)
        # a pair inside one block stays inside it, and each position left can add one new symbol
        reach = min(d, used + n - 1 - i) if guessing else total - within
        if reach <= best:  # ties too: the first maximizer was reached before them
            continue
        if i == n - 1:
            best, best_enc = reach, tuple(enc)
        else:
            i += 1
            top[i] = used
    return best, best_enc


class TestWalkOracle:
    """``enumerate_max`` against the walk that sets the last position too: the same value and first maximizer.

    The grid reaches every closed-form case of the last position: a new symbol
    ((3, 2) after (1, 1)), a unique smallest block ((4, 2) after (1, 1, 2)),
    tied smallest blocks ((3, 2) after (1, 2)) and guessing with every symbol
    used ((3, 1)). The tied case never decides a result: the first pair
    maximizer is contiguous and balanced, so without its last position its
    last block is empty or the unique smallest. The grid takes every case of
    2 <= N <= 11, 1 <= d <= N + 1 with at most 3*10^5 canonical encodings:
    all of N <= 10, and d <= 4 at N = 11. Four larger cases follow, where
    the forced-pair bound skips the most subtrees: (11, 5), (11, 6), (12, 5)
    and (12, 6).
    """

    CASES = [(n, d) for n in range(2, 12) for d in range(1, n + 2) if _canonical_count(n, min(d, n)) <= 3 * 10**5]
    CASES += [(11, 5), (11, 6), (12, 5), (12, 6)]

    def test_grid(self):
        assert len(self.CASES) == sum(n + 1 for n in range(2, 11)) + 4 + 4
        assert len(set(self.CASES)) == len(self.CASES)

    @pytest.mark.parametrize("kind", [Q, L, G])
    def test_same_value_and_first_maximizer(self, kind):
        for n, d in self.CASES:
            score, encoding = walked_first_maximizer(n, min(d, n), kind is G)
            value, strategy = enumerate_max(kind, n, d)
            assert value == (score / n if kind is G else float(score)), (n, d)
            assert strategy.encoding.tolist() == list(encoding), (n, d)


class TestEnumerateMax:
    def test_reference_quadratic_point(self):
        value, strategy = enumerate_max(Q, 7, 2)
        assert value == 12.0
        assert strategy.encoding.tolist() == [1, 1, 1, 1, 2, 2, 2]

    def test_full_dimension_maximum(self):
        for n in (3, 4, 5):
            value, _ = enumerate_max(Q, n, n)
            assert value == n * (n - 1) / 2

    def test_linear_next_to_full_dimension(self):
        assert enumerate_max(L, 3, 2)[0] == 2.0
        for n in (3, 4, 5, 6):
            assert enumerate_max(L, n, n - 1)[0] == n * (n - 1) / 2 - 1

    def test_guessing_is_dimension_over_preparations(self):
        for n in range(2, 7):
            for d in range(1, n + 1):
                assert enumerate_max(G, n, d)[0] == d / n

    def test_guard(self):
        with pytest.raises(TooLarge):
            enumerate_max(Q, 30, 3)

    def test_preparation_bound(self):
        # the largest single-message pair strategy within 10^7 entries, 4471 symbols and 4471 * 4470 / 2
        # decoding rows: the walk runs deeper than the interpreter's recursion limit
        value, strategy = enumerate_max(Q, 4471, 1)
        assert value == 0.0 and strategy.encoding.tolist() == [1] * 4471
        with pytest.raises(TooLarge, match=r"^N=4472, d=1 needs more than 10\^7 strategy entries"):
            enumerate_max(Q, 4472, 1)

    def test_brute_force_maximum_and_first_canonical_maximizer(self):
        # every encoding of N preparations into the symbols 1..N, in lexicographic order
        for n in range(2, 8):
            encodings = np.array(list(itertools.product(range(1, n + 1), repeat=n)))
            told_apart = sum((encodings[:, x] != encodings[:, xp]).astype(int)
                             for x in range(n) for xp in range(x))
            used = sum(np.any(encodings == s, axis=1).astype(int) for s in range(1, n + 1))
            # each symbol at most one above every symbol before it
            running = np.maximum.accumulate(np.hstack([np.zeros((len(encodings), 1), int), encodings]), axis=1)
            canonical = np.all(encodings <= running[:, :-1] + 1, axis=1)
            top = encodings.max(axis=1)
            for d in range(1, n + 2):
                allowed = top <= d
                for kind, score, scale in ((Q, told_apart, 1), (L, told_apart, 1), (G, used, n)):
                    best = score[allowed].max()
                    first = np.flatnonzero(allowed & canonical & (score == best))[0]
                    value, strategy = enumerate_max(kind, n, d)
                    assert value == best / scale, (kind, n, d)
                    assert np.array_equal(strategy.encoding, encodings[first]), (kind, n, d)

    @pytest.mark.parametrize("kind", [Q, L])
    def test_pair_maximizer_is_contiguous_balanced_with_larger_blocks_first(self, kind):
        # every d is within the guard: N = 12 has Bell(12) = 4,213,597 canonical encodings
        for n in range(2, 13):
            for d in range(1, n + 2):
                s = min(d, n)
                blocks, extra = divmod(n, s)
                sizes = [blocks + 1] * extra + [blocks] * (s - extra)
                value, strategy = enumerate_max(kind, n, d)
                # for example (1, 1, 1, 2, 2, 3, 3, 4, 4) at N = 9, d = 4
                contiguous = tuple(symbol for symbol, size in enumerate(sizes, start=1) for _ in range(size))
                assert strategy.encoding.tolist() == list(contiguous), (n, d)
                assert value == max_distinct_pairs(n, d), (n, d)

    def test_guessing_maximizer_sends_every_new_symbol_last(self):
        for n in range(2, 13):
            for d in range(1, n + 2):
                s = min(d, n)
                value, strategy = enumerate_max(G, n, d)
                assert strategy.encoding.tolist() == [1] * (n - s + 1) + list(range(2, s + 1)), (n, d)
                assert value == s / n

    @pytest.mark.parametrize("n, d", [(30, 3), (1000, 999), (1000, 10**18), (10**5, 7)])
    def test_guessing_maximizer_past_the_pair_search_guard(self, n, d):
        # the pair witnesses refuse these sizes; the guessing maximizer is closed form
        s = min(d, n)
        value, strategy = enumerate_max(G, n, d)
        assert value == s / n and strategy.d == d
        assert strategy.encoding.tolist() == [1] * (n - s + 1) + list(range(2, s + 1))
        # each message names the first preparation that sends it
        assert strategy.decoding.tolist() == [[1, *range(n - s + 2, n + 1)]]
        if n == 30:
            assert evaluate(G, strategy_table(strategy, G)) == value

    def test_guessing_value_is_the_strategy_score(self, monkeypatch):
        # a decoding row rolled by one names the wrong sender for every message; the value must say so
        build = dimwitness.classical.DeterministicStrategy
        monkeypatch.setattr(dimwitness.classical, "DeterministicStrategy",
                            lambda n, d, encoding, decoding: build(n, d, encoding, np.roll(decoding, 1, axis=1)))
        value, strategy = enumerate_max(G, 7, 3)
        assert value == evaluate(G, strategy_table(strategy, G)) < 3 / 7

    def test_guessing_maximizer_at_a_million_preparations_is_small(self):
        # each of the two tables is 8 MB of int64; the bound leaves room for a few such arrays, not for N Python ints
        tracemalloc.start()
        try:
            value, strategy = enumerate_max(G, 10**6, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == 1.0 and strategy.encoding[-1] == 10**6
        assert peak < 64 * 10**6

    @pytest.mark.parametrize("kind, n, d", [(L, 10**9, 10**7), (G, 10**150, 1), (Q, 10**150, 1)])
    def test_size_bound_refuses_at_once(self, kind, n, d):
        # the entry count is checked before the canonical count and before anything is built
        start = time.perf_counter()
        with pytest.raises(TooLarge, match=r"needs more than 10\^7 strategy entries \(N \+ m \* min\(d, N\)\)"):
            enumerate_max(kind, n, d)
        assert time.perf_counter() - start < 0.05

    @pytest.mark.parametrize("kind", [Q, L, G])
    def test_decoding_size_does_not_grow_with_dimension(self, kind):
        # only the messages 1..min(d, N) can be sent, so only they are decoded
        small = enumerate_max(kind, 3, 3)[1]
        assert small.decoding.shape == (kind.table_shape(3)[0], 3)
        for d in (4, 10**6, 10**18):
            value, strategy = enumerate_max(kind, 3, d)
            assert np.array_equal(strategy.decoding, small.decoding) and strategy.d == d
            assert value == evaluate(kind, strategy_table(strategy, kind))

    def test_canonical_balanced_maximizer(self):
        value, strategy = enumerate_max(Q, 7, 3)
        assert value == 16.0
        assert strategy.encoding.tolist() == [1, 1, 1, 2, 2, 3, 3]

    def test_maximizer_group_sizes_differ_by_at_most_one(self):
        for n in range(2, 9):
            for d in range(1, n + 1):
                _, strategy = enumerate_max(Q, n, d)
                sizes = Counter(strategy.encoding).values()
                assert max(sizes) - min(sizes) <= 1, (n, d)

    def test_strategy_reproduces_enumerated_value(self):
        for kind in (Q, L, G):
            for n, d in [(4, 2), (5, 3), (6, 2)]:
                value, strategy = enumerate_max(kind, n, d)
                assert evaluate(kind, strategy_table(strategy, kind)) == pytest.approx(value, abs=1e-12)


class TestBalancedPartitionValue:
    def test_reference_values(self):
        assert classical_bound(Q, 7, 3) == 16.0
        assert classical_bound(Q, 6, 3) == 12.0

    def test_single_group(self):
        for n in range(2, 8):
            assert classical_bound(Q, n, 1) == 0.0

    def test_agrees_with_enumeration_on_grid(self):
        for n in range(2, 9):
            for d in range(2, n + 1):
                enum_value, _ = enumerate_max(Q, n, d)
                assert enum_value == classical_bound(Q, n, d), (n, d)
                linear_value, _ = enumerate_max(L, n, d)
                assert linear_value == enum_value, (n, d)

    def test_rejects_bad_arguments(self):
        with pytest.raises(BadArgument):
            classical_bound(Q, 1, 2)
        with pytest.raises(BadArgument):
            classical_bound(Q, 4, 0)


def test_linear_strategy_value_matches_table_evaluation():
    value, strategy = enumerate_max(L, 5, 3)
    assert evaluate(L, strategy_table(strategy, L)) == value
