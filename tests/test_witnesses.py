import decimal
import math

import numpy as np
import pytest

from dimwitness import (
    BadArgument,
    OutOfRange,
    ProbabilityTable,
    ShapeMismatch,
    WitnessKind,
    born_table,
    certify_dimension,
    classical_bound,
    evaluate,
    fourier_ensemble,
    helstrom_measurements,
    pair_differences,
    pair_labels,
    pair_value,
    quantum_bound,
)
from dimwitness.linalg import ROW_SUM_TOL

Q, L, G = WitnessKind.QUADRATIC, WitnessKind.LINEAR, WitnessKind.GUESSING


def uniform_table(n: int, m: int, k: int) -> ProbabilityTable:
    return ProbabilityTable(np.full((n, m, k), 1.0 / k))


def pair_table_from_rows(n: int, first: float, second: float) -> ProbabilityTable:
    """P(1|x, (x,x')) = first and P(1|x', (x,x')) = second for every pair;
    rows not involved in a measurement get 1/2."""
    labels = pair_labels(n)
    p = np.full((n, len(labels), 2), 0.5)
    for y, (x, xp) in enumerate(labels):
        p[x - 1, y, 0] = first
        p[xp - 1, y, 0] = second
    p[:, :, 1] = 1.0 - p[:, :, 0]
    return ProbabilityTable(p)


def fourier_helstrom_table(n: int, d: int) -> ProbabilityTable:
    ensemble = fourier_ensemble(n, d)
    return born_table(ensemble, helstrom_measurements(ensemble))


class TestTableValidation:
    def test_rejects_unnormalized_rows(self):
        with pytest.raises(ShapeMismatch):
            ProbabilityTable(np.full((2, 1, 2), 0.4))

    @pytest.mark.parametrize("k", [2, 3, 30])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_row_sum_tolerance_edge(self, k, sign):
        """One row among 50 off by 0.9 x ROW_SUM_TOL passes; off by 1.1 x it is refused."""
        inside = np.full((50, 1, k), 1.0 / k)
        outside = inside.copy()
        inside[17, 0, 0] += sign * 0.9 * ROW_SUM_TOL
        outside[17, 0, 0] += sign * 1.1 * ROW_SUM_TOL
        ProbabilityTable(inside)
        with pytest.raises(ShapeMismatch, match="must sum to 1"):
            ProbabilityTable(outside)

    def test_rejects_out_of_range_entries(self):
        p = np.zeros((1, 1, 2))
        p[0, 0, 0], p[0, 0, 1] = 1.5, -0.5
        with pytest.raises(ShapeMismatch):
            ProbabilityTable(p)

    def test_shape_check_per_kind(self):
        table = uniform_table(3, 3, 2)
        assert evaluate(Q, table) == 0.0
        with pytest.raises(ShapeMismatch):
            evaluate(G, table)


class TestPairLabels:
    def test_lexicographic_order(self):
        assert pair_labels(4) == ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3))

    def test_count(self):
        for n in range(2, 9):
            assert len(pair_labels(n)) == n * (n - 1) // 2


class TestEvaluators:
    def test_guessing_uniform(self):
        assert evaluate(G, uniform_table(4, 1, 4)) == pytest.approx(0.25)

    def test_guessing_perfect_identification(self):
        p = np.zeros((4, 1, 4))
        for x in range(4):
            p[x, 0, x] = 1.0
        assert evaluate(G, ProbabilityTable(p)) == 1.0

    def test_quadratic_equal_rows(self):
        assert evaluate(Q, pair_table_from_rows(4, 0.7, 0.7)) == 0.0

    def test_quadratic_perfect_discrimination(self):
        n = 5
        assert evaluate(Q, pair_table_from_rows(n, 1.0, 0.0)) == n * (n - 1) / 2

    def test_quadratic_fourier_helstrom_reference_value(self):
        assert evaluate(Q, fourier_helstrom_table(7, 2)) == pytest.approx(12.25, abs=1e-6)

    def test_linear_equal_rows(self):
        assert evaluate(L, pair_table_from_rows(4, 0.3, 0.3)) == 0.0

    def test_linear_fourier_helstrom_qubit(self):
        expected = 3 * math.sqrt(3) / 2
        assert evaluate(L, fourier_helstrom_table(3, 2)) == pytest.approx(expected, abs=1e-6)

    def test_linear_fourier_helstrom_respects_ceiling(self):
        value = evaluate(L, fourier_helstrom_table(4, 3))
        assert value <= quantum_bound(L, 4, 3) + 1e-9

    def test_pair_value_sums_or_squares_and_refuses_guessing(self):
        differences = np.array([0.5, -1.0, 0.25])
        assert pair_value(L, differences) == -0.25
        assert pair_value(Q, differences) == 1.3125
        with pytest.raises(BadArgument, match="not a pair witness"):
            pair_value(G, differences)


class TestQuantumBound:
    def test_reference_row(self):
        expected = {2: 12.25, 3: 49 / 3, 4: 18.375, 5: 19.6, 6: 245 / 12, 7: 21.0}
        for d, value in expected.items():
            assert abs(quantum_bound(Q, 7, d) - value) <= 1e-12

    def test_quadratic_full_dimension(self):
        for n in range(2, 10):
            assert quantum_bound(Q, n, n) == n * (n - 1) / 2

    def test_linear_tight_form_at_n_equals_d_plus_one(self):
        for d in range(2, 2000):
            assert quantum_bound(L, d + 1, d) == (d + 1) * math.sqrt(d * d - 1) / 2, d

    def test_linear_ceiling_is_exact_at_full_dimension_and_within_1_5_ulps(self):
        for n in range(2, 3000):
            assert quantum_bound(L, n, n) == quantum_bound(L, n, n + 1) == n * (n - 1) / 2, n
        # against n/2 * sqrt(n(n-1)(d'-1)/d') with d' = min(n, d), to 50 digits
        context = decimal.Context(prec=50)
        worst = 0.0
        for n in range(2, 301):
            for d in range(1, n + 2):
                deff = min(n, d)
                root = context.sqrt(context.divide(n * (n - 1) * (deff - 1), deff))
                exact = context.divide(context.multiply(root, n), 2)
                value = quantum_bound(L, n, d)
                worst = max(worst, float(abs(decimal.Decimal(value) - exact)) / math.ulp(value))
        assert worst < 1.5
        assert math.isfinite(quantum_bound(L, 10**150, 10**150))

    def test_guessing(self):
        assert quantum_bound(G, 5, 2) == 0.4
        assert quantum_bound(G, 5, 9) == 1.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(BadArgument):
            quantum_bound(Q, 1, 2)
        with pytest.raises(BadArgument):
            quantum_bound(Q, 3, 0)


class TestClassicalBound:
    def test_reference_row(self):
        assert [classical_bound(Q, 7, d) for d in range(2, 8)] == [12, 16, 18, 19, 20, 21]

    def test_linear_closed_form_from_one_below_full_dimension(self):
        assert classical_bound(L, 3, 2) == 2.0
        assert classical_bound(L, 4, 3) == 5.0
        assert classical_bound(L, 5, 2) is None
        assert classical_bound(L, 5, 5) == 10.0

    def test_linear_single_message_tells_no_pair_apart(self):
        assert classical_bound(L, 5, 1) == 0.0
        assert classical_bound(L, 10**150, 1) == 0.0

    def test_linear_next_to_full_dimension_is_all_pairs_but_one(self):
        for n in range(2, 41):
            assert classical_bound(L, n, n - 1) == n * (n - 1) / 2 - 1

    def test_guessing_equals_quantum(self):
        for n in range(2, 7):
            for d in range(1, n + 2):
                assert classical_bound(G, n, d) == quantum_bound(G, n, d)


class TestBoundStructure:
    def test_monotone_in_dimension_then_constant(self):
        for kind in (Q, L, G):
            for n in range(2, 9):
                values = [quantum_bound(kind, n, d) for d in range(1, n + 3)]
                assert all(b - a >= -1e-12 for a, b in zip(values, values[1:]))
                assert values[n - 1] == values[n] == values[n + 1]

    def test_classical_below_quantum_with_divisibility_equality(self):
        for n in range(2, 13):
            for d in range(1, n + 1):
                c = classical_bound(Q, n, d)
                q = quantum_bound(Q, n, d)
                assert c <= q + 1e-9
                if n % d == 0:
                    assert abs(c - q) <= 1e-9, (n, d)
                else:
                    assert c < q - 1e-9, (n, d)


def test_linearization_consistency_on_nonnegative_tables():
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(3, 7))
        labels = pair_labels(n)
        p = np.empty((n, len(labels), 2))
        p[:, :, 0] = rng.uniform(0, 1, size=(n, len(labels)))
        for y, (x, xp) in enumerate(labels):
            lo, hi = sorted((p[x - 1, y, 0], p[xp - 1, y, 0]))
            p[x - 1, y, 0], p[xp - 1, y, 0] = hi, lo
        p[:, :, 1] = 1.0 - p[:, :, 0]
        table = ProbabilityTable(p)
        m = len(labels)
        assert evaluate(L, table) <= math.sqrt(m) * math.sqrt(evaluate(Q, table)) + 1e-9


def test_cauchy_schwarz_saturation_for_fourier_helstrom():
    for d in (2, 3, 4, 5):
        table = fourier_helstrom_table(d + 1, d)
        diffs = pair_differences(table)
        assert diffs.max() - diffs.min() <= 1e-8
        assert np.allclose(diffs, math.sqrt(1 - 1 / d**2), atol=1e-8)


class TestCertifyDimension:
    def test_reference_quadratic_point(self):
        assert certify_dimension(Q, 7, 12.25) == (2, 3)

    def test_zero_value(self):
        assert certify_dimension(Q, 7, 0.0) == (1, 1)

    def test_linear_with_enumerated_classical_side(self):
        assert certify_dimension(L, 3, 2.5) == (2, 3)

    def test_depolarized_reference_point(self):
        result = certify_dimension(Q, 7, 3.0625)
        assert result.min_quantum_d == 2
        assert result.min_classical_d == 2

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            certify_dimension(Q, 7, 21.1)
        with pytest.raises(OutOfRange):
            certify_dimension(Q, 7, -0.1)

    def test_boundary_values_certify_trivially(self):
        assert certify_dimension(L, 4, -5.0).min_quantum_d == 1
        # one message admits any linear value <= 0, at every N, without building a strategy
        assert certify_dimension(L, 2000, -5.0) == (1, 1)
        assert certify_dimension(G, 4, 1.0) == (4, 4)

    @pytest.mark.parametrize("kind, n, value", [(Q, 3, 3 + 5e-7), (L, 3, 3 + 5e-7), (G, 4, 1 + 5e-7)])
    def test_value_within_the_numeric_slack_above_the_ceiling_certifies_n_on_both_sides(self, kind, n, value):
        # C_N equals the unrestricted ceiling, so the classical scan falls back to N as the quantum one does
        assert certify_dimension(kind, n, value) == (n, n)

    def test_enumerated_maxima_are_compared_with_the_analytic_slack(self):
        # C_2 = 6 at N = 5 for both pair witnesses: a closed form for the quadratic, an enumeration for the linear
        assert certify_dimension(Q, 5, 6 + 5e-7) == (2, 3)
        assert certify_dimension(L, 5, 6 + 5e-7) == (2, 3)

    def test_unknown_classical_dimension_means_the_enumeration_guard_was_exceeded(self):
        # linear N = 30 has no closed form at d = 2, and its d = 2 enumeration passes the guard
        assert certify_dimension(L, 30, 10.0) == (2, None)
