"""Non-finite, non-integer, non-number and boolean input ends in a typed error,
and tables keep their empirical flag."""

import functools
import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from dimwitness import (
    BadArgument,
    DensityMatrix,
    DeterministicStrategy,
    DimensionMismatch,
    Effect,
    Ensemble,
    FileFormatError,
    IncompleteDecoding,
    PairMeasurementSet,
    ProbabilityTable,
    SeesawConfig,
    ShapeMismatch,
    StateVector,
    TooLarge,
    WitnessKind,
    born_table,
    certify_dimension,
    classical_bound,
    depolarize,
    enumerate_max,
    evaluate,
    fourier_ensemble,
    guessing_table,
    helstrom_differences,
    helstrom_measurements,
    pair_differences,
    pair_value,
    pure_state,
    quantum_bound,
    strategy_table,
    verify_table2,
)
from dimwitness import kernels
from dimwitness.cli import main
from dimwitness.files import load_ensemble, load_table, save_table
from dimwitness.simulate import NoiseModel, noisy_table
from dimwitness.witnesses import require_bound_args


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNonFiniteConstruction:
    def test_table_rejects_nan(self):
        p = np.full((2, 1, 2), 0.5)
        p[1, 0, 0] = np.nan
        with pytest.raises(ShapeMismatch):
            ProbabilityTable(p)

    def test_density_matrix_rejects_nan(self):
        with pytest.raises(BadArgument):
            DensityMatrix(np.array([[1.0, np.nan], [np.nan, 0.0]]))

    def test_effect_rejects_nan(self):
        with pytest.raises(BadArgument):
            Effect(np.array([[np.nan, 0.0], [0.0, 0.5]]))

    def test_state_vector_rejects_nan(self):
        with pytest.raises(BadArgument):
            StateVector(np.array([1.0, np.nan]))

    def test_certify_rejects_nan_value(self):
        with pytest.raises(BadArgument):
            certify_dimension(WitnessKind.QUADRATIC, 5, math.nan)

    def test_noise_model_rejects_nan_shots(self):
        with pytest.raises(BadArgument):
            NoiseModel(shots=math.nan)


class TestNonFiniteFiles:
    def test_non_numeric_amplitude_exits_2(self, capsys, tmp_path):
        path = tmp_path / "e.json"
        path.write_text('{"dim": 2, "states": [[[1.0, 0.0], ["abc", 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}')
        code, _, err = run(capsys, "evaluate", "--witness", "quadratic", "--ensemble", str(path), "--helstrom")
        assert code == 2
        assert "states[0][1]" in err

    def test_amplitude_past_the_float_range_exits_2(self, capsys, tmp_path):
        path = tmp_path / "e.json"
        path.write_text('{"dim": 1, "states": [[[1%s, 0.0]], [[1.0, 0.0]]]}' % ("0" * 400))
        code, _, err = run(capsys, "evaluate", "--witness", "quadratic", "--ensemble", str(path), "--helstrom")
        assert code == 2
        assert "states[0][0]" in err and "float range" in err

    def test_nan_amplitude_exits_2(self, capsys, tmp_path):
        path = tmp_path / "e.json"
        path.write_text('{"dim": 2, "states": [[[NaN, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}')
        code, _, err = run(capsys, "evaluate", "--witness", "quadratic", "--ensemble", str(path), "--helstrom")
        assert code == 2
        assert "finite" in err

    def test_nan_table_entry_exits_2(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        path.write_text('{"witness": "quadratic", "N": 2, "m": 1, "k": 2, "p": [[[NaN, 0.5]], [[0.5, 0.5]]]}')
        code, out, err = run(capsys, "evaluate", "--witness", "quadratic", "--table", str(path))
        assert code == 2
        assert out == "" and "finite" in err


class TestUndecodableFiles:
    """A file that ``json`` cannot decode ends in one error line, exit 2, never a traceback."""

    TABLE = b'{"witness": "quadratic", "N": 2, "m": 1, "k": 2, "p": [[[0.5, 0.5]], [[0.5, 0.5]]], "note": "%s"}'

    @pytest.mark.parametrize("data", [
        TABLE % b"\xff",
        TABLE % "\u00e9".encode("latin-1"),
        b'{"p": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
    ], ids=["byte-0xff", "latin-1", "nested-arrays"])
    def test_table_exits_2(self, capsys, tmp_path, data):
        path = tmp_path / "t.json"
        path.write_bytes(data)
        code, out, err = run(capsys, "evaluate", "--witness", "quadratic", "--table", str(path))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith(f"error: {path}: not valid JSON")

    @pytest.mark.parametrize("data", [
        b'{"dim": 1, "states": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
        b'{"dim": 1, "states": [[[1' + b"0" * 5000 + b', 0.0]], [[1.0, 0.0]]]}',
    ], ids=["nested-arrays", "5001-digit-int"])
    def test_ensemble_exits_2(self, capsys, tmp_path, data):
        # a 5001-digit int passes the parser below Python 3.11, then the float-range check
        path = tmp_path / "e.json"
        path.write_bytes(data)
        code, out, err = run(capsys, "evaluate", "--witness", "quadratic", "--ensemble", str(path), "--helstrom")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="Python reads ints of any length")
    def test_over_long_int_is_named_by_its_length(self, capsys, tmp_path):
        # valid JSON that Python refuses to read; a CLI user cannot raise the limit
        path = tmp_path / "e.json"
        path.write_bytes(b'{"dim": 1, "states": [[[1' + b"0" * 5000 + b', 0.0]], [[1.0, 0.0]]]}')
        code, out, err = run(capsys, "evaluate", "--witness", "quadratic", "--ensemble", str(path), "--helstrom")
        assert code == 2 and out == ""
        limit = sys.get_int_max_str_digits()
        assert err == f"error: {path}: holds an integer of more than {limit} digits\n"


_TABLE = {"witness": "quadratic", "N": 2, "m": 1, "k": 2, "p": [[[0.5, 0.5]], [[0.5, 0.5]]]}
_DUMP = {"dim": 1, "states": [[[1, 0]], [[1, 0]]], "effects": {"2,1": [[1, 0]]}}


@pytest.mark.parametrize("load, data", [
    (load_ensemble, {"dim": 2, "states": [[[1, 0], [0, "x"]]]}),
    (load_ensemble, {"dim": 1, "states": [[[1, 0]], [[2, 0]]]}),
    (load_ensemble, {"dim": 0, "states": [[[1, 0]]]}),
    (load_ensemble, {"dim": 1, "density_matrices": [[[1, 0]], [[2]]]}),
    (load_ensemble, {"dim": 1, "density_matrices": [[[1, 0]], [[2, 0]]]}),
    (load_ensemble, {"dim": True, "density_matrices": [[[1, 0]]]}),
    (load_table, {**_TABLE, "p": [[[0.5, "x"]], [[0.5, 0.5]]]}),
    (load_table, {**_TABLE, "p": [[[0.5, 0.6]], [[0.5, 0.5]]]}),
    (load_table, {**_TABLE, "N": 0}),
    # a see-saw dump reads as the ensemble it holds
    (load_ensemble, {**_DUMP, "dim": -1}),
], ids=[f"{kind}-{bad}" for kind in ("pure", "mixed", "table") for bad in ("entry", "invalid", "count")]
    + ["dump-count"])
def test_every_load_refusal_names_its_file(capsys, tmp_path, load, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(FileFormatError) as refusal:
        load(path)
    assert str(refusal.value).startswith(f"{path}: ")
    if load is load_ensemble:
        code, out, err = run(capsys, "evaluate", "--witness", "quadratic", "--ensemble", str(path), "--helstrom")
        assert code == 2 and out == "" and err.startswith(f"error: {path}: ")


class TestEmpiricalFlag:
    def test_noisy_table_round_trip_through_cli(self, capsys, tmp_path):
        path = tmp_path / "noisy.json"
        ensemble = fourier_ensemble(6, 2)
        table = noisy_table(ensemble, helstrom_measurements(ensemble), NoiseModel(0.1, 1000), seed=3)
        assert table.empirical
        save_table(table, WitnessKind.QUADRATIC, path)
        code, out, _ = run(capsys, "evaluate", "--witness", "quadratic", "--table", str(path), "--json")
        assert code == 0 and json.loads(out)["empirical"] is True
        code, out, _ = run(capsys, "evaluate", "--witness", "quadratic", "--table", str(path))
        assert code == 0 and "note: table holds empirical frequencies" in out

    def test_missing_key_loads_as_exact(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text('{"witness": "quadratic", "N": 2, "m": 1, "k": 2, "p": [[[1.0, 0.0]], [[0.0, 1.0]]]}')
        table, _ = load_table(path)
        assert table.empirical is False

    def test_non_boolean_flag_rejected(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text('{"witness": "quadratic", "N": 2, "m": 1, "k": 2, '
                        '"p": [[[1.0, 0.0]], [[0.0, 1.0]]], "empirical": "yes"}')
        with pytest.raises(FileFormatError):
            load_table(path)


# (N, d) pairs that are in range but not integers
NON_INTEGER_SIZES = [(5, 2.5), (5.0, 3), (5, 3.0), (7, True), (np.float64(6.0), 2), ("5", 2), (5, "2")]


class TestIntegerArguments:
    """Every API edge refuses floats and bools where it needs an integer."""

    @pytest.mark.parametrize(
        "name, value",
        [
            ("N", 3.0), ("d", 2.0), ("restarts", 2.5), ("max_iters", 3.5), ("restarts", True), ("max_iters", True),
            ("N", "3"), ("d", "2"), ("restarts", "2"), ("max_iters", "3"),
        ],
    )
    def test_seesaw_config(self, name, value):
        with pytest.raises(BadArgument, match=name):
            SeesawConfig(**{"witness": WitnessKind.LINEAR, "N": 3, "d": 2, name: value})

    @pytest.mark.parametrize("n, d", [(4, 2.0), (4.0, 2), (True, 1), (4, True), ("4", 2), (4, "2")])
    def test_fourier_ensemble(self, n, d):
        with pytest.raises(BadArgument):
            fourier_ensemble(n, d)

    @pytest.mark.parametrize("n_max", [3.5, 3.0, np.float64(4.0), "5"])
    def test_verify_table2(self, n_max):
        with pytest.raises(BadArgument, match="n_max"):
            verify_table2(n_max)

    @pytest.mark.parametrize("kind", list(WitnessKind))
    @pytest.mark.parametrize("n, d", NON_INTEGER_SIZES)
    def test_quantum_bound(self, kind, n, d):
        with pytest.raises(BadArgument):
            quantum_bound(kind, n, d)

    @pytest.mark.parametrize("kind", list(WitnessKind))
    @pytest.mark.parametrize("n, d", NON_INTEGER_SIZES)
    def test_classical_bound(self, kind, n, d):
        with pytest.raises(BadArgument):
            classical_bound(kind, n, d)

    @pytest.mark.parametrize("kind", list(WitnessKind))
    @pytest.mark.parametrize("n, d", NON_INTEGER_SIZES)
    def test_enumerate_max(self, kind, n, d):
        with pytest.raises(BadArgument):
            enumerate_max(kind, n, d)

    @pytest.mark.parametrize("kind", list(WitnessKind))
    @pytest.mark.parametrize("n", [5.0, np.float64(4.0), 3.5, "5"])
    def test_certify_dimension(self, kind, n):
        with pytest.raises(BadArgument):
            certify_dimension(kind, n, 0.5)

    @pytest.mark.parametrize("value", ["0.5", True, None, math.inf])
    def test_certify_dimension_value(self, value):
        with pytest.raises(BadArgument, match="witness value"):
            certify_dimension(WitnessKind.QUADRATIC, 5, value)

    @pytest.mark.parametrize("eta", [True, False, "0.5", None, 1.5, -0.1, math.nan])
    def test_noise_model_eta(self, eta):
        with pytest.raises(BadArgument, match="depolarizing_eta"):
            NoiseModel(depolarizing_eta=eta)

    @pytest.mark.parametrize("eta", [True, False, "0.5", None, 1.5, -0.1, math.nan])
    def test_depolarize_eta(self, eta):
        with pytest.raises(BadArgument, match="eta"):
            depolarize(pure_state([1.0, 0.0]), eta)

    def test_integral_values_are_kept_as_int(self):
        n, d = require_bound_args(WitnessKind.QUADRATIC, np.int64(7), np.int32(3))
        assert (n, d) == (7, 3) and type(n) is int and type(d) is int
        assert classical_bound(WitnessKind.QUADRATIC, np.int64(7), np.int32(3)) == 16
        assert quantum_bound(WitnessKind.LINEAR, np.int64(5), np.int64(2)) == quantum_bound(WitnessKind.LINEAR, 5, 2)
        assert type(SeesawConfig(WitnessKind.LINEAR, np.int64(3), 2).N) is int
        assert NoiseModel(np.float64(0.25)).depolarizing_eta == 0.25

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("bounds", "--witness", "linear", "--N", "1", "--d", "2"), "need at least 2 preparations, got 1"),
            (("bounds", "--witness", "linear", "--N", "3", "--d", "0"), "dimension must be positive, got 0"),
            (("classical", "--witness", "linear", "--N", "1", "--d", "2"), "need at least 2 preparations, got 1"),
            (("reproduce", "--table", "2", "--nmax", "2"), "n_max must lie in 3..10, got 2"),
            (("seesaw", "--witness", "linear", "--N", "3", "--d", "2", "--restarts", "0"), "restarts must be at least 1"),
            (("seesaw", "--witness", "linear", "--N", "3", "--d", "2", "--max-iters", "0"), "max_iters must be at least 1"),
            (("states", "--N", "3", "--d", "4", "--out", "unused.json"), "dimension must satisfy 1 <= d <= N, got d=4, N=3"),
        ],
    )
    def test_out_of_range_integers_keep_their_messages(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


class TestWitnessKindArgument:
    """A kind that is not a ``WitnessKind`` -- its value as a string too -- is refused, never coerced."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda kind, table, path: evaluate(kind, table),
            lambda kind, table, path: pair_value(kind, np.ones(6)),
            lambda kind, table, path: quantum_bound(kind, 7, 2),
            lambda kind, table, path: classical_bound(kind, 7, 3),
            lambda kind, table, path: certify_dimension(kind, 4, 3.0),
            lambda kind, table, path: enumerate_max(kind, 4, 2),
            lambda kind, table, path: strategy_table(enumerate_max(WitnessKind.QUADRATIC, 4, 2)[1], kind),
            lambda kind, table, path: SeesawConfig(kind, 3, 2),
            lambda kind, table, path: save_table(table, kind, path),
        ],
        ids=["evaluate", "pair_value", "quantum_bound", "classical_bound", "certify_dimension",
             "enumerate_max", "strategy_table", "SeesawConfig", "save_table"],
    )
    def test_refused(self, call, tmp_path):
        ensemble = fourier_ensemble(4, 2)
        table = born_table(ensemble, helstrom_measurements(ensemble))
        path = tmp_path / "table.json"
        for kind in ("quadratic", "linear", None, 1):
            with pytest.raises(BadArgument, match="WitnessKind"):
                call(kind, table, path)
        assert not path.exists()


HALF = [[[0.5, 0.5]]]


class TestTableAndDifferenceEdges:
    """A table or a pair-difference array that is not real numbers of the right form is refused."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: ProbabilityTable([[[0.5, 0.5]], [[1.0, 0.0], [0.0]]]),
            lambda: ProbabilityTable("x"),
            lambda: ProbabilityTable([[["0.5", "0.5"]]]),
            lambda: ProbabilityTable([[[True, False]]]),
            lambda: ProbabilityTable(np.array(HALF, dtype=object)),
            lambda: ProbabilityTable(np.array(HALF, dtype=complex)),
            lambda: ProbabilityTable(HALF, empirical="no"),
            lambda: ProbabilityTable(HALF, empirical=1),
            lambda: pair_value(WitnessKind.LINEAR, np.ones((2, 3))),
            lambda: pair_value(WitnessKind.QUADRATIC, [1j]),
            lambda: pair_value(WitnessKind.LINEAR, []),
            lambda: pair_value(WitnessKind.LINEAR, [0.5, 0.5]),
            lambda: pair_value(WitnessKind.QUADRATIC, [True]),
            lambda: pair_value(WitnessKind.LINEAR, "x"),
            lambda: pair_value(WitnessKind.LINEAR, [np.nan]),
            lambda: pair_value(WitnessKind.QUADRATIC, [np.inf]),
            lambda: pair_value(WitnessKind.LINEAR, [-np.inf]),
        ],
        ids=["ragged", "string", "strings", "bools", "objects", "complex", "empirical-string",
             "empirical-int", "2d-differences", "complex-differences", "no-differences",
             "not-a-pair-count", "bool-differences", "string-differences", "nan-difference",
             "inf-difference", "minus-inf-difference"],
    )
    def test_refused(self, call):
        with pytest.raises(BadArgument):
            call()

    @pytest.mark.parametrize("kind, differences, message", [
        (WitnessKind.LINEAR, [0.5, np.nan, 0.5], "^pair differences must be finite$"),
        (WitnessKind.QUADRATIC, [0.5, -np.inf, 0.5], "^pair differences must be finite$"),
        # finite entries past the float range: the refusal names the witness, not the entries
        (WitnessKind.QUADRATIC, [1e200], "^the quadratic witness of these pair differences overflows a float$"),
        (WitnessKind.LINEAR, [1e308, 1e308, 1e308], "^the linear witness of these pair differences overflows a float$"),
    ])
    def test_non_finite_value_is_refused_with_its_cause(self, kind, differences, message):
        with np.errstate(over="ignore"), pytest.raises(BadArgument, match=message):
            pair_value(kind, differences)

    @pytest.mark.parametrize("call", [
        lambda table, path: evaluate(WitnessKind.LINEAR, table),
        lambda table, path: pair_differences(table),
        lambda table, path: save_table(table, WitnessKind.LINEAR, path),
    ], ids=["evaluate", "pair_differences", "save_table"])
    def test_table_must_be_a_probability_table(self, call, tmp_path):
        path = tmp_path / "table.json"
        for table in (np.full((2, 1, 2), 0.5), [[[0.5, 0.5]], [[0.5, 0.5]]]):
            with pytest.raises(BadArgument, match="^table must be a ProbabilityTable, got "):
                call(table, path)
        assert not path.exists()

    def test_numbers_pass(self):
        assert ProbabilityTable(np.array(HALF, dtype=np.float32), empirical=True).empirical is True
        assert ProbabilityTable([[[1, 0]]]).p.dtype == float
        assert pair_value(WitnessKind.QUADRATIC, np.array([1, 2, 3])) == 14.0


def _not_numbers(good):
    """A valid nested list of floats holding a 1.0, as numeric strings, as an all-bool ndarray
    and with its first 1.0 replaced by True: three inputs that are the same numbers, but not numbers."""
    arr = np.array(good, dtype=float)
    flat = arr.ravel().tolist()
    flat[flat.index(1.0)] = True
    mixed = np.array(flat, dtype=object).reshape(arr.shape).tolist()
    return {"numeric-strings": arr.astype(str).tolist(), "all-bool-ndarray": arr.astype(bool),
            "bool-among-floats": mixed}


ARRAY_SITES = {
    "StateVector": (StateVector, [1.0, 0.0]),
    "DensityMatrix": (DensityMatrix, [[1.0, 0.0], [0.0, 0.0]]),
    "Effect": (Effect, [[1.0, 0.0], [0.0, 0.0]]),
    "from_vectors": (Ensemble.from_vectors, [[1.0, 0.0], [0.0, 1.0]]),
    "from_matrices": (Ensemble.from_matrices, [[[1.0, 0.0], [0.0, 0.0]]]),
    "PairMeasurementSet": (PairMeasurementSet, [[[1.0, 0.0], [0.0, 0.0]]]),
    "ProbabilityTable": (ProbabilityTable, [[[1.0, 0.0]], [[0.0, 1.0]]]),
    "pair_value": (functools.partial(pair_value, WitnessKind.LINEAR), [0.5, 1.0, 0.1]),
}

SCALAR_SITES = {
    "certify_dimension": ("witness value", lambda v: certify_dimension(WitnessKind.QUADRATIC, 5, v)),
    "NoiseModel": ("depolarizing_eta", lambda v: NoiseModel(depolarizing_eta=v)),
    "depolarize": ("eta", lambda v: depolarize(pure_state([1.0, 0.0]), v)),
}


class TestOneNumberRule:
    """Every array and every real argument is held to one rule: a number is an int or a float
    (or, for a complex array, a complex), never a bool or a string, and a real argument is finite."""

    @pytest.mark.parametrize("variant", ["numeric-strings", "all-bool-ndarray", "bool-among-floats"])
    @pytest.mark.parametrize("site", list(ARRAY_SITES))
    def test_array_refused(self, site, variant):
        build, good = ARRAY_SITES[site]
        build(good)  # the same values as numbers pass
        with pytest.raises(BadArgument, match="not (real )?numbers$"):
            build(_not_numbers(good)[variant])

    @pytest.mark.parametrize("value", [math.nan, math.inf, True, "0.1", 1j, 10**400],
                             ids=["nan", "inf", "True", "string", "complex", "past-float-range"])
    @pytest.mark.parametrize("site", list(SCALAR_SITES))
    def test_scalar_refused(self, site, value):
        name, call = SCALAR_SITES[site]
        with pytest.raises(BadArgument, match=f"^{name} must be a finite number"):
            call(value)

    def test_real_values_are_kept_as_float(self):
        for value in (np.float64(0.25), np.float32(0.25), Fraction(1, 4)):
            eta = NoiseModel(value).depolarizing_eta
            assert eta == 0.25 and type(eta) is float
        assert NoiseModel(1).depolarizing_eta == 1.0
        assert certify_dimension(WitnessKind.QUADRATIC, 5, np.int64(8)) == certify_dimension(WitnessKind.QUADRATIC, 5, 8.0)


class TestDeterministicStrategyIntegers:
    @pytest.mark.parametrize(
        "args",
        [
            (True, 2, (1,), {}),
            (2.0, 2, (1, 2), {}),
            (2, "2", (1, 2), {}),
            (2, 2, (1, 1.5), {(1, 1): 1}),
            (2, 2, (1, True), {(1, 1): 1}),
            (2, 2, (1, 2), [[1.5, 1]]),
            (2, 2, (1, 2), [[1, "2"]]),
            (2, 2, (1, 2), [[True, 1]]),
            (2, 2, (1, 2), [[1, 2**63]]),
            (2, 2, 5, [[1, 2]]),
            (2, 2, (1, 1), [1, 2]),
            (2, 2, (1, 1), {(1, 1): 1, (1, 2): 2}),
            (2, 2, (1, 1), [[1, 2], [1]]),
            (2, 2, (1, 1), [[1, 2, 1]]),
        ],
        ids=["bool-N", "float-N", "string-d", "float-symbol", "bool-symbol", "float-outcome", "string-outcome",
             "bool-outcome", "outcome-past-int64", "int-encoding", "list-decoding", "mapping-decoding",
             "ragged-decoding", "decoding-wider-than-d"],
    )
    def test_refused(self, args):
        with pytest.raises(BadArgument):
            DeterministicStrategy(*args)

    def test_integral_values_are_kept_as_int(self):
        strategy = DeterministicStrategy(np.int64(2), 2, (np.int64(1), 2), [[np.int64(2), 1]])
        assert type(strategy.N) is int
        for table, entries in ((strategy.encoding, [1, 2]), (strategy.decoding, [[2, 1]])):
            assert table.dtype == np.int64 and table.tolist() == entries
        # uint8 entries and Python integers past int32 are integers too, kept in int64
        uint8 = DeterministicStrategy(2, 2, np.array([1, 2], np.uint8), np.array([[2, 1]], np.uint8))
        assert uint8.encoding.dtype == uint8.decoding.dtype == np.int64
        assert DeterministicStrategy(2, 2, (1, 2), [[2**40, 1]]).decoding.tolist() == [[2**40, 1]]
        assert strategy_table(strategy, WitnessKind.QUADRATIC).p[:, 0, 0].tolist() == [0.0, 1.0]


class TestBooleanCounts:
    """JSON ``true`` is not a count in any file."""

    def test_boolean_dim_exits_2(self, capsys, tmp_path):
        path = tmp_path / "e.json"
        path.write_text('{"dim": true, "states": [[[1.0, 0.0]], [[1.0, 0.0]]]}')
        code, out, err = run(capsys, "evaluate", "--witness", "quadratic", "--ensemble", str(path), "--helstrom")
        assert code == 2 and out == ""
        assert "'dim'" in err

    @pytest.mark.parametrize("field", ["N", "m", "k"])
    def test_boolean_table_count_rejected(self, tmp_path, field):
        payload = {"witness": "quadratic", "N": 2, "m": 1, "k": 2, "p": [[[1.0, 0.0]], [[0.0, 1.0]]]}
        payload[field] = True
        path = tmp_path / "t.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(FileFormatError, match=f"'{field}'"):
            load_table(path)

    def test_boolean_dump_dim_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"dim": true, "states": [[[1.0, 0.0]], [[1.0, 0.0]]], "effects": {"2,1": [[1.0, 0.0]]}}')
        with pytest.raises(FileFormatError, match="'dim'"):
            load_ensemble(path)


class TestNonNumberValues:
    """Strings and JSON true/false are not numbers in any file, even mixed in among numbers."""

    @pytest.mark.parametrize("p", [
        [[["0.5", "0.5"]], [[True, False]]],
        [[[0.5, 0.5]], [[True, 0.0]]],
        [[[0.5, 0.5]], [[1, "0"]]],
    ])
    def test_table_values_exit_2(self, capsys, tmp_path, p):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"witness": "quadratic", "N": 2, "m": 1, "k": 2, "p": p}))
        code, out, err = run(capsys, "evaluate", "--witness", "quadratic", "--table", str(path))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ") and "'p'" in err

    def test_json_integers_are_numbers(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text('{"witness": "quadratic", "N": 2, "m": 1, "k": 2, "p": [[[1, 0]], [[0, 1]]]}')
        assert load_table(path)[0].p.tolist() == [[[1.0, 0.0]], [[0.0, 1.0]]]

    @pytest.mark.parametrize("bad", [["1", "0"], [True, False], [True, 0.0], [1.0, "0"]])
    def test_state_amplitudes_exit_2(self, capsys, tmp_path, bad):
        path = tmp_path / "e.json"
        states = [[bad, [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        path.write_text(json.dumps({"dim": 2, "states": states}))
        code, out, err = run(capsys, "evaluate", "--witness", "quadratic", "--ensemble", str(path), "--helstrom")
        assert code == 2 and out == ""
        assert "states[0][0]" in err

    @pytest.mark.parametrize("bad", [["0.5", 0.0], [False, 0.0]])
    def test_density_matrix_entries_rejected(self, tmp_path, bad):
        path = tmp_path / "e.json"
        flat = [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]
        path.write_text(json.dumps({"dim": 2, "density_matrices": [flat, flat[:3] + [bad]]}))
        with pytest.raises(FileFormatError, match=r"density_matrices\[1\]\[3\]"):
            load_ensemble(path)


class TestHugeCounts:
    """Counts whose digits or squares are too large end in one error line, exit 2."""

    def test_enumeration_guard_message_stays_short(self, capsys):
        # 10000 symbols and 49,995,000 x 3 decoding entries pass the size bound before the search guard is counted
        code, out, err = run(capsys, "classical", "--witness", "linear", "--N", "10000", "--d", "3")
        assert code == 2 and out == ""
        assert err == ("error: N=10000, d=3 needs more than 10^7 strategy entries (N + m * min(d, N)), "
                       "the strategy size bound\n")

    @pytest.mark.parametrize("n, d", [(10**9, 10**7), (10**12, 10**11)])
    def test_enumeration_guard_counts_no_more_symbols_than_items(self, capsys, n, d):
        # the entry count is arithmetic on N and min(d, N): nothing is built or counted one symbol at a time
        code, out, err = run(capsys, "classical", "--witness", "linear", "--N", str(n), "--d", str(d))
        assert code == 2 and out == ""
        assert err == (f"error: N={n}, d={d} needs more than 10^7 strategy entries (N + m * min(d, N)), "
                       "the strategy size bound\n")

    def test_single_message_enumeration_is_bounded_in_n(self, capsys):
        # d = 1 has one encoding for every N, so the search guard alone never refuses it; the size
        # bound does, past 4471 symbols and 4471 * 4470 / 2 decoding rows
        code, out, err = run(capsys, "classical", "--witness", "linear", "--N", "1500", "--d", "1")
        assert code == 0 and err == "" and "enumerated maximum: 0\n" in out
        code, out, err = run(capsys, "classical", "--witness", "linear", "--N", "4472", "--d", "1")
        assert code == 2 and out == ""
        assert err == ("error: N=4472, d=1 needs more than 10^7 strategy entries (N + m * min(d, N)), "
                       "the strategy size bound\n")

    def test_single_message_count_check_does_not_loop_over_n(self, capsys):
        code, out, err = run(capsys, "classical", "--witness", "guessing", "--N", str(10**150), "--d", "1")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.endswith("needs more than 10^7 strategy entries (N + m * min(d, N)), "
                                                       "the strategy size bound\n")

    def test_preparations_whose_square_overflows(self, capsys):
        code, out, err = run(capsys, "bounds", "--witness", "quadratic", "--N", str(10**160), "--d", "2")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ") and "10^150" in err

    def test_largest_accepted_count_gives_finite_ceilings(self):
        for kind in WitnessKind:
            assert math.isfinite(quantum_bound(kind, 10**150, 2))
            classical = classical_bound(kind, 10**150, 2)
            assert classical is None or math.isfinite(classical)

    @pytest.mark.parametrize("argv", [
        ("--N", "3", "--d", "2", "--restarts", str(10**20)),
        ("--N", "5000", "--d", "2"),
    ])
    def test_seesaw_size_is_bounded(self, capsys, argv):
        # restarts * N^2 sizes the stacked Gram matrices: 10^20 restarts, or 20 at N = 5000 (8 GB)
        code, out, err = run(capsys, "seesaw", "--witness", "linear", *argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ") and err.endswith("the see-saw's size bound\n")

    @pytest.mark.parametrize("restarts", ["1", "100"])
    def test_seesaw_pair_effects_are_bounded(self, capsys, restarts):
        # N = 100 at d = 99 builds 4950 effects of 99 x 99 entries: a 3 GB peak with one restart
        argv = ("--N", "100", "--d", "99", "--restarts", restarts, "--max-iters", "3")
        code, out, err = run(capsys, "seesaw", "--witness", "linear", *argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ") and err.endswith("the see-saw's size bound\n")

    def test_helstrom_effects_are_bounded(self, capsys, tmp_path):
        # 100 pure states in d = 99: a 440 KB file whose Helstrom effects would peak at 3 GB
        vecs = np.eye(99)[np.arange(100) % 99]
        path = tmp_path / "e.json"
        path.write_text(json.dumps({"dim": 99, "states": [[[float(a), 0.0] for a in v] for v in vecs]}))
        with pytest.raises(TooLarge, match="Helstrom size bound"):
            helstrom_measurements(load_ensemble(path))
        # evaluate builds no effects: 4950 pairs at trace distance 1, but for the one repeated state
        code, out, err = run(capsys, "evaluate", "--witness", "quadratic", "--ensemble", str(path), "--helstrom",
                             "--json")
        assert code == 0 and err == ""
        assert json.loads(out)["value"] == 4949.0

    @pytest.mark.parametrize("pure, entries", [(True, 6), (False, 12)])
    def test_helstrom_differences_bound_is_inclusive(self, monkeypatch, pure, entries):
        # N = 3 at d = 2: 3 pairs of 2 amplitudes (pure) or of 2 x 2 matrices (mixed)
        ensemble = fourier_ensemble(3, 2)
        if not pure:
            ensemble = Ensemble.from_matrices(ensemble.matrices())
        monkeypatch.setattr(kernels, "MAX_PAIR_ENTRIES", entries)
        assert helstrom_differences(ensemble).shape == (3,)
        monkeypatch.setattr(kernels, "MAX_PAIR_ENTRIES", entries - 1)
        with pytest.raises(TooLarge, match="Helstrom size bound"):
            helstrom_differences(ensemble)

    def test_fourier_ensemble_bound_is_inclusive(self, monkeypatch):
        # N = 3 at d = 2: 6 amplitudes
        monkeypatch.setattr(kernels, "MAX_PAIR_ENTRIES", 6)
        assert fourier_ensemble(3, 2).N == 3
        monkeypatch.setattr(kernels, "MAX_PAIR_ENTRIES", 5)
        with pytest.raises(TooLarge, match="ensemble size bound"):
            fourier_ensemble(3, 2)

    def test_states_size_is_bounded(self, capsys, tmp_path):
        # 10^12 amplitudes, 14.6 TiB, refused before anything is allocated
        path = tmp_path / "x.json"
        code, out, err = run(capsys, "states", "--N", "1000000", "--d", "1000000", "--out", str(path))
        assert code == 2 and out == "" and not path.exists()
        assert err.count("\n") == 1 and err.startswith("error: ") and err.endswith("the ensemble size bound\n")

    def test_size_bounds_are_inclusive(self, monkeypatch):
        # N = 3 at d = 2: 3 pairs of 2 x 2 effects, and 3 * 2 * max(restarts, 2) see-saw entries
        monkeypatch.setattr(kernels, "MAX_PAIR_ENTRIES", 12)
        helstrom_measurements(fourier_ensemble(3, 2))
        SeesawConfig(WitnessKind.LINEAR, 3, 2, restarts=2)
        with pytest.raises(TooLarge, match="Helstrom size bound"):
            helstrom_measurements(fourier_ensemble(4, 2))
        with pytest.raises(TooLarge, match="see-saw's size bound"):
            SeesawConfig(WitnessKind.LINEAR, 3, 2, restarts=3)
        monkeypatch.setattr(kernels, "MAX_PAIR_ENTRIES", 11)
        with pytest.raises(TooLarge, match="Helstrom size bound"):
            helstrom_measurements(fourier_ensemble(3, 2))
        with pytest.raises(TooLarge, match="see-saw's size bound"):
            SeesawConfig(WitnessKind.LINEAR, 3, 2, restarts=1)


class TestRefusalsRunOnce:
    """Refusals no other test reaches: each raises its type with its message."""

    @pytest.mark.parametrize("call, error, message", [
        (lambda: ProbabilityTable(np.full((2, 2), 0.5)), ShapeMismatch,
         "table must have shape (N, m, k), got (2, 2)"),
        # at N = 2 a guessing table has the pair shape
        (lambda: pair_differences(ProbabilityTable(np.full((3, 1, 3), 1 / 3))), ShapeMismatch,
         "pair differences need a pair-witness shaped table"),
        (lambda: StateVector([[1, 0]]), BadArgument, "amplitudes must be a nonempty 1-D array, got shape (1, 2)"),
        (lambda: fourier_ensemble(0, 1), BadArgument, "need at least one state, got 0"),
        (lambda: DeterministicStrategy(3, 2, (1, 2), {}), BadArgument, "encoding must assign all 3 preparations"),
        (lambda: strategy_table(DeterministicStrategy(2, 2, (1, 2), [[3, 1]]),
                                WitnessKind.QUADRATIC),
         IncompleteDecoding, "decoding(1, 1) = 3 is not an outcome in 1..2"),
        (lambda: guessing_table(fourier_ensemble(3, 2), [Effect(np.eye(3) / 3)] * 3), DimensionMismatch,
         "effect dimension does not match the ensemble"),
    ], ids=["2d-table", "guessing-pair-differences", "2d-state-vector", "no-fourier-states",
            "short-encoding", "decoding-outcome-past-k", "guessing-effect-dimension"])
    def test_object(self, call, error, message):
        with pytest.raises(error) as refusal:
            call()
        assert str(refusal.value) == message

    @pytest.mark.parametrize("source, data, message", [
        ("--table", {**_TABLE, "p": [[[0.5, 0.5]]]}, "'p' has shape (1, 1, 2), declared (2, 1, 2)"),
        ("--table", [_TABLE], "top level must be a JSON object"),
        ("--ensemble", {"dim": 2, "states": []}, "'states' must be a nonempty list"),
        ("--ensemble", {"dim": 2, "states": [[[1, 0], [0, 0]], [[1, 0]]]}, "states[1]: expected 2 [re, im] pairs"),
    ], ids=["table-shape", "top-level-list", "no-states", "short-state"])
    def test_file(self, capsys, tmp_path, source, data, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        helstrom = ["--helstrom"] if source == "--ensemble" else []
        code, out, err = run(capsys, "evaluate", "--witness", "quadratic", source, str(path), *helstrom)
        assert code == 2 and out == ""
        assert err == f"error: {path}: {message}\n"

    def test_ensemble_needs_helstrom(self, capsys):
        # refused before the file is read, so the file need not exist
        code, out, err = run(capsys, "evaluate", "--witness", "quadratic", "--ensemble", "F")
        assert code == 2 and out == ""
        assert err == "error: --ensemble needs --helstrom to derive the pair measurements\n"
