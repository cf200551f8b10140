"""JSON serialization of ensembles, probability tables, and see-saw models.

Complex numbers are stored as [re, im] pairs and matrices as flat row-major
lists of such pairs, so every file is trivially parseable anywhere and
compact: one line of JSON with a trailing newline, written by the C encoder
of ``json.dumps``. Floats go through ``repr`` (shortest decimal
representation), which round-trips binary doubles exactly.

Schemas
-------
Ensemble file: ``{"dim": d, "states": [[amp, ...], ...]}`` for pure
ensembles (one [re, im] amplitude per level), or
``{"dim": d, "density_matrices": [flat matrix, ...]}`` otherwise.

Table file: ``{"witness": kind, "N": n, "m": m, "k": k, "p": [[[...]]],
"empirical": flag}`` with ``p[x-1][y-1][b-1]``; pair measurements ordered
lexicographically by (x, x') with x > x'. ``empirical`` marks finite-shot
frequencies; a file without it holds exact probabilities.

See-saw dump: the pure-ensemble schema plus ``"effects"``, a map from pair
strings ``"x,x'"`` to flat matrices; P effects stand for the N preparations
with P = N(N-1)/2, so their keys are exactly the pairs of that N.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import DimWitnessError, FileFormatError, NotPure
from .kernels import pair_labels, preparation_count
from .quantum import DensityMatrix, Ensemble, PairMeasurementSet, pure_state
from .seesaw import SeesawResult
from .simulate import require_compatible
from .witnesses import ProbabilityTable, WitnessKind


def _complex_to_json(a: np.ndarray) -> list[list[float]]:
    """A vector or matrix as a flat row-major list of [re, im] pairs."""
    return np.stack([a.real, a.imag], axis=-1).reshape(-1, 2).tolist()


def _json_to_complex_array(data, count: int, where: str) -> np.ndarray:
    if not isinstance(data, list) or len(data) != count:
        raise FileFormatError(f"{where}: expected {count} [re, im] pairs")
    out = np.empty(count, dtype=complex)
    for i, entry in enumerate(data):
        if not isinstance(entry, list) or len(entry) != 2:
            raise FileFormatError(f"{where}[{i}]: expected an [re, im] pair")
        try:
            out[i] = complex(float(entry[0]), float(entry[1]))
        except (TypeError, ValueError):
            raise FileFormatError(f"{where}[{i}]: [re, im] must be numbers, got {entry}") from None
    return out


def _read_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise FileFormatError(f"{path}: top level must be a JSON object")
    return data


def _write_json(path, payload: dict) -> None:
    # json.dumps without indent runs the C encoder; json.dump never does.
    text = json.dumps(payload) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def save_ensemble(ensemble: Ensemble, path) -> None:
    """Write an ensemble; pure ensembles keep their amplitude representation."""
    payload: dict = {"dim": ensemble.dim}
    try:
        vectors = ensemble.vectors()
    except NotPure:
        payload["density_matrices"] = [_complex_to_json(s.matrix) for s in ensemble.states]
    else:
        payload["states"] = [_complex_to_json(v) for v in vectors]
    _write_json(path, payload)


def _read_count(path, data: dict, name: str) -> int:
    """A positive integer field; JSON ``true`` is not a count."""
    value = data.get(name)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise FileFormatError(f"{path}: '{name}' must be a positive integer")
    return value


def _read_states(path, data: dict, key: str) -> Ensemble:
    """The ensemble under ``key`` ("states" or "density_matrices"); names a bad state ``key[i]``."""
    dim = _read_count(path, data, "dim")
    entries = data.get(key)
    if not isinstance(entries, list) or not entries:
        raise FileFormatError(f"{path}: '{key}' must be a nonempty list")
    pure = key == "states"
    states: list[DensityMatrix] = []
    for i, entry in enumerate(entries):
        where = f"{key}[{i}]"
        flat = _json_to_complex_array(entry, dim if pure else dim * dim, where)
        try:
            states.append(pure_state(flat) if pure else DensityMatrix(flat.reshape(dim, dim)))
        except DimWitnessError as exc:
            raise FileFormatError(f"{where}: {exc}") from exc
    return Ensemble(tuple(states))


def load_ensemble(path) -> Ensemble:
    """Read an ensemble file, validating every state and naming offenders."""
    data = _read_json(path)
    has_states = "states" in data
    has_matrices = "density_matrices" in data
    if has_states == has_matrices:
        raise FileFormatError(f"{path}: provide exactly one of 'states' or 'density_matrices'")
    return _read_states(path, data, "states" if has_states else "density_matrices")


def save_table(table: ProbabilityTable, kind: WitnessKind, path) -> None:
    """Write a probability table together with its declared witness kind."""
    payload = {
        "witness": kind.value,
        "N": table.N,
        "m": table.m,
        "k": table.k,
        "p": table.p.tolist(),
        "empirical": table.empirical,
    }
    _write_json(path, payload)


def load_table(path) -> tuple[ProbabilityTable, WitnessKind]:
    """Read a table file; the declared shape must match the witness kind."""
    data = _read_json(path)
    try:
        kind = WitnessKind(data.get("witness"))
    except ValueError:
        raise FileFormatError(f"{path}: 'witness' must be one of "
                              f"{[k.value for k in WitnessKind]}") from None
    n, m, k = (_read_count(path, data, name) for name in ("N", "m", "k"))
    if (m, k) != kind.table_shape(n):
        raise FileFormatError(
            f"{path}: declared shape (m={m}, k={k}) does not match a {kind.value} witness at N={n}"
        )
    try:
        p = np.asarray(data.get("p"), dtype=float)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}: 'p' must be a numeric array") from exc
    if p.shape != (n, m, k):
        raise FileFormatError(f"{path}: 'p' has shape {p.shape}, declared ({n}, {m}, {k})")
    empirical = data.get("empirical", False)
    if not isinstance(empirical, bool):
        raise FileFormatError(f"{path}: 'empirical' must be true or false")
    try:
        table = ProbabilityTable(p, empirical=empirical)
    except DimWitnessError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    return table, kind


def save_seesaw_dump(result: SeesawResult, path) -> None:
    """Write a see-saw model: the pure ensemble plus the pair effects."""
    vectors = result.ensemble.vectors()
    measurements = result.measurements
    payload = {
        "dim": result.ensemble.dim,
        "states": [_complex_to_json(v) for v in vectors],
        "effects": {
            f"{x},{xp}": _complex_to_json(effect)
            for (x, xp), effect in zip(pair_labels(measurements.N), measurements.stack)
        },
    }
    _write_json(path, payload)


def load_seesaw_dump(path) -> tuple[Ensemble, PairMeasurementSet]:
    """Read a see-saw dump back into validated domain objects."""
    data = _read_json(path)
    ensemble = _read_states(path, data, "states")
    dim = ensemble.dim
    effects_json = data.get("effects")
    if not isinstance(effects_json, dict) or not effects_json:
        raise FileFormatError(f"{path}: 'effects' must be a nonempty object")
    n = preparation_count(len(effects_json))
    keys = [f"{x},{xp}" for x, xp in pair_labels(n)] if n else []
    if set(effects_json) != set(keys):
        raise FileFormatError(f"{path}: effect keys must be exactly all 'x,x'' with N >= x > x' >= 1")
    flat = [_json_to_complex_array(effects_json[key], dim * dim, f"effects[{key}]") for key in keys]
    try:
        measurements = PairMeasurementSet.from_stack(np.reshape(flat, (-1, dim, dim)))
        require_compatible(ensemble, measurements)
    except DimWitnessError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    return ensemble, measurements
