"""JSON serialization of ensembles, probability tables, and see-saw models.

Complex numbers are stored as [re, im] pairs and matrices as flat row-major
lists of such pairs, so every file is trivially parseable anywhere and
diff-friendly. Floats go through the default JSON encoder (shortest decimal
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
strings ``"x,x'"`` to flat matrices.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import DimWitnessError, FileFormatError, NotPure
from .quantum import DensityMatrix, Effect, Ensemble, PairMeasurementSet, pure_state
from .seesaw import SeesawResult
from .witnesses import ProbabilityTable, WitnessKind, pair_labels


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _vector_to_json(v: np.ndarray) -> list[list[float]]:
    return [_pair(z) for z in v]


def _matrix_to_json(m: np.ndarray) -> list[list[float]]:
    return [_pair(z) for z in m.reshape(-1)]


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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def save_ensemble(ensemble: Ensemble, path) -> None:
    """Write an ensemble; pure ensembles keep their amplitude representation."""
    payload: dict = {"dim": ensemble.dim}
    try:
        vectors = ensemble.vectors()
    except NotPure:
        payload["density_matrices"] = [_matrix_to_json(s.matrix) for s in ensemble.states]
    else:
        payload["states"] = [_vector_to_json(v) for v in vectors]
    _write_json(path, payload)


def load_ensemble(path) -> Ensemble:
    """Read an ensemble file, validating every state and naming offenders."""
    data = _read_json(path)
    dim = data.get("dim")
    if not isinstance(dim, int) or dim < 1:
        raise FileFormatError(f"{path}: 'dim' must be a positive integer")
    has_states = "states" in data
    has_matrices = "density_matrices" in data
    if has_states == has_matrices:
        raise FileFormatError(f"{path}: provide exactly one of 'states' or 'density_matrices'")

    states: list[DensityMatrix] = []
    if has_states:
        entries = data["states"]
        if not isinstance(entries, list) or not entries:
            raise FileFormatError(f"{path}: 'states' must be a nonempty list")
        for i, entry in enumerate(entries):
            amps = _json_to_complex_array(entry, dim, f"states[{i}]")
            try:
                states.append(pure_state(amps))
            except DimWitnessError as exc:
                raise FileFormatError(f"states[{i}]: {exc}") from exc
    else:
        entries = data["density_matrices"]
        if not isinstance(entries, list) or not entries:
            raise FileFormatError(f"{path}: 'density_matrices' must be a nonempty list")
        for i, entry in enumerate(entries):
            flat = _json_to_complex_array(entry, dim * dim, f"density_matrices[{i}]")
            try:
                states.append(DensityMatrix(flat.reshape(dim, dim)))
            except DimWitnessError as exc:
                raise FileFormatError(f"density_matrices[{i}]: {exc}") from exc
    return Ensemble(tuple(states))


def save_table(table: ProbabilityTable, kind: WitnessKind, path) -> None:
    """Write a probability table together with its declared witness kind."""
    payload = {
        "witness": kind.value,
        "N": table.N,
        "m": table.m,
        "k": table.k,
        "p": [[list(map(float, row)) for row in per_x] for per_x in table.p],
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
    n, m, k = data.get("N"), data.get("m"), data.get("k")
    for name, value in (("N", n), ("m", m), ("k", k)):
        if not isinstance(value, int) or value < 1:
            raise FileFormatError(f"{path}: '{name}' must be a positive integer")
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
        "states": [_vector_to_json(v) for v in vectors],
        "effects": {
            f"{x},{xp}": _matrix_to_json(effect)
            for (x, xp), effect in zip(pair_labels(measurements.N), measurements.stack)
        },
    }
    _write_json(path, payload)


def load_seesaw_dump(path) -> tuple[Ensemble, PairMeasurementSet]:
    """Read a see-saw dump back into validated domain objects."""
    data = _read_json(path)
    dim = data.get("dim")
    if not isinstance(dim, int) or dim < 1:
        raise FileFormatError(f"{path}: 'dim' must be a positive integer")
    entries = data.get("states")
    if not isinstance(entries, list) or not entries:
        raise FileFormatError(f"{path}: 'states' must be a nonempty list")
    states = []
    for i, entry in enumerate(entries):
        amps = _json_to_complex_array(entry, dim, f"states[{i}]")
        try:
            states.append(pure_state(amps))
        except DimWitnessError as exc:
            raise FileFormatError(f"states[{i}]: {exc}") from exc
    effects_json = data.get("effects")
    if not isinstance(effects_json, dict) or not effects_json:
        raise FileFormatError(f"{path}: 'effects' must be a nonempty object")
    effects = {}
    for key, entry in effects_json.items():
        try:
            x_str, xp_str = key.split(",")
            x, xp = int(x_str), int(xp_str)
        except ValueError:
            raise FileFormatError(f"{path}: effect key '{key}' is not of the form 'x,x''") from None
        flat = _json_to_complex_array(entry, dim * dim, f"effects[{key}]")
        try:
            effects[(x, xp)] = Effect(flat.reshape(dim, dim))
        except DimWitnessError as exc:
            raise FileFormatError(f"effects[{key}]: {exc}") from exc
    try:
        measurements = PairMeasurementSet(effects)
    except DimWitnessError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    return Ensemble(tuple(states)), measurements
