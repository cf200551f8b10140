"""JSON serialization of ensembles, probability tables, and see-saw models.

Complex numbers are stored as [re, im] pairs and matrices as flat row-major
lists of such pairs, so every file is trivially parseable anywhere and
compact: one line of JSON with a trailing newline. A file's bytes are exactly
``json.dumps(payload) + "\n"`` with every array as its ``tolist()``: scalars
and keys go through ``json.dumps``, and each float array through one encoder
that formats every distinct double of each chunk of rows once with ``repr``
(shortest decimal representation, which round-trips binary doubles exactly)
and writes the array row by row.

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
strings ``"x,x'"`` to flat matrices. The writer builds the Helstrom effects
of the states it is given; ``load_ensemble`` reads a dump as the ensemble it
holds and ignores ``"effects"``.

Any ``DimWitnessError`` raised while loading a file becomes a
``FileFormatError`` whose message starts with the file's path. A load pauses
the cyclic garbage collector, for every thread, and then restores its state:
a JSON parse builds no reference cycle, so a collection would free nothing.
"""

from __future__ import annotations

import errno
import functools
import gc
import json
import os
import sys

import numpy as np

from .errors import BadArgument, DimWitnessError, FileFormatError, require_int
from .kernels import pair_labels
from .linalg import real_array
from .quantum import Ensemble, helstrom_measurements
from .witnesses import ProbabilityTable, WitnessKind, require_kind_shape

#: Entries that ``_rows`` formats at a time; an array of at most this many is one chunk.
_CHUNK = 2**20


def _pairs(stack: np.ndarray) -> np.ndarray:
    """A stack of vectors or matrices as a (count, entries, 2) array: each member flat row-major, as [re, im] pairs."""
    return np.stack([stack.real, stack.imag], axis=-1).reshape(len(stack), -1, 2)


def _number_pair(pair) -> bool:
    try:
        return real_array(pair, "an [re, im] pair").shape == (2,)
    except BadArgument:
        return False


def _complex_stack(entries: list, count: int, key: str) -> np.ndarray:
    """Each entry a list of ``count`` [re, im] pairs, as one (len(entries), count) complex array.

    ``real_array`` reads well-formed input in one pass. Only when it refuses
    does a scan find the first malformed entry, naming it ``key[i]`` or a
    pair in it ``key[i][j]``.
    """
    try:
        pairs = real_array(entries, "entries must be [re, im] pairs")
        if pairs.shape == (len(entries), count, 2):
            # reinterpreting the (re, im) doubles keeps every bit, signed zeros too
            return np.ascontiguousarray(pairs).view(complex)[..., 0]
    except BadArgument:
        pass
    for i, entry in enumerate(entries):
        if not isinstance(entry, list) or len(entry) != count:
            raise FileFormatError(f"{key}[{i}]: expected {count} [re, im] pairs")
        for j, pair in enumerate(entry):
            if not _number_pair(pair):
                raise FileFormatError(f"{key}[{i}][{j}]: expected an [re, im] pair of numbers in the float range "
                                      f"(integers of at most 64 bits), got {pair}")
    raise FileFormatError(f"{key}[0] to {key}[{len(entries) - 1}]: the [re, im] pairs do not form one array")


def _names_its_file(load):
    """``load(path)`` with every ``DimWitnessError`` it raises reworded to start with the path.

    The cyclic collector stays paused in every thread until the load returns or raises,
    so reference counting frees the parsed lists before any collection scans them.
    """

    @functools.wraps(load)
    def loader(path):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return load(path)
        except DimWitnessError as exc:
            raise FileFormatError(f"{path}: {exc}") from exc
        finally:
            if enabled:
                gc.enable()

    return loader


def _read_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        # also bytes that are not UTF-8 and too deep a nest
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise FileFormatError(f"not valid JSON ({exc})") from exc
        # the one other ValueError: an int literal past Python's digit limit (3.11+), in valid JSON
        except ValueError as exc:
            raise FileFormatError(f"holds an integer of more than {sys.get_int_max_str_digits()} digits") from exc
    if not isinstance(data, dict):
        raise FileFormatError("top level must be a JSON object")
    return data


def _rows(a: np.ndarray):
    """The text ``json.dumps(row.tolist())`` gives each row of the float array ``a``, one row at a time.

    Rows are encoded in chunks of about ``_CHUNK`` entries (at least one
    row), so the texts held at once stay bounded for any array. ``repr`` runs
    once per distinct double in each chunk. Distinct means distinct bits, so
    ``-0.0`` keeps its sign next to ``0.0``. Every array written here is
    finite, where ``repr`` and ``json.dumps`` agree.
    """
    bits = np.ascontiguousarray(a, dtype=float).view(np.int64).reshape(len(a), -1)
    # json.dumps's own separators: its text of a row of zeros, cut at each float
    separators = json.dumps(np.zeros(a.shape[1:]).tolist()).split("0.0")
    tokens = [None] * (2 * len(separators) - 1)
    tokens[::2] = separators
    step = max(1, _CHUNK // bits.shape[1])  # rows per chunk
    for start in range(0, len(bits), step):
        chunk = bits[start:start + step]
        distinct, inverse = np.unique(chunk, return_inverse=True)
        texts = np.fromiter(map(float.__repr__, distinct.view(float)), dtype=object, count=len(distinct))
        # the inverse's shape differs across numpy versions
        for row in inverse.reshape(chunk.shape):
            tokens[1::2] = texts[row].tolist()
            yield "".join(tokens)


def _write_json(path, payload: dict) -> None:
    """Write the bytes of ``json.dumps(payload) + "\n"``, with each array value as its ``tolist()``.

    A value ``(keys, array)`` stands for the object mapping ``keys[i]`` to
    ``array[i]``. Arrays are written to the file row by row as they are encoded.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for i, (name, value) in enumerate(payload.items()):
            fh.write(f"{', ' if i else '{'}{json.dumps(name)}: ")
            if isinstance(value, np.ndarray):
                for j, row in enumerate(_rows(value)):
                    fh.write(f"{', ' if j else '['}{row}")
                fh.write("]")
            elif isinstance(value, tuple):
                keys, array = value
                for j, (key, row) in enumerate(zip(keys, _rows(array))):
                    fh.write(f"{', ' if j else '{'}{json.dumps(key)}: {row}")
                fh.write("}")
            else:
                fh.write(json.dumps(value))
        fh.write("}\n")


def require_output_path(path) -> None:
    """Raise the ``OSError`` ``open(path, "w")`` would if ``path`` is a directory or its directory is not one.

    Creates nothing: a long command calls it first, so a bad path fails before the work.
    """
    try:  # "dir/" fails as the open would: ENOENT when dir is missing, ENOTDIR when it is a file
        os.stat(os.path.join(os.path.dirname(path) or os.curdir, ""))
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    if os.path.isdir(path):
        raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def _pure_payload(ensemble: Ensemble) -> dict:
    return {"dim": ensemble.dim, "states": _pairs(ensemble.vectors())}


def save_ensemble(ensemble: Ensemble, path) -> None:
    """Write an ensemble; pure ensembles keep their amplitude representation."""
    if ensemble.pure:
        payload = _pure_payload(ensemble)
    else:
        payload = {"dim": ensemble.dim, "density_matrices": _pairs(ensemble.matrices())}
    _write_json(path, payload)


def _read_states(data: dict, key: str) -> Ensemble:
    """The ensemble under ``key`` ("states" or "density_matrices"); names a bad state ``key[i]``."""
    dim = require_int(data.get("dim"), "'dim'", 1)
    entries = data.get(key)
    if not isinstance(entries, list) or not entries:
        raise FileFormatError(f"'{key}' must be a nonempty list")
    pure = key == "states"
    flat = _complex_stack(entries, dim if pure else dim * dim, key)
    return Ensemble.from_vectors(flat) if pure else Ensemble.from_matrices(flat.reshape(-1, dim, dim))


@_names_its_file
def load_ensemble(path) -> Ensemble:
    """Read an ensemble file, validating every state and naming offenders."""
    data = _read_json(path)
    has_states = "states" in data
    has_matrices = "density_matrices" in data
    if has_states == has_matrices:
        raise FileFormatError("provide exactly one of 'states' or 'density_matrices'")
    return _read_states(data, "states" if has_states else "density_matrices")


def save_table(table: ProbabilityTable, kind: WitnessKind, path) -> None:
    """Write a probability table together with its declared witness kind, which its shape must match."""
    require_kind_shape(table, kind)
    payload = {
        "witness": kind.value,
        "N": table.N,
        "m": table.m,
        "k": table.k,
        "p": table.p,
        "empirical": table.empirical,
    }
    _write_json(path, payload)


@_names_its_file
def load_table(path) -> tuple[ProbabilityTable, WitnessKind]:
    """Read a table file; the declared shape must match the witness kind."""
    data = _read_json(path)
    try:
        kind = WitnessKind(data.get("witness"))
    except ValueError:
        raise FileFormatError(f"'witness' must be one of {[k.value for k in WitnessKind]}") from None
    n, m, k = (require_int(data.get(name), f"'{name}'", 1) for name in ("N", "m", "k"))
    if (m, k) != kind.table_shape(n):
        raise FileFormatError(f"declared shape (m={m}, k={k}) does not match a {kind.value} witness at N={n}")
    p = real_array(data.get("p"), "'p' must be an array of numbers")
    if p.shape != (n, m, k):
        raise FileFormatError(f"'p' has shape {p.shape}, declared ({n}, {m}, {k})")
    return ProbabilityTable(p, empirical=data.get("empirical", False)), kind


def save_seesaw_dump(ensemble: Ensemble, path) -> None:
    """Write a see-saw model: a pure ensemble plus the Helstrom effect of each of its pairs."""
    payload = _pure_payload(ensemble)
    measurements = helstrom_measurements(ensemble)
    payload["effects"] = ([f"{x},{xp}" for x, xp in pair_labels(ensemble.N)], _pairs(measurements.stack))
    _write_json(path, payload)
