"""Shared random-model builders for the test suite.

Everything is driven by explicitly seeded generators so failures reproduce.
"""

from __future__ import annotations

import gc
import json
import tracemalloc

import numpy as np
import pytest

from dimwitness import DensityMatrix, Effect, Ensemble, pure_state
from dimwitness import files, kernels


def random_state_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def random_pure(rng: np.random.Generator, dim: int) -> DensityMatrix:
    return pure_state(random_state_vector(rng, dim))


def random_density(rng: np.random.Generator, dim: int, rank: int | None = None) -> DensityMatrix:
    """A random state of the given rank (full rank by default)."""
    rank = dim if rank is None else rank
    a = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    g = a @ a.conj().T
    return DensityMatrix(g / np.trace(g).real)


def random_pure_ensemble(rng: np.random.Generator, n: int, dim: int) -> Ensemble:
    return Ensemble.from_vectors(np.stack([random_state_vector(rng, dim) for _ in range(n)]))


def random_povm(rng: np.random.Generator, dim: int, outcomes: int) -> list[Effect]:
    blocks = []
    for _ in range(outcomes):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        blocks.append(a @ a.conj().T)
    total = np.sum(blocks, axis=0)
    w, v = np.linalg.eigh(total)
    inv_sqrt = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    return [Effect(inv_sqrt @ b @ inv_sqrt) for b in blocks]


def random_projector(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    a = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    q, _ = np.linalg.qr(a)
    return q @ q.conj().T


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


def dump_effects(path) -> np.ndarray:
    """The ``"effects"`` of a see-saw dump as a (P, d, d) complex stack in pair order, parsed without the package.

    The package reads a dump only as its ensemble; this checks what the writer
    put next to the states. Viewing each [re, im] pair as one complex keeps
    every bit, signed zeros too.
    """
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    n, d = len(data["states"]), data["dim"]
    keys = [f"{x},{xp}" for x in range(2, n + 1) for xp in range(1, x)]
    assert list(data["effects"]) == keys
    pairs = np.array([data["effects"][key] for key in keys], dtype=float)
    return pairs.view(complex)[..., 0].reshape(-1, d, d)


def retained_bytes(call) -> int:
    """Memory that ``call()`` leaves allocated once it returns."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """Fail any test that returns with the cyclic garbage collector disabled.

    ``files`` pauses the collector for each load. Every test that loads a file
    thus also checks that the load restored it. The collector is enabled again
    before the failure, so later tests run as usual.
    """
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test returned with the cyclic garbage collector disabled")


@pytest.fixture
def small_pair_labels(monkeypatch):
    """Make ``pair_labels`` and ``pair_index`` refuse N > 100 in every module that calls them.

    An input that sizes N from a label rather than from its pair count then
    fails the test at once instead of exhausting memory.
    """

    def guard(original):
        def guarded(n):
            if n > 100:
                pytest.fail(f"{original.__name__}({n}) was sized from a label, not from the pair count")
            return original(n)

        return guarded

    for module in (files, kernels):
        monkeypatch.setattr(module, "pair_labels", guard(kernels.pair_labels))
    # classical, quantum and seesaw reach the index arrays through the kernels module
    monkeypatch.setattr(kernels, "pair_index", guard(kernels.pair_index))
