"""Shared random-model builders for the test suite.

Everything is driven by explicitly seeded generators so failures reproduce.
"""

from __future__ import annotations

import numpy as np
import pytest

from dimwitness import DensityMatrix, Effect, Ensemble, pure_state
from dimwitness import classical, files, kernels, quantum, witnesses


def random_state_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def random_pure(rng: np.random.Generator, dim: int) -> DensityMatrix:
    return pure_state(random_state_vector(rng, dim))


def random_density(rng: np.random.Generator, dim: int) -> DensityMatrix:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    g = a @ a.conj().T
    return DensityMatrix(g / np.trace(g).real)


def random_pure_ensemble(rng: np.random.Generator, n: int, dim: int) -> Ensemble:
    return Ensemble(tuple(random_pure(rng, dim) for _ in range(n)))


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


@pytest.fixture
def small_pair_labels(monkeypatch):
    """Make ``pair_labels`` refuse N > 100 in every module that calls it.

    An input that sizes N from a label rather than from its pair count then
    fails the test at once instead of exhausting memory.
    """
    original = kernels.pair_labels

    def guarded(n):
        if n > 100:
            pytest.fail(f"pair_labels({n}) was sized from a label, not from the pair count")
        return original(n)

    for module in (classical, files, kernels, quantum, witnesses):
        monkeypatch.setattr(module, "pair_labels", guarded)
