import numpy as np
import pytest

from conftest import random_hermitian
from dimwitness import trace_norm
from dimwitness.kernels import positive_projectors


def overlap_half_pair():
    """|0><0| and |psi><psi| with <0|psi> = 1/2; their difference has
    eigenvalues +-sqrt(3)/2 (trace-free 2x2, det = -3/4)."""
    rho = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    psi = np.array([0.5, np.sqrt(3) / 2], dtype=complex)
    sigma = np.outer(psi, psi.conj())
    return rho, sigma


def positive_part_projector(a) -> np.ndarray:
    """``kernels.positive_projectors`` on a stack of one matrix."""
    return positive_projectors(np.asarray(a, dtype=complex)[None])[0]


class TestTraceNorm:
    def test_zero(self):
        assert trace_norm(np.zeros((3, 3))) == 0.0

    def test_diagonal(self):
        assert trace_norm(np.diag([0.5, -0.5])) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pure_difference(self):
        assert trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0, abs=1e-12)

    def test_dominates_trace(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = random_hermitian(rng, int(rng.integers(1, 7)))
            assert trace_norm(a) >= abs(np.trace(a).real) - 1e-10


class TestPositivePartProjector:
    def test_diagonal(self):
        p = positive_part_projector(np.diag([1.0, -1.0]))
        assert np.allclose(p, np.diag([1.0, 0.0]), atol=1e-12)

    def test_zero_matrix(self):
        assert np.allclose(positive_part_projector(np.zeros((3, 3))), 0.0)

    def test_cutoff_excludes_tiny_eigenvalues(self):
        p = positive_part_projector(np.diag([5e-11, -1.0]))
        assert np.max(np.abs(p)) == 0.0

    def test_overlap_half_value(self):
        rho, sigma = overlap_half_pair()
        p = positive_part_projector(rho - sigma)
        assert np.trace(p).real == pytest.approx(1.0, abs=1e-8)  # rank one
        value = np.trace((rho - sigma) @ p).real
        assert value == pytest.approx(np.sqrt(3) / 2, abs=1e-8)

    def test_idempotent_and_hermitian(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = positive_part_projector(random_hermitian(rng, int(rng.integers(1, 7))))
            assert np.max(np.abs(p @ p - p)) <= 1e-8
            assert np.max(np.abs(p - p.conj().T)) <= 1e-8


def test_positive_projectors_of_a_stack_match_each_member_alone():
    rng = np.random.default_rng(9)
    stack = np.stack([random_hermitian(rng, 4) for _ in range(6)])
    batched = positive_projectors(stack)
    for i in range(6):
        assert np.allclose(batched[i], positive_part_projector(stack[i]), atol=1e-12)
