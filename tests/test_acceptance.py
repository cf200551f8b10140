"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import random_density, random_povm, random_projector, random_pure_ensemble, random_state_vector
from dimwitness import (
    Effect,
    Ensemble,
    NoiseModel,
    SeesawConfig,
    StateVector,
    WitnessKind,
    born_table,
    certify_dimension,
    classical_bound,
    enumerate_max,
    evaluate,
    fidelity_pure,
    fourier_ensemble,
    guessing_table,
    helstrom_effect,
    helstrom_measurements,
    noisy_table,
    optimize,
    overlap_sum_identity_check,
    pair_differences,
    pure_state,
    purity,
    quantum_bound,
    trace_distance,
)
from dimwitness.cli import main

Q, L, G = WitnessKind.QUADRATIC, WitnessKind.LINEAR, WitnessKind.GUESSING


def report(number: int, message: str) -> None:
    print(f"[criterion {number}] PASS - {message}")


def test_criterion_1_classical_row_and_enumeration():
    started = time.time()
    expected = [12, 16, 18, 19, 20, 21]
    closed = [classical_bound(Q, 7, d) for d in range(2, 8)]
    assert closed == expected
    enumerated = [enumerate_max(Q, 7, d)[0] for d in range(2, 8)]
    assert enumerated == expected
    elapsed = time.time() - started
    assert elapsed < 10.0
    report(1, f"classical row {expected} matches closed form and enumeration ({elapsed:.2f}s)")


def test_criterion_2_quantum_row_exact():
    expected = [12.25, 49 / 3, 18.375, 19.6, 245 / 12, 21.0]
    values = [quantum_bound(Q, 7, d) for d in range(2, 8)]
    for value, target in zip(values, expected):
        assert abs(value - target) <= 1e-12
    assert [round(v, 2) for v in values] == [12.25, 16.33, 18.38, 19.60, 20.42, 21.0]
    report(2, "quantum row matches the exact formulas to 1e-12")


def test_criterion_3_quadratic_bound_attainment_grid():
    started = time.time()
    for n in range(2, 9):
        for d in range(2, n + 1):
            ensemble = fourier_ensemble(n, d)
            table = born_table(ensemble, helstrom_measurements(ensemble))
            value = evaluate(Q, table)
            assert abs(value - quantum_bound(Q, n, d)) <= 1e-6, (n, d)
    elapsed = time.time() - started
    assert elapsed < 5.0
    report(3, f"Fourier/Helstrom attains the quadratic ceiling for all 2<=d<=N<=8 ({elapsed:.2f}s)")


def test_criterion_4_linear_attainment_next_to_full_dimension():
    for d in (2, 3, 4, 5):
        ensemble = fourier_ensemble(d + 1, d)
        table = born_table(ensemble, helstrom_measurements(ensemble))
        value = evaluate(L, table)
        target = (d + 1) * math.sqrt(d * d - 1) / 2
        assert abs(value - target) <= 1e-6, d
        diffs = pair_differences(table)
        assert diffs.max() - diffs.min() <= 1e-8, d
    report(4, "linear ceiling attained at N=d+1 for d=2..5 with equal pair differences")


def test_criterion_5_linear_classical_maximum():
    for n in (3, 4, 5, 6):
        value, _ = enumerate_max(L, n, n - 1)
        assert value == n * (n - 1) / 2 - 1, n
    report(5, "deterministic linear maximum equals N(N-1)/2 - 1 at d=N-1 for N=3..6")


def test_criterion_6_seesaw_attains_tightness_entries():
    entries = [(3, 2), (4, 2), (4, 3), (5, 4), (6, 3), (6, 5), (7, 3), (7, 4), (7, 6)]
    started = time.time()
    gaps = {}
    for n, d in entries:
        result = optimize(SeesawConfig(L, n, d, restarts=20, seed=1))
        gap = quantum_bound(L, n, d) - result.best_value
        gaps[(n, d)] = gap
        assert gap <= 1e-8, (n, d, gap)
    elapsed = time.time() - started
    assert elapsed < 120.0
    worst = max(gaps.values())
    report(6, f"see-saw attains all nine reference entries, worst gap {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_7_guessing_ceiling():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        n = int(rng.integers(3, 7))
        d = int(rng.integers(2, n))
        ensemble = Ensemble.from_matrices(np.stack([random_density(rng, d).matrix for _ in range(n)]))
        effects = random_povm(rng, d, n)
        value = evaluate(G, guessing_table(ensemble, effects))
        assert value <= d / n + 1e-8, (n, d, value)
    # equality through the orthonormal construction at d = N
    for n in (2, 4, 6):
        ensemble = Ensemble.from_vectors(np.eye(n))
        effects = [Effect(np.outer(np.eye(n)[i], np.eye(n)[i])) for i in range(n)]
        assert evaluate(G, guessing_table(ensemble, effects)) == pytest.approx(1.0, abs=1e-12)
    report(7, "guessing value never exceeds d/N over 50 random models; equality at d=N")


def test_criterion_8_property_suites():
    rng = np.random.default_rng(777)

    # trace-distance metric axioms
    for _ in range(200):
        d = int(rng.integers(2, 6))
        rho, sigma, tau = (random_density(rng, d) for _ in range(3))
        assert trace_distance(rho, rho) <= 1e-10
        assert abs(trace_distance(rho, sigma) - trace_distance(sigma, rho)) <= 1e-12
        triangle = trace_distance(rho, sigma) + trace_distance(sigma, tau)
        assert trace_distance(rho, tau) <= triangle + 1e-8

    # fidelity sandwich and pure-state saturation
    for _ in range(200):
        d = int(rng.integers(2, 6))
        psi, phi = (StateVector(random_state_vector(rng, d)) for _ in range(2))
        rho, sigma = pure_state(psi.amplitudes), pure_state(phi.amplitudes)
        fid = fidelity_pure(psi, phi)
        dist = trace_distance(rho, sigma)
        assert 1 - fid <= dist + 1e-8
        assert dist <= math.sqrt(1 - fid * fid) + 1e-8
        assert abs(dist - math.sqrt(max(0.0, 1 - fid * fid))) <= 1e-8

    # optimal-discrimination attainment, never beaten by probe projectors
    for _ in range(200):
        d = int(rng.integers(2, 6))
        rho, sigma = random_density(rng, d), random_density(rng, d)
        delta = rho.matrix - sigma.matrix
        effect = helstrom_effect(rho, sigma)
        attained = float(np.trace(delta @ effect.matrix).real)
        dist = trace_distance(rho, sigma)
        assert abs(attained - dist) <= 1e-8
        for _ in range(5):
            probe = random_projector(rng, d, int(rng.integers(1, d + 1)))
            assert float(np.trace(delta @ probe).real) <= dist + 1e-8

    # pairwise-overlap identity for pure ensembles
    for _ in range(200):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(2, 7))
        lhs, rhs = overlap_sum_identity_check(random_pure_ensemble(rng, n, d))
        assert abs(lhs - rhs) <= 1e-8

    # purity floor
    for _ in range(200):
        d = int(rng.integers(2, 7))
        assert purity(random_density(rng, d)) >= 1 / d - 1e-9
    report(8, "metric, sandwich, discrimination, overlap-identity, purity suites: 0 violations in 5x200")


def test_criterion_9_end_to_end_certification():
    ensemble = fourier_ensemble(7, 2)
    measurements = helstrom_measurements(ensemble)
    table = born_table(ensemble, measurements)
    value = evaluate(Q, table)
    certified = certify_dimension(Q, 7, value)
    assert certified == (2, 3)

    noisy = noisy_table(ensemble, measurements, NoiseModel(depolarizing_eta=0.5), seed=0)
    noisy_value = evaluate(Q, noisy)
    assert abs(noisy_value - 0.25 * 12.25) <= 1e-9  # pair differences scale by (1 - eta)
    assert certify_dimension(Q, 7, 3.0625).min_quantum_d == 2
    report(9, "N=7 qubit pipeline certifies (quantum 2, classical 3); eta=0.5 still forces quantum d>=2")


def test_criterion_10_determinism(capsys):
    first = main(["seesaw", "--witness", "linear", "--N", "4", "--d", "2",
                  "--seed", "1", "--restarts", "20", "--json"])
    out_first = capsys.readouterr().out
    second = main(["seesaw", "--witness", "linear", "--N", "4", "--d", "2",
                   "--seed", "1", "--restarts", "20", "--json"])
    out_second = capsys.readouterr().out
    assert first == second == 0
    values_first = json.loads(out_first)["restart_values"]
    values_second = json.loads(out_second)["restart_values"]
    assert values_first == values_second  # bitwise: JSON repr round-trips doubles

    assert main(["reproduce", "--table", "1"]) == 0
    table_first = capsys.readouterr().out
    assert main(["reproduce", "--table", "1"]) == 0
    table_second = capsys.readouterr().out
    assert table_first.encode() == table_second.encode()
    with capsys.disabled():
        report(10, "see-saw restart values and the reference table are run-to-run identical")
