import math
from dataclasses import replace

import numpy as np
import pytest

from dimwitness import (
    BadArgument,
    Ensemble,
    NonMonotonic,
    TIGHT_DIMENSIONS,
    SeesawConfig,
    WitnessKind,
    born_table,
    evaluate,
    helstrom_measurements,
    optimize,
    pure_overlaps,
    quantum_bound,
    verify_table2,
)
from dimwitness import kernels, seesaw

Q, L = WitnessKind.QUADRATIC, WitnessKind.LINEAR


class TestConfigValidation:
    def test_guessing_not_supported(self):
        with pytest.raises(BadArgument):
            SeesawConfig(WitnessKind.GUESSING, 3, 2)

    def test_dimension_window(self):
        with pytest.raises(BadArgument):
            SeesawConfig(L, 3, 1)
        with pytest.raises(BadArgument):
            SeesawConfig(L, 3, 4)

    def test_positive_knobs(self):
        with pytest.raises(BadArgument):
            SeesawConfig(L, 3, 2, restarts=0)
        with pytest.raises(BadArgument):
            SeesawConfig(L, 3, 2, seed=-1)

    @pytest.mark.parametrize("seed", [1.5, 1.0, True, 2**64, math.inf, "1"])
    def test_seed_must_be_a_64_bit_unsigned_integer(self, seed):
        with pytest.raises(BadArgument):
            SeesawConfig(L, 3, 2, seed=seed)

    def test_integer_seeds_up_to_uint64_max_are_kept_as_int(self):
        assert SeesawConfig(L, 3, 2, seed=2**64 - 1).seed == 2**64 - 1
        seed = SeesawConfig(L, 3, 2, seed=np.uint64(7)).seed
        assert seed == 7 and type(seed) is int


class TestQuadraticSeesaw:
    def test_orthogonal_states_suffice_at_full_dimension(self):
        result = optimize(SeesawConfig(Q, 4, 4))
        assert abs(result.best_value - 6.0) <= 1e-6

    def test_reference_attainment_seven_three(self):
        result = optimize(SeesawConfig(Q, 7, 3))
        assert abs(result.best_value - 49 / 3) <= 1e-4

    def test_reported_model_reproduces_value(self):
        for kind in (Q, L):
            result = optimize(SeesawConfig(kind, 5, 3, restarts=5))
            table = born_table(result.ensemble, helstrom_measurements(result.ensemble))
            assert evaluate(kind, table) == pytest.approx(result.best_value, abs=1e-9), kind


class TestLinearSeesaw:
    def test_small_tight_case(self):
        result = optimize(SeesawConfig(L, 4, 2))
        assert quantum_bound(L, 4, 2) - result.best_value <= 1e-3

    def test_recovers_analytic_optimum_next_to_full_dimension(self):
        for d in (2, 3, 4, 5):
            result = optimize(SeesawConfig(L, d + 1, d))
            expected = (d + 1) * math.sqrt(d * d - 1) / 2
            assert abs(result.best_value - expected) <= 1e-4, d


class TestResultStructure:
    def test_best_is_max_of_restarts_and_ceiling_respected(self):
        result = optimize(SeesawConfig(L, 5, 3, restarts=8))
        assert result.best_value == max(result.restart_values)
        assert result.best_value <= quantum_bound(L, 5, 3) + 1e-6
        assert len(result.restart_values) == 8
        assert result.ensemble.N == 5 and helstrom_measurements(result.ensemble).N == 5

    def test_reproducible_restart_values(self):
        a = optimize(SeesawConfig(L, 3, 2, restarts=6, seed=9))
        b = optimize(SeesawConfig(L, 3, 2, restarts=6, seed=9))
        assert a.restart_values == b.restart_values
        c = optimize(SeesawConfig(L, 3, 2, restarts=6, seed=10))
        assert a.restart_values != c.restart_values

    @pytest.mark.parametrize("kind", [L, Q])
    def test_restart_results_do_not_depend_on_batch(self, kind):
        cfg = SeesawConfig(kind, 4, 2, restarts=20)
        few, many = optimize(replace(cfg, restarts=3)), optimize(cfg)
        assert few.restart_values == many.restart_values[:3]
        assert few.restart_sweeps == many.restart_sweeps[:3]

    @pytest.mark.parametrize("kind, n, d, seed", [
        (L, 7, 4, 1), (Q, 7, 4, 1), (L, 6, 3, 1), (Q, 6, 3, 1),
        # a restart here keeps ascending through many pairs without curvature
        (L, 5, 2, 3),
    ])
    def test_every_path_keeps_restarts_independent_of_their_batch(self, kind, n, d, seed):
        # the batches halve steps, update part of their history and lose
        # restarts mid-run; none of it may reach the other restarts
        cfg = SeesawConfig(kind, n, d, restarts=20, seed=seed)
        many = optimize(cfg)
        assert any(many.restart_halvings) and len(set(many.restart_sweeps)) > 1
        for size in (1, 3):
            few = optimize(replace(cfg, restarts=size))
            for field in ("restart_values", "restart_sweeps", "restart_stops", "restart_halvings"):
                assert getattr(few, field) == getattr(many, field)[:size], (size, field)

    def test_leaving_on_the_last_allowed_iteration_keeps_its_stop(self):
        full = optimize(SeesawConfig(L, 7, 4, seed=1))
        last = min(k for k, stop in zip(full.restart_sweeps, full.restart_stops) if stop != "max_iters")
        assert max(full.restart_sweeps) > last
        cut = optimize(SeesawConfig(L, 7, 4, seed=1, max_iters=last))
        for r, sweeps in enumerate(full.restart_sweeps):
            got = (cut.restart_sweeps[r], cut.restart_stops[r])
            if sweeps <= last:
                assert got + (cut.restart_values[r],) == (sweeps, full.restart_stops[r], full.restart_values[r]), r
            else:
                assert got == (last, "max_iters"), r

    def test_lone_restart_matches_its_batch(self):
        # a batch of one lays fancy-indexed pair terms out differently
        for kind in (L, Q):
            cfg = SeesawConfig(kind, 9, 6, restarts=20, seed=3)
            one, many = optimize(replace(cfg, restarts=1)), optimize(cfg)
            assert one.restart_values == many.restart_values[:1]
            assert one.restart_sweeps == many.restart_sweeps[:1]

    def test_restart_records(self):
        slow = optimize(SeesawConfig(L, 7, 4, seed=1))
        ceiling = quantum_bound(L, 7, 4)
        assert "max_iters" not in slow.restart_stops
        assert all(ceiling - v <= 1e-6 for v in slow.restart_values)
        assert ceiling - slow.best_value <= 1e-9
        stopped_at = [v for v, stop in zip(slow.restart_values, slow.restart_stops) if stop == "ceiling"]
        assert stopped_at and all(ceiling - v < 1e-9 for v in stopped_at)
        fast = optimize(SeesawConfig(L, 3, 2, seed=1))
        assert set(fast.restart_stops) <= {"stalled", "ceiling"}
        assert all(0 < k < 500 for k in fast.restart_sweeps)
        for result in (slow, fast):
            assert sum(result.restart_sweeps) == result.iterations_used
            assert len(result.restart_stops) == len(result.restart_sweeps) == len(result.restart_halvings) == 20
            assert all(type(k) is int and k >= 0 for k in result.restart_halvings)

    def test_max_iters_stops_every_restart(self):
        result = optimize(SeesawConfig(L, 7, 4, seed=1, max_iters=3))
        assert result.restart_sweeps == (3,) * 20
        assert result.restart_stops == ("max_iters",) * 20

    def test_decreasing_final_measurement_names_its_restart(self, monkeypatch):
        # halved trace distances make the final measurement step lose value
        gaps = kernels.pure_pair_gaps

        def shrunk(a, b):
            c, s = gaps(a, b)
            return c, 0.5 * s

        monkeypatch.setattr(kernels, "pure_pair_gaps", shrunk)
        with pytest.raises(NonMonotonic, match=r"^restart 0: final measurement step"):
            optimize(SeesawConfig(L, 4, 2, restarts=3))

    def test_non_ascent_direction_falls_back_to_the_gradient(self, monkeypatch):
        # a descent direction from the history must never be searched along
        two_loop = seesaw._two_loop
        monkeypatch.setattr(seesaw, "_two_loop", lambda *args: -two_loop(*args))
        cfg = SeesawConfig(L, 3, 2, restarts=4, seed=2)
        starts = seesaw._random_pure_states(2, 4, 3, 2)
        start_values, _ = seesaw.gram_witness(starts, False, kernels.pair_index(3), seesaw.off_diagonal(3, False))
        result = optimize(cfg)
        assert all(v > s for v, s in zip(result.restart_values, start_values))
        assert quantum_bound(L, 3, 2) - result.best_value <= 1e-6

    def test_states_carry_pure_witnesses(self):
        result = optimize(SeesawConfig(L, 4, 2, restarts=3))
        assert result.ensemble.pure


@pytest.mark.parametrize("kind", [L, Q])
def test_gradient_matches_central_differences(kind):
    rng = np.random.default_rng(31)
    # unnormalized vectors: the value reads only the states they stand for
    vecs = rng.standard_normal((3, 5, 3)) + 1j * rng.standard_normal((3, 5, 3))
    pairs, offdiag = kernels.pair_index(5), seesaw.off_diagonal(5, kind is Q)
    values, grad = seesaw.gram_witness(vecs, kind is Q, pairs, offdiag)
    h = 1e-6
    for unit in (1.0, 1j):
        numeric = np.zeros(vecs.shape)
        for idx in np.ndindex(vecs.shape[1:]):
            bump = np.zeros(vecs.shape, dtype=complex)
            bump[(slice(None),) + idx] = h * unit
            up, _ = seesaw.gram_witness(vecs + bump, kind is Q, pairs, offdiag)
            down, _ = seesaw.gram_witness(vecs - bump, kind is Q, pairs, offdiag)
            numeric[(slice(None),) + idx] = (up - down) / (2 * h)
        analytic = grad.real if unit == 1.0 else grad.imag
        assert np.max(np.abs(analytic - numeric)) <= 1e-8
    # the values are the witness of the states under optimal measurements
    states = vecs / np.linalg.norm(vecs, axis=-1, keepdims=True)
    for r in range(3):
        ensemble = Ensemble.from_vectors(states[r])
        table = born_table(ensemble, helstrom_measurements(ensemble))
        assert values[r] == pytest.approx(evaluate(kind, table), abs=1e-12)


def per_restart_starts(seed, restarts, n, d):
    """Reference starts: a new Philox generator keyed [seed, r] per restart, normalized by np.linalg.norm."""
    starts = []
    for r in range(restarts):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, r], dtype=np.uint64)))
        re, im = rng.standard_normal((2, n, d))
        vecs = re + 1j * im
        starts.append(vecs / np.linalg.norm(vecs, axis=1, keepdims=True))
    return starts


def reference_gram_witness(vecs, quadratic, pairs):
    """Reference witness and gradient: builds its constants per call, with ``np.linalg.norm`` and ``~np.eye``."""
    norms = np.linalg.norm(vecs, axis=-1, keepdims=True)
    u = vecs / norms
    gram = u.conj() @ np.swapaxes(u, -1, -2)
    dist2 = np.maximum(1.0 - (gram.real**2 + gram.imag**2), 0.0)
    ix, ixp = pairs
    offdiag = ~np.eye(vecs.shape[-2], dtype=bool)
    if quadratic:
        values = seesaw._pair_sum(dist2[:, ix, ixp])
        weights = np.where(offdiag, -1.0, 0.0)
    else:
        dist = np.sqrt(dist2)
        values = seesaw._pair_sum(dist[:, ix, ixp])
        weights = np.zeros_like(dist)
        np.divide(-0.5, dist, out=weights, where=offdiag & (dist > 0.0))
    grad = 2.0 * (weights * gram.conj()) @ u
    radial = np.einsum("rxi,rxi->rx", u.conj(), grad).real
    return values, (grad - radial[..., None] * u) / norms


class TestStartKeying:
    """Restart r's start is the Philox stream keyed [seed, r], whatever the batch."""

    @pytest.mark.parametrize("restarts", [1, 3, 20])
    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    def test_stack_matches_a_generator_per_restart(self, seed, restarts):
        for n, d in ((3, 2), (7, 4), (10, 10)):
            stack = seesaw._random_pure_states(seed, restarts, n, d)
            assert stack.shape == (restarts, n, d)
            for row, reference in zip(stack, per_restart_starts(seed, restarts, n, d), strict=True):
                assert row.tobytes() == reference.tobytes()


class TestGramWitnessReference:
    """Values and gradients are bitwise those of the reference body above."""

    @pytest.mark.parametrize("kind", [L, Q])
    @pytest.mark.parametrize("restarts", [1, 3, 20])
    def test_bitwise_equal_to_the_reference(self, kind, restarts):
        rng = np.random.default_rng(restarts)
        for n, d in ((3, 2), (6, 3), (9, 8)):
            # unnormalized vectors, as the ascent passes them
            vecs = rng.standard_normal((restarts, n, d)) + 1j * rng.standard_normal((restarts, n, d))
            pairs = kernels.pair_index(n)
            values, grad = seesaw.gram_witness(vecs, kind is Q, pairs, seesaw.off_diagonal(n, kind is Q))
            ref_values, ref_grad = reference_gram_witness(vecs, kind is Q, pairs)
            assert values.tobytes() == ref_values.tobytes()
            assert grad.tobytes() == ref_grad.tobytes()

    @pytest.mark.parametrize("kind", [L, Q])
    def test_coincident_pair_keeps_a_zero_weight(self, kind):
        vecs = seesaw._random_pure_states(5, 3, 4, 2)
        # states 0 and 2 coincide up to norm and phase, with exact overlap 1 in every restart
        vecs[:, 0], vecs[:, 2] = [1.0, 0.0], [2.0j, 0.0]
        pairs = kernels.pair_index(4)
        values, grad = seesaw.gram_witness(vecs, kind is Q, pairs, seesaw.off_diagonal(4, kind is Q))
        ref_values, ref_grad = reference_gram_witness(vecs, kind is Q, pairs)
        assert values.tobytes() == ref_values.tobytes()
        assert grad.tobytes() == ref_grad.tobytes()
        # the pair's trace distance is 0; a nonzero linear weight there would be infinite
        u = vecs / np.linalg.norm(vecs, axis=-1, keepdims=True)
        assert np.all(np.abs(np.einsum("ri,ri->r", u[:, 2].conj(), u[:, 0])) == 1.0)
        assert np.isfinite(grad).all()


class TestVerifyTable2:
    def test_smallest_case(self):
        entries = verify_table2(3)
        assert len(entries) == 1
        entry = entries[0]
        assert (entry.N, entry.d) == (3, 2)
        assert entry.attained and entry.gap <= 1e-3

    def test_up_to_five(self):
        entries = verify_table2(5)
        assert [(e.N, e.d) for e in entries] == [(3, 2), (4, 2), (4, 3), (5, 4)]
        assert all(e.attained for e in entries)

    def test_every_listed_entry_up_to_ten(self):
        entries = verify_table2(10)
        listed = [(n, d) for n in sorted(TIGHT_DIMENSIONS) for d in TIGHT_DIMENSIONS[n]]
        assert [(e.N, e.d) for e in entries] == listed
        for e in entries:
            assert e.attained and e.gap <= 1e-6, (e.N, e.d, e.gap)

    def test_nmax_window(self):
        with pytest.raises(BadArgument):
            verify_table2(2)
        with pytest.raises(BadArgument):
            verify_table2(11)


def test_state_overlap_probe_at_four_preparations_two_dimensions(capsys):
    # Report-only probe: converged optimal qubit models at N = 4 tend toward
    # symmetric constellations; print the squared-overlap matrix for the record.
    result = optimize(SeesawConfig(L, 4, 2))
    overlaps = pure_overlaps(result.ensemble)
    off_diagonal = overlaps[~np.eye(4, dtype=bool)]
    print("converged |<psi_x|psi_x'>|^2 at (N=4, d=2):")
    print(np.array_str(overlaps, precision=4, suppress_small=True))
    print(f"off-diagonal mean {off_diagonal.mean():.4f} (symmetric constellation -> 1/3)")
    assert overlaps.shape == (4, 4)
