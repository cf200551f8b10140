"""Alternating (see-saw) maximization of the pair witnesses over d dimensions.

Both half-steps are closed form. With states fixed, each pair's optimal
binary effect is the projector onto the positive eigenspace of the state
difference; the states are pure, so it is the rank-one projector of
``kernels.rank_one_projectors`` and needs no eigensolver. With measurements
fixed, the linear witness decomposes per state into tr(rho_x H_x) for an
effective operator H_x, maximized by the projector onto its top eigenvector;
the quadratic witness is handled by the same state step applied to its
linearization at the current point (weights twice the current pair
differences), a vertex step that cannot decrease a convex objective. Either
way the objective is nondecreasing across half-steps, which the loop asserts.

Restarts draw independent Haar-random pure starting states from a
counter-based Philox stream keyed by (seed, restart index) and advance in
lock-step as one stacked ascent on an (R, N, d) array of state vectors. Every
operation acts on each restart alone, so a restart's result is reproducible
and does not depend on how many restarts run beside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import BadArgument, DimWitnessError, NonMonotonic, require_int, require_seed
from .quantum import Ensemble, PairMeasurementSet, pure_state
from .witnesses import WitnessKind, quantum_bound

#: Objective decrease beyond this across a half-step signals a bug.
MONOTONIC_SLACK = 1e-9

#: Dimensions d at which the linear-witness ceiling is numerically attainable
#: for a given number of preparations N (the reference tightness table; see
#: the CLI's ``reproduce --table 2``).
TIGHT_DIMENSIONS: dict[int, tuple[int, ...]] = {
    3: (2,),
    4: (2, 3),
    5: (4,),
    6: (3, 5),
    7: (3, 4, 6),
    8: (4, 7),
    9: (3, 6, 8),
    10: (5, 9),
}


@dataclass(frozen=True)
class SeesawConfig:
    """Knobs of one see-saw search."""

    witness: WitnessKind
    N: int
    d: int
    restarts: int = 20
    max_iters: int = 500
    improvement_tol: float = 1e-9
    seed: int = 1

    def __post_init__(self) -> None:
        if self.witness not in (WitnessKind.QUADRATIC, WitnessKind.LINEAR):
            raise BadArgument(f"see-saw supports the pair witnesses, not {self.witness.value}")
        if not 2 <= self.d <= self.N:
            raise BadArgument(f"need 2 <= d <= N, got d={self.d}, N={self.N}")
        if self.restarts < 1:
            raise BadArgument("restarts must be at least 1")
        if self.max_iters < 1:
            raise BadArgument("max_iters must be at least 1")
        if not self.improvement_tol > 0:
            raise BadArgument("improvement_tol must be positive")
        # in range, but possibly a float or a bool
        for name, low in (("N", 2), ("d", 2), ("restarts", 1), ("max_iters", 1)):
            object.__setattr__(self, name, require_int(getattr(self, name), name, low, math.inf))
        object.__setattr__(self, "seed", require_seed(self.seed))


@dataclass(frozen=True)
class SeesawResult:
    """Best value over restarts with a witnessing model attached.

    ``iterations_used`` counts full (measurement + state) sweeps summed over
    all restarts. In restart order, ``restart_values`` records each restart's
    final value, ``restart_sweeps`` its sweeps and ``restart_stops`` why it
    stopped: ``"stalled"`` (a sweep improved by less than
    ``improvement_tol``) or ``"max_iters"``.
    """

    best_value: float
    ensemble: Ensemble
    measurements: PairMeasurementSet
    iterations_used: int
    restart_values: tuple[float, ...]
    restart_sweeps: tuple[int, ...]
    restart_stops: tuple[str, ...]


def _random_pure_states(seed: int, restart: int, n: int, d: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, restart], dtype=np.uint64)))
    vecs = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def _fix_phase(vecs: np.ndarray) -> np.ndarray:
    # Rotate each vector's global phase so its largest-magnitude amplitude is
    # real positive; makes dumped models deterministic.
    lead = np.take_along_axis(vecs, np.argmax(np.abs(vecs), axis=-1)[..., None], axis=-1)
    return vecs / (lead / np.abs(lead))


def _require_monotonic(step: str, restarts: np.ndarray, before: np.ndarray, after: np.ndarray) -> None:
    bad = np.flatnonzero(after < before - MONOTONIC_SLACK)
    if bad.size:
        k = bad[0]
        raise NonMonotonic(
            f"restart {restarts[k]}: {step} step decreased the objective: {before[k]} -> {after[k]}"
        )


def optimize(cfg: SeesawConfig) -> SeesawResult:
    """Best witness value over ``cfg.restarts`` independent see-saw ascents.

    Each sweep runs on the restarts still active, with one stacked ``eigh``
    for the state half-step. A restart is monotonically nondecreasing across
    half-steps (violations raise ``NonMonotonic`` naming it) and leaves the
    active set, its vectors and value frozen, once a full sweep improves by
    less than ``cfg.improvement_tol``, or at ``cfg.max_iters``. The first
    restart with the best value has its states and measurements returned as
    validated domain objects; the value always respects the d-dimensional
    quantum ceiling.
    """
    quadratic = cfg.witness is WitnessKind.QUADRATIC
    ix, ixp = kernels.pair_index(cfg.N)
    vecs = np.stack([_random_pure_states(cfg.seed, r, cfg.N, cfg.d) for r in range(cfg.restarts)])

    def differences(v: np.ndarray, u: np.ndarray, scale: np.ndarray) -> np.ndarray:
        # tr(rho_x E_y) = scale_y |<u_y|psi_x>|^2 for pure states and rank-one effects
        born = [np.abs(np.einsum("rpi,rpi->rp", u.conj(), v[:, side])) ** 2 for side in (ix, ixp)]
        return scale * (born[0] - born[1])

    def objective(t: np.ndarray) -> np.ndarray:
        return np.einsum("rp,rp->r", t, t) if quadratic else t.sum(axis=-1)

    values = np.full(cfg.restarts, -math.inf)
    sweeps = np.zeros(cfg.restarts, dtype=int)
    active = np.arange(cfg.restarts)
    for _ in range(cfg.max_iters):
        v = vecs[active]
        u, scale = kernels.rank_one_projectors(v[:, ix], v[:, ixp])
        t = differences(v, u, scale)
        after_measurements = objective(t)
        _require_monotonic("measurement", active, values[active], after_measurements)
        weights = scale * (2.0 * t if quadratic else 1.0)
        _, eigvecs = np.linalg.eigh(kernels.pair_sums(cfg.N, weights, u))
        v = _fix_phase(eigvecs[..., -1])
        after_states = objective(differences(v, u, scale))
        _require_monotonic("state", active, after_measurements, after_states)
        vecs[active] = v
        sweeps[active] += 1
        done = after_states - values[active] < cfg.improvement_tol
        values[active] = after_states
        active = active[~done]
        if not active.size:
            break

    # leave the reported models self-consistent: re-derive the optimal
    # measurements for the final states and report that value
    u, scale = kernels.rank_one_projectors(vecs[:, ix], vecs[:, ixp])
    final = objective(differences(vecs, u, scale))
    _require_monotonic("final measurement", np.arange(cfg.restarts), values, final)
    best = int(np.argmax(final))
    best_value = float(final[best])

    ceiling = quantum_bound(cfg.witness, cfg.N, cfg.d)
    if best_value > ceiling + 1e-6:
        raise DimWitnessError(
            f"see-saw value {best_value} exceeds the dimension ceiling {ceiling}; "
            "this indicates a numerical inconsistency"
        )

    effects = scale[best, :, None, None] * np.einsum("pi,pj->pij", u[best], u[best].conj())
    return SeesawResult(
        best_value=best_value,
        ensemble=Ensemble(tuple(map(pure_state, vecs[best]))),
        measurements=PairMeasurementSet.from_stack(effects),
        iterations_used=int(sweeps.sum()),
        restart_values=tuple(float(x) for x in final),
        restart_sweeps=tuple(int(k) for k in sweeps),
        # the restarts still active ran every sweep without stalling
        restart_stops=tuple("max_iters" if r in active else "stalled" for r in range(cfg.restarts)),
    )


@dataclass(frozen=True)
class TightnessEntry:
    """Outcome of one (N, d) attainability probe of the linear witness."""

    N: int
    d: int
    bound: float
    best_value: float
    gap: float
    attained: bool


def verify_table2(
    n_max: int,
    tol: float = 1e-3,
    *,
    restarts: int = 20,
    seed: int = 1,
) -> tuple[TightnessEntry, ...]:
    """Probe every reference tightness entry with N <= n_max.

    Runs the linear-witness see-saw at each listed (N, d) and reports the
    attained value against the ceiling; an entry is flagged attained when the
    gap is at most ``tol``. Misses are reported, never raised -- a local
    search failing to reach the ceiling is inconclusive, which matters for
    the heavier N >= 8 rows.
    """
    if not 3 <= n_max <= 10:
        raise BadArgument(f"n_max must lie in 3..10, got {n_max}")
    n_max = require_int(n_max, "n_max", 3, 10)
    if not (math.isfinite(tol) and tol >= 0):
        raise BadArgument(f"tol must be finite and non-negative, got {tol}")
    entries = []
    for n in sorted(TIGHT_DIMENSIONS):
        if n > n_max:
            continue
        for d in TIGHT_DIMENSIONS[n]:
            result = optimize(SeesawConfig(WitnessKind.LINEAR, n, d, restarts=restarts, seed=seed))
            bound = quantum_bound(WitnessKind.LINEAR, n, d)
            gap = bound - result.best_value
            entries.append(TightnessEntry(n, d, bound, result.best_value, gap, gap <= tol))
    return tuple(entries)
