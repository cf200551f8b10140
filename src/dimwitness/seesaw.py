"""Maximization of the pair witnesses over d-dimensional pure states.

With each pair measured optimally, the pair differences of pure states are
functions of their Gram matrix A_xx' = <psi_x|psi_x'> alone: the linear
witness is the sum of trace distances sqrt(1 - |A_xx'|^2) over the pairs
x > x', the quadratic witness the sum of 1 - |A_xx'|^2 (a frame potential,
after Benedetto & Fickus, Adv. Comput. Math. 18, 357, 2003). The search
maximizes that smooth function of the states directly, by L-BFGS (Nocedal,
Math. Comp. 35, 773, 1980) with an Armijo backtracking step, so the value
rises strictly at every accepted step and no eigensolver is needed. The
optimal measurements of the final states -- the rank-one Helstrom effects of
``kernels.rank_one_projectors`` -- then give the reported model and value,
which must not fall below the ascent's; the search asserts that.

Restarts draw independent Haar-random pure starting states from a
counter-based Philox stream keyed by (seed, restart index) and advance in
lock-step as one stacked ascent on an (R, N, d) array of state vectors. Every
operation acts on each restart alone, so a restart's result is reproducible
and does not depend on how many restarts run beside it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import BadArgument, DimWitnessError, NonMonotonic, require_int, require_seed
from .quantum import Ensemble, PairMeasurementSet, pure_state
from .witnesses import WitnessKind, quantum_bound

#: Objective decrease beyond this from the ascent to its final model signals a bug.
MONOTONIC_SLACK = 1e-9
#: L-BFGS memory: the (step, gradient change) pairs kept per restart.
HISTORY = 8
#: Armijo constant: a step must gain this share of its first-order prediction.
ARMIJO = 1e-4
#: Step halvings before an iteration gives up; the restart then has stalled.
MAX_HALVINGS = 40

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
        for name in ("N", "d", "restarts", "max_iters"):
            object.__setattr__(self, name, require_int(getattr(self, name), name))
        if not 2 <= self.d <= self.N:
            raise BadArgument(f"need 2 <= d <= N, got d={self.d}, N={self.N}")
        if self.restarts < 1:
            raise BadArgument("restarts must be at least 1")
        if self.max_iters < 1:
            raise BadArgument("max_iters must be at least 1")
        tol = self.improvement_tol
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not (math.isfinite(tol) and tol > 0):
            raise BadArgument(f"improvement_tol must be finite and positive, got {tol!r}")
        object.__setattr__(self, "seed", require_seed(self.seed))


@dataclass(frozen=True)
class SeesawResult:
    """Best value over restarts with a witnessing model attached.

    ``iterations_used`` counts ascent iterations (one step and its line
    search) summed over all restarts. In restart order, ``restart_values``
    records each restart's final value, ``restart_sweeps`` its iterations and
    ``restart_stops`` why it stopped: ``"ceiling"`` (within
    ``improvement_tol`` of the quantum ceiling, so no iteration could gain
    that much), ``"stalled"`` (an iteration gained less than
    ``improvement_tol``, or no step along its direction gained at all) or
    ``"max_iters"``.
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


def _pair_sum(terms: np.ndarray) -> np.ndarray:
    # rows summed in one memory layout: fancy indexing lays a batch of one
    # out otherwise, and numpy's summation order follows the layout
    return np.ascontiguousarray(terms).sum(axis=-1)


def gram_witness(vecs: np.ndarray, quadratic: bool) -> tuple[np.ndarray, np.ndarray]:
    """Pair-witness value under optimal measurements and its gradient, stacked.

    ``vecs`` is an (R, N, d) stack of nonzero vectors standing for the pure
    states u_x = v_x/|v_x|. Returns the (R,) values and the (R, N, d)
    gradients with respect to (Re v, Im v), packed as re + i im. With
    A = conj(U) U^T and W_xx' the derivative of the value in |A_xx'|^2, the
    gradient is 2 (W o A^T) U with each row projected off u_x (the value
    ignores norms and phases) and divided by |v_x|. A pair of coincident
    states contributes no gradient, where the linear one would be infinite.
    """
    norms = np.linalg.norm(vecs, axis=-1, keepdims=True)
    u = vecs / norms
    gram = u.conj() @ np.swapaxes(u, -1, -2)
    # 1 - |A|^2 is the squared trace distance of each pair of states
    dist2 = np.maximum(1.0 - (gram.real**2 + gram.imag**2), 0.0)
    ix, ixp = kernels.pair_index(vecs.shape[-2])
    offdiag = ~np.eye(vecs.shape[-2], dtype=bool)
    if quadratic:
        values = _pair_sum(dist2[:, ix, ixp])
        weights = np.where(offdiag, -1.0, 0.0)
    else:
        dist = np.sqrt(dist2)
        values = _pair_sum(dist[:, ix, ixp])
        weights = np.zeros_like(dist)
        np.divide(-0.5, dist, out=weights, where=offdiag & (dist > 0.0))
    grad = 2.0 * (weights * gram.conj()) @ u
    radial = np.einsum("rxi,rxi->rx", u.conj(), grad).real
    return values, (grad - radial[..., None] * u) / norms


def _two_loop(grad, steps, changes, rho, gamma):
    # L-BFGS direction H grad from each restart's history, stored oldest
    # pair first; an empty slot has rho = 0 and leaves the direction as it is
    q = grad.copy()
    alphas = []
    for i in reversed(range(HISTORY)):
        a = rho[:, i] * np.einsum("rk,rk->r", steps[:, i], q)
        q -= a[:, None] * changes[:, i]
        alphas.append(a)
    r = gamma[:, None] * q
    for i, a in zip(range(HISTORY), reversed(alphas)):
        b = rho[:, i] * np.einsum("rk,rk->r", changes[:, i], r)
        r += (a - b)[:, None] * steps[:, i]
    return r


def optimize(cfg: SeesawConfig) -> SeesawResult:
    """Best witness value over ``cfg.restarts`` independent L-BFGS ascents.

    An iteration takes one L-BFGS step per active restart, with the last
    ``HISTORY`` step and gradient-change pairs of that restart (a pair enters
    only with positive curvature), and halves it until the value gains at
    least ``ARMIJO`` times the predicted gain, so a restart never descends. A
    restart leaves the active set, its vectors and value frozen, once it is
    within ``cfg.improvement_tol`` of the quantum ceiling (``"ceiling"``),
    once an iteration gains less than ``cfg.improvement_tol`` (``"stalled"``),
    or at ``cfg.max_iters``. The optimal measurements of each restart's final
    states must then reproduce its value (a decrease raises ``NonMonotonic``
    naming the restart). The first restart with the best value has its states
    and measurements returned as validated domain objects; the value always
    respects the d-dimensional quantum ceiling.
    """
    quadratic = cfg.witness is WitnessKind.QUADRATIC
    ceiling = quantum_bound(cfg.witness, cfg.N, cfg.d)
    shape = (cfg.N, cfg.d)
    n_restarts = cfg.restarts

    def witness(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # the ascent runs on the real (re, im)-interleaved vectors, (R, 2Nd)
        values, grad = gram_witness(points.view(complex).reshape(len(points), *shape), quadratic)
        return values, grad.reshape(len(points), -1).view(float)

    starts = [_random_pure_states(cfg.seed, r, *shape) for r in range(n_restarts)]
    x = np.stack(starts).reshape(n_restarts, -1).view(float)
    values, grad = witness(x)
    iterations = np.zeros(n_restarts, dtype=int)
    stops = ["max_iters"] * n_restarts

    # the active restarts' working state; a finished restart's x and value
    # stay behind in the full arrays
    active = np.arange(n_restarts)
    ax, af, ag = x.copy(), values.copy(), grad.copy()
    steps = np.zeros((n_restarts, HISTORY, x.shape[1]))
    changes = np.zeros_like(steps)
    rho = np.zeros((n_restarts, HISTORY))
    gamma = np.zeros(n_restarts)  # 0 until the first curvature pair
    for _ in range(cfg.max_iters):
        # without a curvature pair, step a unit length along the gradient
        norm = np.linalg.norm(ag, axis=-1)
        first = np.divide(1.0, norm, out=np.zeros_like(norm), where=norm > 0.0)
        direction = _two_loop(ag, steps, changes, rho, np.where(gamma > 0.0, gamma, first))
        slope = np.einsum("rk,rk->r", ag, direction)
        # rounding can tilt the direction off the ascent: drop that history
        lost = ~(slope > 0.0)
        rho[lost], gamma[lost] = 0.0, 0.0
        direction[lost] = first[lost, None] * ag[lost]
        slope[lost] = first[lost] * norm[lost] ** 2

        nx, nf, ng = ax.copy(), af.copy(), ag.copy()
        alpha = np.ones(len(active))
        todo = np.arange(len(active))
        for _ in range(MAX_HALVINGS):
            trial = ax[todo] + alpha[todo, None] * direction[todo]
            tf, tg = witness(trial)
            ok = tf >= af[todo] + ARMIJO * alpha[todo] * slope[todo]
            done = todo[ok]
            nx[done], nf[done], ng[done] = trial[ok], tf[ok], tg[ok]
            todo = todo[~ok]
            if not todo.size:
                break
            alpha[todo] *= 0.5

        # keep the pair only with positive curvature, which keeps H positive
        step, change = nx - ax, ag - ng
        sy = np.einsum("rk,rk->r", step, change)
        yy = np.einsum("rk,rk->r", change, change)
        curved = sy > 1e-10 * np.sqrt(np.einsum("rk,rk->r", step, step) * yy)
        for history, new in ((steps, step[curved]), (changes, change[curved]), (rho, 1.0 / sy[curved])):
            history[curved] = np.concatenate([history[curved, 1:], new[:, None]], axis=1)
        gamma[curved] = sy[curved] / yy[curved]

        gain = nf - af
        ax, af, ag = nx, nf, ng
        iterations[active] += 1
        x[active], values[active] = ax, af
        at_ceiling = ceiling - af < cfg.improvement_tol
        stalled = gain < cfg.improvement_tol
        leaving = at_ceiling | stalled
        for k in np.flatnonzero(leaving):
            stops[active[k]] = "ceiling" if at_ceiling[k] else "stalled"
        keep = ~leaving
        if not keep.any():
            break
        active = active[keep]
        ax, af, ag = ax[keep], af[keep], ag[keep]
        steps, changes, rho, gamma = steps[keep], changes[keep], rho[keep], gamma[keep]

    # the reported model: the optimal measurements of the final states
    ix, ixp = kernels.pair_index(cfg.N)
    vecs = x.view(complex).reshape(n_restarts, *shape)
    vecs = _fix_phase(vecs / np.linalg.norm(vecs, axis=-1, keepdims=True))
    u, scale = kernels.rank_one_projectors(vecs[:, ix], vecs[:, ixp])
    # tr(rho_x E_y) = scale_y |<u_y|psi_x>|^2 for pure states and rank-one effects
    born = [np.abs(np.einsum("rpi,rpi->rp", u.conj(), vecs[:, side])) ** 2 for side in (ix, ixp)]
    differences = scale * (born[0] - born[1])
    final = _pair_sum(differences**2 if quadratic else differences)
    fell = np.flatnonzero(final < values - MONOTONIC_SLACK)
    if fell.size:
        k = fell[0]
        raise NonMonotonic(
            f"restart {k}: final measurement step decreased the objective: {values[k]} -> {final[k]}"
        )
    best = int(np.argmax(final))
    best_value = float(final[best])

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
        iterations_used=int(iterations.sum()),
        restart_values=tuple(float(v) for v in final),
        restart_sweeps=tuple(int(k) for k in iterations),
        restart_stops=tuple(stops),
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
    search failing to reach the ceiling is inconclusive.
    """
    n_max = require_int(n_max, "n_max")
    if not 3 <= n_max <= 10:
        raise BadArgument(f"n_max must lie in 3..10, got {n_max}")
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not (math.isfinite(tol) and tol >= 0):
        raise BadArgument(f"tol must be finite and non-negative, got {tol!r}")
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
