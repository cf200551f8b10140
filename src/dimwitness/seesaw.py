"""Maximization of the pair witnesses over d-dimensional pure states.

With each pair measured optimally, the pair differences of pure states are
functions of their Gram matrix A_xx' = <psi_x|psi_x'> alone: the linear
witness is the sum of trace distances sqrt(1 - |A_xx'|^2) over the pairs
x > x', the quadratic witness the sum of 1 - |A_xx'|^2 (a frame potential,
after Benedetto & Fickus, Adv. Comput. Math. 18, 357, 2003). The search
maximizes that smooth function of the states directly, by L-BFGS (Nocedal,
Math. Comp. 35, 773, 1980) with an Armijo backtracking step, so the value
rises strictly at every accepted step and no eigensolver is needed. Each
final pair difference is then read as the pair's trace distance, the value
its optimal measurement attains (``kernels.pure_pair_gaps``); the final value
must not fall below the ascent's, which the search asserts, and the best
restart's model is its states. The search builds no effects: a dump of the
model (``files.save_seesaw_dump``) builds their Helstrom effects itself.

Restarts draw independent Haar-random pure starting states from a
counter-based Philox stream keyed by (seed, restart index) and advance in
lock-step as one stacked ascent on an (R, N, d) array of state vectors. An
iteration makes only the numpy calls its restarts need: the full step runs on
the whole active batch and only its Armijo failures halve, the L-BFGS history
is slot-major so each filled slot is one contiguous (R, n) slice, and a
restart's state is written back when it leaves. Every operation acts on each
restart alone, so a restart's result is reproducible and does not depend on
how many restarts run beside it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import BadArgument, DimWitnessError, NonMonotonic, TooLarge, require_int, require_seed
from .quantum import Ensemble
from .witnesses import NUMERIC_SLACK, WitnessKind, quantum_bound, require_kind

#: Objective decrease beyond this from the ascent to its final model signals a bug.
MONOTONIC_SLACK = 1e-9
#: A restart stops once it is this close to the ceiling, or an iteration gains less than this.
IMPROVEMENT_TOL = 1e-9
#: A Table-2 entry is attained when the best value is this close to the ceiling.
ATTAINMENT_GAP = 1e-3
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
    """Knobs of one see-saw search; the defaults here are the only ones."""

    witness: WitnessKind
    N: int
    d: int
    restarts: int = 20
    max_iters: int = 500
    seed: int = 1

    def __post_init__(self) -> None:
        if require_kind(self.witness) not in (WitnessKind.QUADRATIC, WitnessKind.LINEAR):
            raise BadArgument(f"see-saw supports the pair witnesses, not {self.witness.value}")
        for name in ("N", "d", "restarts", "max_iters"):
            object.__setattr__(self, name, require_int(getattr(self, name), name))
        if not 2 <= self.d <= self.N:
            raise BadArgument(f"need 2 <= d <= N, got d={self.d}, N={self.N}")
        if self.restarts < 1:
            raise BadArgument("restarts must be at least 1")
        if self.max_iters < 1:
            raise BadArgument("max_iters must be at least 1")
        # the final step's (R, P, d) stacks, for d >= 2 at least half the (R, N, N) Gram one; the d^2
        # term keeps a dump's (P, d, d) effects within their bound, so --out cannot fail after the run
        if self.N * (self.N - 1) // 2 * self.d * max(self.restarts, self.d) > kernels.MAX_PAIR_ENTRIES:
            raise TooLarge(f"restarts={self.restarts} at N={self.N}, d={self.d} needs more than 10^7 entries "
                           "(N(N-1)/2 * d * max(restarts, d)), the see-saw's size bound")
        object.__setattr__(self, "seed", require_seed(self.seed))


@dataclass(frozen=True)
class SeesawResult:
    """Best value over restarts with the witnessing states attached.

    ``iterations_used`` counts ascent iterations (one step and its line
    search) summed over all restarts. In restart order, ``restart_values``
    records each restart's final value, ``restart_sweeps`` its iterations and
    ``restart_stops`` why it stopped: ``"ceiling"`` (within
    ``IMPROVEMENT_TOL`` of the quantum ceiling, so no iteration could gain
    that much), ``"stalled"`` (an iteration gained less than
    ``IMPROVEMENT_TOL``, or no step along its direction gained at all) or
    ``"max_iters"``; ``restart_halvings`` counts the Armijo halvings of its
    steps, each one more evaluation of the witness.
    """

    best_value: float
    ensemble: Ensemble
    iterations_used: int
    restart_values: tuple[float, ...]
    restart_sweeps: tuple[int, ...]
    restart_stops: tuple[str, ...]
    restart_halvings: tuple[int, ...]


def _random_pure_states(seed: int, restart: int, n: int, d: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, restart], dtype=np.uint64)))
    re, im = rng.standard_normal((2, n, d))
    vecs = re + 1j * im
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


def gram_witness(
    vecs: np.ndarray, quadratic: bool, pairs: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Pair-witness value under optimal measurements and its gradient, stacked.

    ``vecs`` is an (R, N, d) stack of nonzero vectors standing for the pure
    states u_x = v_x/|v_x|. Returns the (R,) values and the (R, N, d)
    gradients with respect to (Re v, Im v), packed as re + i im. With
    A = conj(U) U^T and W_xx' the derivative of the value in |A_xx'|^2, the
    gradient is 2 (W o A^T) U with each row projected off u_x (the value
    ignores norms and phases) and divided by |v_x|. A pair of coincident
    states contributes no gradient, where the linear one would be infinite.
    ``pairs`` is ``kernels.pair_index(N)``, built once by the caller.
    """
    norms = np.linalg.norm(vecs, axis=-1, keepdims=True)
    u = vecs / norms
    gram = u.conj() @ np.swapaxes(u, -1, -2)
    # 1 - |A|^2 is the squared trace distance of each pair of states
    dist2 = np.maximum(1.0 - (gram.real**2 + gram.imag**2), 0.0)
    ix, ixp = pairs
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
    # L-BFGS direction H grad from each restart's history, stored slot-major
    # as (slots, R, n) with the oldest pair first; the caller passes only the
    # newest slots, since an empty slot has rho = 0 and changes nothing
    q = grad.copy()
    alphas = []
    for s, y, p in zip(steps[::-1], changes[::-1], rho[::-1]):
        a = p * np.einsum("rk,rk->r", s, q)
        q -= a[:, None] * y
        alphas.append(a)
    r = gamma[:, None] * q
    for s, y, p, a in zip(steps, changes, rho, reversed(alphas)):
        b = p * np.einsum("rk,rk->r", y, r)
        r += (a - b)[:, None] * s
    return r


def _unit_scale(grad):
    # the gradient's norm and the scale that makes it a unit step
    norm = np.linalg.norm(grad, axis=-1)
    return norm, np.divide(1.0, norm, out=np.zeros_like(norm), where=norm > 0.0)


def optimize(cfg: SeesawConfig) -> SeesawResult:
    """Best witness value over ``cfg.restarts`` independent L-BFGS ascents.

    An iteration takes one L-BFGS step per active restart, with the last
    ``HISTORY`` step and gradient-change pairs of that restart (a pair enters
    only with positive curvature), and halves it until the value gains at
    least ``ARMIJO`` times the predicted gain, so a restart never descends. A
    restart leaves the active set, its vectors and value frozen, once it is
    within ``IMPROVEMENT_TOL`` of the quantum ceiling (``"ceiling"``), once
    an iteration gains less than ``IMPROVEMENT_TOL`` (``"stalled"``),
    or at ``cfg.max_iters``. The optimal measurements of each restart's final
    states must then reproduce its value (a decrease raises ``NonMonotonic``
    naming the restart). The first restart with the best value has its states
    returned as a validated ``Ensemble``; the value always respects the
    d-dimensional quantum ceiling.
    """
    quadratic = cfg.witness is WitnessKind.QUADRATIC
    ceiling = quantum_bound(cfg.witness, cfg.N, cfg.d)
    shape = (cfg.N, cfg.d)
    n_restarts = cfg.restarts
    ix, ixp = kernels.pair_index(cfg.N)

    def witness(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # the ascent runs on the real (re, im)-interleaved vectors, (R, 2Nd)
        values, grad = gram_witness(points.view(complex).reshape(len(points), *shape), quadratic, (ix, ixp))
        return values, grad.reshape(len(points), -1).view(float)

    starts = [_random_pure_states(cfg.seed, r, *shape) for r in range(n_restarts)]
    x = np.stack(starts).reshape(n_restarts, -1).view(float)
    values, grad = witness(x)
    iterations = np.zeros(n_restarts, dtype=int)
    halvings = np.zeros(n_restarts, dtype=int)
    stops = ["max_iters"] * n_restarts

    # the active restarts' working state; a restart's x, value and iteration
    # count go to the full arrays when it leaves
    active = np.arange(n_restarts)
    ax, af, ag = x, values, grad
    steps = np.zeros((HISTORY, n_restarts, x.shape[1]))
    changes = np.zeros_like(steps)
    rho = np.zeros((HISTORY, n_restarts))
    gamma = np.zeros(n_restarts)  # 0 until the first curvature pair
    for sweep in range(1, cfg.max_iters + 1):
        # without a curvature pair, step a unit length along the gradient
        unit = None if (gamma > 0.0).all() else _unit_scale(ag)
        scale = gamma if unit is None else np.where(gamma > 0.0, gamma, unit[1])
        # the oldest slot a restart can have filled: an iteration fills at most one
        oldest = HISTORY - min(sweep - 1, HISTORY)
        direction = _two_loop(ag, steps[oldest:], changes[oldest:], rho[oldest:], scale)
        slope = np.einsum("rk,rk->r", ag, direction)
        # rounding can tilt the direction off the ascent: drop that history
        lost = ~(slope > 0.0)
        if lost.any():
            norm, first = _unit_scale(ag) if unit is None else unit
            rho[:, lost], gamma[lost] = 0.0, 0.0
            direction[lost] = first[lost, None] * ag[lost]
            slope[lost] = first[lost] * norm[lost] ** 2

        # the full step on the whole batch; only its Armijo failures halve
        nx = ax + direction
        nf, ng = witness(nx)
        todo = np.flatnonzero(~(nf >= af + ARMIJO * slope))
        for halving in range(1, MAX_HALVINGS):
            if not todo.size:
                break
            alpha = 0.5**halving
            halvings[active[todo]] += 1
            trial = ax[todo] + alpha * direction[todo]
            tf, tg = witness(trial)
            ok = tf >= af[todo] + ARMIJO * alpha * slope[todo]
            done = todo[ok]
            nx[done], nf[done], ng[done] = trial[ok], tf[ok], tg[ok]
            todo = todo[~ok]
        else:
            # no step along the direction gained: the restart stays where it is
            nx[todo], nf[todo], ng[todo] = ax[todo], af[todo], ag[todo]

        # keep the pair only with positive curvature, which keeps H positive
        step, change = nx - ax, ag - ng
        sy = np.einsum("rk,rk->r", step, change)
        yy = np.einsum("rk,rk->r", change, change)
        curved = sy > 1e-10 * np.sqrt(np.einsum("rk,rk->r", step, step) * yy)
        # usually every pair is curved and the whole history shifts in place
        c = slice(None) if curved.all() else np.flatnonzero(curved)
        for history, new in ((steps, step[c]), (changes, change[c]), (rho, 1.0 / sy[c])):
            history[:-1, c] = history[1:, c]
            history[-1, c] = new
        gamma[c] = sy[c] / yy[c]

        gain = nf - af
        ax, af, ag = nx, nf, ng
        at_ceiling = ceiling - af < IMPROVEMENT_TOL
        leaving = at_ceiling | (gain < IMPROVEMENT_TOL)
        if leaving.any():
            for k in np.flatnonzero(leaving):
                stops[active[k]] = "ceiling" if at_ceiling[k] else "stalled"
            gone = active[leaving]
            x[gone], values[gone], iterations[gone] = ax[leaving], af[leaving], sweep
            keep = ~leaving
            if not keep.any():
                break
            active = active[keep]
            ax, af, ag = ax[keep], af[keep], ag[keep]
            steps, changes, rho, gamma = steps[:, keep], changes[:, keep], rho[:, keep], gamma[keep]
    else:
        x[active], values[active], iterations[active] = ax, af, cfg.max_iters

    # under the optimal measurements each pair difference is the pair's trace distance
    vecs = x.view(complex).reshape(n_restarts, *shape)
    vecs = _fix_phase(vecs / np.linalg.norm(vecs, axis=-1, keepdims=True))
    differences = kernels.pure_pair_gaps(vecs[:, ix], vecs[:, ixp])[1]
    final = _pair_sum(differences**2 if quadratic else differences)
    fell = np.flatnonzero(final < values - MONOTONIC_SLACK)
    if fell.size:
        k = fell[0]
        raise NonMonotonic(
            f"restart {k}: final measurement step decreased the objective: {values[k]} -> {final[k]}"
        )
    best = int(np.argmax(final))
    best_value = float(final[best])

    if best_value > ceiling + NUMERIC_SLACK:
        raise DimWitnessError(
            f"see-saw value {best_value} exceeds the dimension ceiling {ceiling}; "
            "this indicates a numerical inconsistency"
        )

    return SeesawResult(
        best_value=best_value,
        ensemble=Ensemble.from_vectors(vecs[best]),
        iterations_used=int(iterations.sum()),
        restart_values=tuple(float(v) for v in final),
        restart_sweeps=tuple(int(k) for k in iterations),
        restart_stops=tuple(stops),
        restart_halvings=tuple(int(k) for k in halvings),
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
    n_max: int, *, restarts: int = SeesawConfig.restarts, seed: int = SeesawConfig.seed
) -> tuple[TightnessEntry, ...]:
    """Probe every reference tightness entry with N <= n_max.

    Runs the linear-witness see-saw at each listed (N, d) and reports the
    attained value against the ceiling; an entry is flagged attained when the
    gap is at most ``ATTAINMENT_GAP``. Misses are reported, never raised -- a
    local search failing to reach the ceiling is inconclusive.
    """
    n_max = require_int(n_max, "n_max")
    if not 3 <= n_max <= 10:
        raise BadArgument(f"n_max must lie in 3..10, got {n_max}")
    entries = []
    for n in sorted(TIGHT_DIMENSIONS):
        if n > n_max:
            continue
        for d in TIGHT_DIMENSIONS[n]:
            result = optimize(SeesawConfig(WitnessKind.LINEAR, n, d, restarts=restarts, seed=seed))
            bound = quantum_bound(WitnessKind.LINEAR, n, d)
            gap = bound - result.best_value
            entries.append(TightnessEntry(n, d, bound, result.best_value, gap, gap <= ATTAINMENT_GAP))
    return tuple(entries)
