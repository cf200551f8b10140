"""Independent checks of the program's outputs.

Nothing here imports dimwitness: every expected value is recomputed from the
paper's closed forms or from numpy, so a fault in the program cannot hide in
its own check. Each check returns a list of problems (empty when the output
is right); ``self_test`` shows that each one rejects a perturbed answer.
"""

from __future__ import annotations

import math

import numpy as np

# Captured at import, before a traced run wraps numpy's eigensolvers.
_eigh = np.linalg.eigh
_eigvalsh = np.linalg.eigvalsh

#: Certification compares values with ceilings using this slack, as the
#: program does for closed forms.
CERT_SLACK = 1e-9
#: Recomputed witness values must agree to this relative tolerance.
VALUE_RTOL = 1e-9
#: Largest see-saw gap to the ceiling allowed for the N <= 7 entries.
SEESAW_GAP = 1e-3
#: Per-cell failure probability behind the Hoeffding radius of noisy cells.
HOEFFDING_DELTA = 1e-9


def pair_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """0-based (x, x') for the pair measurements (2,1), (3,1), (3,2), (4,1), ..."""
    ix, ixp = [], []
    for x in range(2, n + 1):
        for xp in range(1, x):
            ix.append(x - 1)
            ixp.append(xp - 1)
    return np.array(ix), np.array(ixp)


# --- closed forms -----------------------------------------------------------

def quantum_ceiling(kind: str, n: int, d: int) -> float:
    """Q_d of the pair witnesses: (N^2/2)(1 - 1/d) and (N sqrt(N(N-1))/2) sqrt(1 - 1/d)."""
    d = min(d, n)
    if kind == "quadratic":
        return n * n / 2.0 * (1.0 - 1.0 / d)
    return n * math.sqrt(n * (n - 1)) / 2.0 * math.sqrt(1.0 - 1.0 / d)


def classical_ceiling(n: int, d: int) -> int:
    """C_d of both pair witnesses: pairs split by the most balanced d-partition."""
    d = min(d, n)
    sizes = [n // d + (1 if i < n % d else 0) for i in range(d)]
    return n * (n - 1) // 2 - sum(s * (s - 1) // 2 for s in sizes)


def min_dimension(ceiling, n: int, value: float) -> int:
    for d in range(1, n + 1):
        if ceiling(d) >= value - CERT_SLACK:
            return d
    return n


# --- witness values -----------------------------------------------------------

def pair_trace_distances(vectors: np.ndarray | None = None, matrices: np.ndarray | None = None) -> np.ndarray:
    """Trace distance of every preparation pair, in pair-measurement order.

    Pure states use the Gram matrix, T = sqrt(1 - |<psi|phi>|^2); mixed ones
    half the summed absolute eigenvalues of the difference.
    """
    if vectors is not None:
        ix, ixp = pair_index(len(vectors))
        gram = vectors.conj() @ vectors.T
        return np.sqrt(np.clip(1.0 - np.abs(gram[ix, ixp]) ** 2, 0.0, None))
    ix, ixp = pair_index(len(matrices))
    return 0.5 * np.abs(_eigvalsh(matrices[ix] - matrices[ixp])).sum(axis=1)


def table_value(kind: str, p: np.ndarray) -> float:
    """Witness value of a pair table p[x, y, b], differences summed or squared."""
    ix, ixp = pair_index(p.shape[0])
    y = np.arange(len(ix))
    diffs = p[ix, y, 0] - p[ixp, y, 0]
    return float(np.sum(diffs)) if kind == "linear" else float(np.sum(diffs * diffs))


def check_certification(kind: str, n: int, payload: dict, expected_value: float) -> tuple[bool, list[str]]:
    """Check ``evaluate --json`` output; returns (failed, problems).

    ``failed`` is True when the program gave no classical certificate.
    """
    problems = []
    value = payload.get("value")
    if not isinstance(value, float) or abs(value - expected_value) > VALUE_RTOL * max(1.0, abs(expected_value)):
        problems.append(f"value {value} != independent {expected_value}")
        return False, problems
    if payload.get("N") != n or payload.get("witness") != kind:
        problems.append(f"echoed witness/N {payload.get('witness')}/{payload.get('N')}")
    want_q = min_dimension(lambda d: quantum_ceiling(kind, n, d), n, value)
    if payload.get("min_quantum_d") != want_q:
        problems.append(f"min_quantum_d {payload.get('min_quantum_d')} != {want_q}")
    got_c = payload.get("min_classical_d")
    if got_c is None:
        return True, problems
    want_c = min_dimension(lambda d: classical_ceiling(n, d), n, value)
    if got_c != want_c:
        problems.append(f"min_classical_d {got_c} != {want_c}")
    return False, problems


# --- see-saw models -----------------------------------------------------------

def _complex(data, shape) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    return (arr[..., 0] + 1j * arr[..., 1]).reshape(shape)


def check_seesaw(n: int, d: int, payload: dict, dump: dict) -> list[str]:
    """Recompute the linear value from the dumped model and hold it to Q_d."""
    problems = []
    ceiling = quantum_ceiling("linear", n, d)
    states = _complex(dump["states"], (n, d))
    if np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0)) > 1e-9:
        problems.append("dumped states are not unit vectors")
    ix, ixp = pair_index(n)
    keys = [f"{x + 1},{xp + 1}" for x, xp in zip(ix, ixp)]
    if sorted(dump["effects"]) != sorted(keys):
        return problems + ["dumped effects do not cover every pair"]
    effects = np.stack([_complex(dump["effects"][k], (d, d)) for k in keys])
    if np.max(np.abs(effects - effects.conj().swapaxes(-1, -2))) > 1e-9:
        problems.append("a dumped effect is not Hermitian")
    spectrum = _eigvalsh((effects + effects.conj().swapaxes(-1, -2)) / 2.0)
    if spectrum.min() < -1e-9 or spectrum.max() > 1 + 1e-9:
        problems.append("a dumped effect leaves [0, 1]")
    prob = np.real(np.einsum("pi,pij,pj->p", states[ix].conj(), effects, states[ix]))
    prob_p = np.real(np.einsum("pi,pij,pj->p", states[ixp].conj(), effects, states[ixp]))
    value = float(np.sum(prob - prob_p))
    best = payload.get("best_value")
    if not isinstance(best, float) or abs(best - value) > VALUE_RTOL * max(1.0, ceiling):
        problems.append(f"best_value {best} != {value} recomputed from the dump")
    elif best > ceiling + CERT_SLACK:
        problems.append(f"best_value {best} exceeds Q_d {ceiling}")
    elif ceiling - best > SEESAW_GAP:
        problems.append(f"gap {ceiling - best:.3e} to Q_d exceeds {SEESAW_GAP}")
    if abs(payload.get("quantum_bound", math.nan) - ceiling) > 1e-12 * ceiling:
        problems.append(f"quantum_bound {payload.get('quantum_bound')} != {ceiling}")
    return problems


# --- Born probabilities and finite shots ---------------------------------------

def fourier_vectors(n: int, d: int) -> np.ndarray:
    """State x has amplitudes exp(2 pi i k x / N) / sqrt(d), k = 0..d-1."""
    x = np.arange(1, n + 1)[:, None]
    k = np.arange(d)[None, :]
    return np.exp(2j * np.pi * k * x / n) / math.sqrt(d)


def depolarized(vectors: np.ndarray, eta: float) -> np.ndarray:
    d = vectors.shape[1]
    pure = np.einsum("ni,nj->nij", vectors, vectors.conj())
    return (1.0 - eta) * pure + eta * np.eye(d) / d


def helstrom_born(vectors: np.ndarray, eta: float) -> np.ndarray:
    """P(1 | x, (x, x')) after depolarizing, under the optimal pair effects.

    Each effect projects onto the positive eigenspace of rho_x - rho_x' of the
    noiseless pure states; returns shape (N, m).
    """
    n = len(vectors)
    ix, ixp = pair_index(n)
    pure = np.einsum("ni,nj->nij", vectors, vectors.conj())
    values, vecs = _eigh(pure[ix] - pure[ixp])
    keep = (values > 1e-10).astype(float)
    effects = np.einsum("pik,pk,pjk->pij", vecs, keep, vecs.conj())
    return np.real(np.einsum("xij,pji->xp", depolarized(vectors, eta), effects))


def hoeffding_radius(shots: int) -> float:
    """|f - p| stays below this with probability at least 1 - HOEFFDING_DELTA."""
    return math.sqrt(math.log(2.0 / HOEFFDING_DELTA) / (2.0 * shots))


def check_noisy(p: np.ndarray, exact: np.ndarray, shots: int) -> list[str]:
    """Cells are multiples of 1/shots and within the Hoeffding radius of Born."""
    problems = []
    if p.shape != exact.shape + (2,):
        return [f"table shape {p.shape}, expected {exact.shape + (2,)}"]
    counts = p * shots
    if np.max(np.abs(counts - np.round(counts))) > 1e-6:
        problems.append("a frequency is not a multiple of 1/shots")
    if np.max(np.abs(p.sum(axis=2) - 1.0)) > 1e-12:
        problems.append("a cell's outcomes do not sum to 1")
    worst = float(np.max(np.abs(p[..., 0] - exact)))
    if worst > hoeffding_radius(shots):
        problems.append(f"a frequency sits {worst:.4f} from Born, beyond {hoeffding_radius(shots):.4f}")
    return problems


# --- self-test ------------------------------------------------------------------

def self_test() -> None:
    """Each check accepts a right answer and rejects a perturbed one."""

    def expect(ok: bool, what: str) -> None:
        if not ok:
            raise RuntimeError(f"checker self-test failed: {what}")

    # closed forms at values the paper states
    expect(quantum_ceiling("quadratic", 7, 2) == 12.25, "Q_2 quadratic at N=7")
    expect(abs(quantum_ceiling("linear", 4, 3) - 2 * math.sqrt(8)) < 1e-12, "Q_3 linear at N=4")
    expect([classical_ceiling(7, d) for d in range(1, 8)] == [0, 12, 16, 18, 19, 20, 21], "C_d at N=7")

    # pair values: Gram and eigvalsh routes agree, and certification catches
    # a shifted value or dimension
    vecs = fourier_vectors(7, 2)
    t_pure = pair_trace_distances(vectors=vecs)
    t_mixed = pair_trace_distances(matrices=depolarized(vecs, 0.0))
    expect(np.allclose(t_pure, t_mixed, atol=1e-12), "pure and mixed trace distances")
    value = float(np.sum(t_pure ** 2))
    good = {"witness": "quadratic", "N": 7, "value": value, "min_quantum_d": 2, "min_classical_d": 3}
    expect(check_certification("quadratic", 7, good, value) == (False, []), "accepts the right certificate")
    for field, wrong in (("value", value + 1e-6), ("min_quantum_d", 3), ("min_classical_d", 2)):
        expect(check_certification("quadratic", 7, dict(good, **{field: wrong}), value)[1] != [], f"rejects {field}")
    expect(check_certification("quadratic", 7, dict(good, min_classical_d=None), value) == (True, []),
           "counts a missing classical certificate as failed")

    # noisy cells: exact frequencies pass, off-grid or far cells fail
    shots = 10_000
    exact = helstrom_born(vecs, 0.1)
    p1 = np.round(exact * shots) / shots
    table = np.stack([p1, 1.0 - p1], axis=2)
    expect(check_noisy(table, exact, shots) == [], "accepts rounded Born frequencies")
    off_grid = table.copy()
    off_grid[0, 0] += np.array([0.5, -0.5]) / shots
    expect(check_noisy(off_grid, exact, shots) != [], "rejects an off-grid frequency")
    far = table.copy()
    shift = 2 * hoeffding_radius(shots) * (1 if exact[1, 0] < 0.5 else -1)
    far[1, 0] = [p1[1, 0] + shift, 1.0 - p1[1, 0] - shift]
    expect(check_noisy(far, exact, shots) != [], "rejects a frequency beyond the radius")

    # see-saw model: the qubit trine-like optimum at N=3, d=2 is exact
    n, d = 3, 2
    states = fourier_vectors(n, d)
    ix, ixp = pair_index(n)
    pure = np.einsum("ni,nj->nij", states, states.conj())
    values, v = _eigh(pure[ix] - pure[ixp])
    effects = np.einsum("pik,pk,pjk->pij", v, (values > 1e-10).astype(float), v.conj())
    dump = {
        "states": [[[z.real, z.imag] for z in s] for s in states],
        "effects": {f"{x + 1},{xp + 1}": [[z.real, z.imag] for z in e.reshape(-1)]
                    for x, xp, e in zip(ix, ixp, effects)},
    }
    best = float(np.sum(pair_trace_distances(vectors=states)))
    payload = {"best_value": best, "quantum_bound": quantum_ceiling("linear", n, d)}
    expect(check_seesaw(n, d, payload, dump) == [], "accepts an exact see-saw model")
    expect(check_seesaw(n, d, dict(payload, best_value=best + 1e-6), dump) != [], "rejects a shifted best_value")
    bent = dict(dump, states=[[[1.0, 0.0], [0.0, 0.0]]] + dump["states"][1:])
    expect(check_seesaw(n, d, payload, bent) != [], "rejects a model that does not give best_value")
