"""Two see-saws the optimizer replaced, kept as test oracles.

The serial see-saw: one Python loop per restart.  The Bell operator is
summed with one ``np.kron`` per nonzero term, and each Bloch gradient loops
over the other parties' outcome assignments.  It shares no contraction code
with ``bellcert.quantum``; only the projectors of a Bloch vector come from
the library.

The first batched see-saw (``_seesaw``, ``_seeded_starts``), as it stood
before its loop constants were hoisted and its start draws stacked: it
rebuilds every projector stack and gradient weight on every iteration and
draws one normal triple per Bloch vector.  It keeps its own gradients and
draws but uses the library's (flat) projector stacks and contractions, so it
pins the hoisted loop's arithmetic bit for bit, not those helpers themselves.

The projector stacks as the library first built them (``qubit_stacks``): an
einsum over the Paulis, then (I + obs) / 2 and (I - obs) / 2 stacked.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from bellcert.functionals import BellFunctional
from bellcert.quantum import (
    PAULIS,
    _bell_operators,
    _density,
    _qubit_stacks,
    _traced,
    qubit_projectors,
)
from bellcert.scenario import Scenario, _paired


def bell_operator(
    functional: BellFunctional, measurements: Sequence[Sequence[np.ndarray]]
) -> np.ndarray:
    """Hermitian operator sum c(a,x) prod_i Pi^{a_i}_{x_i} for fixed measurements."""
    sc = functional.scenario
    dims = [np.asarray(per_setting[0]).shape[1] for per_setting in measurements]
    dim = math.prod(dims)
    op = np.zeros((dim, dim), dtype=complex)
    table = functional.float_table
    for x_idx in range(sc.num_inputs):
        x = sc.input_tuple(x_idx)
        row = table[x_idx]
        if not row.any():
            continue
        for a_idx in np.nonzero(row)[0]:
            a = sc.outcome_tuple(int(a_idx))
            term = np.array([[row[a_idx]]], dtype=complex)
            for i, (xi, ai) in enumerate(zip(x, a)):
                term = np.kron(term, np.asarray(measurements[i][xi])[ai])
            op += term
    return op


def behavior_table(model) -> np.ndarray:
    """Born-rule table of a model, one amplitude contraction per joint input."""
    sc = model.scenario
    dims = model.local_dims
    psi = model.state.reshape(dims)
    n = sc.parties
    table = np.empty((sc.num_inputs, sc.num_outcomes))
    for x_idx in range(sc.num_inputs):
        x = sc.input_tuple(x_idx)
        amp = psi
        for i, xi in enumerate(x):
            stack = model.measurements[i][xi]
            amp = np.tensordot(stack, amp, axes=([2], [i]))
            amp = np.moveaxis(amp, 0, -1)
            amp = np.moveaxis(amp, 0, i)
        probs = np.tensordot(psi.conj(), amp, axes=(list(range(n)), list(range(n))))
        table[x_idx] = probs.real.reshape(-1)
    return table


def qubit_stacks(bloch: np.ndarray) -> np.ndarray:
    """(R, M * 2, 2, 2) projector stacks of (R, M, 3) Bloch vectors, outcome +1 first."""
    obs = np.einsum("rmk,kij->rmij", bloch, PAULIS)
    eye = np.eye(2, dtype=complex)
    stacks = np.stack([(eye + obs) / 2, (eye - obs) / 2], axis=2)
    return stacks.reshape(-1, bloch.shape[1] * 2, 2, 2)


def _measurement_update_vector(
    psi: np.ndarray,
    float_table: np.ndarray,
    scenario: Scenario,
    projectors: list[list[np.ndarray]],
    party: int,
    setting: int,
) -> np.ndarray:
    """Gradient of the objective in the Bloch components of one observable.

    The objective is linear in the Bloch vector of party ``party`` at
    ``setting``; the returned 3-vector v satisfies
    objective = const + v . n for the observable along n.
    """
    sc = scenario
    n_parties = sc.parties
    psi_t = psi.reshape((2,) * n_parties)
    others = [j for j in range(n_parties) if j != party]
    grad_matrix = np.zeros((2, 2), dtype=complex)
    for x_idx in range(sc.num_inputs):
        x = sc.input_tuple(x_idx)
        if x[party] != setting:
            continue
        row = float_table[x_idx]
        if not row.any():
            continue
        # weights for each assignment of the other parties' outcomes:
        # (c at a_party=+1 minus c at a_party=-1) / 2
        for other_outcomes in np.ndindex(*(2,) * len(others)):
            a_plus = [0] * n_parties
            a_minus = [0] * n_parties
            for j, o in zip(others, other_outcomes):
                a_plus[j] = o
                a_minus[j] = o
            a_plus[party] = 0
            a_minus[party] = 1
            w = (
                row[sc.outcome_index(tuple(a_plus))]
                - row[sc.outcome_index(tuple(a_minus))]
            ) / 2
            if w == 0.0:
                continue
            chi = psi_t
            for j, o in zip(others, other_outcomes):
                proj = projectors[j][x[j]][o]
                chi = np.tensordot(proj, chi, axes=([1], [j]))
                chi = np.moveaxis(chi, 0, j)
            # G[p, q] = sum over other axes of conj(chi)[..., p] * psi[..., q]
            chi_m = np.moveaxis(chi, party, -1).reshape(-1, 2)
            psi_m = np.moveaxis(psi_t, party, -1).reshape(-1, 2)
            grad_matrix += w * (chi_m.conj().T @ psi_m)
    return np.real(np.einsum("kpq,pq->k", PAULIS, grad_matrix))


def _bloch_gradients(
    rho: np.ndarray, stacks: Sequence[np.ndarray], coeffs: np.ndarray, party: int
) -> np.ndarray:
    """(R, M_i, 3) gradients v: the objective is const + sum_x v[x] . n_x for party i."""
    others = stacks[:party] + stacks[party + 1 :]
    traced = _traced(np.moveaxis(rho, (1 + 2 * party, 2 + 2 * party), (-2, -1)), others)
    # sum_{a_i} c(x, a) (1/2, -1/2)[a_i], party i's setting first
    weights = np.tensordot(coeffs, [0.5, -0.5], ([2 * party + 1], [0]))
    weights = np.moveaxis(weights, 2 * party, 0)
    grad = traced.reshape(rho.shape[0], 4, -1) @ weights.reshape(weights.shape[0], -1).T
    return np.real(PAULIS.reshape(3, 4) @ grad).swapaxes(1, 2)


def _random_bloch(rng: np.random.Generator) -> np.ndarray:
    while True:
        v = rng.normal(size=3)
        norm = np.linalg.norm(v)
        if norm > 1e-6:
            return v / norm


def _seeded_starts(sc: Scenario, seed: int, restarts: int) -> list[np.ndarray]:
    """Party i's (restarts, M_i, 3) start vectors; restart r draws from rng([seed, r])."""
    starts = []
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        starts.append([[_random_bloch(rng) for _ in range(m)] for m in sc.settings])
    return [np.array([s[i] for s in starts]) for i in range(sc.parties)]


def _seesaw(
    functional: BellFunctional, bloch: Sequence[np.ndarray], tol: float, max_iters: int
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray, list[list[float]]]:
    """Run every restart of the see-saw as one batch.

    ``bloch[i]`` holds party i's (restarts, M_i, 3) start vectors.  Returns
    each restart's final Bloch vectors (same layout), iteration count,
    convergence flag and trace.  A restart leaves the batch at the
    iteration where it converges.
    """
    sc = functional.scenario
    sign = 1.0 if functional.orientation == "max" else -1.0
    pick = -1 if sign > 0 else 0
    bloch = list(bloch)
    restarts = bloch[0].shape[0]
    coeffs = _paired(sc, functional.float_table)
    final = [b.copy() for b in bloch]
    iterations = np.zeros(restarts, dtype=int)
    converged = np.zeros(restarts, dtype=bool)
    traces: list[list[float]] = [[] for _ in range(restarts)]
    live = np.arange(restarts)
    prev = np.full(restarts, -np.inf)
    for it in range(1, max_iters + 1):
        stacks = [_qubit_stacks(b) for b in bloch]
        vals, vecs = np.linalg.eigh(_bell_operators(coeffs, stacks))
        rho = _density(vecs[:, :, pick], (2,) * sc.parties)
        steps = [sign * vals[:, pick, None]]
        # no term pairs two settings of one party, so all of a party's
        # settings move at once and each move is still an exact optimum
        for i in range(sc.parties):
            v = _bloch_gradients(rho, stacks, coeffs, i)
            norm = np.linalg.norm(v, axis=-1, keepdims=True)
            moved = norm > 1e-14
            new = np.where(moved, sign * v / np.where(moved, norm, 1.0), bloch[i])
            # exact objective change of each coordinate step
            steps.append(sign * ((new * v).sum(axis=-1) - (bloch[i] * v).sum(axis=-1)))
            bloch[i] = new
            stacks[i] = _qubit_stacks(new)
        values = np.cumsum(np.concatenate(steps, axis=1), axis=1)
        for r, row in zip(live, values.tolist()):
            traces[r].extend(row)
        current = values[:, -1]
        done = current - prev < tol
        stop = done | (it == max_iters)
        iterations[live[stop]] = it
        converged[live[stop]] = done[stop]
        for i in range(sc.parties):
            final[i][live[stop]] = bloch[i][stop]
        live, prev = live[~stop], current[~stop]
        if not live.size:
            break
        bloch = [b[~stop] for b in bloch]
    return final, iterations, converged, traces


def seeded_start(scenario: Scenario, seed: int, r: int) -> list[list[np.ndarray]]:
    """Start Bloch vectors of restart ``r``, drawn party by party, setting by setting."""
    rng = np.random.default_rng([seed, r])
    return [
        [_random_bloch(rng) for _ in range(scenario.settings[i])]
        for i in range(scenario.parties)
    ]


def run_restart(
    functional: BellFunctional,
    bloch: list[list[np.ndarray]],
    tol: float,
    max_iters: int,
    record: list[float] | None = None,
) -> tuple[float, list[list[np.ndarray]], int, bool, list[float]]:
    """One restart of the serial see-saw from the given start Bloch vectors:
    (value, bloch, iterations, converged, trace).

    ``record``, when given, receives one number per trace entry that
    bounds how well rounding determines the step: the gap between the
    extremal eigenvalue and the next for a state step, and the gradient
    norm (inf when exactly zero) for a measurement step."""
    sc = functional.scenario
    sign = 1.0 if functional.orientation == "max" else -1.0
    table = functional.float_table
    bloch = [list(per_party) for per_party in bloch]
    projectors = [
        [qubit_projectors(v) for v in per_party] for per_party in bloch
    ]
    trace: list[float] = []
    prev = -np.inf
    psi = None
    iterations = 0
    converged = False
    for it in range(max_iters):
        iterations = it + 1
        op = bell_operator(functional, projectors)
        vals, vecs = np.linalg.eigh(op)
        idx = -1 if sign > 0 else 0
        psi = vecs[:, idx]
        current = sign * float(vals[idx])
        trace.append(current)
        if record is not None:
            record.append(abs(float(vals[idx] - vals[1 if idx == 0 else -2])))
        for i in range(sc.parties):
            for x in range(sc.settings[i]):
                v = _measurement_update_vector(
                    psi, table, sc, projectors, i, x
                )
                norm = float(np.linalg.norm(v))
                if record is not None:
                    record.append(norm if norm > 0 else np.inf)
                if norm > 1e-14:
                    new_n = sign * v / norm
                    old_n = bloch[i][x]
                    # exact objective change of this coordinate step
                    current = current + sign * (
                        float(new_n @ v) - float(old_n @ v)
                    )
                    bloch[i][x] = new_n
                    projectors[i][x] = qubit_projectors(new_n)
                trace.append(current)
        if current - prev < tol:
            converged = True
            break
        prev = current
    return sign * trace[-1], bloch, iterations, converged, trace
