"""Quantum models and see-saw maximization of Bell functionals.

A :class:`QuantumModel` is a shared pure state plus one projective
measurement per party and setting; :func:`behavior_from_model` produces the
Born-rule behavior P(a|x) = <psi| prod_i Pi^{a_i}_{x_i} |psi>.

:func:`optimize_violation` runs a see-saw ascent over qubit models: the
state step sets the state to the extremal eigenvector of the Bell operator,
and each measurement step is exact because a qubit +-1 observable enters
the objective linearly through its Bloch vector.  Both steps are coordinate
optima, so the objective is monotone along the iteration; results are
labeled best-found, not globally optimal, and acceptance values are pinned
against independent grid oracles.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .functionals import BellFunctional, evaluate
from .scenario import (
    Behavior,
    Scenario,
    ScenarioMismatchError,
    ValidationError,
)

STATE_NORM_TOL = 1e-12
PROJECTOR_TOL = 1e-10
MAX_QUBIT_DIMENSION = 2**8

PAULIS = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)


def qubit_projectors(bloch: Sequence[float]) -> np.ndarray:
    """Projectors of the +-1 observable along a Bloch direction, outcome +1 first."""
    n = np.asarray(bloch, dtype=float)
    if n.shape != (3,):
        raise ValidationError("a Bloch vector has three components")
    norm = float(np.linalg.norm(n))
    if abs(norm - 1.0) > 1e-9:
        raise ValidationError(f"Bloch vector must be unit length, got norm {norm}")
    obs = np.einsum("k,kij->ij", n, PAULIS)
    eye = np.eye(2, dtype=complex)
    return np.stack([(eye + obs) / 2, (eye - obs) / 2])


@dataclass(frozen=True, eq=False)
class QuantumModel:
    """Shared state vector plus per-party, per-setting projective measurements.

    ``measurements[i][x]`` stacks the ``d`` projector blocks of party ``i``'s
    setting ``x`` along the first axis.  Local dimensions are read off the
    projector shapes; their product must match the state length.
    ``bloch[i][x]``, when present, records the Bloch vector a qubit
    measurement was built from.
    """

    scenario: Scenario
    state: np.ndarray
    measurements: tuple[tuple[np.ndarray, ...], ...]
    bloch: tuple[tuple[np.ndarray, ...], ...] | None = None

    def __post_init__(self) -> None:
        sc = self.scenario
        state = np.asarray(self.state, dtype=complex).reshape(-1)
        norm = float(np.linalg.norm(state))
        if abs(norm - 1.0) > STATE_NORM_TOL:
            raise ValidationError(f"state norm {norm!r} is not 1")
        if len(self.measurements) != sc.parties:
            raise ValidationError("need one measurement list per party")
        dims = []
        meas: list[tuple[np.ndarray, ...]] = []
        for i, per_setting in enumerate(self.measurements):
            if len(per_setting) != sc.settings[i]:
                raise ValidationError(f"party {i} needs {sc.settings[i]} measurements")
            stacks = []
            dim = None
            for x, stack in enumerate(per_setting):
                arr = np.asarray(stack, dtype=complex)
                if arr.ndim != 3 or arr.shape[0] != sc.outcomes or arr.shape[1] != arr.shape[2]:
                    raise ValidationError(
                        f"measurement of party {i}, setting {x} must stack "
                        f"{sc.outcomes} square projectors"
                    )
                if dim is None:
                    dim = arr.shape[1]
                elif arr.shape[1] != dim:
                    raise ValidationError(f"party {i} has inconsistent local dimensions")
                _check_projective(arr, i, x)
                arr = arr.copy()
                arr.setflags(write=False)
                stacks.append(arr)
            dims.append(dim)
            meas.append(tuple(stacks))
        if math.prod(dims) != state.size:
            raise ValidationError(
                f"state dimension {state.size} != product of local dimensions {dims}"
            )
        state = state.copy()
        state.setflags(write=False)
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "measurements", tuple(meas))
        if self.bloch is not None:
            frozen = tuple(
                tuple(np.asarray(v, dtype=float) for v in per_party)
                for per_party in self.bloch
            )
            object.__setattr__(self, "bloch", frozen)

    @cached_property
    def local_dims(self) -> tuple[int, ...]:
        return tuple(per_setting[0].shape[1] for per_setting in self.measurements)


def _check_projective(stack: np.ndarray, party: int, setting: int) -> None:
    d, dim, _ = stack.shape
    label = f"party {party}, setting {setting}"
    total = np.zeros((dim, dim), dtype=complex)
    for k in range(d):
        p = stack[k]
        if np.abs(p - p.conj().T).max() > PROJECTOR_TOL:
            raise ValidationError(f"projector {k} of {label} is not Hermitian")
        if np.abs(p @ p - p).max() > PROJECTOR_TOL:
            raise ValidationError(f"projector {k} of {label} is not idempotent")
        total += p
    for j in range(d):
        for k in range(j + 1, d):
            if np.abs(stack[j] @ stack[k]).max() > PROJECTOR_TOL:
                raise ValidationError(f"projectors {j},{k} of {label} are not orthogonal")
    if np.abs(total - np.eye(dim)).max() > PROJECTOR_TOL:
        raise ValidationError(f"projectors of {label} do not sum to identity")


def qubit_model(
    scenario: Scenario,
    state: Sequence[complex],
    bloch_vectors: Sequence[Sequence[Sequence[float]]],
) -> QuantumModel:
    """Build a qubit model from Bloch vectors (one per party and setting)."""
    if scenario.outcomes != 2:
        raise ValidationError("qubit models are two-outcome models")
    bloch = tuple(
        tuple(np.asarray(v, dtype=float) for v in per_party)
        for per_party in bloch_vectors
    )
    measurements = tuple(
        tuple(qubit_projectors(v) for v in per_party) for per_party in bloch
    )
    return QuantumModel(scenario, np.asarray(state, complex), measurements, bloch=bloch)


def phase_measurement_model(
    m: int,
    d: int,
    alice_phases: Sequence[float],
    bob_phases: Sequence[float],
) -> QuantumModel:
    """Maximally entangled qudit pair with Fourier-phase measurements.

    Party 0's setting ``x`` projects onto the vectors with amplitudes
    exp(2 pi i k (a + alpha_x) / d) / sqrt(d); party 1 uses the conjugate
    basis, so the joint distribution depends only on a - b modulo d and all
    marginals are exactly uniform.  The standard near-optimal model for the
    chained functionals with d outcomes.
    """
    if len(alice_phases) != m or len(bob_phases) != m:
        raise ValidationError("need one phase per setting and party")
    scenario = Scenario((m, m), d)
    k = np.arange(d)
    state = np.zeros(d * d, dtype=complex)
    state[k * d + k] = 1 / math.sqrt(d)

    def basis(phase: float, conj: bool) -> np.ndarray:
        stacks = []
        for a in range(d):
            v = np.exp(2j * np.pi * k * (a + phase) / d) / math.sqrt(d)
            if conj:
                v = v.conj()
            stacks.append(np.outer(v, v.conj()))
        return np.stack(stacks)

    measurements = (
        tuple(basis(p, conj=False) for p in alice_phases),
        tuple(basis(p, conj=True) for p in bob_phases),
    )
    return QuantumModel(scenario, state, measurements)


def behavior_from_model(model: QuantumModel) -> Behavior:
    """Born-rule behavior of a model."""
    sc = model.scenario
    dims = model.local_dims
    psi = model.state.reshape(dims)
    n = sc.parties
    table = np.empty((sc.num_inputs, sc.num_outcomes))
    for x_idx in range(sc.num_inputs):
        x = sc.input_tuple(x_idx)
        # state axes stay at positions 0..N-1; one outcome axis per party is
        # appended at the end, in party order
        amp = psi
        for i, xi in enumerate(x):
            stack = model.measurements[i][xi]
            amp = np.tensordot(stack, amp, axes=([2], [i]))
            amp = np.moveaxis(amp, 0, -1)
            amp = np.moveaxis(amp, 0, i)
        probs = np.tensordot(psi.conj(), amp, axes=(list(range(n)), list(range(n))))
        table[x_idx] = probs.real.reshape(-1)
    return Behavior(sc, table)


def bell_operator(
    functional: BellFunctional, measurements: Sequence[Sequence[np.ndarray]]
) -> np.ndarray:
    """Hermitian operator sum c(a,x) prod_i Pi^{a_i}_{x_i} for fixed measurements."""
    sc = functional.scenario
    if len(measurements) != sc.parties:
        raise ScenarioMismatchError("need one measurement list per party")
    for i, per_setting in enumerate(measurements):
        if len(per_setting) != sc.settings[i]:
            raise ScenarioMismatchError(f"party {i} needs {sc.settings[i]} measurements")
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


@dataclass(frozen=True, eq=False)
class OptimizationResult:
    """Outcome of a see-saw run: best value, realizing model, and diagnostics.

    ``traces`` holds the orientation-signed objective after every half-step
    of every restart; ``trace`` is the best restart's sequence.  ``value``
    equals the functional evaluated on ``behavior`` which is the Born-rule
    behavior of ``model``.
    """

    value: float
    model: QuantumModel
    behavior: Behavior
    iterations: int
    converged: bool
    seed: int
    restart: int
    traces: tuple[tuple[float, ...], ...]

    @property
    def trace(self) -> tuple[float, ...]:
        return self.traces[self.restart]


def _random_bloch(rng: np.random.Generator) -> np.ndarray:
    while True:
        v = rng.normal(size=3)
        norm = np.linalg.norm(v)
        if norm > 1e-6:
            return v / norm


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


def _thread_cap() -> int:
    raw = os.environ.get("BELLCERT_THREADS", "")
    if raw:
        try:
            cap = int(raw)
        except ValueError as exc:
            raise ValidationError(f"BELLCERT_THREADS={raw!r} is not an integer") from exc
        if cap < 1:
            raise ValidationError("BELLCERT_THREADS must be at least 1")
        return cap
    return os.cpu_count() or 1


def optimize_violation(
    functional: BellFunctional,
    restarts: int = 20,
    seed: int = 0,
    tol: float = 1e-10,
    max_iters: int = 500,
    workers: int | None = None,
) -> OptimizationResult:
    """Best-found extremal quantum value of a functional over qubit models.

    Alternates exact coordinate steps until the orientation-signed objective
    improves by less than ``tol`` or ``max_iters`` is reached: the state
    moves to the extremal eigenvector of the Bell operator (ties broken
    deterministically by eigendecomposition order) and each Bloch vector
    moves to its normalized gradient.  ``restarts`` seeded initial models
    are tried; the best value wins, ties going to the lowest restart index.
    Results are reproducible given ``seed``.
    """
    sc = functional.scenario
    if sc.outcomes != 2:
        raise ValidationError(
            "the see-saw optimizer handles two-outcome qubit scenarios only; "
            "use behavior_from_model to evaluate explicit models"
        )
    dim = 2**sc.parties
    if dim > MAX_QUBIT_DIMENSION:
        raise ValidationError(f"total dimension {dim} exceeds {MAX_QUBIT_DIMENSION}")
    if restarts < 1:
        raise ValidationError(f"restarts must be at least 1, got {restarts}")
    if max_iters < 1:
        raise ValidationError(f"max_iters must be at least 1, got {max_iters}")
    sign = 1.0 if functional.orientation == "max" else -1.0
    table = functional.float_table

    def run_restart(r: int) -> tuple[float, list[list[np.ndarray]], int, bool, list[float]]:
        rng = np.random.default_rng([seed, r])
        bloch = [
            [_random_bloch(rng) for _ in range(sc.settings[i])]
            for i in range(sc.parties)
        ]
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
            for i in range(sc.parties):
                for x in range(sc.settings[i]):
                    v = _measurement_update_vector(
                        psi, table, sc, projectors, i, x
                    )
                    norm = float(np.linalg.norm(v))
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

    max_workers = workers if workers is not None else _thread_cap()
    max_workers = max(1, min(max_workers, restarts))
    if max_workers == 1:
        outcomes = [run_restart(r) for r in range(restarts)]
    else:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            outcomes = list(pool.map(run_restart, range(restarts)))

    best = 0
    for r in range(1, restarts):
        if sign * outcomes[r][0] > sign * outcomes[best][0]:
            best = r
    _, bloch, iterations, converged, _ = outcomes[best]
    model = qubit_model_from_functional(functional, bloch)
    behavior = behavior_from_model(model)
    value = evaluate(functional, behavior)
    return OptimizationResult(
        value=value,
        model=model,
        behavior=behavior,
        iterations=iterations,
        converged=converged,
        seed=seed,
        restart=best,
        traces=tuple(tuple(o[4]) for o in outcomes),
    )


def qubit_model_from_functional(
    functional: BellFunctional, bloch: Sequence[Sequence[np.ndarray]]
) -> QuantumModel:
    """Model whose state is the extremal eigenvector for the given measurements."""
    sc = functional.scenario
    projectors = [
        [qubit_projectors(v) for v in per_party] for per_party in bloch
    ]
    op = bell_operator(functional, projectors)
    vals, vecs = np.linalg.eigh(op)
    idx = -1 if functional.orientation == "max" else 0
    return qubit_model(sc, vecs[:, idx], bloch)


# --- JSON serialization ------------------------------------------------------

def _complex_to_pairs(arr: np.ndarray) -> list:
    flat = np.asarray(arr, dtype=complex).reshape(-1)
    out: list[float] = []
    for z in flat:
        out.extend((float(z.real), float(z.imag)))
    return out


def _pairs_to_complex(pairs: Sequence[float], shape: tuple[int, ...]) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float).reshape(-1, 2)
    return (arr[:, 0] + 1j * arr[:, 1]).reshape(shape)


def model_to_dict(model: QuantumModel) -> dict:
    sc = model.scenario
    out: dict = {
        "parties": sc.parties,
        "settings": list(sc.settings),
        "outcomes": sc.outcomes,
        "state_re_im": _complex_to_pairs(model.state),
    }
    if model.bloch is not None:
        out["measurements"] = {
            "kind": "bloch",
            "vectors": [
                [[float(c) for c in v] for v in per_party] for per_party in model.bloch
            ],
        }
    else:
        out["measurements"] = {
            "kind": "projectors",
            "local_dims": list(model.local_dims),
            "blocks": [
                [_complex_to_pairs(stack) for stack in per_party]
                for per_party in model.measurements
            ],
        }
    return out


def model_from_dict(data: dict) -> QuantumModel:
    scenario = Scenario(tuple(data["settings"]), data["outcomes"])
    meas = data["measurements"]
    if meas["kind"] == "bloch":
        dim = 2**scenario.parties
        state = _pairs_to_complex(data["state_re_im"], (dim,))
        return qubit_model(scenario, state, meas["vectors"])
    dims = tuple(meas["local_dims"])
    state = _pairs_to_complex(data["state_re_im"], (math.prod(dims),))
    blocks = tuple(
        tuple(
            _pairs_to_complex(pairs, (scenario.outcomes, dims[i], dims[i]))
            for pairs in per_party
        )
        for i, per_party in enumerate(meas["blocks"])
    )
    return QuantumModel(scenario, state, blocks)
