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

The numerics are contractions over party-paired tensors: the coefficient
table c[x_0, a_0, x_1, a_1, ...] and each party's stacked projectors
P_i[x, a, p, q] are summed one party at a time, and all restarts run as one
batch with one batched eigendecomposition per step.  The batch runs in
slices of at most ``_GATHER_ELEMENTS // 4**N`` restarts, which bounds its
(slice, 2^N, 2^N) arrays.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .functionals import BellFunctional, evaluate
from .scenario import (
    _GATHER_ELEMENTS,
    Behavior,
    Scenario,
    ScenarioMismatchError,
    ValidationError,
    _document_header,
    _document_scenario,
    _entries,
    _integer,
    _numbers,
    _pair_axes,
    _paired,
    _reading,
    _real,
    _unpaired,
)

STATE_NORM_TOL = 1e-12
PROJECTOR_TOL = 1e-10
MAX_QUBIT_DIMENSION = 2**8
# the most see-saw restarts, each of which draws from its own generator: one
# gather's elements, under a name of its own so that shrinking the slices' bound
# leaves it alone
_MAX_RESTARTS = _GATHER_ELEMENTS

PAULIS = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)
# (3, 16) and (16,): the (re, im) parts of sigma_k and then -sigma_k, and of I twice,
# entry by entry; see _qubit_stacks
_SIGNED_PAULIS = np.concatenate([PAULIS, -PAULIS], axis=1).reshape(3, 8).view(float)
_IDENTITIES = np.tile(np.eye(2, dtype=complex).reshape(4), 2).view(float)
_PAULI_ROWS = PAULIS.reshape(3, 4)  # sigma_k[p, q] at [k, 2 * p + q]


def qubit_projectors(bloch: Sequence[float]) -> np.ndarray:
    """Projectors of the +-1 observable along a Bloch direction, outcome +1 first."""
    n = _numbers(bloch, "Bloch vector")
    if n.shape != (3,):
        raise ValidationError("a Bloch vector has three components")
    norm = float(np.linalg.norm(n))
    if not abs(norm - 1.0) <= 1e-9:
        raise ValidationError(f"Bloch vector must be unit length, got norm {norm}")
    return _qubit_stacks(n[None, None]).reshape(2, 2, 2)


@dataclass(frozen=True, eq=False)
class QuantumModel:
    """Shared state vector plus per-party, per-setting projective measurements.

    ``measurements[i][x]`` stacks the ``d`` projector blocks of party ``i``'s
    setting ``x`` along the first axis.  Local dimensions are read off the
    projector shapes; their product must match the state length.
    ``bloch[i][x]``, when present, records the Bloch vector a qubit
    measurement was built from.  State and projectors are read-only copies;
    ``measurements[i][x]`` are views of one flat projector stack per party.
    """

    scenario: Scenario
    state: np.ndarray
    measurements: tuple[tuple[np.ndarray, ...], ...]
    bloch: tuple[tuple[np.ndarray, ...], ...] | None = None
    _stacks: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        sc = self.scenario
        state = _numbers(self.state, "state", complex).reshape(-1)
        norm = float(np.linalg.norm(state))
        if not abs(norm - 1.0) <= STATE_NORM_TOL:
            raise ValidationError(f"state norm {norm!r} is not 1")
        try:
            stacks = _party_stacks(sc, self.measurements)
        except ScenarioMismatchError as exc:
            raise ValidationError(str(exc)) from exc
        meas = []
        for i, stack in enumerate(stacks):
            stack.setflags(write=False)  # first, so that every view is read-only
            dim = math.isqrt(stack.shape[-1])
            per_setting = stack.reshape(sc.settings[i], sc.outcomes, dim, dim)
            _check_projective(per_setting, i)
            meas.append(tuple(per_setting))
        object.__setattr__(self, "_stacks", tuple(stacks))
        dims = list(self.local_dims)
        if math.prod(dims) != state.size:
            raise ValidationError(
                f"state dimension {state.size} != product of local dimensions {dims}"
            )
        state.setflags(write=False)
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "measurements", tuple(meas))
        if self.bloch is not None:
            frozen = [_numbers(p, "Bloch vectors") for p in _entries(self.bloch, "Bloch vectors")]
            for per_party in frozen:
                per_party.setflags(write=False)  # first, so that every row view is read-only
            object.__setattr__(self, "bloch", tuple(tuple(p) for p in frozen))

    @cached_property
    def local_dims(self) -> tuple[int, ...]:
        return tuple(math.isqrt(stack.shape[-1]) for stack in self._stacks)


def _check_projective(stack: np.ndarray, party: int) -> None:
    """Raise on the first non-projective measurement in a party's (M, d, D, D) stack:
    settings in order; within one, projector k Hermitian then idempotent for
    each k, then each pair j < k orthogonal, then the sum the identity."""
    settings, d, dim, _ = stack.shape
    j, k = np.array(list(itertools.combinations(range(d), 2)), dtype=np.intp).reshape(-1, 2).T

    def off(diff: np.ndarray) -> np.ndarray:  # NaN is off too
        return ~(np.abs(diff).max(axis=(-2, -1)) <= PROJECTOR_TOL)

    hermitian = off(stack - stack.conj().swapaxes(-2, -1))
    idempotent = off(stack @ stack - stack)
    pairs = off(stack[:, j] @ stack[:, k])
    total = off(stack.sum(axis=1) - np.eye(dim))[:, None]
    # one row per setting, its faults in the order they are reported
    faults = np.hstack([np.stack([hermitian, idempotent], -1).reshape(settings, -1), pairs, total])
    if not faults.any():
        return
    x, n = np.argwhere(faults)[0]
    label = f"party {party}, setting {x}"
    if n < 2 * d:
        kind = ("Hermitian", "idempotent")[n % 2]
        raise ValidationError(f"projector {n // 2} of {label} is not {kind}")
    if n < 2 * d + j.size:
        n -= 2 * d
        raise ValidationError(f"projectors {j[n]},{k[n]} of {label} are not orthogonal")
    raise ValidationError(f"projectors of {label} do not sum to identity")


def qubit_model(
    scenario: Scenario,
    state: Sequence[complex],
    bloch_vectors: Sequence[Sequence[Sequence[float]]],
) -> QuantumModel:
    """Build a qubit model from Bloch vectors (one per party and setting)."""
    scenario._two_outcomes("a qubit model")
    parties = _entries(bloch_vectors, "Bloch vectors")
    measurements = tuple(tuple(map(qubit_projectors, _entries(p, "Bloch vectors"))) for p in parties)
    return QuantumModel(scenario, state, measurements, bloch=bloch_vectors)


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
    scenario = Scenario((m, m), d)
    phases = np.array(
        [
            [_real(v, f"phase of party {i}") for v in _entries(p, f"phases of party {i}", m)]
            for i, p in enumerate((alice_phases, bob_phases))
        ]
    )
    k = np.arange(d)
    state = np.zeros(d * d, dtype=complex)
    state[k * d + k] = 1 / math.sqrt(d)
    # shift[i, x, a, 0] = a + phase of party i's setting x
    shift = k[:, None] + phases[..., None, None]
    vecs = np.exp(2j * np.pi * k * shift / d) / math.sqrt(d)
    vecs[1] = vecs[1].conj()
    projectors = vecs[..., :, None] * vecs[..., None, :].conj()
    measurements = (tuple(projectors[0]), tuple(projectors[1]))
    return QuantumModel(scenario, state, measurements)


def _contract(t: np.ndarray, mats: Sequence[np.ndarray]) -> np.ndarray:
    """Sum the leading axis of ``t`` against each (R, A_j, B_j) matrix in turn.

    Each step appends its B_j axis last, so a (R or 1, A_0 * A_1 * ...)
    input gives (R, B_0 * B_1 * ...) with the parties still in order.
    """
    for m in mats:
        t = t.reshape(t.shape[0], m.shape[1], -1).swapaxes(1, 2) @ m
    return t.reshape(t.shape[0], -1)


def _party_stacks(
    sc: Scenario, measurements: Sequence[Sequence[np.ndarray]]
) -> list[np.ndarray]:
    """Each party's projectors as one flat (1, settings * outcomes, D**2) array: the
    one structural check of a measurement list, raising ScenarioMismatchError."""
    measurements = _entries(measurements, "measurements")
    if len(measurements) != sc.parties:
        raise ScenarioMismatchError("need one measurement list per party")
    stacks = []
    for i, per_setting in enumerate(measurements):
        per_setting = _entries(per_setting, f"measurements of party {i}")
        if len(per_setting) != sc.settings[i]:
            raise ScenarioMismatchError(f"party {i} needs {sc.settings[i]} measurements")
        blocks = [
            _numbers(m, f"measurement of party {i}, setting {x}", complex, ScenarioMismatchError)
            for x, m in enumerate(per_setting)
        ]
        shape = (sc.outcomes,) + blocks[0].shape[-1:] * 2
        for x, block in enumerate(blocks):
            if block.shape != shape or not block.size:
                raise ScenarioMismatchError(
                    f"measurement of party {i}, setting {x} has shape {block.shape}, "
                    f"not {sc.outcomes} square projectors of the party's dimension"
                )
        stacks.append(np.stack(blocks).reshape(1, -1, shape[-1] ** 2))
    return stacks


def _bell_operators(coeffs: np.ndarray, stacks: Sequence[np.ndarray]) -> np.ndarray:
    """(R, D, D) Bell operators of paired coefficients and flat (R, M_i * d, D_i**2) stacks."""
    dims = [math.isqrt(s.shape[-1]) for s in stacks]
    n = len(dims)
    op = _contract(coeffs.reshape(1, -1), stacks)
    op = op.reshape(-1, *(k for dim in dims for k in (dim, dim)))
    op = op.transpose(0, *range(1, 2 * n, 2), *range(2, 2 * n + 1, 2))
    return op.reshape(-1, math.prod(dims), math.prod(dims))


def _density(psi: np.ndarray, dims: Sequence[int]) -> np.ndarray:
    """(R, D_0, D_0, D_1, D_1, ...) densities rho[p_0, q_0, ...] = conj(psi[p]) psi[q]."""
    rho = (psi.conj()[:, :, None] * psi[:, None, :]).reshape(-1, *dims, *dims)
    return rho.transpose(0, *(1 + k for k in _pair_axes(len(dims))))


def _traced(rho: np.ndarray, stacks: Sequence[np.ndarray]) -> np.ndarray:
    """Trace densities against flat party stacks in order, leaving each (x_j, a_j) open.

    Parties of ``rho`` beyond the traced ones keep their (p, q) axes, ahead
    of the open (x_j, a_j) axes in the result.
    """
    return _contract(rho.reshape(rho.shape[0], -1), [s.swapaxes(1, 2) for s in stacks])


def _gradient_weights(coeffs: np.ndarray, party: int) -> np.ndarray:
    """(rest, M_i) weights sum_{a_i} c(x, a) (1/2, -1/2)[a_i], party i's setting last,
    the rest of the (x, a) axes in order; complex, as the traced densities they meet."""
    weights = np.tensordot(coeffs, [0.5, -0.5], ([2 * party + 1], [0]))
    weights = np.moveaxis(weights, 2 * party, 0)
    return weights.reshape(weights.shape[0], -1).T.astype(complex)


def _bloch_gradients(
    rho: np.ndarray, others: Sequence[np.ndarray], weights: np.ndarray
) -> np.ndarray:
    """(R, M_i, 3) gradients v: the objective is const + sum_x v[x] . n_x for party i.

    ``rho`` holds party i's (p, q) axes last, ``others`` the other parties'
    flat stacks and ``weights`` party i's :func:`_gradient_weights`.
    """
    traced = _traced(rho, others)
    grad = traced.reshape(rho.shape[0], 4, -1) @ weights
    # contiguous, since each see-saw move reads it four times
    return np.ascontiguousarray((_PAULI_ROWS @ grad).real.swapaxes(1, 2))


def _qubit_stacks(bloch: np.ndarray) -> np.ndarray:
    """Flat (R, M * 2, 4) projector stacks of (R, M, 3) Bloch vectors, outcome +1 first.

    Both I +- n . sigma are one product with the constant (re, im) parts of
    +-sigma, plus those of I.  Every real and imaginary part of an entry has
    one nonzero Pauli term, so the product is exact and each sum rounds as
    in an einsum over the Paulis; halving last, as (I +- n . sigma) / 2
    does, keeps every bit, down to a zero's sign at the smallest subnormals.
    """
    doubled = _IDENTITIES + bloch.reshape(-1, 3) @ _SIGNED_PAULIS
    return (doubled / 2).view(complex).reshape(-1, bloch.shape[1] * 2, 4)


def behavior_from_model(model: QuantumModel) -> Behavior:
    """Born-rule behavior of a model."""
    sc = model.scenario
    rho = _density(model.state.reshape(1, -1), model.local_dims)
    probs = _traced(rho, model._stacks).real
    return Behavior(sc, _unpaired(sc, probs))


def bell_operator(
    functional: BellFunctional, measurements: Sequence[Sequence[np.ndarray]]
) -> np.ndarray:
    """Hermitian operator sum c(a,x) prod_i Pi^{a_i}_{x_i} for fixed measurements."""
    sc = functional.scenario
    stacks = _party_stacks(sc, measurements)
    return _bell_operators(_paired(sc, functional.float_table), stacks)[0]


@dataclass(frozen=True, eq=False)
class OptimizationResult:
    """Outcome of a see-saw run: best value, realizing model, and diagnostics.

    ``traces`` holds the orientation-signed objective after every half-step
    of every restart; ``trace`` is the best restart's sequence.  ``value``
    equals the functional evaluated on ``behavior`` which is the Born-rule
    behavior of ``model``.  ``_finals`` keeps every restart's final party
    (restarts, M_i, 3) Bloch vectors, which :func:`_uniqueness_evidence` reads.
    """

    value: float
    model: QuantumModel
    behavior: Behavior
    iterations: int
    converged: bool
    seed: int
    restart: int
    traces: tuple[tuple[float, ...], ...]
    _finals: tuple[np.ndarray, ...] = field(init=False, repr=False)

    @property
    def trace(self) -> tuple[float, ...]:
        return self.traces[self.restart]


def _seeded_starts(sc: Scenario, seed: int, restarts: int) -> list[np.ndarray]:
    """Party i's (restarts, M_i, 3) start vectors; restart r draws from rng([seed, r]).

    A restart draws one normal triple per vector, party by party and
    setting by setting, in one call.  A triple of norm at most 1e-6 is
    dropped and its replacement drawn after the others, which is the stream
    order of one draw per vector.  The norm is a dot product, as the 1-D
    ``np.linalg.norm`` takes it, so that every bit matches.
    """
    count = sum(sc.settings)
    rngs = [np.random.default_rng([seed, r]) for r in range(restarts)]
    starts = np.array([rng.normal(size=(count, 3)) for rng in rngs])
    norm = np.sqrt(starts[..., None, :] @ starts[..., None])[..., 0]
    for r in np.flatnonzero(~(norm > 1e-6).all(axis=(1, 2))):
        v, n = starts[r], norm[r]
        while not (n > 1e-6).all():
            keep = n[:, 0] > 1e-6
            v = np.concatenate([v[keep], rngs[r].normal(size=(count - keep.sum(), 3))])
            n = np.sqrt(v[:, None, :] @ v[:, :, None])[:, 0]
        starts[r], norm[r] = v, n
    starts /= norm
    return [np.ascontiguousarray(s) for s in np.split(starts, np.cumsum(sc.settings)[:-1], 1)]


def _seesaw(
    functional: BellFunctional, starts: Sequence[np.ndarray], tol: float, max_iters: int
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray, list[list[float]]]:
    """Run every restart of the see-saw as one batch.

    ``starts[i]`` holds party i's (restarts, M_i, 3) start vectors.  Returns
    each restart's final Bloch vectors (same layout), iteration count,
    convergence flag and trace.  The batch runs in consecutive slices of at
    most ``_GATHER_ELEMENTS // 4**N`` restarts, which bounds its (slice,
    2^N, 2^N) arrays, and a restart leaves its slice at the iteration where
    it converges.  Gradient weights and density axis orders are fixed for
    the run, and the projector stacks an iteration's moves build are the
    next iteration's stacks.  A minimizing run negates its gradients and
    steps, exactly as multiplying by the orientation sign -1 does; the
    traces are collected once, after the loop.
    """
    sc = functional.scenario
    n = sc.parties
    maximize = functional.orientation == "max"
    pick = -1 if maximize else 0
    restarts = starts[0].shape[0]
    coeffs = _paired(sc, functional.float_table)
    weights = [_gradient_weights(coeffs, i) for i in range(n)]
    # density axes with party i's (p, q) pair last
    axes = [
        [k for k in range(1 + 2 * n) if k not in (1 + 2 * i, 2 + 2 * i)] + [1 + 2 * i, 2 + 2 * i]
        for i in range(n)
    ]
    final = [np.empty_like(b) for b in starts]
    converged = np.zeros(restarts, dtype=bool)
    history: list[tuple[np.ndarray, np.ndarray]] = []  # each iteration's live restarts and values
    size = max(1, _GATHER_ELEMENTS // 4**n)
    for lo in range(0, restarts, size):
        bloch = [b[lo : lo + size] for b in starts]
        stacks = [_qubit_stacks(b) for b in bloch]
        live = np.arange(lo, lo + bloch[0].shape[0])
        prev = np.full(live.size, -np.inf)
        for it in range(1, max_iters + 1):
            vals, vecs = np.linalg.eigh(_bell_operators(coeffs, stacks))
            rho = _density(vecs[:, :, pick], (2,) * n)
            steps = [vals[:, pick, None]]
            # no term pairs two settings of one party, so all of a party's
            # settings move at once and each move is still an exact optimum
            for i in range(n):
                others = stacks[:i] + stacks[i + 1 :]
                v = _bloch_gradients(rho.transpose(axes[i]), others, weights[i])
                norm = np.sqrt((v * v).sum(axis=-1, keepdims=True))  # np.linalg.norm's formula
                towards = v if maximize else -v
                new = np.divide(towards, norm, out=bloch[i].copy(), where=norm > 1e-14)
                # exact objective change of each coordinate step, before the orientation sign
                steps.append((new * v).sum(axis=-1) - (bloch[i] * v).sum(axis=-1))
                bloch[i] = new
                stacks[i] = _qubit_stacks(new)
            steps = np.concatenate(steps, axis=1)
            values = (steps if maximize else -steps).cumsum(axis=1)
            history.append((live, values))
            current = values[:, -1]
            done = current - prev < tol
            stop = done | (it == max_iters)
            if not stop.any():
                prev = current
                continue
            gone = live[stop]
            converged[gone] = done[stop]
            for i in range(n):
                final[i][gone] = bloch[i][stop]
            keep = ~stop
            live, prev = live[keep], current[keep]
            if not live.size:
                break
            bloch = [b[keep] for b in bloch]
            stacks = [s[keep] for s in stacks]
    # a restart is live from the first iteration to its last, so a stable sort
    # by restart puts each restart's rows together, in iteration order
    lives = np.concatenate([live for live, _ in history])
    rows = np.concatenate([values for _, values in history])
    iterations = np.bincount(lives, minlength=restarts)
    flat = rows[np.argsort(lives, kind="stable")].ravel().tolist()
    ends = np.cumsum(iterations * rows.shape[1]).tolist()
    traces = [flat[a:b] for a, b in zip([0, *ends], ends)]
    return final, iterations, converged, traces


def _finish(functional: BellFunctional, finals: Sequence[np.ndarray], restarts) -> tuple:
    """Flat stacks, Bell operator eigenvalues and extremal eigenvectors (states) of
    the given restarts, in one batch from the final party (R, M_i, 3) Bloch vectors."""
    sc = functional.scenario
    stacks = [_qubit_stacks(b[restarts]) for b in finals]
    vals, vecs = np.linalg.eigh(_bell_operators(_paired(sc, functional.float_table), stacks))
    return stacks, vals, vecs[:, :, -1 if functional.orientation == "max" else 0]


def optimize_violation(
    functional: BellFunctional,
    restarts: int = 20,
    seed: int = 0,
    tol: float = 1e-10,
    max_iters: int = 500,
) -> OptimizationResult:
    """Best-found extremal quantum value of a functional over qubit models.

    Alternates exact coordinate steps until the orientation-signed objective
    improves by less than ``tol`` or ``max_iters`` is reached: the state
    moves to the extremal eigenvector of the Bell operator (ties broken
    deterministically by eigendecomposition order) and each Bloch vector
    moves to its normalized gradient.  ``restarts`` seeded initial models,
    at most 65536, run as one batch; the best value wins, ties going to the
    lowest restart index.  Results are reproducible given ``seed``.
    """
    sc = functional.scenario
    sc._two_outcomes("the qubit see-saw optimizer")
    dim = 2**sc.parties
    if dim > MAX_QUBIT_DIMENSION:
        raise ValidationError(f"total dimension {dim} exceeds {MAX_QUBIT_DIMENSION}")
    restarts = _integer(restarts, "restarts", 1, _MAX_RESTARTS + 1)
    max_iters = _integer(max_iters, "max_iters", 1)
    seed, tol = _integer(seed, "seed", 0), _real(tol, "tol", positive=True)

    starts = _seeded_starts(sc, seed, restarts)
    final, iterations, converged, traces = _seesaw(functional, starts, tol, max_iters)
    best = int(np.argmax([tr[-1] for tr in traces]))
    stacks, _, states = _finish(functional, final, [best])
    measurements = [s.reshape(-1, 2, 2, 2) for s in stacks]
    model = QuantumModel(sc, states[0], measurements, bloch=[b[best] for b in final])
    behavior = behavior_from_model(model)
    value = evaluate(functional, behavior)
    result = OptimizationResult(
        value=value,
        model=model,
        behavior=behavior,
        iterations=int(iterations[best]),
        converged=bool(converged[best]),
        seed=seed,
        restart=best,
        traces=tuple(tuple(tr) for tr in traces),
    )
    object.__setattr__(result, "_finals", tuple(final))
    return result


def _uniqueness_evidence(functional: BellFunctional, result: OptimizationResult) -> dict:
    """Evidence for a unique maximizer, read off the restarts of one see-saw run.

    The restarts whose final orientation-signed value is within 1e-9 of the
    best are rebuilt by :func:`_finish`, as :func:`optimize_violation` rebuilds
    the best one, and traced as in :func:`behavior_from_model`, bit for bit.
    Reports their count, the largest spread of one Born-rule probability
    among them, and the gap between the two extremal eigenvalues of the best
    restart's Bell operator (zero when the optimal state is degenerate).
    Evidence, not a proof: every restart may miss another maximizer.  A
    restart stops when its value gains less than ``tol``, and near the
    optimum the value moves with the square of the distance to it, so the
    near-best behaviors are settled only to about sqrt(tol): read the table
    distance against sqrt(tol), not against a fixed threshold such as 1e-9
    (chained-global at the default tol 1e-10 gives 1.6-1.8e-6 at seeds 0-2).
    """
    sc = functional.scenario
    values = np.array([tr[-1] for tr in result.traces])
    near = np.flatnonzero(values[result.restart] - values <= 1e-9)
    stacks, vals, states = _finish(functional, result._finals, near)
    rho = _density(states, (2,) * sc.parties)
    tables = np.clip(_traced(rho, stacks).real, 0.0, 1.0)  # as Behavior clamps them
    best = vals[np.searchsorted(near, result.restart)]
    extremal = best[-2:] if functional.orientation == "max" else best[:2]
    return {
        "restarts": len(values),
        "restarts_at_best": int(near.size),
        "max_table_distance_at_best": float((tables.max(axis=0) - tables.min(axis=0)).max()),
        "extremal_eigenvalue_gap": float(extremal[1] - extremal[0]),
    }


# --- JSON serialization ------------------------------------------------------

def _complex_to_pairs(arr: np.ndarray) -> list:
    """Entries as a flat [re, im, re, im, ...] list of floats."""
    return np.asarray(arr, dtype=complex).ravel().view(float).tolist()


def _pairs_to_complex(pairs: Sequence[float], shape: tuple[int, ...]) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float).reshape(-1, 2)
    return (arr[:, 0] + 1j * arr[:, 1]).reshape(shape)


def model_to_dict(model: QuantumModel) -> dict:
    out: dict = {**_document_header(model.scenario), "state_re_im": _complex_to_pairs(model.state)}
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


def model_from_dict(data: Mapping) -> QuantumModel:
    with _reading("model"):
        scenario = _document_scenario(data)
        meas = data["measurements"]
        if meas["kind"] == "bloch":
            state = _pairs_to_complex(data["state_re_im"], (2**scenario.parties,))
            return qubit_model(scenario, state, meas["vectors"])
        if meas["kind"] != "projectors":
            raise ValidationError(f"malformed model: unknown kind {meas['kind']!r}")
        dims = tuple(meas["local_dims"])
        state = _pairs_to_complex(data["state_re_im"], (math.prod(dims),))
        blocks = [
            [_pairs_to_complex(pairs, (scenario.outcomes, dim, dim)) for pairs in per_party]
            for dim, per_party in zip(dims, meas["blocks"], strict=True)
        ]
        return QuantumModel(scenario, state, blocks)
