"""The contracted Bell operator, Born rule and batched see-saw against the
serial loops they replace (``seesaw_oracle``)."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seesaw_oracle as oracle
from bellcert import (
    BellFunctional,
    Scenario,
    behavior_from_model,
    bell_operator,
    chained_correlator,
    chained_modular,
    chsh,
    lifted_chsh_c,
    mermin,
    optimize_violation,
    phase_measurement_model,
    tilted_chsh,
)
from bellcert.quantum import QuantumModel, _seeded_starts, _seesaw

TWO_OUTCOME = [
    Scenario((2, 2), 2),
    Scenario((3, 3), 2),
    Scenario((2, 2, 1), 2),
    Scenario((2, 2, 2), 2),
]


def integer_functional(scenario, values, orientation="max"):
    coeffs = {
        divmod(k, scenario.num_outcomes): Fraction(v) for k, v in enumerate(values) if v
    }
    return BellFunctional(scenario, coeffs, orientation=orientation)


@st.composite
def two_outcome_functionals(draw):
    scenario = draw(st.sampled_from(TWO_OUTCOME))
    size = scenario.num_inputs * scenario.num_outcomes
    values = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
    return integer_functional(scenario, values, draw(st.sampled_from(["max", "min"])))


def random_projectors(rng, dim, outcomes):
    """A random projective measurement: ``outcomes`` orthogonal projectors of
    ranks as equal as possible, summing to the identity on C^dim."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    basis, _ = np.linalg.qr(z)
    groups = np.array_split(np.arange(dim), outcomes)
    return np.stack([basis[:, g] @ basis[:, g].conj().T for g in groups])


def random_model(rng, scenario, dims):
    state = rng.normal(size=int(np.prod(dims))) + 1j * rng.normal(size=int(np.prod(dims)))
    measurements = tuple(
        tuple(random_projectors(rng, dim, scenario.outcomes) for _ in range(m))
        for m, dim in zip(scenario.settings, dims)
    )
    return QuantumModel(scenario, state / np.linalg.norm(state), measurements)


# (scenario, local dimensions); a qutrit party with two outcomes has one rank-1
# and one rank-2 projector
MODEL_SHAPES = [
    (Scenario((2, 2), 2), (2, 2)),
    (Scenario((2, 3), 2), (2, 2)),
    (Scenario((2, 2, 2), 2), (2, 2, 2)),
    (Scenario((2, 2), 3), (3, 3)),
    (Scenario((2, 2), 2), (3, 2)),
    (Scenario((1, 2, 2), 2), (2, 3, 2)),
    (Scenario((2, 1), 3), (3, 4)),
]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(MODEL_SHAPES), st.integers(0, 2**16))
def test_contractions_match_loops_on_random_models(shape, seed):
    scenario, dims = shape
    rng = np.random.default_rng(seed)
    model = random_model(rng, scenario, dims)
    values = rng.integers(-3, 4, size=scenario.num_inputs * scenario.num_outcomes)
    functional = integer_functional(scenario, values)
    op = bell_operator(functional, model.measurements)
    assert np.abs(op - oracle.bell_operator(functional, model.measurements)).max() < 1e-12
    table = behavior_from_model(model).table
    assert np.abs(table - oracle.behavior_table(model)).max() < 1e-14


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(0, 1), min_size=4, max_size=4), st.integers(0, 2**16))
def test_contractions_match_loops_on_phase_models(phases, seed):
    model = phase_measurement_model(2, 3, phases[:2], phases[2:])
    values = np.random.default_rng(seed).integers(-3, 4, size=4 * 9)
    functional = integer_functional(model.scenario, values)
    op = bell_operator(functional, model.measurements)
    assert np.abs(op - oracle.bell_operator(functional, model.measurements)).max() < 1e-12
    table = behavior_from_model(model).table
    assert np.abs(table - oracle.behavior_table(model)).max() < 1e-14
    chained = chained_modular(2, 3)
    op = bell_operator(chained, model.measurements)
    assert np.abs(op - oracle.bell_operator(chained, model.measurements)).max() < 1e-12


def restart_start(starts, r):
    return [list(b[r]) for b in starts]


def close(got, want):
    """Entries equal within 1e-12 * max(1, |entry|)."""
    got, want = np.asarray(got), np.asarray(want)
    return bool(np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))))


def assert_steps_match(functional, start, tol, iterations):
    """Chain the batched see-saw one iteration at a time from ``start`` and
    check every step against one serial step from the same Bloch vectors.

    A step is compared up to the first half-step that rounding decides: an
    extremal eigenvalue within 1e-3 of the next one leaves the state set by
    rounding, and a gradient of norm below 1e-3 leaves its direction so.
    Rounding of about 1e-15 then moves the state or the party's Bloch
    vectors by more than the 1e-12 tolerance.  The half-step itself is still
    compared (its value does not depend on that choice), up to the end of
    its party's block."""
    ends = np.cumsum([1, *functional.scenario.settings])
    bloch = [np.array([per_party]) for per_party in start]
    for _ in range(iterations):
        conditioning: list[float] = []
        *_, serial = oracle.run_restart(
            functional, restart_start(bloch, 0), tol, 1, record=conditioning
        )
        bloch, _, _, (batched,) = _seesaw(functional, bloch, tol, 1)
        ill = np.flatnonzero(np.array(conditioning) < 1e-3)
        count = int(ends[ends > ill[0]][0]) if ill.size else len(serial)
        assert close(batched[:count], serial[:count])


def assert_matches_serial(functional, seed, restarts, tol, max_iters):
    """Per restart: the batched run and the serial oracle give equal trace
    lengths, iteration counts and convergence flags, and equal entries
    within 1e-12 relative.  Two exceptions are asserted explicitly:

    - a length mismatch, when the improvement of the last iteration both
      ran lies within 1e-12 of ``tol``, so rounding decides the stopping
      test;
    - traces that part by more than 1e-12, when every batched step still
      equals the serial step from the same Bloch vectors
      (``assert_steps_match``): a degenerate extremal eigenvalue, a
      vanishing gradient or a saddle escape amplified rounding.

    Returns the oracle's final values."""
    sc = functional.scenario
    starts = _seeded_starts(sc, seed, restarts)
    _, iterations, converged, traces = _seesaw(functional, starts, tol, max_iters)
    step = 1 + sum(sc.settings)
    finals = []
    for r in range(restarts):
        start = restart_start(starts, r)
        for got, want in zip(start, oracle.seeded_start(sc, seed, r)):
            assert np.array_equal(got, want)
        _, _, o_iterations, o_converged, o_trace = oracle.run_restart(
            functional, start, tol, max_iters
        )
        finals.append(o_trace[-1])
        common = min(len(o_trace), len(traces[r]))
        if not close(traces[r][:common], o_trace[:common]):
            assert_steps_match(functional, start, tol, int(iterations[r]))
        elif len(traces[r]) == len(o_trace):
            assert (iterations[r], converged[r]) == (o_iterations, o_converged), r
        else:
            last = common // step
            assert last >= 2 and common == last * step
            improvement = o_trace[last * step - 1] - o_trace[(last - 1) * step - 1]
            assert abs(improvement - tol) <= 1e-12, (r, improvement)
    return finals


@settings(max_examples=30, deadline=None)
@given(two_outcome_functionals(), st.integers(0, 2**16))
def test_batched_restarts_match_serial_oracle(functional, seed):
    assert_matches_serial(functional, seed, restarts=3, tol=1e-10, max_iters=30)


@pytest.mark.parametrize(
    "functional",
    [
        chsh(),
        tilted_chsh(0.5),
        chained_correlator(3),
        lifted_chsh_c(),
        mermin(3),
        chained_modular(3, 2),
    ],
    ids=lambda f: f.name,
)
def test_named_functionals_match_serial_oracle(functional):
    """Also: the best restart may differ from the serial argmax only among
    restarts whose final values agree within 1e-12."""
    finals = assert_matches_serial(functional, seed=4, restarts=20, tol=1e-10, max_iters=500)
    res = optimize_violation(functional, seed=4)
    assert finals[res.restart] >= max(finals) - 1e-12
    assert len(res.trace) == res.iterations * (1 + sum(functional.scenario.settings))
