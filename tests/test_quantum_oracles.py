"""The contracted Bell operator, Born rule and batched see-saw against the
serial loops they replace, and the see-saw's fast path against the first
batched loop (``seesaw_oracle``)."""

from fractions import Fraction
from unittest import mock

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
import bellcert.quantum
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


# --- the fast path against the first batched loop, bit for bit -----------------


def assert_equals_first_batched_loop(functional, seed, restarts, tol, max_iters):
    """Start draws, traces, iteration counts, convergence flags and final Bloch
    vectors equal the first batched loop's, with the batch as one slice and
    in slices of one restart."""
    sc = functional.scenario
    starts = _seeded_starts(sc, seed, restarts)
    for got, want in zip(starts, oracle._seeded_starts(sc, seed, restarts), strict=True):
        assert np.array_equal(got, want)
    want_final, want_iterations, want_converged, want_traces = oracle._seesaw(
        functional, starts, tol, max_iters
    )
    for bound in (bellcert.quantum._GATHER_ELEMENTS, 1):
        with mock.patch.object(bellcert.quantum, "_GATHER_ELEMENTS", bound):
            final, iterations, converged, traces = _seesaw(functional, starts, tol, max_iters)
        assert traces == want_traces
        assert iterations.tolist() == want_iterations.tolist()
        assert converged.tolist() == want_converged.tolist()
        for got, want in zip(final, want_final, strict=True):
            assert np.array_equal(got, want)


@settings(max_examples=40, deadline=None)
@given(two_outcome_functionals(), st.integers(0, 2**16))
def test_fast_seesaw_equals_the_first_batched_loop(functional, seed):
    assert_equals_first_batched_loop(functional, seed, restarts=4, tol=1e-10, max_iters=30)


@pytest.mark.parametrize(
    "functional",
    [
        chsh(),
        chained_correlator(3),
        lifted_chsh_c(),
        mermin(3),
        # party 1's outcome never changes a coefficient: its gradient is exactly zero
        integer_functional(Scenario((2, 2), 2), [1, 1, 0, 0, 0, 0, 1, 1] * 2, "min"),
    ],
    ids=["chsh", "chained3", "lifted", "mermin3", "blind-party"],
)
def test_fast_seesaw_equals_the_first_batched_loop_on_named_functionals(functional):
    assert_equals_first_batched_loop(functional, seed=2, restarts=20, tol=1e-10, max_iters=500)


def zero_triple_rng(at):
    """A stand-in for ``np.random.default_rng`` whose normal stream is the real
    generator's with one (0, 0, 0) triple put in before triple ``at``."""
    real = np.random.default_rng

    class Generator:
        def __init__(self, seed):
            self.stream = np.insert(real(seed).normal(size=300), 3 * at, [0.0, 0.0, 0.0])

        def normal(self, size):
            count = int(np.prod(size))
            drawn, self.stream = self.stream[:count], self.stream[count:]
            return drawn.reshape(size)

    return Generator


@pytest.mark.parametrize("at", [0, 1, 3, 5])
@pytest.mark.parametrize("scenario", [Scenario((2, 2), 2), Scenario((3, 2, 1), 2)])
def test_start_draws_reject_a_zero_triple_as_one_draw_per_vector_does(monkeypatch, scenario, at):
    monkeypatch.setattr(np.random, "default_rng", zero_triple_rng(at))
    got = _seeded_starts(scenario, 7, 3)
    want = oracle._seeded_starts(scenario, 7, 3)
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(g, w)
        assert np.all(np.abs(np.linalg.norm(g, axis=-1) - 1) < 1e-12)


@pytest.mark.parametrize("bound", [16, 48])
def test_slices_of_the_batch_leave_the_result_unchanged(monkeypatch, bound):
    """A smaller batch bound runs CHSH's 20 restarts in slices of 1, or of 3
    with a shorter last slice; the optimum does not move by a bit."""
    want = optimize_violation(chsh(), seed=3)
    monkeypatch.setattr(bellcert.quantum, "_GATHER_ELEMENTS", bound)
    got = optimize_violation(chsh(), seed=3)
    assert (got.value, got.traces, got.restart, got.iterations) == (
        want.value, want.traces, want.restart, want.iterations
    )
    assert np.array_equal(got.model.state, want.model.state)
    for g, w in zip(got.model.bloch, want.model.bloch, strict=True):
        assert np.array_equal(g, w)
