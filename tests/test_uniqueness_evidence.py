"""The uniqueness evidence and the optimum of one see-saw run, against a loop
that rebuilds each near-best restart's model and behavior on its own, from
public functions only."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellcert import (
    BellFunctional,
    Scenario,
    behavior_from_model,
    bell_operator,
    chained_correlator,
    chsh,
    lifted_chsh_c,
    mermin,
    optimize_violation,
    qubit_model,
    qubit_projectors,
    tilted_chsh,
)
from bellcert.quantum import _seeded_starts, _seesaw, _uniqueness_evidence
from test_quantum_oracles import integer_functional, two_outcome_functionals


def rebuild(functional, bloch):
    """One restart's Bell operator eigenvalues, model and behavior from its
    party (M_i, 3) Bloch vectors: the state is the extremal eigenvector."""
    measurements = [[qubit_projectors(v) for v in per_party] for per_party in bloch]
    vals, vecs = np.linalg.eigh(bell_operator(functional, measurements))
    state = vecs[:, -1 if functional.orientation == "max" else 0]
    model = qubit_model(functional.scenario, state, bloch)
    return vals, model, behavior_from_model(model)


def oracle(functional, seed, restarts, tol, max_iters):
    """Count, largest table distance and extremal eigenvalue gap, one restart
    at a time, from final Bloch vectors that a second see-saw run returns;
    and the best restart's model and behavior."""
    sc = functional.scenario
    starts = _seeded_starts(sc, seed, restarts)
    final, _, _, traces = _seesaw(functional, starts, tol, max_iters)
    values = [tr[-1] for tr in traces]
    best = int(np.argmax(values))
    near = [r for r, v in enumerate(values) if values[best] - v <= 1e-9]
    rebuilt = {r: rebuild(functional, [b[r] for b in final]) for r in near}
    tables = np.array([behavior.table for _, _, behavior in rebuilt.values()])
    distance = max(
        float(tables[:, x, a].max() - tables[:, x, a].min())
        for x in range(sc.num_inputs)
        for a in range(sc.num_outcomes)
    )
    vals, model, behavior = rebuilt[best]
    gap = vals[-1] - vals[-2] if functional.orientation == "max" else vals[1] - vals[0]
    evidence = {
        "restarts": restarts,
        "restarts_at_best": len(near),
        "max_table_distance_at_best": distance,
        "extremal_eigenvalue_gap": float(gap),
    }
    return evidence, model, behavior


def assert_matches_oracle(functional, seed, restarts=20, tol=1e-10, max_iters=500):
    """Returns the run and the oracle's best model and behavior."""
    result = optimize_violation(
        functional, restarts=restarts, seed=seed, tol=tol, max_iters=max_iters
    )
    want, model, behavior = oracle(functional, seed, restarts, tol, max_iters)
    assert _uniqueness_evidence(functional, result) == want
    return result, model, behavior


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize(
    "functional",
    [chsh(), tilted_chsh(0.5), chained_correlator(3), lifted_chsh_c(), mermin(3)],
    ids=lambda f: f.name,
)
def test_evidence_equals_a_restart_by_restart_rebuild(functional, seed):
    assert_matches_oracle(functional, seed)


@pytest.mark.parametrize(
    "functional", [tilted_chsh(0.5), chained_correlator(3)], ids=lambda f: f.name
)
def test_restarts_stopped_short_of_the_best_are_left_out(functional):
    """At tol 1e-6 some restarts stop between 1e-9 and 1e-6 below the best."""
    assert_matches_oracle(functional, seed=0, tol=1e-6)
    result = optimize_violation(functional, tol=1e-6)
    assert 1 < _uniqueness_evidence(functional, result)["restarts_at_best"] < 20


@settings(max_examples=30, deadline=None)
@given(two_outcome_functionals(), st.integers(0, 2**16))
def test_evidence_equals_the_rebuild_on_random_functionals_in_both_orientations(
    functional, seed
):
    for orientation in ("max", "min"):
        mirrored = BellFunctional(functional.scenario, functional.coefficients, orientation)
        result, model, behavior = assert_matches_oracle(mirrored, seed, restarts=4, max_iters=30)
        assert result.model.state.tobytes() == model.state.tobytes()
        assert result.behavior.table.tobytes() == behavior.table.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_planted_degenerate_optimum_shows_in_the_evidence(seed):
    """Party 1's outcome never changes a coefficient, so every state of party 1
    is optimal: restarts end at different behaviors, and the optimal
    eigenvalue is degenerate."""
    blind = integer_functional(Scenario((2, 2), 2), [1, 1, 0, 0, 0, 0, 1, 1] * 2, "min")
    evidence = _uniqueness_evidence(blind, optimize_violation(blind, seed=seed))
    assert evidence["max_table_distance_at_best"] > 0.5
    assert evidence["extremal_eigenvalue_gap"] < 1e-9


@pytest.mark.parametrize("functional", [chsh(), lifted_chsh_c()], ids=lambda f: f.name)
def test_a_unique_optimum_shows_in_the_evidence(functional):
    evidence = _uniqueness_evidence(functional, optimize_violation(functional))
    assert evidence["restarts_at_best"] == evidence["restarts"] == 20
    assert evidence["max_table_distance_at_best"] <= 1e-9
    assert evidence["extremal_eigenvalue_gap"] > 0.5


def test_the_run_keeps_each_restarts_final_bloch_vectors():
    """The kept vectors are the see-saw's own, bit for bit, and the best
    restart's are the model's."""
    functional = chained_correlator(3)
    result = optimize_violation(functional, seed=5)
    final, _, _, _ = _seesaw(functional, _seeded_starts(functional.scenario, 5, 20), 1e-10, 500)
    for kept, want, bloch in zip(result._finals, final, result.model.bloch, strict=True):
        assert np.array_equal(kept, want)
        assert np.array_equal(kept[result.restart], bloch)
