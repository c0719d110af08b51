"""Quantum models, Born-rule behaviors, Bell operators, and the see-saw."""

import json
import math

import numpy as np
import pytest

from bellcert import (
    Scenario,
    ScenarioMismatchError,
    ValidationError,
    behavior_from_model,
    bell_operator,
    chained_correlator,
    chained_modular,
    chsh,
    correlators_from_behavior,
    evaluate,
    is_no_signaling,
    lifted_chsh_c,
    local_bound,
    marginal,
    mermin,
    model_from_dict,
    model_to_dict,
    optimize_violation,
    phase_measurement_model,
    qubit_model,
    qubit_projectors,
    tilted_chsh,
)
from bellcert.quantum import QuantumModel

from conftest import canonical_chsh_model

ROOT2 = math.sqrt(2)


class TestModelValidation:
    def test_bad_norm(self):
        with pytest.raises(ValidationError, match="norm"):
            qubit_model(Scenario((1,), 2), [1.0, 1.0], [[[0.0, 0.0, 1.0]]])

    def test_bad_bloch_length(self):
        with pytest.raises(ValidationError, match="unit length"):
            qubit_projectors([0.0, 0.0, 0.5])

    def test_non_projective_measurement(self):
        sc = Scenario((1,), 2)
        stack = np.stack([np.eye(2) * 0.5, np.eye(2) * 0.5])
        with pytest.raises(ValidationError, match="idempotent"):
            QuantumModel(sc, np.array([1.0, 0.0]), ((stack,),))

    def test_non_orthogonal_projectors(self):
        sc = Scenario((1,), 2)
        p = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValidationError, match="identity|orthogonal"):
            QuantumModel(sc, np.array([1.0, 0.0]), ((np.stack([p, p]),),))

    def test_qubit_model_checks_its_bloch_vectors(self):
        # each fault is a ValidationError naming it, not a bare numpy error
        x, z = [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]
        state = [1.0, 0.0, 0.0, 0.0]
        with pytest.raises(ValidationError, match="two-outcome"):
            qubit_model(Scenario((2, 2), 3), state, [[x, z], [x, z]])
        with pytest.raises(ValidationError, match="unit length"):
            qubit_model(chsh().scenario, state, [[x, [0.0, 0.0, 0.5]], [x, z]])
        with pytest.raises(ValidationError, match="three components"):
            qubit_model(chsh().scenario, state, [[x, z[:2]], [x, z]])
        with pytest.raises(ValidationError, match="measurements"):
            qubit_model(chsh().scenario, state, [[x], [x, z]])

    def test_dimension_mismatch(self):
        sc = Scenario((1, 1), 2)
        stack = qubit_projectors([0.0, 0.0, 1.0])
        with pytest.raises(ValidationError, match="dimension"):
            QuantumModel(sc, np.array([1.0, 0.0]), ((stack,), (stack,)))


class TestBehaviorFromModel:
    def test_product_state_computational_basis_is_deterministic(self):
        sc = Scenario((1, 1), 2)
        z = [0.0, 0.0, 1.0]
        model = qubit_model(sc, [1, 0, 0, 0], [[z], [z]])
        b = behavior_from_model(model)
        assert b.prob((0, 0), (0, 0)) == pytest.approx(1.0, abs=1e-14)

    def test_maximally_entangled_has_flat_marginals(self):
        sc = Scenario((2, 1), 2)
        state = np.array([1, 0, 0, 1]) / ROOT2
        vecs = [[[1.0, 0.0, 0.0], [math.cos(1.0), math.sin(1.0), 0.0]], [[0.0, 1.0, 0.0]]]
        b = behavior_from_model(qubit_model(sc, state, vecs))
        form = correlators_from_behavior(b)
        for (parties, _), v in form.values.items():
            if len(parties) == 1:
                assert abs(v) < 1e-14

    def test_canonical_chsh_pattern(self):
        b = behavior_from_model(canonical_chsh_model())
        form = correlators_from_behavior(b)
        expected = {
            (0, 0): 1 / ROOT2,
            (0, 1): 1 / ROOT2,
            (1, 0): 1 / ROOT2,
            (1, 1): -1 / ROOT2,
        }
        for settings, target in expected.items():
            assert form.get((0, 1), settings) == pytest.approx(target, abs=1e-12)
        for (parties, _), v in form.values.items():
            if len(parties) == 1:
                assert abs(v) < 1e-14
        assert evaluate(chsh(), b) == pytest.approx(2 * ROOT2, abs=1e-12)

    def test_models_are_non_signaling(self):
        b = behavior_from_model(canonical_chsh_model())
        ok, worst = is_no_signaling(b)
        assert ok and worst < 1e-10


class TestBellOperator:
    def test_canonical_chsh_top_eigenvalue(self):
        model = canonical_chsh_model()
        op = bell_operator(chsh(), model.measurements)
        assert np.abs(op - op.conj().T).max() < 1e-12
        top = np.linalg.eigvalsh(op)[-1]
        assert top == pytest.approx(2 * ROOT2, abs=1e-12)

    def test_expectation_matches_evaluate(self):
        model = canonical_chsh_model()
        op = bell_operator(chsh(), model.measurements)
        val = np.real(model.state.conj() @ op @ model.state)
        assert val == pytest.approx(evaluate(chsh(), behavior_from_model(model)), abs=1e-12)

    def test_identity_coefficients_give_identity_multiple(self):
        from bellcert import BellFunctional
        from fractions import Fraction

        sc = Scenario((1, 1), 2)
        coeffs = {(0, a): Fraction(3) for a in range(4)}
        f = BellFunctional(sc, coeffs)
        model = canonical_chsh_model()
        stacks = (model.measurements[0][:1], model.measurements[1][:1])
        op = bell_operator(f, stacks)
        assert np.abs(op - 3 * np.eye(4)).max() < 1e-12

    def test_rejects_one_outcome_stack(self):
        model = canonical_chsh_model()
        stacks = (model.measurements[0], (model.measurements[1][0][:1], model.measurements[1][1]))
        with pytest.raises(ScenarioMismatchError, match="party 1, setting 0"):
            bell_operator(chsh(), stacks)

    def test_rejects_block_of_another_dimension(self):
        model = canonical_chsh_model()
        qutrit = np.stack([np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0])])
        stacks = (model.measurements[0], (model.measurements[1][0], qutrit))
        with pytest.raises(ScenarioMismatchError, match="party 1, setting 1"):
            bell_operator(chsh(), stacks)

    def test_rejects_bare_projector(self):
        model = canonical_chsh_model()
        stacks = ((model.measurements[0][0][0], model.measurements[0][1]), model.measurements[1])
        with pytest.raises(ScenarioMismatchError, match="party 0, setting 0"):
            bell_operator(chsh(), stacks)

    def test_mermin3_operator_at_optimizer_angles(self):
        res = optimize_violation(mermin(3), seed=2)
        op = bell_operator(mermin(3), res.model.measurements)
        assert np.linalg.eigvalsh(op)[-1] == pytest.approx(4.0, abs=1e-6)


class TestSeeSaw:
    def test_chsh_reaches_tsirelson(self):
        res = optimize_violation(chsh(), seed=1)
        assert res.value == pytest.approx(2 * ROOT2, abs=1e-6)
        assert res.converged

    def test_reproducible(self):
        a = optimize_violation(chsh(), seed=5)
        b = optimize_violation(chsh(), seed=5)
        assert a.value == b.value
        assert np.array_equal(a.behavior.table, b.behavior.table)

    def test_result_invariants(self):
        res = optimize_violation(tilted_chsh(0.5), seed=2)
        assert evaluate(tilted_chsh(0.5), res.behavior) == pytest.approx(res.value, abs=1e-9)
        again = behavior_from_model(res.model)
        assert np.abs(again.table - res.behavior.table).max() < 1e-12

    def test_monotone_traces(self):
        res = optimize_violation(mermin(3), seed=3)
        for tr in res.traces:
            assert np.diff(np.array(tr)).min() > -1e-10

    def test_beats_local_bound(self):
        for f in (chsh(), tilted_chsh(0.5), chained_correlator(3), mermin(3)):
            res = optimize_violation(f, seed=4)
            assert res.value >= float(local_bound(f).bound) - 1e-9
            assert res.value > float(local_bound(f).bound) + 0.1

    def test_minimize_orientation(self):
        f = chained_modular(3, 2)
        res = optimize_violation(f, seed=5)
        expected = 3 - 3 * math.cos(math.pi / 6)
        assert res.value == pytest.approx(expected, abs=1e-6)
        assert res.value < float(local_bound(f).bound)

    def test_rejects_qudit_scenarios(self):
        with pytest.raises(ValidationError, match="two-outcome"):
            optimize_violation(chained_modular(2, 3))

    @pytest.mark.parametrize("option", ["restarts", "max_iters"])
    def test_rejects_nonpositive_counts(self, option):
        with pytest.raises(ValidationError, match=option):
            optimize_violation(chsh(), **{option: 0})

    def test_rejects_oversized_scenarios(self):
        with pytest.raises(ValidationError, match="dimension"):
            optimize_violation(mermin(9))

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0])
    def test_rejects_nonpositive_tol(self, tol):
        with pytest.raises(ValidationError, match="tol must be positive"):
            optimize_violation(chsh(), tol=tol)

    @pytest.mark.parametrize(
        "n, expected", [(5, 8.0), (6, 8 * ROOT2)], ids=["mermin5", "mermin6"]
    )
    def test_many_party_mermin_optima(self, n, expected):
        res = optimize_violation(mermin(n), seed=1)
        assert res.value == pytest.approx(expected, abs=1e-6)
        for tr in res.traces:
            assert np.diff(np.array(tr)).min() > -1e-10


class TestOptimaStructure:
    def test_chsh_one_body_vanishes(self):
        res = optimize_violation(chsh(), seed=1)
        form = correlators_from_behavior(res.behavior)
        for (parties, _), v in form.values.items():
            if len(parties) == 1:
                assert abs(v) < 1e-5

    def test_tilted_only_second_setting_unbiased(self):
        res = optimize_violation(tilted_chsh(0.5), seed=1)
        form = correlators_from_behavior(res.behavior)
        assert abs(form.get((0,), (1,))) < 1e-5
        assert abs(form.get((0,), (0,))) > 0.1

    def test_mermin3_absent_correlators_vanish(self):
        res = optimize_violation(mermin(3), seed=1)
        assert res.value == pytest.approx(4.0, abs=1e-6)
        form = correlators_from_behavior(res.behavior)
        for (parties, settings), v in form.values.items():
            in_inequality = len(parties) == 3 and sum(settings) % 2 == 1
            if not in_inequality:
                assert abs(v) < 1e-4, (parties, settings, v)

    def test_chained_off_inequality_pair_is_uniform(self):
        res = optimize_violation(chained_correlator(3), seed=1)
        form = correlators_from_behavior(res.behavior)
        assert abs(form.get((0, 1), (0, 1))) < 1e-4
        row = res.behavior.row((0, 1))
        assert np.abs(row - 0.25).max() < 1e-4

    def test_lifted_reaches_chsh_violation_margin(self):
        res = optimize_violation(lifted_chsh_c(), seed=1)
        assert res.value == pytest.approx(2 * ROOT2 - 2, abs=1e-6)


class TestPhaseMeasurementModel:
    def test_uniform_marginals_and_ns(self):
        model = phase_measurement_model(2, 3, [0.0, 0.3812], [0.1906, 0.5718])
        b = behavior_from_model(model)
        ok, worst = is_no_signaling(b, tol=1e-10)
        assert ok, worst
        for party in range(2):
            for setting in range(2):
                vec = marginal(b, (party,), (setting,))
                assert np.abs(vec - 1 / 3).max() < 1e-12

    def test_chained_23_regression_value(self):
        model = phase_measurement_model(2, 3, [0.0, 0.3812], [0.1906, 0.5718])
        value = evaluate(chained_modular(2, 3), behavior_from_model(model))
        assert value == pytest.approx(1.6501946580441715, abs=1e-9)
        assert value < 2.0  # beats every local strategy

    def test_depends_only_on_outcome_difference(self):
        model = phase_measurement_model(2, 3, [0.0, 0.25], [0.1, 0.6])
        b = behavior_from_model(model)
        for x_idx in range(4):
            row = b.row(b.scenario.input_tuple(x_idx))
            for a in range(3):
                for bb in range(3):
                    same = row[b.scenario.outcome_index(((a + 1) % 3, (bb + 1) % 3))]
                    assert row[b.scenario.outcome_index((a, bb))] == pytest.approx(same, abs=1e-12)


class TestModelJson:
    def test_bloch_round_trip(self):
        model = canonical_chsh_model()
        data = json.loads(json.dumps(model_to_dict(model)))
        back = model_from_dict(data)
        assert np.abs(back.state - model.state).max() < 1e-15
        b1 = behavior_from_model(model)
        b2 = behavior_from_model(back)
        assert np.abs(b1.table - b2.table).max() < 1e-15

    def test_projector_round_trip(self):
        model = phase_measurement_model(2, 3, [0.0, 0.5], [0.25, 0.75])
        data = json.loads(json.dumps(model_to_dict(model)))
        back = model_from_dict(data)
        assert np.abs(
            behavior_from_model(back).table - behavior_from_model(model).table
        ).max() < 1e-14
