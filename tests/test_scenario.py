"""Scenario, behavior, and correlator-parametrization tests."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellcert import (
    Behavior,
    Scenario,
    SignalingWarning,
    ValidationError,
    behavior_from_correlators,
    behavior_from_dict,
    behavior_from_table,
    behavior_to_dict,
    chained_modular,
    correlators_from_behavior,
    deterministic_behavior,
    functional_to_dict,
    is_no_signaling,
    marginal,
    uniform_behavior,
)
from bellcert.quantum import behavior_from_model, model_to_dict, phase_measurement_model
from bellcert.scenario import CorrelatorForm, _document_header, _document_scenario

from conftest import random_ns_behavior, random_small_scenario


class TestScenario:
    def test_validation(self):
        with pytest.raises(ValidationError):
            Scenario((), 2)
        with pytest.raises(ValidationError):
            Scenario((2, 0), 2)
        with pytest.raises(ValidationError):
            Scenario((2, 2), 1)

    def test_size_bound_holds_for_every_scenario(self):
        # refused when built, so no table constructor ever sees it
        with pytest.raises(ValidationError, match=f"^scenario has {2**80} joint events, above"):
            Scenario((2,) * 40, 2)
        with pytest.raises(ValidationError, match=r"^scenario has about 2\^2000 joint events"):
            Scenario([2] * 1000, 2)
        with pytest.raises(ValidationError, match="^scenario has 100000000 joint events"):
            phase_measurement_model(100, 100, [0.0] * 100, [0.0] * 100)

    def test_single_setting_party_supported(self):
        sc = Scenario((2, 2, 1), 2)
        assert sc.parties == 3
        assert sc.num_inputs == 4

    def test_mixed_radix_ordering(self):
        sc = Scenario((2, 3), 2)
        # party 0 most significant
        assert sc.input_index((0, 0)) == 0
        assert sc.input_index((0, 2)) == 2
        assert sc.input_index((1, 0)) == 3
        for idx in range(sc.num_inputs):
            assert sc.input_index(sc.input_tuple(idx)) == idx
        for idx in range(sc.num_outcomes):
            assert sc.outcome_index(sc.outcome_tuple(idx)) == idx

    def test_index_range_errors(self):
        sc = Scenario((2, 2), 2)
        with pytest.raises(ValidationError):
            sc.input_index((2, 0))
        with pytest.raises(ValidationError):
            sc.outcome_index((0,))


class TestBehaviorConstruction:
    def test_uniform_is_valid(self):
        b = uniform_behavior(Scenario((2, 2), 2))
        assert np.allclose(b.table, 0.25)

    def test_deterministic_is_valid(self):
        b = deterministic_behavior(Scenario((2, 2), 2), ((0, 1), (1, 0)))
        assert b.prob((0, 1), (0, 0)) == 1.0
        assert b.table.sum() == b.scenario.num_inputs

    def test_normalization_violation(self):
        sc = Scenario((2, 2), 2)
        table = np.full((4, 4), 0.225)  # rows sum to 0.9
        with pytest.raises(ValidationError, match="sum"):
            behavior_from_table(sc, table)

    def test_negative_entry(self):
        sc = Scenario((1,), 2)
        with pytest.raises(ValidationError, match="negative"):
            behavior_from_table(sc, [[1.2, -0.2]])

    def test_tiny_negative_is_clamped(self):
        sc = Scenario((1,), 2)
        b = behavior_from_table(sc, [[1.0 + 5e-10, -5e-10]])
        assert b.table.min() == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="entries"):
            behavior_from_table(Scenario((2, 2), 2), np.zeros((4, 3)))

    @pytest.mark.parametrize(
        "table, message",
        [
            ([[0.5, 0.5, 0.0]], r"^table shape \(1, 3\) does not match scenario shape \(1, 2\)$"),
            ([[np.inf, 0.0]], "^table contains non-finite entries$"),
            ([[1.5, 0.0]], "^probability 1.5 exceeds 1$"),
        ],
        ids=["shape", "non-finite", "above-one"],
    )
    def test_bad_table_is_refused(self, table, message):
        with pytest.raises(ValidationError, match=message):
            Behavior(Scenario((1,), 2), table)

    def test_table_immutable(self):
        b = uniform_behavior(Scenario((2,), 2))
        with pytest.raises(ValueError):
            b.table[0, 0] = 1.0


class TestCorrelators:
    def test_uniform_gives_zero_correlators(self):
        form = correlators_from_behavior(uniform_behavior(Scenario((2, 2), 2)))
        assert all(v == pytest.approx(0.0, abs=1e-15) for v in form.values.values())

    def test_single_party_deterministic(self):
        b = behavior_from_table(Scenario((1,), 2), [[1.0, 0.0]])
        form = correlators_from_behavior(b)
        assert form.get((0,), (0,)) == 1.0

    def test_zero_correlators_give_uniform(self):
        sc = Scenario((2, 2), 2)
        keys = dict.fromkeys(sc.subset_setting_keys(), 0.0)
        b = behavior_from_correlators(CorrelatorForm(sc, keys))
        assert np.allclose(b.table, 0.25)

    def test_perfect_correlation(self):
        sc = Scenario((1, 1), 2)
        keys = dict.fromkeys(sc.subset_setting_keys(), 0.0)
        keys[((0, 1), (0, 0))] = 1.0
        b = behavior_from_correlators(CorrelatorForm(sc, keys))
        assert b.prob((0, 0), (0, 0)) == pytest.approx(0.5)
        assert b.prob((0, 0), (1, 1)) == pytest.approx(0.5)
        assert b.prob((0, 0), (0, 1)) == pytest.approx(0.0)

    @pytest.mark.parametrize(
        "values, message",
        [
            ({}, r"\(1 missing, 0 unexpected\)$"),
            ({((0,), (0,)): 0.5, ((), ()): 1.0}, r"\(0 missing, 1 unexpected\)$"),
        ],
        ids=["missing", "extra"],
    )
    def test_keys_must_match_the_scenario(self, values, message):
        with pytest.raises(ValidationError, match=message):
            CorrelatorForm(Scenario((1,), 2), values)

    def test_out_of_range_correlator_rejected(self):
        sc = Scenario((1,), 2)
        with pytest.raises(ValidationError, match="outside"):
            CorrelatorForm(sc, {((0,), (0,)): 1.5})

    def test_infeasible_correlators_name_the_event(self):
        sc = Scenario((1, 1), 2)
        keys = dict.fromkeys(sc.subset_setting_keys(), 0.0)
        keys[((0,), (0,))] = 1.0
        keys[((1,), (0,))] = 1.0
        keys[((0, 1), (0, 0))] = -1.0
        with pytest.raises(ValidationError, match="negative probability"):
            behavior_from_correlators(CorrelatorForm(sc, keys))

    def test_requires_two_outcomes(self):
        with pytest.raises(ValidationError):
            correlators_from_behavior(uniform_behavior(Scenario((2, 2), 3)))

    def test_round_trip_seeded(self, rng):
        for _ in range(50):
            sc = random_small_scenario(rng, two_outcome=True)
            b = random_ns_behavior(sc, rng)
            back = behavior_from_correlators(correlators_from_behavior(b))
            assert np.abs(back.table - b.table).max() < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        parties=st.integers(1, 3),
    )
    def test_round_trip_both_directions(self, seed, parties):
        rng = np.random.default_rng(seed)
        sc = Scenario(tuple(int(rng.integers(1, 4)) for _ in range(parties)), 2)
        b = random_ns_behavior(sc, rng)
        form = correlators_from_behavior(b)
        back = behavior_from_correlators(form)
        assert np.abs(back.table - b.table).max() < 1e-12
        form_again = correlators_from_behavior(back)
        for key, v in form.values.items():
            assert abs(form_again.values[key] - v) < 1e-12


class TestNoSignaling:
    def test_uniform_is_ns(self):
        ok, worst = is_no_signaling(uniform_behavior(Scenario((2, 2), 2)))
        assert ok and worst < 1e-15

    def test_constructed_signaling_counterexample(self):
        # Alice outputs +1 with probability 0.7 when Bob presses 0, 0.5 when 1
        sc = Scenario((1, 2), 2)
        table = np.array(
            [
                [0.35, 0.35, 0.15, 0.15],
                [0.25, 0.25, 0.25, 0.25],
            ]
        )
        b = behavior_from_table(sc, table)
        ok, worst = is_no_signaling(b)
        assert not ok
        assert worst == pytest.approx(0.2, abs=1e-12)

    def test_mixture_of_deterministic_is_ns(self, rng):
        for _ in range(20):
            sc = random_small_scenario(rng)
            ok, worst = is_no_signaling(random_ns_behavior(sc, rng))
            assert ok, worst


class TestMarginal:
    def test_uniform_marginal(self):
        b = uniform_behavior(Scenario((2, 2), 2))
        assert np.allclose(marginal(b, (0,), (1,)), [0.5, 0.5])

    def test_deterministic_marginal_is_indicator(self):
        b = deterministic_behavior(Scenario((2, 2), 2), ((1, 0), (0, 1)))
        assert np.allclose(marginal(b, (0,), (0,)), [0.0, 1.0])

    def test_marginal_consistency(self, rng):
        for _ in range(30):
            sc = random_small_scenario(rng)
            if sc.parties < 2:
                continue
            b = random_ns_behavior(sc, rng)
            x = tuple(int(rng.integers(0, m)) for m in sc.settings)
            d = sc.outcomes
            full = b.row(x).reshape((d,) * sc.parties)
            got = marginal(b, (0,), (x[0],))
            direct = full.sum(axis=tuple(range(1, sc.parties)))
            assert np.abs(got - direct).max() < 1e-12

    def test_signaling_marginal_warns(self):
        sc = Scenario((1, 2), 2)
        table = np.array(
            [
                [0.35, 0.35, 0.15, 0.15],
                [0.25, 0.25, 0.25, 0.25],
            ]
        )
        b = behavior_from_table(sc, table)
        with pytest.warns(SignalingWarning):
            vec = marginal(b, (0,), (0,))
        assert vec.sum() == pytest.approx(1.0)

    def test_errors(self):
        b = uniform_behavior(Scenario((2, 2), 2))
        with pytest.raises(ValidationError):
            marginal(b, (), ())
        with pytest.raises(ValidationError):
            marginal(b, (2,), (0,))
        with pytest.raises(ValidationError):
            marginal(b, (0,), (5,))
        with pytest.raises(ValidationError, match=r"^party subset \(1, 0\) must be strictly"):
            marginal(b, (1, 0), (0, 0))


class TestBehaviorJson:
    def test_round_trip(self, rng):
        sc = Scenario((2, 3), 2)
        b = random_ns_behavior(sc, rng)
        data = json.loads(json.dumps(behavior_to_dict(b)))
        back = behavior_from_dict(data)
        assert back.scenario == sc
        assert np.abs(back.table - b.table).max() == 0.0

    def test_schema_fields(self):
        data = behavior_to_dict(uniform_behavior(Scenario((2, 1), 3)))
        assert data["parties"] == 2
        assert data["settings"] == [2, 1]
        assert data["outcomes"] == 3
        assert set(data["table"]) == {"x=0,0", "x=1,0"}


def test_correlator_of_the_empty_subset_is_the_implicit_constant():
    form = correlators_from_behavior(uniform_behavior(Scenario((2, 2), 2)))
    assert form.get((), ()) == 1.0
    assert form.get([np.int64(1)], (1,)) == form.get((1,), (1,))


def test_every_document_writes_the_scenario_header_its_reader_reads():
    model = phase_measurement_model(2, 3, [0.0, 0.3812], [0.1906, 0.5718])
    header = _document_header(model.scenario)
    assert header == {"parties": 2, "settings": [2, 2], "outcomes": 3}
    documents = (
        functional_to_dict(chained_modular(2, 3)),
        behavior_to_dict(behavior_from_model(model)),
        model_to_dict(model),
    )
    for document in documents:
        assert [(k, v) for k, v in document.items() if k in header] == list(header.items())
        assert _document_scenario(document) == model.scenario
