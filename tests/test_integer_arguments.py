"""One rule for every count and index the public API takes: anything with
``__index__`` except bool is an integer, so numpy integers pass, while
floats, strings, None, bools and Fractions raise ValidationError, as do
integers out of range."""

import numpy as np
import pytest

from bellcert import (
    BellFunctional,
    CorrelatorForm,
    JointQuery,
    LocalQuery,
    Relabeling,
    Scenario,
    ValidationError,
    behavior_from_dict,
    certify_uniform,
    chained_correlator,
    chained_modular,
    chsh,
    correlators_from_behavior,
    deterministic_behavior,
    find_symmetries,
    from_correlator_terms,
    functional_from_dict,
    functional_to_dict,
    marginal,
    mermin,
    model_from_dict,
    optimize_violation,
    outcome_shift,
    phase_measurement_model,
    relabeling_from_dict,
    uniform_behavior,
)

SC = Scenario((2, 2), 2)
HALF_BLOCKS = (((0.5, 1), (0, 1)), (((0, 1), (0, 1)), ((0, 1), (0, 1))))
HALF_DICT = {
    "party_perm": None,
    "parties": [{"input_perm": [0.5, 1], "output_perms": [[0, 1], [0, 1]]}] * 2,
}

# each call was a TypeError, an IndexError, numpy's ValueError, a float
# result or a silent truncation before the rule was read in one place
REJECTED = {
    "scenario-float-outcomes": lambda: Scenario((2, 2), 2.5),
    "scenario-string-settings": lambda: Scenario("22", 2),
    "scenario-bool-setting": lambda: Scenario((True, 2), 2),
    "relabeling-half-entry": lambda: Relabeling(SC, *HALF_BLOCKS),
    "relabeling-dict-half-entry": lambda: relabeling_from_dict(SC, HALF_DICT),
    "joint-query": lambda: JointQuery((0.5, 0)),
    "marginal-party": lambda: marginal(uniform_behavior(SC), (0.5,), (0,)),
    "input-index": lambda: SC.input_index((0.5, 0)),
    "outcome-tuple": lambda: SC.outcome_tuple(0.5),
    "behavior-row": lambda: uniform_behavior(SC).row((0.5, 0)),
    "behavior-row-negative-index": lambda: uniform_behavior(SC).row(-1),
    "certify-local-query": lambda: certify_uniform(
        chsh(), find_symmetries(chsh()), LocalQuery(0.5, 0)
    ),
    "search-cap-none": lambda: find_symmetries(chsh(), cap=None),
    "restarts": lambda: optimize_violation(chsh(), restarts=2.5),
    "max-iters": lambda: optimize_violation(chsh(), max_iters=2.5),
    "seed-float": lambda: optimize_violation(chsh(), seed=2.5),
    "seed-negative": lambda: optimize_violation(chsh(), seed=-1),
    "mermin": lambda: mermin(3.0),
    "chained-correlator": lambda: chained_correlator(3.5),
    "chained-modular": lambda: chained_modular(2.5, 3),
    "outcome-shift": lambda: outcome_shift(SC, 0.5),
    "correlator-key": lambda: from_correlator_terms(SC, {((0.0, 1), (0, 0)): 1}),
    "document-party-count": lambda: functional_from_dict(
        {**functional_to_dict(chsh()), "parties": 2.0}
    ),
    "scenario-scalar-settings": lambda: Scenario(5, 2),
    "joint-query-scalar": lambda: JointQuery(5),
    "local-query-half-party": lambda: LocalQuery(0.5, 0),
    "local-query-negative-party": lambda: LocalQuery(-1, 0),
    "correlator-form-float-key": lambda: CorrelatorForm(
        Scenario((1,), 2), {((0.0,), (0,)): 0.5}
    ),
    "correlator-form-get-scalars": lambda: correlators_from_behavior(
        uniform_behavior(SC)
    ).get(0, 0),
    "relabeling-scalar-blocks": lambda: Relabeling(SC, 5, HALF_BLOCKS[1]),
    "relabeling-scalar-block": lambda: Relabeling(SC, ((0, 1), 5), HALF_BLOCKS[1]),
    "relabeling-scalar-party-perm": lambda: Relabeling(
        SC, ((0, 1), (0, 1)), HALF_BLOCKS[1], party_perm=5
    ),
    "input-index-scalar": lambda: SC.input_index(5),
    "behavior-prob-scalar": lambda: uniform_behavior(SC).prob(5, (0, 0)),
    "deterministic-behavior-scalar": lambda: deterministic_behavior(SC, 5),
    "correlator-terms-scalar-key": lambda: from_correlator_terms(SC, {5: 1}),
    "joint-query-float-array": lambda: JointQuery(np.array([[0.5]])),
    "functional-ragged-key": lambda: BellFunctional(SC, {(0, (1, 2)): 1}),
}


@pytest.mark.parametrize("call", REJECTED.values(), ids=REJECTED.keys())
def test_non_integer_or_out_of_range_is_a_validation_error(call):
    with pytest.raises(ValidationError):
        call()


def test_error_names_the_argument_and_the_value():
    with pytest.raises(ValidationError, match=r"^outcomes must be an integer >= 2, got 2\.5$"):
        Scenario((2, 2), 2.5)
    message = r"^setting of party 1 must be an integer in 0\.\.1, got 2$"
    with pytest.raises(ValidationError, match=message):
        SC.input_index((0, 2))
    message = r"^phase of party 0 must be a real number, got \[0\.0\]$"
    with pytest.raises(ValidationError, match=message):
        phase_measurement_model(2, 3, [[0.0], [0.1]], [[0.1], [0.2]])


def test_a_non_integer_in_a_document_is_malformed():
    with pytest.raises(ValidationError, match="^malformed relabeling: entry of input permutation"):
        relabeling_from_dict(SC, HALF_DICT)


@pytest.mark.parametrize(
    "read, what",
    [
        (functional_from_dict, "functional"),
        (behavior_from_dict, "behavior"),
        (model_from_dict, "model"),
        (lambda data: relabeling_from_dict(SC, data), "relabeling"),
    ],
    ids=["functional", "behavior", "model", "relabeling"],
)
def test_a_numpy_scalar_document_is_malformed(read, what):
    with pytest.raises(ValidationError, match=f"^malformed {what}: IndexError"):
        read(np.int64(3))


def test_numpy_integers_are_accepted():
    sc = Scenario((np.int64(2), np.uint8(2)), np.int32(2))
    assert sc == SC and all(type(m) is int for m in (*sc.settings, sc.outcomes))
    assert SC.input_index((np.int64(1), np.int8(0))) == 2
    assert SC.input_tuple(np.int64(3)) == (1, 1)
    assert JointQuery((np.int64(1), 0)) == JointQuery((1, 0))
    assert uniform_behavior(SC).row(np.int64(2)).tolist() == [0.25] * 4
    assert mermin(np.int64(3)).same_coefficients(mermin(3))
    assert chained_modular(np.int16(2), np.int16(3)).same_coefficients(chained_modular(2, 3))
    g = Relabeling(SC, ((np.int64(1), 0), (0, 1)), (((1, 0), (0, 1)), ((0, 1), (0, 1))))
    assert g.input_perms == ((1, 0), (0, 1))
    assert len(find_symmetries(chsh(), cap=np.int64(10**4))) == len(find_symmetries(chsh()))
    result = optimize_violation(
        chsh(), restarts=np.int64(2), max_iters=np.int64(50), seed=np.uint8(3)
    )
    assert type(result.seed) is int and result.seed == 3
