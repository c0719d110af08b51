"""One checked path from measurement lists to projector stacks: the shared
structural check, the array-wise projectivity check against the loop it
replaced (``model_oracle``), the read-only stacks and Bloch vectors a model
keeps, NaN failing every model check, the broadcast phase bases, and the
domain errors of the dict readers."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import model_oracle as oracle
from bellcert import (
    Scenario,
    ScenarioMismatchError,
    ValidationError,
    behavior_from_dict,
    behavior_from_model,
    behavior_to_dict,
    bell_operator,
    chsh,
    model_from_dict,
    model_to_dict,
    phase_measurement_model,
    qubit_model,
    qubit_projectors,
    uniform_behavior,
)
from bellcert.quantum import QuantumModel

from conftest import canonical_chsh_model

RAGGED = [[[1, 0], [0, 0]], [[0, 0], [0]]]


def chsh_measurements():
    model = canonical_chsh_model()
    return [list(per_setting) for per_setting in model.measurements], model.state


def _wrong_party_count(meas):
    return meas[:1]


def _wrong_setting_count(meas):
    meas[1] = meas[1][:1]
    return meas


def _non_square_block(meas):
    meas[0][1] = np.zeros((2, 2, 3))
    return meas


def _mixed_dimensions(meas):
    meas[1][1] = np.stack([np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0])])
    return meas


def _extra_projector(meas):
    meas[1][0] = np.concatenate([meas[1][0], np.zeros((1, 2, 2))])
    return meas


def _empty_blocks(meas):
    meas[0] = [np.zeros((2, 0, 0)), np.zeros((2, 0, 0))]
    return meas


def _ragged_block(meas):
    meas[1][0] = RAGGED
    return meas


STRUCTURAL_FAULTS = {
    "party-count": (_wrong_party_count, "one measurement list per party"),
    "setting-count": (_wrong_setting_count, "party 1 needs 2 measurements"),
    "non-square": (_non_square_block, "party 0, setting 1 has shape"),
    "mixed-dimensions": (_mixed_dimensions, "party 1, setting 1 has shape"),
    "extra-projector": (_extra_projector, "party 1, setting 0 has shape"),
    "ragged": (_ragged_block, "party 1, setting 0 is not an array of numbers"),
    "empty": (_empty_blocks, "party 0, setting 0 has shape (2, 0, 0)"),
}


class TestStructuralCheck:
    @pytest.mark.parametrize("fault", sorted(STRUCTURAL_FAULTS))
    def test_model_and_bell_operator_share_one_check(self, fault):
        plant, message = STRUCTURAL_FAULTS[fault]
        meas, state = chsh_measurements()
        meas = plant(meas)
        with pytest.raises(ScenarioMismatchError) as from_operator:
            bell_operator(chsh(), meas)
        with pytest.raises(ValidationError) as from_model:
            QuantumModel(Scenario((2, 2), 2), state, meas)
        assert type(from_operator.value) is ScenarioMismatchError
        assert type(from_model.value) is ValidationError
        assert str(from_model.value) == str(from_operator.value)
        assert message in str(from_model.value)

    def test_structural_fault_reported_before_projectivity(self):
        meas, state = chsh_measurements()
        meas[0][0] = meas[0][0] * 0.5
        meas[1] = meas[1][:1]
        with pytest.raises(ValidationError, match="party 1 needs 2 measurements"):
            QuantumModel(Scenario((2, 2), 2), state, meas)


class TestReadOnlyStacks:
    def test_state_blocks_and_stacks_are_read_only(self):
        meas, state = chsh_measurements()
        meas = [[np.array(block) for block in per_setting] for per_setting in meas]
        model = QuantumModel(Scenario((2, 2), 2), np.array(state), meas)
        arrays = [model.state, *model._stacks]
        arrays += [block for per_setting in model.measurements for block in per_setting]
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.flat[0] = 0.5
        for stack, per_setting in zip(model._stacks, model.measurements):
            assert stack.shape == (1, 4, 4)
            assert all(np.shares_memory(block, stack) for block in per_setting)

    def test_caller_arrays_changed_afterwards_change_nothing(self):
        meas, state = chsh_measurements()
        state = np.array(state)
        meas = [[np.array(block) for block in per_setting] for per_setting in meas]
        model = QuantumModel(Scenario((2, 2), 2), state, meas)
        kept = [np.array(arr) for arr in (model.state, *model._stacks)]
        table = behavior_from_model(model).table
        state[:] = 0.5
        for per_setting in meas:
            for block in per_setting:
                block[:] = np.eye(2)
        assert all(np.array_equal(a, b) for a, b in zip((model.state, *model._stacks), kept))
        assert np.array_equal(behavior_from_model(model).table, table)

    def test_bloch_vectors_are_read_only_copies(self):
        v = np.array([[[0.0, 0.0, 1.0]]])
        model = qubit_model(Scenario((1,), 2), [1.0, 0.0], v)
        v[0, 0, 2] = -1.0
        assert model.bloch[0][0].tolist() == [0.0, 0.0, 1.0]
        assert not model.bloch[0][0].flags.writeable
        assert model_to_dict(model)["measurements"]["vectors"] == [[[0.0, 0.0, 1.0]]]


NAN = float("nan")


def _nan_in_second_projector():
    stack = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    stack[1, 0, 0] = NAN
    return stack


class TestNaNFailsModelChecks:
    def test_nan_state(self):
        with pytest.raises(ValidationError, match="norm"):
            qubit_model(Scenario((1,), 2), [NAN, 0.0], [[[0.0, 0.0, 1.0]]])

    def test_nan_bloch_vector(self):
        with pytest.raises(ValidationError, match="unit length"):
            qubit_projectors([NAN, 0.0, 1.0])
        with pytest.raises(ValidationError, match="unit length"):
            qubit_model(Scenario((1,), 2), [1.0, 0.0], [[[NAN, 0.0, 1.0]]])

    @pytest.mark.parametrize(
        "stack, message",
        [
            (np.full((2, 2, 2), NAN), "projector 0 of party 0, setting 0 is not Hermitian"),
            (_nan_in_second_projector(), "projector 1 of party 0, setting 0 is not Hermitian"),
        ],
        ids=["all-nan", "nan-in-second-projector"],
    )
    def test_nan_projectors_in_report_order(self, stack, message):
        with pytest.raises(ValidationError) as got:
            QuantumModel(Scenario((1,), 2), [1.0, 0.0], ((stack,),))
        assert str(got.value) == message


def random_projectors(rng, dim, outcomes):
    """``outcomes`` orthogonal projectors of ranks as equal as possible,
    summing to the identity on C^dim."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    basis, _ = np.linalg.qr(z)
    groups = np.array_split(np.arange(dim), outcomes)
    return np.stack([basis[:, g] @ basis[:, g].conj().T for g in groups])


# (scenario, local dimensions), every projector nonzero
MODEL_SHAPES = [
    (Scenario((2, 2), 2), (2, 2)),
    (Scenario((3, 1), 2), (2, 3)),
    (Scenario((2, 2, 2), 2), (2, 2, 2)),
    (Scenario((2, 2), 3), (3, 4)),
    (Scenario((1, 2), 4), (4, 5)),
]


def plant(rng, stack, projector, kind):
    """One fault on one projector of a (d, D, D) stack, in place."""
    d, dim, _ = stack.shape
    if kind == "hermitian":
        stack[projector, 0, dim - 1] += 0.25
    elif kind == "idempotent":
        stack[projector] *= 0.5
    elif kind == "copy":  # a projector, but not orthogonal to its neighbour
        stack[projector] = stack[(projector + 1) % d]
    elif kind == "rotate":  # a projector in another basis
        u, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        stack[projector] = u @ stack[projector] @ u.conj().T
    elif kind == "zero":  # passes all but the sum
        stack[projector] = 0.0
    elif kind == "identity":
        stack[projector] = np.eye(dim)


FAULTS = st.tuples(
    st.integers(0, 2),
    st.integers(0, 2),
    st.integers(0, 3),
    st.sampled_from(["hermitian", "idempotent", "copy", "rotate", "zero", "identity"]),
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(MODEL_SHAPES),
    st.integers(0, 2**16),
    st.lists(FAULTS, min_size=0, max_size=4),
)
def test_projectivity_check_matches_loop_on_planted_faults(shape, seed, faults):
    scenario, dims = shape
    rng = np.random.default_rng(seed)
    meas = [
        [random_projectors(rng, dim, scenario.outcomes) for _ in range(m)]
        for m, dim in zip(scenario.settings, dims)
    ]
    for party, setting, projector, kind in faults:
        party %= scenario.parties
        setting %= scenario.settings[party]
        plant(rng, meas[party][setting], projector % scenario.outcomes, kind)
    state = np.zeros(math.prod(dims))
    state[0] = 1.0
    try:
        oracle.check_model_projective(meas)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as got:
            QuantumModel(scenario, state, meas)
        assert type(got.value) is ValidationError
        assert str(got.value) == str(exc)
    else:
        QuantumModel(scenario, state, meas)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(2, 6),
    st.lists(st.floats(-1e3, 1e3), min_size=8, max_size=8),
)
def test_phase_projectors_bit_identical_to_loop(m, d, phases):
    alice, bob = phases[:m], phases[4 : 4 + m]
    model = phase_measurement_model(m, d, alice, bob)
    for got, want in zip(model.measurements, oracle.phase_measurements(d, alice, bob)):
        assert len(got) == len(want) == m
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()


def one_qubit_model():
    return qubit_model(Scenario((1,), 2), [1.0, 0.0], [[[0.0, 0.0, 1.0]]])


def qubit_dict():
    return json.loads(json.dumps(model_to_dict(one_qubit_model())))


def phase_dict():
    model = phase_measurement_model(2, 3, [0.0, 0.5], [0.25, 0.75])
    return json.loads(json.dumps(model_to_dict(model)))


def behavior_dict():
    return json.loads(json.dumps(behavior_to_dict(behavior_from_model(one_qubit_model()))))


def _model_of_kind_x():
    data = qubit_dict()
    data["measurements"] = {"kind": "x"}
    return data


def _short_qubit_state():
    data = qubit_dict()
    data["state_re_im"] = [1.0, 0.0]
    return data


def _short_projector_block():
    data = phase_dict()
    data["measurements"]["blocks"][0][0] = [1.0, 0.0]
    return data


def _letter_key():
    data = behavior_dict()
    data["table"] = {"x=a": data["table"]["x=0"]}
    return data


def _scalar_row():
    data = behavior_dict()
    data["table"]["x=0"] = 5
    return data


def _list_table():
    return {"settings": [1], "outcomes": 2, "table": [[0.5, 0.5]]}


def _integer_key():
    return {"settings": [1], "outcomes": 2, "table": {5: [0.5, 0.5]}}


def _seven_parties(make):
    return lambda: dict(make(), parties=7)


def _huge_scenario(make):
    # refused before a table of 10**12 inputs is allocated
    return lambda: dict(make(), settings=[10**6, 10**6], parties=2)


class TestDictReaders:
    @pytest.mark.parametrize(
        "make, message",
        [
            (dict, "malformed model: KeyError"),
            (_model_of_kind_x, "malformed model: unknown kind 'x'"),
            (_short_qubit_state, "malformed model: ValueError"),
            (_short_projector_block, "malformed model: ValueError"),
            (_seven_parties(phase_dict), "party count does not match the settings list"),
            (_huge_scenario(phase_dict), "scenario has 9000000000000 joint events, above"),
        ],
        ids=["empty", "kind-x", "short-state", "short-block", "seven-parties", "huge"],
    )
    def test_malformed_model(self, make, message):
        with pytest.raises(ValidationError) as got:
            model_from_dict(make())
        assert type(got.value) is ValidationError
        assert str(got.value).startswith(message)

    @pytest.mark.parametrize(
        "make, message",
        [
            (dict, "malformed behavior: KeyError"),
            (_letter_key, "malformed behavior: ValueError"),
            (_scalar_row, "malformed behavior: TypeError"),
            (_list_table, "malformed behavior: AttributeError"),
            (_integer_key, "malformed behavior: AttributeError"),
            (_seven_parties(behavior_dict), "party count does not match the settings list"),
            (_huge_scenario(behavior_dict), "scenario has 4000000000000 joint events, above"),
        ],
        ids=[
            "empty", "letter-key", "scalar-row", "list-table", "integer-key", "seven-parties",
            "huge",
        ],
    )
    def test_malformed_behavior(self, make, message):
        with pytest.raises(ValidationError) as got:
            behavior_from_dict(make())
        assert type(got.value) is ValidationError
        assert str(got.value).startswith(message)

    def test_domain_errors_pass_through_unchanged(self):
        data = phase_dict()
        blocks = data["measurements"]["blocks"]
        blocks[1][0] = [0.5 * v for v in blocks[1][0]]
        with pytest.raises(ValidationError, match="^projector 0 of party 1, setting 0"):
            model_from_dict(data)
        data = behavior_dict()
        data["table"] = {"y=0": data["table"]["x=0"]}
        with pytest.raises(ValidationError, match="^bad table key 'y=0'$"):
            behavior_from_dict(data)

    @pytest.mark.parametrize("key", ["x=00", "x=+0", "x= 0", "x=0 "])
    def test_a_table_key_has_one_spelling(self, key):
        data = behavior_dict()
        data["table"] = {key: data["table"]["x=0"]}
        with pytest.raises(ValidationError, match=f"^bad table key {re.escape(repr(key))}$"):
            behavior_from_dict(data)

    def test_an_input_spelled_twice_names_the_key(self):
        data = json.loads(json.dumps(behavior_to_dict(uniform_behavior(Scenario((2, 2), 2)))))
        data["table"]["x=1, 01"] = data["table"].pop("x=1,0")
        with pytest.raises(ValidationError, match="^bad table key 'x=1, 01'$"):
            behavior_from_dict(data)

    def test_a_row_sum_is_named_as_a_float(self):
        data = behavior_dict()
        data["table"]["x=0"] = [0.0] * len(data["table"]["x=0"])
        with pytest.raises(ValidationError, match=r"^probabilities at input \(0,\) sum to 0\.0$"):
            behavior_from_dict(data)
