"""The bad-input contract of the public API, checked over all of ``bellcert.__all__``.

A *data* argument (a count, an index, a sequence, a table, an array, a
mapping, a number, a label, a flag or a document) that is wrong raises
``ValidationError``, ``ScenarioMismatchError`` or a cap error.  An *object*
argument (a scenario, functional, behavior, relabeling, query, certificate,
model or report) is used as it is given, so a wrong one may also raise
Python's own ``TypeError`` or ``AttributeError``; so may a field of a result
record (``LocalBoundReport``, ``OptimizationResult``,
``UniformityCertificate``), which stores what the library computed.  A
sequence of objects, such as certification's generators, is data as a whole
and objects entry by entry.

``TABLE`` gives every parameter of every public callable, and of every
public method taking one, a valid value and its kind.  Hypothesis replaces
the value, or one part of it, with junk; only the documented exceptions may
come out.  Junk integers stay small, so no draw is a valid but huge size.
"""

from __future__ import annotations

import copy
import inspect
import json
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bellcert
from bellcert import (
    CapExceededError,
    CorrelatorForm,
    JointQuery,
    Scenario,
    ScenarioMismatchError,
    SearchCapExceededError,
    ValidationError,
    certify_uniform,
    chsh,
    correlators_from_behavior,
    find_symmetries,
    observed_report,
    uniform_behavior,
)
from bellcert.cli import main
from conftest import (
    canonical_chsh_model,
    random_behavior,
    random_ns_behavior,
    random_small_scenario,
)

DATA, OBJECT, OBJECTS = "data", "object", "sequence of objects"
DOMAIN_ERRORS = (ValidationError, ScenarioMismatchError, CapExceededError, SearchCapExceededError)
PYTHON_ERRORS = (TypeError, AttributeError)

SC = Scenario((2, 2), 2)
F = chsh()
B = uniform_behavior(SC)
GENS = find_symmetries(F)
G = GENS[0]
CERT = certify_uniform(F, GENS)
MODEL = canonical_chsh_model()
Q = JointQuery((0, 1))
FORM = correlators_from_behavior(B)
TABLE_4X4 = [[0.25] * 4 for _ in range(4)]
MEASUREMENTS = [list(per_party) for per_party in MODEL.measurements]
BLOCH = [[v.tolist() for v in per_party] for per_party in MODEL.bloch]
STATE = MODEL.state.tolist()


def data(value):
    """A data argument: each call gets a fresh copy of ``value``."""
    return (lambda: copy.deepcopy(value)), DATA


def obj(value, kind=OBJECT):
    """An object argument, or with ``kind=OBJECTS`` a sequence of them."""
    return (lambda: value), kind


# a result record's field is stored as given, as an object argument is
record = obj


# name -> (callable, {parameter: (valid value factory, kind)})
TABLE = {
    "Behavior": (bellcert.Behavior, {"scenario": obj(SC), "table": data(TABLE_4X4)}),
    "BellFunctional": (
        bellcert.BellFunctional,
        {
            "scenario": obj(SC),
            "coefficients": data({(0, 0): 1, (3, 1): 0.5}),
            "orientation": data("min"),
            "name": data("f"),
        },
    ),
    "CorrelatorForm": (CorrelatorForm, {"scenario": obj(SC), "values": data(dict(FORM.values))}),
    "JointQuery": (JointQuery, {"settings": data((0, 1))}),
    "LocalBoundReport": (
        bellcert.LocalBoundReport,
        {"bound": record(2), "maximizer_count": record(1), "maximizers": record(())},
    ),
    "LocalQuery": (bellcert.LocalQuery, {"party": data(1), "setting": data(0)}),
    "OptimizationResult": (
        bellcert.OptimizationResult,
        {
            name: record(None)
            for name in (
                "value", "model", "behavior", "iterations", "converged", "seed", "restart",
                "traces",
            )
        },
    ),
    "QuantumModel": (
        bellcert.QuantumModel,
        {
            "scenario": obj(SC),
            "state": data(STATE),
            "measurements": data(MEASUREMENTS),
            "bloch": data(BLOCH),
        },
    ),
    "RandomnessReport": (
        bellcert.RandomnessReport,
        {
            "query": obj(Q),
            "guessing_probability": data(0.25),
            "min_entropy_bits": data(2.0),
            "kind": data("observed"),
        },
    ),
    "Relabeling": (
        bellcert.Relabeling,
        {
            "scenario": obj(SC),
            "input_perms": data(((1, 0), (0, 1))),
            "output_perms": data((((1, 0), (0, 1)), ((0, 1), (0, 1)))),
            "party_perm": data((1, 0)),
        },
    ),
    "Scenario": (Scenario, {"settings": data((2, 3)), "outcomes": data(3)}),
    "UniformityCertificate": (
        bellcert.UniformityCertificate,
        {
            "functional": record(F),
            "generators": record(CERT.generators),
            "joint_orbits": record(CERT.joint_orbits),
            "marginal_orbits": record(CERT.marginal_orbits),
        },
    ),
    "apply_to_behavior": (bellcert.apply_to_behavior, {"relabeling": obj(G), "behavior": obj(B)}),
    "behavior_from_correlators": (bellcert.behavior_from_correlators, {"form": obj(FORM)}),
    "behavior_from_dict": (
        bellcert.behavior_from_dict,
        {"data": data(bellcert.behavior_to_dict(B))},
    ),
    "behavior_from_model": (bellcert.behavior_from_model, {"model": obj(MODEL)}),
    "behavior_from_table": (
        bellcert.behavior_from_table,
        {"scenario": obj(SC), "table": data(TABLE_4X4)},
    ),
    "behavior_to_dict": (bellcert.behavior_to_dict, {"behavior": obj(B)}),
    "bell_operator": (
        bellcert.bell_operator,
        {"functional": obj(F), "measurements": data(MEASUREMENTS)},
    ),
    "certificate_to_dict": (bellcert.certificate_to_dict, {"cert": obj(CERT)}),
    "certified_report": (bellcert.certified_report, {"certificate": obj(CERT), "query": obj(Q)}),
    "certify_all": (
        bellcert.certify_all,
        {"functional": obj(F), "generators": obj(list(GENS), OBJECTS)},
    ),
    "certify_uniform": (
        certify_uniform,
        {"functional": obj(F), "generators": obj(list(GENS), OBJECTS), "query": obj(Q)},
    ),
    "chained_correlator": (bellcert.chained_correlator, {"m": data(3)}),
    "chained_modular": (bellcert.chained_modular, {"m": data(2), "d": data(3)}),
    "chsh": (chsh, {}),
    "correlator_terms": (bellcert.correlator_terms, {"functional": obj(F)}),
    "correlators_from_behavior": (correlators_from_behavior, {"behavior": obj(B)}),
    "deterministic_behavior": (
        bellcert.deterministic_behavior,
        {"scenario": obj(SC), "strategy": data(((0, 1), (1, 0)))},
    ),
    "evaluate": (bellcert.evaluate, {"functional": obj(F), "behavior": obj(B)}),
    "evaluate_on_strategy": (
        bellcert.evaluate_on_strategy,
        {"functional": obj(F), "strategy": data(((0, 1), (1, 0)))},
    ),
    "find_symmetries": (
        find_symmetries,
        {"functional": obj(F), "include_party_perms": data(True), "cap": data(10**4)},
    ),
    "from_correlator_terms": (
        bellcert.from_correlator_terms,
        {
            "scenario": obj(SC),
            "terms": data({((0, 1), (0, 0)): 1, ((0,), (1,)): 0.5}),
            "name": data("g"),
            "orientation": data("min"),
        },
    ),
    "functional_from_dict": (
        bellcert.functional_from_dict,
        {"data": data(bellcert.functional_to_dict(F))},
    ),
    "functional_to_dict": (bellcert.functional_to_dict, {"functional": obj(F)}),
    "global_outcome_flip": (bellcert.global_outcome_flip, {"scenario": obj(SC)}),
    "guessing_probability": (
        bellcert.guessing_probability,
        {"behavior": obj(B), "x": data((0, 1))},
    ),
    "identity_relabeling": (bellcert.identity_relabeling, {"scenario": obj(SC)}),
    "is_no_signaling": (bellcert.is_no_signaling, {"behavior": obj(B), "tol": data(1e-7)}),
    "is_symmetry": (bellcert.is_symmetry, {"relabeling": obj(G), "functional": obj(F)}),
    "lifted_chsh_c": (bellcert.lifted_chsh_c, {}),
    "local_bound": (
        bellcert.local_bound,
        {"functional": obj(F), "cap": data(100), "max_listed": data(3)},
    ),
    "marginal": (
        bellcert.marginal,
        {"behavior": obj(B), "parties": data((0, 1)), "settings": data((1, 0)), "tol": data(1e-7)},
    ),
    "mermin": (bellcert.mermin, {"n": data(3)}),
    "min_entropy": (bellcert.min_entropy, {"p_guess": data(0.5)}),
    "model_from_dict": (bellcert.model_from_dict, {"data": data(bellcert.model_to_dict(MODEL))}),
    "model_to_dict": (bellcert.model_to_dict, {"model": obj(MODEL)}),
    "observed_report": (observed_report, {"behavior": obj(B), "query": obj(Q)}),
    "optimize_violation": (
        bellcert.optimize_violation,
        {
            "functional": obj(F),
            "restarts": data(2),
            "seed": data(1),
            "tol": data(1e-6),
            "max_iters": data(20),
        },
    ),
    "orbit_equality_violation": (
        bellcert.orbit_equality_violation,
        {"cert": obj(CERT), "behavior": obj(B)},
    ),
    "outcome_shift": (bellcert.outcome_shift, {"scenario": obj(SC), "step": data(1)}),
    "phase_measurement_model": (
        bellcert.phase_measurement_model,
        {
            "m": data(2),
            "d": data(3),
            "alice_phases": data([0.0, 0.5]),
            "bob_phases": data([0.25, -0.25]),
        },
    ),
    "pushforward_functional": (
        bellcert.pushforward_functional,
        {"relabeling": obj(G), "functional": obj(F)},
    ),
    "qubit_model": (
        bellcert.qubit_model,
        {"scenario": obj(SC), "state": data(STATE), "bloch_vectors": data(BLOCH)},
    ),
    "qubit_projectors": (bellcert.qubit_projectors, {"bloch": data([0.0, 0.6, 0.8])}),
    "relabeling_from_dict": (
        bellcert.relabeling_from_dict,
        {"scenario": obj(SC), "data": data(bellcert.relabeling_to_dict(GENS[-1]))},
    ),
    "relabeling_to_dict": (bellcert.relabeling_to_dict, {"relabeling": obj(G)}),
    "report_to_dict": (bellcert.report_to_dict, {"report": obj(observed_report(B, Q))}),
    "search_space_size": (
        bellcert.search_space_size,
        {"scenario": obj(SC), "include_party_perms": data(False)},
    ),
    "tilted_chsh": (bellcert.tilted_chsh, {"eta": data(0.5)}),
    "uniform_behavior": (uniform_behavior, {"scenario": obj(SC)}),
    # public methods that take an argument
    "Scenario.input_index": (SC.input_index, {"x": data((1, 0))}),
    "Scenario.input_tuple": (SC.input_tuple, {"index": data(2)}),
    "Scenario.outcome_index": (SC.outcome_index, {"a": data((0, 1))}),
    "Scenario.outcome_tuple": (SC.outcome_tuple, {"index": data(3)}),
    "Behavior.prob": (B.prob, {"x": data((0, 1)), "a": data((1, 1))}),
    "Behavior.row": (B.row, {"x": data((1, 1))}),
    "BellFunctional.same_coefficients": (F.same_coefficients, {"other": obj(F)}),
    "CorrelatorForm.get": (FORM.get, {"parties": data((0, 1)), "settings": data((1, 1))}),
    "Relabeling.apply_to_strategy": (G.apply_to_strategy, {"strategy": data(((0, 1), (1, 1)))}),
    "UniformityCertificate.joint_classes": (CERT.joint_classes, {"settings": data((1, 0))}),
    "UniformityCertificate.marginal_classes": (
        CERT.marginal_classes,
        {"party": data(1), "setting": data(1)},
    ),
    "UniformityCertificate.certified_bits": (CERT.certified_bits, {"query": obj(Q)}),
}

CASES = [(name, param) for name, (_, params) in TABLE.items() for param in params]


# --- junk ------------------------------------------------------------------------

# hashable junk, usable as a dict key; no integer is a large size
HASHABLE = st.sampled_from(
    [
        None, True, False, -1, 0, 1, 2, 5, 0.5, -2.5, float("nan"), float("inf"), 1j,
        "", "x", "max", "x=0,0", b"\x00", Fraction(1, 2), Fraction(7, 3),
        (), (0,), (0, 1, 2), ((0,), 1),
        np.int64(-1), np.uint8(7), np.float64("nan"), np.bool_(True), np.complex128(1j),
    ]
)
# unhashable junk; ``np.copy`` keeps each draw a fresh array
ARRAYS = st.sampled_from(
    [
        np.array(0.5), np.array(2), np.array(True), np.array([1, 2]), np.array([[0.5]]),
        np.array([[1, 0], [0, 1]]), np.zeros((2, 0)), np.full(3, np.nan),
        np.array(["a", "b"]), np.array([1j, 2]), np.array([None, 1], dtype=object),
    ]
).map(np.copy)
JUNK = st.recursive(
    HASHABLE | ARRAYS | st.builds(object),
    lambda inner: st.lists(inner, max_size=3)
    | st.tuples(inner, inner)
    | st.dictionaries(HASHABLE, inner, max_size=2),
    max_leaves=4,
)


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def _iterable(value) -> bool:
    try:
        iter(value)
    except TypeError:
        return False
    return True


def splice(draw, value):
    """``value`` with junk in place of all of it or of one part; dict keys stay hashable."""
    if isinstance(value, (list, tuple, dict)) and value and draw(st.booleans()):
        items = list(value.items()) if isinstance(value, dict) else list(value)
        k = draw(st.integers(0, len(items) - 1))
        if not isinstance(value, dict):
            items[k] = splice(draw, items[k])
            return type(value)(items)
        key, entry = items[k]
        if draw(st.booleans()):
            entry = splice(draw, entry)
        else:
            key = splice(draw, key)
            if not _hashable(key):
                key = draw(HASHABLE)
        items[k] = (key, entry)
        return dict(items)
    return draw(JUNK)


def allowed_errors(kind: str, value) -> tuple:
    """A sequence of objects must be iterable; its entries are objects."""
    if kind == DATA or (kind == OBJECTS and not _iterable(value)):
        return DOMAIN_ERRORS
    return DOMAIN_ERRORS + PYTHON_ERRORS


# --- tests -----------------------------------------------------------------------

def _public_methods(cls) -> list[str]:
    return [
        f"{cls.__name__}.{name}"
        for name, member in vars(cls).items()
        if not name.startswith("_")
        and inspect.isfunction(member)
        and len(inspect.signature(member).parameters) > 1
    ]


def test_table_covers_the_public_api():
    api = [getattr(bellcert, name) for name in bellcert.__all__]
    errors = {
        obj.__name__
        for obj in api
        if isinstance(obj, type) and issubclass(obj, (Exception, Warning))
    }
    assert errors == {
        "CapExceededError",
        "ScenarioMismatchError",
        "SearchCapExceededError",
        "SignalingWarning",
        "ValidationError",
    }
    expected = {obj.__name__ for obj in api if callable(obj)} - errors
    expected |= {m for obj in api if isinstance(obj, type) for m in _public_methods(obj)}
    assert set(TABLE) == expected
    for name, (call, params) in TABLE.items():
        assert list(params) == list(inspect.signature(call).parameters), name


@pytest.mark.parametrize("name", sorted(TABLE))
def test_valid_table_values_are_accepted(name):
    call, params = TABLE[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(**{param: make() for param, (make, _) in params.items()})


@pytest.mark.parametrize("name, param", CASES, ids=[f"{n}-{p}" for n, p in CASES])
@settings(
    derandomize=True,
    database=None,
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(st.data())
def test_bad_argument_raises_only_documented_errors(name, param, draws):
    call, params = TABLE[name]
    values = {p: make() for p, (make, _) in params.items()}
    values[param] = splice(draws.draw, values[param])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            call(**values)
        except allowed_errors(params[param][1], values[param]):
            pass


def test_a_malformed_functional_file_is_one_json_error_line(capsys, tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"settings": 5, "outcomes": 2, "terms": []}))
    code = main(["local-bound", "--file", str(path)])
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert (code, out, len(lines)) == (1, "", 1)
    assert json.loads(lines[0])["code"] == "invalid-input"


@pytest.mark.parametrize("name", [5, None, 1.5, ["f"], {"f": 1}])
def test_a_functional_name_that_is_no_string_is_a_data_error(capsys, tmp_path, name):
    """The constructor, the correlator builder and the document reader all
    refuse the label, and the CLI reports it as one invalid-input line."""
    document = {"settings": [2, 2], "outcomes": 2, "terms": [], "name": name}
    builders = [
        lambda: bellcert.BellFunctional(SC, {}, name=name),
        lambda: bellcert.from_correlator_terms(SC, {}, name=name),
        lambda: bellcert.functional_from_dict(document),
    ]
    for build in builders:
        with pytest.raises(ValidationError, match="name must be a string"):
            build()
    path = tmp_path / "f.json"
    path.write_text(json.dumps(document))
    code = main(["local-bound", "--file", str(path)])
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert (code, out, len(lines)) == (1, "", 1)
    assert json.loads(lines[0])["code"] == "invalid-input"


@pytest.mark.parametrize("seed", range(6))
def test_correlators_of_a_behavior_equal_the_checked_form(seed):
    """``correlators_from_behavior`` skips the key reader for the keys it builds."""
    rng = np.random.default_rng(seed)
    sc = random_small_scenario(rng, two_outcome=True)
    behavior = (random_behavior if seed % 2 else random_ns_behavior)(sc, rng)
    form = correlators_from_behavior(behavior)
    assert repr(form.values) == repr(CorrelatorForm(sc, dict(form.values)).values)
