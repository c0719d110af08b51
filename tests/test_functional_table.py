"""The integer-table form of a functional against the dict-of-Fractions code
it replaced (``functional_oracle.py``), and the construction-time range check."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import functional_oracle as oracle
from bellcert import (
    BellFunctional,
    Scenario,
    ValidationError,
    chained_correlator,
    chained_modular,
    chsh,
    correlator_terms,
    find_symmetries,
    from_correlator_terms,
    functional_from_dict,
    functional_to_dict,
    is_symmetry,
    lifted_chsh_c,
    local_bound,
    mermin,
    optimize_violation,
    pushforward_functional,
    tilted_chsh,
)

from conftest import random_relabeling

TWO_OUTCOME = [
    Scenario((2, 2), 2),
    Scenario((3, 3), 2),
    Scenario((2, 2, 1), 2),
    Scenario((2, 2, 2), 2),
]
SCENARIOS = TWO_OUTCOME + [Scenario((2, 2), 3)]


def dumps(functional):
    return json.dumps(functional_to_dict(functional))


@st.composite
def dyadic_functionals(draw, scenarios=SCENARIOS):
    """Random functionals with entries n / 2**e, many of them zero."""
    scenario = draw(st.sampled_from(scenarios))
    size = scenario.num_inputs * scenario.num_outcomes
    entries = draw(
        st.lists(
            st.one_of(st.just((0, 0)), st.tuples(st.integers(-40, 40), st.integers(0, 6))),
            min_size=size,
            max_size=size,
        )
    )
    mapping = {
        divmod(k, scenario.num_outcomes): Fraction(n, 2**e)
        for k, (n, e) in enumerate(entries)
    }
    orientation = draw(st.sampled_from(["max", "min"]))
    return BellFunctional(scenario, mapping, orientation=orientation, name="random")


@st.composite
def correlator_weights(draw):
    """Random weights on correlator keys that spread dyadically over the
    joint inputs extending them."""
    scenario = draw(st.sampled_from(TWO_OUTCOME))
    terms = {}
    for parties, assignment in scenario.subset_setting_keys():
        n_ext = scenario.num_inputs
        for i in parties:
            n_ext //= scenario.settings[i]
        odd = n_ext // (n_ext & -n_ext)
        n, e = draw(st.tuples(st.integers(-6, 6), st.integers(0, 4)))
        terms[(parties, assignment)] = Fraction(n * odd, 2**e)
    return scenario, terms


@settings(max_examples=60, deadline=None)
@given(dyadic_functionals())
def test_table_holds_the_mapping_and_serializes_like_the_dict_code(f):
    assert all(c != 0 for c in f.coefficients.values())
    assert f.table.dtype == np.int64 and not f.table.flags.writeable
    assert f.log2_den == 0 or (f.table % 2).any()  # lowest terms
    for (x, a), c in f.coefficients.items():
        assert Fraction(int(f.table[x, a]), 2**f.log2_den) == c
    assert np.count_nonzero(f.table) == len(f.coefficients)
    assert dumps(f) == json.dumps(oracle.functional_to_dict(f))


@settings(max_examples=60, deadline=None)
@given(dyadic_functionals(), st.integers(0, 2**16))
def test_pushforward_matches_the_dict_code(f, seed):
    g = random_relabeling(f.scenario, np.random.default_rng(seed))
    pushed = pushforward_functional(g, f)
    expected = oracle.pushforward_functional(g, f)
    assert pushed.same_coefficients(expected)
    assert dumps(pushed) == json.dumps(oracle.functional_to_dict(expected))


@settings(max_examples=40, deadline=None)
@given(dyadic_functionals())
def test_json_round_trip_sums_duplicate_terms(f):
    data = functional_to_dict(f)
    assert functional_from_dict(data).same_coefficients(f)
    # every term split into two halves: np.add.at sums them back exactly
    halves = [
        dict(term, c_num=term["c_num"] * k, c_log2_den=term["c_log2_den"] + 1 + (k == 2))
        for term in data["terms"]
        for k in (1, 2)
    ]
    back = functional_from_dict(dict(data, terms=halves))
    assert back.same_coefficients(f)
    assert dumps(back) == dumps(f)


@settings(max_examples=40, deadline=None)
@given(dyadic_functionals(TWO_OUTCOME))
def test_correlator_terms_match_the_dict_code(f):
    terms, constant = correlator_terms(f)
    expected_terms, expected_constant = oracle.correlator_terms(f)
    assert terms == expected_terms
    assert constant == expected_constant


@settings(max_examples=40, deadline=None)
@given(correlator_weights())
def test_from_correlator_terms_matches_the_dict_code_and_inverts(case):
    scenario, terms = case
    f = from_correlator_terms(scenario, terms)
    assert f.same_coefficients(oracle.from_correlator_terms(scenario, terms))
    back, constant = correlator_terms(f)
    assert back == {k: v for k, v in terms.items() if v != 0}
    assert constant == 0


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_mermin_matches_the_dict_code(n):
    scenario = Scenario((2,) * n, 2)
    terms = {(tuple(range(n)), key): c for key, c in oracle.mermin_terms(n).items()}
    expected = oracle.from_correlator_terms(scenario, terms, name=f"mermin({n})")
    assert mermin(n).same_coefficients(expected)
    assert dumps(mermin(n)) == json.dumps(oracle.functional_to_dict(expected))


@pytest.mark.parametrize("m", [2, 3, 5])
def test_chained_correlator_matches_the_dict_code(m):
    terms = {((0, 1), (i, i)): 1 for i in range(m)}
    terms.update({((0, 1), (i + 1, i)): 1 for i in range(m - 1)})
    terms[((0, 1), (0, m - 1))] = -1
    expected = oracle.from_correlator_terms(Scenario((m, m), 2), terms)
    assert chained_correlator(m).same_coefficients(expected)


def test_chsh_and_tilted_chsh_match_the_dict_code():
    chsh_terms = {((0, 1), x): 1 for x in ((0, 0), (0, 1), (1, 0))}
    chsh_terms[((0, 1), (1, 1))] = -1
    sc = Scenario((2, 2), 2)
    assert chsh().same_coefficients(oracle.from_correlator_terms(sc, chsh_terms))
    for eta in (0.3, 0.5, -1.25):
        expected = oracle.from_correlator_terms(sc, {**chsh_terms, ((0,), (0,)): eta})
        assert tilted_chsh(eta).same_coefficients(expected)


@settings(max_examples=30, deadline=None)
@given(dyadic_functionals(), st.integers(-5, 5))
def test_symmetries_do_not_change_when_rescaled_by_a_power_of_two(f, k):
    scaled = BellFunctional(
        f.scenario, {key: c * Fraction(2) ** k for key, c in f.coefficients.items()}
    )
    assert find_symmetries(scaled) == find_symmetries(f)


@pytest.mark.parametrize(
    "factory", [chsh, lambda: tilted_chsh(0.5), lambda: chained_modular(2, 3), lifted_chsh_c]
)
@pytest.mark.parametrize("k", [-7, 3])
def test_named_symmetries_survive_rescaling(factory, k):
    f = factory()
    scaled = BellFunctional(
        f.scenario, {key: c * Fraction(2) ** k for key, c in f.coefficients.items()}
    )
    assert find_symmetries(scaled) == find_symmetries(f)
    assert find_symmetries(f)


class TestTiltedChshOfAnyFloat:
    def test_local_bound_is_exact(self):
        assert local_bound(tilted_chsh(0.3)).bound == 2 + Fraction(0.3)

    def test_symmetry_search_and_see_saw_run(self):
        f = tilted_chsh(0.3)
        found = find_symmetries(f)
        assert len(found) == 1 and is_symmetry(found[0], f)
        result = optimize_violation(f, seed=0)
        assert result.value == pytest.approx(np.sqrt(8 + 2 * 0.3**2), abs=1e-6)


class TestRangeCheck:
    def test_limit_is_max_numerator_times_inputs(self):
        sc = Scenario((2, 2), 2)
        assert BellFunctional(sc, {(0, 0): 2**60 - 1}).table[0, 0] == 2**60 - 1
        with pytest.raises(ValidationError, match="below 2\\^62"):
            BellFunctional(sc, {(0, 0): 2**60})

    def test_message_names_the_common_denominator(self):
        sc = Scenario((2, 2), 2)
        with pytest.raises(ValidationError, match="common denominator 2\\^2000"):
            BellFunctional(sc, {(0, 0): Fraction(1, 2**2000), (1, 1): 1})

    def test_tiny_coefficients_alone_fit(self):
        sc = Scenario((2, 2), 2)
        f = BellFunctional(sc, {(0, 0): Fraction(3, 2**2000)})
        assert (int(f.table[0, 0]), f.log2_den) == (3, 2000)

    @pytest.mark.parametrize("log2_den", [1023, 1074, 1075, 2000])
    def test_float_table_rejects_coefficients_below_the_normal_range(self, log2_den):
        sc = Scenario((2, 2), 2)
        f = BellFunctional(sc, {(0, 0): Fraction(1, 2**log2_den), (1, 1): Fraction(3, 2**log2_den)})
        with pytest.raises(ValidationError, match=f"common denominator 2\\^{log2_den}"):
            f.float_table

    def test_float_table_keeps_the_smallest_normal_coefficient(self):
        sc = Scenario((2, 2), 2)
        f = BellFunctional(sc, {(0, 0): Fraction(1, 2**1022), (1, 1): Fraction(3, 2**1022)})
        assert f.float_table[0, 0] == np.finfo(float).tiny
        assert f.float_table[1, 1] == 3 * np.finfo(float).tiny

    def test_sums_beyond_int64_are_exact_not_wrapped(self):
        sc = Scenario((2, 2), 2)
        w = 2**59 + 1  # fits the table, but the constant term's numerator is 16 w
        f = BellFunctional(sc, {(x, a): w for x in range(4) for a in range(4)})
        assert correlator_terms(f) == oracle.correlator_terms(f) == ({}, 4 * w)
        # shares 2**61 + 2**61 + 2**62 meet at one entry: 2**63 would wrap in int64
        terms = {((0,), (0,)): 2**62, ((1,), (0,)): 2**62, ((0, 1), (0, 0)): 2**62}
        with pytest.raises(ValidationError, match="below 2\\^62"):
            from_correlator_terms(sc, terms)
