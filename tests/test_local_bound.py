"""``local_bound`` by best response against the exhaustive enumeration it
replaced (``local_bound_oracle.py``), closed forms that enumeration could not
reach, memory, and argument errors."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import local_bound_oracle as oracle
from bellcert import (
    BellFunctional,
    CapExceededError,
    Scenario,
    ValidationError,
    chained_correlator,
    chsh,
    evaluate_on_strategy,
    local_bound,
    mermin,
)

SCENARIOS = [
    Scenario(settings, d)
    for settings in ((2, 2), (3, 3), (3, 2), (2, 2, 2), (2, 2, 1))
    for d in (2, 3)
]


@st.composite
def small_integer_functionals(draw):
    """Random tables with entries in -2..2, half of them zero, so that many
    strategies tie."""
    scenario = draw(st.sampled_from(SCENARIOS))
    size = scenario.num_inputs * scenario.num_outcomes
    entries = draw(
        st.lists(
            st.one_of(st.just(0), st.integers(-2, 2)), min_size=size, max_size=size
        )
    )
    mapping = {divmod(k, scenario.num_outcomes): c for k, c in enumerate(entries) if c}
    orientation = draw(st.sampled_from(["max", "min"]))
    return BellFunctional(scenario, mapping, orientation=orientation)


@given(small_integer_functionals(), st.sampled_from([0, 1, 3, None]))
@settings(max_examples=80, deadline=None)
def test_matches_exhaustive_enumeration(functional, max_listed):
    kwargs = {} if max_listed is None else {"max_listed": max_listed}
    got, expected = local_bound(functional, **kwargs), oracle.local_bound(functional, **kwargs)
    assert got.bound == expected.bound
    assert got.maximizer_count == expected.maximizer_count
    assert got.maximizers == expected.maximizers


def test_every_strategy_ties_on_the_zero_functional():
    functional = BellFunctional(Scenario((3, 3), 3), {})
    assert local_bound(functional) == oracle.local_bound(functional)
    assert local_bound(functional).maximizer_count == 27 * 27


def test_one_party_is_a_best_response_alone():
    # setting 1 ties between outcomes 1 and 2: listed in that order
    functional = BellFunctional(Scenario((3,), 3), {(0, 1): 1, (1, 0): -1, (2, 2): 2})
    report = local_bound(functional)
    assert report == oracle.local_bound(functional)
    assert report.bound == 3
    assert report.maximizers == (((1, 1, 2),), ((1, 2, 2),))


def test_last_party_beyond_int64_is_listed_exactly():
    # 2^64 strategies for the last party: its indices are exact Python ints
    functional = BellFunctional(Scenario((1, 64), 2), {})
    report = local_bound(functional, cap=1 << 65, max_listed=3)
    assert report.maximizer_count == 1 << 65
    zeros = (0,) * 64
    assert report.maximizers == (
        ((0,), zeros),
        ((0,), zeros[:-1] + (1,)),
        ((0,), zeros[:-2] + (1, 0)),
    )


class TestClosedForms:
    """Each of these took seconds or more by exhaustive enumeration."""

    @pytest.mark.parametrize("n", [8, 9])
    def test_mermin(self, n):
        report = local_bound(mermin(n))
        assert report.bound == 2
        assert report.maximizer_count == 2 ** (2 * n - 1)

    @pytest.mark.parametrize("m", [10, 11])
    def test_chained_correlator(self, m):
        report = local_bound(chained_correlator(m))
        assert report.bound == 2 * m - 2
        assert report.maximizer_count == 4 * m

    @pytest.mark.parametrize(
        "functional", [mermin(8), chained_correlator(11)], ids=lambda f: f.name
    )
    def test_listed_maximizers_attain_the_bound(self, functional):
        report = local_bound(functional, max_listed=20)
        assert len(report.maximizers) == 20
        assert len(set(report.maximizers)) == 20
        for strategy in report.maximizers:
            assert evaluate_on_strategy(functional, strategy) == report.bound

    def test_contraction_memory_is_bounded(self):
        # unchunked, the contraction of mermin(10) peaks above 100 MiB; the
        # listing is bounded by max_listed on its own
        functional = mermin(10)
        tracemalloc.start()
        try:
            report = local_bound(functional, max_listed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.maximizer_count == 2**19
        assert peak < 32 * 2**20


class TestArguments:
    @pytest.mark.parametrize("name", ["cap", "max_listed"])
    @pytest.mark.parametrize("value", ["x", 2.0, -1, None, True, Fraction(3)])
    def test_not_a_non_negative_integer(self, name, value):
        with pytest.raises(ValidationError, match=name):
            local_bound(chsh(), **{name: value})

    def test_integer_like_values_are_accepted(self):
        report = local_bound(chsh(), cap=np.int64(16), max_listed=np.uint8(2))
        assert (report.maximizer_count, len(report.maximizers)) == (8, 2)

    def test_cap_fails_before_any_allocation(self):
        # 2**80 joint strategies over a 160-entry table: the first block of
        # any enumeration or contraction would take hundreds of KiB
        functional = BellFunctional(Scenario((40, 40), 2), {(0, 0): 1})
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError, match=f"^{2**80} deterministic strategies"):
                local_bound(functional)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10

    def test_a_huge_strategy_count_is_named_by_its_power_of_two(self):
        functional = BellFunctional(Scenario((2, 400), 2), {(0, 0): 1})
        with pytest.raises(
            CapExceededError,
            match=r"^about 2\^402 deterministic strategies exceed the cap of 10000000$",
        ):
            local_bound(functional)

    def test_cap_counts_the_last_party_too(self):
        # the last party is never enumerated, but the cap is on every party
        with pytest.raises(CapExceededError, match="16 deterministic strategies"):
            local_bound(chsh(), cap=15)
        assert local_bound(chsh(), cap=16).maximizer_count == 8
