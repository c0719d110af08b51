"""The shared table and relabeling helpers against the per-term loops they
replaced (``tests/convention_oracle.py``): the group law read from event
images, the Walsh-Hadamard correlator conversions, the strategy map and the
axis-reduced marginals."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convention_oracle as oracle
from bellcert import (
    Relabeling,
    Scenario,
    SignalingWarning,
    ValidationError,
    behavior_from_correlators,
    behavior_from_table,
    certify_uniform,
    chsh,
    correlators_from_behavior,
    deterministic_behavior,
    evaluate_on_strategy,
    find_symmetries,
    identity_relabeling,
    is_no_signaling,
    marginal,
    orbit_equality_violation,
)
from bellcert.scenario import JointQuery

from conftest import (
    fields,
    random_behavior,
    random_ns_behavior,
    random_relabeling,
    random_strategy,
)


def random_scenario(rng, two_outcome=False, max_parties=3):
    """Up to three parties; setting counts from 1..3, so parties with unequal
    counts and party permutations that must keep them both occur."""
    parties = int(rng.integers(1, max_parties + 1))
    settings_ = tuple(int(rng.integers(1, 4)) for _ in range(parties))
    return Scenario(settings_, 2 if two_outcome else int(rng.integers(2, 4)))


def random_relabeling_with_parties(scenario, rng):
    """A random relabeling with a random party permutation that keeps setting counts."""
    perms = [
        pi
        for pi in itertools.permutations(range(scenario.parties))
        if all(scenario.settings[i] == scenario.settings[j] for i, j in enumerate(pi))
    ]
    g = random_relabeling(scenario, rng)
    pi = perms[int(rng.integers(len(perms)))]
    return Relabeling(scenario, g.input_perms, g.output_perms, pi)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_group_law_from_event_images_matches_tuple_law(seed):
    """Identical fields, and identical reprs (so Python ints throughout)."""
    rng = np.random.default_rng(seed)
    sc = random_scenario(rng)
    g = random_relabeling_with_parties(sc, rng)
    h = random_relabeling_with_parties(sc, rng)
    for got, want in ((g.inverse(), oracle.inverse(g)), (g @ h, oracle.compose(g, h))):
        assert fields(got) == fields(want)
        assert repr(got) == repr(want)
        assert got == want and hash(got) == hash(want)
    strategy = random_strategy(sc, rng)
    moved = g.apply_to_strategy(strategy)
    assert moved == oracle.apply_to_strategy(g, strategy)
    assert repr(moved) == repr(oracle.apply_to_strategy(g, strategy))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_group_law_keeps_the_images_a_checked_relabeling_builds(seed):
    """``inverse`` and ``@`` keep the images they compute, read-only and
    equal to those of a freshly checked ``Relabeling`` with the same fields;
    the group law's results equal, hash and print as those tuple-built
    relabelings; on every pair, equality is equality of the fields; and
    ``is_identity`` read from the images equals the tuple definition."""
    rng = np.random.default_rng(seed)
    sc = random_scenario(rng)
    g = random_relabeling_with_parties(sc, rng)
    h = random_relabeling_with_parties(sc, rng)
    results = [g.inverse(), g @ h, g @ g.inverse(), g.inverse() @ g, h @ g @ h.inverse()]
    tuple_built = [Relabeling(sc, *fields(got)) for got in results]
    for got, fresh in zip(results, tuple_built):
        for images in (got._images, fresh._images):
            assert not images.flags.writeable
        assert np.array_equal(got._images, fresh._images)
        assert got._images.dtype == fresh._images.dtype
        assert got == fresh and hash(got) == hash(fresh) and repr(got) == repr(fresh)
    identity = identity_relabeling(sc)
    spelled_out = Relabeling(
        sc, identity.input_perms, identity.output_perms, tuple(range(sc.parties))
    )
    pool = [g, h, *results, *tuple_built, identity, spelled_out]
    for a, b in itertools.product(pool, repeat=2):
        assert (a == b) == (fields(a) == fields(b))
    for r in (g, h, g.inverse(), g @ h, g @ g.inverse(), identity, spelled_out):
        assert r.is_identity == oracle.is_identity(r)
    assert (g @ g.inverse()).is_identity and identity.is_identity and spelled_out.is_identity


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_correlators_match_per_key_loop(seed, signaling):
    """Same keys in the same order, each value within 1e-15."""
    rng = np.random.default_rng(seed)
    sc = random_scenario(rng, two_outcome=True, max_parties=4)
    behavior = (random_behavior if signaling else random_ns_behavior)(sc, rng)
    got = correlators_from_behavior(behavior).values
    want = oracle.correlators_from_behavior(behavior).values
    assert list(got) == list(want)
    assert max(abs(got[k] - want[k]) for k in want) <= 1e-15


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_behavior_from_correlators_matches_per_key_loop(seed):
    rng = np.random.default_rng(seed)
    sc = random_scenario(rng, two_outcome=True, max_parties=4)
    form = oracle.correlators_from_behavior(random_ns_behavior(sc, rng))
    got = behavior_from_correlators(form).table
    assert np.abs(got - oracle.behavior_from_correlators(form).table).max() <= 1e-15


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_deterministic_behavior_matches_per_input_loop(seed):
    rng = np.random.default_rng(seed)
    sc = random_scenario(rng)
    strategy = random_strategy(sc, rng)
    got = deterministic_behavior(sc, strategy).table
    assert np.array_equal(got, oracle.deterministic_behavior(sc, strategy).table)


def _warned(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args)
    return result, any(issubclass(w.category, SignalingWarning) for w in caught)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 1e-7, 3e-7, 1e-6, 1.0]))
def test_marginals_match_mask_loops_bit_for_bit(seed, signaling):
    """Every marginal and ``is_no_signaling``'s ``worst`` are bit-identical,
    and the signaling warning is raised exactly when it was.  A weight
    ``signaling`` of a signaling behavior is mixed in; the small ones put
    spreads near the warning threshold."""
    rng = np.random.default_rng(seed)
    sc = random_scenario(rng)
    table = (1 - signaling) * random_ns_behavior(sc, rng).table
    behavior = behavior_from_table(sc, table + signaling * random_behavior(sc, rng).table)
    ok, worst = is_no_signaling(behavior)
    want_ok, want_worst = oracle.is_no_signaling(behavior)
    assert (ok, worst.hex()) == (want_ok, want_worst.hex())
    for parties, assignment in sc.subset_setting_keys():
        got, got_warned = _warned(marginal, behavior, parties, assignment)
        want, want_warned = _warned(oracle.marginal, behavior, parties, assignment)
        assert got.tobytes() == want.tobytes()
        assert got_warned == want_warned


def test_orbit_equality_violation_warns_on_a_signaling_behavior():
    f = chsh()
    cert = certify_uniform(f, find_symmetries(f), JointQuery((0, 0)))
    behavior = random_behavior(f.scenario, np.random.default_rng(5))
    assert not is_no_signaling(behavior)[0]
    with pytest.warns(SignalingWarning, match="parties"):
        orbit_equality_violation(cert, behavior)


SC = Scenario((2, 2), 2)


@pytest.mark.parametrize(
    "apply",
    [
        lambda s: deterministic_behavior(SC, s),
        lambda s: evaluate_on_strategy(chsh(), s),
        lambda s: identity_relabeling(SC).apply_to_strategy(s),
    ],
    ids=["deterministic_behavior", "evaluate_on_strategy", "apply_to_strategy"],
)
@pytest.mark.parametrize(
    "strategy",
    [((0,), (0, 1)), ((0, 0.5), (0, 1)), ((0, 1, 1), (0, 1)), ((0, 2), (0, 1)), ((0, 1),)],
    ids=["short", "fractional", "long", "out-of-range", "missing-party"],
)
def test_bad_strategies_raise_domain_errors(apply, strategy):
    with pytest.raises(ValidationError, match="party|strategy"):
        apply(strategy)
