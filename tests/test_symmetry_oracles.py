"""The split-and-match symmetry search, the batched event maps, the
one-pass orbit closure, the grouped orbit-equality check and the tabled
certified bits against the straightforward loops they replace."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bellcert
from bellcert import (
    BellFunctional,
    JointQuery,
    LocalQuery,
    Relabeling,
    Scenario,
    ScenarioMismatchError,
    ValidationError,
    certify_uniform,
    chained_correlator,
    chsh,
    find_symmetries,
    identity_relabeling,
    is_symmetry,
    lifted_chsh_c,
    mermin,
    pushforward_functional,
    search_space_size,
)
from bellcert.scenario import _queries, marginal
from bellcert.symmetry import (
    _classes,
    _join,
    _joint_perms,
    _marginal_offsets,
    _orbit_closure,
    _products,
    _relabeling_dicts,
    _symmetry_rows,
    orbit_equality_violation,
    relabeling_to_dict,
)

from conftest import fields, random_ns_behavior, random_relabeling
from convention_oracle import _slot

SCENARIOS = [
    Scenario((2, 2), 2),
    Scenario((2, 2), 3),
    Scenario((2, 2, 2), 2),
    Scenario((3, 2), 2),
    Scenario((3,), 2),  # one party: the search's head group is empty
]
# the property also runs on four parties, without party permutations there:
# with them the oracle scans 98304 candidates (about 20 s)
FOUR_PARTIES = Scenario((2, 2, 2, 2), 2)


def oracle_candidates(scenario, include_party_perms):
    """Every relabeling in the search order: party permutation, then blocks."""
    identity = tuple(range(scenario.parties))
    party_perms = [identity]
    if include_party_perms:
        party_perms = [
            pi
            for pi in itertools.permutations(identity)
            if all(scenario.settings[i] == scenario.settings[pi[i]] for i in identity)
        ]
    outcome_perms = list(itertools.permutations(range(scenario.outcomes)))
    per_party = [
        [
            (sigma, taus)
            for sigma in itertools.permutations(range(m))
            for taus in itertools.product(outcome_perms, repeat=m)
        ]
        for m in scenario.settings
    ]
    for pi in party_perms:
        for combo in itertools.product(*per_party):
            yield Relabeling(
                scenario,
                tuple(block[0] for block in combo),
                tuple(block[1] for block in combo),
                pi,
            )


def oracle_symmetries(functional, include_party_perms):
    return tuple(
        g
        for g in oracle_candidates(functional.scenario, include_party_perms)
        if not g.is_identity and is_symmetry(g, functional)
    )


def bfs_orbit_ids(perms, n_events):
    """Breadth-first closure numbering components by their smallest event."""
    ids = np.full(n_events, -1, dtype=np.int64)
    next_id = 0
    for start in range(n_events):
        if ids[start] != -1:
            continue
        stack = [start]
        ids[start] = next_id
        while stack:
            e = stack.pop()
            for perm in perms:
                img = int(perm[e])
                if ids[img] == -1:
                    ids[img] = next_id
                    stack.append(img)
        next_id += 1
    return ids


def loop_event_maps(relabeling):
    """The per-party loop that built ``Relabeling.event_maps`` before it became
    the one-row case of the batched joint-event permutations."""
    sc = relabeling.scenario
    x_digits = sc.input_digits
    a_digits = sc.outcome_digits
    input_map = np.zeros(sc.num_inputs, dtype=np.int64)
    outcome_map = np.zeros((sc.num_inputs, sc.num_outcomes), dtype=np.int64)
    for i in range(sc.parties):
        slot = _slot(relabeling, i)
        sigma = np.asarray(relabeling.input_perms[i], dtype=np.int64)
        tau = np.asarray(relabeling.output_perms[i], dtype=np.int64)  # (M_i, d)
        image_setting = sigma[x_digits[:, i]]
        input_map += image_setting * sc.input_strides[slot]
        per_event = tau[image_setting][:, a_digits[:, i]]  # (inputs, outcomes)
        outcome_map += per_event * sc.outcome_strides[slot]
    return input_map, outcome_map


def loop_joint_event_perm(relabeling):
    """The per-relabeling joint-event permutation the batched helper replaced."""
    sc = relabeling.scenario
    input_map, outcome_map = loop_event_maps(relabeling)
    return (input_map[:, None] * sc.num_outcomes + outcome_map).reshape(-1)


def loop_marginal_event_perm(relabeling):
    """The triple loop over (party, setting, outcome) the batched helper replaced."""
    sc = relabeling.scenario
    offsets = _marginal_offsets(sc)
    perm = np.empty(offsets[-1], dtype=np.int64)
    for i in range(sc.parties):
        slot = _slot(relabeling, i)
        for x in range(sc.settings[i]):
            y = relabeling.input_perms[i][x]
            for o in range(sc.outcomes):
                src = offsets[i] + x * sc.outcomes + o
                dst = offsets[slot] + y * sc.outcomes + relabeling.output_perms[i][y][o]
                perm[src] = dst
    return perm


def recount_reduce(generators):
    """Keep a generator iff adding it changes the recomputed joint orbit count,
    or, for a generator with a party permutation, the marginal orbit count."""
    kept = list(dict.fromkeys(g for g in generators if not g.is_identity))
    sc = kept[0].scenario
    sizes = (sc.num_inputs * sc.num_outcomes, _marginal_offsets(sc)[-1])
    perms = {g: (loop_joint_event_perm(g), loop_marginal_event_perm(g)) for g in kept}

    def orbit_counts(gens):
        joint = bfs_orbit_ids([perms[h][0] for h in gens], sizes[0])
        marg = bfs_orbit_ids([perms[h][1] for h in gens], sizes[1])
        return len(np.unique(joint)), len(np.unique(marg))

    reduced = []
    counts = sizes
    for g in kept:
        trial = orbit_counts(reduced + [g])
        if trial[0] != counts[0] or (g.party_perm is not None and trial[1] != counts[1]):
            reduced.append(g)
            counts = trial
    return reduced


def integer_functional(scenario, values):
    return BellFunctional(
        scenario, {divmod(e, scenario.num_outcomes): v for e, v in enumerate(values)}
    )


def symmetrized(functional, g):
    """Sum of the functional's images under the powers of g: invariant under g."""
    total = dict(functional.coefficients)
    image = pushforward_functional(g, functional)
    while not image.same_coefficients(functional):
        for key, c in image.coefficients.items():
            total[key] = total.get(key, 0) + c
        image = pushforward_functional(g, image)
    return BellFunctional(functional.scenario, total)


@st.composite
def small_functionals(draw):
    """Integer functionals with few distinct values, optionally made invariant
    under a random relabeling so that the search has hits to order."""
    scenario = draw(st.sampled_from(SCENARIOS + [FOUR_PARTIES]))
    size = scenario.num_inputs * scenario.num_outcomes
    values = draw(st.lists(st.integers(-1, 1), min_size=size, max_size=size))
    functional = integer_functional(scenario, values)
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        functional = symmetrized(functional, random_relabeling(scenario, rng))
    return functional


@settings(max_examples=10, deadline=None)
@given(small_functionals(), st.booleans())
def test_search_matches_exhaustive_is_symmetry_loop(functional, include_party_perms):
    include_party_perms &= functional.scenario != FOUR_PARTIES
    found = find_symmetries(functional, include_party_perms=include_party_perms)
    assert found == oracle_symmetries(functional, include_party_perms)


def party_permutations(scenario):
    """The party permutations that preserve per-party setting counts."""
    return [
        pi
        for pi in itertools.permutations(range(scenario.parties))
        if all(scenario.settings[i] == scenario.settings[j] for i, j in enumerate(pi))
    ]


@st.composite
def party_symmetrized_functionals(draw, scenarios=SCENARIOS + [FOUR_PARTIES]):
    """Integer functionals made invariant under a random relabeling that may
    also permute the parties, so that hits with and without a party
    permutation occur."""
    scenario = draw(st.sampled_from(scenarios))
    size = scenario.num_inputs * scenario.num_outcomes
    values = draw(st.lists(st.integers(-1, 1), min_size=size, max_size=size))
    g = random_relabeling(scenario, np.random.default_rng(draw(st.integers(0, 2**16))))
    pi = draw(st.sampled_from(party_permutations(scenario)))
    g = Relabeling(scenario, g.input_perms, g.output_perms, pi)
    return symmetrized(integer_functional(scenario, values), g)


@settings(max_examples=25, deadline=None)
@given(party_symmetrized_functionals(), st.booleans())
def test_unchecked_hits_equal_checked_relabelings(functional, include_party_perms):
    """Every hit, built from its row without the checks of the
    ``Relabeling`` constructor, has the row the triple loop builds from its
    fields, and equals, hashes and prints as the tuple-built relabeling of
    the same blocks, with the same Python types; none is the identity.  On
    every pair among the first hits, their tuple-built copies and the
    identity, equality is equality of the fields."""
    sc = functional.scenario
    hits = find_symmetries(functional, include_party_perms=include_party_perms)
    tuple_built = [Relabeling(sc, *fields(g)) for g in hits]
    for g, checked in zip(hits, tuple_built):
        assert np.array_equal(g._images, loop_marginal_event_perm(g))
        assert g == checked
        assert hash(g) == hash(checked)
        assert repr(g) == repr(checked)
        assert not checked.is_identity
        assert include_party_perms or g.party_perm is None
    pool = [*hits[:12], *tuple_built[:12], identity_relabeling(sc)]
    for g, h in itertools.product(pool, repeat=2):
        assert (g == h) == (fields(g) == fields(h))


def seeded_symmetric_functional(scenario):
    rng = np.random.default_rng(scenario.num_inputs * scenario.num_outcomes)
    values = rng.integers(-1, 2, size=scenario.num_inputs * scenario.num_outcomes)
    return symmetrized(
        integer_functional(scenario, values.tolist()), random_relabeling(scenario, rng)
    )


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("include_party_perms", [False, True])
@pytest.mark.parametrize("gather_elements", [None, 1], ids=["default-chunks", "one-head-per-gather"])
def test_search_matches_exhaustive_loop_on_every_scenario(
    scenario, include_party_perms, gather_elements
):
    functional = seeded_symmetric_functional(scenario)
    with mock.patch.object(
        bellcert.symmetry, "_GATHER_ELEMENTS", gather_elements or bellcert.symmetry._GATHER_ELEMENTS
    ):
        found = find_symmetries(functional, include_party_perms=include_party_perms)
    assert found
    assert found == oracle_symmetries(functional, include_party_perms)


def test_four_party_search_matches_exhaustive_loop():
    functional = seeded_symmetric_functional(FOUR_PARTIES)
    found = find_symmetries(functional)
    assert found
    assert found == oracle_symmetries(functional, False)


@pytest.mark.parametrize(
    "functional, count",
    [(mermin(n), 2 ** (2 * n - 1) - 1) for n in (3, 4, 5, 6)]
    + [(chained_correlator(m), 4 * m - 1) for m in (3, 4, 5)],
    ids=[f"mermin{n}" for n in (3, 4, 5, 6)] + [f"chained{m}" for m in (3, 4, 5)],
)
def test_closed_form_symmetry_counts(functional, count):
    found = find_symmetries(functional)
    assert len(found) == count
    assert len(set(found)) == count


@pytest.mark.parametrize("scenario", SCENARIOS + [lifted_chsh_c().scenario])
@pytest.mark.parametrize("include_party_perms", [False, True])
def test_search_space_size_counts_scanned_candidates(scenario, include_party_perms):
    scanned = sum(1 for _ in oracle_candidates(scenario, include_party_perms))
    assert search_space_size(scenario, include_party_perms) == scanned


def test_party_perms_that_change_setting_counts_are_not_counted():
    f = lifted_chsh_c()
    assert search_space_size(f.scenario, include_party_perms=True) == 256
    found = find_symmetries(f, include_party_perms=True, cap=256)
    assert found == oracle_symmetries(f, True)


@pytest.mark.parametrize(
    "functional, include_party_perms",
    [
        (mermin(4), False),
        (mermin(3), True),
        (chsh(), False),
        (chained_correlator(3), False),
        (mermin(3), False),
    ],
)
def test_generator_reduction_matches_orbit_recount(functional, include_party_perms):
    sc = functional.scenario
    found = find_symmetries(functional, include_party_perms=include_party_perms)
    cert = certify_uniform(functional, found, JointQuery(sc.input_tuple(0)))
    kept = recount_reduce(found)
    assert cert.generators == tuple(kept)
    n_joint, n_marg = sc.num_inputs * sc.num_outcomes, _marginal_offsets(sc)[-1]
    joint = bfs_orbit_ids([loop_joint_event_perm(g) for g in kept], n_joint)
    marg = bfs_orbit_ids([loop_marginal_event_perm(g) for g in kept], n_marg)
    assert np.array_equal(cert.joint_orbits, joint)
    assert np.array_equal(cert.marginal_orbits, marg)
    # the full symmetry list closes to the same partitions
    assert np.array_equal(
        joint,
        bfs_orbit_ids([loop_joint_event_perm(g) for g in found], n_joint),
    )
    assert np.array_equal(
        cert.marginal_orbits,
        bfs_orbit_ids([loop_marginal_event_perm(g) for g in found], n_marg),
    )


@settings(max_examples=20, deadline=None)
@given(
    party_symmetrized_functionals(SCENARIOS),
    st.booleans(),
    st.integers(0, 2**16),
    st.sampled_from([None, 1, 200]),
)
def test_generator_pass_drops_identities_and_duplicates(
    functional, include_party_perms, seed, gather_elements
):
    """The keep rule alone drops identities and repeats: on a shuffled list
    of symmetries with both inserted, the pass keeps exactly the recount's
    generators, in order, and closes to the orbits of the deduplicated list.
    Small gather budgets put every generator, or a few, in a chunk of its own."""
    sc = functional.scenario
    found = find_symmetries(functional, include_party_perms=include_party_perms)
    assume(found)
    rng = np.random.default_rng(seed)
    sample = [found[i] for i in rng.choice(len(found), size=min(len(found), 10), replace=False)]
    identity = identity_relabeling(sc)
    spelled_out = Relabeling(
        sc, identity.input_perms, identity.output_perms, tuple(range(sc.parties))
    )
    repeats = [sample[i] for i in rng.integers(0, len(sample), size=4)]
    pool = [*sample, identity, spelled_out, *repeats]
    generators = [pool[i] for i in rng.permutation(len(pool))]
    query = JointQuery(sc.input_tuple(0))
    with mock.patch.object(
        bellcert.symmetry, "_GATHER_ELEMENTS", gather_elements or bellcert.symmetry._GATHER_ELEMENTS
    ):
        cert = certify_uniform(functional, generators, query)
    assert cert.generators == tuple(recount_reduce(generators))
    deduplicated = list(dict.fromkeys(g for g in generators if not g.is_identity))
    reference = certify_uniform(functional, deduplicated, query)
    assert cert.generators == reference.generators
    assert np.array_equal(cert.joint_orbits, reference.joint_orbits)
    assert np.array_equal(cert.marginal_orbits, reference.marginal_orbits)


@settings(max_examples=25, deadline=None)
@given(
    party_symmetrized_functionals(SCENARIOS),
    st.booleans(),
    st.booleans(),
    st.booleans(),
    st.booleans(),
    st.integers(0, 2**16),
    st.sampled_from([1, 200]),
)
def test_generator_pass_skips_products_of_earlier_generators(
    functional, include_party_perms, halved, shuffled, padded, seed, gather_elements
):
    """Gathers this small make the pass skip the generators that are
    products of two listed before them.  On symmetry lists, whole or a
    random half (where products may be missing), in search order or
    shuffled, with identities and repeats inserted or not, it keeps exactly
    the recount's generators and closes to the breadth-first orbits of the
    whole list.  Each skipped generator is a @ k for its predecessor a and an
    entry k listed before it, the same rows mark the same in int64 and in the
    narrow dtype, and a non-symmetry planted anywhere still raises."""
    sc = functional.scenario
    found = find_symmetries(functional, include_party_perms=include_party_perms)
    rng = np.random.default_rng(seed)
    generators = [g for g in found if not halved or rng.random() < 0.5]
    assume(generators)
    if shuffled:
        generators = [generators[i] for i in rng.permutation(len(generators))]
    if padded:
        extras = [identity_relabeling(sc)] * 2 + [found[i] for i in rng.integers(0, len(found), 4)]
        for extra in extras:
            generators.insert(int(rng.integers(len(generators) + 1)), extra)
    patched = mock.patch.object(bellcert.symmetry, "_GATHER_ELEMENTS", gather_elements)
    with patched:
        cert = certify_uniform(functional, generators, JointQuery(sc.input_tuple(0)))
        rows = np.array([g._images for g in generators])
        marked = np.flatnonzero(_products(rows))
        # certification hands the pass its rows in the narrowest dtype that holds them
        narrow = np.flatnonzero(_products(rows.astype(np.min_scalar_type(rows.shape[1]))))
    assert np.array_equal(narrow, marked)
    assert cert.generators == tuple(recount_reduce(generators))
    n_joint, n_marg = sc.num_inputs * sc.num_outcomes, _marginal_offsets(sc)[-1]
    joint = bfs_orbit_ids([loop_joint_event_perm(g) for g in generators], n_joint)
    marg = bfs_orbit_ids([loop_marginal_event_perm(g) for g in generators], n_marg)
    assert np.array_equal(cert.joint_orbits, joint)
    assert np.array_equal(cert.marginal_orbits, marg)

    first = {}
    for i, g in enumerate(generators):
        first.setdefault(g, i)
    for i in marked:
        assert first.get(generators[i - 1].inverse() @ generators[i], i) < i

    candidates = (random_relabeling(sc, rng) for _ in range(20))
    planted = next((h for h in candidates if not is_symmetry(h, functional)), None)
    if planted is not None:  # else every relabeling drawn is a symmetry
        generators.insert(int(rng.integers(len(generators) + 1)), planted)
        with patched, pytest.raises(ValidationError, match="not a symmetry"):
            certify_uniform(functional, generators)


@pytest.mark.parametrize(
    "n, include_party_perms, gathered",
    [(4, False, 7), (5, False, 9), (7, False, 13), (3, True, 7), (4, True, 11), (5, True, 15)],
)
def test_search_ordered_hits_leave_few_rows_to_gather(n, include_party_perms, gathered):
    """Consecutive hits of the search mostly differ by one of its first hits,
    so of mermin(7)'s 8191 symmetries the pass gathers 13."""
    rows = _symmetry_rows(mermin(n), include_party_perms)
    assert np.count_nonzero(~_products(rows)) == gathered


@pytest.mark.parametrize("scenario", SCENARIOS + [lifted_chsh_c().scenario])
def test_batched_event_perms_match_the_loops(scenario):
    rng = np.random.default_rng(scenario.num_inputs + scenario.num_outcomes)
    gens = []
    for pi in itertools.permutations(range(scenario.parties)):
        if all(scenario.settings[i] == scenario.settings[j] for i, j in enumerate(pi)):
            g = random_relabeling(scenario, rng)
            gens.append(Relabeling(scenario, g.input_perms, g.output_perms, pi))
    marginal = np.array([g._images for g in gens])
    joint = _joint_perms(scenario, marginal)
    assert np.array_equal(joint, [loop_joint_event_perm(g) for g in gens])
    assert np.array_equal(marginal, [loop_marginal_event_perm(g) for g in gens])
    for g in gens:
        assert all(map(np.array_equal, g.event_maps, loop_event_maps(g)))
    marginal = np.empty((0, _marginal_offsets(scenario)[-1]), dtype=np.int64)
    joint = _joint_perms(scenario, marginal)
    assert joint.shape == (0, scenario.num_inputs * scenario.num_outcomes)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 40), st.integers(0, 4), st.integers(0, 2**16))
def test_orbit_ids_match_breadth_first_closure(n_events, n_perms, seed):
    rng = np.random.default_rng(seed)
    perms = [rng.permutation(n_events) for _ in range(n_perms)]
    labels = np.arange(n_events)
    for perm in perms:
        labels = _join(labels, perm)
    ids = np.unique(labels, return_inverse=True)[1]
    assert np.array_equal(ids, bfs_orbit_ids(perms, n_events))


def test_non_symmetry_among_duplicates_still_raises():
    f = chsh()
    found = find_symmetries(f)
    # flipping the outcomes of one setting of one party is no symmetry of CHSH
    flip = Relabeling(f.scenario, ((0, 1), (0, 1)), (((1, 0), (0, 1)), ((0, 1), (0, 1))))
    assert not is_symmetry(flip, f)
    # placed after a closing set of generators, so the keep rule would drop it
    generators = [*found, found[0], flip, *found, flip]
    with pytest.raises(ValidationError, match="not a symmetry"):
        certify_uniform(f, generators, JointQuery((0, 0)))


def test_generator_of_another_scenario_after_closing_generators_still_raises():
    f = chsh()
    found = find_symmetries(f)
    # placed after a closing set of generators, so the keep rule would drop it
    generators = [*found, identity_relabeling(Scenario((2, 2), 3))]
    with pytest.raises(ScenarioMismatchError, match="does not match"):
        certify_uniform(f, generators, JointQuery((0, 0)))


def loop_orbit_equality_violation(cert, behavior):
    """The boolean mask per orbit that the grouped max − min replaced."""
    sc = cert.functional.scenario
    offsets = _marginal_offsets(sc)
    marg_vals = np.empty(offsets[-1])
    for i in range(sc.parties):
        for x in range(sc.settings[i]):
            base = offsets[i] + x * sc.outcomes
            marg_vals[base : base + sc.outcomes] = marginal(behavior, (i,), (x,))
    joint = behavior.table.reshape(-1)
    return max(
        float(np.ptp(values[ids == oid]))
        for values, ids in ((joint, cert.joint_orbits), (marg_vals, cert.marginal_orbits))
        for oid in np.unique(ids)
    )


@settings(max_examples=30, deadline=None)
@given(party_symmetrized_functionals(), st.booleans())
def test_row_path_equals_object_path(functional, include_party_perms):
    """The search's rows are the stacked images of :func:`find_symmetries`'
    hits; the certificate built from them and their listing equal those the
    public functions build from the hits."""
    sc = functional.scenario
    found = find_symmetries(functional, include_party_perms=include_party_perms)
    rows = _symmetry_rows(functional, include_party_perms)
    assert rows.dtype == np.int64 and not rows.flags.writeable
    assert rows.shape == (len(found), _marginal_offsets(sc)[-1])
    assert np.array_equal(rows, np.array([g._images for g in found]).reshape(rows.shape))

    from_rows, from_hits = _orbit_closure(functional, rows), certify_uniform(functional, found)
    assert from_rows.generators == from_hits.generators
    assert np.array_equal(from_rows.joint_orbits, from_hits.joint_orbits)
    assert np.array_equal(from_rows.marginal_orbits, from_hits.marginal_orbits)
    for g in from_rows.generators:  # its own int64 row, not a view of the hit matrix
        assert g._images.dtype == np.int64 and g._images.base is None

    assert _relabeling_dicts(sc, rows) == [relabeling_to_dict(g) for g in found]


@settings(max_examples=30, deadline=None)
@given(
    party_symmetrized_functionals(),
    st.booleans(),
    st.integers(0, 2**16),
    st.integers(1, 8),
)
def test_grouped_orbit_spread_matches_per_orbit_loop(
    functional, include_party_perms, seed, components
):
    """Bit for bit, on certificates from random subsets of the symmetries and
    random local behaviors (few components give many tied probabilities)."""
    sc = functional.scenario
    found = find_symmetries(functional, include_party_perms=include_party_perms)
    rng = np.random.default_rng(seed)
    subset = [g for g in found if rng.random() < 0.5]
    cert = certify_uniform(functional, subset, JointQuery(sc.input_tuple(0)))
    for behavior in (random_ns_behavior(sc, rng, components), random_ns_behavior(sc, rng)):
        fast = orbit_equality_violation(cert, behavior)
        assert type(fast) is float
        assert fast.hex() == loop_orbit_equality_violation(cert, behavior).hex()


@settings(max_examples=30, deadline=None)
@given(
    party_symmetrized_functionals(),
    st.booleans(),
    st.integers(0, 2**16),
    st.sampled_from([0.0, 0.3, 1.0]),
)
def test_tabled_bits_equal_log2_of_the_smallest_class(functional, include_party_perms, seed, keep):
    """At every query, on certificates from random subsets of the symmetries
    (the empty one among them), the looked-up bits are log2 of the smallest
    class ``_classes`` groups from the query's orbit ids."""
    sc = functional.scenario
    found = find_symmetries(functional, include_party_perms=include_party_perms)
    rng = np.random.default_rng(seed)
    cert = certify_uniform(functional, [g for g in found if rng.random() < keep])
    joint, local = _queries(sc)
    offsets = _marginal_offsets(sc)
    for q in joint:
        x = sc.input_index(q.settings) * sc.num_outcomes
        ids = cert.joint_orbits[x : x + sc.num_outcomes]
        want = math.log2(min(len(c) for c in _classes(ids)))
        assert cert.certified_bits(q).hex() == want.hex()
    for q in local:
        base = offsets[q.party] + q.setting * sc.outcomes
        ids = cert.marginal_orbits[base : base + sc.outcomes]
        want = math.log2(min(len(c) for c in _classes(ids)))
        assert cert.certified_bits(q).hex() == want.hex()


def _fields(query, **values):
    """The query with fields its constructor would refuse."""
    for name, value in values.items():
        object.__setattr__(query, name, value)
    return query


@pytest.mark.parametrize(
    "query, message",
    [
        (JointQuery((2, 0)), "setting of party 0 must be an integer in 0..1, got 2"),
        (JointQuery((0, 0, 0)), "settings must have 2 entries, got (0, 0, 0)"),
        (
            _fields(JointQuery((0, 0)), settings=(-1, 0)),
            "setting of party 0 must be an integer in 0..1, got -1",
        ),
        (
            _fields(JointQuery((0, 0)), settings=(0, True)),
            "setting of party 1 must be an integer in 0..1, got True",
        ),
        (LocalQuery(2, 0), "party must be an integer in 0..1, got 2"),
        (LocalQuery(1, 2), "setting of party 1 must be an integer in 0..1, got 2"),
        (_fields(LocalQuery(0, 0), party=-1), "party must be an integer in 0..1, got -1"),
        (_fields(LocalQuery(0, 0), party=True), "party must be an integer in 0..1, got True"),
        (
            _fields(LocalQuery(0, 0), setting=-2),
            "setting of party 0 must be an integer in 0..1, got -2",
        ),
        (
            _fields(LocalQuery(0, 0), setting=False),
            "setting of party 0 must be an integer in 0..1, got False",
        ),
    ],
)
def test_tabled_bits_refuse_bad_queries_as_the_class_listing_does(query, message):
    cert = certify_uniform(chsh(), find_symmetries(chsh()))
    for lookup in (cert.certified_bits, cert._query_classes):
        with pytest.raises(ValidationError) as raised:
            lookup(query)
        assert str(raised.value) == message


def test_orbit_equality_violation_is_exported():
    assert "orbit_equality_violation" in bellcert.__all__
    assert bellcert.orbit_equality_violation is bellcert.symmetry.orbit_equality_violation
