"""Relabeling actions, symmetry search, and uniformity certificates."""

import copy
import itertools
import json
import math
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellcert import (
    CapExceededError,
    JointQuery,
    LocalQuery,
    Relabeling,
    Scenario,
    SearchCapExceededError,
    ValidationError,
    apply_to_behavior,
    certify_all,
    certify_uniform,
    chained_correlator,
    chained_modular,
    chsh,
    deterministic_behavior,
    evaluate,
    evaluate_on_strategy,
    find_symmetries,
    global_outcome_flip,
    identity_relabeling,
    is_no_signaling,
    is_symmetry,
    local_bound,
    mermin,
    outcome_shift,
    pushforward_functional,
    relabeling_from_dict,
    relabeling_to_dict,
    tilted_chsh,
    uniform_behavior,
)
from bellcert.symmetry import UNIQUENESS_NOTE, UniformityCertificate, orbit_equality_violation

from conftest import (
    random_behavior,
    random_ns_behavior,
    random_relabeling,
    random_small_scenario,
)
from grid_oracles import brute_force_symmetries


def tilted_transformation(scenario=None):
    """Flip party 0's outcome at its second setting and swap party 1's settings."""
    sc = scenario or Scenario((2, 2), 2)
    return Relabeling(sc, ((0, 1), (1, 0)), (((0, 1), (1, 0)), ((0, 1), (0, 1))))


class TestRelabelingStructure:
    def test_validation(self):
        sc = Scenario((2, 2), 2)
        with pytest.raises(ValidationError):
            Relabeling(sc, ((0, 0), (0, 1)), (((0, 1), (0, 1)), ((0, 1), (0, 1))))
        with pytest.raises(ValidationError):
            Relabeling(sc, ((0, 1),), (((0, 1), (0, 1)),))

    def test_party_perm_profile_check(self):
        sc = Scenario((2, 1), 2)
        ident_in = ((0, 1), (0,))
        ident_out = (((0, 1), (0, 1)), ((0, 1),))
        with pytest.raises(ValidationError):
            Relabeling(sc, ident_in, ident_out, party_perm=(1, 0))

    def test_identity(self):
        sc = Scenario((2, 3), 3)
        assert identity_relabeling(sc).is_identity

    def test_copies_and_pickles_are_equal_and_immutable(self):
        g = find_symmetries(chsh(), include_party_perms=True)[-1]
        for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
            assert twin == g and hash(twin) == hash(g) and repr(twin) == repr(g)
            assert not twin._images.flags.writeable
            with pytest.raises(AttributeError):
                twin.scenario = None

    def test_json_round_trip(self, rng):
        for _ in range(10):
            sc = random_small_scenario(rng)
            g = random_relabeling(sc, rng)
            data = json.loads(json.dumps(relabeling_to_dict(g)))
            assert relabeling_from_dict(sc, data) == g

    @pytest.mark.parametrize(
        "data",
        [
            {},
            {"parties": [{"input_perm": [0, 1]}, {"input_perm": [0, 1]}]},
            {"parties": 3},
            {"parties": [{"input_perm": ["a", 1], "output_perms": [[0, 1], [0, 1]]}] * 2},
        ],
        ids=["empty", "no-output-perms", "parties-not-a-list", "non-integer-entry"],
    )
    def test_malformed_json_is_a_validation_error(self, data):
        with pytest.raises(ValidationError, match="malformed relabeling"):
            relabeling_from_dict(Scenario((2, 2), 2), data)

    @pytest.mark.parametrize(
        "party_perm, message",
        [
            # not sequences: malformed entries of the document
            (0, "^malformed relabeling: party permutation must be a sequence, got 0$"),
            (False, "^malformed relabeling: party permutation must be a sequence, got False$"),
            # empty sequences: no permutation of the two parties, like an empty input_perm
            ([], r"^party permutation \(\) is not a permutation of 0\.\.1$"),
            ("", r"^party permutation \(\) is not a permutation of 0\.\.1$"),
            ({}, r"^party permutation \(\) is not a permutation of 0\.\.1$"),
        ],
        ids=["zero", "false", "empty-list", "empty-string", "empty-mapping"],
    )
    def test_a_falsy_party_perm_is_no_identity(self, party_perm, message):
        """Only an absent ``party_perm`` or ``null`` is the identity."""
        sc = Scenario((2, 2), 2)
        data = {**relabeling_to_dict(identity_relabeling(sc)), "party_perm": party_perm}
        with pytest.raises(ValidationError, match=message):
            relabeling_from_dict(sc, data)

    def test_an_absent_or_null_party_perm_is_the_identity(self):
        sc = Scenario((2, 2), 2)
        data = relabeling_to_dict(identity_relabeling(sc))
        assert data["party_perm"] is None
        absent = {k: v for k, v in data.items() if k != "party_perm"}
        for given_data in (data, absent, {**data, "party_perm": [0, 1]}):
            assert relabeling_from_dict(sc, given_data) == identity_relabeling(sc)
        swapped = relabeling_from_dict(sc, {**data, "party_perm": [1, 0]})
        assert swapped.party_perm == (1, 0) and not swapped.is_identity


class TestGroupActions:
    def test_identity_action(self):
        b = uniform_behavior(Scenario((2, 2), 2))
        g = identity_relabeling(b.scenario)
        assert np.array_equal(apply_to_behavior(g, b).table, b.table)

    def test_uniform_fixed_by_everything(self, rng):
        sc = Scenario((2, 2), 3)
        b = uniform_behavior(sc)
        for _ in range(10):
            g = random_relabeling(sc, rng)
            assert np.array_equal(apply_to_behavior(g, b).table, b.table)

    def test_composition_law_seeded(self, rng):
        for _ in range(60):
            sc = random_small_scenario(rng)
            g = random_relabeling(sc, rng)
            h = random_relabeling(sc, rng)
            p = random_behavior(sc, rng)
            lhs = apply_to_behavior(g, apply_to_behavior(h, p))
            rhs = apply_to_behavior(g @ h, p)
            assert np.array_equal(lhs.table, rhs.table)

    def test_inverse_law_seeded(self, rng):
        for _ in range(60):
            sc = random_small_scenario(rng)
            g = random_relabeling(sc, rng)
            assert (g.inverse() @ g).is_identity
            assert (g @ g.inverse()).is_identity

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_group_laws_hypothesis(self, seed):
        rng = np.random.default_rng(seed)
        sc = random_small_scenario(rng)
        g = random_relabeling(sc, rng)
        h = random_relabeling(sc, rng)
        p = random_behavior(sc, rng)
        assert np.array_equal(
            apply_to_behavior(g @ h, p).table,
            apply_to_behavior(g, apply_to_behavior(h, p)).table,
        )
        assert np.array_equal(
            apply_to_behavior(g.inverse(), apply_to_behavior(g, p)).table, p.table
        )

    def test_party_permutation_action(self):
        sc = Scenario((2, 2), 2)
        swap = Relabeling(
            sc,
            ((0, 1), (0, 1)),
            (((0, 1), (0, 1)), ((0, 1), (0, 1))),
            party_perm=(1, 0),
        )
        b = deterministic_behavior(sc, ((0, 1), (0, 0)))
        moved = apply_to_behavior(swap, b)
        expected = deterministic_behavior(sc, ((0, 0), (0, 1)))
        assert np.array_equal(moved.table, expected.table)

    def test_duality_seeded(self, rng):
        for _ in range(40):
            sc = random_small_scenario(rng, two_outcome=True)
            g = random_relabeling(sc, rng)
            p = random_behavior(sc, rng)
            # random dyadic functional
            coeffs = {}
            for x in range(sc.num_inputs):
                for a in range(sc.num_outcomes):
                    if rng.random() < 0.5:
                        coeffs[(x, a)] = Fraction(int(rng.integers(-8, 9)), 4)
            from bellcert import BellFunctional

            f = BellFunctional(sc, coeffs)
            lhs = evaluate(pushforward_functional(g, f), p)
            rhs = evaluate(f, apply_to_behavior(g.inverse(), p))
            assert abs(lhs - rhs) < 1e-12

    def test_no_signaling_preserved(self, rng):
        for _ in range(30):
            sc = random_small_scenario(rng)
            b = random_ns_behavior(sc, rng)
            g = random_relabeling(sc, rng)
            ok_before, worst_before = is_no_signaling(b)
            ok_after, worst_after = is_no_signaling(apply_to_behavior(g, b))
            assert ok_before and ok_after
            assert abs(worst_before - worst_after) < 1e-12


class TestPushforward:
    def test_identity(self):
        f = chsh()
        g = identity_relabeling(f.scenario)
        assert pushforward_functional(g, f).same_coefficients(f)

    def test_g_then_inverse(self, rng):
        f = tilted_chsh(0.5)
        for _ in range(20):
            g = random_relabeling(f.scenario, rng)
            back = pushforward_functional(g.inverse(), pushforward_functional(g, f))
            assert back.same_coefficients(f)

    def test_global_flip_fixes_chsh(self):
        f = chsh()
        assert pushforward_functional(global_outcome_flip(f.scenario), f).same_coefficients(f)


class TestIsSymmetry:
    def test_global_flip_is_chsh_symmetry(self):
        assert is_symmetry(global_outcome_flip(Scenario((2, 2), 2)), chsh())

    def test_tilted_transformation(self):
        assert is_symmetry(tilted_transformation(), tilted_chsh(0.5))

    def test_single_flip_is_not(self):
        sc = Scenario((2, 2), 2)
        g = Relabeling(sc, ((0, 1), (0, 1)), (((1, 0), (0, 1)), ((0, 1), (0, 1))))
        assert not is_symmetry(g, chsh())


class TestFindSymmetries:
    def test_chsh_matches_brute_force(self):
        found = find_symmetries(chsh())
        oracle = brute_force_symmetries(chsh())
        assert set(found) == set(oracle)
        assert len(found) >= 2
        assert global_outcome_flip(Scenario((2, 2), 2)) in found
        assert tilted_transformation() in found  # also a CHSH symmetry

    def test_tilted_matches_brute_force(self):
        found = find_symmetries(tilted_chsh(0.5))
        assert set(found) == set(brute_force_symmetries(tilted_chsh(0.5)))
        assert found == (tilted_transformation(),)

    def test_generic_coefficients_admit_no_symmetry(self, rng):
        sc = Scenario((2, 2), 2)
        from bellcert import BellFunctional

        coeffs = {
            (x, a): Fraction(int(rng.integers(1, 2**20)), 2**10)
            for x in range(sc.num_inputs)
            for a in range(sc.num_outcomes)
        }
        f = BellFunctional(sc, coeffs)
        assert find_symmetries(f) == ()

    def test_mermin3_contains_party_flip_composites(self):
        f = mermin(3)
        found = set(find_symmetries(f))
        sc = f.scenario
        for x in itertools.product(range(2), repeat=3):
            if sum(x) % 2 != 0:
                continue
            for party in range(3):
                # flip the chosen party's outcome at its setting in x and
                # every other party's outcome at the complementary setting
                outs = []
                for j in range(3):
                    flip_at = x[j] if j == party else 1 - x[j]
                    perms = [(0, 1), (0, 1)]
                    perms[flip_at] = (1, 0)
                    outs.append(tuple(perms))
                g = Relabeling(sc, ((0, 1),) * 3, tuple(outs))
                assert is_symmetry(g, f)
                assert g in found

    def test_party_perms_enlarge_chsh_group(self):
        plain = find_symmetries(chsh())
        with_swap = find_symmetries(chsh(), include_party_perms=True)
        assert len(with_swap) > len(plain)
        assert any(g.party_perm == (1, 0) for g in with_swap)

    def test_cap(self):
        message = "^64 candidate relabelings exceed the cap of 10$"
        with pytest.raises(SearchCapExceededError, match=message):
            find_symmetries(chsh(), cap=10)
        assert issubclass(SearchCapExceededError, CapExceededError)  # one class for every cap

    def test_shift_found_for_chained(self):
        for m, d in [(2, 3), (3, 2)]:
            f = chained_modular(m, d)
            assert outcome_shift(f.scenario) in find_symmetries(f)

    def test_deterministic_output_order(self):
        assert find_symmetries(chsh()) == find_symmetries(chsh())
        assert find_symmetries(mermin(3)) == find_symmetries(mermin(3))


class TestCertification:
    def test_chsh_local_bit(self):
        f = chsh()
        cert = certify_uniform(f, [global_outcome_flip(f.scenario)], LocalQuery(0, 0))
        assert cert.certified_bits(LocalQuery(0, 0)) == 1.0
        assert cert.certified_bits(LocalQuery(1, 1)) == 1.0

    def test_chsh_joint_classes(self):
        f = chsh()
        cert = certify_uniform(f, [global_outcome_flip(f.scenario)], JointQuery((0, 0)))
        assert cert.joint_classes((0, 0)) == [[0, 3], [1, 2]]
        assert cert.certified_bits(JointQuery((0, 0))) == 1.0

    def test_chained_global_two_bits_from_stated_generators(self):
        f = chained_correlator(3)
        sc = f.scenario
        flip = global_outcome_flip(sc)
        swap = Relabeling(
            sc,
            ((0, 2, 1), (2, 1, 0)),
            (((1, 0), (0, 1), (0, 1)), ((0, 1), (0, 1), (0, 1))),
        )
        assert is_symmetry(swap, f)
        cert = certify_uniform(f, [flip, swap], JointQuery((0, 1)))
        assert cert.certified_bits(JointQuery((0, 1))) == 2.0

    def test_mermin3_three_bits(self):
        f = mermin(3)
        cert = certify_uniform(f, find_symmetries(f), JointQuery((0, 0, 0)))
        assert cert.certified_bits(JointQuery((0, 0, 0))) == 3.0

    def test_rejects_non_symmetry(self):
        f = chsh()
        bad = Relabeling(
            f.scenario, ((0, 1), (0, 1)), (((1, 0), (0, 1)), ((0, 1), (0, 1)))
        )
        with pytest.raises(ValidationError, match="not a symmetry"):
            certify_uniform(f, [bad], LocalQuery(0, 0))

    def test_empty_generators_certify_nothing(self):
        f = chsh()
        cert = certify_uniform(f, [], JointQuery((0, 0)))
        assert cert.certified_bits(JointQuery((0, 0))) == 0.0
        assert cert.certified_bits(LocalQuery(0, 0)) == 0.0

    def test_bits_bounded_by_scenario(self, rng):
        for f in (chsh(), chained_modular(2, 3), mermin(3)):
            sweep = certify_all(f, find_symmetries(f))
            n = f.scenario.parties
            d = f.scenario.outcomes
            for q, bits in sweep.items():
                cap = n * math.log2(d) if isinstance(q, JointQuery) else math.log2(d)
                assert bits <= cap + 1e-12

    def test_certify_all_chsh(self):
        sweep = certify_all(chsh(), find_symmetries(chsh()))
        for q, bits in sweep.items():
            assert bits == 1.0, q

    def test_certify_all_chained_shift(self):
        for m, d in [(2, 3), (3, 2), (4, 2)]:
            f = chained_modular(m, d)
            sweep = certify_all(f, [outcome_shift(f.scenario)])
            for q, bits in sweep.items():
                if isinstance(q, LocalQuery):
                    assert bits == pytest.approx(math.log2(d), abs=1e-12)

    def test_mermin4_max_three_bits(self):
        sweep = certify_all(mermin(4), find_symmetries(mermin(4)))
        joint = [b for q, b in sweep.items() if isinstance(q, JointQuery)]
        assert max(joint) == 3.0

    def test_assumption_flag(self):
        f = chsh()
        cert = certify_uniform(f, [global_outcome_flip(f.scenario)], LocalQuery(0, 0))
        assert cert.assumes_unique_maximizer is True
        assert "unique" in cert.assumption

    @pytest.mark.parametrize(
        "name, value",
        [("query", LocalQuery(0, 0)), ("assumes_unique_maximizer", False), ("assumption", "")],
    )
    def test_uniqueness_and_query_are_not_constructor_arguments(self, name, value):
        f = chsh()
        cert = certify_uniform(f, [global_outcome_flip(f.scenario)])
        with pytest.raises(TypeError):
            UniformityCertificate(
                f, cert.generators, cert.joint_orbits, cert.marginal_orbits, **{name: value}
            )

    def test_uniqueness_belongs_to_the_type(self):
        f = chsh()
        cert = certify_uniform(f, [global_outcome_flip(f.scenario)])
        assert (cert.assumes_unique_maximizer, cert.assumption) == (True, UNIQUENESS_NOTE)
        assert "assumption" not in vars(cert)
        with pytest.raises(FrozenInstanceError):
            cert.assumption = ""

    def test_query_is_checked_and_not_recorded(self):
        f = chsh()
        gens = [global_outcome_flip(f.scenario)]
        with pytest.raises(ValidationError):
            certify_uniform(f, gens, LocalQuery(5, 0))
        with pytest.raises(ValidationError):
            certify_uniform(f, gens, JointQuery((0, 7)))
        assert not hasattr(certify_uniform(f, gens, LocalQuery(0, 0)), "query")


class TestClassicalSymmetryBreaking:
    @pytest.mark.parametrize(
        "factory",
        [chsh, lambda: tilted_chsh(0.5), lambda: chained_correlator(3), lambda: mermin(3)],
    )
    def test_symmetry_maps_maximizers_to_maximizers(self, factory):
        f = factory()
        generators = find_symmetries(f)
        assert generators
        report = local_bound(f)
        assert report.maximizer_count >= 2
        maximizers = set(report.maximizers)
        for g in generators:
            for s in report.maximizers:
                image = g.apply_to_strategy(s)
                assert evaluate_on_strategy(f, image) == report.bound
                assert image in maximizers


class TestOrbitEqualityViolation:
    def test_uniform_behavior_is_exactly_invariant(self):
        f = chsh()
        cert = certify_uniform(f, find_symmetries(f), JointQuery((0, 0)))
        assert orbit_equality_violation(cert, uniform_behavior(f.scenario)) == 0.0

    def test_detects_asymmetric_behavior(self):
        f = chsh()
        cert = certify_uniform(f, [global_outcome_flip(f.scenario)], JointQuery((0, 0)))
        b = deterministic_behavior(f.scenario, ((0, 0), (0, 0)))
        assert orbit_equality_violation(cert, b) == 1.0

    def test_global_flip_fixes_the_chsh_optimum(self):
        # the unique maximally violating behavior must be a fixed point of
        # every symmetry; checked numerically on the see-saw output
        from bellcert import optimize_violation

        f = chsh()
        res = optimize_violation(f, seed=1)
        moved = apply_to_behavior(global_outcome_flip(f.scenario), res.behavior)
        assert np.abs(moved.table - res.behavior.table).max() < 2e-4


class TestCertificateJson:
    def test_shape(self):
        from bellcert import certificate_to_dict

        f = chsh()
        cert = certify_uniform(f, [global_outcome_flip(f.scenario)], JointQuery((0, 0)))
        data = certificate_to_dict(cert)
        assert data["assumes_unique_maximizer"] is True
        assert "unique" in data["assumption"]
        assert len(data["generators"]) == 1
        assert data["joint"]["x=0,0"]["bits"] == 1.0
        assert data["joint"]["x=0,0"]["classes"] == [[0, 3], [1, 2]]
        assert data["local"]["party=0,setting=0"]["bits"] == 1.0
