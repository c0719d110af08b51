"""Observed and certified randomness reports."""

import math

import numpy as np
import pytest

from bellcert import (
    JointQuery,
    LocalQuery,
    RandomnessReport,
    Scenario,
    ValidationError,
    behavior_from_model,
    certified_report,
    certify_uniform,
    chained_correlator,
    chained_modular,
    chsh,
    deterministic_behavior,
    find_symmetries,
    global_outcome_flip,
    guessing_probability,
    mermin,
    min_entropy,
    observed_report,
    optimize_violation,
    outcome_shift,
    report_to_dict,
    tilted_chsh,
    uniform_behavior,
)
from bellcert.symmetry import UNIQUENESS_NOTE

from conftest import canonical_chsh_model, random_ns_behavior, random_small_scenario


def _report(kind: str) -> RandomnessReport:
    """An observed report of the uniform CHSH behavior, or a certified one."""
    f = chsh()
    if kind == "observed":
        return observed_report(uniform_behavior(f.scenario), LocalQuery(0, 0))
    return certified_report(certify_uniform(f, find_symmetries(f)), LocalQuery(0, 0))


class TestGuessingProbability:
    def test_uniform(self):
        b = uniform_behavior(Scenario((2, 2), 2))
        assert guessing_probability(b, (0, 0)) == pytest.approx(0.25)

    def test_deterministic(self):
        b = deterministic_behavior(Scenario((2, 2), 2), ((0, 0), (0, 0)))
        assert guessing_probability(b, (1, 1)) == 1.0

    def test_canonical_chsh_point(self):
        b = behavior_from_model(canonical_chsh_model())
        expected = (1 + 1 / math.sqrt(2)) / 4
        assert guessing_probability(b, (0, 0)) == pytest.approx(expected, abs=1e-12)


class TestMinEntropy:
    @pytest.mark.parametrize("p, bits", [(1.0, 0.0), (0.25, 2.0), (0.125, 3.0)])
    def test_values(self, p, bits):
        assert min_entropy(p) == pytest.approx(bits, abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, -0.1, 1.1])
    def test_domain_errors(self, p):
        with pytest.raises(ValidationError):
            min_entropy(p)


class TestObservedReport:
    def test_local_report_at_chsh_optimum(self):
        res = optimize_violation(chsh(), seed=1)
        for party in range(2):
            for setting in range(2):
                rep = observed_report(res.behavior, LocalQuery(party, setting))
                assert rep.kind == "observed"
                assert rep.min_entropy_bits == pytest.approx(1.0, abs=1e-5)

    def test_joint_report_at_mermin_optimum(self):
        res = optimize_violation(mermin(3), seed=1)
        rep = observed_report(res.behavior, JointQuery((0, 0, 0)))
        assert rep.min_entropy_bits == pytest.approx(3.0, abs=2e-4)

    def test_correlated_pair_has_less_than_two_bits(self):
        res = optimize_violation(chained_correlator(3), seed=1)
        rep = observed_report(res.behavior, JointQuery((0, 0)))
        assert rep.min_entropy_bits < 2.0

    def test_entropy_caps(self, rng):
        for _ in range(20):
            sc = random_small_scenario(rng)
            b = random_ns_behavior(sc, rng)
            x = tuple(int(rng.integers(0, m)) for m in sc.settings)
            joint = observed_report(b, JointQuery(x))
            assert joint.min_entropy_bits <= sc.parties * math.log2(sc.outcomes) + 1e-12
            local = observed_report(b, LocalQuery(0, x[0]))
            assert local.min_entropy_bits <= math.log2(sc.outcomes) + 1e-12
            # coarsening never increases randomness beyond the joint report
            assert local.min_entropy_bits <= joint.min_entropy_bits + 1e-12


class TestCertifiedReport:
    def test_chained_local_dit(self):
        f = chained_modular(2, 3)
        cert = certify_uniform(f, [outcome_shift(f.scenario)], LocalQuery(0, 0))
        rep = certified_report(cert, LocalQuery(0, 0))
        assert rep.kind == "certified"
        assert rep.min_entropy_bits == pytest.approx(math.log2(3), abs=1e-12)
        assert rep.guessing_probability == pytest.approx(1 / 3, abs=1e-12)
        assert "unique" in rep.assumption

    def test_mermin_certified_three_bits(self):
        f = mermin(3)
        cert = certify_uniform(f, find_symmetries(f), JointQuery((0, 0, 0)))
        rep = certified_report(cert, JointQuery((1, 1, 0)))
        assert rep.min_entropy_bits == 3.0

    def test_empty_certificate_zero_bits(self):
        f = chsh()
        cert = certify_uniform(f, [], JointQuery((0, 0)))
        rep = certified_report(cert, JointQuery((0, 0)))
        assert rep.min_entropy_bits == 0.0
        assert rep.guessing_probability == 1.0

    def test_uncovered_query_errors(self):
        f = chsh()
        cert = certify_uniform(f, [global_outcome_flip(f.scenario)], JointQuery((0, 0)))
        with pytest.raises(ValidationError):
            certified_report(cert, LocalQuery(5, 0))
        with pytest.raises(ValidationError):
            certified_report(cert, JointQuery((0, 7)))

    def test_consistency_with_observed_at_optimum(self):
        f = chsh()
        res = optimize_violation(f, seed=1)
        cert = certify_uniform(f, find_symmetries(f), JointQuery((0, 0)))
        for x in f.scenario.joint_inputs():
            certified = certified_report(cert, JointQuery(x)).min_entropy_bits
            observed = observed_report(res.behavior, JointQuery(x)).min_entropy_bits
            assert certified <= observed + 2e-4

    def test_consistency_across_acceptance_pairs(self):
        pairs = [
            (tilted_chsh(0.5), [LocalQuery(0, 0), LocalQuery(0, 1)]),
            (chained_correlator(3), [JointQuery((0, 1)), JointQuery((0, 0))]),
        ]
        for f, queries in pairs:
            res = optimize_violation(f, seed=1)
            cert = certify_uniform(f, find_symmetries(f), queries[0])
            for q in queries:
                certified = certified_report(cert, q).min_entropy_bits
                observed = observed_report(res.behavior, q).min_entropy_bits
                assert certified <= observed + 2e-4, (f.name, q)


class TestReportJson:
    def test_observed_json(self):
        b = uniform_behavior(Scenario((2, 2), 2))
        rep = observed_report(b, JointQuery((0, 1)))
        data = report_to_dict(rep)
        assert data["kind"] == "observed"
        assert data["query"] == {"joint": [0, 1]}
        assert data["assumes_unique_maximizer"] is False
        assert data["bits"] == pytest.approx(2.0)

    def test_certified_json(self):
        f = chained_modular(2, 3)
        cert = certify_uniform(f, [outcome_shift(f.scenario)], LocalQuery(1, 0))
        data = report_to_dict(certified_report(cert, LocalQuery(1, 0)))
        assert data["kind"] == "certified"
        assert data["assumes_unique_maximizer"] is True
        assert "assumption" in data

    @pytest.mark.parametrize("kind", ["observed", "certified"])
    def test_assumption_is_written_exactly_when_uniqueness_is_assumed(self, kind):
        data = report_to_dict(_report(kind))
        assert data["assumes_unique_maximizer"] is (kind == "certified")
        assert ("assumption" in data) is data["assumes_unique_maximizer"]

    def test_bits_must_be_minus_log2_of_p_guess(self):
        for bits in (2.0, 1.0 + 1e-11, math.nan, "1.0", True, None):
            with pytest.raises(ValidationError):
                RandomnessReport(LocalQuery(0, 0), 0.5, bits, "observed")
        assert RandomnessReport(LocalQuery(0, 0), 0.5, 1.0 + 1e-13, "certified").min_entropy_bits

    def test_invariant_bits_match_p_guess(self):
        b = uniform_behavior(Scenario((2,), 2))
        rep = observed_report(b, LocalQuery(0, 0))
        assert rep.min_entropy_bits == pytest.approx(-math.log2(rep.guessing_probability), abs=1e-12)


class TestAssumptionFollowsFromKind:
    def test_report_takes_no_assumption(self):
        with pytest.raises(TypeError):
            RandomnessReport(LocalQuery(0, 0), 0.5, 1.0, "observed", "x")
        with pytest.raises(TypeError):
            RandomnessReport(LocalQuery(0, 0), 0.5, 1.0, "certified", assumption="x")

    def test_observed_report_assumes_nothing(self):
        assert _report("observed").assumption is None
        assert RandomnessReport(LocalQuery(0, 0), 0.5, 1.0, "observed").assumption is None

    def test_certified_report_restates_the_uniqueness_note(self):
        assert _report("certified").assumption == UNIQUENESS_NOTE
        assert RandomnessReport(LocalQuery(0, 0), 0.5, 1.0, "certified").assumption == (
            UNIQUENESS_NOTE
        )
