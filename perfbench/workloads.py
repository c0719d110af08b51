"""Seeded job lists of the four workloads and the checks on their answers.

A job calls only public, default-argument ``bellcert`` functions inside the
``clock`` it is handed; the clock times those calls (and switches tracing on
for them).  Work the benchmark does for itself, such as building a
group-invariant behavior or checking an answer, happens outside it.  Every
check returns a list of error strings; an empty list means the answer is
correct.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import bellcert as bc

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
SEESAW_TOL = 1e-6
EVAL_TOL = 1e-9
MONOTONE_TOL = 1e-9
ORBIT_TOL = 2e-4
DEMO_FLOAT_TOL = 1e-6

DEMO_NAMES = ("chsh", "tilted", "chained-local", "lifted")


@dataclass
class Job:
    label: str
    run: Callable[["object"], dict]
    check: Callable[[dict], list[str]]
    state: dict = field(default_factory=dict)


def random_relabeling(scenario: bc.Scenario, rng: np.random.Generator) -> bc.Relabeling:
    """The relabeling ``tests/conftest.random_relabeling`` draws, same draw order."""
    input_perms = []
    output_perms = []
    for m in scenario.settings:
        input_perms.append(tuple(int(v) for v in rng.permutation(m)))
        output_perms.append(
            tuple(
                tuple(int(v) for v in rng.permutation(scenario.outcomes))
                for _ in range(m)
            )
        )
    return bc.Relabeling(scenario, tuple(input_perms), tuple(output_perms))


def _two_outcome(*settings: int) -> bc.Scenario:
    return bc.Scenario(settings, 2)


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


# -- seesaw ------------------------------------------------------------------------

SEESAW = [
    # label, constructor name, arguments, scenario, closed-form optimum
    ("chsh", "chsh", (), _two_outcome(2, 2), 2 * math.sqrt(2)),
    *[
        (f"tilted_chsh({eta})", "tilted_chsh", (eta,), _two_outcome(2, 2),
         math.sqrt(8 + 2 * eta**2))
        for eta in (0.25, 0.5, 0.75)
    ],
    ("chained_correlator(3)", "chained_correlator", (3,), _two_outcome(3, 3),
     6 * math.cos(math.pi / 6)),
    ("lifted_chsh_c", "lifted_chsh_c", (), _two_outcome(2, 2, 1), 2 * math.sqrt(2) - 2),
    ("mermin(3)", "mermin", (3,), _two_outcome(2, 2, 2), 4.0),
]


def check_seesaw(expected: float, answer: dict) -> list[str]:
    errors = []
    if not abs(answer["value"] - expected) <= SEESAW_TOL:
        errors.append(f"see-saw value {answer['value']!r} is not within {SEESAW_TOL} of {expected!r}")
    if not abs(answer["evaluated"] - answer["value"]) <= EVAL_TOL:
        errors.append(f"evaluate on the returned behavior gives {answer['evaluated']!r}")
    if not abs(answer["expectation"] - answer["value"]) <= SEESAW_TOL:
        errors.append(f"<psi|B|psi> on the final model is {answer['expectation']!r}")
    for r, trace in enumerate(answer["traces"]):
        if len(trace) > 1 and np.diff(trace).min() < -MONOTONE_TOL:
            errors.append(f"trace of restart {r} is not monotone")
    return errors


def seesaw_jobs(rng: np.random.Generator) -> list[Job]:
    jobs = []
    for label, ctor, args, scenario, expected in SEESAW:
        relabeling = random_relabeling(scenario, rng)
        opt_seed = int(rng.integers(2**31))

        def run(clock, ctor=ctor, args=args, relabeling=relabeling, opt_seed=opt_seed):
            with clock:
                f = bc.pushforward_functional(relabeling, getattr(bc, ctor)(*args))
                result = bc.optimize_violation(f, seed=opt_seed)
                behavior = bc.behavior_from_model(result.model)
                evaluated = bc.evaluate(f, behavior)
                op = bc.bell_operator(f, result.model.measurements)
            psi = result.model.state
            return {
                "value": result.value,
                "evaluated": evaluated,
                "expectation": float(np.real(psi.conj() @ op @ psi)),
                "traces": result.traces,
            }

        jobs.append(Job(label, run, lambda a, e=expected: check_seesaw(e, a)))
    return jobs


# -- symsearch -----------------------------------------------------------------------

SYMSEARCH = [
    # label, constructor name, arguments, scenario, include_party_perms
    ("chained_correlator(3)", "chained_correlator", (3,), _two_outcome(3, 3), False),
    ("chained_modular(2,3)", "chained_modular", (2, 3), bc.Scenario((2, 2), 3), False),
    ("mermin(3)", "mermin", (3,), _two_outcome(2, 2, 2), False),
    ("mermin(4)", "mermin", (4,), _two_outcome(2, 2, 2, 2), False),
    ("mermin(3)+parties", "mermin", (3,), _two_outcome(2, 2, 2), True),
]


def invariant_behavior(
    functional: bc.BellFunctional,
    symmetries,
    rng: np.random.Generator,
    components: int = 8,
) -> bc.Behavior:
    """A random local behavior averaged over {identity} + symmetries.

    When ``symmetries`` lists every nontrivial symmetry, the set is a group
    and the average is invariant under it, so every orbit of a correct
    certificate is equiprobable on it.
    """
    sc = functional.scenario
    table = np.zeros((sc.num_inputs, sc.num_outcomes))
    weights = rng.dirichlet(np.ones(components))
    for w in weights:
        a_idx = np.zeros(sc.num_inputs, dtype=np.int64)
        for i, m in enumerate(sc.settings):
            strategy = rng.integers(0, sc.outcomes, size=m)
            a_idx += strategy[sc.input_digits[:, i]] * sc.outcome_strides[i]
        table[np.arange(sc.num_inputs), a_idx] += w
    total = table.copy()
    for g in symmetries:
        input_map, outcome_map = g.event_maps
        moved = np.empty_like(table)
        moved[input_map[:, None], outcome_map] = table
        total += moved
    return bc.Behavior(sc, total / (len(symmetries) + 1))


def check_symsearch(reference: dict, answer: dict) -> list[str]:
    errors = []
    if answer["count"] != reference["count"]:
        errors.append(f"{answer['count']} symmetries, expected {reference['count']}")
    if answer["not_symmetries"]:
        errors.append(f"{answer['not_symmetries']} hits fail is_symmetry")
    if answer["bits"] != reference["bits"]:
        errors.append("the multiset of certified bits differs from the reference")
    if answer["report_mismatches"]:
        errors.append(f"{answer['report_mismatches']} certified reports disagree with certify_all")
    if not answer["orbit_violation"] <= ORBIT_TOL:
        errors.append(f"orbit-equality violation {answer['orbit_violation']!r} exceeds {ORBIT_TOL}")
    return errors


def symsearch_jobs(rng: np.random.Generator, reference: dict) -> list[Job]:
    jobs = []
    for label, ctor, args, scenario, party_perms in SYMSEARCH:
        relabeling = random_relabeling(scenario, rng)
        behavior_seed = int(rng.integers(2**31))

        def run(clock, ctor=ctor, args=args, relabeling=relabeling,
                party_perms=party_perms, behavior_seed=behavior_seed):
            with clock:
                f = bc.pushforward_functional(relabeling, getattr(bc, ctor)(*args))
                if party_perms:
                    hits = bc.find_symmetries(f, include_party_perms=True)
                else:
                    hits = bc.find_symmetries(f)
                sweep = bc.certify_all(f, hits)
                cert = bc.certify_uniform(f, hits, bc.JointQuery(f.scenario.input_tuple(0)))
                reports = {q: bc.certified_report(cert, q) for q in sweep}
            behavior = invariant_behavior(f, hits, np.random.default_rng(behavior_seed))
            with clock:
                violation = bc.symmetry.orbit_equality_violation(cert, behavior)
            return {
                "count": len(hits),
                "not_symmetries": sum(not bc.is_symmetry(g, f) for g in hits),
                "bits": sorted(sweep.values()),
                "report_mismatches": sum(
                    r.min_entropy_bits != sweep[q] for q, r in reports.items()
                ),
                "orbit_violation": violation,
            }

        ref = reference["symsearch"][label]
        jobs.append(Job(label, run, lambda a, ref=ref: check_symsearch(ref, a)))
    return jobs


# -- classical -----------------------------------------------------------------------

CLASSICAL = [
    # label, constructor name, arguments, scenario
    *[(f"mermin({n})", "mermin", (n,), _two_outcome(*(2,) * n)) for n in (6, 7)],
    ("chained_correlator(8)", "chained_correlator", (8,), _two_outcome(8, 8)),
    *[
        (f"chained_modular({m},{d})", "chained_modular", (m, d), bc.Scenario((m, m), d))
        for m, d in ((4, 4), (3, 5), (5, 4))
    ],
]


def check_classical(reference: dict, answer: dict) -> list[str]:
    errors = []
    if str(answer["bound"]) != reference["bound"]:
        errors.append(f"local bound {answer['bound']}, expected {reference['bound']}")
    if answer["maximizer_count"] != reference["maximizer_count"]:
        errors.append(
            f"{answer['maximizer_count']} maximizers, expected {reference['maximizer_count']}"
        )
    if answer["listed_values"] and set(answer["listed_values"]) != {answer["bound"]}:
        errors.append("a listed maximizer does not attain the bound")
    if not answer["round_trip"]:
        errors.append("functional_from_dict(functional_to_dict(f)) differs from f")
    return errors


def classical_jobs(rng: np.random.Generator, reference: dict) -> list[Job]:
    jobs = []
    for label, ctor, args, scenario in CLASSICAL:
        relabeling = random_relabeling(scenario, rng)

        def run(clock, ctor=ctor, args=args, relabeling=relabeling):
            with clock:
                f = bc.pushforward_functional(relabeling, getattr(bc, ctor)(*args))
                report = bc.local_bound(f)
                back = bc.functional_from_dict(bc.functional_to_dict(f))
            return {
                "bound": report.bound,
                "maximizer_count": report.maximizer_count,
                "listed_values": [
                    bc.evaluate_on_strategy(f, s) for s in report.maximizers[:4]
                ],
                "round_trip": back.same_coefficients(f)
                and (back.orientation, back.name) == (f.orientation, f.name),
            }

        ref = reference["classical"][label]
        jobs.append(Job(label, run, lambda a, ref=ref: check_classical(ref, a)))
    return jobs


# -- demos ---------------------------------------------------------------------------

def compare_json(expected, actual, path: str = "") -> list[str]:
    """Exact match for bits, booleans, counts and strings; floats within 1e-6."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        errors = []
        for key in sorted(expected.keys() | actual.keys()):
            if key not in expected or key not in actual:
                errors.append(f"{path}/{key}: present on one side only")
            else:
                errors.extend(compare_json(expected[key], actual[key], f"{path}/{key}"))
        return errors
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)}, expected {len(expected)}"]
        errors = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            errors.extend(compare_json(e, a, f"{path}/{i}"))
        return errors
    if isinstance(expected, float) and isinstance(actual, float):
        if abs(expected - actual) <= DEMO_FLOAT_TOL:
            return []
        return [f"{path}: {actual!r}, expected {expected!r}"]
    if type(expected) is not type(actual) or expected != actual:
        return [f"{path}: {actual!r}, expected {expected!r}"]
    return []


def demo_fields(document: dict) -> dict:
    """The parts of a demo document that are checked against the reference."""
    return {
        "summary": document.get("summary"),
        "certification": document.get("certification"),
        "symmetries.count": document["symmetries"]["count"],
    }


def check_demo(reference: dict, answer: dict, state: dict) -> list[str]:
    if answer["exit_code"] != 0:
        return [f"exit code {answer['exit_code']}"]
    errors = []
    first = state.setdefault("stdout", answer["stdout"])
    if answer["stdout"] != first:
        errors.append("stdout differs from the first call with the same argv")
    document = json.loads(answer["stdout"])
    errors.extend(compare_json(reference, demo_fields(document)))
    cross = document.get("cross_check")
    if cross is not None and not cross["worst_orbit_equality_violation"] <= ORBIT_TOL:
        errors.append("orbit-equality violation of the cross-check exceeds 2e-4")
    return errors


def run_demo(argv: list[str]) -> dict:
    import bellcert.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = bellcert.cli.main(argv)
    return {"exit_code": code, "stdout": out.getvalue()}


def demos_jobs(rng: np.random.Generator, reference: dict) -> list[Job]:
    import bellcert.cli  # noqa: F401  (part of this workload's set-up)

    jobs = []
    for name in DEMO_NAMES:
        argv = ["demo", name, "--seed", str(int(rng.integers(2**31)))]

        def run(clock, argv=argv):
            with clock:
                return run_demo(argv)

        job = Job(name, run, lambda a: [])
        job.check = lambda a, ref=reference["demos"][name], job=job: check_demo(ref, a, job.state)
        jobs.append(job)
    return jobs


def make_jobs(workload: str, seed: int) -> list[Job]:
    rng = np.random.default_rng(seed)
    if workload == "seesaw":
        return seesaw_jobs(rng)
    reference = load_reference()
    if workload == "symsearch":
        return symsearch_jobs(rng, reference)
    if workload == "classical":
        return classical_jobs(rng, reference)
    if workload == "demos":
        return demos_jobs(rng, reference)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("seesaw", "symsearch", "classical", "demos")
