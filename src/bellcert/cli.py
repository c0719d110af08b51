"""Command-line front end: bounds, optimization, symmetry search, certification.

Every subcommand prints a single JSON document to standard output; errors go
to standard error as JSON objects with a stable ``code`` field.  Exit codes:
0 success, 1 computational error, 2 usage error.  Identical argv and seed
produce byte-identical output.

Settings and parties are 1-based on the command line (``--query joint:1,2``
asks about the first setting of party 1 with the second setting of party 2);
all JSON payloads use 0-based indices.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from collections import namedtuple
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import __version__
from .functionals import (
    DEFAULT_STRATEGY_CAP,
    BellFunctional,
    CapExceededError,
    chained_correlator,
    chained_modular,
    chsh,
    evaluate,
    functional_from_dict,
    functional_to_dict,
    lifted_chsh_c,
    local_bound,
    mermin,
    tilted_chsh,
)
from .quantum import (
    behavior_from_model,
    model_to_dict,
    optimize_violation,
    phase_measurement_model,
)
from .randomness import certified_report, observed_report, report_to_dict
from .scenario import (
    JointQuery,
    LocalQuery,
    ScenarioMismatchError,
    ValidationError,
    _queries,
    _query_key,
    correlators_from_behavior,
    behavior_to_dict,
)
from .symmetry import (
    DEFAULT_SEARCH_CAP,
    SearchCapExceededError,
    _certify_all_queries,
    find_symmetries,
    orbit_equality_violation,
    outcome_shift,
    relabeling_to_dict,
)


class UsageError(Exception):
    pass


def _check_numeric_options(args: argparse.Namespace) -> None:
    for name, minimum in (("restarts", 1), ("max_iters", 1), ("cap", 1)):
        value = getattr(args, name, None)
        if value is not None and value < minimum:
            raise UsageError(f"--{name.replace('_', '-')} must be at least {minimum}")
    tol = getattr(args, "tol", None)
    if tol is not None and not tol > 0:
        raise UsageError("--tol must be positive")


def _build_functional(args: argparse.Namespace) -> BellFunctional:
    _check_numeric_options(args)
    if args.file and args.functional:
        raise UsageError("give either --functional or --file, not both")
    if args.file:
        with open(args.file, encoding="utf-8") as fh:
            return functional_from_dict(json.load(fh))
    name = args.functional
    if not name:
        raise UsageError("a functional is required (--functional or --file)")
    if name == "chsh":
        return chsh()
    if name == "tilted-chsh":
        return tilted_chsh(args.eta)
    if name == "chained-modular":
        return chained_modular(args.m, args.d)
    if name == "chained-correlator":
        return chained_correlator(args.m)
    if name == "mermin":
        return mermin(args.n)
    if name == "lifted-chsh-c":
        return lifted_chsh_c()
    raise UsageError(f"unknown functional {name!r}")


def _parse_query(text: str, functional: BellFunctional) -> JointQuery | LocalQuery:
    """Parse ``joint:<x1>,...,<xN>`` or ``local:<party>,<setting>`` (1-based)."""
    try:
        kind, rest = text.split(":", 1)
        numbers = [int(tok) for tok in rest.split(",")]
    except ValueError as exc:
        raise UsageError(f"malformed query {text!r}") from exc
    sc = functional.scenario

    def index(value: int, count: int, what: str) -> int:
        if not 1 <= value <= count:
            raise UsageError(f"{what} {value} out of range 1..{count}")
        return value - 1

    if kind == "joint":
        if len(numbers) != sc.parties:
            raise UsageError(
                f"joint query needs {sc.parties} settings, got {len(numbers)}"
            )
        pairs = enumerate(zip(numbers, sc.settings), 1)
        return JointQuery(tuple(index(v, m, f"party {i} setting") for i, (v, m) in pairs))
    if kind == "local":
        if len(numbers) != 2:
            raise UsageError("local query needs party,setting")
        party = index(numbers[0], sc.parties, "party")
        setting = index(numbers[1], sc.settings[party], f"party {party + 1} setting")
        return LocalQuery(party, setting)
    raise UsageError(f"unknown query kind {kind!r}")


def _bound_as_number(bound, log2_den: int) -> float | int:
    """The exact bound as a JSON number.  A nonzero bound must not round to 0
    (its functional's common denominator is 2**log2_den); it cannot overflow,
    as every functional's |C| * num_inputs stays below 2**62."""
    if bound.denominator == 1:
        return int(bound)
    value = float(bound)
    if value == 0:
        raise ValidationError(
            f"the local bound over the common denominator 2^{log2_den} is below "
            "the double range"
        )
    return value


def _queries_of(kind: type, sc) -> list:
    """The queries of one kind, ``JointQuery`` or ``LocalQuery``, in order."""
    return [q for q in _queries(sc) if isinstance(q, kind)]


def _bits_block(cert) -> dict:
    block: dict = {"joint_bits": {}, "local_bits": {}}
    for q in _queries(cert.functional.scenario):
        kind = "joint_bits" if isinstance(q, JointQuery) else "local_bits"
        block[kind][_query_key(q)] = cert.certified_bits(q)
    return block


# --- subcommands ---------------------------------------------------------------

def _cmd_local_bound(args: argparse.Namespace) -> dict:
    functional = _build_functional(args)
    report = local_bound(functional, cap=args.cap)
    out = {
        "functional": functional.name,
        "orientation": functional.orientation,
        "bound": _bound_as_number(report.bound, functional.log2_den),
        "maximizer_count": report.maximizer_count,
    }
    if args.list_maximizers:
        out["maximizers"] = [[list(p) for p in s] for s in report.maximizers]
    return out


def _optimize(functional: BellFunctional, args: argparse.Namespace):
    return optimize_violation(
        functional,
        restarts=args.restarts,
        seed=args.seed,
        tol=args.tol,
        max_iters=args.max_iters,
    )


def _optimum(result) -> dict:
    return {
        "value": result.value,
        "iterations": result.iterations,
        "converged": result.converged,
        "seed": result.seed,
        "status": "best-found",
    }


def _cmd_maximize(args: argparse.Namespace) -> dict:
    functional = _build_functional(args)
    result = _optimize(functional, args)
    out = {"functional": functional.name, "orientation": functional.orientation}
    out.update(_optimum(result))
    if args.emit_model:
        out["model"] = model_to_dict(result.model)
    if args.emit_behavior:
        out["behavior"] = behavior_to_dict(result.behavior)
    return out


def _cmd_symmetries(args: argparse.Namespace) -> dict:
    functional = _build_functional(args)
    found = find_symmetries(
        functional, include_party_perms=args.party_perms, cap=args.cap
    )
    return {
        "functional": functional.name,
        "include_party_perms": bool(args.party_perms),
        "count": len(found),
        "symmetries": [relabeling_to_dict(g) for g in found],
    }


def _cmd_certify(args: argparse.Namespace) -> dict:
    functional = _build_functional(args)
    query = _parse_query(args.query, functional) if args.query else None
    generators = find_symmetries(
        functional, include_party_perms=args.party_perms, cap=args.cap
    )
    cert = _certify_all_queries(functional, generators)
    out = {
        "functional": functional.name,
        "generator_count": len(cert.generators),
        "assumes_unique_maximizer": True,
    }
    if query is None:
        return {**out, **_bits_block(cert)}
    report = certified_report(cert, query)
    return {
        **out,
        "query": _query_key(query),
        "bits": report.min_entropy_bits,
        "p_guess": report.guessing_probability,
        "assumption": cert.assumption,
    }


def _cmd_randomness(args: argparse.Namespace) -> dict:
    functional = _build_functional(args)
    query = _parse_query(args.query, functional)
    result = _optimize(functional, args)
    report = observed_report(result.behavior, query)
    return {
        "functional": functional.name,
        "value": result.value,
        "report": report_to_dict(report),
    }


# --- demos ----------------------------------------------------------------------
#
# One function runs every demo's shared steps in a fixed order: symmetries, local
# bound, one certificate, see-saw optimum (or an explicit model), cross-check.
# A spec holds only what differs.  Its constructors are lambdas so that module
# globals are looked up when a demo runs, not when the table is built.

_TILT = 0.5
_DemoRun = namedtuple("_DemoRun", "document functional generators cert queries behavior")


class _Demo(NamedTuple):
    functional: Callable[[], BellFunctional]
    fields: Callable[[_DemoRun], dict]  # the demo's own fields and its summary
    queries: Callable | None = None  # certificate -> queries; None: no certificate
    observed: bool = False  # report the see-saw's randomness at the queries
    shift_only: bool = False  # certify with the outcome shift alone
    model: Callable | None = None  # explicit model instead of the see-saw
    probe: bool = False  # compare the optima of three more seeds
    bound_keys: tuple[str, ...] = ()  # extra local_bound fields


def _cross_check_block(cert, behavior, reports) -> dict:
    per_query = {}
    for q, report in reports.items():
        certified = cert.certified_bits(q)
        per_query[_query_key(q)] = {
            "certified_bits": certified,
            "observed_bits": report.min_entropy_bits,
            "certified_le_observed": bool(certified <= report.min_entropy_bits + 2e-4),
        }
    return {
        "worst_orbit_equality_violation": orbit_equality_violation(cert, behavior),
        "queries": per_query,
        "assumes_unique_maximizer": True,
    }


def _uniqueness_probe(functional, seeds=(11, 12, 13)) -> dict:
    """Distinct-seed behaviors compared pairwise; reported without judgment."""
    behaviors = [optimize_violation(functional, seed=s).behavior for s in seeds]
    pairs = itertools.combinations(behaviors, 2)
    worst = max(float(np.abs(p.table - q.table).max()) for p, q in pairs)
    return {"seeds": list(seeds), "max_pairwise_table_distance": worst}


def _even_primed(functional) -> list[JointQuery]:
    return [q for q in _queries_of(JointQuery, functional.scenario) if sum(q.settings) % 2 == 0]


def _chsh_fields(run: _DemoRun) -> dict:
    correlators = correlators_from_behavior(run.behavior).values
    observed = run.document["optimization"]["observed"]
    return {
        "max_abs_one_body_correlator": max(
            abs(v) for (p, s), v in correlators.items() if len(p) == 1
        ),
        "summary": {
            "local_bits": run.document["certification"]["local_bits"],
            "observed_local_bits": {k: v["bits"] for k, v in observed.items()},
        },
    }


def _tilted_fields(run: _DemoRun) -> dict:
    correlators = correlators_from_behavior(run.behavior)
    bits = {_query_key(q): run.cert.certified_bits(q) for q in run.queries}
    return {
        "eta": _TILT,
        "symmetries": {
            "count": len(run.generators),
            "generators": [relabeling_to_dict(g) for g in run.generators],
        },
        "marginal_correlators": {
            "A1": correlators.get((0,), (0,)),
            "A2": correlators.get((0,), (1,)),
        },
        "summary": {
            "alice_certified_bits": bits,
            "only_second_setting_certified": list(bits.values()) == [0.0, 1.0],
        },
    }


def _chained_local_fields(run: _DemoRun) -> dict:
    sc = run.functional.scenario
    shift = relabeling_to_dict(outcome_shift(sc))
    return {
        "m": sc.settings[0],
        "d": sc.outcomes,
        "shift_symmetry_verified": shift in [relabeling_to_dict(g) for g in run.generators],
        "qudit_model_value": evaluate(run.functional, run.behavior),
        "summary": {
            "local_bits": run.document["certification"]["local_bits"],
            "expected_local_bits": math.log2(sc.outcomes),
        },
    }


def _chained_global_fields(run: _DemoRun) -> dict:
    bits = run.document["certification"]["joint_bits"]
    inequality_inputs = ["x=0,0", "x=1,1", "x=2,2", "x=1,0", "x=2,1", "x=0,2"]
    below_two = all(bits[k] < 2.0 for k in inequality_inputs)
    return {
        "summary": {
            "target_joint_bits": bits["x=0,1"],
            "inequality_inputs_below_two_bits": below_two,
        },
    }


def _mermin_odd_fields(run: _DemoRun) -> dict:
    parties = run.functional.scenario.parties
    correlators = correlators_from_behavior(run.behavior).values
    five = mermin(5)
    cert5 = _certify_all_queries(five, find_symmetries(five))
    bits5 = {_query_key(q): cert5.certified_bits(q) for q in _even_primed(five)}
    bits3 = {_query_key(q): run.cert.certified_bits(q) for q in run.queries}
    return {
        "max_abs_correlator_absent_from_inequality": max(
            abs(v)
            for (p, s), v in correlators.items()
            if not (len(p) == parties and sum(s) % 2 == 1)
        ),
        "five_party_certification": {
            "even_primed_joint_bits": bits5,
            "all_five_bits": all(abs(b - 5.0) < 1e-12 for b in bits5.values()),
        },
        "summary": {"even_primed_joint_bits": bits3},
    }


def _mermin_even_fields(run: _DemoRun) -> dict:
    bits = run.document["certification"]["joint_bits"]
    parties = run.functional.scenario.parties
    return {"summary": {"max_joint_bits": max(bits.values()), "parties": parties}}


def _lifted_fields(run: _DemoRun) -> dict:
    bound = run.document["local_bound"]
    return {
        "summary": {
            "classically_nonpositive": bound["bound"] == 0,
            "several_classical_maximizers": bound["maximizer_count"] > 1,
        },
    }


_DEMOS = {
    "chsh": _Demo(
        lambda: chsh(),
        _chsh_fields,
        queries=lambda cert: _queries_of(LocalQuery, cert.functional.scenario),
        observed=True,
        bound_keys=("maximizer_count",),
    ),
    "tilted": _Demo(
        lambda: tilted_chsh(_TILT),
        _tilted_fields,
        queries=lambda cert: [LocalQuery(0, 0), LocalQuery(0, 1)],
    ),
    "chained-local": _Demo(
        lambda: chained_modular(2, 3),
        _chained_local_fields,
        queries=lambda cert: _queries_of(LocalQuery, cert.functional.scenario),
        shift_only=True,
        # near-optimal Fourier-phase qudit model
        model=lambda: phase_measurement_model(2, 3, [0.0, 0.3812], [0.1906, 0.5718]),
        bound_keys=("orientation",),
    ),
    "chained-global": _Demo(
        lambda: chained_correlator(3),
        _chained_global_fields,
        queries=lambda cert: [JointQuery((0, 1))],
        observed=True,
        probe=True,
    ),
    "mermin-odd": _Demo(
        lambda: mermin(3),
        _mermin_odd_fields,
        queries=lambda cert: _even_primed(cert.functional),
        observed=True,
    ),
    "mermin-even": _Demo(
        lambda: mermin(4),
        _mermin_even_fields,
        # the joint input with the most certified bits
        queries=lambda cert: [
            max(_queries_of(JointQuery, cert.functional.scenario), key=cert.certified_bits)
        ],
        observed=True,
    ),
    "lifted": _Demo(
        lambda: lifted_chsh_c(),
        _lifted_fields,
        probe=True,
        bound_keys=("maximizer_count",),
    ),
}
DEMO_NAMES = tuple(_DEMOS)


def _run_demo(name: str, seed: int) -> dict:
    spec = _DEMOS[name]
    functional = spec.functional()
    generators = find_symmetries(functional)
    bound = local_bound(functional)
    bound_fields = {
        "bound": _bound_as_number(bound.bound, functional.log2_den),
        "maximizer_count": bound.maximizer_count,
        "orientation": functional.orientation,
    }
    document = {
        "demo": name,
        "functional": functional_to_dict(functional),
        "local_bound": {k: bound_fields[k] for k in ("bound", *spec.bound_keys)},
        "symmetries": {"count": len(generators)},
        "optimization": None,
    }
    cert, queries = None, []
    if spec.queries is not None:
        gens = [outcome_shift(functional.scenario)] if spec.shift_only else generators
        cert = _certify_all_queries(functional, gens)
        queries = spec.queries(cert)
        document["certification"] = _bits_block(cert)
    if spec.model is None:
        result = optimize_violation(functional, seed=seed)
        behavior = result.behavior
        document["optimization"] = _optimum(result)
    else:
        behavior = behavior_from_model(spec.model())
    reports = {q: observed_report(behavior, q) for q in queries}
    if spec.observed:
        observed = {_query_key(q): report_to_dict(r) for q, r in reports.items()}
        document["optimization"]["observed"] = observed
    if cert is not None:
        document["cross_check"] = _cross_check_block(cert, behavior, reports)
    if spec.probe:
        document["uniqueness_probe"] = _uniqueness_probe(functional)
    run = _DemoRun(document, functional, generators, cert, queries, behavior)
    document.update(spec.fields(run))
    return document


# --- entry point -----------------------------------------------------------------

def _add_functional_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--functional", help="built-in functional name")
    parser.add_argument("--file", help="path to a functional JSON file")
    parser.add_argument("--eta", type=float, default=0.5, help="tilt weight (tilted-chsh)")
    parser.add_argument("--m", type=int, default=3, help="settings per party (chained)")
    parser.add_argument("--d", type=int, default=2, help="outcomes (chained-modular)")
    parser.add_argument("--n", type=int, default=3, help="parties (mermin)")


def _add_optimizer_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--restarts", type=int, default=20)
    parser.add_argument("--tol", type=float, default=1e-10)
    parser.add_argument("--max-iters", type=int, default=500)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellcert",
        description="Bell functional bounds, symmetries, and randomness certificates",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--pretty", action="store_true", help="indent output")
    parser.add_argument("--output", help="write JSON to this path instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("local-bound", help="exact bound over deterministic strategies")
    _add_functional_options(p)
    p.add_argument("--cap", type=int, default=DEFAULT_STRATEGY_CAP)
    p.add_argument("--list-maximizers", action="store_true")
    p.set_defaults(func=_cmd_local_bound)

    p = sub.add_parser("maximize", help="see-saw optimization over qubit models")
    _add_functional_options(p)
    _add_optimizer_options(p)
    p.add_argument("--emit-model", action="store_true")
    p.add_argument("--emit-behavior", action="store_true")
    p.set_defaults(func=_cmd_maximize)

    p = sub.add_parser("symmetries", help="exhaustive relabeling-symmetry search")
    _add_functional_options(p)
    p.add_argument("--cap", type=int, default=DEFAULT_SEARCH_CAP)
    p.add_argument("--party-perms", action="store_true")
    p.set_defaults(func=_cmd_symmetries)

    p = sub.add_parser("certify", help="orbit-based uniformity certification")
    _add_functional_options(p)
    p.add_argument("--cap", type=int, default=DEFAULT_SEARCH_CAP)
    p.add_argument("--party-perms", action="store_true")
    p.add_argument("--query", help="joint:<x1>,..,<xN> or local:<party>,<setting> (1-based)")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("randomness", help="observed randomness at the see-saw optimum")
    _add_functional_options(p)
    _add_optimizer_options(p)
    p.add_argument("--query", required=True)
    p.set_defaults(func=_cmd_randomness)

    p = sub.add_parser("demo", help="end-to-end worked examples")
    p.add_argument("name", choices=DEMO_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=lambda args: _run_demo(args.name, args.seed))
    return parser


def _emit(document: dict, args: argparse.Namespace) -> None:
    indent = 2 if args.pretty else None
    text = json.dumps(document, sort_keys=True, indent=indent)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _emit_error(code: str, message: str) -> None:
    sys.stderr.write(json.dumps({"code": code, "message": message}) + "\n")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    try:
        document = args.func(args)
    except UsageError as exc:
        _emit_error("usage", str(exc))
        return 2
    except (CapExceededError, SearchCapExceededError) as exc:
        _emit_error("cap-exceeded", str(exc))
        return 1
    except (ValidationError, ScenarioMismatchError) as exc:
        _emit_error("invalid-input", str(exc))
        return 1
    except (OSError, json.JSONDecodeError) as exc:
        _emit_error("io", str(exc))
        return 1
    _emit(document, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
