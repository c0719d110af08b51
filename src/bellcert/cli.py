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
import json
import math
import sys
from typing import Sequence

import numpy as np

from . import __version__
from .functionals import (
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
    correlators_from_behavior,
    behavior_to_dict,
)
from .symmetry import (
    SearchCapExceededError,
    certify_all,
    certify_uniform,
    find_symmetries,
    orbit_equality_violation,
    outcome_shift,
    relabeling_to_dict,
)

DEMO_NAMES = (
    "chsh",
    "tilted",
    "chained-local",
    "chained-global",
    "mermin-odd",
    "mermin-even",
    "lifted",
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
    if kind == "joint":
        if len(numbers) != sc.parties:
            raise UsageError(
                f"joint query needs {sc.parties} settings, got {len(numbers)}"
            )
        return JointQuery(tuple(v - 1 for v in numbers))
    if kind == "local":
        if len(numbers) != 2:
            raise UsageError("local query needs party,setting")
        return LocalQuery(numbers[0] - 1, numbers[1] - 1)
    raise UsageError(f"unknown query kind {kind!r}")


def _query_key(query: JointQuery | LocalQuery) -> str:
    if isinstance(query, JointQuery):
        return "x=" + ",".join(str(s) for s in query.settings)
    return f"party={query.party},setting={query.setting}"


def _bound_as_number(bound) -> float | int:
    return int(bound) if bound.denominator == 1 else float(bound)


def _strategies_json(report) -> list:
    return [[list(per_party) for per_party in s] for s in report.maximizers]


# --- subcommands ---------------------------------------------------------------

def _cmd_local_bound(args: argparse.Namespace) -> dict:
    functional = _build_functional(args)
    report = local_bound(functional, cap=args.cap)
    out = {
        "functional": functional.name,
        "orientation": functional.orientation,
        "bound": _bound_as_number(report.bound),
        "maximizer_count": report.maximizer_count,
    }
    if args.list_maximizers:
        out["maximizers"] = _strategies_json(report)
    return out


def _cmd_maximize(args: argparse.Namespace) -> dict:
    functional = _build_functional(args)
    result = optimize_violation(
        functional,
        restarts=args.restarts,
        seed=args.seed,
        tol=args.tol,
        max_iters=args.max_iters,
    )
    out = {
        "functional": functional.name,
        "orientation": functional.orientation,
        "value": result.value,
        "iterations": result.iterations,
        "converged": result.converged,
        "seed": result.seed,
        "status": "best-found",
    }
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
    generators = find_symmetries(
        functional, include_party_perms=args.party_perms, cap=args.cap
    )
    if args.query:
        query = _parse_query(args.query, functional)
    else:
        query = JointQuery(functional.scenario.input_tuple(0))
    # both branches report the certificate's (reduced) generator count
    cert = certify_uniform(functional, generators, query)
    if args.query:
        report = certified_report(cert, query)
        return {
            "functional": functional.name,
            "query": _query_key(query),
            "bits": report.min_entropy_bits,
            "p_guess": report.guessing_probability,
            "generator_count": len(cert.generators),
            "assumes_unique_maximizer": True,
            "assumption": cert.assumption,
        }
    # the kept generators generate the same group, so this sweep equals the
    # sweep over every symmetry found
    sweep = certify_all(functional, cert.generators)
    return {
        "functional": functional.name,
        "generator_count": len(cert.generators),
        "joint_bits": {
            _query_key(q): b for q, b in sweep.items() if isinstance(q, JointQuery)
        },
        "local_bits": {
            _query_key(q): b for q, b in sweep.items() if isinstance(q, LocalQuery)
        },
        "assumes_unique_maximizer": True,
    }


def _cmd_randomness(args: argparse.Namespace) -> dict:
    functional = _build_functional(args)
    result = optimize_violation(
        functional,
        restarts=args.restarts,
        seed=args.seed,
        tol=args.tol,
        max_iters=args.max_iters,
    )
    if not args.query:
        raise UsageError("randomness requires --query")
    query = _parse_query(args.query, functional)
    report = observed_report(result.behavior, query)
    return {
        "functional": functional.name,
        "value": result.value,
        "report": report_to_dict(report),
    }


# --- demos ----------------------------------------------------------------------

def _certification_block(functional, generators) -> dict:
    sweep = certify_all(functional, generators)
    return {
        "joint_bits": {
            _query_key(q): b for q, b in sweep.items() if isinstance(q, JointQuery)
        },
        "local_bits": {
            _query_key(q): b for q, b in sweep.items() if isinstance(q, LocalQuery)
        },
    }


def _optimize_block(functional, seed: int, queries=()) -> tuple[dict, object, object]:
    result = optimize_violation(functional, seed=seed)
    block = {
        "value": result.value,
        "iterations": result.iterations,
        "converged": result.converged,
        "seed": seed,
        "status": "best-found",
    }
    if queries:
        block["observed"] = {
            _query_key(q): report_to_dict(observed_report(result.behavior, q))
            for q in queries
        }
    return block, result, result.behavior


def _cross_check_block(functional, generators, behavior, queries) -> dict:
    cert = certify_uniform(
        functional, generators, queries[0]
    )
    worst = orbit_equality_violation(cert, behavior)
    per_query = {}
    for q in queries:
        certified = cert.certified_bits(q)
        observed = observed_report(behavior, q).min_entropy_bits
        per_query[_query_key(q)] = {
            "certified_bits": certified,
            "observed_bits": observed,
            "certified_le_observed": bool(certified <= observed + 2e-4),
        }
    return {
        "worst_orbit_equality_violation": worst,
        "queries": per_query,
        "assumes_unique_maximizer": True,
    }


def _uniqueness_probe(functional, seeds=(11, 12, 13)) -> dict:
    """Distinct-seed behaviors compared pairwise; reported without judgment."""
    behaviors = [optimize_violation(functional, seed=s).behavior for s in seeds]
    worst = 0.0
    for i in range(len(behaviors)):
        for j in range(i + 1, len(behaviors)):
            worst = max(
                worst, float(np.abs(behaviors[i].table - behaviors[j].table).max())
            )
    return {"seeds": list(seeds), "max_pairwise_table_distance": worst}


def _demo_chsh(seed: int) -> dict:
    functional = chsh()
    generators = find_symmetries(functional)
    bound = local_bound(functional)
    cert_block = _certification_block(functional, generators)
    local_queries = [LocalQuery(i, x) for i in range(2) for x in range(2)]
    opt_block, result, behavior = _optimize_block(
        functional, seed, queries=local_queries
    )
    correlators = correlators_from_behavior(behavior)
    one_body = max(
        abs(v) for (p, s), v in correlators.values.items() if len(p) == 1
    )
    cross = _cross_check_block(functional, generators, behavior, local_queries)
    return {
        "demo": "chsh",
        "functional": functional_to_dict(functional),
        "local_bound": {
            "bound": _bound_as_number(bound.bound),
            "maximizer_count": bound.maximizer_count,
        },
        "symmetries": {"count": len(generators)},
        "certification": cert_block,
        "optimization": opt_block,
        "max_abs_one_body_correlator": one_body,
        "cross_check": cross,
        "summary": {
            "local_bits": cert_block["local_bits"],
            "observed_local_bits": {
                k: v["bits"] for k, v in opt_block["observed"].items()
            },
        },
    }


def _demo_tilted(seed: int, eta: float = 0.5) -> dict:
    functional = tilted_chsh(eta)
    generators = find_symmetries(functional)
    cert_block = _certification_block(functional, generators)
    opt_block, result, behavior = _optimize_block(functional, seed)
    correlators = correlators_from_behavior(behavior)
    a1 = correlators.get((0,), (0,))
    a2 = correlators.get((0,), (1,))
    queries = [LocalQuery(0, 0), LocalQuery(0, 1)]
    cross = _cross_check_block(functional, generators, behavior, queries)
    return {
        "demo": "tilted",
        "eta": eta,
        "functional": functional_to_dict(functional),
        "local_bound": {
            "bound": _bound_as_number(local_bound(functional).bound),
        },
        "symmetries": {
            "count": len(generators),
            "generators": [relabeling_to_dict(g) for g in generators],
        },
        "certification": cert_block,
        "optimization": opt_block,
        "marginal_correlators": {"A1": a1, "A2": a2},
        "cross_check": cross,
        "summary": {
            "alice_certified_bits": {
                "party=0,setting=0": cert_block["local_bits"]["party=0,setting=0"],
                "party=0,setting=1": cert_block["local_bits"]["party=0,setting=1"],
            },
            "only_second_setting_certified": (
                cert_block["local_bits"]["party=0,setting=0"] == 0.0
                and cert_block["local_bits"]["party=0,setting=1"] == 1.0
            ),
        },
    }


def _demo_chained_local(seed: int) -> dict:
    m, d = 2, 3
    functional = chained_modular(m, d)
    shift = outcome_shift(functional.scenario)
    generators = find_symmetries(functional)
    # the local-randomness argument rests on the outcome shift alone; the
    # certificate and the model cross-check use just that generator
    cert_block = _certification_block(functional, [shift])
    # near-optimal Fourier-phase qudit model, evaluated through the Born rule
    model = phase_measurement_model(m, d, [0.0, 0.3812], [0.1906, 0.5718])
    behavior = behavior_from_model(model)
    value = evaluate(functional, behavior)
    queries = [LocalQuery(i, x) for i in range(2) for x in range(m)]
    cross = _cross_check_block(functional, [shift], behavior, queries)
    return {
        "demo": "chained-local",
        "m": m,
        "d": d,
        "functional": functional_to_dict(functional),
        "local_bound": {
            "bound": _bound_as_number(local_bound(functional).bound),
            "orientation": "min",
        },
        "shift_symmetry_verified": relabeling_to_dict(shift) in [
            relabeling_to_dict(g) for g in generators
        ],
        "symmetries": {"count": len(generators)},
        "certification": cert_block,
        "optimization": None,
        "qudit_model_value": value,
        "cross_check": cross,
        "summary": {
            "local_bits": cert_block["local_bits"],
            "expected_local_bits": math.log2(d),
        },
    }


def _demo_chained_global(seed: int) -> dict:
    functional = chained_correlator(3)
    generators = find_symmetries(functional)
    cert_block = _certification_block(functional, generators)
    target = JointQuery((0, 1))
    opt_block, result, behavior = _optimize_block(
        functional, seed, queries=[target]
    )
    cross = _cross_check_block(functional, generators, behavior, [target])
    inequality_inputs = ["x=0,0", "x=1,1", "x=2,2", "x=1,0", "x=2,1", "x=0,2"]
    return {
        "demo": "chained-global",
        "functional": functional_to_dict(functional),
        "local_bound": {
            "bound": _bound_as_number(local_bound(functional).bound),
        },
        "symmetries": {"count": len(generators)},
        "certification": cert_block,
        "optimization": opt_block,
        "uniqueness_probe": _uniqueness_probe(functional),
        "cross_check": cross,
        "summary": {
            "target_joint_bits": cert_block["joint_bits"]["x=0,1"],
            "inequality_inputs_below_two_bits": all(
                cert_block["joint_bits"][k] < 2.0 for k in inequality_inputs
            ),
        },
    }


def _demo_mermin_odd(seed: int) -> dict:
    functional = mermin(3)
    generators = find_symmetries(functional)
    cert_block = _certification_block(functional, generators)
    even_primed = [
        JointQuery(x)
        for x in functional.scenario.joint_inputs()
        if sum(x) % 2 == 0
    ]
    opt_block, result, behavior = _optimize_block(functional, seed, queries=even_primed)
    correlators = correlators_from_behavior(behavior)
    absent = max(
        abs(v)
        for (p, s), v in correlators.values.items()
        if not (len(p) == 3 and sum(s) % 2 == 1)
    )
    cross = _cross_check_block(functional, generators, behavior, even_primed)
    five = mermin(5)
    gens5 = find_symmetries(five)
    sweep5 = certify_all(five, gens5)
    bits5 = {
        _query_key(q): b
        for q, b in sweep5.items()
        if isinstance(q, JointQuery) and sum(q.settings) % 2 == 0
    }
    return {
        "demo": "mermin-odd",
        "functional": functional_to_dict(functional),
        "local_bound": {
            "bound": _bound_as_number(local_bound(functional).bound),
        },
        "symmetries": {"count": len(generators)},
        "certification": cert_block,
        "optimization": opt_block,
        "max_abs_correlator_absent_from_inequality": absent,
        "cross_check": cross,
        "five_party_certification": {
            "even_primed_joint_bits": bits5,
            "all_five_bits": all(abs(b - 5.0) < 1e-12 for b in bits5.values()),
        },
        "summary": {
            "even_primed_joint_bits": {
                _query_key(q): cert_block["joint_bits"][_query_key(q)]
                for q in even_primed
            },
        },
    }


def _demo_mermin_even(seed: int) -> dict:
    functional = mermin(4)
    generators = find_symmetries(functional)
    cert_block = _certification_block(functional, generators)
    best_key = max(cert_block["joint_bits"], key=cert_block["joint_bits"].get)
    best_query = JointQuery(
        tuple(int(tok) for tok in best_key[2:].split(","))
    )
    opt_block, result, behavior = _optimize_block(functional, seed, queries=[best_query])
    cross = _cross_check_block(functional, generators, behavior, [best_query])
    return {
        "demo": "mermin-even",
        "functional": functional_to_dict(functional),
        "local_bound": {
            "bound": _bound_as_number(local_bound(functional).bound),
        },
        "symmetries": {"count": len(generators)},
        "certification": cert_block,
        "optimization": opt_block,
        "cross_check": cross,
        "summary": {
            "max_joint_bits": max(cert_block["joint_bits"].values()),
            "parties": 4,
        },
    }


def _demo_lifted(seed: int) -> dict:
    functional = lifted_chsh_c()
    bound = local_bound(functional)
    generators = find_symmetries(functional)
    opt_block, result, behavior = _optimize_block(functional, seed)
    return {
        "demo": "lifted",
        "functional": functional_to_dict(functional),
        "local_bound": {
            "bound": _bound_as_number(bound.bound),
            "maximizer_count": bound.maximizer_count,
        },
        "symmetries": {"count": len(generators)},
        "optimization": opt_block,
        "uniqueness_probe": _uniqueness_probe(functional),
        "summary": {
            "classically_nonpositive": _bound_as_number(bound.bound) == 0,
            "several_classical_maximizers": bound.maximizer_count > 1,
        },
    }


def _cmd_demo(args: argparse.Namespace) -> dict:
    demos = {
        "chsh": _demo_chsh,
        "tilted": _demo_tilted,
        "chained-local": _demo_chained_local,
        "chained-global": _demo_chained_global,
        "mermin-odd": _demo_mermin_odd,
        "mermin-even": _demo_mermin_even,
        "lifted": _demo_lifted,
    }
    if args.name not in demos:
        raise UsageError(f"unknown demo {args.name!r}; choose from {', '.join(DEMO_NAMES)}")
    return demos[args.name](args.seed)


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
    p.add_argument("--cap", type=int, default=10**7)
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
    p.add_argument("--cap", type=int, default=10**8)
    p.add_argument("--party-perms", action="store_true")
    p.set_defaults(func=_cmd_symmetries)

    p = sub.add_parser("certify", help="orbit-based uniformity certification")
    _add_functional_options(p)
    p.add_argument("--cap", type=int, default=10**8)
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
    p.set_defaults(func=_cmd_demo)
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
