"""End-to-end checks of the command line and of a fresh process: the
read-back of a whole listing, the certificates of the Mermin family and of
CHSH and a model's read-back, run in-process through ``bellcert.cli.main``;
the see-saw's peak memory and the refusal of oversized named functionals
and restart counts, each in a fresh interpreter.

The count of ``symmetries --functional mermin --n 5`` (511) is implied by
that listing's sha256 pin in ``test_cli.py``.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import bellcert
from bellcert import (
    Scenario,
    ValidationError,
    behavior_from_dict,
    behavior_from_model,
    is_symmetry,
    mermin,
    model_from_dict,
    relabeling_from_dict,
)
from bellcert.cli import main


def run(capsys, *argv) -> dict:
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0 and not captured.err
    return json.loads(captured.out)


def test_listing_with_party_perms_reads_back_as_distinct_symmetries(capsys):
    f = mermin(4)
    listed = run(capsys, "symmetries", "--functional", "mermin", "--n", "4", "--party-perms")
    gs = [relabeling_from_dict(f.scenario, s) for s in listed["symmetries"]]
    assert len(gs) == len(set(gs)) == listed["count"] == 3071
    assert all(is_symmetry(g, f) for g in gs)


@pytest.mark.parametrize(
    "options, generators, joint_bits",
    [
        (("--n", "4", "--party-perms"), 10, {3.0}),
        (("--n", "5", "--party-perms"), 13, {4.0, 5.0}),
        # 8191 symmetries, 3 per gather: the pass gathers only the 13 that are
        # no products of their predecessor and an earlier one
        (("--n", "7"), 13, {6.0, 7.0}),
        # 31 generators × 76 events, below an eighth of one gather: certification
        # verifies every generator without the pass
        (("--n", "3"), 5, {2.0, 3.0}),
    ],
    ids=["mermin4-party-perms", "mermin5-party-perms", "mermin7", "mermin3"],
)
def test_mermin_certificate(capsys, options, generators, joint_bits):
    cert = run(capsys, "certify", "--functional", "mermin", *options)
    assert cert["generator_count"] == generators
    assert set(cert["joint_bits"].values()) == joint_bits
    assert set(cert["local_bits"].values()) == {1.0}


def test_chsh_certified_report(capsys):
    report = run(capsys, "certify", "--functional", "chsh", "--query", "local:1,1")
    assert (report["bits"], report["p_guess"], report["assumes_unique_maximizer"]) == (
        1.0,
        0.5,
        True,
    )
    assert "unique" in report["assumption"]


def test_chsh_model_reads_back_to_its_behavior(capsys):
    document = run(capsys, "maximize", "--functional", "chsh", "--emit-model", "--emit-behavior")
    model = model_from_dict(document["model"])
    behavior = behavior_from_dict(document["behavior"])
    assert np.abs(behavior_from_model(model).table - behavior.table).max() <= 1e-12


def fresh_python(code: str, *args: str, **env: str) -> str:
    """Stdout of ``code`` run with ``args`` in a fresh interpreter that imports
    this bellcert, with ``env`` added to the environment."""
    paths = (os.path.dirname(os.path.dirname(bellcert.__file__)), os.environ.get("PYTHONPATH"))
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, check=False
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


PEAK_GROWTH = """
import json, resource
from bellcert import mermin, optimize_violation
f = mermin(8)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
value = optimize_violation(f).value
grown = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024
print(json.dumps({"value": value, "grown_mib": grown}))
"""


def test_mermin8_see_saw_adds_little_to_the_peak_rss():
    """The see-saw runs its batch in slices, so mermin(8) adds little to the
    peak RSS of a fresh process (+17 MiB; +91 MiB as one batch)."""
    got = json.loads(fresh_python(PEAK_GROWTH))
    assert abs(got["value"] - 16 * math.sqrt(2)) <= 1e-6
    assert got["grown_mib"] < 40


EVENTS = "joint events, above the 16777216 a document may have"
# each library call, run in bellcert's namespace, and the same request on the
# command line, with the end of the refusal both give
OVERSIZED = {
    "mermin(30)": (["local-bound", "--functional", "mermin", "--n", "30"], EVENTS),
    # too many parties to build the settings tuple, and 4^n too large to write out
    "mermin(10**10)": (["local-bound", "--functional", "mermin", "--n", str(10**10)], EVENTS),
    "mermin(10**20)": (["local-bound", "--functional", "mermin", "--n", str(10**20)], EVENTS),
    "chained_correlator(10**4)": (
        ["local-bound", "--functional", "chained-correlator", "--m", "10000"], EVENTS
    ),
    "chained_modular(10**3, 10)": (
        ["local-bound", "--functional", "chained-modular", "--m", "1000", "--d", "10"], EVENTS
    ),
    # one random generator per restart
    "optimize_violation(chsh(), restarts=10**9)": (
        ["maximize", "--functional", "chsh", "--restarts", str(10**9)],
        "restarts must be an integer in 1..65536, got 1000000000",
    ),
}

# Under a 1.5 GiB address-space limit, so that a constructor that allocated
# before its size check fails with MemoryError instead of taking gigabytes;
# with one BLAS thread, since each thread's buffers count against the limit;
# and at Python's smallest int-to-string limit, as in the rest of the suite.
REFUSALS = """
import contextlib, io, json, resource, sys, tracemalloc
sys.set_int_max_str_digits(640)
soft = 3 << 29
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (soft if hard < 0 else min(soft, hard), hard))
import bellcert
from bellcert.cli import main
out = {}
for call, (argv, _) in json.loads(sys.argv[1]).items():
    tracemalloc.start()
    try:
        eval(call, vars(bellcert))
        error = None
    except Exception as exc:
        error = type(exc).__name__
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    except Exception as exc:
        code = type(exc).__name__
    err = stderr.getvalue().splitlines()
    out[call] = {"error": error, "peak": peak, "code": code, "out": stdout.getvalue(), "err": err}
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def refusals():
    return json.loads(fresh_python(REFUSALS, json.dumps(OVERSIZED), OPENBLAS_NUM_THREADS="1"))


@pytest.mark.parametrize("label", OVERSIZED)
def test_oversized_named_functional_is_refused_before_it_is_allocated(refusals, label):
    got, ending = refusals[label], OVERSIZED[label][1]
    assert got["error"] == "ValidationError"
    assert got["peak"] < 64 * 2**10
    assert got["code"] == 1 and not got["out"] and len(got["err"]) == 1
    error = json.loads(got["err"][0])
    assert error["code"] == "invalid-input"
    assert error["message"].endswith(ending)


def test_the_size_check_accepts_exactly_the_largest_documents():
    """mermin(12)'s scenario has 2^24 joint events, the most a document may
    have, and mermin(13)'s four times as many."""
    largest = Scenario((2,) * 12, 2)
    assert largest.num_inputs * largest.num_outcomes == 2**24
    with pytest.raises(ValidationError, match="^scenario has 67108864 joint events"):
        Scenario((2,) * 13, 2)
