"""Self-test of the benchmark's answer checks.

    python3 perfbench/selftest.py

Runs one cheap job of each workload, checks that its true answer passes,
then feeds the checks wrong answers (a symmetry count off by one, a see-saw
value off by 1e-3, a changed demo summary bit, a wrong local bound) and
exits non-zero unless every wrong answer is reported as a failure.
"""

from __future__ import annotations

import contextlib
import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def first_job(workload: str, label: str) -> workloads.Job:
    return next(j for j in workloads.make_jobs(workload, seed=0) if j.label == label)


def tampered_demo(answer: dict) -> dict:
    document = json.loads(answer["stdout"])
    bits = document["summary"]["local_bits"]
    key = sorted(bits)[0]
    bits[key] = 0.0 if bits[key] else 1.0
    return {**answer, "stdout": json.dumps(document, sort_keys=True) + "\n"}


CASES = [
    # workload, job label, description, tampering of the true answer
    ("seesaw", "chsh", "see-saw value off by 1e-3",
     lambda a: {**a, "value": a["value"] + 1e-3, "evaluated": a["evaluated"] + 1e-3}),
    ("symsearch", "chained_correlator(3)", "symmetry count off by one",
     lambda a: {**a, "count": a["count"] + 1}),
    ("classical", "chained_modular(3,5)", "local bound off by one",
     lambda a: {**a, "bound": a["bound"] + 1}),
    ("demos", "chsh", "changed demo summary bit", tampered_demo),
]


def main() -> int:
    failures = 0
    for workload, label, what, tamper in CASES:
        job = first_job(workload, label)
        answer = job.run(contextlib.nullcontext())
        state = copy.deepcopy(job.state)
        true_errors = job.check(answer)
        job.state = state
        wrong_errors = job.check(tamper(answer))
        ok = not true_errors and bool(wrong_errors)
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {workload}/{label}: true answer "
              f"{'passes' if not true_errors else 'fails: ' + '; '.join(true_errors)}; "
              f"{what} {'is caught: ' + wrong_errors[0] if wrong_errors else 'is NOT caught'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
