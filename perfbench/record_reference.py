"""Record the expected answers the benchmark checks against.

    python3 perfbench/record_reference.py

Computes, on the unrelabeled functionals, the symmetry count and certified
bits of every symsearch job, the local bound and maximizer count of every
classical job, and the checked fields of every demo (``--seed 0``), and
writes them to ``perfbench/reference.json``.  The committed file was
recorded on the commit that introduced the benchmark; re-record only when a
change is meant to alter an answer.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bellcert as bc  # noqa: E402
import workloads  # noqa: E402


def expected_count(ctor: str, args: tuple, party_perms: bool) -> int | None:
    """Closed-form symmetry counts: 4m-1 for chained_correlator(m), 2^(2n-1)-1 for mermin(n)."""
    if party_perms:
        return None
    if ctor == "chained_correlator":
        return 4 * args[0] - 1
    if ctor == "mermin":
        return 2 ** (2 * args[0] - 1) - 1
    return None


def main() -> int:
    reference = {"symsearch": {}, "classical": {}, "demos": {}}
    for label, ctor, args, _, party_perms in workloads.SYMSEARCH:
        f = getattr(bc, ctor)(*args)
        hits = bc.find_symmetries(f, include_party_perms=party_perms)
        closed_form = expected_count(ctor, args, party_perms)
        if closed_form is not None and len(hits) != closed_form:
            raise SystemExit(f"{label}: {len(hits)} symmetries, closed form {closed_form}")
        sweep = bc.certify_all(f, hits)
        reference["symsearch"][label] = {"count": len(hits), "bits": sorted(sweep.values())}
    for label, ctor, args, _ in workloads.CLASSICAL:
        report = bc.local_bound(getattr(bc, ctor)(*args))
        reference["classical"][label] = {
            "bound": str(report.bound),
            "maximizer_count": report.maximizer_count,
        }
    for name in workloads.DEMO_NAMES:
        answer = workloads.run_demo(["demo", name, "--seed", "0"])
        reference["demos"][name] = workloads.demo_fields(json.loads(answer["stdout"]))
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
