"""Randomness reports: observed guessing probabilities and certified bounds.

Reports come in two kinds and are labeled to prevent misreading:

* ``observed`` reports quote the guessing probability of an explicit
  behavior (the largest outcome probability at the queried input), so they
  describe that behavior only.
* ``certified`` reports quote the bound carried by a
  :class:`~bellcert.symmetry.UniformityCertificate` and are conditional on
  the certificate's uniqueness assumption, which follows from the report's
  kind and is restated verbatim in the report.

The intrinsic randomness of observed correlations (optimizing over all
realizations) is out of scope here; neither kind computes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .scenario import (
    Behavior,
    JointQuery,
    LocalQuery,
    ValidationError,
    _choice,
    _real,
    marginal,
)
from .symmetry import UNIQUENESS_NOTE, UniformityCertificate

Query = JointQuery | LocalQuery


@dataclass(frozen=True)
class RandomnessReport:
    """Guessing probability and min-entropy at a query, with provenance."""

    query: Query
    guessing_probability: float
    min_entropy_bits: float
    kind: str  # "observed" | "certified"

    def __post_init__(self) -> None:
        _choice(self.kind, "report kind", ("observed", "certified"))
        p = _real(self.guessing_probability, "guessing probability", positive=True, high=1)
        bits = _real(self.min_entropy_bits, "min-entropy")
        if not abs(bits + math.log2(p)) <= 1e-12:
            raise ValidationError(
                f"min-entropy {bits!r} bits is not -log2 of guessing probability {p!r}"
            )

    @property
    def assumption(self) -> str | None:
        """The uniqueness assumption of a certified report; None for an observed one."""
        return UNIQUENESS_NOTE if self.kind == "certified" else None


def guessing_probability(behavior: Behavior, x: Sequence[int] | int) -> float:
    """Largest joint-outcome probability at a joint input."""
    return float(behavior.row(x).max())


def min_entropy(p_guess: float) -> float:
    """Randomness in bits: -log2 of a guessing probability."""
    return -math.log2(_real(p_guess, "guessing probability", positive=True, high=1))


def observed_report(behavior: Behavior, query: Query) -> RandomnessReport:
    """Observed randomness of a behavior at a joint or single-party query."""
    if isinstance(query, JointQuery):
        p = guessing_probability(behavior, query.settings)
    else:
        p = float(marginal(behavior, (query.party,), (query.setting,)).max())
    return RandomnessReport(
        query=query,
        guessing_probability=p,
        min_entropy_bits=min_entropy(p),
        kind="observed",
    )


def certified_report(
    certificate: UniformityCertificate, query: Query
) -> RandomnessReport:
    """Conditional randomness bound carried by a uniformity certificate."""
    bits = certificate.certified_bits(query)
    return RandomnessReport(
        query=query,
        guessing_probability=2.0 ** (-bits),
        min_entropy_bits=bits,
        kind="certified",
    )


def report_to_dict(report: RandomnessReport) -> dict:
    if isinstance(report.query, JointQuery):
        query = {"joint": list(report.query.settings)}
    else:
        query = {"party": report.query.party, "setting": report.query.setting}
    return {
        "query": query,
        "kind": report.kind,
        "p_guess": report.guessing_probability,
        "bits": report.min_entropy_bits,
        "assumes_unique_maximizer": report.kind == "certified",
        **({"assumption": report.assumption} if report.assumption else {}),
    }
