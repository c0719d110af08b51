"""The exhaustive ``local_bound`` that the best-response contraction replaced,
kept as a test oracle.

It walks all prod_i d**M_i joint deterministic strategies in chunks of 2**16,
with a Python loop over joint inputs and parties inside each chunk.  It
shares no code with ``bellcert.functionals.local_bound``; only the report
and error types come from the library.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from bellcert.functionals import (
    DEFAULT_STRATEGY_CAP,
    MAX_LISTED_MAXIMIZERS,
    BellFunctional,
    CapExceededError,
    LocalBoundReport,
    Strategy,
)
from bellcert.scenario import Scenario


def _strategy_strides(scenario: Scenario) -> tuple[list[int], list[int]]:
    """Per-party strategy counts d**M_i and their mixed-radix strides, party 0
    most significant."""
    sizes = [scenario.outcomes**m for m in scenario.settings]
    return sizes, [math.prod(sizes[i + 1 :]) for i in range(len(sizes))]


def _strategy_from_index(scenario: Scenario, index: int) -> Strategy:
    # within a party the outcome for setting x is the base-d digit at
    # position M_i - 1 - x
    d = scenario.outcomes
    sizes, strides = _strategy_strides(scenario)
    out: list[tuple[int, ...]] = []
    for size, stride, m in zip(sizes, strides, scenario.settings):
        t = (index // stride) % size
        out.append(tuple((t // d ** (m - 1 - x)) % d for x in range(m)))
    return tuple(out)


def local_bound(
    functional: BellFunctional,
    cap: int = DEFAULT_STRATEGY_CAP,
    max_listed: int = MAX_LISTED_MAXIMIZERS,
) -> LocalBoundReport:
    """Optimum of the functional over all local deterministic strategies.

    Enumerates all prod_i d**M_i joint strategies (raising
    :class:`CapExceededError` beyond ``cap``) with exact integer arithmetic,
    honoring the functional's orientation.  All attaining strategies are
    counted; at most ``max_listed`` are returned, in enumeration order.
    """
    scenario = functional.scenario
    d = scenario.outcomes
    sizes, strides = _strategy_strides(scenario)
    total = math.prod(sizes)
    if total > cap:
        raise CapExceededError(
            f"{total} deterministic strategies exceed the cap of {cap}"
        )
    dense, scale = functional.table, functional.log2_den

    x_digits = scenario.input_digits
    best: int | None = None
    count = 0
    listed: list[int] = []
    sign = 1 if functional.orientation == "max" else -1
    chunk = 1 << 16
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        party_t = [
            (idx // strides[i]) % sizes[i] for i in range(scenario.parties)
        ]
        values = np.zeros(len(idx), dtype=np.int64)
        for x_idx in range(scenario.num_inputs):
            a_flat = np.zeros(len(idx), dtype=np.int64)
            for i in range(scenario.parties):
                xi = int(x_digits[x_idx, i])
                digit = (party_t[i] // d ** (scenario.settings[i] - 1 - xi)) % d
                a_flat += digit * scenario.outcome_strides[i]
            values += dense[x_idx, a_flat]
        signed = sign * values
        chunk_best = int(signed.max())
        if best is None or chunk_best > best:
            best = chunk_best
            count = 0
            listed = []
        if chunk_best == best:
            hits = idx[signed == best]
            count += len(hits)
            if len(listed) < max_listed:
                listed.extend(int(h) for h in hits[: max_listed - len(listed)])
    assert best is not None
    bound = Fraction(sign * best, 1 << scale)
    maximizers = tuple(_strategy_from_index(scenario, i) for i in listed)
    return LocalBoundReport(bound=bound, maximizer_count=count, maximizers=maximizers)
