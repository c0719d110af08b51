"""Bell functionals: constructors, evaluation, and exact classical bounds.

A :class:`BellFunctional` is a linear form sum_{x,a} c(a,x) P(a|x) with an
orientation (maximize or minimize over behaviors).  Coefficients are exact
dyadic rationals (integer over a power of two) so that structural
comparisons, in particular the symmetry checks built on top of them, are
exact; evaluation converts to floating point.

Two-outcome functionals can equivalently be written in terms of correlators.
:func:`from_correlator_terms` builds the probability-coefficient table from
a correlator-weight mapping, distributing each weight uniformly over the
joint inputs compatible with it, and :func:`correlator_terms` inverts that
change of basis.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping

import numpy as np

from .scenario import (
    Behavior,
    Scenario,
    ScenarioMismatchError,
    ValidationError,
)

Orientation = str  # "max" | "min"
Strategy = tuple[tuple[int, ...], ...]  # per party: setting -> outcome index

DEFAULT_STRATEGY_CAP = 10**7
MAX_LISTED_MAXIMIZERS = 10**4


def _as_dyadic(value) -> Fraction:
    """Coerce to an exact dyadic rational (every finite float already is one)."""
    try:
        frac = Fraction(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"coefficient {value!r} is not a finite number") from exc
    den = frac.denominator
    if den & (den - 1):
        raise ValidationError(f"coefficient {value!r} is not dyadic (denominator {den})")
    return frac


def _log2_den(frac: Fraction) -> int:
    return frac.denominator.bit_length() - 1


@dataclass(frozen=True, eq=False)
class BellFunctional:
    """A linear functional on behaviors with orientation and a label.

    ``coefficients`` maps ``(joint input index, joint outcome index)`` to an
    exact dyadic :class:`~fractions.Fraction`; absent pairs have coefficient
    zero.
    """

    scenario: Scenario
    coefficients: Mapping[tuple[int, int], Fraction]
    orientation: Orientation = "max"
    name: str = ""

    def __post_init__(self) -> None:
        if self.orientation not in ("max", "min"):
            raise ValidationError(f"orientation must be 'max' or 'min', got {self.orientation!r}")
        cleaned: dict[tuple[int, int], Fraction] = {}
        for (x, a), c in self.coefficients.items():
            x, a = int(x), int(a)
            if not 0 <= x < self.scenario.num_inputs:
                raise ValidationError(f"input index {x} out of range")
            if not 0 <= a < self.scenario.num_outcomes:
                raise ValidationError(f"outcome index {a} out of range")
            c = _as_dyadic(c)
            if c != 0:
                cleaned[(x, a)] = c
        object.__setattr__(self, "coefficients", cleaned)

    # -- structural views ---------------------------------------------------

    @cached_property
    def scaled_table(self) -> tuple[np.ndarray, int]:
        """Dense integer table C and exponent L with coefficient = C / 2**L."""
        scale = max((_log2_den(c) for c in self.coefficients.values()), default=0)
        dense = np.zeros(
            (self.scenario.num_inputs, self.scenario.num_outcomes), dtype=np.int64
        )
        for (x, a), c in self.coefficients.items():
            scaled = c.numerator << (scale - _log2_den(c))
            if abs(scaled) > 2**52:
                raise ValidationError("coefficient too large for exact arithmetic")
            dense[x, a] = scaled
        dense.setflags(write=False)
        return dense, scale

    @cached_property
    def float_table(self) -> np.ndarray:
        dense, scale = self.scaled_table
        table = dense.astype(float) / (1 << scale)
        table.setflags(write=False)
        return table

    def same_coefficients(self, other: "BellFunctional") -> bool:
        """Exact coefficient-table equality (name and orientation ignored)."""
        return self.scenario == other.scenario and self.coefficients == other.coefficients

    def __repr__(self) -> str:  # keep test failure output readable
        return (
            f"BellFunctional({self.name or 'unnamed'}, settings={self.scenario.settings}, "
            f"d={self.scenario.outcomes}, {self.orientation}, {len(self.coefficients)} terms)"
        )


def evaluate(functional: BellFunctional, behavior: Behavior) -> float:
    """Value sum c(a,x) P(a|x) of the functional on a behavior."""
    if functional.scenario != behavior.scenario:
        raise ScenarioMismatchError(
            f"functional scenario {functional.scenario} != behavior scenario {behavior.scenario}"
        )
    return float(np.sum(functional.float_table * behavior.table))


def evaluate_on_strategy(functional: BellFunctional, strategy: Strategy) -> Fraction:
    """Exact value on a local deterministic strategy."""
    scenario = functional.scenario
    total = Fraction(0)
    for x_idx in range(scenario.num_inputs):
        x = scenario.input_tuple(x_idx)
        a = tuple(strategy[i][xi] for i, xi in enumerate(x))
        total += functional.coefficients.get((x_idx, scenario.outcome_index(a)), Fraction(0))
    return total


# --- correlator view (two-outcome scenarios) --------------------------------

CorrelatorKey = tuple[tuple[int, ...], tuple[int, ...]]


def from_correlator_terms(
    scenario: Scenario,
    terms: Mapping[CorrelatorKey, object],
    name: str = "",
    orientation: Orientation = "max",
) -> BellFunctional:
    """Build a functional from correlator weights.

    ``terms`` maps ``(parties, settings)`` to a weight; the weight of each
    term is spread uniformly over all joint inputs extending its setting
    assignment, which makes the coefficient table the canonical symmetric
    representative of the functional.
    """
    if scenario.outcomes != 2:
        raise ValidationError("correlator terms require a two-outcome scenario")
    signs = scenario.outcome_signs
    coeffs: dict[tuple[int, int], Fraction] = {}
    for (parties, assignment), weight in terms.items():
        weight = _as_dyadic(weight)
        if weight == 0:
            continue
        parties = tuple(parties)
        if list(parties) != sorted(set(parties)):
            raise ValidationError(f"party subset {parties} must be strictly increasing")
        n_ext = math.prod(
            scenario.settings[i] for i in range(scenario.parties) if i not in parties
        )
        share = weight / n_ext  # must stay dyadic
        if share.denominator & (share.denominator - 1):
            raise ValidationError(
                f"weight for {parties} cannot be spread dyadically over {n_ext} inputs"
            )
        extending = []
        for x_idx in range(scenario.num_inputs):
            x = scenario.input_tuple(x_idx)
            if all(x[i] == s for i, s in zip(parties, assignment)):
                extending.append(x_idx)
        for a_idx in range(scenario.num_outcomes):
            sign = 1
            for i in parties:
                sign *= int(signs[a_idx, i])
            for x_idx in extending:
                key = (x_idx, a_idx)
                coeffs[key] = coeffs.get(key, Fraction(0)) + share * sign
    return BellFunctional(scenario, coeffs, orientation=orientation, name=name)


def correlator_terms(
    functional: BellFunctional,
) -> tuple[dict[CorrelatorKey, Fraction], Fraction]:
    """Exact correlator weights of a two-outcome functional plus constant term.

    Inverts :func:`from_correlator_terms` for tables built by it; for a
    general table it returns the unique correlator form agreeing with the
    functional on all non-signaling behaviors.
    """
    scenario = functional.scenario
    if scenario.outcomes != 2:
        raise ValidationError("correlator view requires a two-outcome scenario")
    n = scenario.parties
    x_digits = scenario.input_digits
    a_digits = scenario.outcome_digits
    terms: dict[CorrelatorKey, Fraction] = {}
    constant = Fraction(0)
    # Fourier transform over outcomes per joint input, then aggregate by the
    # subset's setting assignment.
    per_input: dict[int, dict[tuple[int, ...], Fraction]] = {}
    for (x_idx, a_idx), c in functional.coefficients.items():
        per_input.setdefault(x_idx, {})[tuple(int(v) for v in a_digits[a_idx])] = c
    for x_idx, row in per_input.items():
        x = tuple(int(v) for v in x_digits[x_idx])
        for r in range(0, n + 1):
            for parties in itertools.combinations(range(n), r):
                hat = Fraction(0)
                for a, c in row.items():
                    sign = 1
                    for i in parties:
                        sign *= 1 - 2 * a[i]
                    hat += c * sign
                hat /= 2**n
                if hat == 0:
                    continue
                if not parties:
                    constant += hat
                else:
                    key = (parties, tuple(x[i] for i in parties))
                    terms[key] = terms.get(key, Fraction(0)) + hat
    return {k: v for k, v in terms.items() if v != 0}, constant


# --- named constructors ------------------------------------------------------

def chsh() -> BellFunctional:
    """The Clauser-Horne-Shimony-Holt functional on the (2,2,2) scenario."""
    scenario = Scenario((2, 2), 2)
    terms = {
        ((0, 1), (0, 0)): 1,
        ((0, 1), (0, 1)): 1,
        ((0, 1), (1, 0)): 1,
        ((0, 1), (1, 1)): -1,
    }
    return from_correlator_terms(scenario, terms, name="chsh")


def tilted_chsh(eta: float) -> BellFunctional:
    """CHSH plus ``eta`` times the first-setting marginal of party 0."""
    scenario = Scenario((2, 2), 2)
    terms: dict[CorrelatorKey, object] = {
        ((0, 1), (0, 0)): 1,
        ((0, 1), (0, 1)): 1,
        ((0, 1), (1, 0)): 1,
        ((0, 1), (1, 1)): -1,
        ((0,), (0,)): _as_dyadic(eta),
    }
    return from_correlator_terms(scenario, terms, name=f"tilted-chsh({eta})")


def chained_modular(m: int, d: int) -> BellFunctional:
    """Chained inequality in modular form on the (2, M, d) scenario.

    Sum over i of <[A_i - B_i]_d> + <[B_i - A_{i+1}]_d> with the wrap-around
    convention that the outcome of A_1 is shifted by one in the last term.
    Oriented to minimize; local strategies cannot go below d - 1.
    """
    if m < 2:
        raise ValidationError("chained inequality needs at least two settings")
    if d < 2:
        raise ValidationError("chained inequality needs at least two outcomes")
    scenario = Scenario((m, m), d)
    coeffs: dict[tuple[int, int], Fraction] = {}

    def add(x_a: int, x_b: int, residue) -> None:
        x_idx = scenario.input_index((x_a, x_b))
        for a in range(d):
            for b in range(d):
                a_idx = scenario.outcome_index((a, b))
                key = (x_idx, a_idx)
                coeffs[key] = coeffs.get(key, Fraction(0)) + residue(a, b)

    for i in range(m):
        add(i, i, lambda a, b: Fraction((a - b) % d))
        if i + 1 < m:
            add(i + 1, i, lambda a, b: Fraction((b - a) % d))
        else:
            # A_{M+1} = A_1 + 1: the residue uses the shifted outcome of A_1
            add(0, i, lambda a, b: Fraction((b - a - 1) % d))
    return BellFunctional(
        scenario, coeffs, orientation="min", name=f"chained-modular({m},{d})"
    )


def chained_correlator(m: int) -> BellFunctional:
    """Two-outcome chained inequality as a correlator sum on (2, M, 2).

    Sum_i <A_i B_i> + sum_{i<M} <A_{i+1} B_i> - <A_1 B_M>, oriented to
    maximize (the one-sided convention; the opposite sign is reachable by a
    relabeling).
    """
    if m < 2:
        raise ValidationError("chained inequality needs at least two settings")
    scenario = Scenario((m, m), 2)
    terms: dict[CorrelatorKey, int] = {}
    for i in range(m):
        terms[((0, 1), (i, i))] = 1
    for i in range(m - 1):
        terms[((0, 1), (i + 1, i))] = 1
    terms[((0, 1), (0, m - 1))] = -1
    return from_correlator_terms(scenario, terms, name=f"chained-correlator({m})")


def _mermin_terms(n: int) -> dict[tuple[int, ...], Fraction]:
    """Full-correlator weights of the N-party Mermin functional, by recursion."""
    terms: dict[tuple[int, ...], Fraction] = {
        (0, 0): Fraction(1),
        (0, 1): Fraction(1),
        (1, 0): Fraction(1),
        (1, 1): Fraction(-1),
    }
    for _ in range(3, n + 1):
        swapped = {tuple(1 - s for s in key): c for key, c in terms.items()}
        grown: dict[tuple[int, ...], Fraction] = {}
        for key in terms.keys() | swapped.keys():
            plain = terms.get(key, Fraction(0))
            primed = swapped.get(key, Fraction(0))
            lo = (plain + primed) / 2
            hi = (plain - primed) / 2
            if lo:
                grown[key + (0,)] = lo
            if hi:
                grown[key + (1,)] = hi
        terms = grown
    # For odd N every surviving term has the same prime-count parity, but the
    # recursion alternates which parity that is with period four in N.  Use
    # the primed twin when needed so odd-N functionals always carry the
    # odd-primed labeling convention.
    if n % 2 == 1 and sum(next(iter(terms))) % 2 == 0:
        terms = {tuple(1 - s for s in key): c for key, c in terms.items()}
    return terms


def mermin(n: int) -> BellFunctional:
    """N-party Mermin functional on (N, 2, 2), built by the standard recursion.

    The two-party case coincides with CHSH; each recursion step averages the
    previous functional and its setting-swapped twin against the new party's
    two observables.
    """
    if n < 2:
        raise ValidationError("the Mermin family starts at two parties")
    scenario = Scenario((2,) * n, 2)
    terms = {
        (tuple(range(n)), key): c for key, c in _mermin_terms(n).items()
    }
    return from_correlator_terms(scenario, terms, name=f"mermin({n})")


def lifted_chsh_c() -> BellFunctional:
    """CHSH lifted to (3, [2,2,1], 2) against one outcome of the third party.

    The two-party CHSH expression minus its classical bound is multiplied by
    the indicator of party 3's "+1" outcome at its single setting, giving a
    functional that is nonpositive on every local deterministic strategy
    with 0 attained.
    """
    scenario = Scenario((2, 2, 1), 2)
    base = chsh()
    coeffs: dict[tuple[int, int], Fraction] = {}
    for (x_idx, a_idx), c in base.coefficients.items():
        xa, xb = base.scenario.input_tuple(x_idx)
        aa, ab = base.scenario.outcome_tuple(a_idx)
        key = (scenario.input_index((xa, xb, 0)), scenario.outcome_index((aa, ab, 0)))
        coeffs[key] = coeffs.get(key, Fraction(0)) + c
    # -2 * P(c = +1), spread uniformly over the four (A, B) joint inputs
    for xa in range(2):
        for xb in range(2):
            x_idx = scenario.input_index((xa, xb, 0))
            for aa in range(2):
                for ab in range(2):
                    key = (x_idx, scenario.outcome_index((aa, ab, 0)))
                    coeffs[key] = coeffs.get(key, Fraction(0)) - Fraction(1, 2)
    return BellFunctional(scenario, coeffs, name="lifted-chsh-c")


# --- classical bound by exhaustive enumeration -------------------------------

class CapExceededError(RuntimeError):
    """The deterministic-strategy space exceeds the configured cap."""


@dataclass(frozen=True)
class LocalBoundReport:
    """Exact optimum over local deterministic strategies.

    ``bound`` is exact (a Fraction); ``maximizer_count`` counts every
    attaining strategy even when the listing is truncated.
    """

    bound: Fraction
    maximizer_count: int
    maximizers: tuple[Strategy, ...]


def _strategy_from_index(scenario: Scenario, index: int) -> Strategy:
    # mixed-radix decode, party 0 most significant; within a party the
    # outcome for setting x is the base-d digit at position M_i - 1 - x
    d = scenario.outcomes
    sizes = [d**m for m in scenario.settings]
    strides = []
    acc = 1
    for size in reversed(sizes):
        strides.append(acc)
        acc *= size
    strides = list(reversed(strides))
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
    sizes = [d**m for m in scenario.settings]
    total = math.prod(sizes)
    if total > cap:
        raise CapExceededError(
            f"{total} deterministic strategies exceed the cap of {cap}"
        )
    dense, scale = functional.scaled_table
    strides = []
    acc = 1
    for size in reversed(sizes):
        strides.append(acc)
        acc *= size
    strides = list(reversed(strides))

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


# --- JSON serialization ------------------------------------------------------

def functional_to_dict(functional: BellFunctional) -> dict:
    scenario = functional.scenario
    terms = []
    for (x_idx, a_idx) in sorted(functional.coefficients):
        c = functional.coefficients[(x_idx, a_idx)]
        terms.append(
            {
                "x": list(scenario.input_tuple(x_idx)),
                "a": list(scenario.outcome_tuple(a_idx)),
                "c_num": c.numerator,
                "c_log2_den": _log2_den(c),
            }
        )
    return {
        "name": functional.name,
        "parties": scenario.parties,
        "settings": list(scenario.settings),
        "outcomes": scenario.outcomes,
        "orientation": functional.orientation,
        "terms": terms,
    }


def functional_from_dict(data: Mapping) -> BellFunctional:
    try:
        scenario = Scenario(tuple(data["settings"]), data["outcomes"])
        if data.get("parties") not in (None, scenario.parties):
            raise ValidationError("party count does not match the settings list")
        coeffs: dict[tuple[int, int], Fraction] = {}
        for term in data["terms"]:
            key = (
                scenario.input_index(tuple(term["x"])),
                scenario.outcome_index(tuple(term["a"])),
            )
            c = Fraction(operator.index(term["c_num"]), 1 << term["c_log2_den"])
            coeffs[key] = coeffs.get(key, Fraction(0)) + c
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed functional: {exc!r}") from exc
    return BellFunctional(
        scenario,
        coeffs,
        orientation=data.get("orientation", "max"),
        name=data.get("name", ""),
    )
