"""Bell functionals: constructors, evaluation, and exact classical bounds.

A :class:`BellFunctional` is a linear form sum_{x,a} c(a,x) P(a|x) with an
orientation (maximize or minimize over behaviors).  Its coefficients are one
exact int64 table C of shape (num_inputs, num_outcomes) and an exponent L,
c(a,x) = C[x, a] / 2**L in lowest terms, so structural comparisons, in
particular the symmetry checks built on top of them, are exact; evaluation
converts to floating point.  Construction checks once that max|C| *
num_inputs < 2**62, the range of :func:`local_bound`'s exact int64 sums.

Two-outcome functionals can equivalently be written in terms of correlators.
:func:`from_correlator_terms` builds the probability-coefficient table from
a correlator-weight mapping, distributing each weight uniformly over the
joint inputs compatible with it, and :func:`correlator_terms` inverts that
change of basis, each by an exact integer Walsh-Hadamard transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .scenario import (
    _GATHER_ELEMENTS,
    Behavior,
    Scenario,
    ValidationError,
    _choice,
    _correlator_key,
    _correlator_place,
    _document_header,
    _document_scenario,
    _index_rows,
    _integer,
    _items,
    _paired,
    _reading,
    _Repeated,
    _shown,
    _strategy_outcomes,
    _subset_sums,
    _walsh_hadamard,
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
        raise ValidationError(f"coefficient {_shown(value)} is not a finite number") from exc
    den = frac.denominator
    if den & (den - 1):
        raise ValidationError(
            f"coefficient {_shown(value)} is not dyadic (denominator {_shown(den)})"
        )
    return frac


def _log2_den(frac: Fraction) -> int:
    return frac.denominator.bit_length() - 1


def _exact_dtype(magnitude: int):
    """int64 below 2**63, else exact Python integers (object arrays)."""
    return np.int64 if magnitude < 1 << 63 else object


def _sum_terms(scenario: Scenario, events, nums, exps) -> tuple[np.ndarray, int]:
    """Exact flat table and exponent of the sum of nums[k] / 2**exps[k] at
    flat event index events[k]."""
    log2_den = max(exps, default=0)
    scaled = [c << (log2_den - e) for c, e in zip(nums, exps)]
    table = np.zeros(
        scenario.num_inputs * scenario.num_outcomes,
        dtype=_exact_dtype(sum(map(abs, scaled))),
    )
    np.add.at(table, np.asarray(events, dtype=np.int64), np.array(scaled, dtype=table.dtype))
    return table, log2_den


@dataclass(frozen=True, eq=False, init=False, repr=False)
class BellFunctional:
    """A linear functional on behaviors with orientation and a label.

    ``table[x, a] / 2**log2_den`` is the coefficient of P(a|x) at joint input
    index ``x`` and joint outcome index ``a``, in lowest terms; ``table`` is
    a read-only int64 array.  The constructor takes a mapping ``(x, a) ->
    number`` of exact dyadic values (every finite float is one); absent pairs
    have coefficient zero.
    """

    scenario: Scenario
    table: np.ndarray
    log2_den: int
    orientation: Orientation
    name: str

    def __init__(
        self,
        scenario: Scenario,
        coefficients: Mapping,
        orientation: Orientation = "max",
        name: str = "",
    ) -> None:
        items = _items(coefficients, "coefficients")
        limits = (scenario.num_inputs, scenario.num_outcomes)
        events = _index_rows([key for key, _ in items], limits, "(x, a) key") @ (limits[1], 1)
        fracs = [_as_dyadic(c) for _, c in items]
        nums, exps = [f.numerator for f in fracs], [_log2_den(f) for f in fracs]
        self._set(scenario, *_sum_terms(scenario, events, nums, exps), orientation, name)

    @classmethod
    def _from_table(cls, scenario, table, log2_den, orientation="max", name=""):
        """The functional ``table / 2**log2_den``: int64 or Python-int entries,
        any shape with the scenario's number of events."""
        functional = cls.__new__(cls)
        functional._set(scenario, table, log2_den, orientation, name)
        return functional

    def _set(self, scenario, table, log2_den, orientation, name) -> None:
        orientation = _choice(orientation, "orientation", ("max", "min"))
        if not isinstance(name, str):
            raise ValidationError(f"name must be a string, got {_shown(name)}")
        # cancel the powers of two every entry shares with 2**log2_den
        bits = int(np.bitwise_or.reduce(table, axis=None))
        shift = min(log2_den, (bits & -bits).bit_length() - 1) if bits else log2_den
        table, log2_den = table >> shift, log2_den - shift
        peak = int(np.abs(table).max(initial=0))
        if peak * scenario.num_inputs >= 1 << 62:
            raise ValidationError(
                f"coefficients over their common denominator 2^{log2_den} do not fit "
                f"exact int64 arithmetic: the largest numerator has {peak.bit_length()} "
                f"bits, and times {scenario.num_inputs} inputs it must stay below 2^62"
            )
        table = table.astype(np.int64).reshape(scenario.num_inputs, scenario.num_outcomes)
        table.setflags(write=False)
        self.__dict__.update(
            scenario=scenario, table=table, log2_den=log2_den, orientation=orientation, name=name
        )

    # -- derived views --------------------------------------------------------

    @cached_property
    def coefficients(self) -> Mapping[tuple[int, int], Fraction]:
        """Read-only ``(x, a) -> Fraction`` view of the nonzero coefficients."""
        xs, as_ = np.nonzero(self.table)
        values = (Fraction(c, 1 << self.log2_den) for c in self.table[xs, as_].tolist())
        return MappingProxyType(dict(zip(zip(xs.tolist(), as_.tolist()), values)))

    @cached_property
    def float_table(self) -> np.ndarray:
        """Coefficients as doubles; raises if a nonzero one is below the normal range."""
        table = np.ldexp(self.table.astype(float), -self.log2_den)
        if (np.abs(table[self.table != 0]) < np.finfo(float).tiny).any():
            raise ValidationError(
                f"a coefficient over the common denominator 2^{self.log2_den} is below "
                "the normal double range"
            )
        table.setflags(write=False)
        return table

    def same_coefficients(self, other: "BellFunctional") -> bool:
        """Exact coefficient-table equality (name and orientation ignored)."""
        same_scale = (self.scenario, self.log2_den) == (other.scenario, other.log2_den)
        return same_scale and np.array_equal(self.table, other.table)

    def __repr__(self) -> str:  # keep test failure output readable
        return (
            f"BellFunctional({self.name or 'unnamed'}, settings={self.scenario.settings}, "
            f"d={self.scenario.outcomes}, {self.orientation}, "
            f"{np.count_nonzero(self.table)} terms)"
        )


def evaluate(functional: BellFunctional, behavior: Behavior) -> float:
    """Value sum c(a,x) P(a|x) of the functional on a behavior."""
    functional.scenario._match(behavior.scenario, "functional and behavior")
    return float(np.sum(functional.float_table * behavior.table))


def evaluate_on_strategy(functional: BellFunctional, strategy: Strategy) -> Fraction:
    """Exact value on a local deterministic strategy."""
    scenario = functional.scenario
    outcome = _strategy_outcomes(scenario, strategy)
    total = functional.table[np.arange(scenario.num_inputs), outcome].sum()
    return Fraction(int(total), 1 << functional.log2_den)


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
    scenario._two_outcomes("a functional from correlator terms")
    n = scenario.parties
    # the flat index of each entry of the transformed table, axes (x..., b...)
    positions = np.arange(scenario.num_inputs * 2**n).reshape(scenario.settings + (2,) * n)
    events, nums, exps = [], [], []
    for key, weight in _items(terms, "correlator terms"):
        parties, assignment = _correlator_key(scenario, key)
        weight = _as_dyadic(weight)
        if weight:
            spots = positions[_correlator_place(n, parties, assignment)].ravel().tolist()
            share = _as_dyadic(weight / len(spots))  # the weight spread over its positions
            events += spots
            nums += [share.numerator] * len(spots)
            exps += [_log2_den(share)] * len(spots)
    hat, log2_den = _sum_terms(scenario, events, nums, exps)
    hat = _walsh_hadamard(hat.reshape(positions.shape), n)
    return BellFunctional._from_table(scenario, hat, log2_den, orientation=orientation, name=name)


def correlator_terms(
    functional: BellFunctional,
) -> tuple[dict[CorrelatorKey, Fraction], Fraction]:
    """Exact correlator weights of a two-outcome functional plus constant term.

    Inverts :func:`from_correlator_terms` for tables built by it; for a
    general table it returns the unique correlator form agreeing with the
    functional on all non-signaling behaviors.
    """
    scenario = functional.scenario
    scenario._two_outcomes("the correlator view")
    n = scenario.parties
    peak = int(np.abs(functional.table).max(initial=0))
    hat = functional.table.astype(_exact_dtype(peak * scenario.num_inputs << n))
    # transform over outcomes per joint input, then sum each subset's column
    # over the settings of the parties outside it
    hat = _walsh_hadamard(hat.reshape(scenario.settings + (2,) * n), n)
    den = 1 << (n + functional.log2_den)
    sums = _subset_sums(scenario, hat)
    constant = Fraction(int(next(sums)[1]), den)
    terms: dict[CorrelatorKey, Fraction] = {}
    for parties, summed in sums:
        for assignment in zip(*(idx.tolist() for idx in np.nonzero(summed))):
            terms[(parties, assignment)] = Fraction(int(summed[assignment]), den)
    return terms, constant


# --- named constructors ------------------------------------------------------

def _full_correlators(
    scenario: Scenario, weights: np.ndarray, log2_den: int, name: str
) -> BellFunctional:
    """sum_x weights[x] / 2**log2_den <A^(x_0) B^(x_1) ...> on a two-outcome
    scenario from an integer array of full-correlator weights, one axis per
    party, of shape ``scenario.settings``."""
    n = scenario.parties
    hat = np.zeros(scenario.settings + (2,) * n, dtype=np.int64)
    hat[(Ellipsis,) + (1,) * n] = weights
    return BellFunctional._from_table(scenario, _walsh_hadamard(hat, n), log2_den, name=name)


def chsh() -> BellFunctional:
    """The Clauser-Horne-Shimony-Holt functional on the (2,2,2) scenario."""
    return _full_correlators(Scenario((2, 2), 2), np.array([[1, 1], [1, -1]]), 0, "chsh")


def tilted_chsh(eta: float) -> BellFunctional:
    """CHSH plus ``eta`` times the first-setting marginal of party 0."""
    terms: dict[CorrelatorKey, object] = correlator_terms(chsh())[0]
    terms[((0,), (0,))] = _as_dyadic(eta)
    return from_correlator_terms(Scenario((2, 2), 2), terms, name=f"tilted-chsh({_shown(eta)})")


def chained_modular(m: int, d: int) -> BellFunctional:
    """Chained inequality in modular form on the (2, M, d) scenario.

    Sum over i of <[A_i - B_i]_d> + <[B_i - A_{i+1}]_d> with the wrap-around
    convention that the outcome of A_1 is shifted by one in the last term.
    Oriented to minimize; local strategies cannot go below d - 1.
    """
    m, d = _integer(m, "m", 2), _integer(d, "d", 2)
    scenario = Scenario((m, m), d)
    a = np.arange(d)[:, None]
    b = np.arange(d)[None, :]
    table = np.zeros((m, m, d, d), dtype=np.int64)  # (x_a, x_b, a, b)
    settings = np.arange(m)
    table[settings, settings] += (a - b) % d
    table[settings[1:], settings[:-1]] += (b - a) % d
    # A_{M+1} = A_1 + 1: the residue uses the shifted outcome of A_1
    table[0, m - 1] += (b - a - 1) % d
    return BellFunctional._from_table(
        scenario, table, 0, orientation="min", name=f"chained-modular({m},{d})"
    )


def chained_correlator(m: int) -> BellFunctional:
    """Two-outcome chained inequality as a correlator sum on (2, M, 2).

    Sum_i <A_i B_i> + sum_{i<M} <A_{i+1} B_i> - <A_1 B_M>, oriented to
    maximize (the one-sided convention; the opposite sign is reachable by a
    relabeling).
    """
    m = _integer(m, "m", 2)
    scenario = Scenario((m, m), 2)
    weights = np.eye(m, dtype=np.int64) + np.eye(m, k=-1, dtype=np.int64)
    weights[0, m - 1] = -1
    return _full_correlators(scenario, weights, 0, f"chained-correlator({m})")


def mermin(n: int) -> BellFunctional:
    """N-party Mermin functional on (N, 2, 2), built by the standard recursion.

    The two-party case coincides with CHSH; each recursion step averages the
    previous functional and its setting-swapped twin against the new party's
    two observables.
    """
    n = _integer(n, "n", 2)
    scenario = Scenario(_Repeated(2, n), 2)  # sized before n settings exist
    weights = np.array([[1, 1], [1, -1]])  # in units of 2**-(parties - 2)
    for _ in range(3, n + 1):
        twin = np.flip(weights)  # every party's two settings swapped
        weights = np.stack((weights + twin, weights - twin), axis=-1)
    # For odd N every nonzero weight has the same prime-count parity, but the
    # recursion alternates which parity that is with period four in N.  Use
    # the primed twin when needed so odd-N functionals always carry the
    # odd-primed labeling convention.
    if n % 2 == 1 and np.argwhere(weights)[0].sum() % 2 == 0:
        weights = np.flip(weights)
    return _full_correlators(scenario, weights, n - 2, f"mermin({n})")


def lifted_chsh_c() -> BellFunctional:
    """CHSH lifted to (3, [2,2,1], 2) against one outcome of the third party.

    The two-party CHSH expression minus its classical bound is multiplied by
    the indicator of party 3's "+1" outcome at its single setting, giving a
    functional that is nonpositive on every local deterministic strategy
    with 0 attained.
    """
    scenario = Scenario((2, 2, 1), 2)
    # in halves: CHSH (integer coefficients) minus 1/2 at c = +1, that is
    # -2 * P(c = +1) spread uniformly over the four (A, B) joint inputs
    table = np.zeros((2, 2, 1, 2, 2, 2), dtype=np.int64)  # (x_a, x_b, x_c, a, b, c)
    table[:, :, 0, :, :, 0] = 2 * chsh().table.reshape(2, 2, 2, 2) - 1
    return BellFunctional._from_table(scenario, table, 1, name="lifted-chsh-c")


# --- classical bound by best response ----------------------------------------

class CapExceededError(RuntimeError):
    """A job exceeds its cap: :func:`local_bound`'s strategies, or a search's relabelings."""


def _check_cap(total: int, cap: int, what: str, error: type = CapExceededError) -> None:
    """Raise ``error`` naming ``total`` ``what`` and the cap when ``total > cap``."""
    if total > cap:
        raise error(f"{_shown(total)} {what} exceed the cap of {_shown(cap)}")


@dataclass(frozen=True)
class LocalBoundReport:
    """Exact optimum over local deterministic strategies.

    ``bound`` is exact (a Fraction); ``maximizer_count`` counts every
    attaining strategy even when the listing is truncated.
    """

    bound: Fraction
    maximizer_count: int
    maximizers: tuple[Strategy, ...]


def _prefix_blocks(V: np.ndarray, W: np.ndarray | None = None, x: int = 0):
    """The party-paired table contracted with every deterministic strategy of
    all parties but the last, yielded as (n, M_{N-1}, d) blocks over
    consecutive runs of those prefix strategies in enumeration order (party
    0 most significant; within a party the outcome for setting x is the
    base-d digit at position M - 1 - x).

    ``V`` has shape (n, M_k, d, M_{k+1}, d, ...): one row per strategy of
    the parties before k, the table contracted with it; ``W`` (n, t, M_{k+1},
    d, ...) sums it over settings 0..x-1 for t partial strategies of party k.
    While party k's last block would exceed ``_GATHER_ELEMENTS``, the first
    axis of ``W`` longer than 1 is halved before the next setting is added."""
    if W is None:
        if V.ndim == 3:
            yield V
            return
        W = np.zeros((len(V), 1, *V.shape[3:]), V.dtype)
    n, m, d = V.shape[:3]
    if x == m:
        yield from _prefix_blocks(W.reshape(-1, *V.shape[3:]))
    elif W.size * d ** (m - x) > _GATHER_ELEMENTS and W.shape[:2] != (1, 1):
        if n > 1:
            halves = (V[: n // 2], W[: n // 2]), (V[n // 2 :], W[n // 2 :])
        else:
            halves = (V, W[:, : W.shape[1] // 2]), (V, W[:, W.shape[1] // 2 :])
        for half in halves:
            yield from _prefix_blocks(*half, x)
    else:
        W = W[:, :, None] + V[:, x, None]
        yield from _prefix_blocks(V, W.reshape(n, -1, *V.shape[3:]), x + 1)


def _best_responses(ties: np.ndarray, limit: int) -> tuple[np.ndarray, np.ndarray]:
    """The first ``limit`` best responses of the last party, in enumeration
    order, given its argmax sets ``ties`` (shape (rows, M, d)) against each
    prefix row: the row of each response and its strategy index, the
    responses of a row being the product of its argmax sets over x = 0..M-1."""
    rows, m, d = ties.shape
    row = np.arange(rows)
    index = np.zeros(rows, _exact_dtype(d**m))
    for x in range(m):
        # every partial response extends to at least one response, so the
        # first ``limit`` responses extend the first ``limit`` partial ones
        j, a = np.nonzero(ties[row, x])
        j, a = j[:limit], a[:limit]
        row, index = row[j], index[j] * d + a.astype(index.dtype)
    return row, index


def _outcome_tuples(t: np.ndarray, m: int, d: int) -> list:
    """The outcome tuples of one party's strategy indices ``t`` (setting x is
    the base-d digit at position m - 1 - x), one object per distinct index."""
    unique, back = np.unique(t, return_inverse=True)
    powers = np.array([d**k for k in range(m - 1, -1, -1)], dtype=t.dtype)
    table = list(map(tuple, (unique[:, None] // powers % d).tolist()))
    return list(map(table.__getitem__, back.tolist()))


def _strategies(
    prefixes: np.ndarray, responses: np.ndarray, settings: tuple[int, ...], d: int
):
    """Joint strategies, as tuples of per-party outcome tuples, from prefix
    indices in the enumeration order of parties 0..N-2 and the last party's
    strategy indices."""
    parties = [_outcome_tuples(responses, settings[-1], d)]
    for m in reversed(settings[:-1]):
        prefixes, t = np.divmod(prefixes, d**m)
        parties.append(_outcome_tuples(t, m, d))
    return zip(*parties[::-1])


def local_bound(
    functional: BellFunctional,
    cap: int = DEFAULT_STRATEGY_CAP,
    max_listed: int = MAX_LISTED_MAXIMIZERS,
) -> LocalBoundReport:
    """Optimum of the functional over all local deterministic strategies.

    Exact integer arithmetic, honoring the functional's orientation.  Only
    the strategies of parties 0..N-2 are enumerated, by contracting the
    table with each party's strategies in turn: once they are fixed the
    value is a sum of one term per setting of the last party, each
    maximised on its own, so the last party plays a best response.  All
    prod_i d**M_i joint strategies still count against ``cap``
    (:class:`CapExceededError`, raised before any work).  All attaining
    strategies are counted; at most ``max_listed`` are returned, in
    enumeration order: party 0 most significant, and within a party the
    outcome for setting x is the base-d digit at position M_i - 1 - x.
    """
    cap = _integer(cap, "cap", 0)
    max_listed = _integer(max_listed, "max_listed", 0)
    scenario = functional.scenario
    d, settings = scenario.outcomes, scenario.settings
    total = math.prod(d**m for m in settings)
    _check_cap(total, cap, "deterministic strategies")
    tensor = _paired(scenario, functional.table)
    sign = 1 if functional.orientation == "max" else -1
    best: int | None = None
    count = 0
    listed: list[Strategy] = []
    first = 0  # prefix index of the block's first row
    for block in _prefix_blocks(tensor[None]):
        block = sign * block
        peaks = block.max(axis=2)
        values = peaks.sum(axis=1)
        top = int(values.max())
        if best is None or top > best:
            best, count, listed = top, 0, []
        if top == best:
            rows = np.flatnonzero(values == best)
            ties = block[rows] == peaks[rows, :, None]
            count += int(ties.sum(axis=2).astype(_exact_dtype(total)).prod(axis=1).sum())
            # each optimal prefix adds at least one maximizer
            need = max_listed - len(listed)
            if need:
                row, responses = _best_responses(ties[:need], need)
                listed.extend(_strategies(first + rows[row], responses, settings, d))
        first += len(block)
    assert best is not None
    bound = Fraction(sign * best, 1 << functional.log2_den)
    return LocalBoundReport(bound=bound, maximizer_count=count, maximizers=tuple(listed))


# --- JSON serialization ------------------------------------------------------

def functional_to_dict(functional: BellFunctional) -> dict:
    scenario = functional.scenario
    xs, as_ = np.nonzero(functional.table)
    nums = functional.table[xs, as_]
    # each term in its own lowest terms: strip the twos it shares with 2**L
    twos = np.minimum(np.frexp(nums & -nums)[1] - 1, functional.log2_den)
    terms = [
        {"x": x, "a": a, "c_num": c, "c_log2_den": e}
        for x, a, c, e in zip(
            scenario.input_digits[xs].tolist(),
            scenario.outcome_digits[as_].tolist(),
            (nums >> twos).tolist(),
            (functional.log2_den - twos).tolist(),
        )
    ]
    return {
        "name": functional.name,
        **_document_header(scenario),
        "orientation": functional.orientation,
        "terms": terms,
    }


def functional_from_dict(data: Mapping) -> BellFunctional:
    with _reading("functional"):
        scenario = _document_scenario(data)
        terms = data["terms"]
        xs = _index_rows([term["x"] for term in terms], scenario.settings, "term's 'x'")
        as_ = _index_rows(
            [term["a"] for term in terms], (scenario.outcomes,) * scenario.parties, "term's 'a'"
        )
        events = (
            xs @ np.array(scenario.input_strides) * scenario.num_outcomes
            + as_ @ np.array(scenario.outcome_strides)
        )
        nums = [term["c_num"] for term in terms]
        exps = [term["c_log2_den"] for term in terms]
        if not {*map(type, nums), *map(type, exps)} <= {int} or min(exps, default=0) < 0:
            # one value at a time: the reader names the first bad one
            nums = [_integer(c, "c_num") for c in nums]
            exps = [_integer(e, "c_log2_den", 0) for e in exps]
    return BellFunctional._from_table(
        scenario,
        *_sum_terms(scenario, events, nums, exps),
        orientation=data.get("orientation", "max"),
        name=data.get("name", ""),
    )
