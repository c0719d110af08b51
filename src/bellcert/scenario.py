"""Bell scenarios, behavior tables, and the correlator parametrization.

Conventions shared by the whole package:

* Parties are numbered ``0..N-1``; settings of party ``i`` are ``0..M_i-1``;
  outcomes are stored as indices ``0..d-1``.
* Joint settings and joint outcomes are flattened in mixed-radix row-major
  order with party 0 as the most significant digit.
* For ``d = 2`` the physical outcome labels are ``+1`` (index 0) and ``-1``
  (index 1); :attr:`Scenario.outcome_signs` holds them.  For ``d > 2`` the labels are
  ``0..d-1`` and outcome arithmetic is modulo ``d``.

A table over a scenario, such as a behavior's ``P(a|x)`` or a functional's
coefficients, has shape (num_inputs, num_outcomes); :func:`_paired` views it
with axes (x_0, a_0, x_1, a_1, ...), and :func:`_walsh_hadamard` takes its
outcome axes to the +-1 correlator basis.

A :class:`Behavior` is the full conditional probability table ``P(a|x)``.
Two-outcome behaviors admit an equivalent description by their correlators
(one expectation value per nonempty party subset and per assignment of
settings to that subset); :class:`CorrelatorForm` holds that description and
the two conversions are inverse to each other on non-signaling behaviors.
"""

from __future__ import annotations

import itertools
import math
import operator
import warnings
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Mapping, Sequence

import numpy as np

NORMALIZATION_TOL = 1e-9
NO_SIGNALING_TOL = 1e-7
# upper bound on the elements of one batched array: the local_bound contraction,
# the generator pass of certification and the JSON listing work in chunks of this size
_GATHER_ELEMENTS = 1 << 16
# the most joint events (inputs × outcomes) of any scenario, so that every table fits a document
_DOCUMENT_EVENTS = 1 << 24
# a refused size or integer is named exactly below this magnitude, and as "about 2^k" from it on
_EXACT_SIZES = 10**100


class ValidationError(ValueError):
    """A domain object failed its construction-time checks."""


class ScenarioMismatchError(ValueError):
    """Objects built for different scenarios were combined."""


class SignalingWarning(UserWarning):
    """A marginal was requested from a behavior that signals across parties."""


class _Malformed(ValidationError):
    """A data argument of the wrong kind (not an integer, a sequence, a mapping or
    numbers); in a document, a malformed entry."""


def _integer(value, what: str, low: int | None = None, high: int | None = None) -> int:
    """``value`` as an int in ``low <= value < high`` (no bound where None), else
    raise ValidationError naming ``what`` and the value.  Anything with
    ``__index__`` but a bool is an integer: numpy integers are, floats are not."""
    integral = type(value) is int
    if not integral and not isinstance(value, bool):
        with suppress(TypeError):  # no __index__, or a numpy array that is not one integer
            value, integral = operator.index(value), True
    if integral and (low is None or value >= low) and (high is None or value < high):
        return value
    span = "" if low is None else f" >= {low}" if high is None else f" in {low}..{high - 1}"
    if not integral:
        raise _Malformed(f"{what} must be an integer{span}, got {value!r}")
    raise ValidationError(f"{what} must be an integer{span}, got {_size(value)}")


def _entries(value, what: str, length: int | None = None) -> tuple:
    """A sequence argument's entries; a scalar or another ``length`` raises ValidationError."""
    try:
        entries = tuple(value)
    except TypeError:
        raise _Malformed(f"{what} must be a sequence, got {value!r}") from None
    if length is not None and len(entries) != length:
        raise ValidationError(f"{what} must have {length} entries, got {value!r}")
    return entries


def _index_rows(rows: list, limits: tuple[int, ...], what: str) -> np.ndarray:
    """Rows of integer indices as a (len(rows), len(limits)) int64 array,
    column j checked against 0 <= index < limits[j]."""
    digits = np.zeros(0)
    with suppress(ValueError):  # ragged nesting
        digits = np.array(rows or np.zeros((0, len(limits)), np.int64))
    if digits.dtype.kind not in "iu" or digits.shape != (len(rows), len(limits)):
        raise ValidationError(f"every {what} needs {len(limits)} integer indices")
    if ((digits < 0) | (digits >= np.array(limits))).any():
        raise ValidationError(f"a {what} is out of range {limits}")
    return digits.astype(np.int64, copy=False)


def _items(value, what: str) -> list[tuple]:
    """A mapping argument's (key, value) pairs; anything else raises ValidationError."""
    try:
        return list(value.items())
    except (AttributeError, TypeError):
        raise _Malformed(f"{what} must be a mapping, got {value!r}") from None


def _numbers(value, what: str, dtype: type = float, error: type = _Malformed) -> np.ndarray:
    """``value`` as a new array of ``dtype`` (float or complex), else raise ``error``."""
    kinds = "iufc" if dtype is complex else "iuf"
    with suppress(TypeError, ValueError, OverflowError):
        array = np.asarray(value)  # numpy would read None as NaN
        if array.dtype.kind in kinds or array.dtype.kind == "O" and None not in array.flat:
            return array.astype(dtype)
    raise error(f"{what} is not an array of numbers")


def _real(value, what: str, positive: bool = False, high: float = math.inf) -> float:
    """``value`` as a float, above 0 if ``positive``, at most ``high``, never NaN."""
    with suppress(ValidationError):
        number = _numbers(value, what)
        if number.ndim == 0 and (number > 0 or not positive) and number <= high:
            return float(number)
    span = "positive" if positive else "a real number"
    span += f" and at most {high:g}" if high < math.inf else ""
    raise ValidationError(f"{what} must be {span}, got {value!r}")


def _choice(value, what: str, options: tuple):
    """``value`` if it is one of ``options``: labels, or False and True for a flag."""
    with suppress(TypeError):  # unhashable
        if value in frozenset(options):
            return value
    options = " or ".join(map(repr, options))
    raise ValidationError(f"{what} must be {options}, got {value!r}")


def _size(count: int | None, log2: Fraction = Fraction(0)) -> str:
    """An integer as an error message names it: in decimal below 10^100 in
    magnitude, else as "about 2^k" or "about -2^k", k named the same way; a
    count too large to compute is None, named by its ``log2``."""
    if count is not None and abs(count) < _EXACT_SIZES:
        return str(count)
    sign = "-" if count is not None and count < 0 else ""
    return f"about {sign}2^{_size(math.floor(log2) if count is None else count.bit_length() - 1)}"


def _mixed_radix(digits, what: str, radices: Sequence[int], strides: Sequence[int]) -> int:
    """The flat index of one ``what`` ("setting" or "outcome") per party."""
    digits = _entries(digits, f"{what}s", len(radices))
    index = 0
    for i, (v, r, s) in enumerate(zip(digits, radices, strides)):
        index += _integer(v, f"{what} of party {i}", 0, r) * s
    return index


@dataclass(frozen=True)
class _Repeated:
    """``times`` parties with ``count`` settings each, as a :class:`Scenario`'s
    settings argument: the scenario is sized before the tuple is built."""

    count: int
    times: int


@dataclass(frozen=True)
class Scenario:
    """An (N, M, d) Bell scenario: per-party setting counts, uniform outcome count.

    ``settings[i]`` is the number of measurement settings of party ``i``;
    ``outcomes`` is the number of outcomes, identical for every party and
    setting.  Setting counts may differ between parties (a party with a
    single setting is allowed).  A scenario has at most ``_DOCUMENT_EVENTS``
    (2^24) joint events, inputs × outcomes, so that every table over it can
    be allocated and written to a document; a larger one is refused here,
    before any table exists.
    """

    settings: tuple[int, ...]
    outcomes: int

    def __post_init__(self) -> None:
        # the settings as runs of (setting count, parties), none built yet
        given = self.settings
        if isinstance(given, _Repeated):
            runs = [(given.count, given.times)]
        else:
            runs = [(m, 1) for m in _entries(given, "settings")]
        runs = [(_integer(m, "setting count", 1), t) for m, t in runs]
        d = _integer(self.outcomes, "outcomes", 2)
        if not runs:
            raise ValidationError("scenario needs at least one party")
        # the joint events, counted exactly where they have at most 400 bits
        bits = sum(t * (m * d).bit_length() for m, t in runs)
        events = math.prod((m * d) ** t for m, t in runs) if bits <= 400 else None
        if events is None or events > _DOCUMENT_EVENTS:
            log2 = sum(t * Fraction(math.log2(m * d)) for m, t in runs)  # no float overflow
            raise ValidationError(
                f"scenario has {_size(events, log2)} joint events, "
                f"above the {_DOCUMENT_EVENTS} a document may have"
            )
        object.__setattr__(self, "settings", tuple(m for m, t in runs for _ in range(t)))
        object.__setattr__(self, "outcomes", d)

    @property
    def parties(self) -> int:
        return len(self.settings)

    @cached_property
    def num_inputs(self) -> int:
        return math.prod(self.settings)

    @cached_property
    def num_outcomes(self) -> int:
        return self.outcomes**self.parties

    def _two_outcomes(self, what: str) -> None:
        if self.outcomes != 2:
            raise ValidationError(f"{what} requires a two-outcome scenario")

    def _match(self, other: "Scenario", what: str) -> None:
        if other != self:
            raise ScenarioMismatchError(f"scenarios of {what} differ: {self} != {other}")

    @cached_property
    def input_strides(self) -> tuple[int, ...]:
        return tuple(math.prod(self.settings[i + 1 :]) for i in range(self.parties))

    @cached_property
    def outcome_strides(self) -> tuple[int, ...]:
        return tuple(
            self.outcomes ** (self.parties - 1 - i) for i in range(self.parties)
        )

    def input_index(self, x: Sequence[int]) -> int:
        return _mixed_radix(x, "setting", self.settings, self.input_strides)

    def input_tuple(self, index: int) -> tuple[int, ...]:
        index = _integer(index, "joint input index", 0, self.num_inputs)
        return tuple(
            (index // s) % m for s, m in zip(self.input_strides, self.settings)
        )

    def outcome_index(self, a: Sequence[int]) -> int:
        return _mixed_radix(a, "outcome", (self.outcomes,) * self.parties, self.outcome_strides)

    def outcome_tuple(self, index: int) -> tuple[int, ...]:
        index = _integer(index, "joint outcome index", 0, self.num_outcomes)
        return tuple((index // s) % self.outcomes for s in self.outcome_strides)

    @cached_property
    def _joint_terms(self) -> np.ndarray:
        """Read-only: for each single-party event (i, x, a), in party, setting,
        outcome order, its term x·input_stride_i·num_outcomes +
        a·outcome_stride_i of a flat joint event index."""
        strides = zip(self.settings, self.input_strides, self.outcome_strides)
        d, big = self.outcomes, self.num_outcomes
        terms = np.concatenate(
            [np.add.outer(np.arange(m) * s * big, np.arange(d) * t).ravel() for m, s, t in strides]
        )
        terms.setflags(write=False)
        return terms

    @cached_property
    def input_digits(self) -> np.ndarray:
        """Array of shape (num_inputs, parties): setting of each party per joint input."""
        digits = np.stack(np.unravel_index(np.arange(self.num_inputs), self.settings), axis=1)
        digits.setflags(write=False)
        return digits

    @cached_property
    def outcome_digits(self) -> np.ndarray:
        """Array of shape (num_outcomes, parties): outcome of each party per joint outcome."""
        shape = (self.outcomes,) * self.parties
        digits = np.stack(np.unravel_index(np.arange(self.num_outcomes), shape), axis=1)
        digits.setflags(write=False)
        return digits

    @cached_property
    def outcome_signs(self) -> np.ndarray:
        """Per-party +-1 labels of every joint outcome (two-outcome scenarios only)."""
        self._two_outcomes("the +-1 outcome labelling")
        signs = 1 - 2 * self.outcome_digits
        signs.setflags(write=False)
        return signs

    def joint_inputs(self) -> Iterator[tuple[int, ...]]:
        for idx in range(self.num_inputs):
            yield self.input_tuple(idx)

    def subset_setting_keys(self) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
        """All (party subset, settings for that subset) keys, subsets sorted."""
        for parties in itertools.islice(_party_subsets(self.parties), 1, None):
            ranges = [range(self.settings[i]) for i in parties]
            for assignment in itertools.product(*ranges):
                yield parties, assignment


# --- table layout ------------------------------------------------------------

def _pair_axes(n: int) -> list[int]:
    """Axis order taking (x_0..x_{N-1}, a_0..a_{N-1}) to (x_0, a_0, x_1, a_1, ...)."""
    return [k for i in range(n) for k in (i, n + i)]


def _paired(scenario: Scenario, table: np.ndarray) -> np.ndarray:
    """The view T[x_0, a_0, x_1, a_1, ...] of a table with the scenario's events."""
    shape = scenario.settings + (scenario.outcomes,) * scenario.parties
    return table.reshape(shape).transpose(_pair_axes(scenario.parties))


def _unpaired(scenario: Scenario, paired: np.ndarray) -> np.ndarray:
    """The (num_inputs, num_outcomes) table of a party-paired array; inverts :func:`_paired`."""
    shape = tuple(k for m in scenario.settings for k in (m, scenario.outcomes))
    table = paired.reshape(shape).transpose(np.argsort(_pair_axes(scenario.parties)))
    return table.reshape(scenario.num_inputs, scenario.num_outcomes)


def _party_subsets(n: int) -> Iterator[tuple[int, ...]]:
    """Every subset of the parties 0..n-1, by size, each size in combinations order."""
    return itertools.chain.from_iterable(
        itertools.combinations(range(n), r) for r in range(n + 1)
    )


def _walsh_hadamard(table: np.ndarray, n: int) -> np.ndarray:
    """Exact Walsh-Hadamard transform over the last ``n`` (two-outcome) axes.

    Entry b of the result is the sum over a of entry a times the product,
    over the parties i with b_i = 1, of the sign 1 - 2 a_i.  The transform is
    its own inverse up to a factor 2**n.
    """
    for axis in range(table.ndim - n, table.ndim):
        low, high = np.take(table, 0, axis=axis), np.take(table, 1, axis=axis)
        table = np.stack((low + high, low - high), axis=axis)
    return table


def _correlator_place(n: int, parties, assignment) -> tuple:
    """Where the correlator key (parties, assignment) sits in a transformed
    table with axes (x_0..x_{N-1}, b_0..b_{N-1}): at every setting of the
    other parties, and at b_i = 1 exactly for the parties in the subset."""
    setting = dict(zip(parties, assignment))
    return tuple(setting.get(i, slice(None)) for i in range(n)) + tuple(
        int(i in setting) for i in range(n)
    )


def _subset_sums(scenario: Scenario, hat: np.ndarray):
    """Each party subset S, empty first, with the column b_i = [i in S] of the
    transformed table ``hat`` (axes (x_0..x_{N-1}, b_0..b_{N-1})) summed over
    the settings outside S: one axis per party of S, in key order."""
    n = scenario.parties
    for parties in _party_subsets(n):
        column = hat[(Ellipsis,) + tuple(int(i in parties) for i in range(n))]
        yield parties, column.sum(axis=tuple(i for i in range(n) if i not in parties))


@dataclass(frozen=True)
class JointQuery:
    """Randomness query about a full joint input (one setting per party)."""

    settings: tuple[int, ...]

    def __post_init__(self) -> None:
        settings = tuple(_integer(s, "setting", 0) for s in _entries(self.settings, "settings"))
        object.__setattr__(self, "settings", settings)


@dataclass(frozen=True)
class LocalQuery:
    """Randomness query about a single party's setting."""

    party: int
    setting: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "party", _integer(self.party, "party", 0))
        object.__setattr__(self, "setting", _integer(self.setting, "setting", 0))


def _queries(scenario: Scenario) -> tuple[list[JointQuery], list[LocalQuery]]:
    """Every query, by kind: each joint input in index order, and each party's settings."""
    joint = [JointQuery(x) for x in scenario.joint_inputs()]
    return joint, [LocalQuery(i, x) for i, m in enumerate(scenario.settings) for x in range(m)]


def _query_key(query: JointQuery | LocalQuery) -> str:
    """The JSON key of a query: ``x=0,1`` or ``party=0,setting=1``."""
    if isinstance(query, JointQuery):
        return "x=" + ",".join(str(s) for s in query.settings)
    return f"party={query.party},setting={query.setting}"


@dataclass(frozen=True, eq=False)
class Behavior:
    """A conditional probability table P(a|x) over a scenario.

    ``table[x, a]`` is indexed by joint-input index and joint-outcome index.
    Entries are clamped to [0, 1] when within ``NORMALIZATION_TOL`` of the
    boundary; anything further out, or a row not summing to 1 within the
    tolerance, raises :class:`ValidationError`.  Instances are immutable.
    """

    scenario: Scenario
    table: np.ndarray

    def __post_init__(self) -> None:
        arr = _numbers(self.table, "table")
        expected = (self.scenario.num_inputs, self.scenario.num_outcomes)
        if arr.shape != expected:
            raise ValidationError(
                f"table shape {arr.shape} does not match scenario shape {expected}"
            )
        if not np.isfinite(arr).all():
            raise ValidationError("table contains non-finite entries")
        low, high = arr.min(), arr.max()
        if low < -NORMALIZATION_TOL:
            x, a = np.unravel_index(int(arr.argmin()), arr.shape)
            raise ValidationError(
                f"negative probability {low:.3e} at input {self.scenario.input_tuple(x)}, "
                f"outcome {self.scenario.outcome_tuple(a)}"
            )
        if high > 1 + NORMALIZATION_TOL:
            raise ValidationError(f"probability {high} exceeds 1")
        sums = arr.sum(axis=1)
        bad = np.abs(sums - 1.0) > NORMALIZATION_TOL
        if bad.any():
            x = int(np.argmax(bad))
            raise ValidationError(
                f"probabilities at input {self.scenario.input_tuple(x)} sum to {float(sums[x])!r}"
            )
        np.clip(arr, 0.0, 1.0, out=arr)
        arr.setflags(write=False)
        object.__setattr__(self, "table", arr)

    def prob(self, x: Sequence[int], a: Sequence[int]) -> float:
        return float(self.table[self.scenario.input_index(x), self.scenario.outcome_index(a)])

    def row(self, x: Sequence[int] | int) -> np.ndarray:
        if hasattr(x, "__len__"):
            x = self.scenario.input_index(x)
        return self.table[_integer(x, "joint input index", 0, self.scenario.num_inputs)]


def behavior_from_table(scenario: Scenario, table) -> Behavior:
    """Validate a raw table (any array-like of matching total size) into a Behavior."""
    arr = _numbers(table, "table")
    size = scenario.num_inputs * scenario.num_outcomes
    if arr.size != size:
        raise ValidationError(
            f"table has {arr.size} entries, scenario needs {size}"
        )
    return Behavior(scenario, arr.reshape(scenario.num_inputs, scenario.num_outcomes))


def uniform_behavior(scenario: Scenario) -> Behavior:
    p = 1.0 / scenario.num_outcomes
    return Behavior(
        scenario, np.full((scenario.num_inputs, scenario.num_outcomes), p)
    )


def _strategy_digits(scenario: Scenario, strategy) -> list[np.ndarray]:
    """Each party's outcome index at each of its settings, checked: one
    integer array of length M_i per party, entries in 0..d-1."""
    strategy = _entries(strategy, "strategy", scenario.parties)
    return [
        _index_rows([outcomes], (scenario.outcomes,) * m, f"strategy row of party {i}")[0]
        for i, (outcomes, m) in enumerate(zip(strategy, scenario.settings))
    ]


def _strategy_outcomes(scenario: Scenario, strategy) -> np.ndarray:
    """The joint outcome index a local deterministic strategy gives at every joint input."""
    outcome = np.zeros(scenario.num_inputs, dtype=np.int64)
    for i, digits in enumerate(_strategy_digits(scenario, strategy)):
        outcome += digits[scenario.input_digits[:, i]] * scenario.outcome_strides[i]
    return outcome


def deterministic_behavior(
    scenario: Scenario, strategy: Sequence[Sequence[int]]
) -> Behavior:
    """Behavior of a local deterministic strategy.

    ``strategy[i][x]`` is the outcome index party ``i`` produces for its
    setting ``x``.
    """
    table = np.zeros((scenario.num_inputs, scenario.num_outcomes))
    table[np.arange(scenario.num_inputs), _strategy_outcomes(scenario, strategy)] = 1.0
    return Behavior(scenario, table)


@dataclass(frozen=True, eq=False)
class CorrelatorForm:
    """Correlators of a two-outcome behavior.

    ``values`` maps ``(parties, settings)`` to the expectation of the product
    of the +-1 outcomes of the listed parties at the listed settings; keys
    run over every nonempty party subset (sorted tuples) and every setting
    assignment for it.  The constant term 1 is implicit.
    """

    scenario: Scenario
    values: Mapping[tuple[tuple[int, ...], tuple[int, ...]], float]

    def __post_init__(self) -> None:
        self.scenario._two_outcomes("a correlator form")
        items = _items(self.values, "correlators")
        keys = [_correlator_key(self.scenario, key) for key, _ in items]
        expected = set(self.scenario.subset_setting_keys())
        missing = len(expected - set(keys))
        extra = len(items) - len(expected) + missing
        if missing or extra:
            raise ValidationError(
                f"correlator keys do not match scenario ({missing} missing, {extra} unexpected)"
            )
        values = [_real(v, f"correlator {key}") for key, (_, v) in zip(keys, items)]
        self._keep(self.scenario, keys, values)

    def _keep(self, scenario: Scenario, keys: list, values) -> "CorrelatorForm":
        """Store scenario and values, clamped to [-1, 1] within tolerance; keys are not read."""
        values = np.asarray(values, dtype=float)
        for k in np.flatnonzero(~(np.abs(values) <= 1 + NORMALIZATION_TOL))[:1]:
            raise ValidationError(f"correlator {keys[k]} = {values[k]} outside [-1, 1]")
        object.__setattr__(self, "scenario", scenario)
        object.__setattr__(self, "values", dict(zip(keys, np.clip(values, -1.0, 1.0).tolist())))
        return self

    def get(self, parties: Sequence[int], settings: Sequence[int]) -> float:
        # the one valid key not stored is the empty subset's: the implicit 1
        return self.values.get(_subset_assignment(self.scenario, parties, settings), 1.0)


def correlators_from_behavior(behavior: Behavior) -> CorrelatorForm:
    """Extract every subset correlator of a two-outcome behavior.

    Each correlator is averaged over all joint inputs compatible with the
    subset's settings; for non-signaling behaviors the average coincides
    with every individual term.
    """
    scenario = behavior.scenario
    scenario._two_outcomes("the correlator view")
    n = scenario.parties
    hat = _walsh_hadamard(behavior.table.reshape(scenario.settings + (2,) * n), n)
    keys, means = [], []
    for parties, summed in itertools.islice(_subset_sums(scenario, hat), 1, None):
        keys.extend((parties, a) for a in np.ndindex(summed.shape))
        means.append((summed / (scenario.num_inputs // summed.size)).ravel())
    return object.__new__(CorrelatorForm)._keep(scenario, keys, np.concatenate(means))


def behavior_from_correlators(form: CorrelatorForm) -> Behavior:
    """Rebuild the probability table from a complete set of correlators.

    Raises :class:`ValidationError` naming the offending (input, outcome)
    pair if any reconstructed probability is negative beyond tolerance.
    """
    scenario = form.scenario
    n = scenario.parties
    hat = np.zeros(scenario.settings + (2,) * n)
    hat[(Ellipsis,) + (0,) * n] = 1.0
    # each subset's correlators, in key order, as one block over its settings
    values = (form.values[key] for key in scenario.subset_setting_keys())
    for parties in itertools.islice(_party_subsets(n), 1, None):
        shape = [scenario.settings[i] if i in parties else 1 for i in range(n)]
        block = np.fromiter(values, float, math.prod(shape)).reshape(shape)
        hat[(Ellipsis,) + tuple(int(i in parties) for i in range(n))] = block
    table = _walsh_hadamard(hat, n).reshape(scenario.num_inputs, scenario.num_outcomes)
    table /= scenario.num_outcomes
    return Behavior(scenario, table)


def _subset_rows(behavior: Behavior, parties: tuple[int, ...]) -> np.ndarray:
    """Marginals of a party subset: one axis per setting of the subset, then
    one row per joint input extending that assignment, in joint-input order,
    then the subset's joint outcomes."""
    scenario = behavior.scenario
    n = scenario.parties
    shaped = behavior.table.reshape((scenario.num_inputs,) + (scenario.outcomes,) * n)
    others = [i for i in range(n) if i not in parties]
    summed = shaped.sum(axis=tuple(1 + i for i in others))
    summed = summed.reshape(scenario.settings + (-1,)).transpose([*parties, *others, n])
    return summed.reshape(summed.shape[: len(parties)] + (-1, summed.shape[-1]))


def _correlator_key(scenario: Scenario, key) -> tuple[tuple, tuple]:
    """A (parties, settings) correlator key, read and range-checked."""
    return _subset_assignment(scenario, *_entries(key, "correlator key", 2))


def _subset_assignment(scenario: Scenario, parties, settings) -> tuple[tuple, tuple]:
    """A strictly increasing party subset and one setting for each of its
    parties, read and range-checked."""
    parties = tuple(_integer(i, "party", 0, scenario.parties) for i in _entries(parties, "parties"))
    if list(parties) != sorted(set(parties)):
        raise ValidationError(f"party subset {parties} must be strictly increasing")
    settings = _entries(settings, f"settings of party subset {parties}", len(parties))
    return parties, tuple(
        _integer(s, f"setting of party {i}", 0, scenario.settings[i])
        for i, s in zip(parties, settings)
    )


def _warn_if_signaling(rows: np.ndarray, parties: tuple[int, ...], tol: float) -> None:
    """Warn when the rows one marginal averages (axis -2) spread by more than ``tol``."""
    spread = float(np.ptp(rows, axis=-2).max())
    if spread > tol:
        warnings.warn(
            f"marginal of parties {parties} depends on other settings "
            f"(spread {spread:.3e}); returning the average",
            SignalingWarning,
            stacklevel=3,
        )


def is_no_signaling(
    behavior: Behavior, tol: float = NO_SIGNALING_TOL
) -> tuple[bool, float]:
    """Check that every subset marginal is independent of the other parties' settings.

    Returns ``(ok, worst)`` where ``worst`` is the largest deviation found
    between marginals that should coincide.
    """
    tol = _real(tol, "tol")
    n = behavior.scenario.parties
    proper = itertools.islice(_party_subsets(n), 1, 2**n - 1)
    worst = max(
        (float(np.ptp(_subset_rows(behavior, parties), axis=-2).max()) for parties in proper),
        default=0.0,
    )
    return worst <= tol, worst


def marginal(
    behavior: Behavior,
    parties: Sequence[int],
    settings: Sequence[int],
    tol: float = NO_SIGNALING_TOL,
) -> np.ndarray:
    """Outcome distribution of a party subset at given settings.

    Computed by averaging over all joint inputs extending the assignment;
    if the behavior signals (the individual marginals differ by more than
    ``tol``) a :class:`SignalingWarning` is emitted and the average is
    returned anyway.
    """
    parties, settings = _subset_assignment(behavior.scenario, parties, settings)
    tol = _real(tol, "tol")
    if not parties:
        raise ValidationError("party subset must be nonempty")
    rows = _subset_rows(behavior, parties)[settings]
    _warn_if_signaling(rows, parties, tol)
    return rows.mean(axis=0)


# --- JSON serialization ----------------------------------------------------

@contextmanager
def _reading(what: str):
    """Read a JSON document: a missing key, a wrong type or an entry of the wrong
    kind raises "malformed <what>: ..."; domain errors pass through unchanged."""
    try:
        yield
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        if type(exc) is ValidationError:
            raise
        detail = exc if isinstance(exc, _Malformed) else repr(exc)
        raise ValidationError(f"malformed {what}: {detail}") from exc


def _document_scenario(data: Mapping) -> Scenario:
    """A document's scenario: its ``settings`` and ``outcomes``, and an
    optional ``parties`` entry checked against the settings list."""
    scenario = Scenario(tuple(data["settings"]), data["outcomes"])
    parties = data.get("parties")
    if parties is not None and _integer(parties, "parties") != scenario.parties:
        raise ValidationError("party count does not match the settings list")
    return scenario


def _document_header(scenario: Scenario) -> dict:
    """The scenario entries of a document, as ``_document_scenario`` reads them."""
    return {
        "parties": scenario.parties,
        "settings": list(scenario.settings),
        "outcomes": scenario.outcomes,
    }


def behavior_to_dict(behavior: Behavior) -> dict:
    scenario = behavior.scenario
    table = {}
    for x, row in zip(scenario.joint_inputs(), behavior.table.tolist()):
        table[_query_key(JointQuery(x))] = row
    return {**_document_header(scenario), "table": table}


def behavior_from_dict(data: Mapping) -> Behavior:
    with _reading("behavior"):
        scenario = _document_scenario(data)
        table = np.zeros((scenario.num_inputs, scenario.num_outcomes))
        entries = data["table"]
        if len(entries) != scenario.num_inputs:
            raise ValidationError(
                f"table has {len(entries)} inputs, scenario needs {scenario.num_inputs}"
            )
        for key, row in entries.items():
            if not key.startswith("x="):
                raise ValidationError(f"bad table key {key!r}")
            x = scenario.input_index(tuple(int(tok) for tok in key[2:].split(",")))
            # one spelling per input, the one behavior_to_dict writes
            if key != _query_key(JointQuery(scenario.input_tuple(x))):
                raise ValidationError(f"bad table key {key!r}")
            if len(row) != scenario.num_outcomes:
                raise ValidationError(f"row {key!r} has {len(row)} entries")
            table[x] = row
    return Behavior(scenario, table)
