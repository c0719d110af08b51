"""Relabeling symmetries of Bell functionals and uniformity certificates.

A :class:`Relabeling` permutes measurement settings and outcomes (and
optionally parties) without changing the physics of a scenario.  When a
relabeling leaves a functional's coefficient table exactly invariant it is
a symmetry of that functional; if additionally the maximal quantum violation
is attained by a unique behavior, every event orbit of the symmetry group
must be equiprobable at the maximizer.  :func:`certify_uniform` turns that
argument into a :class:`UniformityCertificate`: certified min-entropy at a
query equals log2 of the smallest forced-equal event class there.

Composition order inside one relabeling is fixed: input permutations first,
then output permutations (attached to the *image* setting), then the party
permutation.  A relabeling is fixed by its images of the single-party events
(party, setting, outcome), and this int64 row is all it stores: the group
law is that of these permutations, inverse and composition act on the rows,
and a list of symmetries is one matrix of rows from the search through
certification to the JSON listing: a certificate wraps only the rows it
keeps.  The blocks (``input_perms``, ``output_perms``, ``party_perm``) are
decoded from the row on first read, and the listing in batches of rows.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, Sequence

import numpy as np

from .functionals import BellFunctional, Strategy
from .scenario import (
    _GATHER_ELEMENTS,
    NO_SIGNALING_TOL,
    Behavior,
    JointQuery,
    LocalQuery,
    Scenario,
    ScenarioMismatchError,
    ValidationError,
    _choice,
    _entries,
    _integer,
    _paired,
    _queries,
    _query_key,
    _reading,
    _size,
    _strategy_digits,
    _subset_rows,
    _warn_if_signaling,
)

DEFAULT_SEARCH_CAP = 10**8


def _check_perm(perm: Sequence[int], size: int, what: str) -> tuple[int, ...]:
    perm = tuple(_integer(p, f"entry of {what}") for p in _entries(perm, what))
    if sorted(perm) != list(range(size)):
        raise ValidationError(f"{what} {perm} is not a permutation of 0..{size - 1}")
    return perm


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Relabeling:
    """A relabeling of settings and outcomes, optionally of parties.

    ``input_perms[i][x]`` is the image setting of party ``i``'s setting
    ``x``; ``output_perms[i][y][o]`` is the image outcome of ``o`` at the
    *image* setting ``y``; ``party_perm[i]``, when present, is the slot the
    transformed party ``i`` moves to (identity if ``None``).

    A relabeling stores only its scenario and its read-only int64 images of
    the single-party events; the three blocks are read back from them.
    """

    scenario: Scenario
    _images: np.ndarray

    def __init__(self, scenario: Scenario, input_perms, output_perms, party_perm=None) -> None:
        sc, d = scenario, scenario.outcomes
        input_perms = _entries(input_perms, "input permutations", sc.parties)
        output_perms = _entries(output_perms, "output permutations", sc.parties)
        blocks = []
        for i, (sigma, per_setting) in enumerate(zip(input_perms, output_perms)):
            sigma = _check_perm(sigma, sc.settings[i], f"input permutation of party {i}")
            per_setting = _entries(per_setting, f"outcome permutations of party {i}", len(sigma))
            tau = [
                _check_perm(p, d, f"outcome permutation of party {i}, setting {y}")
                for y, p in enumerate(per_setting)
            ]
            blocks.append([y * d + tau[y][o] for y in sigma for o in range(d)])
        slots = range(sc.parties)
        if party_perm is not None:
            slots = _check_perm(party_perm, sc.parties, "party permutation")
            if any(sc.settings[i] != sc.settings[j] for i, j in enumerate(slots)):
                raise ValidationError("party permutation must preserve per-party setting counts")
        offsets = _marginal_offsets(sc)
        images = [offsets[j] + e for block, j in zip(blocks, slots) for e in block]
        self._keep(sc, np.array(images, dtype=np.int64))

    @classmethod
    def _from_images(cls, scenario: Scenario, images: np.ndarray) -> "Relabeling":
        """The relabeling with this valid int64 row of single-party event images."""
        return object.__new__(cls)._keep(scenario, images)

    def _keep(self, scenario: Scenario, images: np.ndarray) -> "Relabeling":
        images.setflags(write=False)
        self.__dict__.update(scenario=scenario, _images=images)
        return self

    def __reduce__(self):  # through _keep, since an unpickled array comes back writable
        return self._from_images, (self.scenario, self._images)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.scenario == other.scenario and np.array_equal(self._images, other._images)

    def __hash__(self) -> int:
        return hash((self.scenario, self._images.tobytes()))

    def __repr__(self) -> str:
        return (
            f"Relabeling(scenario={self.scenario!r}, input_perms={self.input_perms!r}, "
            f"output_perms={self.output_perms!r}, party_perm={self.party_perm!r})"
        )

    # -- structure -----------------------------------------------------------

    @cached_property
    def _blocks(self) -> tuple:
        [(slots, sigmas, taus)] = _decoded(self.scenario, self._images[None])
        return (
            tuple(map(tuple, sigmas)),
            tuple(tuple(map(tuple, tau)) for tau in taus),
            None if slots == list(range(len(slots))) else tuple(slots),
        )

    @property
    def input_perms(self) -> tuple[tuple[int, ...], ...]:
        return self._blocks[0]

    @property
    def output_perms(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        return self._blocks[1]

    @property
    def party_perm(self) -> tuple[int, ...] | None:
        return self._blocks[2]

    @property
    def is_identity(self) -> bool:
        """True iff every single-party event is its own image."""
        return bool((self._images == np.arange(self._images.size)).all())

    @cached_property
    def event_maps(self) -> tuple[np.ndarray, np.ndarray]:
        """(input map, outcome map): image indices for every joint event.

        ``input_map`` has shape (num_inputs,); ``outcome_map`` has shape
        (num_inputs, num_outcomes) since outcome permutations may differ per
        setting.
        """
        sc = self.scenario
        perm = _joint_perms(sc, self._images[None]).reshape(sc.num_inputs, sc.num_outcomes)
        input_map = perm[:, 0] // sc.num_outcomes
        outcome_map = perm % sc.num_outcomes
        input_map.setflags(write=False)
        outcome_map.setflags(write=False)
        return input_map, outcome_map

    # -- group operations ------------------------------------------------------

    def inverse(self) -> "Relabeling":
        return Relabeling._from_images(self.scenario, np.argsort(self._images))

    def __matmul__(self, other: "Relabeling") -> "Relabeling":
        """Composite relabeling: ``self`` applied after ``other``."""
        self.scenario._match(other.scenario, "composed relabelings")
        return Relabeling._from_images(self.scenario, self._images[other._images])

    # -- actions ---------------------------------------------------------------

    def apply_to_strategy(self, strategy: Strategy) -> Strategy:
        """Image of a local deterministic strategy under the relabeling."""
        sc = self.scenario
        outcomes = np.concatenate(_strategy_digits(sc, strategy))
        # the event (party, setting, outcome the strategy gives there) and its image
        images = self._images[np.arange(outcomes.size) * sc.outcomes + outcomes]
        moved = np.empty_like(outcomes)
        moved[images // sc.outcomes] = images % sc.outcomes
        flat, starts = moved.tolist(), list(itertools.accumulate(sc.settings, initial=0))
        return tuple(tuple(flat[a:b]) for a, b in zip(starts, starts[1:]))


def identity_relabeling(scenario: Scenario) -> Relabeling:
    return outcome_shift(scenario, 0)


def global_outcome_flip(scenario: Scenario) -> Relabeling:
    """Swap the two outcomes of every setting of every party (d = 2 only)."""
    scenario._two_outcomes("the global flip")
    return outcome_shift(scenario, 1)


def outcome_shift(scenario: Scenario, step: int = 1) -> Relabeling:
    """Shift every outcome of every party and setting by ``step`` modulo d."""
    d, step = scenario.outcomes, _integer(step, "step")
    events = np.arange(_marginal_offsets(scenario)[-1], dtype=np.int64)  # d-aligned settings
    return Relabeling._from_images(scenario, events - events % d + (events + step % d) % d)


# --- event images -------------------------------------------------------------
# A relabeling is fixed by its images of the single-party events (party,
# setting, outcome): a block (sigma, tau) sends local event x·d + a to
# sigma(x)·d + tau[sigma(x)][a], placed in the block of the party's slot.
# Joint-event permutations are read from these images.


def _marginal_offsets(scenario: Scenario) -> list[int]:
    return [0, *itertools.accumulate(m * scenario.outcomes for m in scenario.settings)]


def _decoded(scenario: Scenario, rows: np.ndarray) -> Iterator[tuple[list, tuple, tuple]]:
    """The blocks of each row of single-party event images, as lists: the
    parties' slots, and per party σ and τ.

    Party i's events land in the block of one slot j; its setting x goes to
    σ(x) = image // d and its outcome o to τ[σ(x)][o] = image % d, both read
    from the images' positions in that block.
    """
    count, d = len(rows), scenario.outcomes
    offsets = np.array(_marginal_offsets(scenario))
    slots = np.searchsorted(offsets, rows[:, offsets[:-1]], side="right") - 1
    sigmas, taus = [], []
    for i, m in enumerate(scenario.settings):
        local = rows[:, offsets[i] : offsets[i + 1]].reshape(count, m, d)
        local = local - offsets[slots[:, i], None, None]
        sigma = local[:, :, 0] // d
        tau = np.empty_like(local)
        tau[np.arange(count)[:, None], sigma] = local % d
        sigmas.append(sigma.tolist())
        taus.append(tau.tolist())
    return zip(slots.tolist(), zip(*sigmas), zip(*taus))


def _joint_perms(scenario: Scenario, images: np.ndarray) -> np.ndarray:
    """Permutations of the flat joint events x * num_outcomes + a, one row
    per row of single-party event images.

    A flat joint index is a sum of per-party terms, x_i·input_stride_i·D +
    a_i·outcome_stride_i with D = num_outcomes.  Indexed by the images, the
    scenario's vector of these terms over the single-party events gives each
    image's term at its own slot; each party's terms are broadcast over the
    axes (x_0, …, x_{N−1}, a_0, …, a_{N−1}) and summed.
    """
    count, d, n = len(images), scenario.outcomes, scenario.parties
    offsets = _marginal_offsets(scenario)
    terms = scenario._joint_terms[images]
    joint = np.zeros((count,) + (1,) * (2 * n), dtype=np.int64)
    for i, m in enumerate(scenario.settings):
        axes = [count] + [1] * (2 * n)
        axes[1 + i], axes[1 + n + i] = m, d
        joint = joint + terms[:, offsets[i] : offsets[i + 1]].reshape(axes)
    return joint.reshape(count, scenario.num_inputs * scenario.num_outcomes)


def _pushed(relabeling: Relabeling, obj: Behavior | BellFunctional, what: str) -> np.ndarray:
    """The table of a behavior or functional, entries moved along the relabeling."""
    relabeling.scenario._match(obj.scenario, f"relabeling and {what}")
    input_map, outcome_map = relabeling.event_maps
    moved = np.empty_like(obj.table)
    moved[input_map[:, None], outcome_map] = obj.table
    return moved


def apply_to_behavior(relabeling: Relabeling, behavior: Behavior) -> Behavior:
    """Push a behavior forward along a relabeling (table entries permuted)."""
    return Behavior(behavior.scenario, _pushed(relabeling, behavior, "behavior"))


def pushforward_functional(
    relabeling: Relabeling, functional: BellFunctional
) -> BellFunctional:
    """Move a functional's coefficients along a relabeling.

    Defined so that the transformed functional evaluated on any behavior
    equals the original evaluated on the inverse-transformed behavior.
    """
    return BellFunctional._from_table(
        functional.scenario,
        _pushed(relabeling, functional, "functional"),
        functional.log2_den,
        orientation=functional.orientation,
        name=functional.name,
    )


def is_symmetry(relabeling: Relabeling, functional: BellFunctional) -> bool:
    """True iff the pushforward leaves the coefficient table exactly invariant."""
    return bool(np.array_equal(_pushed(relabeling, functional, "functional"), functional.table))


# --- exhaustive symmetry search -----------------------------------------------

class SearchCapExceededError(RuntimeError):
    """The relabeling search space exceeds the configured cap."""


def _party_images(m: int, d: int) -> np.ndarray:
    """Local event images of every (input_perm, output_perms) block of one
    party, one row per block in deterministic order; block 0 is the identity."""
    sigmas = np.array(list(itertools.permutations(range(m))), dtype=np.int64)
    taus = np.array(list(itertools.product(itertools.permutations(range(d)), repeat=m)))
    # block (sigmas[s], taus[t]) is row s·len(taus) + t
    return (sigmas[:, None, :, None] * d + taus[:, sigmas].swapaxes(0, 1)).reshape(-1, m * d)


def _party_perms(scenario: Scenario, include_party_perms: bool) -> list[tuple[int, ...]]:
    """Party permutations the search scans: those preserving setting counts."""
    identity = tuple(range(scenario.parties))
    if not include_party_perms:
        return [identity]
    return [
        pi
        for pi in itertools.permutations(identity)
        if all(scenario.settings[i] == scenario.settings[pi[i]] for i in identity)
    ]


def search_space_size(scenario: Scenario, include_party_perms: bool = False) -> int:
    """Number of relabelings :func:`find_symmetries` scans.

    With party permutations this counts only those that preserve per-party
    setting counts (the length of ``_party_perms``), without listing them.
    """
    size = math.prod(
        math.factorial(m) * math.factorial(scenario.outcomes) ** m
        for m in scenario.settings
    )
    if _choice(include_party_perms, "include_party_perms", (False, True)):
        size *= math.prod(
            math.factorial(k) for k in Counter(scenario.settings).values()
        )
    return size


def _head_parties(scenario: Scenario) -> int:
    """The size k of the search's head group, the first k parties: k balances
    the two groups' numbers of block combinations."""
    d = math.factorial(scenario.outcomes)
    counts = [math.factorial(m) * d**m for m in scenario.settings]
    return min(
        range(scenario.parties + 1),
        key=lambda j: math.prod(counts[:j]) + math.prod(counts[j:]),
    )


def _block_combinations(images: Sequence[np.ndarray]) -> np.ndarray:
    """Event images of every combination of some parties' blocks.

    ``images`` holds each party's local images (blocks, local events).  Rows
    of the result run over block combinations and columns over the parties'
    joint local events, both row-major with the first party most significant.
    """
    combined = np.zeros((1, 1), dtype=np.int64)
    for local in images:
        count, size = local.shape
        combined = (combined[:, None, :, None] * size + local[None, :, None, :]).reshape(
            len(combined) * count, -1
        )
    return combined


def _rows(matrix: np.ndarray) -> np.ndarray:
    """The rows (last axis) of an integer array as single opaque values, compared by bytes."""
    matrix = np.ascontiguousarray(matrix)
    return matrix.view(np.dtype((np.void, matrix.itemsize * matrix.shape[-1])))[..., 0]


def _column_ids(columns: np.ndarray, matrix: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """Row h: the id (position in the sorted ``columns``) of each column of ``matrix``
    with rows gathered at the head images ``heads[h]``, or −1 where it is none of them."""
    gathered = matrix[heads].swapaxes(1, 2)  # (head image, column, row)
    ids = np.searchsorted(columns[:-1], _rows(gathered))
    same = columns[ids].view(gathered.dtype).reshape(gathered.shape) == gathered
    return np.where(same.all(axis=-1), ids, -1)


def find_symmetries(
    functional: BellFunctional,
    include_party_perms: bool = False,
    cap: int = DEFAULT_SEARCH_CAP,
) -> tuple[Relabeling, ...]:
    """Complete list of nontrivial symmetries of a functional, by exhaustive search.

    Finds every relabeling of the scenario (optionally including party
    permutations) that leaves the coefficient table exactly invariant; the
    identity is excluded.  The order is that of the nested loop over party
    permutations and then each party's blocks.  Raises
    :class:`SearchCapExceededError` when the space exceeds ``cap``; callers
    may then supply hand-written generators to :func:`certify_uniform`.
    """
    rows = _symmetry_rows(functional, include_party_perms, cap)
    return tuple(Relabeling._from_images(functional.scenario, row) for row in rows)


def _symmetry_rows(
    functional: BellFunctional, include_party_perms: bool = False, cap: int = DEFAULT_SEARCH_CAP
) -> np.ndarray:
    """The read-only event-image rows of :func:`find_symmetries`' hits, in its order.

    The search splits and matches instead of testing every candidate.  With
    the table as a matrix from a head group of parties' local events to the
    tail group's, and transposed along the party permutation, a candidate
    (g_A, g_B) is a symmetry iff column g_B(s) of the matrix with rows
    gathered by g_A equals column s of the table, for every s.  Each distinct
    column of the table gets an exact id and each tail combination the key
    ``id ∘ g_B⁻¹``.  One batched pass labels the gathered columns of a chunk
    of head combinations at once and finds the tails keyed by each labelling.

    Each hit is built as its row of single-party event images: its parties'
    block images side by side, each moved to the block of its slot.  The
    identity, always the first match, is dropped.
    """
    cap = _integer(cap, "cap", 0)
    scenario = functional.scenario
    total = search_space_size(scenario, include_party_perms)
    if total > cap:
        raise SearchCapExceededError(
            f"{_size(total)} candidate relabelings exceed the cap of {_size(cap)}"
        )
    d = scenario.outcomes
    images = [_party_images(m, d) for m in scenario.settings]
    counts = [len(local) for local in images]
    k = _head_parties(scenario)
    head, tails = _block_combinations(images[:k]), math.prod(counts[k:])
    shape = (head.shape[1], math.prod(m * d for m in scenario.settings[k:]))
    table = _paired(scenario, functional.table).reshape([m * d for m in scenario.settings])

    columns, ids = np.unique(_rows(table.reshape(shape).T), return_inverse=True)
    # the key id ∘ g_B⁻¹ of each tail combination; g_B⁻¹ combines the inverse blocks
    inverses = _block_combinations([np.argsort(local, axis=1) for local in images[k:]])
    keys = _rows(ids[inverses])
    order = np.argsort(keys, kind="stable")  # tails with equal keys stay in order

    party_perms = _party_perms(scenario, include_party_perms)
    step = max(1, _GATHER_ELEMENTS // table.size)
    found = []  # per chunk of heads: its hits' indices over (party permutation, head, tail)
    for p, pi in enumerate(party_perms):
        matrix = table.transpose(pi).reshape(shape)
        for lo in range(0, len(head), step):
            labels = _rows(_column_ids(columns, matrix, head[lo : lo + step]))
            first = np.searchsorted(keys, labels, sorter=order)
            count = np.searchsorted(keys, labels, side="right", sorter=order) - first
            perm_heads = np.repeat(p * len(head) + lo + np.arange(len(count)), count)
            starts = np.repeat(first + count - np.cumsum(count), count) + np.arange(perm_heads.size)
            found.append(perm_heads * tails + order[starts])

    # each hit's row: every party's block images, moved to the block of its slot
    perm_ids, *blocks = np.unravel_index(np.concatenate(found), [len(party_perms), *counts])
    offsets = np.array(_marginal_offsets(scenario), dtype=np.int64)
    shifts = np.repeat(offsets[:-1][np.array(party_perms)], np.diff(offsets), axis=1)
    hits = shifts[perm_ids]
    for i, chosen in enumerate(blocks):
        hits[:, offsets[i] : offsets[i + 1]] += images[i][chosen]
    hits.setflags(write=False)  # and so are the views of its rows
    # the first match is the identity: the identity party permutation, block 0 of every party
    return hits[1:]


# --- orbit closure and certificates ---------------------------------------------

def _join(labels: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Join every class of a partition with the classes ``perm`` maps it onto.

    ``labels[e]`` is the smallest event of e's class, and so is each label of
    the result.  Each round sends every class label to the smallest label
    one step away along ``perm`` or its inverse, then follows labels to
    their fixed points; the rounds stop once ``perm`` maps every class into
    itself.
    """
    while True:
        image = labels[perm]
        if np.array_equal(image, labels):
            return labels
        low = np.minimum(labels, image)
        target = labels.copy()
        np.minimum.at(target, labels, low)
        np.minimum.at(target, image, low)
        labels = target[labels]
        while True:
            deeper = target[labels]
            if np.array_equal(deeper, labels):
                break
            labels = deeper


def _products(rows: np.ndarray) -> np.ndarray:
    """Which rows of single-party event images are a∘k, for rows a and k
    listed before them.

    For row g, a is the row just before it, and g is marked iff k = a⁻¹∘g,
    looked up by its bytes, is a row listed before g.  Consecutive hits of
    the search mostly share their head blocks and party order, so k is
    listed among its first hits.  Rows and k share the rows' dtype; k is
    built in chunks of ``_GATHER_ELEMENTS``.
    """
    count, width = rows.shape
    marked = np.zeros(count, dtype=bool)
    keys = _rows(rows)
    order = np.argsort(keys, kind="stable")  # equal rows stay in order
    step = max(1, _GATHER_ELEMENTS // width)
    for lo in range(1, count, step):
        g = np.arange(lo, min(lo + step, count))
        inverse = np.empty((g.size, width), dtype=rows.dtype)
        np.put_along_axis(inverse, rows[g - 1], np.arange(width), axis=1)
        k = _rows(np.take_along_axis(inverse, rows[g], axis=1))
        # the first row equal to k, if any row is
        j = order[np.minimum(np.searchsorted(keys, k, sorter=order), count - 1)]
        marked[g] = (j < g) & (keys[j] == k)
    return marked


def _orbit_closure(functional: BellFunctional, rows: np.ndarray) -> "UniformityCertificate":
    """The certificate of generators given as rows of single-party event
    images of the functional's scenario, in any integer dtype.

    One pass: each row is verified with the exact test of :func:`is_symmetry`
    (one gather per chunk) and kept iff it joins two classes of the running
    partition of joint and single-party events, side by side in one
    permutation.  Each kept generator costs one gather of the rest of its
    chunk, which finds the next generator that joins two classes.  The rule
    itself drops identities and duplicates: an identity maps every class into
    itself, and so does a repeat of an earlier generator, whose partition is
    already closed under it.  The final partition is the closure of all
    generators, since a dropped generator maps every class of the partition at
    that point, and so of each coarser one, into itself.

    Once the generators' events outnumber an eighth of one gather (below
    that, the lookup costs more than the gathers it saves), the pass skips
    each generator g = a∘k with a and k listed before it (:func:`_products`)
    and neither gathers nor verifies it.  By induction over the list, a and
    k are symmetries, so g is one too; the partition at g is closed under a
    and k, so under g, and the rule would drop g.  The first non-symmetry
    in the list is thus never skipped, and raises.  Orbits are numbered in
    the order of their smallest event.  Kept rows are wrapped as int64 copies.
    """
    sc = functional.scenario
    dense = functional.table.reshape(-1)
    labels = np.arange(dense.size + _marginal_offsets(sc)[-1])
    step = max(1, _GATHER_ELEMENTS // labels.size)
    # the rows, stacked once in the narrowest dtype that holds them (shorter byte compares)
    rows = np.asarray(rows, np.min_scalar_type(labels.size - dense.size))
    todo = np.arange(len(rows))
    if len(rows) * labels.size > _GATHER_ELEMENTS // 8:  # below, the lookup costs more
        todo = todo[~_products(rows)]
    kept: list[Relabeling] = []
    for lo in range(0, todo.size, step):
        chunk = todo[lo : lo + step]
        images = rows[chunk].astype(np.int64)
        joint = _joint_perms(sc, images)
        if not (dense[joint] == dense).all():
            raise ValidationError("a supplied generator is not a symmetry of the functional")
        perms = np.concatenate((joint, images + dense.size), axis=1)
        i = 0
        while i < len(perms):
            joins = np.flatnonzero((labels[perms[i:]] != labels).any(axis=1))
            if not joins.size:
                break
            i += int(joins[0])
            kept.append(Relabeling._from_images(sc, rows[chunk[i]].astype(np.int64)))
            labels = _join(labels, perms[i])
            i += 1
    # joint classes hold joint events only, so their labels sort first, and the
    # first single-party event, its class's smallest, has the first single-party id
    ids = np.unique(labels, return_inverse=True)[1].astype(np.int64)
    marginal = ids[dense.size :] - ids[dense.size]
    return UniformityCertificate(functional, tuple(kept), ids[: dense.size], marginal)


UNIQUENESS_NOTE = (
    "valid only if the maximal violation is attained by a unique behavior"
)


def _classes(ids: np.ndarray) -> list[list[int]]:
    """Positions grouped by orbit id, groups in increasing id order."""
    classes: dict[int, list[int]] = {}
    for k, oid in enumerate(ids.tolist()):
        classes.setdefault(oid, []).append(k)
    return [classes[k] for k in sorted(classes)]


@dataclass(frozen=True, eq=False)
class UniformityCertificate:
    """Orbit partition of events under verified symmetries, with query bits.

    ``joint_orbits[x * num_outcomes + a]`` and ``marginal_orbits`` hold orbit
    ids for joint and single-party events.  Certified bits at a query equal
    log2 of the smallest forced-equal class among the events at that query;
    they are tabled for every query at once, on first use.  Every certificate
    is conditional on uniqueness: ``assumes_unique_maximizer`` and
    ``assumption`` belong to the type, not to an instance.
    """

    functional: BellFunctional
    generators: tuple[Relabeling, ...]
    joint_orbits: np.ndarray
    marginal_orbits: np.ndarray
    assumes_unique_maximizer = True  # class constants, not fields
    assumption = UNIQUENESS_NOTE

    def __post_init__(self) -> None:
        self.joint_orbits.setflags(write=False)
        self.marginal_orbits.setflags(write=False)

    # -- class structure -------------------------------------------------------

    def joint_classes(self, settings: Sequence[int]) -> list[list[int]]:
        """Outcome-index classes forced equiprobable at a joint input."""
        sc = self.functional.scenario
        x_idx = sc.input_index(settings)
        return _classes(self.joint_orbits[x_idx * sc.num_outcomes : (x_idx + 1) * sc.num_outcomes])

    def marginal_classes(self, party: int, setting: int) -> list[list[int]]:
        """Outcome classes forced equiprobable for one party's setting."""
        base = self._marginal_base(party, setting)
        return _classes(self.marginal_orbits[base : base + self.functional.scenario.outcomes])

    def _marginal_base(self, party: int, setting: int) -> int:
        """The checked position of one party's setting's first outcome in ``marginal_orbits``."""
        sc = self.functional.scenario
        party = _integer(party, "party", 0, sc.parties)
        setting = _integer(setting, f"setting of party {party}", 0, sc.settings[party])
        return _marginal_offsets(sc)[party] + setting * sc.outcomes

    def _query_classes(self, query: JointQuery | LocalQuery) -> list[list[int]]:
        if isinstance(query, JointQuery):
            return self.joint_classes(query.settings)
        return self.marginal_classes(query.party, query.setting)

    @cached_property
    def _bits(self) -> list[float]:
        """Certified bits of every joint input in index order, then of every
        (party, setting) in order: log2 of the smallest class in each query's
        block of orbit ids, from one sort of (block, orbit id) keys and their runs."""
        sc = self.functional.scenario
        ids = np.concatenate((self.joint_orbits, self.marginal_orbits))
        block = np.concatenate((
            np.arange(self.joint_orbits.size) // sc.num_outcomes,
            sc.num_inputs + np.arange(self.marginal_orbits.size) // sc.outcomes,
        ))
        width = int(ids.max()) + 1
        keys = np.sort(block * width + ids)
        runs = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        sizes = np.diff(runs, append=keys.size)
        firsts = np.flatnonzero(np.r_[True, np.diff(keys[runs] // width) != 0])
        return [math.log2(k) for k in np.minimum.reduceat(sizes, firsts).tolist()]

    def certified_bits(self, query: JointQuery | LocalQuery) -> float:
        """Min-entropy bound at the query: log2 of the smallest event class."""
        sc = self.functional.scenario
        if isinstance(query, JointQuery):
            return self._bits[sc.input_index(query.settings)]
        base = self._marginal_base(query.party, query.setting)
        return self._bits[sc.num_inputs + base // sc.outcomes]


def certify_uniform(
    functional: BellFunctional,
    generators: Sequence[Relabeling],
    query: JointQuery | LocalQuery | None = None,
) -> UniformityCertificate:
    """Build a uniformity certificate from verified symmetry generators.

    Every generator is verified with the exact coefficient comparison,
    except, on large lists, one that is a product a∘k of two generators
    listed before it: a and k are symmetries, so a∘k is one, and it can
    join no orbits that a and k have not joined.  A non-symmetry raises
    :class:`ValidationError`; the first one in the list is never such a
    product.  The orbit partition is the closure of the generated group
    acting on joint events and on single-party events; the certificate
    keeps the generators that join orbits.  The orbits do not depend on
    ``query``: when given, it is checked against the scenario and not
    recorded.  Every generator must share the functional's scenario.
    """
    sc = functional.scenario
    generators = _entries(generators, "generators")
    if any(g.scenario is not sc and g.scenario != sc for g in generators):
        raise ScenarioMismatchError("generator scenario does not match functional")
    cert = _orbit_closure(functional, np.array([g._images for g in generators]))
    if query is not None:
        cert.certified_bits(query)  # validates the query eagerly
    return cert


def certify_all(
    functional: BellFunctional, generators: Sequence[Relabeling]
) -> dict[JointQuery | LocalQuery, float]:
    """Certified bits for every joint input and every (party, setting)."""
    cert = certify_uniform(functional, generators)
    return {q: cert.certified_bits(q) for q in itertools.chain(*_queries(functional.scenario))}


def orbit_equality_violation(
    cert: UniformityCertificate, behavior: Behavior
) -> float:
    """Largest spread of probabilities within any forced-equal event class.

    Zero (up to numerical accuracy) whenever the behavior is invariant under
    the certificate's symmetry group; the soundness cross-check applies this
    to the optimizer's maximal-violation behavior.
    """
    sc = cert.functional.scenario
    sc._match(behavior.scenario, "certificate and behavior")
    values = [behavior.table.reshape(-1)]
    for i in range(sc.parties):
        rows = _subset_rows(behavior, (i,))  # (setting, other inputs, outcome)
        _warn_if_signaling(rows, (i,), NO_SIGNALING_TOL)
        values.append(rows.mean(axis=1).reshape(-1))
    # the largest max − min over the groups of equal orbit ids, the single-party
    # ids shifted past the joint ones so that one pass covers both partitions
    ids = np.concatenate((cert.joint_orbits, cert.marginal_orbits + cert.joint_orbits.size))
    order = np.argsort(ids, kind="stable")
    grouped = ids[order]
    starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
    values = np.concatenate(values)[order]
    spread = np.maximum.reduceat(values, starts) - np.minimum.reduceat(values, starts)
    return float(spread.max())


# --- JSON serialization ------------------------------------------------------

def relabeling_to_dict(relabeling: Relabeling) -> dict:
    return _relabeling_dicts(relabeling.scenario, relabeling._images[None])[0]


def _relabeling_dicts(scenario: Scenario, rows: np.ndarray) -> list[dict]:
    """``relabeling_to_dict`` of each row of images' relabeling, decoded in batches of rows."""
    step = max(1, _GATHER_ELEMENTS // _marginal_offsets(scenario)[-1])
    identity = list(range(scenario.parties))
    return [
        {
            "party_perm": None if slots == identity else slots,
            "parties": [
                {"input_perm": sigma, "output_perms": tau} for sigma, tau in zip(sigmas, taus)
            ],
        }
        for lo in range(0, len(rows), step)
        for slots, sigmas, taus in _decoded(scenario, rows[lo : lo + step])
    ]


def relabeling_from_dict(scenario: Scenario, data: Mapping) -> Relabeling:
    with _reading("relabeling"):
        inputs, outputs = ([p[k] for p in data["parties"]] for k in ("input_perm", "output_perms"))
        return Relabeling(scenario, inputs, outputs, data.get("party_perm"))


def certificate_to_dict(cert: UniformityCertificate) -> dict:
    def block(queries: list) -> dict:
        return {
            _query_key(q): {"bits": cert.certified_bits(q), "classes": cert._query_classes(q)}
            for q in queries
        }

    joint, local = _queries(cert.functional.scenario)
    return {
        "functional": cert.functional.name,
        "generators": [relabeling_to_dict(g) for g in cert.generators],
        "joint": block(joint),
        "local": block(local),
        "assumes_unique_maximizer": cert.assumes_unique_maximizer,
        "assumption": cert.assumption,
    }
