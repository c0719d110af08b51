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
(party, setting, outcome), so the group law is that of these permutations:
inverse and composition act on the images and read the blocks back.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .functionals import BellFunctional, Strategy
from .scenario import (
    NO_SIGNALING_TOL,
    Behavior,
    JointQuery,
    LocalQuery,
    Scenario,
    ScenarioMismatchError,
    ValidationError,
    _integer,
    _paired,
    _queries,
    _query_key,
    _reading,
    _strategy_digits,
    _subset_rows,
    _warn_if_signaling,
)

DEFAULT_SEARCH_CAP = 10**8
# upper bound on the elements of one batched table of event images: the
# generator pass of certification works in chunks of this size
_GATHER_ELEMENTS = 1 << 16


def _check_perm(perm: Sequence[int], size: int, what: str) -> tuple[int, ...]:
    perm = tuple(_integer(p, f"entry of {what}") for p in perm)
    if sorted(perm) != list(range(size)):
        raise ValidationError(f"{what} {perm} is not a permutation of 0..{size - 1}")
    return perm


@dataclass(frozen=True, eq=True)
class Relabeling:
    """A relabeling of settings and outcomes, optionally of parties.

    ``input_perms[i][x]`` is the image setting of party ``i``'s setting
    ``x``; ``output_perms[i][y][o]`` is the image outcome of ``o`` at the
    *image* setting ``y``; ``party_perm[i]``, when present, is the slot the
    transformed party ``i`` moves to (identity if ``None``).
    """

    scenario: Scenario
    input_perms: tuple[tuple[int, ...], ...]
    output_perms: tuple[tuple[tuple[int, ...], ...], ...]
    party_perm: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        sc = self.scenario
        if len(self.input_perms) != sc.parties or len(self.output_perms) != sc.parties:
            raise ValidationError("need one input and one output permutation block per party")
        in_perms = tuple(
            _check_perm(p, sc.settings[i], f"input permutation of party {i}")
            for i, p in enumerate(self.input_perms)
        )
        out_perms = []
        for i, per_setting in enumerate(self.output_perms):
            if len(per_setting) != sc.settings[i]:
                raise ValidationError(
                    f"party {i} needs one outcome permutation per setting"
                )
            out_perms.append(
                tuple(
                    _check_perm(p, sc.outcomes, f"outcome permutation of party {i}, setting {y}")
                    for y, p in enumerate(per_setting)
                )
            )
        party_perm = self.party_perm
        if party_perm is not None:
            party_perm = _check_perm(party_perm, sc.parties, "party permutation")
            for i, j in enumerate(party_perm):
                if sc.settings[i] != sc.settings[j]:
                    raise ValidationError(
                        "party permutation must preserve per-party setting counts"
                    )
            if party_perm == tuple(range(sc.parties)):
                party_perm = None
        object.__setattr__(self, "input_perms", in_perms)
        object.__setattr__(self, "output_perms", tuple(out_perms))
        object.__setattr__(self, "party_perm", party_perm)

    @classmethod
    def _from_blocks(cls, scenario, input_perms, output_perms, party_perm):
        """A relabeling from blocks that are valid by construction: tuples of
        ints, and a party permutation already normalised (``None`` for the
        identity).  Skips the checks of ``__post_init__``."""
        relabeling = cls.__new__(cls)
        relabeling.__dict__.update(
            scenario=scenario,
            input_perms=input_perms,
            output_perms=output_perms,
            party_perm=party_perm,
        )
        return relabeling

    # -- structure -----------------------------------------------------------

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

    @cached_property
    def _images(self) -> np.ndarray:
        """Images of the single-party events (party, setting, outcome), read-only."""
        images = _marginal_images(self.scenario, [self])[0]
        images.setflags(write=False)
        return images

    def inverse(self) -> "Relabeling":
        return _from_local(self.scenario, np.argsort(self._images))

    def __matmul__(self, other: "Relabeling") -> "Relabeling":
        """Composite relabeling: ``self`` applied after ``other``."""
        if self.scenario != other.scenario:
            raise ScenarioMismatchError("cannot compose relabelings of different scenarios")
        return _from_local(self.scenario, self._images[other._images])

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
    if scenario.outcomes != 2:
        raise ValidationError("the global flip is a two-outcome relabeling")
    return outcome_shift(scenario, 1)


def outcome_shift(scenario: Scenario, step: int = 1) -> Relabeling:
    """Shift every outcome of every party and setting by ``step`` modulo d."""
    d, step = scenario.outcomes, _integer(step, "step")
    perm = tuple((o + step) % d for o in range(d))
    return Relabeling(
        scenario,
        tuple(tuple(range(m)) for m in scenario.settings),
        tuple(tuple(perm for _ in range(m)) for m in scenario.settings),
    )


# --- event images -------------------------------------------------------------
# A relabeling is fixed by its images of the single-party events (party,
# setting, outcome): a block (sigma, tau) sends local event x·d + a to
# sigma(x)·d + tau[sigma(x)][a], placed in the block of the party's slot.
# Joint-event permutations are read from these images.


def _local_images(d: int, sigma: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Local event images of one party, one row per block: ``sigma`` (k, m)
    and ``tau`` (k, m, d) give a (k, m·d) table."""
    count, m = sigma.shape
    return (sigma[:, :, None] * d + tau[np.arange(count)[:, None], sigma]).reshape(count, m * d)


def _marginal_offsets(scenario: Scenario) -> list[int]:
    return [0, *itertools.accumulate(m * scenario.outcomes for m in scenario.settings)]


def _marginal_images(scenario: Scenario, relabelings: Sequence[Relabeling]) -> np.ndarray:
    """Images of the single-party events (party, setting, outcome), one row
    per relabeling: every party's blocks side by side, settings shifted to
    their party's columns, images moved from the party's block to its slot's."""
    count, d, n = len(relabelings), scenario.outcomes, scenario.parties
    offsets = np.array(_marginal_offsets(scenario))
    flat, settings = itertools.chain.from_iterable, sum(scenario.settings)
    firsts = np.repeat(offsets[:-1] // d, scenario.settings)
    sigmas = np.fromiter(
        flat(flat(g.input_perms) for g in relabelings), np.int64, count * settings
    ).reshape(count, settings)
    taus = np.fromiter(
        flat(flat(flat(g.output_perms)) for g in relabelings), np.int64, count * settings * d
    ).reshape(count, settings, d)
    slots = np.fromiter(
        flat(g.party_perm or range(n) for g in relabelings), np.int64, count * n
    ).reshape(count, n)
    shifts = np.repeat(offsets[slots] - offsets[:-1], np.diff(offsets), axis=1)
    return _local_images(d, sigmas + firsts, taus) + shifts


def _from_local(scenario: Scenario, images: np.ndarray) -> Relabeling:
    """The relabeling with the given images of the single-party events, which
    it keeps.

    Party i's events land in the block of one slot j; its setting x goes to
    σ(x) = image // d and its outcome o to τ[σ(x)][o] = image % d, both read
    from the images' positions in that block.
    """
    d = scenario.outcomes
    offsets = _marginal_offsets(scenario)
    slots = (np.searchsorted(offsets, images[offsets[:-1]], side="right") - 1).tolist()
    input_perms, output_perms = [], []
    for i, m in enumerate(scenario.settings):
        local = images[offsets[i] : offsets[i + 1]].reshape(m, d) - offsets[slots[i]]
        sigma = local[:, 0] // d
        tau = np.empty_like(local)
        tau[sigma] = local % d
        input_perms.append(tuple(sigma.tolist()))
        output_perms.append(tuple(map(tuple, tau.tolist())))
    party_perm = None if slots == list(range(scenario.parties)) else tuple(slots)
    relabeling = Relabeling._from_blocks(
        scenario, tuple(input_perms), tuple(output_perms), party_perm
    )
    images.setflags(write=False)
    relabeling.__dict__["_images"] = images  # preset the cached property
    return relabeling


def _joint_perms(scenario: Scenario, images: np.ndarray) -> np.ndarray:
    """Permutations of the flat joint events x * num_outcomes + a, one row
    per row of single-party event images.

    A flat joint index is a sum of per-party terms, x_i·input_stride_i·D +
    a_i·outcome_stride_i with D = num_outcomes.  Indexed by the images, the
    vector of these terms over the single-party events gives each image's
    term at its own slot; each party's terms are broadcast over the axes
    (x_0, …, x_{N−1}, a_0, …, a_{N−1}) and summed.
    """
    count, d, n = len(images), scenario.outcomes, scenario.parties
    offsets = _marginal_offsets(scenario)
    strides = zip(scenario.settings, scenario.input_strides, scenario.outcome_strides)
    terms = np.concatenate(
        [
            np.add.outer(np.arange(m) * s * scenario.num_outcomes, np.arange(d) * t).ravel()
            for m, s, t in strides
        ]
    )[images]
    joint = np.zeros((count,) + (1,) * (2 * n), dtype=np.int64)
    for i, m in enumerate(scenario.settings):
        axes = [count] + [1] * (2 * n)
        axes[1 + i], axes[1 + n + i] = m, d
        joint = joint + terms[:, offsets[i] : offsets[i + 1]].reshape(axes)
    return joint.reshape(count, scenario.num_inputs * scenario.num_outcomes)


def _pushed(relabeling: Relabeling, obj: Behavior | BellFunctional, what: str) -> np.ndarray:
    """The table of a behavior or functional, entries moved along the relabeling."""
    if relabeling.scenario != obj.scenario:
        raise ScenarioMismatchError(f"relabeling and {what} scenarios differ")
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


def _party_candidates(
    m: int, d: int
) -> tuple[list[tuple[int, ...]], list[tuple[tuple[int, ...], ...]]]:
    """All (input_perm, output_perms) blocks of one party, in deterministic
    order, as the list of input permutations and the list of output
    permutations.  Block 0 is the identity."""
    outcome_perms = list(itertools.permutations(range(d)))
    taus = list(itertools.product(outcome_perms, repeat=m))
    sigmas = list(itertools.permutations(range(m)))
    return [s for s in sigmas for _ in taus], taus * len(sigmas)


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
    if include_party_perms:
        size *= math.prod(
            math.factorial(k) for k in Counter(scenario.settings).values()
        )
    return size


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
    """The rows of an integer matrix as single opaque values, compared by their bytes."""
    matrix = np.ascontiguousarray(matrix)
    return matrix.view(np.dtype((np.void, matrix.itemsize * matrix.shape[1]))).ravel()


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

    The search splits and matches instead of testing every candidate.  With
    the table as a matrix from a head group of parties' local events to the
    tail group's, and transposed along the party permutation, a candidate
    (g_A, g_B) is a symmetry iff column g_B(s) of the matrix with rows
    gathered by g_A equals column s of the table, for every s.  Each distinct
    column of the table gets an exact id; each head combination labels its
    gathered columns by id, and is matched by exactly the tail combinations
    whose key ``id ∘ g_B⁻¹`` equals that labelling.

    Every block comes from ``itertools.permutations``, so each hit is built
    without re-validation; the identity is skipped by its index (identity
    party permutation, head and tail combination 0).
    """
    cap = _integer(cap, "cap", 0)
    scenario = functional.scenario
    total = search_space_size(scenario, include_party_perms)
    if total > cap:
        raise SearchCapExceededError(
            f"{total} candidate relabelings exceed the cap of {cap}"
        )
    d = scenario.outcomes
    sigmas, taus = zip(*(_party_candidates(m, d) for m in scenario.settings))
    counts = [len(s) for s in sigmas]
    images = [
        _local_images(d, np.array(s, dtype=np.int64), np.array(t, dtype=np.int64))
        for s, t in zip(sigmas, taus)
    ]
    # the head is the first k parties, k balancing the two groups' combinations
    k = min(
        range(scenario.parties + 1),
        key=lambda j: math.prod(counts[:j]) + math.prod(counts[j:]),
    )
    head, tail = _block_combinations(images[:k]), _block_combinations(images[k:])
    shape = (head.shape[1], tail.shape[1])
    table = _paired(scenario, functional.table).reshape([m * d for m in scenario.settings])

    columns, ids = np.unique(_rows(table.reshape(shape).T), return_inverse=True)
    keys = np.empty(tail.shape, dtype=np.intp)
    keys[np.arange(len(tail))[:, None], tail] = ids
    tails_by_key: dict[bytes, list[int]] = {}
    for t, key in enumerate(_rows(keys).tolist()):
        tails_by_key.setdefault(key, []).append(t)

    # every combination's input and output permutations, in head and tail row order
    head_blocks = list(zip(itertools.product(*sigmas[:k]), itertools.product(*taus[:k])))
    tail_blocks = list(zip(itertools.product(*sigmas[k:]), itertools.product(*taus[k:])))

    identity = tuple(range(scenario.parties))
    hits: list[Relabeling] = []
    for pi in _party_perms(scenario, include_party_perms):
        party_perm = None if pi == identity else pi
        moved = np.ascontiguousarray(table.transpose(pi).reshape(shape).T)
        for h, rows in enumerate(head):
            gathered = _rows(moved[:, rows])
            labels = np.minimum(np.searchsorted(columns, gathered), len(columns) - 1)
            if not np.array_equal(columns[labels], gathered):
                continue  # a gathered column is no column of the table
            head_sigmas, head_taus = head_blocks[h]
            for t in tails_by_key.get(labels.tobytes(), ()):
                if party_perm is None and h == t == 0:
                    continue  # block 0 of every party is the identity
                tail_sigmas, tail_taus = tail_blocks[t]
                hits.append(
                    Relabeling._from_blocks(
                        scenario, head_sigmas + tail_sigmas, head_taus + tail_taus, party_perm
                    )
                )
    return tuple(hits)


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


def _orbit_closure(
    functional: BellFunctional, generators: Sequence[Relabeling]
) -> tuple[list[Relabeling], np.ndarray, np.ndarray]:
    """The generators that join orbits, and the joint and single-party orbit ids.

    One pass: each generator must share the functional's scenario; every
    generator is verified with the exact test of :func:`is_symmetry` (one
    gather per chunk) and kept iff it joins two classes of the running
    partition of joint and single-party events, side by side in one
    permutation.  Each kept generator costs one gather of the rest of its
    chunk, which finds the next generator that joins two classes.  The rule
    itself drops identities and duplicates: an identity maps every class
    into itself, and so does a repeat of an earlier generator, whose
    partition is already closed under it.  The final partition is the
    closure of all generators, since a dropped generator maps every class
    of the partition at that point, and so of each coarser one, into
    itself.  Orbits are numbered in the order of their smallest event.
    """
    sc = functional.scenario
    if any(g.scenario is not sc and g.scenario != sc for g in generators):
        raise ScenarioMismatchError("generator scenario does not match functional")
    dense = functional.table.reshape(-1)
    labels = np.arange(dense.size + _marginal_offsets(sc)[-1])
    step = max(1, _GATHER_ELEMENTS // labels.size)
    kept: list[Relabeling] = []
    for lo in range(0, len(generators), step):
        chunk = generators[lo : lo + step]
        images = _marginal_images(sc, chunk)
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
            kept.append(chunk[i])
            labels = _join(labels, perms[i])
            i += 1
    joint_ids, marginal_ids = (
        np.unique(part, return_inverse=True)[1].astype(np.int64)
        for part in (labels[: dense.size], labels[dense.size :])
    )
    return kept, joint_ids, marginal_ids


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
    every certificate is conditional on the uniqueness assumption recorded
    in ``assumption``.
    """

    functional: BellFunctional
    generators: tuple[Relabeling, ...]
    joint_orbits: np.ndarray
    marginal_orbits: np.ndarray
    query: JointQuery | LocalQuery | None = None
    assumes_unique_maximizer: bool = True
    assumption: str = UNIQUENESS_NOTE

    def __post_init__(self) -> None:
        self.joint_orbits.setflags(write=False)
        self.marginal_orbits.setflags(write=False)

    # -- class structure -------------------------------------------------------

    def joint_classes(self, settings: Sequence[int]) -> list[list[int]]:
        """Outcome-index classes forced equiprobable at a joint input."""
        sc = self.functional.scenario
        x_idx = sc.input_index(tuple(settings))
        return _classes(self.joint_orbits[x_idx * sc.num_outcomes : (x_idx + 1) * sc.num_outcomes])

    def marginal_classes(self, party: int, setting: int) -> list[list[int]]:
        """Outcome classes forced equiprobable for one party's setting."""
        sc = self.functional.scenario
        party = _integer(party, "party", 0, sc.parties)
        setting = _integer(setting, f"setting of party {party}", 0, sc.settings[party])
        base = _marginal_offsets(sc)[party] + setting * sc.outcomes
        return _classes(self.marginal_orbits[base : base + sc.outcomes])

    def _query_classes(self, query: JointQuery | LocalQuery) -> list[list[int]]:
        if isinstance(query, JointQuery):
            return self.joint_classes(query.settings)
        if isinstance(query, LocalQuery):
            return self.marginal_classes(query.party, query.setting)
        raise ValidationError(f"unsupported query {query!r}")

    def certified_bits(self, query: JointQuery | LocalQuery) -> float:
        """Min-entropy bound at the query: log2 of the smallest event class."""
        return math.log2(min(len(cls) for cls in self._query_classes(query)))


def certify_uniform(
    functional: BellFunctional,
    generators: Sequence[Relabeling],
    query: JointQuery | LocalQuery,
) -> UniformityCertificate:
    """Build a uniformity certificate from verified symmetry generators.

    Every generator is re-verified with the exact coefficient comparison;
    a non-symmetry raises :class:`ValidationError`.  The orbit partition is
    the closure of the generated group acting on joint events and on
    single-party events; the certificate keeps the generators that join
    orbits.
    """
    gens, joint, marg = _orbit_closure(functional, generators)
    cert = UniformityCertificate(
        functional=functional,
        generators=tuple(gens),
        joint_orbits=joint,
        marginal_orbits=marg,
        query=query,
    )
    cert.certified_bits(query)  # validates the query eagerly
    return cert


def certify_all(
    functional: BellFunctional, generators: Sequence[Relabeling]
) -> dict[JointQuery | LocalQuery, float]:
    """Certified bits for every joint input and every (party, setting)."""
    cert = _certify_all_queries(functional, generators)
    return {q: cert.certified_bits(q) for q in _queries(functional.scenario)}


def _certify_all_queries(functional: BellFunctional, generators) -> UniformityCertificate:
    """A certificate for every query: its orbits do not depend on the query."""
    return certify_uniform(functional, generators, JointQuery(functional.scenario.input_tuple(0)))


def orbit_equality_violation(
    cert: UniformityCertificate, behavior: Behavior
) -> float:
    """Largest spread of probabilities within any forced-equal event class.

    Zero (up to numerical accuracy) whenever the behavior is invariant under
    the certificate's symmetry group; the soundness cross-check applies this
    to the optimizer's maximal-violation behavior.
    """
    sc = cert.functional.scenario
    if behavior.scenario != sc:
        raise ScenarioMismatchError("certificate and behavior scenarios differ")
    marginals = []
    for i in range(sc.parties):
        rows = _subset_rows(behavior, (i,))  # (setting, other inputs, outcome)
        _warn_if_signaling(rows, (i,), NO_SIGNALING_TOL)
        marginals.append(rows.mean(axis=1).reshape(-1))
    marg_vals = np.concatenate(marginals)
    joint = behavior.table.reshape(-1)
    return max(
        _largest_spread(values, ids)
        for values, ids in ((joint, cert.joint_orbits), (marg_vals, cert.marginal_orbits))
    )


def _largest_spread(values: np.ndarray, ids: np.ndarray) -> float:
    """Largest max − min of ``values`` over the groups of equal ``ids``."""
    order = np.argsort(ids, kind="stable")
    grouped = ids[order]
    starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
    values = values[order]
    spread = np.maximum.reduceat(values, starts) - np.minimum.reduceat(values, starts)
    return float(spread.max())


# --- JSON serialization ------------------------------------------------------

def relabeling_to_dict(relabeling: Relabeling) -> dict:
    return {
        "party_perm": list(relabeling.party_perm) if relabeling.party_perm else None,
        "parties": [
            {
                "input_perm": list(relabeling.input_perms[i]),
                "output_perms": [list(p) for p in relabeling.output_perms[i]],
            }
            for i in range(relabeling.scenario.parties)
        ],
    }


def relabeling_from_dict(scenario: Scenario, data: Mapping) -> Relabeling:
    with _reading("relabeling"):
        parties = data["parties"]
        if len(parties) != scenario.parties:
            raise ValidationError("relabeling party count does not match scenario")
        return Relabeling(
            scenario,
            tuple(tuple(p["input_perm"]) for p in parties),
            tuple(tuple(tuple(q) for q in p["output_perms"]) for p in parties),
            tuple(data["party_perm"]) if data.get("party_perm") else None,
        )


def certificate_to_dict(cert: UniformityCertificate) -> dict:
    blocks: dict[type, dict] = {JointQuery: {}, LocalQuery: {}}
    for q in _queries(cert.functional.scenario):
        blocks[type(q)][_query_key(q)] = {
            "bits": cert.certified_bits(q),
            "classes": cert._query_classes(q),
        }
    return {
        "functional": cert.functional.name,
        "generators": [relabeling_to_dict(g) for g in cert.generators],
        "joint": blocks[JointQuery],
        "local": blocks[LocalQuery],
        "assumes_unique_maximizer": cert.assumes_unique_maximizer,
        "assumption": cert.assumption,
    }
