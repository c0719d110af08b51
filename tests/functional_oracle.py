"""The dict-of-Fractions functional code that the integer-table form replaced.

``from_correlator_terms``, ``correlator_terms``, ``functional_to_dict``,
``pushforward_functional`` and the Mermin weight recursion are kept
verbatim; those that take a functional read its public ``coefficients``
mapping (and ``event_maps``).  The array code in ``bellcert.functionals``
and ``bellcert.symmetry`` is compared with them entry by entry and byte by
byte.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Mapping

from bellcert import BellFunctional, Relabeling, Scenario, ScenarioMismatchError, ValidationError
from bellcert.functionals import CorrelatorKey, Orientation, _as_dyadic


def _log2_den(frac: Fraction) -> int:
    return frac.denominator.bit_length() - 1


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


def pushforward_functional(
    relabeling: Relabeling, functional: BellFunctional
) -> BellFunctional:
    """Move a functional's coefficients along a relabeling.

    Defined so that the transformed functional evaluated on any behavior
    equals the original evaluated on the inverse-transformed behavior.
    """
    if relabeling.scenario != functional.scenario:
        raise ScenarioMismatchError("relabeling and functional scenarios differ")
    input_map, outcome_map = relabeling.event_maps
    moved = {
        (int(input_map[x]), int(outcome_map[x, a])): c
        for (x, a), c in functional.coefficients.items()
    }
    return BellFunctional(
        functional.scenario,
        moved,
        orientation=functional.orientation,
        name=functional.name,
    )


def mermin_terms(n: int) -> dict[tuple[int, ...], Fraction]:
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
