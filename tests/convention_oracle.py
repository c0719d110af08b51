"""The per-term loops that the shared table and relabeling helpers replaced.

The tuple group law of ``Relabeling`` (``inverse``, ``@`` and
``apply_to_strategy``) and its tuple ``is_identity``, the per-key
correlator conversions, the per-input ``deterministic_behavior`` and the
mask-based marginals are kept verbatim, as functions of the public objects.  ``tests/test_convention_oracles.py``
compares the array code in ``bellcert.scenario`` and ``bellcert.symmetry``
with them.
"""

from __future__ import annotations

import itertools
import warnings

import numpy as np

from bellcert import Behavior, CorrelatorForm, Relabeling, Scenario, ValidationError
from bellcert.scenario import NO_SIGNALING_TOL, NORMALIZATION_TOL, SignalingWarning


# --- relabelings ---------------------------------------------------------------

def _slot(g: Relabeling, i: int) -> int:
    return i if g.party_perm is None else g.party_perm[i]


def is_identity(g: Relabeling) -> bool:
    sc = g.scenario
    return (
        g.party_perm is None
        and all(p == tuple(range(sc.settings[i])) for i, p in enumerate(g.input_perms))
        and all(
            q == tuple(range(sc.outcomes))
            for per_setting in g.output_perms
            for q in per_setting
        )
    )


def inverse(g: Relabeling) -> Relabeling:
    sc = g.scenario
    inv_party = None
    if g.party_perm is not None:
        inv_party = tuple(int(v) for v in np.argsort(g.party_perm))
    in_perms = []
    out_perms = []
    for k in range(sc.parties):
        i = k if inv_party is None else inv_party[k]
        sigma = g.input_perms[i]
        sigma_inv = tuple(int(v) for v in np.argsort(sigma))
        in_perms.append(sigma_inv)
        # the inverse outcome permutation at image setting z undoes the
        # outcome permutation g attached at setting sigma(z)
        per_setting = []
        for z in range(sc.settings[i]):
            tau = g.output_perms[i][sigma[z]]
            per_setting.append(tuple(int(v) for v in np.argsort(tau)))
        out_perms.append(tuple(per_setting))
    return Relabeling(sc, tuple(in_perms), tuple(out_perms), inv_party)


def compose(g: Relabeling, h: Relabeling) -> Relabeling:
    """``g`` applied after ``h``."""
    sc = g.scenario
    in_perms = []
    out_perms = []
    for i in range(sc.parties):
        mid = _slot(h, i)
        sig_o = h.input_perms[i]
        sig_s = g.input_perms[mid]
        composed = tuple(sig_s[sig_o[x]] for x in range(sc.settings[i]))
        in_perms.append(composed)
        per_setting = []
        for y in range(sc.settings[i]):
            # y is the final image setting; h's outcome permutation acted at
            # the intermediate setting that g maps onto y
            mid_setting = sig_s.index(y)
            tau_o = h.output_perms[i][mid_setting]
            tau_s = g.output_perms[mid][y]
            per_setting.append(tuple(tau_s[tau_o[o]] for o in range(sc.outcomes)))
        out_perms.append(tuple(per_setting))
    party_perm = None
    if g.party_perm is not None or h.party_perm is not None:
        party_perm = tuple(_slot(g, _slot(h, i)) for i in range(sc.parties))
    return Relabeling(sc, tuple(in_perms), tuple(out_perms), party_perm)


def apply_to_strategy(g: Relabeling, strategy):
    sc = g.scenario
    moved: list[tuple[int, ...]] = [()] * sc.parties
    for i in range(sc.parties):
        sigma = g.input_perms[i]
        new = [0] * sc.settings[i]
        for x in range(sc.settings[i]):
            y = sigma[x]
            new[y] = g.output_perms[i][y][strategy[i][x]]
        moved[_slot(g, i)] = tuple(new)
    return tuple(moved)


# --- behaviors -----------------------------------------------------------------

def deterministic_behavior(scenario: Scenario, strategy) -> Behavior:
    if len(strategy) != scenario.parties:
        raise ValidationError("strategy needs one setting->outcome map per party")
    table = np.zeros((scenario.num_inputs, scenario.num_outcomes))
    for x_idx in range(scenario.num_inputs):
        x = scenario.input_tuple(x_idx)
        a = tuple(strategy[i][xi] for i, xi in enumerate(x))
        table[x_idx, scenario.outcome_index(a)] = 1.0
    return Behavior(scenario, table)


def _subset_sign_columns(scenario: Scenario, parties: tuple[int, ...]) -> np.ndarray:
    """Product over the subset of per-party outcome signs, one entry per joint outcome."""
    signs = scenario.outcome_signs
    out = np.ones(scenario.num_outcomes)
    for i in parties:
        out = out * signs[:, i]
    return out


def correlators_from_behavior(behavior: Behavior) -> CorrelatorForm:
    scenario = behavior.scenario
    x_digits = scenario.input_digits
    values: dict[tuple[tuple[int, ...], tuple[int, ...]], float] = {}
    for parties, assignment in scenario.subset_setting_keys():
        signs = _subset_sign_columns(scenario, parties)
        per_input = behavior.table @ signs
        mask = np.ones(scenario.num_inputs, dtype=bool)
        for i, xi in zip(parties, assignment):
            mask &= x_digits[:, i] == xi
        values[(parties, assignment)] = float(per_input[mask].mean())
    return CorrelatorForm(scenario, values)


def behavior_from_correlators(form: CorrelatorForm) -> Behavior:
    scenario = form.scenario
    x_digits = scenario.input_digits
    table = np.ones((scenario.num_inputs, scenario.num_outcomes))
    for parties, assignment in scenario.subset_setting_keys():
        signs = _subset_sign_columns(scenario, parties)
        mask = np.ones(scenario.num_inputs, dtype=bool)
        for i, xi in zip(parties, assignment):
            mask &= x_digits[:, i] == xi
        table[mask] += form.values[(parties, assignment)] * signs
    table /= scenario.num_outcomes
    if table.min() < -NORMALIZATION_TOL:
        raise ValidationError("correlators give a negative probability")
    return Behavior(scenario, table)


def _subset_marginal_table(behavior: Behavior, parties: tuple[int, ...]) -> np.ndarray:
    """Marginal over a party subset for every joint input: shape (num_inputs, d^|S|)."""
    scenario = behavior.scenario
    d = scenario.outcomes
    shaped = behavior.table.reshape((scenario.num_inputs,) + (d,) * scenario.parties)
    drop = tuple(1 + i for i in range(scenario.parties) if i not in parties)
    summed = shaped.sum(axis=drop) if drop else shaped
    return summed.reshape(scenario.num_inputs, d ** len(parties))


def is_no_signaling(behavior: Behavior, tol: float = NO_SIGNALING_TOL) -> tuple[bool, float]:
    scenario = behavior.scenario
    if scenario.parties == 1:
        return True, 0.0
    x_digits = scenario.input_digits
    worst = 0.0
    for r in range(1, scenario.parties):
        for parties in itertools.combinations(range(scenario.parties), r):
            marg = _subset_marginal_table(behavior, parties)
            # group joint inputs by the subset's settings and compare rows
            keys = np.zeros(scenario.num_inputs, dtype=np.int64)
            for i in parties:
                keys = keys * scenario.settings[i] + x_digits[:, i]
            for key in np.unique(keys):
                rows = marg[keys == key]
                if len(rows) > 1:
                    dev = float((rows.max(axis=0) - rows.min(axis=0)).max())
                    worst = max(worst, dev)
    return worst <= tol, worst


def marginal(behavior: Behavior, parties, settings, tol: float = NO_SIGNALING_TOL) -> np.ndarray:
    scenario = behavior.scenario
    marg = _subset_marginal_table(behavior, tuple(parties))
    mask = np.ones(scenario.num_inputs, dtype=bool)
    for i, s in zip(parties, settings):
        mask &= scenario.input_digits[:, i] == s
    rows = marg[mask]
    spread = float((rows.max(axis=0) - rows.min(axis=0)).max()) if len(rows) > 1 else 0.0
    if spread > tol:
        warnings.warn("marginal depends on other settings", SignalingWarning, stacklevel=2)
    return rows.mean(axis=0)
