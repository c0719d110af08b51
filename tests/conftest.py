"""Shared generators and fixtures for the test suite."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

from bellcert import (
    Behavior,
    Relabeling,
    Scenario,
    behavior_from_table,
    deterministic_behavior,
    qubit_model,
)
from bellcert.cli import main

# Python's smallest int-to-string limit: a message that writes an unbounded
# count in decimal fails here instead of only on huge inputs
sys.set_int_max_str_digits(640)


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    """``bellcert`` run in-process: its exit code, standard output and standard error."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def random_strategy(scenario: Scenario, rng: np.random.Generator):
    return tuple(
        tuple(int(o) for o in rng.integers(0, scenario.outcomes, size=m))
        for m in scenario.settings
    )


def random_ns_behavior(
    scenario: Scenario, rng: np.random.Generator, components: int = 8
) -> Behavior:
    """Random point of the local polytope (hence non-signaling)."""
    weights = rng.dirichlet(np.ones(components))
    table = np.zeros((scenario.num_inputs, scenario.num_outcomes))
    for w in weights:
        table += w * deterministic_behavior(scenario, random_strategy(scenario, rng)).table
    return behavior_from_table(scenario, table)


def random_behavior(scenario: Scenario, rng: np.random.Generator) -> Behavior:
    """Random (generally signaling) behavior: independent Dirichlet rows."""
    table = rng.dirichlet(np.ones(scenario.num_outcomes), size=scenario.num_inputs)
    return behavior_from_table(scenario, table)


def random_relabeling(scenario: Scenario, rng: np.random.Generator) -> Relabeling:
    input_perms = []
    output_perms = []
    for m in scenario.settings:
        input_perms.append(tuple(int(v) for v in rng.permutation(m)))
        output_perms.append(
            tuple(
                tuple(int(v) for v in rng.permutation(scenario.outcomes))
                for _ in range(m)
            )
        )
    return Relabeling(scenario, tuple(input_perms), tuple(output_perms))


def fields(g: Relabeling):
    """A relabeling's blocks, the fields it was built from."""
    return g.input_perms, g.output_perms, g.party_perm


def random_small_scenario(rng: np.random.Generator, two_outcome: bool = False) -> Scenario:
    parties = int(rng.integers(1, 4))
    settings = tuple(int(rng.integers(1, 4)) for _ in range(parties))
    outcomes = 2 if two_outcome else int(rng.integers(2, 4))
    return Scenario(settings, outcomes)


def canonical_chsh_model():
    """Maximally entangled pair with the textbook CHSH angles (x-z plane)."""
    phi_plus = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2)

    def xz(theta: float):
        return [math.sin(theta), 0.0, math.cos(theta)]

    return qubit_model(
        Scenario((2, 2), 2),
        phi_plus,
        [[xz(0.0), xz(math.pi / 2)], [xz(math.pi / 4), xz(-math.pi / 4)]],
    )


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
