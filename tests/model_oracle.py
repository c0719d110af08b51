"""The per-projector and per-outcome loops that ``QuantumModel``'s
projectivity check and ``phase_measurement_model`` replaced, kept as test
oracles.  They share no code with ``bellcert.quantum``."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from bellcert.scenario import ValidationError

PROJECTOR_TOL = 1e-10


def check_projective(stack: np.ndarray, party: int, setting: int) -> None:
    """Raise on the first fault of one setting's (d, D, D) projector stack."""
    d, dim, _ = stack.shape
    label = f"party {party}, setting {setting}"
    total = np.zeros((dim, dim), dtype=complex)
    for k in range(d):
        p = stack[k]
        if np.abs(p - p.conj().T).max() > PROJECTOR_TOL:
            raise ValidationError(f"projector {k} of {label} is not Hermitian")
        if np.abs(p @ p - p).max() > PROJECTOR_TOL:
            raise ValidationError(f"projector {k} of {label} is not idempotent")
        total += p
    for j in range(d):
        for k in range(j + 1, d):
            if np.abs(stack[j] @ stack[k]).max() > PROJECTOR_TOL:
                raise ValidationError(f"projectors {j},{k} of {label} are not orthogonal")
    if np.abs(total - np.eye(dim)).max() > PROJECTOR_TOL:
        raise ValidationError(f"projectors of {label} do not sum to identity")


def check_model_projective(measurements: Sequence[Sequence[np.ndarray]]) -> None:
    """Every party and setting in order, as the per-setting model loop did."""
    for i, per_setting in enumerate(measurements):
        for x, stack in enumerate(per_setting):
            check_projective(np.asarray(stack, dtype=complex), i, x)


def basis(d: int, phase: float, conj: bool) -> np.ndarray:
    """(d, d, d) projectors onto exp(2 pi i k (a + phase) / d) / sqrt(d), one per a."""
    k = np.arange(d)
    stacks = []
    for a in range(d):
        v = np.exp(2j * np.pi * k * (a + phase) / d) / math.sqrt(d)
        if conj:
            v = v.conj()
        stacks.append(np.outer(v, v.conj()))
    return np.stack(stacks)


def phase_measurements(
    d: int, alice_phases: Sequence[float], bob_phases: Sequence[float]
) -> tuple[tuple[np.ndarray, ...], ...]:
    """Both parties' Fourier-phase measurements; party 1 uses the conjugate basis."""
    return (
        tuple(basis(d, p, conj=False) for p in alice_phases),
        tuple(basis(d, p, conj=True) for p in bob_phases),
    )
