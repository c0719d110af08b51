"""Independent grid oracles used to pin optimizer regression targets.

These deliberately share no machinery with the see-saw: values come from
dense angle grids with iterated refinement, followed by exact
eigendecomposition (or a closed-form vector norm for correlation-only
functionals).  Planar measurement angles lose no generality for the
functionals tested here, and one angle per party is gauge-fixed to zero
since a local frame rotation shifts both of a party's angles without
changing the Bell operator's spectrum.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from bellcert.functionals import BellFunctional, correlator_terms


def _observables(angles: np.ndarray, plane: str) -> np.ndarray:
    """Batched +-1 qubit observables for angles of shape (..., ): (..., 2, 2)."""
    c = np.cos(angles)
    s = np.sin(angles)
    out_shape = angles.shape + (2, 2)
    if plane == "xz":
        obs = np.zeros(out_shape)
        obs[..., 0, 0] = c
        obs[..., 0, 1] = s
        obs[..., 1, 0] = s
        obs[..., 1, 1] = -c
    elif plane == "xy":
        obs = np.zeros(out_shape, dtype=complex)
        obs[..., 0, 1] = c - 1j * s
        obs[..., 1, 0] = c + 1j * s
    else:
        raise ValueError(f"unknown plane {plane!r}")
    return obs


def _batched_value(
    functional: BellFunctional, angle_grid: np.ndarray, plane: str
) -> np.ndarray:
    """Extremal Bell-operator eigenvalue for every angle assignment.

    ``angle_grid`` has shape (batch, total_settings) listing the angle of
    every (party, setting) pair in scenario order.  The operator
    sum_{x,a} c(a,x) P^0[x_0, a_0] (x) P^1[x_1, a_1] (x) ... is built by
    summing out one party's (setting, outcome) pairs at a time.
    """
    sc = functional.scenario
    n = sc.parties
    batch = angle_grid.shape[0]
    eye = np.eye(2, dtype=complex if plane == "xy" else float)
    # c[x_0, a_0, x_1, a_1, ...] with one (setting, outcome) axis pair per party
    c = functional.float_table.reshape(sc.settings + (2,) * n)
    c = c.transpose([k for i in range(n) for k in (i, n + i)])
    op = np.broadcast_to(c.reshape(1, -1), (batch, c.size))
    col = 0
    for m in sc.settings:
        obs = _observables(angle_grid[:, col : col + m], plane)  # (batch, m, 2, 2)
        col += m
        projectors = np.stack([(eye + obs) / 2, (eye - obs) / 2], axis=2)
        # (batch, rest, m * 2) @ (batch, m * 2, 4): this party's (setting,
        # outcome) pairs summed out, its matrix indices appended last
        op = op.reshape(batch, m * 2, -1).swapaxes(1, 2) @ projectors.reshape(batch, m * 2, 4)
    # axes (batch, p_0, q_0, p_1, q_1, ...) to rows p_0 p_1 ... and columns q_0 q_1 ...
    op = op.reshape((batch,) + (2, 2) * n)
    op = op.transpose(0, *range(1, 2 * n, 2), *range(2, 2 * n + 1, 2))
    vals = np.linalg.eigvalsh(op.reshape(batch, 2**n, 2**n))
    return vals[:, -1] if functional.orientation == "max" else vals[:, 0]


def _free_angle_layout(functional: BellFunctional) -> tuple[int, list[int]]:
    """Free angle count and the grid column of each (party, setting)."""
    sc = functional.scenario
    columns = []
    free = 0
    for m in sc.settings:
        columns.append(-1)  # first setting of each party gauge-fixed to 0
        for _ in range(m - 1):
            columns.append(free)
            free += 1
    return free, columns


def planar_grid_oracle(
    functional: BellFunctional,
    plane: str = "xz",
    coarse_step_deg: float = 3.0,
    refinements: int = 3,
    chunk: int = 65536,
) -> float:
    """Best planar-measurement qubit value by iterated grid refinement."""
    free, columns = _free_angle_layout(functional)
    sign = 1.0 if functional.orientation == "max" else -1.0

    def evaluate_points(points: np.ndarray) -> np.ndarray:
        full = np.zeros((points.shape[0], len(columns)))
        for col, src in enumerate(columns):
            if src >= 0:
                full[:, col] = points[:, src]
        out = np.empty(points.shape[0])
        for start in range(0, points.shape[0], chunk):
            stop = min(start + chunk, points.shape[0])
            out[start:stop] = _batched_value(functional, full[start:stop], plane)
        return out

    step = math.radians(coarse_step_deg)
    axes = [np.arange(0.0, 2 * math.pi, step) for _ in range(free)]
    best_point = np.zeros(free)
    best_value = -math.inf
    for _ in range(refinements + 1):
        mesh = np.meshgrid(*axes, indexing="ij") if free else []
        points = (
            np.stack([m.reshape(-1) for m in mesh], axis=1)
            if free
            else np.zeros((1, 0))
        )
        vals = sign * evaluate_points(points)
        top = int(np.argmax(vals))
        if vals[top] > best_value:
            best_value = float(vals[top])
            best_point = points[top]
        step /= 10.0
        axes = [best_point[k] + step * np.arange(-12, 13) for k in range(free)]
    return sign * best_value


def correlation_vector_oracle(
    functional: BellFunctional,
    coarse_step_deg: float = 0.25,
    refinements: int = 2,
) -> float:
    """Quantum maximum of a bipartite correlation-only functional.

    For a functional with only full two-party correlator terms the quantum
    maximum equals the maximum over unit vectors u_i, v_j of
    sum_ij c_ij u_i . v_j; eliminating the u_i in closed form leaves
    sum_i ||sum_j c_ij v_j||, scanned here over planar v_j with the first
    gauge-fixed.
    """
    sc = functional.scenario
    if sc.parties != 2 or functional.orientation != "max":
        raise ValueError("vector oracle handles bipartite maximizations only")
    terms, constant = correlator_terms(functional)
    if constant != 0:
        raise ValueError("vector oracle requires a correlation-only functional")
    c = np.zeros((sc.settings[0], sc.settings[1]))
    for (parties, settings), w in terms.items():
        if parties != (0, 1):
            raise ValueError("vector oracle requires full two-party terms only")
        c[settings[0], settings[1]] = float(w)

    m_b = sc.settings[1]
    free = m_b - 1

    def value(points: np.ndarray) -> np.ndarray:
        betas = np.concatenate(
            [np.zeros((points.shape[0], 1)), points], axis=1
        )  # gauge: first vector along x
        vx = np.cos(betas)
        vy = np.sin(betas)
        sx = vx @ c.T
        sy = vy @ c.T
        return np.sqrt(sx**2 + sy**2).sum(axis=1)

    step = math.radians(coarse_step_deg)
    axes = [np.arange(0.0, 2 * math.pi, step) for _ in range(free)]
    best_point = np.zeros(free)
    best_value = -math.inf
    for _ in range(refinements + 1):
        mesh = np.meshgrid(*axes, indexing="ij") if free else []
        points = (
            np.stack([m.reshape(-1) for m in mesh], axis=1)
            if free
            else np.zeros((1, 0))
        )
        vals = value(points)
        top = int(np.argmax(vals))
        if vals[top] > best_value:
            best_value = float(vals[top])
            best_point = points[top]
        step /= 10.0
        axes = [best_point[k] + step * np.arange(-12, 13) for k in range(free)]
    return best_value


def brute_force_symmetries(functional: BellFunctional):
    """All nontrivial symmetries by definitional enumeration.

    Slow but simple-minded: builds every relabeling from itertools
    permutations and compares pushed-forward coefficient dictionaries, with
    none of the vectorized machinery of the library search.
    """
    from bellcert.symmetry import Relabeling, pushforward_functional

    sc = functional.scenario
    per_party = []
    for m in sc.settings:
        options = []
        for sigma in itertools.permutations(range(m)):
            for taus in itertools.product(
                itertools.permutations(range(sc.outcomes)), repeat=m
            ):
                options.append((sigma, taus))
        per_party.append(options)
    found = []
    for combo in itertools.product(*per_party):
        g = Relabeling(
            sc,
            tuple(block[0] for block in combo),
            tuple(block[1] for block in combo),
        )
        if g.is_identity:
            continue
        if pushforward_functional(g, functional).same_coefficients(functional):
            found.append(g)
    return found
