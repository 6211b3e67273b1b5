"""Builtin model setups: the 2-state switch and the annealed triple well."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .generator import GridPotential, RateMatrixSequence, TimeGrid, sqra_rates

TWO_STATE_SWITCH_TIME = 4.0
TWO_STATE_HORIZON = 8.0

TRIPLE_WELL_NX = 9
TRIPLE_WELL_NY = 7
TRIPLE_WELL_DOMAIN = ((-2.0, 2.0), (-1.0, 2.0))
TRIPLE_WELL_HORIZON = 2.0
TRIPLE_WELL_SWITCH_TIME = 1.0
TRIPLE_WELL_BETA = (1.0, 10.0)


def _uniform_grid(dt: float, switch: float, horizon: float) -> TimeGrid:
    """Cells of width dt on [0, horizon]; dt must be positive and divide the
    switch time so that each cell sees a constant rate."""
    if not dt > 0 or abs(switch / dt - round(switch / dt)) > 1e-9:
        raise ValueError(f"dt={dt} does not divide the switch time {switch:g}")
    return TimeGrid.uniform(0.0, horizon, int(round(horizon / dt)))


def two_state(dt: float = 1.0) -> RateMatrixSequence:
    """Two states on [0, 8]: A -> B at rate 1 before t=4, B -> A after.

    dt must divide the switch time 4.
    """
    grid = _uniform_grid(dt, TWO_STATE_SWITCH_TIME, TWO_STATE_HORIZON)
    a_to_b = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    b_to_a = sp.csr_matrix(np.array([[0.0, 0.0], [1.0, 0.0]]))
    mid = 0.5 * (grid.edges[:-1] + grid.edges[1:])  # each cell's phase is its midpoint's
    return RateMatrixSequence(grid, [a_to_b if t < TWO_STATE_SWITCH_TIME else b_to_a
                                     for t in mid])


def triple_well_potential(x, y):
    """Three-well landscape: deep minima near (-1, 0) and (1, 0), a shallow
    one near (0, 1.5)."""
    return (
        3.0 * np.exp(-x ** 2 - (y - 1.0 / 3.0) ** 2)
        - 3.0 * np.exp(-x ** 2 - (y - 5.0 / 3.0) ** 2)
        - 5.0 * np.exp(-(x - 1.0) ** 2 - y ** 2)
        - 5.0 * np.exp(-(x + 1.0) ** 2 - y ** 2)
        + 0.2 * x ** 4
        + 0.2 * (y - 1.0 / 3.0) ** 4
    )


def triple_well_grid_potential() -> GridPotential:
    """The 9x7 grid (h = 0.5) on [-2, 2] x [-1, 2] with the builtin potential."""
    (x0, x1), (y0, y1) = TRIPLE_WELL_DOMAIN
    xs = np.linspace(x0, x1, TRIPLE_WELL_NX)
    ys = np.linspace(y0, y1, TRIPLE_WELL_NY)
    h = xs[1] - xs[0]
    X, Y = np.meshgrid(xs, ys)  # row-major: state = row * nx + col
    return GridPotential(TRIPLE_WELL_NX, TRIPLE_WELL_NY, float(h),
                         triple_well_potential(X, Y).ravel())


def triple_well(dt: float = 1.0 / 3.0) -> RateMatrixSequence:
    """Annealing protocol on [0, 2]: beta=1 for t < 1, beta=10 after.

    dt must divide the switch time 1.
    """
    grid = _uniform_grid(dt, TRIPLE_WELL_SWITCH_TIME, TRIPLE_WELL_HORIZON)
    mid = 0.5 * (grid.edges[:-1] + grid.edges[1:])  # each cell's phase is its midpoint's
    betas = np.where(mid < TRIPLE_WELL_SWITCH_TIME, *TRIPLE_WELL_BETA)
    return RateMatrixSequence(grid, sqra_rates(triple_well_grid_potential(), betas))


# Config name -> builder; a builder called without dt uses its own default.
BUILDERS = {"two-state": two_state, "triple-well": triple_well}
