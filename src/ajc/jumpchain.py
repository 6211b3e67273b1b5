"""The exact augmented jump chain: temporal Gillespie sampling.

The chain lives on space-time points (state, jump time).  With a
piecewise-constant protocol all waiting-time integrals are finite sums, so
the inverse-CDF sampler is evaluated in closed form by walking the time
cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generator import RateMatrixSequence


@dataclass(frozen=True)
class SpaceTimePoint:
    state: int
    time: float


@dataclass(frozen=True)
class TrajectorySample:
    """One realization: states[n] entered at times[n], observed up to horizon."""

    states: np.ndarray
    times: np.ndarray
    horizon: float

    def __post_init__(self):
        states = np.asarray(self.states, dtype=int)
        times = np.asarray(self.times, dtype=float)
        if states.size != times.size or states.size == 0:
            raise ValueError("states and times must be equally sized and nonempty")
        if np.any(np.diff(times) <= 0):
            raise ValueError("jump times must be strictly increasing")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "times", times)

    def __len__(self):
        return self.states.size


def _invert_hazard(seq: RateMatrixSequence, i: int, s: float, u: float):
    """Inverse CDF of the non-homogeneous exponential waiting time.

    Returns (t, k) with the jump time and the index of its time cell, or
    None when the accumulated hazard never reaches -log(1-u) before the
    horizon (the jump falls past the end of the grid).
    """
    target = -np.log1p(-u)
    edges = seq.grid.edges
    rates = seq.outbound[i]
    k0 = seq.grid.interval_of(s) if s > edges[0] else 0
    acc = 0.0
    for k in range(k0, seq.grid.M):
        lo = max(s, float(edges[k]))
        inc = rates[k] * (float(edges[k + 1]) - lo)
        if inc > 0 and acc + inc >= target:
            return lo + (target - acc) / rates[k], k
        acc += inc
    return None


def sample_trajectory(
    seq: RateMatrixSequence,
    start: SpaceTimePoint,
    horizon: float,
    rng,
) -> TrajectorySample:
    """Temporal Gillespie sampling of the augmented chain up to the horizon.

    Alternates waiting-time inversion and a draw of the target j with
    probability q_ij / q_i from the row of the realized jump cell in
    seq.offdiag.  rng is a seed or a numpy Generator; results are
    deterministic given the seed.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    if not (seq.grid.t0 <= start.time <= horizon <= seq.grid.horizon):
        raise ValueError(f"need grid start {seq.grid.t0} <= start time {start.time} "
                         f"<= horizon {horizon} <= grid horizon {seq.grid.horizon}")
    states = [int(start.state)]
    times = [float(start.time)]
    while True:
        hit = _invert_hazard(seq, states[-1], times[-1], rng.random())
        if hit is None or hit[0] > horizon:
            break
        (t, k), i = hit, states[-1]
        R = seq.offdiag[k]
        lo, hi = R.indptr[i], R.indptr[i + 1]
        # times 1/q_i, not divided by it: keeps the seed -> trajectory bytes
        cum = np.cumsum(R.data[lo:hi] * (1 / seq.outbound[i, k]))
        j = int(R.indices[lo + np.searchsorted(cum, rng.random() * cum[-1], side="right")])
        states.append(j)
        times.append(t)
    return TrajectorySample(np.array(states), np.array(times), float(horizon))

