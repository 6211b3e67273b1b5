"""The exact augmented jump chain: temporal Gillespie sampling.

The chain lives on space-time points (state, jump time).  With a
piecewise-constant protocol all waiting-time integrals are finite sums, so
the inverse-CDF sampler is evaluated in closed form by walking the time
cells.  The target of a jump is drawn from the embedded chain q_ij / q_i of
the jump cell's phase, whose row CDFs the sequence builds on the first
sample and keeps (RateMatrixSequence.embedded_chain).  The walk reads the
grid, the outbound rates and those CDFs as plain Python floats and ints and
searches them with bisect; its one numpy call per jump is np.log1p, whose
rounding the seeded trajectories depend on.
"""

from __future__ import annotations

import bisect
import numbers
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


def _invert_hazard(edges, rates, s: float, u: float):
    """Inverse CDF of the non-homogeneous exponential waiting time.

    edges are the grid's edges and rates the state's outbound rate in each
    cell, both as sequences of plain floats.  Returns (t, k) with the jump
    time and the index of its time cell, or None when the accumulated hazard
    never reaches -log(1-u) before the horizon (the jump falls past the end
    of the grid).
    """
    target = -float(np.log1p(-u))  # not math.log1p: it rounds differently
    acc, lo = 0.0, s
    # from the cell (edges[k], edges[k+1]] holding s; t0 belongs to the first
    for k in range(max(bisect.bisect_left(edges, s) - 1, 0), len(edges) - 1):
        hi, rate = edges[k + 1], rates[k]
        inc = rate * (hi - lo)
        if inc > 0 and acc + inc >= target:
            return lo + (target - acc) / rate, k
        acc, lo = acc + inc, hi
    return None


def sample_trajectory(
    seq: RateMatrixSequence,
    start: SpaceTimePoint,
    horizon: float,
    rng,
) -> TrajectorySample:
    """Temporal Gillespie sampling of the augmented chain up to the horizon.

    Alternates waiting-time inversion and a draw of the target j with
    probability q_ij / q_i from the row CDF of the realized jump cell's
    phase in seq.embedded_chain.  rng is a seed or a numpy Generator;
    results are deterministic given the seed.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    if not (seq.grid.t0 <= start.time <= horizon <= seq.grid.horizon):
        raise ValueError(f"need grid start {seq.grid.t0} <= start time {start.time} "
                         f"<= horizon {horizon} <= grid horizon {seq.grid.horizon}")
    i = start.state
    if isinstance(i, bool) or not isinstance(i, numbers.Integral) or not 0 <= i < seq.N:
        raise ValueError(f"start state must be an integer in [0, {seq.N}), got {i!r}")
    # plain floats and ints: numpy scalar arithmetic costs more than the walk
    M = seq.grid.M
    edges = seq.grid.edges.tolist()
    phase = memoryview(seq.phase)
    rates = memoryview(seq.outbound.ravel())  # row i is rates[i*M:(i+1)*M]
    chain = seq.embedded_chain
    states = [int(i)]
    times = [float(start.time)]
    while True:
        i = states[-1]
        hit = _invert_hazard(edges, rates[i * M:(i + 1) * M], times[-1], rng.random())
        if hit is None or hit[0] > horizon:
            break
        t, k = hit
        indptr, indices, cdf = chain[phase[k]]
        lo, hi = indptr[i], indptr[i + 1]
        states.append(indices[bisect.bisect_right(cdf, rng.random() * cdf[hi - 1], lo, hi)])
        times.append(t)
    return TrajectorySample(np.array(states), np.array(times), float(horizon))
