"""The exact augmented jump chain: temporal Gillespie sampling.

The chain lives on space-time points (state, jump time).  With a
piecewise-constant protocol all waiting-time integrals are finite sums, so
the inverse-CDF sampler is evaluated in closed form by walking the time
cells.  The walk reads a table the sequence builds on its first sample and
keeps (RateMatrixSequence.sampler_table): the edges and phases as plain
lists, and per state its outbound rate and its hazard increment over each
whole cell, one float per state and cell.  It computes the partial cell
holding the current time from that time and adds the stored increment of
every later cell, in cell order, so a jump time has the bits of the
cell-by-cell sum.  The target of a jump is drawn from the embedded chain
q_ij / q_i of the jump cell's phase, whose row CDFs the sequence builds on
the first sample too (RateMatrixSequence.embedded_chain), searched with
bisect.  The walk's one numpy call per jump is np.log1p, whose rounding
the seeded trajectories depend on.
"""

from __future__ import annotations

import bisect
import math
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
        if not (times[1:] > times[:-1]).all():
            raise ValueError("jump times must be strictly increasing")
        # increasing with finite ends: finite throughout
        first, last = float(times[0]), float(times[-1])
        if not (math.isfinite(first) and math.isfinite(last)):
            raise ValueError(f"jump times must be finite, got {first} to {last}")
        if not last <= self.horizon:
            raise ValueError(f"horizon {self.horizon} is before the last jump time {last}")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "times", times)

    def __len__(self):
        return self.states.size


def _invert_hazard(edges, rates, increments, s: float, u: float):
    """Inverse CDF of the non-homogeneous exponential waiting time.

    edges are the grid's edges, and rates and increments the state's
    outbound rate and hazard increment in each cell (one row of the
    sequence's sampler_table), all sequences of plain floats.  Returns
    (t, k) with the jump time and the index of its time cell, or None when
    the accumulated hazard never reaches -log(1-u) before the horizon (the
    jump falls past the end of the grid).
    """
    target = -float(np.log1p(-u))  # not math.log1p: it rounds differently
    # from s to the end of the cell (edges[k], edges[k+1]] holding it; t0
    # belongs to the first cell
    k = max(bisect.bisect_left(edges, s) - 1, 0)
    if k >= len(rates):
        return None
    rate = rates[k]
    acc = rate * (edges[k + 1] - s)
    if acc > 0 and acc >= target:
        return s + target / rate, k
    # each later cell whole, summed in cell order as a walk from s would
    for k in range(k + 1, len(rates)):
        inc = increments[k]
        if inc > 0 and acc + inc >= target:
            return edges[k] + (target - acc) / rates[k], k
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
    edges, phase, rates, increments = seq.sampler_table
    chain = seq.embedded_chain
    states = [int(i)]
    times = [float(start.time)]
    while True:
        i = states[-1]
        hit = _invert_hazard(edges, rates[i], increments[i], times[-1], rng.random())
        if hit is None or hit[0] > horizon:
            break
        t, k = hit
        indptr, indices, cdf = chain[phase[k]]
        lo, hi = indptr[i], indptr[i + 1]
        states.append(indices[bisect.bisect_right(cdf, rng.random() * cdf[hi - 1], lo, hi)])
        times.append(t)
    return TrajectorySample(np.array(states), np.array(times), float(horizon))
