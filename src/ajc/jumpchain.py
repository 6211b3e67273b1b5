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
cell-by-cell sum.  The cell holding the time is the previous jump's,
searched for with bisect only when the time lies outside it.  The target
of a jump is drawn from the embedded chain q_ij / q_i of the jump cell's
phase, whose row CDFs the sequence builds on the first sample too
(RateMatrixSequence.embedded_chain), searched with bisect.

A trajectory's uniforms come from one rng.random(n) call per batch of n,
and their hazard targets -log(1-u) from one np.log1p call (not
math.log1p, which rounds differently).  When the
trajectory ends, the generator is set back to its state before the first
batch and redraws the uniforms used, so it ends where one draw at a time
leaves it.  The seeded trajectories depend on two bit-level facts:
rng.random(n) gives the values of n scalar draws, and np.log1p rounds each
element of an array as it rounds a scalar.
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


def _invert_hazard(edges, rates, increments, s: float, target: float, k: int):
    """Inverse CDF of the non-homogeneous exponential waiting time.

    edges are the grid's edges, and rates and increments the state's
    outbound rate and hazard increment in each cell (one row of the
    sequence's sampler_table), all sequences of plain floats.  target is
    the hazard -log(1-u) the wait must accumulate from s, and k a guess
    at the cell (edges[k], edges[k+1]] holding s, searched for when it
    does not hold it (t0 belongs to the first cell).  Returns (t, k) with
    the jump time and the index of its time cell, or None when the
    accumulated hazard never reaches target before the horizon (the jump
    falls past the end of the grid).
    """
    if not edges[k] < s <= edges[k + 1]:
        k = max(bisect.bisect_left(edges, s) - 1, 0)
        if k >= len(rates):
            return None
    # from s to the end of the cell holding it
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


# Uniforms per numpy call, at least the two a jump takes: a triple-well
# trajectory at dt = 1/24 takes 31 on average and 47 at most.
_BATCH = 64


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
    results are deterministic given the seed.  A Generator ends where the
    draws the trajectory used leave it; since the walk sets its state
    back, no other thread may draw from it meanwhile.
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
    i = int(i)
    states = [i]
    times = [float(start.time)]
    # the draws go in order, a hazard's u and then a target's, from batches
    # of uniforms with their hazard targets -log(1-u); n is the next draw of
    # the batch, used the draws of the batches before it
    saved = rng.bit_generator.state
    u, h, n, used = [], [], 0, 0
    k = 0
    while True:
        if n + 2 > len(u):  # a jump takes two draws: carry the leftover, never skip it
            batch = rng.random(_BATCH)
            used += n
            u, h, n = u[n:] + batch.tolist(), h[n:] + (-np.log1p(-batch)).tolist(), 0
        hit = _invert_hazard(edges, rates[i], increments[i], times[-1], h[n], k)
        if hit is None or hit[0] > horizon:
            break
        t, k = hit
        indptr, indices, cdf = chain[phase[k]]
        lo, hi = indptr[i], indptr[i + 1]
        i = indices[bisect.bisect_right(cdf, u[n + 1] * cdf[hi - 1], lo, hi)]
        n += 2
        states.append(i)
        times.append(t)
    # give back the unused uniforms: rng ends where the draws taken, the
    # last hazard's included, leave it
    rng.bit_generator.state = saved
    rng.random(used + n + 1)
    return TrajectorySample(np.array(states), np.array(times), float(horizon))
