"""The exact augmented jump chain: temporal Gillespie sampling.

The chain lives on space-time points (state, jump time).  With a
piecewise-constant protocol all waiting-time integrals are finite sums, so
the inverse-CDF sampler is evaluated in closed form by walking the time
cells.  The walk reads two tables the sequence builds on its first sample
and keeps.  RateMatrixSequence.sampler_table holds the edges and phases as
plain lists, and per state its outbound rate and its hazard increment over
each whole cell, one float per state and cell.  A wait computes the
partial cell holding the current time from that time and adds the stored
increment of every later cell, in cell order, so a jump time has the bits
of the cell-by-cell sum.  The cell holding the time is the previous
jump's, searched for with bisect only when the time lies outside it.  A
wait that rounds to zero, below half an ulp of the time, jumps at the next
float after it, so jump times always increase.  The target of a jump is
drawn from the embedded chain q_ij / q_i of the jump cell's phase:
RateMatrixSequence.embedded_chain holds each (phase, state) row as plain
lists of its CDF and its target states, searched with bisect.

A trajectory's uniforms come from one rng.random(n) call per batch of n,
and their hazard targets -log(1-u) from one np.log1p call (not
math.log1p, which rounds differently); one loop (_walk) takes a batch's
jumps until the batch runs out or a wait finds no jump by the horizon.
When the trajectory ends, the generator is set back to its state before
the first batch and redraws the uniforms used, so it ends where one draw
at a time leaves it.  The seeded trajectories depend on two bit-level
facts: rng.random(n) gives the values of n scalar draws, and np.log1p
rounds each element of an array as it rounds a scalar.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left, bisect_right
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


def _walk(table, chain, states, times, k: int, u: list, h: list, horizon: float) -> tuple:
    """Walk the chain from (states[-1], times[-1]) on the draws u with their
    hazard targets h = -log(1-u), a hazard's and then a target's per jump,
    appending each jump to states and times.

    table is the sequence's sampler_table and chain its embedded_chain; k
    is a guess at the cell (edges[k], edges[k+1]] holding the time,
    searched for when it does not hold it (t0 belongs to the first cell).
    Each wait accumulates the hazard from the time s: the part of its cell
    after s, then each later cell's stored increment in cell order, until
    it reaches the target.  A jump time that rounds to s is taken at the
    next float after s.  Returns (n, k): the draws the walk used and the
    cell of the last jump while fewer than two draws are left, or, once a
    wait finds no jump by the horizon, the index of its hazard draw and
    None.
    """
    edges, phase, rates, increments = table
    M = len(edges) - 1
    i, s, n, last = states[-1], times[-1], 0, len(u) - 1
    while n < last:
        if not edges[k] < s <= edges[k + 1]:
            k = max(bisect_left(edges, s) - 1, 0)
        rate, target = rates[i], h[n]
        # from s to the end of the cell holding it
        r = rate[k]
        acc = r * (edges[k + 1] - s)
        if acc > 0 and acc >= target:
            t = s + target / r
        else:
            # each later cell whole, summed in cell order as a walk from s would
            inc = increments[i]
            for k in range(k + 1, M):
                x = inc[k]
                y = acc + x
                if y >= target and x > 0:
                    t = edges[k] + (target - acc) / rate[k]
                    break
                acc = y
            else:
                return n, None
        if t <= s:  # a wait below half an ulp of s
            t = math.nextafter(s, math.inf)
        if t > horizon:
            return n, None
        cdf, to = chain[phase[k]][i]
        i = to[bisect_right(cdf, u[n + 1] * cdf[-1])]
        n += 2
        states.append(i)
        times.append(t)
        s = t
    return n, k


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
    table, chain = seq.sampler_table, seq.embedded_chain
    states, times = [int(i)], [float(start.time)]
    # draws come from batches of uniforms with their hazard targets
    # -log(1-u); a walk starts on the first draw it was not given before,
    # used counts the draws of the batches before it, and k is None once a
    # wait finds no jump
    saved = rng.bit_generator.state
    u, h, n, used, k = [], [], 0, 0, 0
    while k is not None:
        # a jump takes two draws: carry the leftover, never skip it
        batch = rng.random(_BATCH)
        used += n
        u, h = u[n:] + batch.tolist(), h[n:] + (-np.log1p(-batch)).tolist()
        n, k = _walk(table, chain, states, times, k, u, h, horizon)
    # give back the unused uniforms: rng ends where the draws taken, the
    # last hazard's included, leave it
    rng.bit_generator.state = saved
    rng.random(used + n + 1)
    return TrajectorySample(np.array(states), np.array(times), float(horizon))
