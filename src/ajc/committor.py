"""Space-time committors and the forward-coherence defect.

Committors are solved on the augmented chain: hitting a space-time set A
before a set B, with all three exits of a trajectory accounted for --
jumping into A or B, jumping into a free cell, or never jumping again
before the horizon.  The last event is classified by where the frozen
trajectory sits at the horizon: terminal-block membership of the current
state decides A or B, and only otherwise does the tail policy apply.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .galerkin import JumpMatrix
from .operators import SpaceTimeVector, _solve_backward, apply_adjoint

TAIL_TO_A = "absorb_to_A"
TAIL_TO_B = "absorb_to_B"


class EmptyTarget(ValueError):
    """The target set of a committor or coherence query is empty."""


@dataclass(frozen=True)
class SpaceTimeSet:
    """Set of (state, block) cells, both 0-based."""

    cells: Iterable  # of (state, block) pairs, stored as a frozenset
    label: str = ""

    def __post_init__(self):
        object.__setattr__(
            self, "cells", frozenset((int(i), int(k)) for i, k in self.cells)
        )

    @classmethod
    def rectangle(cls, states: Iterable[int], blocks: tuple[int, int],
                  label: str = "") -> "SpaceTimeSet":
        """The states times the blocks lo..hi, both ends included."""
        lo, hi = blocks
        if lo > hi:
            raise ValueError(f"rectangle blocks [{lo}, {hi}] are reversed")
        return cls(((i, k) for i in states for k in range(lo, hi + 1)), label)

    @functools.cached_property
    def _index(self) -> np.ndarray:
        """The cells as (state, block) rows in the set's iteration order,
        built on first use; an int beyond int64 makes an object array, whose
        bounds test in mask is still exact."""
        return np.array(list(itertools.chain.from_iterable(self.cells))).reshape(-1, 2)

    def mask(self, N: int, M: int) -> np.ndarray:
        """Boolean flat-index membership mask."""
        i, k = self._index.T
        outside = np.flatnonzero((i < 0) | (i >= N) | (k < 0) | (k >= M))
        if outside.size:
            at = outside[0]
            raise ValueError(f"cell ({i[at]}, {k[at]}) outside the {N}x{M} space-time grid")
        out = np.zeros(N * M, dtype=bool)
        out[k.astype(int) * N + i.astype(int)] = True
        return out


def tail_value(tail) -> float:
    """The committor value a tail policy gives a trajectory that never jumps
    into A or B before the horizon: 0 for TAIL_TO_B, 1 for TAIL_TO_A, or a
    number in [0, 1]; a boolean, another string or bytes is no number."""
    if isinstance(tail, str) and tail in (TAIL_TO_A, TAIL_TO_B):
        return float(tail == TAIL_TO_A)
    try:
        v = np.nan if isinstance(tail, (bool, str, bytes)) else float(tail)
    except (TypeError, ValueError, OverflowError):
        v = np.nan
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"tail must be {TAIL_TO_A!r}, {TAIL_TO_B!r} or a number in [0, 1], "
                         f"got {tail!r}")
    return v


def committor_solve(J: JumpMatrix, A: SpaceTimeSet, B: SpaceTimeSet,
                    tail=TAIL_TO_B) -> SpaceTimeVector:
    """Probability of hitting A before B on the augmented chain.

    Boundary values are 1 on A and 0 on B; free cells satisfy
    c = J c + survival_mass * c_tail, solved by block back-substitution.
    c_tail per state is 1/0 if the terminal-block cell lies in A/B and the
    tail policy's value otherwise.
    """
    n, m = J.indexer.N, J.indexer.M
    in_a = A.mask(n, m)
    in_b = B.mask(n, m)
    if not in_a.any():
        raise EmptyTarget("set A is empty")
    if (in_a & in_b).any():
        raise ValueError("sets A and B must be disjoint")

    tail_default = tail_value(tail)
    last = slice((m - 1) * n, m * n)
    c_tail = np.full(n, tail_default)
    c_tail[in_a[last]] = 1.0
    c_tail[in_b[last]] = 0.0

    c = np.zeros(J.indexer.size)
    c[in_a] = 1.0
    return SpaceTimeVector(_solve_backward(J, m - 1, c_tail, c, ~(in_a | in_b)), J.indexer)


def coherence_defect(J: JumpMatrix, C: SpaceTimeSet,
                     count_survival: bool = False) -> tuple[float, float]:
    """Defect of the indicator of C from being forward coherent.

    Scores each cell by the pulled-back indicator (plus, optionally, the
    never-jump-again mass of cells inside C).  Returns the minimum slack
    over C and the total positive violation mass; the indicator is forward
    coherent iff the slack is nonnegative.
    """
    if not isinstance(count_survival, bool):
        raise ValueError(f"count_survival must be True or False, got {count_survival!r}")
    n, m = J.indexer.N, J.indexer.M
    in_c = C.mask(n, m)
    if not in_c.any():
        raise EmptyTarget("set C is empty")
    ind = in_c.astype(float)
    score = apply_adjoint(J, ind)
    if count_survival:
        score = score + J.survival_mass * ind
    min_slack = float(np.min(score[in_c] - 1.0))
    violation_mass = float(np.sum(np.maximum(0.0, ind - score)))
    return min_slack, violation_mass
