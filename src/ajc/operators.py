"""Solvers on the factored jump operator.

The jump operator is block upper-triangular over time blocks, so every
solve here is one scan over the time cells: forward (I - J^T) X = F for
jump activity and propagation, backward (I - J) x = b for Koopman and
committor values.  Each diagonal block is solved through one sparse LU,
built once per distinct block within a solve, which on a uniform grid is
once per protocol phase.  A block is factored in the orientation it is
solved in: I - B^T for forward solves, I - B for backward ones.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .galerkin import JumpMatrix, SpaceTimeIndexer, apply_forward

RESIDUAL_TOL = 1e-10

log = logging.getLogger(__name__)


class NonConvergence(RuntimeError):
    """A diagonal block is singular or its solve misses RESIDUAL_TOL."""


@dataclass(frozen=True)
class SpaceTimeVector:
    """Values over the N*M space-time cells, flat-indexed by the indexer."""

    values: np.ndarray
    indexer: SpaceTimeIndexer

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.indexer.size,):
            raise ValueError("values must have length N*M")
        object.__setattr__(self, "values", values)


def embed_spacelike(fbar: np.ndarray, indexer: SpaceTimeIndexer,
                    block: int = 0) -> SpaceTimeVector:
    """Put a spatial vector into a single time block of a space-time vector."""
    fbar = np.asarray(fbar, dtype=float)
    if fbar.shape != (indexer.N,):
        raise ValueError("spatial vector must have length N")
    values = np.zeros(indexer.size)
    values[block * indexer.N:(block + 1) * indexer.N] = fbar
    return SpaceTimeVector(values, indexer)


def _solve_diagonal(lus: dict, B: sp.csr_matrix, free: np.ndarray,
                    rhs: np.ndarray) -> np.ndarray:
    """Solve (I - B) x = rhs restricted to the free cells of a diagonal block.

    lus holds one LU per block object and mask within a solve, so the cells
    of one phase factorize once and give bit-identical results.  The block
    comes in the orientation it is solved in, so the LU solve is never
    transposed; the residual is checked against that same stored operand.
    """
    key = (id(B), free.tobytes())  # the blocks outlive the solve, so ids stay unique
    if key not in lus:
        sub = B[free][:, free]
        try:
            lus[key] = sub, spla.splu(sp.eye(sub.shape[0], format="csc") - sub.tocsc())
        except RuntimeError as exc:
            raise NonConvergence(f"singular diagonal block: {exc}") from exc
    sub, lu = lus[key]
    x = lu.solve(rhs)
    res = np.max(np.abs(x - sub @ x - rhs), initial=0.0)
    if not res <= RESIDUAL_TOL:  # also catches NaN
        raise NonConvergence(f"diagonal block residual {res:.3e}")
    return x


def solve_forward(J: JumpMatrix, F: np.ndarray) -> np.ndarray:
    """Solve (I - J^T) X = F by one scan in ascending time.

    F is a space-time vector or an (N*M, c) stack of them.  Each block is
    solved with the jumps from earlier blocks as inflow, against the LU of
    I - B^T built from the stored transposed block.
    """
    X = np.array(F, dtype=float)
    blocks = X.reshape(J.indexer.M, J.indexer.N, -1)
    free = np.ones(J.indexer.N, dtype=bool)
    lus = {}
    for l, inflow in J.scan_forward(blocks):
        blocks[l] = _solve_diagonal(lus, J.diagonal_t[l], free, blocks[l] + inflow)
    log.info("solve_forward: %d blocks solved against %d LU factorizations built",
             J.indexer.M, len(lus))
    return X


def solve_backward(J: JumpMatrix, b: np.ndarray, x: np.ndarray,
                   free: np.ndarray) -> np.ndarray:
    """Solve (I - J) x = b on the free cells by one scan in descending time.

    Cells outside the boolean mask free keep their values from x; returns
    a new array.
    """
    shape = (J.indexer.M, J.indexer.N)
    x = np.array(x, dtype=float)
    blocks, b, free = x.reshape(*shape, 1), np.reshape(b, (*shape, 1)), free.reshape(shape)
    lus = {}
    solved = 0
    for k, inflow in J.scan_backward(blocks):
        f = free[k]
        if f.any():
            rhs = b[k] + inflow
            if not f.all():
                rhs += J.diagonal[k] @ np.where(f[:, None], 0.0, blocks[k])
            blocks[k][f] = _solve_diagonal(lus, J.diagonal[k], f, rhs[f])
            solved += 1
    log.info("solve_backward: %d blocks solved against %d LU factorizations built",
             solved, len(lus))
    return x


def jump_activity(J: JumpMatrix, f: SpaceTimeVector) -> tuple[SpaceTimeVector, float]:
    """Sum of all iterated forward jumps of a density, a = sum_n (J^T)^n f.

    The series is summed exactly as (I - J^T) a = f.  Returns the activity
    and the residual ||(I - J^T) a - f||_inf.
    """
    a = solve_forward(J, f.values)
    residual = float(np.max(np.abs(a - apply_forward(J, a) - f.values), initial=0.0))
    return SpaceTimeVector(a, J.indexer), residual


def synchronize(J: JumpMatrix, a: SpaceTimeVector, l: int) -> np.ndarray:
    """Project a jump-activity density onto the right edge of time block l.

    Each cell (i, k) with k <= l is weighted by its probability of not
    jumping again before that edge.
    """
    if not 0 <= l < J.indexer.M:
        raise ValueError("invalid time block")
    n = J.indexer.N
    weighted = a.values * J.block_survival(l)
    return weighted[:(l + 1) * n].reshape(l + 1, n).sum(axis=0)


def reconstruct_propagator(J: JumpMatrix, fbar: np.ndarray, l: int) -> np.ndarray:
    """Evolve a spatial density from the first block to the edge of block l."""
    activity, _ = jump_activity(J, embed_spacelike(fbar, J.indexer, block=0))
    return synchronize(J, activity, l)


def koopman_solve(J: JumpMatrix, g: np.ndarray, l: int) -> SpaceTimeVector:
    """Pull a spatial observable at the edge of block l back through space-time.

    Blocks up to l satisfy K = (jumps into blocks <= l) K + (survival to the
    edge of l) * g, solved block by block from l downwards, so K is the
    exact adjoint of synchronize(., l) after the jump activity.  Blocks
    after l are zero-filled.
    """
    g = np.asarray(g, dtype=float)
    n, m = J.indexer.N, J.indexer.M
    if g.shape != (n,):
        raise ValueError("observable must have length N")
    if not 0 <= l < m:
        raise ValueError("invalid terminal block")
    free = np.arange(J.indexer.size) < (l + 1) * n
    K = solve_backward(J, J.block_survival(l) * np.tile(g, m), np.zeros(J.indexer.size), free)
    return SpaceTimeVector(K, J.indexer)
