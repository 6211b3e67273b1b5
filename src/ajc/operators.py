"""Solvers on the factored jump operator.

The jump operator is block upper-triangular over time blocks, so every
solve here is one scan over the time cells: forward (I - J^T) X = F for
jump activity and the propagator, of one density or a stack of them, whose
worst block residual is the residual of the whole solve; backward
(I - J) x = b for Koopman and committor values, through one private entry.
Each diagonal block is solved through one sparse LU of I - B^T, which the
jump operator keeps once built (JumpMatrix.lus), so on a uniform grid there
is one LU per protocol phase, shared by every solve on that operator:
forward solves use it as it is, backward solves through the transposed
triangular solve.  Only a committor block with cells in A or B is factored
on its free cells, once per solve.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .galerkin import JumpMatrix, SpaceTimeIndexer

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


def _solve_diagonal(J: JumpMatrix, l: int, free: np.ndarray | None, rhs: np.ndarray,
                    forward: bool, used: dict) -> tuple[np.ndarray, float]:
    """Solve diagonal block l of J, (I - B^T) x = rhs forward and
    (I - B) x = rhs backward, on all its cells (free None) or on the cells
    of the boolean mask free.  Returns x and its residual |x - B x - rhs|_inf
    (B^T forward).

    A whole block is solved through J.lus, the one LU of I - B^T that J
    keeps per block object: a forward solve uses it as it is, a backward
    one through the transposed triangular solve, and the residual is
    checked against the stored block of that direction.  A masked block
    (the committor's A and B) is factored as I - B on its free cells and
    kept only in used, the scan's record of its blocks: key -> (LU, the
    block it factors, built by this scan).  A failed factorization is
    stored nowhere.
    """
    B = J.diagonal[l]
    # J holds its blocks, so their ids stay unique while J lives
    key = id(B) if free is None else (id(B), free.tobytes())
    if key not in used:
        operand = J.diagonal_t[l] if free is None else B[free][:, free]
        lu = J.lus.get(key)
        built = lu is None
        if built:
            try:
                lu = spla.splu(sp.eye(operand.shape[0], format="csc") - operand.tocsc())
            except RuntimeError as exc:
                raise NonConvergence(f"singular diagonal block: {exc}") from exc
            if free is None:
                J.lus[key] = lu
        used[key] = lu, operand, built
    lu, operand, _ = used[key]
    if free is None and not forward:
        x, operand = lu.solve(rhs, trans="T"), B
    else:
        x = lu.solve(rhs)
    res = np.max(np.abs(x - operand @ x - rhs), initial=0.0)
    if not res <= RESIDUAL_TOL:  # also catches NaN
        raise NonConvergence(f"diagonal block residual {res:.3e}")
    return x, res


def _log_solve(name: str, solved: int, used: dict) -> None:
    built = sum(b for _, _, b in used.values())
    log.info("%s: %d blocks solved against %d LU factorizations built, %d reused",
             name, solved, built, len(used) - built)


def solve_forward(J: JumpMatrix, F: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve (I - J^T) X = F by one scan in ascending time.

    F is a space-time vector or an (N*M, c) stack of them.  Each block is
    solved with the jumps from earlier blocks as inflow, against J's LU of
    I - B^T.  Returns X and its worst block residual, which is the residual
    ||(I - J^T) X - F||_inf: each block's inflow is the one J^T sends it
    from the solved blocks.
    """
    X = np.array(F, dtype=float)
    blocks = X.reshape(J.indexer.M, J.indexer.N, -1)
    used, residual = {}, 0.0
    for l, inflow in J.scan_forward(blocks):
        blocks[l], res = _solve_diagonal(J, l, None, blocks[l] + inflow, True, used)
        residual = max(residual, res)
    _log_solve("solve_forward", J.indexer.M, used)
    return X, float(residual)


def _solve_backward(J: JumpMatrix, l: int, terminal: np.ndarray, fixed: np.ndarray,
                    free: np.ndarray) -> np.ndarray:
    """Solve (I - J) x = (survival to the edge of block l) * terminal on the
    cells of the boolean mask free, by one scan in descending time.

    terminal is a spatial vector, the same in every block; cells outside
    free keep their values from fixed.  Returns a new array.
    """
    shape = (J.indexer.M, J.indexer.N)
    b = J.block_survival(l) * np.tile(terminal, J.indexer.M)
    x = np.array(fixed, dtype=float)
    blocks, b, free = x.reshape(*shape, 1), b.reshape(*shape, 1), free.reshape(shape)
    used = {}
    for k, inflow in J.scan_backward(blocks):
        f = free[k]
        if f.all():
            blocks[k] = _solve_diagonal(J, k, None, b[k] + inflow, False, used)[0]
        elif f.any():
            rhs = b[k] + inflow + J.diagonal[k] @ np.where(f[:, None], 0.0, blocks[k])
            blocks[k][f] = _solve_diagonal(J, k, f, rhs[f], False, used)[0]
    _log_solve("solve_backward", int(free.any(axis=1).sum()), used)
    return x


def jump_activity(J: JumpMatrix, f: SpaceTimeVector) -> tuple[SpaceTimeVector, float]:
    """Sum of all iterated forward jumps of a density, a = sum_n (J^T)^n f.

    The series is summed exactly as (I - J^T) a = f.  Returns the activity
    and the residual ||(I - J^T) a - f||_inf of that solve.
    """
    a, residual = solve_forward(J, f.values)
    return SpaceTimeVector(a, J.indexer), residual


def synchronize(J: JumpMatrix, a: SpaceTimeVector, l: int) -> np.ndarray:
    """Project a jump-activity density onto the right edge of time block l.

    Each cell (i, k) with k <= l is weighted by its probability of not
    jumping again before that edge.
    """
    return _synchronize(J, a.values, l)


def _synchronize(J: JumpMatrix, a: np.ndarray, l: int) -> np.ndarray:
    """synchronize on an N*M vector a or on each column of an (N*M, c) stack."""
    if not 0 <= l < J.indexer.M:
        raise ValueError("invalid time block")
    n = J.indexer.N
    weighted = a.reshape(J.indexer.size, -1) * J.block_survival(l)[:, None]
    return weighted[:(l + 1) * n].reshape(l + 1, n, *a.shape[1:]).sum(axis=0)


def reconstruct_propagator(J: JumpMatrix, fbar: np.ndarray, l: int) -> np.ndarray:
    """Evolve a spatial density from the first block to the edge of block l.

    fbar is an (N,) density or an (N, c) stack of them, each starting
    uniformly in the first time cell; the result has fbar's shape.  For
    fbar the identity, column i is the propagator's row for state i.
    """
    fbar = np.asarray(fbar, dtype=float)
    n = J.indexer.N
    if fbar.ndim not in (1, 2) or fbar.shape[0] != n:
        raise ValueError("spatial density must have N rows")
    F = np.zeros((J.indexer.size, *fbar.shape[1:]))
    F[:n] = fbar
    return _synchronize(J, solve_forward(J, F)[0], l)


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
    return SpaceTimeVector(_solve_backward(J, l, g, np.zeros(J.indexer.size), free), J.indexer)
