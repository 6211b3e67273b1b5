"""Solvers on the factored jump operator.

The jump operator is block upper-triangular over time blocks, so every
solve here is one scan over the time cells: forward (I - J^T) X = F for
jump activity and the propagator, of one density or a stack of them, whose
worst block residual is the residual of the whole solve; backward
(I - J) x = b for Koopman and committor values, through one private entry.
The propagator of a stack of at least N densities, such as the identity,
is instead an ordered product of one-cell N x N transfer matrices, one per
run of cells sharing a diagonal block, raised to the run's length by
repeated squaring: one N-column solve per run instead of one per cell.
Each diagonal block is solved through one sparse LU of I - B^T, which the
jump operator keeps once built (JumpMatrix.lus), so on a uniform grid there
is one LU per protocol phase, shared by every solve on that operator:
forward solves use it as it is, backward solves through the transposed
triangular solve.  A committor block with cells in A or B is solved on the
same LU, bordered by those fixed cells: a few column solves per scan, with
refinement where the whole block is stiffer than its free part.  Only a
block with more than 32 fixed cells, or whose whole LU cannot serve, is
factored on its free cells, once per scan.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .galerkin import JumpMatrix, SpaceTimeIndexer

RESIDUAL_TOL = 1e-10
_BORDER_MAX = 32  # fixed cells up to which a masked block is bordered, not factored
_REFINE_STEPS = 2  # at most, per bordered block
_REFINE_ULPS = 4  # a bordered block refines while its residual exceeds this many ulps of x

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


def _factor(operand: sp.csr_matrix) -> spla.SuperLU:
    """Sparse LU of I - operand; a singular block raises NonConvergence."""
    try:
        return spla.splu(sp.eye(operand.shape[0], format="csc") - operand.tocsc())
    except RuntimeError as exc:
        raise NonConvergence(f"singular diagonal block: {exc}") from exc


def _checked(res: float) -> float:
    """A block residual, which must not exceed RESIDUAL_TOL."""
    if not res <= RESIDUAL_TOL:  # also catches NaN
        raise NonConvergence(f"diagonal block residual {res:.3e}")
    return res


@dataclass
class _Scan:
    """How one scan solved its blocks, for its INFO line: lus maps the id of
    each whole block it used to whether it factored it; masked maps (block
    id, free mask) to the _Border or the (LU, operand) of the free cells
    that solves such blocks."""

    lus: dict = field(default_factory=dict)
    masked: dict = field(default_factory=dict)
    borders: int = 0
    border_cells: int = 0
    factored: int = 0
    refinements: int = 0

    def block_lu(self, J: JumpMatrix, l: int) -> spla.SuperLU:
        """J's LU of I - B^T for block l, factored by the first solve that
        needs it; a failed factorization is stored nowhere."""
        key = id(J.diagonal[l])  # J holds its blocks, so their ids stay unique while J lives
        if key not in J.lus:
            J.lus[key] = _factor(J.diagonal_t[l])
            self.lus[key] = True
        self.lus.setdefault(key, False)
        return J.lus[key]

    def border(self, J: JumpMatrix, l: int, free: np.ndarray) -> _Border | None:
        """A border of block l's whole LU by the cells outside free, or None
        when there are more than _BORDER_MAX of them or the LU or W[c] is
        singular."""
        c = np.flatnonzero(~free)
        if c.size > _BORDER_MAX:
            return None
        try:
            border = _Border.build(self.block_lu(J, l), J.diagonal[l], c)
        except (NonConvergence, np.linalg.LinAlgError):
            return None
        self.borders, self.border_cells = self.borders + 1, self.border_cells + c.size
        return border

    def factor_free(self, J: JumpMatrix, l: int, free: np.ndarray) -> tuple:
        """An LU of block l on the cells of free, with the operand it factors."""
        operand = J.diagonal[l][free][:, free]
        self.factored += 1
        return _factor(operand), operand

    def log(self, name: str, solved: int, tail: str = "") -> None:
        built = sum(self.lus.values())
        line = (f"{name}: {solved} blocks solved against {built} LU factorizations built, "
                f"{len(self.lus) - built} reused")
        if name == "solve_backward":
            line += (f", {self.borders} borders of {self.border_cells} fixed cells, "
                     f"{self.factored} masked factorizations, {self.refinements} refinement steps")
        log.info(line + tail)


@dataclass(frozen=True)
class _Border:
    """A block's whole LU bordered by its fixed cells c.

    With W = (I - B)^-1 E_c, P = W W[c]^-1 is 1 on c, and y + P z leaves the
    free rows of (I - B) y as they are, so y + P (v - y[c]) takes the fixed
    values v on c: |c| column solves per scan instead of a factorization.
    """

    lu: spla.SuperLU
    B: sp.csr_matrix
    c: np.ndarray
    P: np.ndarray

    @classmethod
    def build(cls, lu: spla.SuperLU, B: sp.csr_matrix, c: np.ndarray) -> "_Border":
        E = np.zeros((B.shape[0], c.size))
        E[c, np.arange(c.size)] = 1.0
        W = lu.solve(E, trans="T")
        return cls(lu, B, c, np.linalg.solve(W[c].T, W.T).T)

    def _solve(self, rhs: np.ndarray, v) -> np.ndarray:
        y = self.lu.solve(rhs, trans="T")
        y += self.P @ (v - y[self.c])
        y[self.c] = v
        return y

    def solve(self, rhs: np.ndarray, v: np.ndarray, scan: _Scan) -> tuple[np.ndarray, float] | None:
        """Solve the free rows of (I - B) x = rhs with x = v on c to a
        residual of a few ulps of x (which bounds rhs there, B's rows
        summing below 1), refining up to _REFINE_STEPS times: a fixed cell
        can break a stiff cycle, so the whole block may be far worse
        conditioned than its free part.  Returns x and its residual, or
        None if the refinement falls short."""
        x = self._solve(rhs, v)
        ulps = _REFINE_ULPS * np.finfo(float).eps * np.abs(x).max()
        for step in range(_REFINE_STEPS + 1):
            r = x - self.B @ x - rhs
            r[self.c] = 0.0
            res = np.abs(r).max(initial=0.0)
            if res <= ulps:
                return x, res
            if step < _REFINE_STEPS:
                x -= self._solve(r, 0.0)
                scan.refinements += 1
        return None


def _solve_diagonal(J: JumpMatrix, l: int, rhs: np.ndarray, forward: bool, scan: _Scan,
                    free: np.ndarray | None = None,
                    x: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Solve diagonal block l of J, (I - B^T) x = rhs forward and
    (I - B) x = rhs backward, on all its cells (free None) or, backward, on
    the cells of the boolean mask free, x holding the other cells' fixed
    values.  Returns x and its residual |x - B x - rhs|_inf on the solved
    rows (B^T forward), which must not exceed RESIDUAL_TOL.

    Every block is solved on J.lus, the one LU of I - B^T that J keeps per
    block object: a forward solve uses it as it is, a backward one through
    the transposed triangular solve.  A masked block (the committor's A and
    B) is solved on that same LU through a _Border of its fixed cells, made
    once per scan.  Only a block with more than _BORDER_MAX fixed cells, or
    whose whole LU is singular or too ill-conditioned for the refined border
    to reach a few ulps, is factored on its free cells instead, once per
    scan and never stored.
    """
    if free is None:
        lu = scan.block_lu(J, l)
        if forward:
            x, operand = lu.solve(rhs), J.diagonal_t[l]
        else:
            x, operand = lu.solve(rhs, trans="T"), J.diagonal[l]
        return x, _checked(np.abs(x - operand @ x - rhs).max(initial=0.0))
    key = (id(J.diagonal[l]), free.tobytes())
    if key not in scan.masked:
        scan.masked[key] = scan.border(J, l, free) or scan.factor_free(J, l, free)
    solver = scan.masked[key]
    if isinstance(solver, _Border):
        solved = solver.solve(rhs, x[solver.c], scan)
        if solved is not None:
            return solved[0], _checked(solved[1])
        solver = scan.masked[key] = scan.factor_free(J, l, free)
    lu, operand = solver
    rhs = (rhs + J.diagonal[l] @ np.where(free[:, None], 0.0, x))[free]
    x = x.copy()
    x[free] = lu.solve(rhs)
    return x, _checked(np.abs(x[free] - operand @ x[free] - rhs).max(initial=0.0))


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
    scan, residual = _Scan(), 0.0
    for l, inflow in J.scan_forward(blocks):
        blocks[l], res = _solve_diagonal(J, l, blocks[l] + inflow, True, scan)
        residual = max(residual, res)
    scan.log("solve_forward", J.indexer.M)
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
    scan = _Scan()
    for k, inflow in J.scan_backward(blocks):
        f = free[k]
        if f.any():
            blocks[k] = _solve_diagonal(J, k, b[k] + inflow, False, scan,
                                        None if f.all() else f, blocks[k])[0]
    scan.log("solve_backward", int(free.any(axis=1).sum()))
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
    _check_block(J, l)
    return _synchronize(J, a.values, l)


def _check_block(J: JumpMatrix, l: int) -> None:
    if not 0 <= l < J.indexer.M:
        raise ValueError("invalid time block")


def _synchronize(J: JumpMatrix, a: np.ndarray, l: int) -> np.ndarray:
    """synchronize on an N*M vector a or on each column of an (N*M, c) stack."""
    n = J.indexer.N
    weighted = a.reshape(J.indexer.size, -1) * J.block_survival(l)[:, None]
    return weighted[:(l + 1) * n].reshape(l + 1, n, *a.shape[1:]).sum(axis=0)


def reconstruct_propagator(J: JumpMatrix, fbar: np.ndarray, l: int) -> np.ndarray:
    """Evolve a spatial density from the first block to the edge of block l.

    fbar is an (N,) density or an (N, c) stack of them, each starting
    uniformly in the first time cell; the result has fbar's shape.  For
    fbar the identity, column i is the propagator's row for state i.

    A density, or a stack of fewer than N, is scanned: its jump activity,
    synchronized.  A stack of N or more is multiplied by one N x N transfer
    matrix per run of cells that share a diagonal block, which costs less
    than c columns per cell; the two agree to the diagonal blocks'
    eps * cond, and on a stiff block either may raise NonConvergence where
    the other does not.
    """
    fbar = np.asarray(fbar, dtype=float)
    n = J.indexer.N
    if fbar.ndim not in (1, 2) or fbar.shape[0] != n:
        raise ValueError("spatial density must have N rows")
    _check_block(J, l)
    if fbar.ndim == 2 and fbar.shape[1] >= n:
        return _propagate_by_runs(J, fbar, l)
    F = np.zeros((J.indexer.size, *fbar.shape[1:]))
    F[:n] = fbar
    return _synchronize(J, solve_forward(J, F)[0], l)


def _propagate_by_runs(J: JumpMatrix, fbar: np.ndarray, l: int) -> np.ndarray:
    """reconstruct_propagator of an (N, c) stack as an ordered product of
    one-cell transfer matrices.

    The forward scan's carry_{k+1}, the jumps still in flight past the
    right edge of cell k, is diag(phi_0/dt_0) S_0 fbar for k = 0 and
    T_k carry_k after, with S_k = (I - B_k^T)^-1 and
    T_k = diag(d_k) + diag(phi_k/dt_k) S_k R_k^T diag(phi_k); carry_{l+1}
    is the synchronized activity.  Cells that share one diagonal block
    share phase and width, so one T: a run of n of them is T^n, by repeated
    squaring of a nonnegative matrix.  Each run costs one N-column solve on
    J's LU, with its block residual checked.
    """
    leave = J.phi / J.grid.widths
    scan = _Scan()
    carry, residual = _solve_diagonal(J, 0, fbar, True, scan)
    carry *= leave[:, 0, None]
    runs = squarings = 0
    for _, cells in itertools.groupby(range(1, l + 1), key=lambda k: id(J.diagonal[k])):
        k, n = next(cells), 1 + sum(1 for _ in cells)
        Y, res = _solve_diagonal(J, k, J.offdiag_t[k].toarray() * J.phi[:, k], True, scan)
        T = np.diag(J.decay[:, k]) + leave[:, k, None] * Y
        carry = np.linalg.matrix_power(T, n) @ carry
        runs, squarings, residual = runs + 1, squarings + n.bit_length() - 1, max(residual, res)
    scan.log("reconstruct_propagator", runs + 1,
             f"; {l + 1} cells as block 0 and {runs} runs of equal cells, "
             f"{squarings} squarings, worst block residual {residual:.1e}")
    return carry


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
