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
A solve sees a diagonal block only through the jump operator's record of
it (JumpMatrix.blocks), one per phase and width: B, its view B^T and one
LU of I - B^T, which the first solve that needs it factors and keeps
there, so on a uniform grid one LU per protocol phase serves every solve
on that operator, in both directions, each with its residual check.  One
size rule, galerkin._DENSE_MAX states, picks the kernels: below it dense
blocks, LAPACK getrf/getrs and BLAS mat-vecs; above it CSR and SuperLU.
Kernels take the stack they are given; a propagator of fewer than N
densities scans each alone, so each column gets the bits it gets alone.
A committor block with cells in A or B is solved on the same LU,
bordered by those fixed cells and refined where the whole block is
stiffer than its free part; only a block with more than 32 fixed cells,
or whose LU cannot serve, is factored on its free cells, once per scan,
by the same kind of LU.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .galerkin import JumpMatrix, SpaceTimeIndexer, _Factors

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


def embed_spacelike(fbar: np.ndarray, indexer: SpaceTimeIndexer) -> SpaceTimeVector:
    """Put a spatial vector into the first time block of a space-time vector."""
    fbar = np.asarray(fbar, dtype=float)
    if fbar.shape != (indexer.N,):
        raise ValueError("spatial vector must have length N")
    values = np.zeros(indexer.size)
    values[:indexer.N] = fbar
    return SpaceTimeVector(values, indexer)


def _factor(operand):
    """The LU of I - operand, as a solver (rhs, trans) -> x of (I - operand) x
    = rhs, or with trans of (I - operand^T) x = rhs; a singular block raises
    NonConvergence.

    A dense operand is factored by LAPACK getrf and solved by getrs; a
    sparse one by SuperLU on the minimum-degree ordering of A^T + A.
    """
    n = operand.shape[0]
    if isinstance(operand, np.ndarray):
        lu, piv, info = lapack.dgetrf(np.eye(n) - operand)
        if info > 0:
            raise NonConvergence(f"singular diagonal block: pivot {info} is exactly zero")
        return lambda rhs, trans: lapack.dgetrs(lu, piv, rhs, trans=int(trans))[0]
    try:
        lu = spla.splu(sp.eye(n, format="csc") - operand.tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise NonConvergence(f"singular diagonal block: {exc}") from exc
    return lambda rhs, trans: lu.solve(rhs, trans="T" if trans else "N")


def _checked(res: float) -> float:
    """A block residual, which must not exceed RESIDUAL_TOL."""
    if not res <= RESIDUAL_TOL:  # also catches NaN
        raise NonConvergence(f"diagonal block residual {res:.3e}")
    return res


@dataclass
class _Scan:
    """How one scan solved its blocks, for its INFO line: used maps each
    block record whose whole LU it used to whether it factored it; masked
    maps (record, free mask) to the masked solver it made for them."""

    used: dict = field(default_factory=dict)
    masked: dict = field(default_factory=dict)
    borders: int = 0
    border_cells: int = 0
    factored: int = 0
    refinements: int = 0

    def log(self, name: str, solved: int, tail: str = "") -> None:
        built = sum(self.used.values())
        log.info(f"{name}: {solved} blocks solved against {built} LU factorizations built, "
                 f"{len(self.used) - built} reused{tail}")


def _lu(block: _Factors, scan: _Scan):
    """The solver of the record's I - B^T (see _factor), factored on first
    use; a failed factorization is kept nowhere."""
    if block.lu is None:
        block.lu = _factor(block.B.T)
        scan.used[block] = True
    scan.used.setdefault(block, False)
    return block.lu


def _solve(block: _Factors, rhs: np.ndarray, forward: bool,
           scan: _Scan) -> tuple[np.ndarray, float]:
    """Solve a whole diagonal block, (I - B^T) x = rhs forward and (I - B) x
    = rhs backward, both on the LU of I - B^T: x and its residual
    |x - B x - rhs|_inf (B^T forward), which must not exceed RESIDUAL_TOL."""
    x = _lu(block, scan)(rhs, not forward)
    operand = block.B.T if forward else block.B
    return x, _checked(np.abs(x - operand @ x - rhs).max(initial=0.0))


def _solve_masked(block: _Factors, rhs: np.ndarray, x: np.ndarray, free: np.ndarray,
                  scan: _Scan) -> tuple[np.ndarray, float]:
    """Solve (I - B) x = rhs on the cells of the boolean mask free, x
    holding the other cells' fixed values: a new x and its residual on
    the free rows, which must not exceed RESIDUAL_TOL.  The solver, made
    once per scan, is the bordered LU or, where that cannot serve, an LU
    of the free cells."""
    key = (block, free.tobytes())
    solver = (scan.masked.get(key) or _bordered(block, free, scan)
              or _free_cells(block, free, scan))
    solved = solver(rhs, x)
    if solved is None:  # the border's refinement fell short
        solver = _free_cells(block, free, scan)
        solved = solver(rhs, x)
    scan.masked[key] = solver
    return solved[0], _checked(solved[1])


def _bordered(block: _Factors, free: np.ndarray, scan: _Scan):
    """A masked solver on the block's LU bordered by the cells c outside
    free, or None when there are more than _BORDER_MAX of them or the LU
    or W[c] is singular.

    With W = (I - B)^-1 E_c, P = W W[c]^-1 is 1 on c, and y + P z leaves
    the free rows of (I - B) y as they are, so y + P (v - y[c]) takes the
    fixed values v on c: |c| column solves instead of a factorization.
    A fixed cell can break a stiff cycle, so the whole block may be far
    worse conditioned than its free part: the solver refines up to
    _REFINE_STEPS times to a residual of a few ulps of x (which bounds
    rhs there, B's rows summing below 1), else returns None.
    """
    c = np.flatnonzero(~free)
    if c.size > _BORDER_MAX:
        return None
    try:
        lu = _lu(block, scan)
        E = np.zeros((block.B.shape[0], c.size))
        E[c, np.arange(c.size)] = 1.0
        W = np.column_stack([lu(e, True) for e in E.T])  # each column's bits alone
        P = np.linalg.solve(W[c].T, W.T).T
    except (NonConvergence, np.linalg.LinAlgError):
        return None
    scan.borders, scan.border_cells = scan.borders + 1, scan.border_cells + c.size

    def bordered(rhs, v):
        y = lu(rhs, True)
        y += P @ (v - y[c])
        y[c] = v
        return y

    def solve(rhs, x):
        x = bordered(rhs, x[c])
        ulps = _REFINE_ULPS * np.finfo(float).eps * np.abs(x).max()
        for step in range(_REFINE_STEPS + 1):
            r = x - block.B @ x - rhs
            r[c] = 0.0
            res = np.abs(r).max(initial=0.0)
            if res <= ulps:
                return x, res
            if step < _REFINE_STEPS:
                x -= bordered(r, 0.0)
                scan.refinements += 1
        return None
    return solve


def _free_cells(block: _Factors, free: np.ndarray, scan: _Scan):
    """A masked solver on an LU of the block's free cells."""
    operand = block.B[free][:, free]
    scan.factored += 1
    lu = _factor(operand)

    def solve(rhs, x):
        rhs = (rhs + block.B @ np.where(free[:, None], 0.0, x))[free]
        x = x.copy()
        x[free] = lu(rhs, False)
        return x, np.abs(x[free] - operand @ x[free] - rhs).max(initial=0.0)
    return solve


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
        blocks[l], res = _solve(J.blocks[J.block_of[l]], blocks[l] + inflow, True, scan)
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
        f, block = free[k], J.blocks[J.block_of[k]]
        if f.all():
            blocks[k] = _solve(block, b[k] + inflow, False, scan)[0]
        elif f.any():
            blocks[k] = _solve_masked(block, b[k] + inflow, blocks[k], f, scan)[0]
    scan.log("solve_backward", int(free.any(axis=1).sum()),
             f", {scan.borders} borders of {scan.border_cells} fixed cells, "
             f"{scan.factored} masked factorizations, {scan.refinements} refinement steps")
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

    A density is scanned: its jump activity, synchronized; a stack of fewer
    than N is scanned one column at a time, so each column gets the bits
    it gets alone.  A stack of N or more is multiplied by one N x N transfer
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
    if fbar.ndim == 2:
        out = np.empty_like(fbar)
        for j in range(fbar.shape[1]):
            out[:, j] = reconstruct_propagator(J, fbar[:, j], l)
        return out
    F = np.zeros(J.indexer.size)
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
    carry, residual = _solve(J.blocks[J.block_of[0]], fbar, True, scan)
    carry *= leave[:, 0, None]
    runs = squarings = 0
    for b, cells in itertools.groupby(range(1, l + 1), key=J.block_of.__getitem__):
        k, n = next(cells), 1 + sum(1 for _ in cells)
        Y, res = _solve(J.blocks[b], J.offdiag[k].T.toarray() * J.phi[:, k], True, scan)
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
    n = J.indexer.N
    if g.shape != (n,):
        raise ValueError("observable must have length N")
    _check_block(J, l)
    free = np.arange(J.indexer.size) < (l + 1) * n
    return SpaceTimeVector(_solve_backward(J, l, g, np.zeros(J.indexer.size), free), J.indexer)
