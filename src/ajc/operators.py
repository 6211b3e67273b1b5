"""Solvers on the factored jump operator.

The jump operator is block upper-triangular over time blocks, so every
solve here is one scan over the time cells by one routine, _scan: forward
(I - J^T) X = F over all M blocks for jump activity, and over blocks 0..l
for the propagator to the edge of block l, of one density or a stack of
them, whose worst block residual is the residual of the whole solve;
backward (I - J) x = b over blocks l..0 for Koopman and committor values
at the edge of block l.  Blocks after l change neither solve.
The propagator of a stack of at least N densities, such as the identity,
is instead an ordered product of one-cell N x N transfer matrices, one per
run of cells sharing a diagonal block, raised to the run's length by
repeated squaring: one N-column solve per run instead of one per cell.
A solve sees a diagonal block only through the jump operator's record of
it (JumpMatrix.blocks, per cell JumpMatrix.cells), one per phase and
width: B, its view B^T, its closed-form columns and one LU of I - B^T,
which the first solve that needs it factors and keeps there, so on a
uniform grid one LU per protocol phase serves every solve on that
operator, in both directions.  One size rule, galerkin._DENSE_MAX states,
picks the kernels: below it dense blocks, LAPACK getrf/getrs and BLAS
mat-vecs; above it CSR and SuperLU.
scipy.linalg's LAPACK loads on the first dense factorization, and
scipy.sparse with scipy.sparse.linalg's SuperLU on the first sparse one,
so a process that solves nothing, or only dense blocks, never imports
scipy.sparse.
Kernels take the stack they are given, so a propagator of fewer than N
densities is one scan of that stack.  A committor block with cells in A
or B is solved on the same LU, bordered by those fixed cells; a block
with more than 32 fixed cells, or whose LU or border cannot serve, is
factored on its free cells, once per scan, by the same kind of LU.  The
masked blocks that share a record and a free mask are one group with one
solver, and are checked after the scan in one product, as whole blocks
are; where a border falls short, the scan runs again with that whole
group on its free cells.
"""

from __future__ import annotations

import itertools
import logging
import numbers
from dataclasses import dataclass, field

import numpy as np

from .galerkin import JumpMatrix, SpaceTimeIndexer, _Factors

RESIDUAL_TOL = 1e-10
_BORDER_MAX = 32  # fixed cells up to which a masked block is bordered, not factored
_BORDER_EPS = 4 * np.finfo(float).eps  # a bordered solve's free-row residual, in units of max|y|

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
    sparse one by SuperLU on the minimum-degree ordering of A^T + A, with
    supernode relaxation 1 and panel size 1: on these lattice blocks that
    factors faster than SuperLU's defaults, with the same ordering and
    the same fill.
    """
    n = operand.shape[0]
    if isinstance(operand, np.ndarray):
        from scipy.linalg import lapack
        lu, piv, info = lapack.dgetrf(np.eye(n) - operand)
        if info > 0:
            raise NonConvergence(f"singular diagonal block: pivot {info} is exactly zero")
        return lambda rhs, trans: lapack.dgetrs(lu, piv, rhs, trans=int(trans))[0]
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    try:
        lu = spla.splu(sp.eye(n, format="csc") - operand.tocsc(), permc_spec="MMD_AT_PLUS_A",
                       relax=1, panel_size=1)
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
    block record whose whole LU it used to whether it factored it."""

    used: dict = field(default_factory=dict)

    def log(self, name: str, solved: int, tail: str = "", *args) -> None:
        """The INFO line, tail a %-format of args: formatted only when INFO is on."""
        built = sum(self.used.values())
        log.info("%s: %d blocks solved against %d LU factorizations built, %d reused" + tail,
                 name, solved, built, len(self.used) - built, *args)


def _lu(block: _Factors, scan: _Scan):
    """The solver of the record's I - B^T (see _factor), factored on first
    use; a failed factorization is kept nowhere."""
    if block.lu is None:
        block.lu = _factor(block.B.T)
        scan.used[block] = True
    scan.used.setdefault(block, False)
    return block.lu


def _residual(block: _Factors, x: np.ndarray, rhs: np.ndarray, forward: bool) -> float:
    """|x - B x - rhs|_inf (B^T forward) over the columns of the (N, c) x,
    which must not exceed RESIDUAL_TOL."""
    operand = block.B.T if forward else block.B
    return _checked(np.abs(x - operand @ x - rhs).max(initial=0.0))


def _each(operand, Y: np.ndarray) -> np.ndarray:
    """operand @ Y[i] for each (n, 1) block of the (k, n, 1) stack Y, each
    with the bits of its own product: numpy's stacked matmul makes one gemv
    per block of a dense operand, and a CSR's product with the blocks side
    by side gives each column the bits of its own mat-vec."""
    if isinstance(operand, np.ndarray):
        return operand @ Y
    return (operand @ Y[..., 0].T).T[..., None]


def _bordered(block: _Factors, free: np.ndarray, scan: _Scan):
    """A masked solver (rhs, x) -> y on the block's LU bordered by the
    cells c outside free, or None when there are more than _BORDER_MAX of
    them or the LU or W[c] is singular.

    With W = (I - B)^-1 E_c, P = W W[c]^-1 is 1 on c, and y + P z leaves
    the free rows of (I - B) y as they are, so y + P (v - y[c]) takes the
    fixed values v on c: |c| column solves instead of a factorization.
    P is W times the inverse of the |c| x |c| W[c], not a solve with N
    right-hand sides.  The solver does not check y: _Group does.
    """
    c = np.flatnonzero(~free)
    if c.size > _BORDER_MAX:
        return None
    try:
        lu = _lu(block, scan)
        E = np.zeros((block.B.shape[0], c.size))
        E[c, np.arange(c.size)] = 1.0
        W = np.column_stack([lu(e, True) for e in E.T])  # each column's bits alone
        P = W @ np.linalg.inv(W[c])
    except (NonConvergence, np.linalg.LinAlgError):
        return None

    def solve(rhs, x):
        y, v = lu(rhs, True), x[c]
        y += P @ (v - y[c])
        y[c] = v
        return y
    return solve


def _free_cells(block: _Factors, free: np.ndarray):
    """A masked solver (rhs, x) -> x on an LU of the block's free cells, B's
    rows and columns there, with rhs taking in B x from the other cells."""
    lu = _factor(block.B[free][:, free])

    def solve(rhs, x):
        x = x.copy()
        x[free] = lu((rhs + block.B @ np.where(free[:, None], 0.0, x))[free], False)
        return x
    return solve


@dataclass(eq=False)
class _Group:
    """The masked blocks of one backward scan that share a record and a
    free mask, and the one solver of them all.

    The solver is the border the group's first block makes (see
    _bordered), or an LU of the free cells when there is none.  No block
    is checked as it is solved: failure() checks the blocks of a pass in
    one product, and a scan that finds the border short of its bound at
    any block moves the whole group to its free cells and scans again.
    ks holds the group's blocks in the order the last pass solved them."""

    block: _Factors
    free: np.ndarray
    solver: object = None
    bordered: bool = False
    ks: list = field(default_factory=list)

    def solve(self, k: int, rhs: np.ndarray, x: np.ndarray, scan: _Scan) -> np.ndarray:
        if self.solver is None:
            border = _bordered(self.block, self.free, scan)
            self.solver = border or _free_cells(self.block, self.free)
            self.bordered = border is not None
        self.ks.append(k)
        return self.solver(rhs, x)

    def failure(self, X: np.ndarray, rhs: np.ndarray):
        """The group's first block, in scan order, whose check fails, as
        (k, its free-row residual, whether the border fell short), or None.

        Each block's residual is that of y - B y = rhs on its free rows.  A
        bordered block fails where it exceeds _BORDER_EPS * max|y|, which
        bounds rhs there, B's rows summing below 1; a fixed cell can break a
        stiff cycle, so the whole block may be far worse conditioned than
        its free part.  Any block fails where its residual is not within
        RESIDUAL_TOL, NaN included.
        """
        ks = np.array(self.ks)
        Y = X[ks]
        r = Y - _each(self.block.B, Y) - rhs[ks]
        r[:, ~self.free] = 0.0
        res = np.abs(r).max(axis=(1, 2), initial=0.0)
        short = res > (_BORDER_EPS * np.abs(Y).max(axis=(1, 2)) if self.bordered else np.inf)
        failed = np.flatnonzero(short | ~(res <= RESIDUAL_TOL))
        if failed.size:
            j = int(failed[0])
            return int(ks[j]), float(res[j]), bool(short[j])
        return None


def _groups(J: JumpMatrix, free: np.ndarray) -> list:
    """Per block of the (k, N) mask free, its _Group if it has both fixed
    and free cells, else None; blocks of one record and one mask share one."""
    masked = np.flatnonzero(free.any(axis=1) & ~free.all(axis=1))
    group = [None] * len(free)
    if masked.size:
        # one id per distinct mask; np.unique(rows, axis=0) gives the same
        # ids, but sorts the rows as records of N fields, about 60x slower
        rows = np.ascontiguousarray(free[masked])
        ids = np.unique(rows.view(np.dtype((np.void, rows.shape[1]))), return_inverse=True)[1]
        made = {}
        for k, i in zip(masked.tolist(), ids.ravel().tolist()):
            key = (J.cells[k], i)
            if key not in made:
                made[key] = _Group(J.cells[k], free[k])
            group[k] = made[key]
    return group


def _scan(J: JumpMatrix, X: np.ndarray, rhs: np.ndarray, free: np.ndarray,
          forward: bool) -> float:
    """Solve the (k, N, c) blocks X, time blocks 0..k-1, of (I - J^T) X = rhs
    in ascending time, or of (I - J) X = rhs in descending time, on the
    cells of the boolean (k, N) mask free, or on the blocks of a (k, 1)
    one; X holds the other cells' values.

    rhs takes in each block's inflow from the blocks solved before it.  A
    block whose cells are all free is solved on its record's LU, and each
    record's such blocks are checked against RESIDUAL_TOL in one product
    after the scan; one with no free cell is skipped.  A backward scan
    solves a block with fixed and free cells by its _Group, and checks each
    group in one product after the scan; where a border fell short, it
    scans again from the held rhs with that whole group on its free cells,
    until no border does.  A pass runs on after a short border, on values
    the next pass replaces, which may overflow; so the scan silences
    numpy's overflow and invalid-value warnings, and an overflow in a pass
    that stands ends in a refusal by the checks.  Returns the worst
    whole-block residual.
    """
    whole = free.all(axis=1)
    solve, group = whole.tolist(), _groups(J, free)
    groups = list(dict.fromkeys(g for g in group if g is not None))
    held = rhs.copy() if groups else None
    scan = _Scan()
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            for g in groups:
                g.ks.clear()
            for k, inflow in (J.scan_forward if forward else J.scan_backward)(X):
                rhs[k] += inflow
                if solve[k]:
                    X[k] = _lu(J.cells[k], scan)(rhs[k], not forward)
                elif group[k] is not None:
                    X[k] = group[k].solve(k, rhs[k], X[k], scan)
            # the first failure in the descending scan; the later ones may follow from it
            failed = max(filter(None, (g.failure(X, rhs) for g in groups)),
                         key=lambda f: f[0], default=None)
            if failed is None:
                break
            k, res, short = failed
            if not short:
                _checked(res)
            g = group[k]
            g.solver, g.bordered = _free_cells(g.block, g.free), False
            rhs[...] = held
    n, worst, block_of = J.indexer.N, 0.0, J.block_of[:len(X)]
    for b, block in enumerate(J.blocks):
        cells = np.flatnonzero(whole & (block_of == b))
        if cells.size:
            # the record's cells side by side, as the columns of one (N, c) stack
            x, r = (A[cells].transpose(1, 0, 2).reshape(n, -1) for A in (X, rhs))
            worst = max(worst, _residual(block, x, r, forward))
    if forward:
        scan.log("solve_forward", len(X))
    else:
        borders = [g for g in groups if g.bordered]
        scan.log("solve_backward", int(free.any(axis=1).sum()), ", %d borders of %d fixed "
                 "cells, %d masked factorizations", len(borders),
                 sum(int((~g.free).sum()) for g in borders), len(groups) - len(borders))
    return worst


def solve_forward(J: JumpMatrix, F: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve (I - J^T) X = F on the time blocks 0..k-1 that F holds, by one
    scan in ascending time.

    F is the first k*N entries of a space-time vector, or a (k*N, c) stack
    of them, 1 <= k <= M; the later blocks send no jumps into these.
    Returns X and its worst block residual, which is the residual
    ||(I - J^T) X - F||_inf: each block's inflow is the one J^T sends it
    from the solved blocks.
    """
    rhs = np.array(F, dtype=float)
    X = np.empty_like(rhs)
    m, n = len(rhs) // J.indexer.N, J.indexer.N
    return X, float(_scan(J, X.reshape(m, n, -1), rhs.reshape(m, n, -1),
                          np.ones((m, 1), dtype=bool), True))


def _solve_backward(J: JumpMatrix, l: int, terminal: np.ndarray, fixed: np.ndarray,
                    free: np.ndarray) -> np.ndarray:
    """Solve (I - J) x = (survival to the edge of block l) * terminal on the
    cells of the boolean mask free, by one scan of blocks l..0.

    terminal is a spatial vector, the same in every block; cells outside
    free, and every cell of the blocks after l, keep their values from
    fixed.  Returns a new array.
    """
    size = (l + 1) * J.indexer.N
    shape = (l + 1, J.indexer.N)
    x = np.array(fixed, dtype=float)
    rhs = (J.block_survival(l)[:size].reshape(shape) * terminal)[..., None]
    _scan(J, x[:size].reshape(*shape, 1), rhs, free[:size].reshape(shape), False)
    return x


def jump_activity(J: JumpMatrix, f: SpaceTimeVector) -> tuple[SpaceTimeVector, float]:
    """Sum of all iterated forward jumps of a density, a = sum_n (J^T)^n f.

    The series is summed exactly as (I - J^T) a = f.  Returns the activity
    and the residual ||(I - J^T) a - f||_inf of that solve.
    """
    _check_indexer(J, f)
    a, residual = solve_forward(J, f.values)
    return SpaceTimeVector(a, J.indexer), residual


def synchronize(J: JumpMatrix, a: SpaceTimeVector, l: int) -> np.ndarray:
    """Project a jump-activity density onto the right edge of time block l.

    Each cell (i, k) with k <= l is weighted by its probability of not
    jumping again before that edge.
    """
    _check_indexer(J, a)
    _check_block(J, l)
    return _synchronize(J, a.values, l)


def _check_indexer(J: JumpMatrix, v: SpaceTimeVector) -> None:
    if v.indexer != J.indexer:
        raise ValueError(f"space-time vector over (N, M) = ({v.indexer.N}, {v.indexer.M}), "
                         f"jump operator over ({J.indexer.N}, {J.indexer.M})")


def _check_block(J: JumpMatrix, l) -> None:
    if isinstance(l, bool) or not isinstance(l, numbers.Integral) or not 0 <= l < J.indexer.M:
        raise ValueError(f"invalid time block {l!r}: need an integer in [0, {J.indexer.M})")


def _synchronize(J: JumpMatrix, a: np.ndarray, l: int) -> np.ndarray:
    """synchronize on a space-time vector a, or on each column of a stack,
    holding at least the blocks 0..l; later blocks are not read."""
    n, size = J.indexer.N, (l + 1) * J.indexer.N
    weighted = a[:size].reshape(size, -1) * J.block_survival(l)[:size, None]
    return weighted.reshape(l + 1, n, *a.shape[1:]).sum(axis=0)


def reconstruct_propagator(J: JumpMatrix, fbar: np.ndarray, l: int) -> np.ndarray:
    """Evolve a spatial density from the first block to the edge of block l.

    fbar is an (N,) density or an (N, c) stack of them, each starting
    uniformly in the first time cell; the result has fbar's shape.  For
    fbar the identity, column i is the propagator's row for state i.

    A density, or a stack of fewer than N, is scanned: its jump activity
    on blocks 0..l, synchronized.  A stack of N or more is multiplied by
    one N x N transfer matrix per run of cells that share a diagonal block,
    which costs less than c columns per cell; the two agree to the
    diagonal blocks' eps * cond, and on a stiff block either may raise
    NonConvergence where the other does not.
    """
    fbar = np.asarray(fbar, dtype=float)
    n = J.indexer.N
    if fbar.ndim not in (1, 2) or fbar.shape[0] != n:
        raise ValueError("spatial density must have N rows")
    _check_block(J, l)
    if fbar.ndim == 2 and fbar.shape[1] >= n:
        return _propagate_by_runs(J, fbar, l)
    F = np.zeros(((l + 1) * n, *fbar.shape[1:]))
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
    scan, f = _Scan(), J.cells[0]
    carry = _lu(f, scan)(fbar, False)
    residual = _residual(f, carry, fbar, True)
    carry *= f.leave
    runs = squarings = 0
    for f, cells in itertools.groupby(range(1, l + 1), key=J.cells.__getitem__):
        k, n = next(cells), 1 + sum(1 for _ in cells)
        rhs = J.offdiag[k].toarray().T * f.phi.T
        Y = _lu(f, scan)(rhs, False)
        residual = max(residual, _residual(f, Y, rhs, True))
        T = np.diag(f.decay[:, 0]) + f.leave * Y
        carry = np.linalg.matrix_power(T, n) @ carry
        runs, squarings = runs + 1, squarings + n.bit_length() - 1
    scan.log("reconstruct_propagator", runs + 1, "; %d cells as block 0 and %d runs of equal "
             "cells, %d squarings, worst block residual %.1e", l + 1, runs, squarings, residual)
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
