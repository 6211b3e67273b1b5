"""Solvers on the factored jump operator.

The jump operator is block upper-triangular over time blocks, so every
solve here is one scan over the time cells by one routine, _scan: forward
(I - J^T) X = F over blocks 0..k-1 for jump activity and the propagator
to the edge of block l, of one density or a stack of them, whose worst
block residual is the residual of the whole solve; backward (I - J) x = b
over blocks l..0 for Koopman and committor values at the edge of block l.
Blocks after l change neither solve.
The scan goes one run at a time, a run being consecutive cells that share
a diagonal block record and a solver.  Within a run the scan is a linear
recurrence with constant coefficients: a block is Y + G carry, with Y the
solve of its own right-hand side and carry the jumps in flight into it,
and the carry past it is T carry plus the jumps of Y, T the one-cell N x N
transfer matrix.  A run long enough for the cost rule _by_transfer solves
all its right-hand sides and G in two multi-column solves and carries by
small products (the transfer route); a shorter one solves cell by cell.
The propagator of a stack of at least N densities, such as the identity,
needs only the last carry, the synchronized activity, so past block 0 its
scan raises each run's T to the run's length by repeated squaring.
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
A committor block with cells in A or B is factored on its free cells,
once per scan, by the same kind of LU, or, on a sparse record with at most
32 of them, solved on the record's SuperLU bordered by them.  The blocks
that share a record and a free mask are one group with one solver, the
record's LU where every cell is free, and one check after the scan; where
a border falls short, the scan runs again with that whole group on its
free cells.  A block with no free cell is not solved; its right-hand side
takes J X, so apply_adjoint, J g, is the backward scan with no free cell.
"""

from __future__ import annotations

import logging
import numbers
from dataclasses import dataclass, field

import numpy as np

from .galerkin import JumpMatrix, SpaceTimeIndexer, _Factors

# Each solved block's residual r is held to a bound that no scaling of its
# right-hand side changes.  Backward, |r| <= RESIDUAL_TOL ||I - B||_inf |y|,
# all norms max norms: r over ||I - B|| |y| is the block's normwise backward
# error with I - B perturbed (Rigal & Gaches 1967; Higham, Accuracy and
# Stability of Numerical Algorithms, 7.1); valid solves measured at most
# 6.2 eps over the test suite, which holds the benchmark's protocols.
# Forward, the block's error from its solve is at most ||(I - B^T)^-1||_inf
# times its residual, and the residual is known only to about eps ||I -
# B^T||_inf |y|, its own rounding (Higham 7.2; LAPACK's FERR); so |r| + eps
# ||I - B^T|| |y| <= FORWARD_TOL |y| / ||(I - B^T)^-1|| holds that error to
# FORWARD_TOL of |y|, and no solve passes where eps cond_inf(I - B^T) does:
# a stiff cycle's activity loses digits at a backward error of a few eps.
# Of 300 random stiff protocols (ROADMAP item 5), the 34 activities from e_0
# that an absolute 1e-10 residual refused have error bounds from 1.19e-9 of
# |y| up, on either kernel; 14 dense and 13 sparse of the other 266 have
# 1.04e-9 to 1.9e-7 and are refused too; the benchmark's solves have at
# most 1.3e-12.  Their Koopman solves have backward errors of at most 1.2 eps.
RESIDUAL_TOL = 1e-12
FORWARD_TOL = 1e-9
_BORDER_MAX = 32  # fixed cells up to which a masked block is bordered, not factored
_BORDER_EPS = 4 * np.finfo(float).eps  # a bordered solve's free-row residual, in units of max|y|

log = logging.getLogger(__name__)


class NonConvergence(RuntimeError):
    """A diagonal block is singular to working precision, or its solve
    misses its residual bound (see RESIDUAL_TOL)."""


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


def _factor(operand) -> tuple:
    """The LU of I - operand, as a solver (rhs, trans) -> x of (I - operand) x
    = rhs, or with trans of (I - operand^T) x = rhs, with ||(I -
    operand)^-1||_inf; a block singular to working precision raises
    NonConvergence.

    A dense operand is factored by LAPACK getrf and solved by getrs; a
    sparse one by SuperLU on the minimum-degree ordering of A^T + A, with
    supernode relaxation 1 and panel size 1: on these lattice blocks that
    factors faster than SuperLU's defaults, with the same ordering and
    the same fill.

    The operand is a record's B^T or B's free part, nonnegative, so I -
    operand is an M-matrix, (I - operand)^-1 = sum_n operand^n >= I, and
    the LU's solve x of the ones holds the inverse's row sums, the largest
    its norm.  x must lie in [1/2, 1/eps], or the block
    is refused as singular to working precision: a residual check would
    pass the solves of a backward-stable LU however far off they are (a
    3-state cycle at q dt ~ 1e20 gave activities of -4e18 and Koopman
    values of -0.23).
    """
    n = operand.shape[0]
    if isinstance(operand, np.ndarray):
        from scipy.linalg import lapack
        lu, piv, info = lapack.dgetrf(np.eye(n) - operand)
        if info > 0:
            raise NonConvergence(f"singular diagonal block: pivot {info} is exactly zero")

        def solve(rhs, trans):
            return lapack.dgetrs(lu, piv, rhs, trans=int(trans))[0]
    else:
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla
        try:
            lu = spla.splu(sp.eye(n, format="csc") - operand.tocsc(),
                           permc_spec="MMD_AT_PLUS_A", relax=1, panel_size=1)
        except RuntimeError as exc:
            raise NonConvergence(f"singular diagonal block: {exc}") from exc

        def solve(rhs, trans):
            return lu.solve(rhs, trans="T" if trans else "N")
    x = solve(np.ones(n), False)
    least, most = x.min(), x.max()
    if not (least >= 0.5 and most * np.finfo(float).eps < 1):  # NaN fails too
        raise NonConvergence(f"singular diagonal block: inverse row sums from {least:.3e} "
                             f"to {most:.3e}")
    return solve, float(most)


def _bound(f: _Factors, forward: bool) -> float:
    """The residual bound of a block of record f per unit of max|y| (see
    RESIDUAL_TOL): backward RESIDUAL_TOL ||I - B||_inf, which is RESIDUAL_TOL
    (2 - min(leave)), B being nonnegative with a zero diagonal and the rows
    of I - B summing to leave = phi / dt; forward FORWARD_TOL / ||(I -
    B^T)^-1||_inf - eps ||I - B^T||_inf, from the record's LU."""
    if forward:
        return FORWARD_TOL / f.inverse - np.finfo(float).eps * f.norm
    return RESIDUAL_TOL * (2.0 - float(f.leave.min()))


def _size(A: np.ndarray, axis=None):
    """max|A|, over axis; NaN propagates."""
    return np.abs(A).max(axis=axis, initial=0.0)


def _fits(res, bound):
    """Whether block residuals are within their finite bounds; NaN fails."""
    return (res <= bound) & (bound < np.inf)


def _checked(res: float, bound: float) -> float:
    """A block residual, which must be within its bound."""
    if not _fits(res, bound):
        why = ": eps * cond_inf passes FORWARD_TOL" if bound < 0 else ""
        raise NonConvergence(f"diagonal block residual {res:.3e} against a bound of "
                             f"{bound:.3e}{why}")
    return res


@dataclass
class _Scan:
    """How one scan solved its blocks, for the INFO line its caller logs:
    groups are its _Groups, used maps each block record whose whole LU it
    used to whether it factored it, and cells counts, in the pass that
    stands, the cells by transfer runs, those runs, their squarings, and
    the cells by the per-cell step."""

    groups: list = field(default_factory=list)
    used: dict = field(default_factory=dict)
    cells: list = field(default_factory=lambda: [0, 0, 0, 0])

    def log(self, name: str, solved: int, tail: str = "", *args) -> None:
        """The INFO line, tail a %-format of args: formatted only when INFO is on."""
        built = sum(self.used.values())
        log.info("%s: %d blocks solved against %d LU factorizations built, %d reused; %d cells "
                 "by %d transfer runs with %d squarings, %d by the per-cell step" + tail,
                 name, solved, built, len(self.used) - built, *self.cells, *args)


def _lu(block: _Factors, scan: _Scan):
    """The solver of the record's I - B^T (see _factor), factored on first
    use, with the norms of I - B^T and of its inverse (see _bound); a
    failed factorization is kept nowhere."""
    if block.lu is None:
        block.lu, block.inverse = _factor(block.B.T)
        # B is nonnegative with a zero diagonal: 1 plus its largest column sum
        block.norm = 1.0 + float((block.B.T @ np.ones(block.B.shape[0])).max())
        scan.used[block] = True
    scan.used.setdefault(block, False)
    return block.lu


def _bordered(block: _Factors, free: np.ndarray, scan: _Scan):
    """A masked solver (rhs, x) -> y on a sparse record's LU bordered by the
    cells c outside free, or None on a dense record, whose free cells cost
    less, for more than _BORDER_MAX of them, or for a singular LU or W[c].

    With W = (I - B)^-1 E_c, P = W W[c]^-1 is 1 on c, and y + P z leaves
    the free rows of (I - B) y as they are, so y + P (v - y[c]) takes the
    fixed values v on c: one |c|-column solve instead of a factorization.
    P is W times the inverse of the |c| x |c| W[c], not a solve with N
    right-hand sides.  The solver does not check y: _Group does.
    """
    c = np.flatnonzero(~free)
    if isinstance(block.B, np.ndarray) or c.size > _BORDER_MAX:
        return None
    try:
        lu = _lu(block, scan)
        W = lu(np.equal.outer(np.arange(block.B.shape[0]), c).astype(float), True)  # E_c
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
    lu = _factor(block.B[free][:, free])[0]

    def solve(rhs, x):
        x = x.copy()
        x[free] = lu((rhs + block.B @ np.where(free[:, None], 0.0, x))[free], False)
        return x
    return solve


@dataclass(eq=False)
class _Group:
    """The blocks of one scan that share a record and a free mask, and their
    one solver: the record's LU, in the scan's direction, where every cell
    is free, else the border a sparse record's first block makes (see
    _bordered), or an LU of the free cells.  check() checks them after a
    pass; ks holds them in the order it solved them, and rows is free, a
    slice if all are."""

    block: _Factors
    free: np.ndarray
    solver: object = None
    bordered: bool = False
    ks: list = field(default_factory=list)

    def ready(self, scan: _Scan, forward: bool):
        """The group's solver (rhs, x) -> y, made on first use, with rows."""
        if self.solver is None:
            if self.free.all():
                self.rows, lu = slice(None), _lu(self.block, scan)
                self.solver = lambda rhs, x: lu(rhs, not forward)
            else:
                self.rows, border = self.free, _bordered(self.block, self.free, scan)
                self.solver = border or _free_cells(self.block, self.free)
                self.bordered = border is not None
        return self.solver

    def check(self, X: np.ndarray, rhs: np.ndarray, forward: bool) -> tuple:
        """The worst free-row residual of y - B y = rhs (B^T forward) over
        the group's blocks, and the first of them in scan order that fails,
        as (k, its residual, its bound, whether the border fell short), or
        None.

        A block fails where its residual is not within its bound, _bound
        times max|y| (see RESIDUAL_TOL), NaN included, or, bordered,
        exceeds _BORDER_EPS * max|y|, which bounds rhs there, B's rows
        summing below 1: a fixed cell can break a stiff cycle, so the whole
        block may be far worse conditioned than its free part.  The blocks
        go through one product side by side, the per-block maxima in the
        (k, N, c) layout, the faster to reduce.
        """
        k = len(self.ks)
        operand = self.block.B.T if forward else self.block.B
        Y = X[self.ks]
        size = _size(Y.reshape(k, -1), 1)
        # the residual takes the place of Y, a copy
        r = np.subtract(Y, (operand @ _side(Y)).reshape(Y.shape[1], k, -1).transpose(1, 0, 2),
                        out=Y)[:, self.rows]
        r -= rhs[self.ks][:, self.rows]
        res = _size(r.reshape(k, -1), 1)
        short = res > (_BORDER_EPS * size if self.bordered else np.inf)
        bound = _bound(self.block, forward) * size
        failed = np.flatnonzero(short | ~_fits(res, bound))
        j = int(failed[0]) if failed.size else None
        return res.max(), None if j is None else (self.ks[j], float(res[j]), float(bound[j]),
                                                  bool(short[j]))


def _groups(J: JumpMatrix, free: np.ndarray) -> tuple:
    """The _Groups of the (k, N) or (k, 1) mask free, the blocks with a free
    cell that share one record and one mask, and per block the index of its
    group, or _NONE where no cell is free.  Where every cell is free, the
    groups are one per record, in J.blocks' order."""
    if free.all():
        return [_Group(f, free[0]) for f in J.blocks], J.block_of[:len(free)]
    index = np.full(len(free), _NONE)
    solved = np.flatnonzero(free.any(axis=1))
    if not solved.size:
        return [], index
    # one id per distinct mask; np.unique(rows, axis=0) gives the same ids,
    # but sorts the rows as records of N fields, about 60x slower
    rows = np.ascontiguousarray(free[solved])
    ids = np.unique(rows.view(np.dtype((np.void, rows.shape[1]))), return_inverse=True)[1]
    first, index[solved] = np.unique(J.block_of[solved] * len(solved) + ids.ravel(),
                                     return_index=True, return_inverse=True)[1:]
    return [_Group(J.cells[k], free[k]) for k in solved[first].tolist()], index


# The cost rule of the transfer route (see _scan): a run of n cells of c
# columns each at N states takes it where N^2 c <= _TRANSFER_WORK and
# 2 n >= max(N, 32).  Per cell the route saves the per-cell step's small
# calls and adds about 4 N^2 c flops in products (G times the carries, H
# times each carry); per run it adds the N-column solve G, H = .. G and,
# from 16 cells on, the squarings of _carries, each O(N^3).  Measured on
# dense kernels, us per cell, per-cell step against transfer route, best
# of 25 runs of a Koopman solve (backward, c = 1) and of a forward scan of
# c columns, over two runs of n cells each (one BLAS thread, 2-core host):
#   N = 16, c = 1:  n = 8 22.6 vs 26.0; n = 16 18.7 vs 17.5 backward,
#                   9.2 vs 9.8 forward; n = 32 15.7 vs 12.3; n = 128
#                   13.4 vs 6.3 backward, 12.4 vs 4.6 forward
#   N = 16, c = 15: n = 16 24.2 vs 17.5; n = 128 28.5 vs 20.5
#   N = 63, c = 1:  n = 16 14.0 vs 21.7; n = 32 11.3 vs 12.9 forward;
#                   n = 64 18.5 vs 16.1; n = 128 11.5 vs 7.5
#   N = 63, c = 4:  n = 32 24.2 vs 23.4; n = 64 48.5 vs 27.0
#   N = 63, c = 16: n = 64 70.0 vs 110.7; n = 128 70.8 vs 168.0
#   N = 144, c = 1: n = 64 35.7 vs 66.0; n = 128 33.9 vs 47.3
# So runs pay from about 16 cells at N = 16 and 32 at N = 63, and not up
# to 128 cells at N = 144 (N^2 = 20,736) nor at N = 63 with c = 16
# (N^2 c = 63,504).  A propagator of a stack of at least N columns needs
# no per-cell output, and takes the squarings at every run past block 0
# (see reconstruct_propagator): today's c >= N rule.
_TRANSFER_WORK = 2 ** 14

_NONE = -1  # the kind in a scan of a block with no free cell, which no _Group solves


def _by_transfer(n: int, c: int, N: int) -> bool:
    """The cost rule: whether a run of n cells of c columns each, at N
    states, takes the transfer route rather than the per-cell step."""
    return N * N * c <= _TRANSFER_WORK and 2 * n >= max(N, 32)


def _side(A: np.ndarray) -> np.ndarray:
    """The (m, N, c) blocks of A side by side, as one (N, m c) array."""
    return A.transpose(1, 0, 2).reshape(A.shape[1], -1)


def _each(operand, Y: np.ndarray) -> np.ndarray:
    """operand @ Y[i] for each (n, c) block of the (k, n, c) stack Y, each
    with the bits of its own product: numpy's stacked matmul makes one BLAS
    call per block of a dense operand, and a CSR's product with the blocks
    side by side gives each column the bits of its own mat-vec."""
    if isinstance(operand, np.ndarray):
        return operand @ Y
    k, n, c = Y.shape
    return (operand @ _side(Y)).reshape(-1, k, c).transpose(1, 0, 2)


def _transfer(f: _Factors, solve, forward: bool) -> tuple:
    """(D, G) of a run of record f's cells whose block solver is solve: G
    solves the block for D, the inflow that a carry brings, so a block is
    Y + G carry, Y the solve of its own right-hand side, and the carry past
    it is T carry plus the jumps of Y, T = diag(decay) + H the one-cell
    transfer matrix, H = leave G forward, phi R G backward."""
    if forward:
        # in C order, as the product with B^T in _pass's check, so that
        # r -= D needs no buffer; the solve copies D into its own order
        R = f.R if isinstance(f.R, np.ndarray) else f.R.toarray()
        D = np.multiply(R.T, f.phi.T, order="C")
        del R
        return D, solve(D, None)
    D = np.diag(f.leave[:, 0])
    return D, solve(D, np.zeros_like(D))


def _carries(d: np.ndarray, H: np.ndarray, Z: np.ndarray, carry: np.ndarray) -> np.ndarray:
    """C[0] = carry and C[i + 1] = H C[i] + Z[i] + d C[i] for the (m, c, N)
    rows Z, each carry a (c, N) row block.

    d C is added last, as the per-cell step adds it, so that the large
    diagonal term is rounded once.  The carries of every b-th cell go
    first, b a power of two from sqrt(m) / 4 to sqrt(m) / 2, by
    A^b = (diag(d) + H)^b held as diag(d^b) plus the rest and squared in
    that form, with the run-in W of each b cells from a zero carry; then
    the b - 1 cells after each of them, all at once: m / b + 2 b steps
    instead of m.  At N = 63 and c = 1 that took 96 cells from 515 to
    299 us and 960 cells from 5,167 to 1,678 us (b = 4 and 8; 2-core host,
    one BLAS thread).
    """
    m, c, n = Z.shape
    b = 1 << max(0, (m.bit_length() - 1) // 2 - 1)
    nb = m // b
    dp, Hp = d, H
    for _ in range(b.bit_length() - 1):
        Hp = dp[:, None] * Hp + Hp * dp + Hp @ Hp
        dp = dp * dp

    def step(X, Hk, Zk, dk):
        return (X.reshape(-1, n) @ Hk.T).reshape(X.shape) + Zk + dk * X
    C = np.empty((m + 1, c, n))
    C[0] = carry
    Zb, Cb = Z[:nb * b].reshape(nb, b, c, n), C[:nb * b].reshape(nb, b, c, n)
    W = Zb[:, 0]
    for i in range(1, b):
        W = step(W, H, Zb[:, i], d)
    for s in range(nb):
        C[(s + 1) * b] = step(C[s * b], Hp, W[s], dp)
    for i in range(b - 1):
        Cb[:, i + 1] = step(Cb[:, i], H, Zb[:, i], d)
    for i in range(nb * b, m):
        C[i + 1] = step(C[i], H, Z[i], d)
    return C


def _run(f: _Factors, X: np.ndarray, rhs: np.ndarray, solve, G: np.ndarray, H: np.ndarray,
         forward: bool, carry: np.ndarray, rows) -> np.ndarray:
    """The transfer route over the m blocks X of one run, in time order:
    their right-hand sides in one solve Y, the carries by _carries, then
    X = Y + G carries on the solved rows, in one product, and rhs takes in
    each block's inflow.  Returns the carry past the run."""
    m, n, c = X.shape
    Y = solve(_side(rhs), _side(X))
    Z = (f.leave * Y if forward else f.phi * (f.R @ Y)).reshape(n, m, c).transpose(1, 2, 0)
    # forward C[j] is the carry into block j, backward C[j + 1] is
    if forward:
        C = _carries(f.decay[:, 0], H, Z, carry.T)
        into, out = C[:m], C[m]
    else:
        C = _carries(f.decay[:, 0], H, Z[::-1], carry.T)[::-1]
        into, out = C[1:], C[0]
    into = into.transpose(0, 2, 1)
    Y[rows] += G[rows] @ _side(into)
    X[...] = Y.reshape(n, m, c).transpose(1, 0, 2)
    rhs += _each(f.R.T, f.phi * into) if forward else f.leave * into
    return out.T.copy()


def _pass(J: JumpMatrix, X: np.ndarray, rhs: np.ndarray, runs: list, groups: list,
          forward: bool, scan: _Scan) -> tuple:
    """One pass of _scan over its runs, (first, stop, kind) in ascending
    time; returns the carry past the last cell and the worst residual of G
    over the runs past X."""
    n, c = X.shape[1:]
    # no jumps are in flight into the first cell; one zero column broadcasts
    # over the c columns and costs no N x c product
    carry, worst, made = np.zeros((n, 1)), 0.0, {}
    scan.cells = [0, 0, 0, 0]
    order = runs if forward else runs[::-1]
    # made holds, per kind and whether past X, what its runs read; it goes
    # after the last of them
    last = {(kind, lo >= len(X)): i for i, (lo, _, kind) in enumerate(order)}
    for i, (lo, hi, kind) in enumerate(order):
        f, m, past = J.cells[lo], hi - lo, lo >= len(X)
        ks = range(lo, hi) if forward else range(hi - 1, lo - 1, -1)
        group = None if kind == _NONE else groups[kind]
        solve = None if group is None else group.ready(scan, forward)
        if group is not None and not past:
            group.ks.extend(ks)
        if past or solve is not None and _by_transfer(m, c, n):
            scan.cells[0] += m
            scan.cells[1] += 1
            key = kind, past
            if past:
                if key not in made:
                    # forward, with no right-hand side and no output: the
                    # run's only solve is G's, checked here in the product's
                    # array, with G in C order, which a CSR or CSC product
                    # reads in place; then H = leave G takes G's array, and
                    # T = diag(decay) + H is all the later runs read
                    D, G = _transfer(f, solve, True)
                    G = np.ascontiguousarray(G)
                    r = f.B.T @ G
                    np.subtract(G, r, out=r)
                    r -= D
                    del D
                    worst = max(worst, _checked(_size(r), _bound(f, True) * _size(G)))
                    del r
                    np.multiply(f.leave, G, out=G)
                    made[key] = np.diag(f.decay[:, 0])
                    made[key] += G
                    del G
                carry = np.linalg.matrix_power(made[key], m) @ carry
                scan.cells[2] += m.bit_length() - 1
            else:
                if key not in made:
                    G = _transfer(f, solve, forward)[1]
                    made[key] = G, f.leave * G if forward else f.phi * (f.R @ G)
                G, H = made[key]
                carry = _run(f, X[lo:hi], rhs[lo:hi], solve, G, H, forward, carry, group.rows)
        elif solve is None:
            # no free cell, so backward: rhs takes J X; B X and the jumps are one product each
            scan.cells[3] += m
            rhs[lo:hi] = _each(f.B, X[lo:hi])
            jumps = f.phi * _each(f.R, X[lo:hi])
            for k in ks:
                rhs[k] += f.leave * carry
                carry = f.decay * carry + jumps[k - lo]
        else:
            scan.cells[3] += m
            for k in ks:
                rhs[k] += f.R.T @ (f.phi * carry) if forward else f.leave * carry
                X[k] = solve(rhs[k], X[k])
                carry = f.decay * carry + (f.leave * X[k] if forward else f.phi * (f.R @ X[k]))
        if last[kind, past] == i:
            made.pop((kind, past), None)
    return carry, worst


def _scan(J: JumpMatrix, X: np.ndarray, rhs: np.ndarray, free: np.ndarray,
          forward: bool, cells: int = 0) -> tuple:
    """Solve the (k, N, c) blocks X, time blocks 0..k-1, of (I - J^T) X = rhs
    in ascending time, or of (I - J) X = rhs in descending time, on the
    cells of the boolean (k, N) mask free, or on the blocks of a (k, 1)
    one; X holds the other cells' values.  A forward scan, on an all-free
    mask, goes on through cells k..cells-1 with no rhs and no output.

    The scan goes one run at a time: consecutive cells of one record and
    one kind, one _Group's blocks, blocks with no free cell, or cells past
    X.  Within a run block k is Y_k + G carry_k, Y_k the solve of its own
    rhs, and the carry past it is T carry_k plus the jumps of Y_k (see
    _transfer).  A run that the cost rule _by_transfer admits takes the
    transfer route (_run); a run past X checks G and multiplies the carry
    by T raised to its length, by repeated squaring; any other run takes
    the per-cell step, the same recurrence with the solver applied to
    rhs + inflow, cell by cell.

    rhs takes in each block's inflow from the blocks solved before it; a
    block with no free cell is not solved, and its rhs becomes J X, its
    B X plus that inflow: with no free cell the scan is apply_adjoint's.
    Each group is checked after the scan; where a border fell short, the
    scan runs again from the held rhs with that whole group on its free
    cells, until no border does.  A pass runs on after a short border, on
    values the next pass replaces, which may overflow; so the scan
    silences numpy's overflow and invalid-value warnings, and an overflow
    in a pass that stands ends in a refusal by the checks.  Returns the
    worst residual of the solved blocks, the carry past the last cell,
    which forward is the activity synchronized to that cell's right edge,
    and the _Scan.
    """
    groups, index = _groups(J, free)
    cells = max(cells, len(X))
    # a cell past X runs on its record's group, one per record on an all-free mask
    kinds = np.concatenate([index, J.block_of[len(X):cells]])
    block_of = J.block_of[:cells]
    # runs: where the record or the kind changes, and where X ends
    cuts = np.flatnonzero((block_of[1:] != block_of[:-1]) | (kinds[1:] != kinds[:-1])) + 1
    bounds = sorted({0, *cuts.tolist(), len(X), cells})
    runs = list(zip(bounds, bounds[1:], kinds[bounds[:-1]].tolist()))
    held = None if all(g.free.all() for g in groups) else rhs.copy()
    scan = _Scan(groups)
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            for g in groups:
                g.ks.clear()
            carry, worst = _pass(J, X, rhs, runs, groups, forward, scan)
            checks = [g.check(X, rhs, forward) for g in groups if g.ks]
            # the first failure in scan order; the later ones may follow from it
            failed = max(filter(None, (f for _, f in checks)),
                         key=lambda f: -f[0] if forward else f[0], default=None)
            if failed is None:
                break
            k, res, bound, short = failed
            if not short:
                _checked(res, bound)
            g = groups[index[k]]
            g.solver, g.bordered = _free_cells(g.block, g.free), False
            rhs[...] = held
    return max([worst, *(w for w, _ in checks)]), carry, scan


def solve_forward(J: JumpMatrix, F: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve (I - J^T) X = F on the time blocks 0..k-1 that F holds, by one
    scan in ascending time.

    F is the first k*N entries of a space-time vector, or a (k*N, c) stack
    of them, 1 <= k <= M, or refused; the later blocks send no jumps into
    these.  Returns X and its worst block residual, which is the residual
    ||(I - J^T) X - F||_inf: each block's inflow is the one J^T sends it
    from the solved blocks.
    """
    rhs, n = np.array(F, dtype=float), J.indexer.N
    m, rest = divmod(len(rhs), n)
    if rest or not 1 <= m <= J.indexer.M:
        raise ValueError(f"F of shape {rhs.shape} is not k*{n} rows for a k in 1..{J.indexer.M}")
    X = np.empty_like(rhs)
    worst, _, scan = _scan(J, X.reshape(m, n, -1), rhs.reshape(m, n, -1),
                           np.ones((m, 1), dtype=bool), True)
    scan.log("solve_forward", m)
    return X, float(worst)


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
    free = free[:size].reshape(shape)
    scan = _scan(J, x[:size].reshape(*shape, 1), rhs, free, False)[2]
    borders = [g for g in scan.groups if g.bordered]
    scan.log("solve_backward", int(free.any(axis=1).sum()), "; %d borders of %d fixed cells, "
             "%d masked factorizations", len(borders), sum(int((~g.free).sum()) for g in borders),
             sum(not g.free.all() for g in scan.groups) - len(borders))
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

    A density, or a stack of fewer than N, is its jump activity on blocks
    0..l, synchronized, so it has the bits of synchronize after
    jump_activity.  A stack of N or more is the carry of a scan that solves
    block 0 and goes on with no output through cell l: one N x N transfer
    matrix per run of cells sharing a diagonal block, raised to the run's
    length, costs less than c columns per cell, dense on either kernel (at
    N = 2,500 the identity took 5.1 s and 298 MB of peak RSS, 2-core host,
    one BLAS thread).  The two agree to the blocks' eps * cond, and on a
    stiff block either may raise NonConvergence where the other does not.
    """
    fbar = np.asarray(fbar, dtype=float)
    n = J.indexer.N
    if fbar.ndim not in (1, 2) or fbar.shape[0] != n:
        raise ValueError("spatial density must have N rows")
    _check_block(J, l)
    if fbar.ndim == 2 and fbar.shape[1] >= n:
        _, carry, scan = _scan(J, np.empty((1, *fbar.shape)), fbar[None].copy(),
                               np.ones((1, 1), dtype=bool), True, l + 1)
        scan.log("solve_forward", l + 1)
        return carry
    F = np.zeros(((l + 1) * n, *fbar.shape[1:]))
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
    n = J.indexer.N
    if g.shape != (n,):
        raise ValueError("observable must have length N")
    _check_block(J, l)
    free = np.arange(J.indexer.size) < (l + 1) * n
    return SpaceTimeVector(_solve_backward(J, l, g, np.zeros(J.indexer.size), free), J.indexer)


def apply_adjoint(J: JumpMatrix, g: np.ndarray) -> np.ndarray:
    """One backward pull of a space-time observable, J g, for an (N*M,) g
    or each column of an (N*M, c) one, c >= 1, any other shape refused: the
    backward scan with no free cell, which leaves J g in its rhs."""
    G = np.asarray(g, dtype=float)
    if G.ndim not in (1, 2) or len(G) != J.indexer.size or not G.size:
        raise ValueError(f"g of shape {G.shape} is not ({J.indexer.size},) or "
                         f"({J.indexer.size}, c) with c >= 1")
    X = G.reshape(J.indexer.M, J.indexer.N, -1)
    rhs = np.empty_like(X)
    _scan(J, X, rhs, np.zeros((J.indexer.M, 1), dtype=bool), False)
    return rhs.reshape(G.shape)
