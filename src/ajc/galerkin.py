"""The Ulam-Galerkin space-time jump operator, stored in factored form.

Space-time cells are indexed time-block outer, space inner:
flat(i, k) = k * N + i (0-based).  With rates r = q_ij on cell l and the
decay d_i^m = exp(-q_i^m dt_m) through cell m, a walker starting uniformly
in cell (i, k) next jumps into cell (j, l) with probability

    entry(k=l) = r * psi(q_i^l, dt_l) / dt_l
    entry(k<l) = r * phi(q_i^l, dt_l) * prod_{k<m<l} d_i^m * phi(q_i^k, dt_k) / dt_k

    phi(q, dt) = (1 - exp(-q dt)) / q        phi(0, dt) = dt
    psi(q, dt) = (exp(-q dt) + q dt - 1)/q^2 psi(0, dt) = dt^2 / 2

so absorbing phases need no special casing.  Only these per-cell factors
are stored, O(M nnz(Q)) numbers; every product is one scan over the time
cells carrying the jumps still in flight.  The explicit matrix, whose
nonzeros grow as M^2, exists only as rows: JumpMatrix.row_blocks yields
them one time block at a time, which is how the .mtx export writes them,
and JumpMatrix.matrix stacks them on request for checks.

Each distinct (phase, width) pair has one record of what its cells
multiply by, R and the diagonal block B, whose transposes are views, and
a slot for the LU that ajc.operators makes on first use.  Up to _DENSE_MAX
states they are dense: at that size one BLAS mat-vec or LAPACK solve costs
less than scipy's sparse dispatch around the same arithmetic.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .generator import RateMatrixSequence, TimeGrid

# exp(-x) + x - 1 cancels below the cut, where the series (exp(-x) + x - 1) / x^2
# = sum_n (-x)^n / (n + 2)! through x^12 is exact to rounding; highest power first.
_PSI_CUT = 0.2
_PSI_SERIES = [(-1) ** n / math.factorial(n + 2) for n in range(12, -1, -1)]

# The size rule: up to this many states the per-phase factors are dense
# (BLAS gemv, LAPACK getrf/getrs), above it CSR and SuperLU.  Per call on
# 5-point SQRA blocks, sparse vs dense, medians of five runs in us (one BLAS
# thread, 2-core host): at N = 144 factor 401 vs 201, solve 14.7 vs 8.5,
# transposed solve 13.7 vs 9.0, mat-vec 5.2 vs 4.2; at N = 196 transposed
# solve 13.1 vs 15.1, mat-vec 7.0 vs 6.9; at N = 256 factor 767 vs 814,
# transposed solve 14.9 vs 20.3, mat-vec 6.6 vs 12.1.  The crossover lies
# between 169 and 196 states; 144 keeps a margin below it, and bounds each
# dense matrix at 166 kB.
_DENSE_MAX = 144

log = logging.getLogger(__name__)


def phi(q, dt):
    """(1 - exp(-q dt)) / q with the finite limit dt at q = 0."""
    q = np.asarray(q, dtype=float)
    dt = np.asarray(dt, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(q > 0, -np.expm1(-q * dt) / q, dt)


def psi(q, dt):
    """(exp(-q dt) + q dt - 1) / q^2 with the finite limit dt^2/2 at q = 0."""
    q = np.asarray(q, dtype=float)
    dt = np.asarray(dt, dtype=float)
    x = q * dt
    small = x < _PSI_CUT
    series = np.polyval(_PSI_SERIES, np.where(small, x, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        exact = (np.expm1(-x) + x) / x / x
    return dt * dt * np.where(small, series, exact)


@dataclass(frozen=True)
class SpaceTimeIndexer:
    """Bijection between (state, block) pairs and flat indices."""

    N: int
    M: int

    @property
    def size(self) -> int:
        return self.N * self.M

    def unflat(self, a):
        a = np.asarray(a)
        return a % self.N, a // self.N


@dataclass(eq=False)
class _Factors:
    """What the cells of one phase and width multiply by: R, the diagonal
    block B = diag(psi / dt) R, and lu, the solver of I - B^T that
    ajc.operators sets on the first solve that needs it.

    Up to _DENSE_MAX states R and B are dense arrays, above it CSR; either
    way a kernel that needs a transpose reads the view .T, so a record holds
    no copy.  Records compare and hash by identity.
    """

    R: object
    B: object
    lu: object = None


@dataclass(frozen=True)
class JumpMatrix:
    """Factored Galerkin operator over space-time cells.

    Per time cell l: offdiag[l] holds the off-diagonal rates R^l, and the
    (N, M) arrays phi, decay and within hold phi(q, dt), exp(-q dt) and
    psi(q, dt) / dt, so the time block (l, l) is diag(within[:, l]) R^l.
    blocks[block_of[l]] is cell l's _Factors record, one per phase and
    width, whose R, B and views .T the scans and ajc.operators' solves
    multiply by.
    """

    indexer: SpaceTimeIndexer
    grid: TimeGrid
    outbound: np.ndarray  # (N, M) rates q_i^l
    offdiag: tuple
    phi: np.ndarray
    decay: np.ndarray
    within: np.ndarray
    blocks: tuple  # of _Factors
    block_of: np.ndarray  # (M,) index into blocks

    def scan_forward(self, X: np.ndarray):
        """Scan J^T over the (M, N, c) blocks of X in ascending time.

        Yields (l, inflow), the jumps into block l from the earlier blocks
        of X; the caller may overwrite X[l] before its jumps join the carry.
        """
        leave = self.phi / self.grid.widths
        carry = np.zeros_like(X[0])
        for l, b in enumerate(self.block_of):
            yield l, self.blocks[b].R.T @ (self.phi[:, l, None] * carry)
            carry = self.decay[:, l, None] * carry + leave[:, l, None] * X[l]

    def scan_backward(self, X: np.ndarray):
        """Scan J over the (M, N, c) blocks of X in descending time, yielding
        (k, inflow) with the jumps from block k into the later blocks of X."""
        leave = self.phi / self.grid.widths
        carry = np.zeros_like(X[0])
        for k in range(self.indexer.M - 1, -1, -1):
            yield k, leave[:, k, None] * carry
            jumps = self.blocks[self.block_of[k]].R @ X[k]
            carry = self.decay[:, k, None] * carry + self.phi[:, k, None] * jumps

    def block_survival(self, l: int) -> np.ndarray:
        """Per-cell probability of not having jumped into blocks <= l: from a
        cell k <= l, phi_k / dt_k times the decay through cells k+1..l."""
        n, m = self.indexer.N, self.indexer.M
        S = np.ones((m, n))
        S[:l + 1] = (self.phi / self.grid.widths).T[:l + 1]
        # row k of the reversed running product is d^{k+1} ... d^l
        S[:l] *= np.cumprod(self.decay[:, l:0:-1].T, axis=0)[::-1]
        return S.ravel()

    @property
    def survival_mass(self) -> np.ndarray:
        """Per-cell probability of never jumping before the horizon."""
        return self.block_survival(self.indexer.M - 1)

    @property
    def nnz(self) -> int:
        """Stored entries of the explicit matrix: the entries of cell l lie in
        the rows of blocks 0..l, so nnz = sum_l (l + 1) nnz(R^l)."""
        return sum((l + 1) * R.nnz for l, R in enumerate(self.offdiag))

    def row_blocks(self):
        """Yield the rows of the explicit matrix one time block k at a time,
        as (data, indices, row lengths) in CSR order.

        Row (i, k) holds its entries for cells l = k..M-1 in turn, each in
        the column order of R^l.  Every cell's entries are gathered once in
        that row order; an entry of cell l > k is phi_k/dt_k times the decay
        through cells k+1..l-1, accumulated left to right, times its jump
        r phi(q_i^l, dt_l).
        """
        n, m = self.indexer.N, self.indexer.M
        rows = [np.repeat(np.arange(n), np.diff(R.indptr)) for R in self.offdiag]
        # stable by row i keeps each row's entries by cell, then in R^l's order
        order = np.argsort(np.concatenate(rows), kind="stable")
        cell = np.concatenate([l * n + r for l, r in enumerate(rows)])[order]  # flat(i, l)
        cols = np.concatenate([l * n + R.indices for l, R in enumerate(self.offdiag)])
        cols = cols[order].astype(np.int32)
        jump = np.concatenate([R.data * self.phi[r, l]
                               for l, (R, r) in enumerate(zip(self.offdiag, rows))])[order]
        within = np.concatenate([R.data * self.within[r, l]
                                 for l, (R, r) in enumerate(zip(self.offdiag, rows))])[order]
        # row i of block k holds its entries of the cells l >= k
        lengths = np.column_stack([np.diff(R.indptr) for R in self.offdiag])
        lengths = np.cumsum(lengths[:, ::-1], axis=1)[:, ::-1]
        leave = self.phi / self.grid.widths
        for k in range(m):
            mine = cell >= k * n
            # row l - k - 1 of left is phi_k/dt_k times d^{k+1} ... d^{l-1};
            # the entries of cell k itself get a negative offset
            at = cell[mine] - (k + 1) * n
            left = np.cumprod(np.vstack([leave[:, k], self.decay[:, k + 1:m - 1].T]), axis=0)
            data = np.where(at < 0, within[mine], left.ravel()[at] * jump[mine])
            yield data, cols[mine], lengths[:, k]

    @functools.cached_property
    def matrix(self) -> sp.csr_matrix:
        """The explicit CSR matrix, built on first use: the row blocks stacked."""
        n, size = self.indexer.N, self.indexer.size
        data, indices = np.empty(self.nnz), np.empty(self.nnz, dtype=np.int32)
        indptr = np.zeros(size + 1, dtype=np.int64)
        for k, (d, c, lengths) in enumerate(self.row_blocks()):
            start = indptr[k * n]
            data[start:start + d.size], indices[start:start + d.size] = d, c
            indptr[k * n + 1:(k + 1) * n + 1] = start + np.cumsum(lengths)
        return sp.csr_matrix((data, indices, indptr), shape=(size, size))

    @functools.cached_property
    def block_cumulative(self) -> np.ndarray:
        """Dense (N*M, M) per-row jump mass into blocks <= l, built on first use."""
        return 1.0 - np.column_stack([self.block_survival(l) for l in range(self.indexer.M)])


def assemble(seq: RateMatrixSequence) -> JumpMatrix:
    """Factor the jump operator of a piecewise-constant protocol, O(M nnz(Q)),
    on the sequence's own outbound and offdiag tables.

    Cells of one phase and one width share one _Factors record, and the
    records of one phase share its R.
    """
    dt = seq.grid.widths
    q = seq.outbound
    within = psi(q, dt) / dt
    dense = seq.N <= _DENSE_MAX
    rates = {}  # phase -> R
    index = {}  # (phase, width) -> index into blocks
    blocks = []
    for l, (p, R) in enumerate(zip(seq.phase, seq.offdiag)):
        if (p, dt[l]) in index:
            continue
        if p not in rates:
            rates[p] = R.toarray() if dense else R
        if dense:
            B = rates[p] * within[:, l, None]
        else:
            # R's own pattern: JumpMatrix.row_blocks writes the same data into R's slots
            rows = np.repeat(np.arange(seq.N), np.diff(R.indptr))
            B = sp.csr_matrix((R.data * within[rows, l], R.indices, R.indptr), shape=R.shape)
        index[p, dt[l]] = len(blocks)
        blocks.append(_Factors(rates[p], B))
    log.info("assemble: N=%d M=%d phases=%d diagonal blocks=%d kernels=%s",
             seq.N, seq.grid.M, seq.phase.max() + 1, len(blocks), "dense" if dense else "sparse")
    return JumpMatrix(SpaceTimeIndexer(seq.N, seq.grid.M), seq.grid, q, seq.offdiag,
                      phi(q, dt), np.exp(-q * dt), within, tuple(blocks),
                      np.array([index[p, w] for p, w in zip(seq.phase, dt)]))


def apply_adjoint(J: JumpMatrix, g: np.ndarray) -> np.ndarray:
    """One backward pull of a space-time observable (matrix times vector)."""
    G = np.asarray(g, dtype=float)
    if G.shape[0] != J.indexer.size:
        raise ValueError("vector length must be N*M")
    G = G.reshape(J.indexer.M, J.indexer.N, -1)
    out = np.empty_like(G)
    for k, inflow in J.scan_backward(G):
        out[k] = J.blocks[J.block_of[k]].B @ G[k] + inflow
    return out.reshape(np.shape(g))
