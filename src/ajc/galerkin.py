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
nonzeros grow as M^2, exists only as rows: JumpMatrix.block_rows builds
those of a range of time blocks, the .mtx export writes them one chunk of
blocks at a time, and JumpMatrix.matrix, built on request for checks, is
all of them.

Each distinct (phase, width) pair has one record of what its cells
multiply by: R and the diagonal block B, whose transposes are views, the
closed forms phi, d = exp(-q dt), phi / dt and psi / dt as (N, 1)
columns, evaluated once per record rather than once per cell, and a slot
for the LU that ajc.operators makes on first use.  The records are J's
only per-cell numbers: the scans, the survival masses and the explicit
rows all read each cell's record (JumpMatrix.cells).  Up to _DENSE_MAX
states R and B are dense: at that size one BLAS mat-vec or LAPACK solve
costs less than scipy's sparse dispatch around the same arithmetic.
scipy.sparse loads only where sparse arithmetic runs: for the records
above _DENSE_MAX, which wrap each phase's own CSR arrays, and for
JumpMatrix.matrix.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .generator import CSR, RateMatrixSequence, TimeGrid, _index_dtype

# exp(-x) + x - 1 cancels below the cut, where the series (exp(-x) + x - 1) / x^2
# = sum_n (-x)^n / (n + 2)! through x^12 is exact to rounding; highest power first.
_PSI_CUT = 0.2
_PSI_SERIES = [(-1) ** n / math.factorial(n + 2) for n in range(12, -1, -1)]

# The size rule: up to this many states the per-phase factors are dense
# (BLAS gemv, LAPACK getrf/getrs), above it CSR and SuperLU.  Per call on
# the beta = 10 block of an n x n SQRA lattice, sparse vs dense, medians of
# five runs in us (one BLAS thread, 2-core host).  A factor includes forming
# I - B^T, about 90 us of the sparse one; SuperLU's own share is in
# brackets.  N = 144: factor 167 (75) vs 106, solve 5.6 vs 4.4,
# transposed solve 5.2 vs 5.8, mat-vec 2.7 vs 2.1; N = 169: factor 185
# (100) vs 150, solve 6.1 vs 6.0, transposed solve 5.5 vs 7.1, mat-vec 2.7
# vs 3.3; N = 196: factor 207 (126) vs 202, solve 6.9 vs 6.5, transposed
# solve 5.9 vs 8.0, mat-vec 2.8 vs 4.3; N = 256: factor 261 (176) vs 465,
# solve 8.2 vs 10.5, transposed solve 6.9 vs 11.4, mat-vec 2.9 vs 6.9.
# Factors and forward solves cross over near 196 states, mat-vecs between
# 144 and 169, and transposed solves near 121; 144 bounds each dense matrix
# at 166 kB.
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
    block B = diag(within) R, the contiguous (N, 1) columns phi = phi(q,
    dt), decay = exp(-q dt), leave = phi / dt and within = psi(q, dt) / dt,
    and lu, the solver of I - B^T that ajc.operators sets on the first
    solve that needs it.

    Up to _DENSE_MAX states R and B are dense arrays, above it scipy.sparse
    CSR matrices on the phase's own arrays and on R's pattern; either way a
    kernel that needs a transpose reads the view .T, so a record holds
    no copy.  Records compare and hash by identity.
    """

    R: object
    B: object
    phi: np.ndarray
    decay: np.ndarray
    leave: np.ndarray
    within: np.ndarray
    lu: object = None


@dataclass(frozen=True)
class JumpMatrix:
    """Factored Galerkin operator over space-time cells.

    Per time cell l: offdiag[l] holds the off-diagonal rates R^l, a CSR, and
    cells[l] = blocks[block_of[l]] is cell l's _Factors record, one per
    phase and width.  The records are J's only per-cell numbers: the scans,
    ajc.operators' solves, the survival masses and the rows multiply by
    their R, B, views .T and columns phi, decay, leave and within, and the
    time block (l, l) is cell l's B = diag(within) R^l.  outbound and
    offdiag are the sequence's own arrays.
    """

    indexer: SpaceTimeIndexer
    grid: TimeGrid
    outbound: np.ndarray  # (N, M) rates q_i^l
    offdiag: tuple
    blocks: tuple  # of _Factors
    block_of: np.ndarray  # (M,) index into blocks

    @functools.cached_property
    def cells(self) -> tuple:
        """Per time cell, its _Factors record."""
        return tuple(self.blocks[b] for b in self.block_of.tolist())

    def block_survival(self, l: int) -> np.ndarray:
        """Per-cell probability of not having jumped into blocks <= l: from a
        cell k <= l, phi_k / dt_k times the decay through cells k+1..l.  At
        l = M - 1 this is survival_mass, which is read-only."""
        if l == self.indexer.M - 1:
            return self.survival_mass
        return self._survival(l)

    def _survival(self, l: int) -> np.ndarray:
        leave, decay = self.survival_factors
        S = np.ones((self.indexer.M, self.indexer.N))
        S[:l + 1] = leave[:l + 1]
        # row k of the reversed running product is d^{k+1} ... d^l
        S[:l] *= np.cumprod(decay[l:0:-1], axis=0)[::-1]
        return S.ravel()

    @functools.cached_property
    def survival_factors(self) -> tuple:
        """Each cell's phi / dt and exp(-q dt), its record's leave and decay,
        as two (M, N) tables gathered once, read-only: the survival masses
        and block_rows read them."""
        tables = tuple(np.hstack([getattr(f, name) for f in self.blocks]).T[self.block_of]
                       for name in ("leave", "decay"))
        for table in tables:
            table.flags.writeable = False
        return tables

    @functools.cached_property
    def survival_mass(self) -> np.ndarray:
        """Per-cell probability of never jumping before the horizon, computed
        once, read-only: the Koopman and committor solves to the last edge,
        synchronize there and the .json sidecar share it."""
        S = self._survival(self.indexer.M - 1)
        S.flags.writeable = False
        return S

    @property
    def nnz(self) -> int:
        """Stored entries of the explicit matrix: the entries of cell l lie in
        the rows of blocks 0..l, so nnz = sum_l (l + 1) nnz(R^l)."""
        return sum((l + 1) * R.nnz for l, R in enumerate(self.offdiag))

    @functools.cached_property
    def _row_order(self) -> tuple:
        """Every cell's entries gathered once in the row order of the explicit
        matrix: each entry's cell flat(i, l), column, jump r phi(q_i^l, dt_l)
        and within-cell value r psi(q_i^l, dt_l) / dt_l, and the (N, M) row
        lengths, the entries of row (i, k) being those of the cells l >= k."""
        n = self.indexer.N
        rows = [R.rows() for R in self.offdiag]
        # stable by row i keeps each row's entries by cell, then in R^l's order
        order = np.argsort(np.concatenate(rows), kind="stable")
        cell = np.concatenate([l * n + r for l, r in enumerate(rows)])[order]
        cols = np.concatenate([l * n + R.indices for l, R in enumerate(self.offdiag)])[order]
        by_cell = list(zip(self.offdiag, rows, self.cells))
        jump = np.concatenate([R.data * f.phi[r, 0] for R, r, f in by_cell])[order]
        within = np.concatenate([R.data * f.within[r, 0] for R, r, f in by_cell])[order]
        lengths = np.column_stack([np.diff(R.indptr) for R in self.offdiag])
        lengths = np.cumsum(lengths[:, ::-1], axis=1)[:, ::-1]
        return cell, cols, jump, within, lengths

    def block_rows(self, first: int, last: int) -> CSR:
        """The rows of time blocks first..last-1 of the explicit matrix, as a
        CSR of its full (N*M)^2 shape whose other rows are empty.

        Row (i, k) holds its entries for cells l = k..M-1 in turn, each in
        the column order of R^l.  An entry of cell k is r psi(q_i^k, dt_k) /
        dt_k; one of cell l > k is phi_k/dt_k times the decay through cells
        k+1..l-1, accumulated left to right, times its jump r phi(q_i^l, dt_l).
        """
        n, m, size = self.indexer.N, self.indexer.M, self.indexer.size
        cell, cols, jump, within, lengths = self._row_order
        counts = lengths[:, first:last].T.ravel()
        index = _index_dtype(max(size, int(counts.sum())))
        indptr = np.zeros(size + 1, dtype=index)
        np.cumsum(counts, out=indptr[first * n + 1:last * n + 1])
        indptr[last * n + 1:] = indptr[last * n]
        data, indices = np.empty(indptr[-1]), np.empty(indptr[-1], dtype=index)
        leave, decay = self.survival_factors
        for k in range(first, last):
            mine = cell >= k * n
            # row l - k - 1 of left is phi_k/dt_k times d^{k+1} ... d^{l-1};
            # the entries of cell k itself get a negative offset
            at = cell[mine] - (k + 1) * n
            left = np.cumprod(np.vstack([leave[k], decay[k + 1:m - 1]]), axis=0)
            lo, hi = indptr[k * n], indptr[(k + 1) * n]
            data[lo:hi] = np.where(at < 0, within[mine], left.ravel()[at] * jump[mine])
            indices[lo:hi] = cols[mine]
        return CSR(data, indices, indptr, (size, size))

    @functools.cached_property
    def matrix(self):
        """The explicit scipy.sparse CSR matrix, built on first use."""
        return self.block_rows(0, self.indexer.M).as_scipy()

    @functools.cached_property
    def block_cumulative(self) -> np.ndarray:
        """Dense (N*M, M) per-row jump mass into blocks <= l, built on first use."""
        return 1.0 - np.column_stack([self.block_survival(l) for l in range(self.indexer.M)])


def assemble(seq: RateMatrixSequence) -> JumpMatrix:
    """Factor the jump operator of a piecewise-constant protocol, O(M nnz(Q)),
    on the sequence's own outbound and offdiag tables.

    Cells of one phase and one width share one _Factors record, and the
    records of one phase share its R.  The closed forms are evaluated once
    per record, on its column of q; J keeps no per-cell copy of them.
    """
    dt = seq.grid.widths
    q = seq.outbound
    dense = seq.N <= _DENSE_MAX
    kernel = CSR.toarray if dense else CSR.as_scipy
    rates = {}  # phase -> R
    index = {}  # (phase, width) -> index into blocks
    blocks = []
    for l, (p, R) in enumerate(zip(seq.phase.tolist(), seq.offdiag)):
        w = dt[l]
        if (p, w) in index:
            continue
        if p not in rates:
            rates[p] = kernel(R)
        ql = q[:, l, None]
        within = psi(ql, w) / w
        # R's own pattern: JumpMatrix.block_rows writes the same data into R's slots
        B = kernel(CSR(R.data * within[R.rows(), 0], R.indices, R.indptr, R.shape))
        jump = phi(ql, w)
        index[p, w] = len(blocks)
        blocks.append(_Factors(rates[p], B, jump, np.exp(-ql * w), jump / w, within))
    log.info("assemble: N=%d M=%d phases=%d diagonal blocks=%d kernels=%s",
             seq.N, seq.grid.M, seq.phase.max() + 1, len(blocks), "dense" if dense else "sparse")
    block_of = np.array([index[p, w] for p, w in zip(seq.phase.tolist(), dt)])
    return JumpMatrix(SpaceTimeIndexer(seq.N, seq.grid.M), seq.grid, q, seq.offdiag,
                      tuple(blocks), block_of)
