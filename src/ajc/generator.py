"""Time-dependent infinitesimal generators and their per-cell rate tables.

A non-autonomous jump process is described here by a piecewise-constant
rate matrix protocol: a time grid with M cells and one sparse rate matrix
per cell.  Only off-diagonal rates are read: a sequence holds each phase as
its off-diagonal rates R and outbound rates q, R's row sums, so rows close
by construction, and forms the generator Q = R - diag(q) only on request.

R is a CSR, plain numpy arrays: the sampler, the validation and the dense
records of the jump operator read them as they are.  scipy.sparse loads
only where sparse arithmetic runs on them (CSR.as_scipy, which wraps the
same arrays, and the generators of RateMatrixSequence.matrices) or where
the input itself is a scipy matrix.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Ordered partition of a finite time interval into M cells.

    Cell k (0-based) covers the half-open interval (edges[k], edges[k+1]],
    so a rate valid "at" a boundary is the one of the cell ending there.

    edges is a read-only copy of the input; widths, read-only too, holds u =
    (horizon - t0) / M for every cell if each edge difference lies within 8
    ulps of max(|t0|, |horizon|) of u, and the differences otherwise, so a
    phase on edges uniform to rounding has one diagonal block and one
    exponential.  Grids compare and hash by identity.

    A cell width whose square overflows is refused, since the jump
    operator's closed forms hold dt^2; so is a uniform grid of fewer than
    one cell, or of more than numpy can allocate edges for, which fails
    before anything is allocated.
    """

    edges: np.ndarray
    widths: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        edges = np.array(self.edges, dtype=float)
        if edges.ndim != 1 or edges.size < 2:
            raise ValueError("time grid needs at least two edges")
        with np.errstate(over="ignore"):  # an infinite width is refused below
            widths = np.diff(edges)
        if not np.all(widths > 0):
            raise ValueError("time grid edges must be strictly increasing")
        widest = float(widths.max())
        if not np.isfinite(widest * widest):
            raise ValueError(f"time grid cell width {widest!r} is too wide: its square overflows")
        u = (edges[-1] - edges[0]) / widths.size
        if np.all(np.abs(widths - u) <= 8 * np.spacing(max(abs(edges[0]), abs(edges[-1])))):
            widths = np.full(widths.size, u)
        edges.flags.writeable = widths.flags.writeable = False
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "widths", widths)

    @classmethod
    def uniform(cls, t0: float, t1: float, cells: int) -> "TimeGrid":
        if cells < 1:
            raise ValueError(f"cells must be positive, got {cells}")
        for name, t in (("t0", t0), ("t1", t1)):
            if not np.isfinite(t):
                raise ValueError(f"{name} must be finite, got {t}")
        try:
            edges = np.linspace(t0, t1, cells + 1)
        except (MemoryError, ValueError):  # numpy's refusal, before it allocates
            raise ValueError(f"{cells:.6g} cells are more than numpy can allocate") from None
        return cls(edges)

    @property
    def M(self) -> int:
        return self.edges.size - 1

    @property
    def t0(self) -> float:
        return float(self.edges[0])

    @property
    def horizon(self) -> float:
        return float(self.edges[-1])


def _index_dtype(largest: int):
    """The index dtype scipy's CSR constructor picks for indices and indptr
    entries up to largest: int32 wherever they fit."""
    return np.int32 if largest <= np.iinfo(np.int32).max else np.int64


@dataclass(frozen=True, eq=False)
class CSR:
    """A sparse matrix in canonical compressed rows, as plain numpy arrays:
    row i holds data[indptr[i]:indptr[i + 1]] in the columns indices[...],
    sorted, without duplicates, and indices and indptr are int32 wherever
    they fit.  as_scipy wraps the same arrays for sparse arithmetic.
    Records compare and hash by identity."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple

    @property
    def nnz(self) -> int:
        return self.data.size

    def rows(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.rows(), self.indices] = self.data
        return out

    def as_scipy(self):
        """A scipy.sparse CSR matrix on the record's own arrays, no copy;
        scipy.sparse loads here on first use."""
        import scipy.sparse as sp
        return sp.csr_matrix((self.data, self.indices, self.indptr), shape=self.shape)


def _split(rates) -> tuple[CSR, np.ndarray]:
    """The off-diagonal nonzeros of a rate matrix as a CSR R, and R's row
    sums q, the outbound rates; a diagonal is ignored.

    R is masked out of a copy of the input's CSR form with its duplicates
    summed, so it shares no array with the caller, and is that copy whole
    when there is nothing to drop.  The branch depends on the input's type
    alone: a CSR is copied array by array; a scipy matrix (one with a tocsr
    method) goes through scipy's CSR constructor; anything else is read as
    a dense 2-D array, whose nonzeros in row-major order are that CSR form.
    """
    if isinstance(rates, CSR):
        shape = rates.shape
        data, indices, indptr = rates.data.copy(), rates.indices.copy(), rates.indptr.copy()
    elif hasattr(rates, "tocsr"):
        import scipy.sparse as sp
        A = sp.csr_matrix(rates, dtype=float, copy=True)
        A.sum_duplicates()
        shape, data, indices, indptr = A.shape, A.data, A.indices, A.indptr
    else:
        A = np.asarray(rates, dtype=float)
        if A.ndim != 2:
            raise ValueError(f"a rate matrix must be two-dimensional, got shape {A.shape}")
        shape, (rows, indices) = A.shape, np.nonzero(A)
        data, indptr = A[rows, indices], np.zeros(shape[0] + 1, dtype=int)
        np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    n = shape[0]
    rows = np.repeat(np.arange(n), np.diff(indptr))
    keep = (rows != indices) & (data != 0)
    if not keep.all():
        data, indices = data[keep], indices[keep]
        indptr = np.zeros_like(indptr)
        np.cumsum(np.bincount(rows[keep], minlength=n), out=indptr[1:])
    index = _index_dtype(max(*shape, data.size))
    R = CSR(data, indices.astype(index, copy=False), indptr.astype(index, copy=False),
            tuple(shape))
    # R.sum(axis=1)'s own arithmetic: reduceat over the rows that hold an
    # entry, +0.0 for the others (reduceat would give the next row's first)
    q = np.zeros(n)
    filled = np.flatnonzero(np.diff(R.indptr))
    with np.errstate(over="ignore", invalid="ignore"):  # RateMatrixSequence reports these
        q[filled] = np.add.reduceat(R.data, R.indptr[filled])
    return R, q


@dataclass(frozen=True, eq=False)
class RateMatrixSequence:
    """Piecewise-constant generator: offdiag[k] is valid on grid cell k.

    The constructor takes one rate matrix per cell as offdiag, a CSR, a
    scipy sparse matrix or a dense array, and reads only its off-diagonal
    nonzeros; its diagonal is ignored.  The protocol's
    phases are its distinct rate matrices, told apart by object identity,
    and each is split once into its off-diagonal rates R and outbound rates
    q, R's row sums.  These are what the jump operator and the sampler
    read: phase[k] is cell k's phase, offdiag[k] its R, a CSR (cells of one
    phase share one R), and outbound[:, k] its q, in a read-only C-ordered (N, M)
    table.  The generator Q = R - diag(q) is formed only on request
    (matrices), and so are the sampler's tables: each phase's embedded chain
    (embedded_chain) and the grid, rates and hazard increments its walk
    reads (sampler_table).  Sequences compare and hash by identity.

    A sequence is valid by construction: the constructor refuses a protocol
    of no states, and raises InvalidProtocol on a negative or non-finite
    rate or an outbound rate that overflows, each phase's violations filed
    under its first cell.
    """

    grid: TimeGrid
    offdiag: tuple = field(repr=False)
    phase: np.ndarray = field(init=False, repr=False)
    outbound: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        first = {}  # id of an input matrix -> its phase
        split, cells = [], []  # per phase: its R and q, its first cell
        for k, A in enumerate(self.offdiag):
            if id(A) not in first:
                first[id(A)] = len(split)
                split.append(_split(A))
                cells.append(k)
        phase = np.array([first[id(A)] for A in self.offdiag], dtype=int)
        if phase.size != self.grid.M:
            raise ValueError("need exactly one rate matrix per time cell")
        n = split[0][0].shape[0]
        if n == 0:
            raise ValueError("a protocol needs at least one state")
        for R, _ in split:
            if R.shape != (n, n):
                raise ValueError("all rate matrices must share the same dimension")
        bad = [v for k, (R, q) in zip(cells, split) for v in _phase_violations(R, q, k)]
        if bad:
            raise InvalidProtocol(bad)
        phase.flags.writeable = False
        # take, not q[:, phase]: C order, so each state's row, which the
        # sampler reads, is contiguous
        q = np.take(np.column_stack([q for _, q in split]), phase, axis=1)
        q.flags.writeable = False
        object.__setattr__(self, "phase", phase)
        object.__setattr__(self, "offdiag", tuple(split[p][0] for p in phase))
        object.__setattr__(self, "outbound", q)

    @property
    def N(self) -> int:
        return self.offdiag[0].shape[0]

    @functools.cached_property
    def matrices(self) -> tuple:
        """Per-cell generators Q^k = R^k - diag(q^k) as scipy.sparse CSR
        matrices, formed on first use; cells of one phase share one Q."""
        import scipy.sparse as sp
        first = np.unique(self.phase, return_index=True)[1]  # a cell of each phase
        Q = [(self.offdiag[m].as_scipy() - sp.diags(self.outbound[:, m])).tocsr()
             for m in first]
        return tuple(Q[p] for p in self.phase)

    @functools.cached_property
    def sampler_table(self) -> tuple:
        """What the sampler's walk over the cells reads, built by the first
        sample: (edges, phase, rates, increments), the edges and phases as
        plain lists, and per state i read-only float64 memoryviews of its
        outbound rates q_i^k (rows of outbound) and of each whole cell's
        hazard increment q_i^k * (t_{k+1} - t_k), one float per state and
        cell.  The widths are the edges' differences, not grid.widths, so
        each increment is the walk's own product bit for bit."""
        with np.errstate(over="ignore"):  # an infinite increment is a sure jump
            increments = self.outbound * np.diff(self.grid.edges)
        increments.flags.writeable = False
        return (self.grid.edges.tolist(), self.phase.tolist(),
                tuple(map(memoryview, self.outbound)), tuple(map(memoryview, increments)))

    @functools.cached_property
    def embedded_chain(self) -> tuple:
        """Per phase and state, the sampler's row of the embedded jump chain
        q_ij / q_i: (cdf, to), plain lists of the row's CDF over its
        nonzeros and of their target states, in R's order, so O(nnz(R))
        floats per phase.  Built by the first sample."""
        first = np.unique(self.phase, return_index=True)[1]  # a cell of each phase
        chain = []
        for m in first:
            R = self.offdiag[m]
            # times 1/q_i, not divided by q_i, and summed in order row by row:
            # other roundings could move a draw.  A row without outbound
            # rate is never drawn from.
            with np.errstate(all="ignore"):
                x = (R.data * np.repeat(1 / self.outbound[:, m], np.diff(R.indptr))).tolist()
            ptr, to = R.indptr.tolist(), R.indices.tolist()
            chain.append(tuple((list(itertools.accumulate(x[lo:hi])), to[lo:hi])
                               for lo, hi in zip(ptr, ptr[1:])))
        return tuple(chain)


@dataclass(frozen=True)
class Violation:
    """One invariant defect of a protocol, filed under a time cell."""

    matrix: int
    kind: str  # "rowsum", "negativity" or "nonfinite"
    row: int
    col: int | None
    magnitude: float

    def __str__(self):
        where = f"matrix {self.matrix}, row {self.row}"
        if self.col is not None:
            where += f", col {self.col}"
        return f"{self.kind} violation at {where}: {self.magnitude:.3e}"


class InvalidProtocol(ValueError):
    """A protocol that breaks the generator invariants, one Violation each."""

    def __init__(self, violations: list[Violation]):
        super().__init__("invalid protocol: " + "; ".join(str(v) for v in violations))
        self.violations = violations


def _phase_violations(R: CSR, q: np.ndarray, cell: int) -> list[Violation]:
    """Violations of one phase with off-diagonal rates R and outbound rates
    q, each filed under the time cell cell: the sign and finiteness of every
    rate, and the finiteness of every outbound rate."""
    if np.isfinite(q).all() and np.isfinite(R.data).all() and (R.data >= 0).all():
        return []
    row, col, data = R.rows(), R.indices, R.data
    finite = np.isfinite(data)
    # rows close by construction, so the one row defect left is a row of
    # finite rates whose sum overflows; a non-finite rate is reported itself
    off = ~np.isfinite(q)
    off[row[~finite]] = False
    out = [Violation(cell, "rowsum", int(i), None, abs(float(q[i]))) for i in np.flatnonzero(off)]
    neg = finite & (data < 0)
    out += [Violation(cell, "negativity", int(i), int(j), float(-v))
            for i, j, v in zip(row[neg], col[neg], data[neg])]
    out += [Violation(cell, "nonfinite", int(i), int(j), float(v))
            for i, j, v in zip(row[~finite], col[~finite], data[~finite])]
    return out


def four_neighbor_adjacency(nx: int, ny: int) -> CSR:
    """Symmetric 0/1 adjacency of the nx-by-ny rectangular grid, as a CSR.

    State index is row-major: index = row * nx + col with row in [0, ny).
    """
    i = np.arange(nx * ny)
    row, col = np.divmod(i, nx)
    # each state's neighbours in ascending order: up, left, right, down
    cols = np.stack([i - nx, i - 1, i + 1, i + nx], axis=1)
    ok = np.stack([row > 0, col > 0, col < nx - 1, row < ny - 1], axis=1)
    index = _index_dtype(ok.size)
    indptr = np.zeros(nx * ny + 1, dtype=index)
    np.cumsum(ok.sum(axis=1), out=indptr[1:])
    return CSR(np.ones(indptr[-1]), cols[ok].astype(index), indptr, (nx * ny, nx * ny))


@dataclass(frozen=True, eq=False)
class GridPotential:
    """Potential sampled on a rectangular grid of nx by ny states, at least
    one each way, with read-only values, 4-neighbor adjacency (a CSR) and a
    cell size h > 0 with h^2 finite.  Potentials compare and hash by identity."""

    nx: int
    ny: int
    h: float
    values: np.ndarray
    adjacency: CSR = field(init=False)

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValueError(f"grid sizes nx and ny must be positive, got nx={self.nx}, "
                             f"ny={self.ny}")
        values = np.array(self.values, dtype=float).ravel()
        if values.size != self.nx * self.ny:
            raise ValueError("potential values must have nx*ny entries")
        if not 0 < self.h < np.inf:
            raise ValueError(f"cell size h must be positive and finite, got h={self.h}")
        if not np.isfinite(float(self.h) * float(self.h)):
            raise ValueError(f"cell size h={self.h!r} is too large: its square overflows")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "adjacency", four_neighbor_adjacency(self.nx, self.ny))


def sqra_rates(p: GridPotential, betas) -> tuple:
    """Off-diagonal square-root-approximation rates for a potential on a
    grid, one CSR per entry of the inverse temperature schedule betas;
    entries of one beta share one object, so a protocol of them has one
    phase per beta.

    Rates are Phi * A_ij * exp(-beta (V_j - V_i) / 2) with the flat-potential
    rate Phi = 1 / (beta h^2).  They are formed for each distinct beta by one
    broadcast over the adjacency's own pattern, whose indices and indptr
    each returned matrix shares.  No diagonal: a RateMatrixSequence reads
    only off-diagonal rates.
    """
    betas = np.asarray(betas, dtype=float)
    if not np.all(betas > 0):
        raise ValueError("beta must be positive")
    distinct, which = np.unique(betas, return_inverse=True)
    A, v = p.adjacency, p.values
    phi = 1.0 / (distinct * p.h ** 2)
    with np.errstate(over="ignore"):  # RateMatrixSequence reports an inf rate
        data = phi[:, None] * np.exp(-0.5 * distinct[:, None] * (v[A.indices] - v[A.rows()]))
    rates = [CSR(d, A.indices, A.indptr, A.shape) for d in data]
    return tuple(rates[i] for i in which)
