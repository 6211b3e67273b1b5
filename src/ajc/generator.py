"""Time-dependent infinitesimal generators and their per-cell rate tables.

A non-autonomous jump process is described here by a piecewise-constant
rate matrix protocol: a time grid with M cells and one sparse rate matrix
per cell.  Only off-diagonal rates are read: a sequence holds each phase as
its off-diagonal rates R and outbound rates q, R's row sums, so rows close
by construction, and forms the generator Q = R - diag(q) only on request.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Ordered partition of a finite time interval into M cells.

    Cell k (0-based) covers the half-open interval (edges[k], edges[k+1]],
    so a rate valid "at" a boundary is the one of the cell ending there.

    width is the one width of every cell of a grid built by uniform, which
    records it as (t1 - t0) / cells, and None for a grid built from explicit
    edges, whose widths are the edge differences.  Linspace edges differ
    from that width in the last bit, and cells of equal width must stay
    equal bit for bit, so that a phase's cells share one diagonal block and
    one exponential.  Grids compare and hash by identity.
    """

    edges: np.ndarray
    width: float | None = field(default=None, init=False)

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        if edges.ndim != 1 or edges.size < 2:
            raise ValueError("time grid needs at least two edges")
        if not np.all(np.diff(edges) > 0):
            raise ValueError("time grid edges must be strictly increasing")
        object.__setattr__(self, "edges", edges)

    @classmethod
    def uniform(cls, t0: float, t1: float, cells: int) -> "TimeGrid":
        grid = cls(np.linspace(t0, t1, cells + 1))
        object.__setattr__(grid, "width", (grid.horizon - grid.t0) / cells)
        return grid

    @property
    def M(self) -> int:
        return self.edges.size - 1

    @property
    def widths(self) -> np.ndarray:
        if self.width is None:
            return np.diff(self.edges)
        return np.full(self.M, self.width)

    @property
    def t0(self) -> float:
        return float(self.edges[0])

    @property
    def horizon(self) -> float:
        return float(self.edges[-1])


def _split(rates) -> tuple[sp.csr_matrix, np.ndarray]:
    """The off-diagonal nonzeros of a rate matrix as a CSR R with sorted
    columns, and R's row sums q, the outbound rates; a diagonal is ignored.

    R is masked out of a copy of the input's CSR form with its duplicates
    summed, so it shares no array with the caller, and is that copy whole
    when there is nothing to drop.
    """
    A = sp.csr_matrix(rates, dtype=float, copy=True)
    A.sum_duplicates()
    n = A.shape[0]
    data, indices, indptr = A.data, A.indices, A.indptr
    rows = np.repeat(np.arange(n), np.diff(indptr))
    keep = (rows != indices) & (data != 0)
    if not keep.all():
        data, indices = data[keep], indices[keep]
        indptr = np.zeros_like(indptr)
        np.cumsum(np.bincount(rows[keep], minlength=n), out=indptr[1:])
    # the constructor picks the index dtype, int32 wherever the indices fit
    R = sp.csr_matrix((data, indices, indptr), shape=A.shape)
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

    The constructor takes one rate matrix per cell as offdiag and reads only
    its off-diagonal nonzeros; its diagonal is ignored.  The protocol's
    phases are its distinct rate matrices, told apart by object identity,
    and each is split once into its off-diagonal rates R and outbound rates
    q, R's row sums.  These are what the jump operator and the sampler
    read: phase[k] is cell k's phase, offdiag[k] its R (cells of one phase
    share one R) and outbound[:, k] its q, in a read-only C-ordered (N, M)
    table.  The generator Q = R - diag(q) is formed only on request
    (matrices), and so is the sampler's table of each phase's embedded chain
    (embedded_chain).  Sequences compare and hash by identity.

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
        # take, not q[:, phase]: the sampler reads outbound.ravel() per
        # trajectory, which copies an F-ordered table every time
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
        """Per-cell generators Q^k = R^k - diag(q^k), formed on first use;
        cells of one phase share one Q."""
        first = np.unique(self.phase, return_index=True)[1]  # a cell of each phase
        Q = [(self.offdiag[m] - sp.diags(self.outbound[:, m])).tocsr() for m in first]
        return tuple(Q[p] for p in self.phase)

    @functools.cached_property
    def embedded_chain(self) -> tuple:
        """Per phase, the sampler's table of the embedded jump chain q_ij / q_i:
        memoryviews of R's own indptr and indices and of each row's CDF over
        its nonzeros, one float per nonzero of R in R's order.  Built by the
        first sample."""
        first = np.unique(self.phase, return_index=True)[1]  # a cell of each phase
        chain = []
        for m in first:
            R = self.offdiag[m]
            # times 1/q_i, not divided by q_i, and summed in order row by row:
            # other roundings could move a draw.  A row without outbound
            # rate is never drawn from.
            with np.errstate(all="ignore"):
                x = (R.data * np.repeat(1 / self.outbound[:, m], np.diff(R.indptr))).tolist()
            ptr = R.indptr.tolist()
            cdf = np.array([c for lo, hi in zip(ptr, ptr[1:])
                            for c in itertools.accumulate(x[lo:hi])], dtype=float)
            chain.append((memoryview(R.indptr), memoryview(R.indices), memoryview(cdf)))
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


def _phase_violations(R: sp.csr_matrix, q: np.ndarray, cell: int) -> list[Violation]:
    """Violations of one phase with off-diagonal rates R and outbound rates
    q, each filed under the time cell cell: the sign and finiteness of every
    rate, and the finiteness of every outbound rate."""
    if np.isfinite(q).all() and np.isfinite(R.data).all() and (R.data >= 0).all():
        return []
    coo = R.tocoo()
    finite = np.isfinite(coo.data)
    # rows close by construction, so the one row defect left is a row of
    # finite rates whose sum overflows; a non-finite rate is reported itself
    off = ~np.isfinite(q)
    off[coo.row[~finite]] = False
    out = [Violation(cell, "rowsum", int(i), None, abs(float(q[i]))) for i in np.flatnonzero(off)]
    neg = finite & (coo.data < 0)
    out += [Violation(cell, "negativity", int(i), int(j), float(-v))
            for i, j, v in zip(coo.row[neg], coo.col[neg], coo.data[neg])]
    out += [Violation(cell, "nonfinite", int(i), int(j), float(v))
            for i, j, v in zip(coo.row[~finite], coo.col[~finite], coo.data[~finite])]
    return out


def four_neighbor_adjacency(nx: int, ny: int) -> sp.csr_matrix:
    """Symmetric 0/1 adjacency of the nx-by-ny rectangular grid, as a CSR
    with sorted columns.

    State index is row-major: index = row * nx + col with row in [0, ny).
    """
    i = np.arange(nx * ny)
    row, col = np.divmod(i, nx)
    # each state's neighbours in ascending order: up, left, right, down
    cols = np.stack([i - nx, i - 1, i + 1, i + nx], axis=1)
    ok = np.stack([row > 0, col > 0, col < nx - 1, row < ny - 1], axis=1)
    indptr = np.zeros(nx * ny + 1, dtype=int)
    np.cumsum(ok.sum(axis=1), out=indptr[1:])
    return sp.csr_matrix((np.ones(indptr[-1]), cols[ok], indptr), shape=(nx * ny, nx * ny))


@dataclass(frozen=True, eq=False)
class GridPotential:
    """Potential sampled on a rectangular grid of nx by ny states, at least
    one each way, with 4-neighbor adjacency.  Potentials compare and hash by
    identity."""

    nx: int
    ny: int
    h: float
    values: np.ndarray
    adjacency: sp.csr_matrix = field(init=False)

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValueError(f"grid sizes nx and ny must be positive, got nx={self.nx}, "
                             f"ny={self.ny}")
        values = np.asarray(self.values, dtype=float).ravel()
        if values.size != self.nx * self.ny:
            raise ValueError("potential values must have nx*ny entries")
        if self.h <= 0:
            raise ValueError("cell size h must be positive")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "adjacency", four_neighbor_adjacency(self.nx, self.ny))

    @property
    def N(self) -> int:
        return self.nx * self.ny


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
    rows = np.repeat(np.arange(p.N), np.diff(A.indptr))
    phi = 1.0 / (distinct * p.h ** 2)
    with np.errstate(over="ignore"):  # RateMatrixSequence reports an inf rate
        data = phi[:, None] * np.exp(-0.5 * distinct[:, None] * (v[A.indices] - v[rows]))
    rates = [sp.csr_matrix((d, A.indices, A.indptr), shape=A.shape) for d in data]
    return tuple(rates[i] for i in which)
