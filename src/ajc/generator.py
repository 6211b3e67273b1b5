"""Time-dependent infinitesimal generators and their per-cell rate tables.

A non-autonomous jump process is described here by a piecewise-constant
rate matrix protocol: a time grid with M cells and one sparse rate matrix
per cell.  Only off-diagonal rates are read: a sequence holds each phase as
its off-diagonal rates R and outbound rates q, R's row sums, so rows close
by construction, and forms the generator Q = R - diag(q) only on request.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class TimeGrid:
    """Ordered partition of a finite time interval into M cells.

    Cell k (0-based) covers the half-open interval (edges[k], edges[k+1]],
    so a rate valid "at" a boundary is the one of the cell ending there.

    width is the one width of every cell of a grid built by uniform, which
    records it as (t1 - t0) / cells, and None for a grid built from explicit
    edges, whose widths are the edge differences.  Linspace edges differ
    from that width in the last bit, and cells of equal width must stay
    equal bit for bit, so that a phase's cells share one diagonal block and
    one exponential.
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

    def interval_of(self, t: float) -> int:
        """Index k of the cell (edges[k], edges[k+1]] containing t.

        The left endpoint t0 is assigned to the first cell.
        """
        if t < self.edges[0] or t > self.edges[-1]:
            raise ValueError(f"time {t} outside grid [{self.edges[0]}, {self.edges[-1]}]")
        k = int(np.searchsorted(self.edges, t, side="left")) - 1
        return max(k, 0)


def _split(rates) -> tuple[sp.csr_matrix, np.ndarray]:
    """The off-diagonal nonzeros of a rate matrix as a CSR R with sorted
    columns, and R's row sums q, the outbound rates; a diagonal is ignored."""
    A = sp.coo_matrix(rates, dtype=float)
    keep = (A.row != A.col) & (A.data != 0)
    R = sp.csr_matrix((A.data[keep], (A.row[keep], A.col[keep])), shape=A.shape)
    with np.errstate(over="ignore", invalid="ignore"):  # validate_generator reports these
        q = np.asarray(R.sum(axis=1)).ravel()
    return R, q


@dataclass(frozen=True)
class RateMatrixSequence:
    """Piecewise-constant generator: rates[k] is valid on grid cell k.

    Only the off-diagonal nonzeros of a rate matrix are read; its diagonal
    is ignored.  The protocol's phases are its distinct rate matrices, told
    apart by object identity, and each is split once into its off-diagonal
    rates R and outbound rates q, R's row sums.  These are what the jump
    operator and the sampler read: phase[k] is cell k's phase, offdiag[k]
    its R (cells of one phase share one R) and outbound[:, k] its q.  The
    generator Q = R - diag(q) is formed only on request (matrices).
    """

    grid: TimeGrid
    rates: dataclasses.InitVar[Sequence]
    phase: np.ndarray = field(init=False, repr=False)
    offdiag: tuple = field(init=False, repr=False)
    outbound: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, rates):
        first = {}  # id of an input matrix -> its phase
        split = []
        for A in rates:
            if id(A) not in first:
                first[id(A)] = len(split)
                split.append(_split(A))
        phase = np.array([first[id(A)] for A in rates], dtype=int)
        if phase.size != self.grid.M:
            raise ValueError("need exactly one rate matrix per time cell")
        n = split[0][0].shape[0]
        for R, _ in split:
            if R.shape != (n, n):
                raise ValueError("all rate matrices must share the same dimension")
        phase.flags.writeable = False
        q = np.column_stack([split[p][1] for p in phase])
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


@dataclass(frozen=True)
class Violation:
    """One invariant defect found by validate_generator."""

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


def _phase_violations(R: sp.csr_matrix, q: np.ndarray) -> list[Violation]:
    """Violations of one phase with off-diagonal rates R and outbound rates
    q, each filed under matrix 0."""
    coo = R.tocoo()
    finite = np.isfinite(coo.data)
    # rows close by construction, so the one row defect left is a row of
    # finite rates whose sum overflows; a non-finite rate is reported itself
    off = ~np.isfinite(q)
    off[coo.row[~finite]] = False
    out = [Violation(0, "rowsum", int(i), None, abs(float(q[i]))) for i in np.flatnonzero(off)]
    neg = finite & (coo.data < 0)
    out += [Violation(0, "negativity", int(i), int(j), float(-v))
            for i, j, v in zip(coo.row[neg], coo.col[neg], coo.data[neg])]
    out += [Violation(0, "nonfinite", int(i), int(j), float(v))
            for i, j, v in zip(coo.row[~finite], coo.col[~finite], coo.data[~finite])]
    return out


def validate_generator(seq: RateMatrixSequence) -> list[Violation]:
    """Check the sign and finiteness of every rate in the sequence, and that
    every outbound rate is finite.

    Each phase is checked once, and its violations are filed under the
    first cell of that phase.  Returns an empty list iff the sequence is a
    valid piecewise-constant generator.
    """
    first = np.unique(seq.phase, return_index=True)[1]  # a cell of each phase
    return [dataclasses.replace(v, matrix=int(m)) for m in first
            for v in _phase_violations(seq.offdiag[m], seq.outbound[:, m])]


def four_neighbor_adjacency(nx: int, ny: int) -> sp.csr_matrix:
    """Symmetric 0/1 adjacency of the nx-by-ny rectangular grid.

    State index is row-major: index = row * nx + col with row in [0, ny).
    """
    index = np.arange(nx * ny).reshape(ny, nx)
    a = np.concatenate([index[:, :-1].ravel(), index[:-1].ravel()])  # left, upper ends
    b = np.concatenate([index[:, 1:].ravel(), index[1:].ravel()])
    rows, cols = np.concatenate([a, b]), np.concatenate([b, a])
    adj = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(nx * ny, nx * ny))
    adj.sort_indices()
    return adj


@dataclass(frozen=True, eq=False)
class GridPotential:
    """Potential sampled on a rectangular grid with 4-neighbor adjacency.

    Two potentials are equal when their nx, ny, h and values bytes are.
    """

    nx: int
    ny: int
    h: float
    values: np.ndarray
    adjacency: sp.csr_matrix = field(init=False)

    def __post_init__(self):
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

    def _key(self) -> tuple:
        return self.nx, self.ny, self.h, self.values.tobytes()

    def __eq__(self, other) -> bool:
        if not isinstance(other, GridPotential):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


def sqra_rates(p: GridPotential, beta: float) -> sp.csr_matrix:
    """Off-diagonal square-root-approximation rates for a potential on a grid.

    Rates are Phi * A_ij * exp(-beta (V_j - V_i) / 2) with the flat-potential
    rate Phi = 1 / (beta h^2); the pattern equals the adjacency pattern.  No
    diagonal: a RateMatrixSequence reads only off-diagonal rates.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    phi = 1.0 / (beta * p.h ** 2)
    A = p.adjacency.tocoo()
    v = p.values
    with np.errstate(over="ignore"):  # validate_generator reports an inf rate
        data = phi * np.exp(-0.5 * beta * (v[A.col] - v[A.row]))
    return sp.csr_matrix((data, (A.row, A.col)), shape=A.shape)


def rate_sequence_from_protocol(
    grid: TimeGrid,
    builder: Callable[[int, tuple[float, float]], sp.spmatrix],
) -> RateMatrixSequence:
    """Build a RateMatrixSequence by calling builder(k, (t_k, t_{k+1})) per cell.

    The builder returns off-diagonal rates; a diagonal is ignored.  The
    sequence splits each distinct object the builder returns once, so a
    builder that returns one object for all cells of a phase makes that
    phase one shared R and q.  Builder failures and invariant violations
    are reported with the cell index.
    """
    rates = []
    for k in range(grid.M):
        span = (float(grid.edges[k]), float(grid.edges[k + 1]))
        try:
            rates.append(builder(k, span))
        except Exception as exc:
            raise ValueError(f"builder failed on time cell {k} {span}: {exc}") from exc
    seq = RateMatrixSequence(grid, rates)
    bad = validate_generator(seq)
    if bad:
        raise InvalidProtocol(bad)
    return seq
