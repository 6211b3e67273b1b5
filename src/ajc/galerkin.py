"""Sparse Ulam-Galerkin assembly of the space-time jump matrix.

Space-time cells are indexed time-block outer, space inner:
flat(i, k) = k * N + i (0-based).  The matrix is block upper-triangular in
the time blocks; within a (k, l) block the sparsity pattern is that of the
off-diagonal of the generator valid on cell l.

Entries are evaluated through the singularity-free helpers

    phi(q, dt) = (1 - exp(-q dt)) / q        phi(0, dt) = dt
    psi(q, dt) = (exp(-q dt) + q dt - 1)/q^2 psi(0, dt) = dt^2 / 2

so absorbing phases need no special casing: with rates r = q_ij on cell l,

    entry(k=l) = r * psi(q_i^l, dt_l) / dt_l
    entry(k<l) = r * phi(q_i^k, dt_k) * phi(q_i^l, dt_l)
                   * exp(-sum_{k<m<l} q_i^m dt_m) / dt_k
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .generator import RateMatrixSequence, TimeGrid

_SERIES_CUT = 1e-4


def phi(q, dt):
    """(1 - exp(-q dt)) / q with the finite limit dt at q = 0."""
    q = np.asarray(q, dtype=float)
    dt = np.asarray(dt, dtype=float)
    x = q * dt
    small = x < _SERIES_CUT
    with np.errstate(divide="ignore", invalid="ignore"):
        exact = -np.expm1(-x) / np.where(small, 1.0, q)
    series = dt * (1.0 - x / 2.0 + x * x / 6.0)
    return np.where(small, series, exact)


def psi(q, dt):
    """(exp(-q dt) + q dt - 1) / q^2 with the finite limit dt^2/2 at q = 0."""
    q = np.asarray(q, dtype=float)
    dt = np.asarray(dt, dtype=float)
    x = q * dt
    small = x < _SERIES_CUT
    # expm1 keeps the cancellation in exp(-x) + x - 1 down to O(x eps)
    with np.errstate(divide="ignore", invalid="ignore"):
        exact = (np.expm1(-x) + x) / np.where(small, 1.0, q * q)
    series = dt * dt * (0.5 - x / 6.0 + x * x / 24.0)
    return np.where(small, series, exact)


@dataclass(frozen=True)
class SpaceTimeIndexer:
    """Bijection between (state, block) pairs and flat indices."""

    N: int
    M: int

    @property
    def size(self) -> int:
        return self.N * self.M

    def flat(self, i, k):
        return np.asarray(k) * self.N + np.asarray(i)

    def unflat(self, a):
        a = np.asarray(a)
        return a % self.N, a // self.N


@dataclass(frozen=True)
class JumpMatrix:
    """Galerkin matrix over space-time cells plus derived survival masses.

    matrix[flat(i,k), flat(j,l)] is the probability that a walker starting
    uniformly in cell (i, k) makes its next jump into cell (j, l).
    block_cumulative[:, l] holds the per-row jump mass into blocks <= l;
    survival_mass is the probability of never jumping before the horizon.
    """

    indexer: SpaceTimeIndexer
    grid: TimeGrid
    matrix: sp.csr_matrix
    outbound: np.ndarray  # (N, M) rates, kept for closed-form survival
    block_cumulative: np.ndarray  # (N*M, M)

    @property
    def survival_mass(self) -> np.ndarray:
        return 1.0 - self.block_cumulative[:, -1]

    def block_survival(self, l: int) -> np.ndarray:
        """Per-cell probability of not having jumped into blocks <= l."""
        return 1.0 - self.block_cumulative[:, l]


def cumulative_block_mass(matrix: sp.csr_matrix, idx: SpaceTimeIndexer) -> np.ndarray:
    """(N*M, M) per-row jump mass into blocks <= l, the block_cumulative of
    a JumpMatrix."""
    flat = np.arange(idx.size)
    agg = sp.csr_matrix((np.ones(idx.size), (flat, flat // idx.N)), shape=(idx.size, idx.M))
    return np.cumsum(np.asarray((matrix @ agg).todense()), axis=1)


def assemble(seq: RateMatrixSequence) -> JumpMatrix:
    """Assemble the sparse jump matrix for a piecewise-constant protocol."""
    grid = seq.grid
    N, M = seq.N, grid.M
    idx = SpaceTimeIndexer(N, M)
    dt = grid.widths
    q = seq.outbound  # (N, M)
    ph = phi(q, dt[None, :])
    ps = psi(q, dt[None, :])
    # cumulative hazard H[i, l] = sum_{m <= l} q_i^m dt_m
    H = np.cumsum(q * dt[None, :], axis=1)

    rows, cols, vals = [], [], []
    for l in range(M):
        off = seq.matrices[l].tocoo()
        mask = off.row != off.col
        ri, rj, rv = off.row[mask], off.col[mask], off.data[mask]
        if ri.size == 0:
            continue
        # k = l: within-block jumps
        rows.append(idx.flat(ri, l))
        cols.append(idx.flat(rj, l))
        vals.append(rv * ps[ri, l] / dt[l])
        # k < l: start in an earlier block, survive the gap, land in block l
        for k in range(l):
            gap = H[ri, l - 1] - H[ri, k]
            rows.append(idx.flat(ri, k))
            cols.append(idx.flat(rj, l))
            vals.append(rv * ph[ri, k] * ph[ri, l] * np.exp(-gap) / dt[k])
    if rows:
        rows = np.concatenate(rows)
        cols = np.concatenate(cols)
        vals = np.concatenate(vals)
    else:
        rows = cols = vals = np.zeros(0)
    J = sp.coo_matrix((vals, (rows, cols)), shape=(idx.size, idx.size)).tocsr()
    J.sort_indices()
    return JumpMatrix(idx, grid, J, q.copy(), cumulative_block_mass(J, idx))


def closed_form_survival(J: JumpMatrix, i: int, k: int) -> float:
    """Exact probability to never jump before the horizon from cell (i, k).

    Averages the survival S(i, tau, t_M) over a uniform start tau in cell k:
    phi(q_i^k, dt_k)/dt_k times the survival through all later cells.
    """
    dt = J.grid.widths
    q = J.outbound
    tail = float(np.dot(q[i, k + 1:], dt[k + 1:]))
    return float(phi(q[i, k], dt[k]) / dt[k] * np.exp(-tail))


def row_mass(J: JumpMatrix, i: int, k: int) -> tuple[float, float]:
    """(jump mass, closed-form survival mass) of row (i, k); they sum to 1."""
    a = int(J.indexer.flat(i, k))
    jump = float(J.matrix[a].sum())
    return jump, closed_form_survival(J, i, k)


def apply_forward(J: JumpMatrix, f: np.ndarray) -> np.ndarray:
    """One forward jump of a space-time density (vector times matrix)."""
    f = np.asarray(f, dtype=float)
    if f.shape[0] != J.indexer.size:
        raise ValueError("vector length must be N*M")
    return J.matrix.T @ f


def apply_adjoint(J: JumpMatrix, g: np.ndarray) -> np.ndarray:
    """One backward pull of a space-time observable (matrix times vector)."""
    g = np.asarray(g, dtype=float)
    if g.shape[0] != J.indexer.size:
        raise ValueError("vector length must be N*M")
    return J.matrix @ g
