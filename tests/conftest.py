import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from ajc import assemble, operators, presets
from ajc.committor import tail_value
from ajc.galerkin import phi
from ajc.generator import (
    GridPotential,
    RateMatrixSequence,
    TimeGrid,
    Violation,
    sqra_rates,
)
from ajc.jumpchain import TrajectorySample, _walk
from ajc.operators import koopman_solve, reconstruct_propagator
from ajc.oracle import exact_propagator, expm

A, B = 0, 1  # state names of the 2-state preset


@pytest.fixture(scope="session")
def two_state_seq():
    return presets.two_state()


@pytest.fixture(scope="session")
def two_state_J(two_state_seq):
    return assemble(two_state_seq)


@pytest.fixture(scope="session")
def triple_well_seq():
    return presets.triple_well()


@pytest.fixture(scope="session")
def triple_well_J(triple_well_seq):
    return assemble(triple_well_seq)


def triple_well_grid_seq(n_side, cells):
    """SQRA on an n_side x n_side grid of the triple-well potential, `cells`
    uniform cells on [0, 2] with beta 1 in the first half and 10 after."""
    (x0, x1), (y0, y1) = presets.TRIPLE_WELL_DOMAIN
    h = (x1 - x0) / (n_side - 1)
    offsets = h * (np.arange(n_side) - (n_side - 1) / 2)
    X, Y = np.meshgrid((x0 + x1) / 2 + offsets, (y0 + y1) / 2 + offsets)
    pot = GridPotential(n_side, n_side, h, presets.triple_well_potential(X, Y))
    betas = np.where(2 * np.arange(cells) < cells, 1.0, 10.0)
    return RateMatrixSequence(TimeGrid.uniform(0.0, 2.0, cells), sqra_rates(pot, betas))


@pytest.fixture(scope="session")
def grid_2500_J():
    """The 50x50 grid in 6 cells: N = 2500 states per diagonal block."""
    return assemble(triple_well_grid_seq(50, 6))


def dense_rate_matrix(offdiag_rows):
    """The generator Q = R - diag(q), as a CSR, whose off-diagonal rates R
    are those of offdiag_rows, with q R's row sums; a diagonal given is
    ignored.  Bad rates are kept, to write invalid protocols with."""
    R = np.array(offdiag_rows, dtype=float)
    np.fill_diagonal(R, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, sums that overflow
        return sp.csr_matrix(R - np.diag(R.sum(axis=1)))


# A 3-state cycle at q dt ~ 1e9 in one cell of width 1: its jump activity
# reaches ~1e9 and its block's cond_inf(I - B^T) 1.5e9, so a forward solve's
# error bound, cond times a backward error of a few eps, passes FORWARD_TOL.
STIFF_CYCLE = [[0, 1e9, 1], [2e8, 0, 5], [1, 3e8, 0]]
# The same cycle at q dt ~ 1e20: I - B is singular to working precision
# (dense LU: a negative inverse row sum; SuperLU: an exactly zero pivot).
SINGULAR_CYCLE = [[0, 1e20, 1], [2e19, 0, 5], [1, 3e19, 0]]


@pytest.fixture(scope="session")
def positive_rates_seq():
    """3 states, strictly positive off-diagonal rates, 4 time cells."""
    rng = np.random.default_rng(42)
    grid = TimeGrid.uniform(0.0, 2.0, 4)
    mats = tuple(
        dense_rate_matrix(rng.uniform(0.2, 2.0, size=(3, 3))) for _ in range(4)
    )
    return RateMatrixSequence(grid, mats)


# Reference computations that only the tests use.

def integrated_rate(seq, i, s, t):
    """Integral of the outbound rate q_i(u) over [s, t]."""
    if s > t:
        raise ValueError("need s <= t")
    edges = seq.grid.edges
    overlap = np.clip(np.minimum(t, edges[1:]) - np.maximum(s, edges[:-1]), 0.0, None)
    return float(np.dot(seq.outbound[i], overlap))


def survival(seq, i, s, t):
    """Probability of no jump from state i during (s, t]."""
    return float(np.exp(-integrated_rate(seq, i, s, t)))


def sample_jump_time(seq, i, s, u):
    """The sampler's jump time t with int_s^t q_i = -log(1-u), or None if
    past the end of the grid."""
    states, times = [i], [s]
    # the sampler's walk on one draw pair: the hazard target as the sampler
    # computes it, then any target draw; cell 0 is the walk's first guess
    # too, searched past unless it holds s
    _walk(seq.sampler_table, seq.embedded_chain, states, times, 0, [u, 0.5],
          [-float(np.log1p(-u)), 0.0], float("inf"))
    return times[1] if len(times) > 1 else None


def flat(idx, i, k):
    """Flat index of cell (state i, block k) under the indexer idx."""
    return np.asarray(k) * idx.N + np.asarray(i)


def interval_of(grid, t):
    """Index k of the grid cell (edges[k], edges[k+1]] containing t.

    The left endpoint t0 is assigned to the first cell.
    """
    if t < grid.edges[0] or t > grid.edges[-1]:
        raise ValueError(f"time {t} outside grid [{grid.edges[0]}, {grid.edges[-1]}]")
    k = int(np.searchsorted(grid.edges, t, side="left")) - 1
    return max(k, 0)


# The set-up as it was before it read each phase's own CSR arrays: a COO
# round trip per split, one scipy constructor per beta, a COO per phase in
# validation.  The shipped split, rates and validation must give the same
# bytes and the same violations.

def reference_split(rates):
    A = sp.coo_matrix(rates, dtype=float)
    keep = (A.row != A.col) & (A.data != 0)
    R = sp.csr_matrix((A.data[keep], (A.row[keep], A.col[keep])), shape=A.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        q = np.asarray(R.sum(axis=1)).ravel()
    return R, q


def reference_sqra_rates(p, beta):
    if beta <= 0:
        raise ValueError("beta must be positive")
    phi = 1.0 / (beta * p.h ** 2)
    A = p.adjacency.as_scipy().tocoo()
    v = p.values
    with np.errstate(over="ignore"):
        data = phi * np.exp(-0.5 * beta * (v[A.col] - v[A.row]))
    return sp.csr_matrix((data, (A.row, A.col)), shape=A.shape)


def reference_phase_violations(R, q):
    coo = R.as_scipy().tocoo()
    finite = np.isfinite(coo.data)
    off = ~np.isfinite(q)
    off[coo.row[~finite]] = False
    out = [Violation(0, "rowsum", int(i), None, abs(float(q[i]))) for i in np.flatnonzero(off)]
    neg = finite & (coo.data < 0)
    out += [Violation(0, "negativity", int(i), int(j), float(-v))
            for i, j, v in zip(coo.row[neg], coo.col[neg], coo.data[neg])]
    out += [Violation(0, "nonfinite", int(i), int(j), float(v))
            for i, j, v in zip(coo.row[~finite], coo.col[~finite], coo.data[~finite])]
    return out


def reference_validate_generator(seq):
    first = np.unique(seq.phase, return_index=True)[1]
    return [dataclasses.replace(v, matrix=int(m)) for m in first
            for v in reference_phase_violations(seq.offdiag[m], seq.outbound[:, m])]


def csr_bytes(R):
    """R's data, indices and indptr as (dtype, bytes) pairs."""
    return [(a.dtype.str, a.tobytes()) for a in (R.data, R.indices, R.indptr)]


# The sampler as it was before its walk read plain floats: numpy scalars,
# a search per inversion and a cumsum per drawn target.  The shipped
# sampler must reproduce its trajectories bit for bit.

def reference_invert_hazard(seq, i, s, u):
    target = -np.log1p(-u)
    edges = seq.grid.edges
    rates = seq.outbound[i]
    k0 = interval_of(seq.grid, s) if s > edges[0] else 0
    acc = 0.0
    for k in range(k0, seq.grid.M):
        lo = max(s, float(edges[k]))
        inc = rates[k] * (float(edges[k + 1]) - lo)
        if inc > 0 and acc + inc >= target:
            return lo + (target - acc) / rates[k], k
        acc += inc
    return None


def reference_trajectory(seq, start, horizon, rng):
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    states = [int(start.state)]
    times = [float(start.time)]
    while True:
        hit = reference_invert_hazard(seq, states[-1], times[-1], rng.random())
        if hit is None or hit[0] > horizon:
            break
        (t, k), i = hit, states[-1]
        R = seq.offdiag[k]
        lo, hi = R.indptr[i], R.indptr[i + 1]
        # times 1/q_i, not divided by it: keeps the seed -> trajectory bytes
        cum = np.cumsum(R.data[lo:hi] * (1 / seq.outbound[i, k]))
        j = int(R.indices[lo + np.searchsorted(cum, rng.random() * cum[-1], side="right")])
        states.append(j)
        times.append(t)
    return TrajectorySample(np.array(states), np.array(times), float(horizon))


# The scans as they were before they read each cell's record and checked
# whole-block residuals once per record: per-cell closed forms evaluated
# here from J's rates and widths, not read from the records under test,
# and one residual check per solved cell.  The shipped scans and solves
# must give the same bits.  The forward scan and solve take the leading
# time blocks that X or F holds, as solve_forward does.

def reference_closed_forms(J):
    """phi(q, dt), exp(-q dt) and phi / dt as (N, M) tables."""
    q, dt = J.outbound, J.grid.widths
    jump = phi(q, dt)
    return jump, np.exp(-q * dt), jump / dt


def reference_scan_forward(J, X):
    jump, decay, leave = reference_closed_forms(J)
    carry = np.zeros_like(X[0])
    for l, b in enumerate(J.block_of[:len(X)]):
        yield l, J.blocks[b].R.T @ (jump[:, l, None] * carry)
        carry = decay[:, l, None] * carry + leave[:, l, None] * X[l]


def reference_scan_backward(J, X):
    jump, decay, leave = reference_closed_forms(J)
    carry = np.zeros_like(X[0])
    for k in range(J.indexer.M - 1, -1, -1):
        yield k, leave[:, k, None] * carry
        jumps = J.blocks[J.block_of[k]].R @ X[k]
        carry = decay[:, k, None] * carry + jump[:, k, None] * jumps


def reference_solve(block, rhs, forward, scan):
    x = operators._lu(block, scan)(rhs, not forward)
    operand = block.B.T if forward else block.B
    bound = operators._bound(block, forward) * np.abs(x).max(initial=0.0)
    return x, operators._checked(np.abs(x - operand @ x - rhs).max(initial=0.0), bound)


def reference_solve_forward(J, F):
    X = np.array(F, dtype=float)
    blocks = X.reshape(len(X) // J.indexer.N, J.indexer.N, -1)
    scan, residual = operators._Scan(), 0.0
    for l, inflow in reference_scan_forward(J, blocks):
        blocks[l], res = reference_solve(J.blocks[J.block_of[l]], blocks[l] + inflow, True, scan)
        residual = max(residual, res)
    return X, float(residual)


# The masked blocks as they were solved before their checks moved after the
# scan: each block checked at once.  A (record, mask) pair is solved on the
# border its first block makes, or on an LU of its free cells; where the
# border falls short at any block, the solve starts again with that pair on
# its free cells.  tally counts what the INFO line reports of the pass that
# stands: borders, their fixed cells, and free-cell LUs.

class ShortBorder(Exception):
    """A bordered block's free-row residual exceeds its bound."""


def reference_bordered(block, free, scan):
    border = operators._bordered(block, free, scan)
    if border is None:
        return None
    c = np.flatnonzero(~free)

    def solve(rhs, x):
        y = border(rhs, x)
        r = y - block.B @ y - rhs
        r[c] = 0.0
        return y, np.abs(r).max(initial=0.0)
    return solve


def reference_free_cells(block, free):
    operand = block.B[free][:, free]
    lu = operators._factor(operand)[0]

    def solve(rhs, x):
        rhs = (rhs + block.B @ np.where(free[:, None], 0.0, x))[free]
        x = x.copy()
        x[free] = lu(rhs, False)
        return x, np.abs(x[free] - operand @ x[free] - rhs).max(initial=0.0)
    return solve


def reference_solve_masked(block, rhs, x, free, scan, masked, short):
    key = (block, free.tobytes())
    if key not in masked:
        border = None if key in short else reference_bordered(block, free, scan)
        masked[key] = (border or reference_free_cells(block, free), border is not None)
    solver, bordered = masked[key]
    y, res = solver(rhs, x)
    if bordered and res > operators._BORDER_EPS * np.abs(y).max():
        short.add(key)
        raise ShortBorder
    bound = operators._bound(block, False) * np.abs(y).max()
    return y, operators._checked(res, bound)


def reference_pass(J, l, terminal, fixed, free, short, masked):
    shape = (J.indexer.M, J.indexer.N)
    b = J.block_survival(l) * np.tile(terminal, J.indexer.M)
    x = np.array(fixed, dtype=float)
    blocks, b, free = x.reshape(*shape, 1), b.reshape(*shape, 1), free.reshape(shape)
    scan = operators._Scan()
    for k, inflow in reference_scan_backward(J, blocks):
        f, block = free[k], J.blocks[J.block_of[k]]
        if f.all():
            blocks[k] = reference_solve(block, b[k] + inflow, False, scan)[0]
        elif f.any():
            blocks[k] = reference_solve_masked(block, b[k] + inflow, blocks[k], f, scan,
                                               masked, short)[0]
    return x


def reference_solve_backward(J, l, terminal, fixed, free, tally=None):
    short = set()
    while True:
        masked = {}
        try:
            x = reference_pass(J, l, terminal, fixed, free, short, masked)
        except ShortBorder:
            continue
        break
    if tally is not None:
        for (_, mask), (_, bordered) in masked.items():
            cells = int((~np.frombuffer(mask, dtype=bool)).sum())
            tally["borders"] += bordered
            tally["border_cells"] += cells if bordered else 0
            tally["factored"] += not bordered
    return x


def reference_apply_adjoint(J, g):
    G = np.asarray(g, dtype=float).reshape(J.indexer.M, J.indexer.N, -1)
    out = np.empty_like(G)
    for k, inflow in reference_scan_backward(J, G):
        out[k] = J.blocks[J.block_of[k]].B @ G[k] + inflow
    return out.reshape(np.shape(g))


def path_state_at(traj, t):
    """State of the reconstructed path at time t (right-continuous)."""
    if t < traj.times[0] or t > traj.horizon:
        raise ValueError("time outside the trajectory's observation window")
    n = int(np.searchsorted(traj.times, t, side="right")) - 1
    return int(traj.states[n])


def four_neighbor_adjacency_loop(nx, ny):
    """The grid adjacency built edge by edge, row-major, in a Python loop."""
    rows, cols = [], []
    for r in range(ny):
        for c in range(nx):
            a = r * nx + c
            if c + 1 < nx:
                b = a + 1
                rows += [a, b]
                cols += [b, a]
            if r + 1 < ny:
                b = a + nx
                rows += [a, b]
                cols += [b, a]
    data = np.ones(len(rows))
    return sp.csr_matrix((data, (rows, cols)), shape=(nx * ny, nx * ny))


def as_grid(v):
    """(N, M) view of a SpaceTimeVector with [i, k] = value at state i, block k."""
    return v.values.reshape(v.indexer.M, v.indexer.N).T


def koopman_matrix_column(J, y, l):
    """Koopman solve for the point observable at state y (fundamental column)."""
    g = np.zeros(J.indexer.N)
    g[y] = 1.0
    return koopman_solve(J, g, l)


def committor_sparse_solve(J, A, B, tail):
    """The committor by one sparse solve of its free cells f on the explicit
    matrix: (I - J)_ff c_f = (survival * c_tail + J c_fixed)_f."""
    n, m = J.indexer.N, J.indexer.M
    in_a, in_b = A.mask(n, m), B.mask(n, m)
    last = slice((m - 1) * n, None)
    c_tail = np.full(n, tail_value(tail))
    c_tail[in_a[last]], c_tail[in_b[last]] = 1.0, 0.0
    free = ~(in_a | in_b)
    c = in_a.astype(float)
    Jf = J.matrix[free]
    rhs = (J.survival_mass * np.tile(c_tail, m))[free] + Jf[:, ~free] @ c[~free]
    c[free] = spsolve(sp.eye(free.sum(), format="csc") - Jf[:, free].tocsc(), rhs)
    return c


def closed_form_survival(J, i, k):
    """Exact probability to never jump before the horizon from cell (i, k):
    phi(q_i^k, dt_k)/dt_k times exp(-sum of q_i dt over the later cells)."""
    dt = J.grid.widths
    q = J.outbound
    tail = float(np.dot(q[i, k + 1:], dt[k + 1:]))
    return float(phi(q[i, k], dt[k]) / dt[k] * np.exp(-tail))


def apply_forward(J, f):
    """One forward jump of a space-time density (vector times matrix): the
    per-cell forward scan plus each block's jumps within itself."""
    F = np.asarray(f, dtype=float).reshape(J.indexer.M, J.indexer.N, -1)
    out = np.empty_like(F)
    for l, inflow in reference_scan_forward(J, F):
        out[l] = J.cells[l].B.T @ F[l] + inflow
    return out.reshape(np.shape(f))


def block_cond(J, forward=False):
    """The largest cond_inf(I - B) over J's diagonal blocks B, or, forward,
    of I - B^T, the matrix that a forward block solve factors."""
    eye = np.eye(J.indexer.N)
    operands = (b.B.T if forward else b.B for b in J.blocks)
    return max(np.linalg.cond(eye - (A.toarray() if sp.issparse(A) else A), np.inf)
               for A in operands)


def neumann_activity(J, f, tol=1e-13, n_max=10_000):
    """Jump activity by the truncated Neumann series sum_n (J^T)^n f."""
    term = np.array(f, dtype=float)
    total = term.copy()
    for _ in range(n_max):
        term = J.matrix.T @ term
        total += term
        if np.abs(term).sum() < tol:
            return total
    raise RuntimeError(f"Neumann series not below {tol} after {n_max} terms")


def reference_exact_propagator(seq, s, t):
    """exact_propagator as it was before it squared runs of equal cells: the
    ordered product of one exponential per overlapping cell."""
    edges, widths = seq.grid.edges, seq.grid.widths
    factors = {}
    P = np.eye(seq.N)
    for k, p in enumerate(seq.phase):
        lo, hi = max(s, edges[k]), min(t, edges[k + 1])
        if hi > lo:
            overlap = widths[k] if (lo, hi) == (edges[k], edges[k + 1]) else hi - lo
            if (p, overlap) not in factors:
                Q = seq.offdiag[k].toarray()
                Q.flat[::seq.N + 1] -= seq.outbound[:, k]
                factors[p, overlap] = expm(Q, overlap)
            P = P @ factors[p, overlap]
    return P


def operator_norm_error(J, seq):
    """Induced 2-norm distance between sparse-route and exact propagator at
    the final block edge."""
    approx = reconstruct_propagator(J, np.eye(J.indexer.N), J.indexer.M - 1).T
    exact = exact_propagator(seq, seq.grid.t0, seq.grid.horizon)
    return float(np.linalg.norm(approx - exact, 2))


def frobenius_error(J, seq):
    """Frobenius distance between sparse-route and exact propagator."""
    approx = reconstruct_propagator(J, np.eye(J.indexer.N), J.indexer.M - 1).T
    exact = exact_propagator(seq, seq.grid.t0, seq.grid.horizon)
    return float(np.linalg.norm(approx - exact, "fro"))


def kernel_density(seq, i, s, j, t):
    """Transition kernel density of the augmented chain, zero for s >= t.

    k(i, s, j, t) = q_ij(t) * exp(-int_s^t q_i), using the rate of the time
    cell containing t.
    """
    if s >= t:
        return 0.0
    Q = seq.matrices[interval_of(seq.grid, t)]
    qij = Q[i, j] if i != j else 0.0
    if qij == 0.0:
        return 0.0
    return float(qij) * np.exp(-integrated_rate(seq, i, s, t))
