"""Dense reference computations for verifying the sparse space-time route.

Everything here goes through matrix exponentials of the piecewise-constant
generator, which is an entirely independent path from the Galerkin
assembly.  convergence_study compares two ordered products over the time
cells: exact_propagator's of exp(dt Q), and the sparse route's one
propagator, operators.reconstruct_propagator, on all N unit masses at once,
which is the product of the Galerkin chain's one-cell transfer matrices.
Dense work is restricted to desk scale (N <= 500).  scipy.linalg, for
expm, loads on the first oracle exponential.

The oracle's reach on stiff phases: scipy.linalg.expm is exact to 1.1e-16
on a two-state generator with rates (1e6, 1e-3) over t = 1, and off by
1.9e-9 against the closed form at rates (1e8, 1).  On the triple well's
beta = 10 phase over t = 1 it is off by 4.2e-9 against a 60-digit
eigendecomposition of the symmetrized generator, and the product of the
per-cell exponentials by 6.0e-9.  One exponential per run of equal cells
would move the errors in convergence.csv by about 3e-9, 1.4e-8 relative
at dt = 1/3 and 2.5e-7 at dt = 1/48, without being more accurate, so
exact_propagator keeps one exponential per phase and overlap and raises
it to the run's length by repeated squaring, as the propagator's scan
(operators._scan) does with the Galerkin side's transfer matrices: the
same factors in about log2(n) products instead of n, which moves the
errors in convergence.csv by at most 2.2e-13 relative for dt = 1/3 ...
1/48.
"""

from __future__ import annotations

import itertools

import numpy as np

from .galerkin import assemble
from .generator import RateMatrixSequence
from .operators import reconstruct_propagator

DENSE_MAX_N = 500


def expm(Q: np.ndarray, t: float = 1.0) -> np.ndarray:
    """Dense matrix exponential exp(t Q) via scaling and squaring."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    Q = np.asarray(Q, dtype=float)
    if Q.shape[0] > DENSE_MAX_N:
        raise ValueError(f"dense oracle limited to N <= {DENSE_MAX_N}")
    import scipy.linalg
    return scipy.linalg.expm(t * Q)


def exact_propagator(seq: RateMatrixSequence, s: float, t: float) -> np.ndarray:
    """Transition matrix of the jump process from time s to time t.

    Ordered product of the interval exponentials over the overlap of each
    time cell with [s, t]; rows are distributions.  A whole cell overlaps
    for its grid width, so a phase on a uniform grid needs one exponential;
    only the partial overlaps at s and t are differences of edges.  Each
    exponential is of the dense Q = R - diag(q) formed from the cell's
    offdiag and outbound rates.  A run of n consecutive cells with the same
    exponential multiplies by its n-th power, by repeated squaring.
    """
    if not (seq.grid.t0 <= s <= t <= seq.grid.horizon):
        raise ValueError("need t0 <= s <= t <= horizon")
    edges, widths = seq.grid.edges, seq.grid.widths
    cells = []  # ((phase, overlap), cell) of each cell that overlaps [s, t]
    for k, p in enumerate(seq.phase.tolist()):
        lo, hi = max(s, edges[k]), min(t, edges[k + 1])
        if hi > lo:
            overlap = widths[k] if (lo, hi) == (edges[k], edges[k + 1]) else hi - lo
            cells.append(((p, overlap), k))
    factors = {}  # (phase, overlap) -> exp(overlap Q)
    P = np.eye(seq.N)
    for key, run in itertools.groupby(cells, key=lambda cell: cell[0]):
        ks = [k for _, k in run]
        if key not in factors:
            Q = seq.offdiag[ks[0]].toarray()  # R has no diagonal: Q_ii = 0 - q_i
            Q.flat[::seq.N + 1] -= seq.outbound[:, ks[0]]
            factors[key] = expm(Q, key[1])
        P = P @ np.linalg.matrix_power(factors[key], len(ks))
    return P


def convergence_study(seq_builder, dt_list) -> dict:
    """Error of the Galerkin route versus the dense oracle for a dt sweep.

    seq_builder(dt) must return the protocol discretized with time step dt;
    it is expected to reject steps that do not align with the protocol's
    switching times.  Returns rows of (dt, 2-norm error, Frobenius error)
    plus the fitted log-log slope (None for a single step size).
    """
    dt_list = [float(dt) for dt in dt_list]
    if any(dt >= before for before, dt in zip(dt_list, dt_list[1:])):
        raise ValueError(f"dt_list must be strictly descending, got {dt_list}")
    rows = []
    for dt in dt_list:
        seq = seq_builder(dt)
        J = assemble(seq)
        # column i is the evolution of a unit mass starting in the first cell at i
        approx = reconstruct_propagator(J, np.eye(seq.N), J.indexer.M - 1).T
        exact = exact_propagator(seq, seq.grid.t0, seq.grid.horizon)
        diff = approx - exact
        rows.append((dt, float(np.linalg.norm(diff, 2)),
                     float(np.linalg.norm(diff, "fro"))))
    slope = None
    if len(rows) > 1:
        logs = np.log([r[0] for r in rows]), np.log([r[1] for r in rows])
        slope = float(np.polyfit(logs[0], logs[1], 1)[0])
    return {"rows": rows, "slope": slope}
