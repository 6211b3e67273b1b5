"""Dense reference computations for verifying the sparse space-time route.

Everything here goes through matrix exponentials of the piecewise-constant
generator, which is an entirely independent path from the Galerkin
assembly.  convergence_study compares two ordered products over the time
cells: exact_propagator's of exp(dt Q), and the sparse route's one
propagator, operators.reconstruct_propagator, on all N unit masses at once,
which is the product of the Galerkin chain's one-cell transfer matrices.
Dense work is restricted to desk scale (N <= 500).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

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
    return scipy.linalg.expm(t * Q)


def exact_propagator(seq: RateMatrixSequence, s: float, t: float) -> np.ndarray:
    """Transition matrix of the jump process from time s to time t.

    Ordered product of the interval exponentials over the overlap of each
    time cell with [s, t]; rows are distributions.  A whole cell overlaps
    for its grid width, so a phase on a uniform grid needs one exponential;
    only the partial overlaps at s and t are differences of edges.
    """
    if not (seq.grid.t0 <= s <= t <= seq.grid.horizon):
        raise ValueError("need t0 <= s <= t <= horizon")
    edges, widths = seq.grid.edges, seq.grid.widths
    factors = {}  # (phase, overlap) -> exp(overlap Q)
    P = np.eye(seq.N)
    for k, p in enumerate(seq.phase):
        lo, hi = max(s, edges[k]), min(t, edges[k + 1])
        if hi > lo:
            overlap = widths[k] if (lo, hi) == (edges[k], edges[k + 1]) else hi - lo
            if (p, overlap) not in factors:
                factors[p, overlap] = expm(seq.matrices[k].toarray(), overlap)
            P = P @ factors[p, overlap]
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
