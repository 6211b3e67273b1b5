"""Acceptance suite: one test per headline claim, one PASS/FAIL line each.

Each test prints "criterion <n> (<name>): PASS|FAIL" before asserting, so a
plain ``pytest -s tests/test_acceptance.py`` reads as a checklist.
"""

import time

import numpy as np
import pytest
import scipy.stats

from ajc import io as ajcio
from ajc import presets
from ajc.committor import SpaceTimeSet, committor_solve
from ajc.galerkin import assemble
from ajc.generator import RateMatrixSequence, TimeGrid
from ajc.jumpchain import sample_trajectory, SpaceTimePoint
from ajc.operators import (
    apply_adjoint,
    embed_spacelike,
    jump_activity,
    koopman_solve,
    reconstruct_propagator,
)
from ajc.oracle import convergence_study, exact_propagator

from conftest import (
    as_grid,
    closed_form_survival,
    dense_rate_matrix,
    flat,
    koopman_matrix_column,
    operator_norm_error,
    sample_jump_time,
)

A, B = 0, 1


def report(num, name, ok):
    print(f"\ncriterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    return ok


def sample_first_jump_cells(seq, i, k, n, rng):
    """Vectorized NED inversion: n first-jump times from a uniform start in
    cell (i, k); returns the landing time cell per draw (-1 for no jump)."""
    edges = seq.grid.edges
    rates = seq.outbound[i]
    cum = np.concatenate([[0.0], np.cumsum(rates * seq.grid.widths)])
    s = rng.uniform(edges[k], edges[k + 1], n)
    target = -np.log1p(-rng.random(n))
    # hazard accumulated from s to each later edge
    acc = cum[None, k + 1:] - cum[k] - rates[k] * (s - edges[k])[:, None]
    hit = acc >= target[:, None]
    jumps = hit.any(axis=1)
    cell = np.full(n, -1)
    first = np.argmax(hit, axis=1)  # index into edges k+1..M, i.e. cell k+first
    cell[jumps] = k + first[jumps]
    return cell


class TestAcceptance:
    def test_criterion_1_sparsity_reproduction(self):
        t0 = time.perf_counter()
        J = assemble(presets.triple_well())
        elapsed = time.perf_counter() - t0
        ok = (J.matrix.shape == (378, 378) and J.matrix.nnz == 4620
              and elapsed < 1.0)
        assert report(1, "sparsity reproduction", ok)

    def test_criterion_2_convergence_order(self):
        t0 = time.perf_counter()
        study = convergence_study(
            presets.triple_well, [1.0, 1 / 2, 1 / 4, 1 / 8, 1 / 16, 1 / 32]
        )
        elapsed = time.perf_counter() - t0
        errs = [r[1] for r in study["rows"]]
        ok = (0.8 <= study["slope"] <= 1.2
              and all(a > b for a, b in zip(errs, errs[1:]))
              and elapsed < 120.0)
        assert report(2, "convergence order", ok)

    def test_criterion_3_galerkin_monte_carlo(self, two_state_seq, two_state_J):
        n = 100_000
        rng = np.random.default_rng(12345)
        idx = two_state_J.indexer
        t0 = time.perf_counter()
        ok = True
        for k in range(idx.M):
            for i in (A, B):
                cells = sample_first_jump_cells(two_state_seq, i, k, n, rng)
                j = B if i == A else A  # the only jump partner
                for l in range(k, idx.M):
                    p = two_state_J.matrix[flat(idx, i, k), flat(idx, j, l)]
                    freq = np.mean(cells == l)
                    se = np.sqrt(max(p * (1 - p), 1e-12) / n)
                    if abs(freq - p) > 3 * se:
                        ok = False
        ok = ok and time.perf_counter() - t0 < 60.0
        assert report(3, "Galerkin vs Monte Carlo rows", ok)

    def test_criterion_4_mass_conservation(self, two_state_J, triple_well_J):
        worst = 0.0
        for J in (two_state_J, triple_well_J):
            jump = np.asarray(J.matrix.sum(axis=1)).ravel()
            surv = np.array([
                closed_form_survival(J, i, k)
                for k in range(J.indexer.M) for i in range(J.indexer.N)
            ])
            worst = max(worst, float(np.abs(jump + surv - 1.0).max()))
        assert report(4, "mass conservation", worst <= 1e-10)

    def test_criterion_5_koopman_consistency(self, two_state_seq, two_state_J,
                                             triple_well_J):
        ones_err = 0.0
        for J in (two_state_J, triple_well_J):
            K = koopman_solve(J, np.ones(J.indexer.N), J.indexer.M - 1)
            ones_err = max(ones_err, float(np.abs(K.values - 1.0).max()))
        # point observables, first-block values vs the dense oracle, judged
        # against the discretization error the sparse route itself carries
        tol = 2.0 * operator_norm_error(two_state_J, two_state_seq)
        exact = exact_propagator(two_state_seq, 0.0, 8.0)
        col_err = max(
            float(np.abs(koopman_matrix_column(two_state_J, y, 7).values[:2]
                         - exact[:, y]).max())
            for y in (A, B)
        )
        ok = ones_err <= 1e-10 and col_err <= tol
        assert report(5, "Koopman consistency", ok)

    def test_criterion_6_duality(self, two_state_J, triple_well_J):
        rng = np.random.default_rng(77)
        gap = 0.0
        for J in (two_state_J, triple_well_J):
            n, l = J.indexer.N, J.indexer.M - 1
            for _ in range(100):
                f = rng.random(n)
                f /= f.sum()
                g = rng.random(n)
                lhs = reconstruct_propagator(J, f, l) @ g
                rhs = f @ koopman_solve(J, g, l).values[:n]
                gap = max(gap, abs(lhs - rhs))
        assert report(6, "propagator/Koopman duality", gap <= 1e-8)

    def test_criterion_7_committor_koopman_equivalence(self, two_state_J,
                                                       triple_well_J):
        # With A = G and B = its complement on the terminal block T, the
        # committor holds T at g = 1_G, while Koopman evolves T to its right
        # edge.  Off T both solve x = J x + survival * g, so their difference
        # d = K - c is J-harmonic there: d = J d.
        worst = 0.0
        for J, G in ((two_state_J, [B]), (triple_well_J, [0, 5, 33, 62])):
            n, m = J.indexer.N, J.indexer.M
            complement = [i for i in range(n) if i not in G]
            c = committor_solve(
                J,
                SpaceTimeSet.rectangle(G, (m - 1, m - 1)),
                SpaceTimeSet.rectangle(complement, (m - 1, m - 1)),
                tail="absorb_to_B",
            )
            g = np.zeros(n)
            g[G] = 1.0
            K = koopman_solve(J, g, m - 1)
            d = K.values - c.values
            off = slice(0, (m - 1) * n)
            worst = max(worst,
                        float(np.abs(d - apply_adjoint(J, d))[off].max()),
                        float(np.abs(c.values[(m - 1) * n:] - g).max()))
        assert report(7, "committor equals Koopman up to a J-harmonic difference",
                      worst <= 1e-10)

    def test_criterion_8_autonomous_limit(self):
        # constant generator: holding times exponential, targets match the
        # embedded chain
        off = [[0.0, 0.7, 0.5], [0.3, 0.0, 0.9], [0.6, 0.4, 0.0]]
        Q = dense_rate_matrix(off)
        seq = RateMatrixSequence(TimeGrid.uniform(0.0, 50.0, 1), (Q,))
        rng = np.random.default_rng(2718)
        n = 5_000
        holds = np.empty(n)
        targets = np.empty(n, dtype=int)
        for r in range(n):
            traj = sample_trajectory(seq, SpaceTimePoint(0, 0.0), 50.0, rng)
            holds[r] = traj.times[1] - traj.times[0]
            targets[r] = traj.states[1]
        q0 = 0.7 + 0.5
        ks = scipy.stats.kstest(holds, "expon", args=(0.0, 1.0 / q0))
        counts = np.bincount(targets, minlength=3)[1:]
        chi = scipy.stats.chisquare(counts, n * np.array([0.7, 0.5]) / q0)
        ok = ks.pvalue > 0.01 and chi.pvalue > 0.01
        assert report(8, "autonomous limit", ok)

    def test_criterion_9_ned_sampler(self, two_state_seq):
        # state B is dormant until t = 4, then jumps at unit rate:
        # F(t) = 1 - exp(-max(0, t - 4)), draws past the horizon are censored
        n = 100_000
        rng = np.random.default_rng(31415)
        draws = [sample_jump_time(two_state_seq, B, 0.0, u)
                 for u in rng.random(n)]
        obs = np.sort([t for t in draws if t is not None])
        F = 1.0 - np.exp(-np.maximum(0.0, obs - 4.0))
        i = np.arange(1, len(obs) + 1)
        d = max(
            float(np.max(np.abs(i / n - F))),
            float(np.max(np.abs((i - 1) / n - F))),
            abs(len(obs) / n - (1.0 - np.exp(-4.0))),
        )
        critical = 1.628 / np.sqrt(n)  # 1% level
        assert report(9, "NED sampler distribution", d < critical)

    def test_heatmap_grids_qualitative(self, two_state_J, tmp_path):
        # activity and synchronized-density grids as CSV, checked by ordering
        idx = two_state_J.indexer
        f = embed_spacelike(np.array([1.0, 0.0]), idx)
        activity, _ = jump_activity(two_state_J, f)
        ajcio.write_csv(tmp_path / "activity.csv", ["state", "block", "value"],
                        ajcio.spacetime_csv_rows(activity.values, idx))
        density = np.array([
            reconstruct_propagator(two_state_J, np.array([1.0, 0.0]), l)
            for l in range(idx.M)
        ])
        ajcio.write_csv(tmp_path / "density.csv", ["block", "mass_A", "mass_B"],
                        ajcio.csv_rows(np.arange(idx.M), density[:, A], density[:, B]))
        grid = as_grid(activity)
        # arrivals in B fade while A is active, return events only after t=4
        assert np.all(np.diff(grid[B, 1:4]) < 0)
        assert np.all(grid[A, 1:4] == 0) and np.all(grid[A, 4:] > 0)
        # density drains from A up to the switch, then flows back
        assert np.all(np.diff(density[:4, A]) < 0)
        assert np.all(np.diff(density[4:, A]) > 0)
        assert np.allclose(density.sum(axis=1), 1.0, atol=1e-9)
