import logging
import re

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from ajc import galerkin, presets
from ajc import operators
from ajc.committor import TAIL_TO_B, SpaceTimeSet, coherence_defect, committor_solve
from ajc.galerkin import SpaceTimeIndexer, assemble
from ajc.generator import RateMatrixSequence, TimeGrid, sqra_rates
from ajc.operators import (
    NonConvergence,
    SpaceTimeVector,
    apply_adjoint,
    embed_spacelike,
    jump_activity,
    koopman_solve,
    reconstruct_propagator,
    synchronize,
)
from ajc.oracle import exact_propagator

from conftest import (
    STIFF_CYCLE,
    apply_forward,
    as_grid,
    block_cond,
    closed_form_survival,
    committor_sparse_solve,
    dense_rate_matrix,
    flat,
    koopman_matrix_column,
    reference_apply_adjoint,
    reference_scan_forward,
    reference_solve_backward,
    reference_solve_forward,
    triple_well_grid_seq,
)

A, B = 0, 1
TOL = 1e-10


def counted_scans(monkeypatch) -> list:
    """A list that each operators._scan call appends to, as (blocks with
    output, cells scanned)."""
    scans, scan = [], operators._scan
    monkeypatch.setattr(operators, "_scan", lambda J, X, *args: scans.append(
        (len(X), max([len(X), *args[3:]]))) or scan(J, X, *args))
    return scans


def absorbing_J():
    seq = RateMatrixSequence(
        TimeGrid.uniform(0, 2, 4),
        tuple(dense_rate_matrix([[0, 0], [0, 0]]) for _ in range(4)),
    )
    return seq, assemble(seq)


class TestJumpActivity:
    def test_no_rates_means_no_jumps(self):
        _, J = absorbing_J()
        f = SpaceTimeVector(np.r_[np.zeros(6), 0.3, 0.7], J.indexer)  # in block 3
        a, residual = jump_activity(J, f)
        np.testing.assert_array_equal(a.values, f.values)
        assert residual == 0.0

    def test_telescoping_mass_balance(self, two_state_J):
        f = embed_spacelike(np.array([1.0, 0.0]), two_state_J.indexer)
        a, _ = jump_activity(two_state_J, f)
        lhs = np.abs(a.values).sum()
        rhs = 1.0 + np.abs(apply_forward(two_state_J, a.values)).sum()
        assert lhs == pytest.approx(rhs, abs=10 * TOL)

    def test_linearity(self, two_state_J):
        idx = two_state_J.indexer
        rng = np.random.default_rng(2)
        f1 = SpaceTimeVector(rng.random(idx.size), idx)
        f2 = SpaceTimeVector(rng.random(idx.size), idx)
        a1, _ = jump_activity(two_state_J, f1)
        a2, _ = jump_activity(two_state_J, f2)
        combo = SpaceTimeVector(0.25 * f1.values + 2.0 * f2.values, idx)
        ac, _ = jump_activity(two_state_J, combo)
        np.testing.assert_allclose(ac.values, 0.25 * a1.values + 2.0 * a2.values,
                                   atol=1e-10)

    def test_two_state_activity_pattern(self, two_state_J):
        # mass starting uniformly in (A, block 0): arrivals in B decay over
        # blocks 1-3, then B->A return events appear after the switch at t=4
        f = embed_spacelike(np.array([1.0, 0.0]), two_state_J.indexer)
        a, _ = jump_activity(two_state_J, f)
        grid = as_grid(a)  # (state, block)
        b_events = grid[B, :4]
        assert np.all(np.diff(b_events[1:]) < 0)
        assert np.all(b_events > 0)
        assert np.all(grid[A, 4:] > 0)  # return jumps only after t=4
        assert np.all(grid[A, 1:4] == 0)

    def test_nonconvergence_raises(self):
        # flip-flop at rate 1e17: within-block jump mass rounds to 1, so
        # every diagonal block I - B is exactly singular
        seq = RateMatrixSequence(
            TimeGrid.uniform(0, 1, 2),
            tuple(dense_rate_matrix([[0, 1e17], [1e17, 0]]) for _ in range(2)),
        )
        J = assemble(seq)
        for _ in range(2):  # a failed factorization is not kept, so it fails again
            with pytest.raises(NonConvergence, match="singular diagonal block"):
                koopman_solve(J, np.ones(2), 1)
            with pytest.raises(NonConvergence, match="singular diagonal block"):
                jump_activity(J, embed_spacelike(np.array([1.0, 0.0]), J.indexer))
        assert [b.lu for b in J.blocks] == [None, None]


    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
    def test_a_stiff_cycle_refuses_the_forward_scan(self, dense, monkeypatch):
        if not dense:
            monkeypatch.setattr(galerkin, "_DENSE_MAX", 0)
        J = assemble(RateMatrixSequence(TimeGrid(np.array([0.0, 1.0])),
                                        (dense_rate_matrix(STIFF_CYCLE),)))
        assert isinstance(J.blocks[0].B, np.ndarray) == dense
        f = np.array([1.0, 0.0, 0.0])
        with pytest.raises(NonConvergence, match="diagonal block residual"):
            jump_activity(J, embed_spacelike(f, J.indexer))
        with pytest.raises(NonConvergence, match="diagonal block residual"):
            reconstruct_propagator(J, f, 0)

    def test_every_record_checks_its_residual(self, two_state_seq):
        # a solver off by 1e-9 in one record alone: every scan that solves
        # that record's cells on its whole block refuses
        f = np.array([1.0, 0.0])
        for b in range(2):
            J = assemble(two_state_seq)
            koopman_solve(J, np.ones(2), 7)  # factors both records
            good = J.blocks[b].lu
            J.blocks[b].lu = lambda rhs, trans, good=good: good(rhs, trans) + 1e-9
            for solve in (lambda: koopman_solve(J, np.ones(2), 7),
                          lambda: jump_activity(J, embed_spacelike(f, J.indexer)),
                          lambda: reconstruct_propagator(J, f, 7),
                          lambda: reconstruct_propagator(J, np.eye(2), 7)):
                with pytest.raises(NonConvergence, match="diagonal block residual"):
                    solve()

    @pytest.mark.parametrize("shape", [(3, 2), (3,), (18,), (0,), (18, 2)])
    def test_solve_forward_refuses_f_of_no_k_blocks(self, two_state_J, shape):
        # N = 2, M = 8: F holds k*2 entries per column for some 1 <= k <= 8
        with pytest.raises(ValueError, match=re.escape(f"F of shape {shape} is not")):
            operators.solve_forward(two_state_J, np.ones(shape))

    @pytest.mark.parametrize("dt", [1 / 3, 1 / 96], ids=["per-cell", "transfer"])
    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
    def test_solve_forward_returns_its_worst_block_residual(self, dense, dt, monkeypatch):
        # max over blocks of |x - B^T x - f|_inf, f the block's F plus the
        # inflow from the blocks before it, computed here: the same formula
        # up to the rounding of the products and of the inflow, a few ulps of
        # max|x|
        if not dense:
            monkeypatch.setattr(galerkin, "_DENSE_MAX", 0)
        J = assemble(presets.triple_well(dt))
        n, m = J.indexer.N, J.indexer.M
        for c in (1, 3):
            F = np.random.default_rng(3).random((J.indexer.size, c))
            X, residual = operators.solve_forward(J, F)
            blocks, rhs = X.reshape(m, n, c), F.reshape(m, n, c)
            want = max(np.abs(blocks[l] - J.cells[l].B.T @ blocks[l] - rhs[l] - inflow).max()
                       for l, inflow in reference_scan_forward(J, blocks))
            assert 0.0 < want <= operators.RESIDUAL_TOL
            assert abs(residual - want) <= 4 * np.spacing(np.abs(X).max())


@pytest.mark.parametrize("shape", [(16, 1, 1), (16, 2, 3), (), (3,), (15, 2), (2, 8), (16, 0)])
def test_apply_adjoint_refuses_g_of_another_shape(two_state_J, shape):
    # N = 2, M = 8: g is (16,) or (16, c) with c >= 1
    with pytest.raises(ValueError, match=re.escape(f"g of shape {shape} is not (16,)")):
        apply_adjoint(two_state_J, np.ones(shape))


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
def test_apply_adjoint_with_a_record_per_cell(dense, monkeypatch):
    # beta ramps over 200 cells of the triple-well lattice: every cell is its
    # own record and its own run
    if not dense:
        monkeypatch.setattr(galerkin, "_DENSE_MAX", 0)
    m = 200
    betas = np.linspace(1, 10, m)
    J = assemble(RateMatrixSequence(TimeGrid.uniform(0.0, 2.0, m),
                                    sqra_rates(presets.triple_well_grid_potential(), betas)))
    assert len(J.blocks) == m and isinstance(J.blocks[0].B, np.ndarray) == dense
    rng = np.random.default_rng(11)
    for g in (rng.random(J.indexer.size), rng.random((J.indexer.size, 3))):
        assert apply_adjoint(J, g).tobytes() == reference_apply_adjoint(J, g).tobytes()


class TestSynchronize:
    def test_absorbing_block_passthrough(self):
        _, J = absorbing_J()
        idx = J.indexer
        a = SpaceTimeVector(np.zeros(idx.size), idx)
        vals = a.values.copy()
        vals[flat(idx, A, 2)] = 0.4
        vals[flat(idx, B, 2)] = 0.6
        a = SpaceTimeVector(vals, idx)
        np.testing.assert_allclose(synchronize(J, a, 2), [0.4, 0.6])

    def test_single_mass_survival_weight(self, two_state_seq, two_state_J):
        idx = two_state_J.indexer
        vals = np.zeros(idx.size)
        vals[flat(idx, B, 1)] = 1.0
        a = SpaceTimeVector(vals, idx)
        got = synchronize(two_state_J, a, idx.M - 1)
        assert got[A] == 0.0
        assert got[B] == pytest.approx(closed_form_survival(two_state_J, B, 1))

    def test_decay_profile(self, two_state_J):
        # activity from (A, block 1) synchronized to t=4: the surviving mass
        # in A follows the one-way exponential decay up to O(dT)
        f = embed_spacelike(np.array([1.0, 0.0]), two_state_J.indexer)
        a, _ = jump_activity(two_state_J, f)
        got = synchronize(two_state_J, a, 3)
        assert got[A] == pytest.approx(np.exp(-4.0), abs=0.05)
        assert got[A] + got[B] == pytest.approx(1.0, abs=1e-9)

    def test_a_vector_over_another_indexer_is_refused(self, two_state_J):
        # 16 values over (N, M) = (4, 4), as many as the (2, 8) operator holds
        f = SpaceTimeVector(np.full(16, 1 / 16), SpaceTimeIndexer(4, 4))
        match = r"\(N, M\) = \(4, 4\), jump operator over \(2, 8\)"
        with pytest.raises(ValueError, match=match):
            jump_activity(two_state_J, f)
        with pytest.raises(ValueError, match=match):
            synchronize(two_state_J, f, 7)


class TestReconstructPropagator:
    def test_absorbing_identity(self):
        _, J = absorbing_J()
        fbar = np.array([0.25, 0.75])
        for l in range(4):
            np.testing.assert_allclose(reconstruct_propagator(J, fbar, l), fbar)

    def test_two_state_against_expm_oracle(self, two_state_seq, two_state_J):
        fbar = np.array([1.0, 0.0])
        got = reconstruct_propagator(two_state_J, fbar, 7)
        exact = fbar @ exact_propagator(two_state_seq, 0.0, 8.0)
        np.testing.assert_allclose(got, exact, atol=0.01)
        assert got.sum() == pytest.approx(1.0, abs=1e-9)

    def test_a_stack_equals_its_columns(self, two_state_J, triple_well_J):
        # the identity stack is the oracle's propagator matrix, transposed; a
        # stack of N or more columns is an ordered product of transfer
        # matrices and a narrower one is one scan of the stack, so either
        # meets the columns' scans to the blocks' eps * cond; a one-column
        # stack is the density's own scan, bit for bit
        eps = np.finfo(float).eps
        for J in (two_state_J, triple_well_J):
            n, m = J.indexer.N, J.indexer.M
            F = np.hstack([np.eye(n), np.random.default_rng(4).random((n, 2))])
            cond = block_cond(J, forward=True)
            for l in (0, m // 2, m - 1):
                want = np.column_stack([reconstruct_propagator(J, f, l) for f in F.T])
                tol = (1e-14 + 10 * eps * cond) * np.abs(want).max()
                for got in (reconstruct_propagator(J, F, l),
                            reconstruct_propagator(J, F[:, :n - 1], l)):
                    assert np.abs(got - want[:, :got.shape[1]]).max() <= tol
                np.testing.assert_array_equal(reconstruct_propagator(J, F[:, n:n + 1], l),
                                              want[:, n:n + 1])
                assert reconstruct_propagator(J, F[:, :0], l).shape == (n, 0)

    def test_bad_block_raises_before_a_solve(self, two_state_J, monkeypatch):
        scans = counted_scans(monkeypatch)
        for solve in (lambda l: reconstruct_propagator(two_state_J, np.array([1.0, 0.0]), l),
                      lambda l: koopman_solve(two_state_J, np.ones(2), l)):
            for l in (-1, two_state_J.indexer.M, True, 1.5, "1"):
                with pytest.raises(ValueError, match=rf"invalid time block {re.escape(repr(l))}: "
                                                     r"need an integer in \[0, 8\)"):
                    solve(l)
        assert scans == []
        assert (koopman_solve(two_state_J, np.ones(2), np.int64(1)).values.tobytes()
                == koopman_solve(two_state_J, np.ones(2), 1).values.tobytes())

    def test_one_forward_scan(self, two_state_J, monkeypatch):
        # one scan per density, and one for a stack of N densities, which has
        # no output past block 0: no solve checks its residual by applying J
        # again
        scans = counted_scans(monkeypatch)
        per_call = []
        for solve in (lambda J: reconstruct_propagator(J, np.array([1.0, 0.0]), 7),
                      lambda J: reconstruct_propagator(J, np.eye(2), 7),
                      lambda J: jump_activity(J, embed_spacelike(np.array([1.0, 0.0]), J.indexer))):
            solve(two_state_J)
            per_call.append(len(scans))
        assert per_call == [1, 2, 3]
        # (blocks with output, cells scanned) of each forward scan
        assert scans == [(8, 8), (1, 8), (8, 8)]

    @pytest.mark.parametrize("preset, dt", [
        (presets.triple_well, 1 / 3), (presets.triple_well, 1 / 12),
        (presets.triple_well, 1 / 48), (presets.triple_well, 1 / 96),
        (presets.two_state, 1.0), (presets.two_state, 0.5), (presets.two_state, 1 / 16),
    ], ids=["triple-well-3", "triple-well-12", "triple-well-48", "triple-well-96",
            "two-state-1", "two-state-2", "two-state-16"])
    def test_runs_of_equal_cells_equal_the_scan(self, preset, dt):
        # the identity stack as the carry of one scan with no output past
        # block 0, each run of up to 95 cells one transfer matrix raised to
        # its length, against the synchronized scan of that stack, which
        # goes cell by cell or by transfer runs with output
        J = assemble(preset(dt))
        n, m = J.indexer.N, J.indexer.M
        F = np.zeros((J.indexer.size, n))
        F[:n] = np.eye(n)
        X, _ = operators.solve_forward(J, F)
        for l in (1, m // 3, m // 2 + 1, m - 1):
            want = operators._synchronize(J, X, l)
            got = reconstruct_propagator(J, np.eye(n), l)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
    def test_scans_blocks_up_to_l_only(self, dense, monkeypatch):
        # blocks after l receive jumps but send none into blocks up to l, so
        # a density propagated to the edge of l scans l + 1 blocks and gives
        # the bits of the synchronized scan of all M
        if not dense:
            monkeypatch.setattr(galerkin, "_DENSE_MAX", 0)
        J = assemble(presets.triple_well(1 / 24))
        n, m = J.indexer.N, J.indexer.M
        assert isinstance(J.blocks[0].B, np.ndarray) == dense
        rng = np.random.default_rng(6)
        F = np.zeros((J.indexer.size, 3))
        F[:n] = rng.random((n, 3))
        wholes = [(F[:n, 0], operators.solve_forward(J, F[:, 0])[0]),
                  (F[:n], operators.solve_forward(J, F)[0])]
        scanned = counted_scans(monkeypatch)
        for l in (0, m // 2, m - 2):
            for fbar, X in wholes:
                scanned.clear()
                got = reconstruct_propagator(J, fbar, l)
                assert scanned == [(l + 1, l + 1)]
                # runs of 24 cells: the per-cell step, whose bits do not
                # depend on where the scan stops
                assert got.tobytes() == operators._synchronize(J, X, l).tobytes()


class TestKoopman:
    def test_ones_is_invariant(self, two_state_J, triple_well_J, grid_2500_J):
        for J in (two_state_J, triple_well_J, grid_2500_J):
            n, m = J.indexer.N, J.indexer.M
            K = koopman_solve(J, np.ones(n), m - 1)
            assert np.abs(K.values - 1.0).max() < 1e-10

    def test_zero_observable(self, two_state_J):
        K = koopman_solve(two_state_J, np.zeros(2), 7)
        assert np.all(K.values == 0.0)

    def test_point_observable_against_oracle(self, two_state_seq, two_state_J):
        exact = exact_propagator(two_state_seq, 0.0, 8.0)
        for y in (A, B):
            K = koopman_matrix_column(two_state_J, y, 7)
            np.testing.assert_allclose(K.values[:2], exact[:, y], atol=0.01)

    def test_max_principle(self, triple_well_J):
        rng = np.random.default_rng(8)
        g = rng.uniform(-3.0, 5.0, triple_well_J.indexer.N)
        K = koopman_solve(triple_well_J, g, triple_well_J.indexer.M - 1)
        assert K.values.min() >= g.min() - 1e-12
        assert K.values.max() <= g.max() + 1e-12

    def test_backsubstitution_residual(self, two_state_J):
        # K = (jumps into blocks <= l) K + survival * g on blocks before l
        J = two_state_J
        n, m = J.indexer.N, J.indexer.M
        l = m - 1
        g = np.array([0.3, 0.9])
        K = koopman_solve(J, g, l)
        lhs = K.values[: l * n]
        rhs = (J.matrix[: l * n, : (l + 1) * n] @ K.values[: (l + 1) * n]
               + J.block_survival(l)[: l * n] * np.tile(g, l))
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_columns_sum_to_one(self, two_state_J):
        total = sum(
            koopman_matrix_column(two_state_J, y, 7).values for y in (A, B)
        )
        assert np.abs(total - 1.0).max() < 1e-10

    def test_column_of_isolated_absorbing_state(self):
        # no inflow into state A and A never leaves: its fiber keeps value 1
        seq = RateMatrixSequence(
            TimeGrid.uniform(0, 2, 4),
            tuple(dense_rate_matrix([[0, 0], [0, 0]]) for _ in range(4)),
        )
        J = assemble(seq)
        K = koopman_matrix_column(J, A, 3)
        np.testing.assert_allclose(K.values, np.tile([1.0, 0.0], 4))

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
    def test_scans_blocks_up_to_l_only(self, dense, monkeypatch):
        # blocks after l send no jumps into blocks up to l, so a solve to the
        # edge of l scans l + 1 blocks and gives the bits of the scan of all M
        if not dense:
            monkeypatch.setattr(galerkin, "_DENSE_MAX", 0)
        J = assemble(presets.triple_well(1 / 24))
        n, m = J.indexer.N, J.indexer.M
        assert isinstance(J.blocks[0].B, np.ndarray) == dense
        scanned = counted_scans(monkeypatch)
        g = np.random.default_rng(5).random(n)
        for l in (0, m // 2, m - 2):
            scanned.clear()
            K = koopman_solve(J, g, l).values
            assert scanned == [(l + 1, l + 1)]
            with monkeypatch.context() as mp:
                mp.setattr(operators, "_solve_backward", reference_solve_backward)
                assert K.tobytes() == koopman_solve(J, g, l).values.tobytes()


class TestDuality:
    def test_forward_backward_pairing(self, two_state_seq, two_state_J):
        rng = np.random.default_rng(17)
        for _ in range(20):
            f = rng.random(2)
            f /= f.sum()
            g = rng.random(2)
            lhs = reconstruct_propagator(two_state_J, f, 7) @ g
            rhs = f @ koopman_solve(two_state_J, g, 7).values[:2]
            assert abs(lhs - rhs) <= 1e-8


def test_solves_log_blocks_against_factorizations(two_state_seq, caplog):
    # two phases at one width: 8 blocks, 2 distinct diagonal blocks; a fresh J,
    # since its LUs outlive each solve
    J = assemble(two_state_seq)
    with caplog.at_level(logging.INFO, logger="ajc"):
        reconstruct_propagator(J, np.array([1.0, 0.0]), 7)
        koopman_solve(J, np.ones(2), 7)
    assert caplog.messages == [
        "solve_forward: 8 blocks solved against 2 LU factorizations built, 0 reused; "
        "0 cells by 0 transfer runs with 0 squarings, 8 by the per-cell step",
        "solve_backward: 8 blocks solved against 0 LU factorizations built, 2 reused; "
        "0 cells by 0 transfer runs with 0 squarings, 8 by the per-cell step; "
        "0 borders of 0 fixed cells, 0 masked factorizations",
    ]


def test_a_stack_logs_its_runs_and_squarings(two_state_seq, caplog):
    # 8 cells: block 0 by the per-cell step, then no output: a run of cells
    # 1-3 (one squaring) and one of 4-7 (two)
    J = assemble(two_state_seq)
    with caplog.at_level(logging.INFO, logger="ajc"):
        reconstruct_propagator(J, np.eye(2), 7)
        reconstruct_propagator(J, np.eye(2), 2)
    assert caplog.messages == [
        "solve_forward: 8 blocks solved against 2 LU factorizations built, 0 reused; "
        "7 cells by 2 transfer runs with 3 squarings, 1 by the per-cell step",
        "solve_forward: 3 blocks solved against 0 LU factorizations built, 1 reused; "
        "2 cells by 1 transfer runs with 1 squarings, 1 by the per-cell step",
    ]


def test_one_factorization_per_phase_on_a_uniform_grid(caplog):
    # triple well at dt = 1/96: 192 cells of one width in 2 phases
    J = assemble(presets.triple_well(1 / 96))
    n, m = J.indexer.N, J.indexer.M
    with caplog.at_level(logging.INFO, logger="ajc"):
        koopman_solve(J, np.ones(n), m - 1)
        reconstruct_propagator(J, np.full(n, 1.0 / n), m - 1)
    assert caplog.messages == [
        "solve_backward: 192 blocks solved against 2 LU factorizations built, 0 reused; "
        "192 cells by 2 transfer runs with 0 squarings, 0 by the per-cell step; "
        "0 borders of 0 fixed cells, 0 masked factorizations",
        "solve_forward: 192 blocks solved against 0 LU factorizations built, 2 reused; "
        "192 cells by 2 transfer runs with 0 squarings, 0 by the per-cell step",
    ]


@pytest.mark.parametrize("seq, kernel", [(presets.triple_well(1 / 96), "getrf"),
                                         (triple_well_grid_seq(8, 6), "getrf"),
                                         (triple_well_grid_seq(16, 6), "splu")],
                         ids=["triple-well-96", "grid-8x8", "grid-16x16"])
def test_solves_on_one_operator_share_its_factorizations(seq, kernel, monkeypatch):
    n, m = seq.N, seq.grid.M
    g = np.random.default_rng(8).random(n)
    f = embed_spacelike(np.full(n, 1.0 / n), SpaceTimeIndexer(n, m))
    A = SpaceTimeSet.rectangle([0, 1], (0, 1))  # two cells of each of blocks 0 and 1
    B = SpaceTimeSet.rectangle([n - 1], (m - 2, m - 1))
    solves = [lambda J: koopman_solve(J, g, m - 1).values,
              lambda J: jump_activity(J, f)[0].values,
              lambda J: koopman_solve(J, np.ones(n), m - 1).values,
              lambda J: committor_solve(J, A, B).values]
    built = []

    def counted(name, factor):
        return lambda a, **kw: built.append((name, a.shape[0])) or factor(a, **kw)
    monkeypatch.setattr(spla, "splu", counted("splu", spla.splu))
    monkeypatch.setattr(lapack, "dgetrf", counted("getrf", lapack.dgetrf))
    J = assemble(seq)
    shared = [solve(J) for solve in solves]
    # one full block per phase, built by the first Koopman solve from the last
    # phase down, dense up to galerkin._DENSE_MAX states; on SuperLU the
    # committor borders them by its fixed cells, factoring none, and on getrf
    # it factors the free cells of its two masks, B's in the last phase first
    masked = [(kernel, n - 1), (kernel, n - 2)] if kernel == "getrf" else []
    assert built == [(kernel, n), (kernel, n), *masked]
    assert len(J.blocks) == 2 and all(b.lu is not None for b in J.blocks)
    for solve, got in zip(solves, shared):
        np.testing.assert_array_equal(got, solve(assemble(seq)))


def stiff_protocol():
    """4 states, off-diagonal rates from 1e-2 to 1e8, 3 phases over 6 cells."""
    rng = np.random.default_rng(5)
    rates = 10 ** rng.uniform(-2, 8, (3, 4, 4))  # diagonals are discarded
    return RateMatrixSequence(TimeGrid.uniform(0, 1, 6),
                              tuple(dense_rate_matrix(rates[k // 2]) for k in range(6)))


@pytest.mark.parametrize("seq", [presets.triple_well(1 / 24), stiff_protocol()],
                         ids=["triple-well-24", "stiff-4-state"])
def test_dense_and_sparse_kernels_agree(seq, monkeypatch):
    def solves():
        J = assemble(seq)
        n, m = J.indexer.N, J.indexer.M
        A, B = sets_in_every_block(J, [0], [n - 1])
        f = embed_spacelike(np.full(n, 1.0 / n), J.indexer)
        return J, [koopman_solve(J, np.random.default_rng(3).random(n), m - 1).values,
                   committor_solve(J, A, B).values, jump_activity(J, f)[0].values,
                   reconstruct_propagator(J, np.eye(n), m - 1)]
    J, dense = solves()
    monkeypatch.setattr(galerkin, "_DENSE_MAX", 0)
    J_sparse, sparse = solves()
    assert isinstance(J.blocks[0].B, np.ndarray)
    assert not isinstance(J_sparse.blocks[0].B, np.ndarray)
    eps = np.finfo(float).eps
    tol = 1e-13 + 10 * eps * max(block_cond(J), block_cond(J, forward=True))
    for d, s in zip(dense, sparse):
        assert np.abs(d - s).max() <= tol * np.abs(s).max()


def sets_in_every_block(J, a_states, b_states):
    m = J.indexer.M
    return (SpaceTimeSet.rectangle(a_states, (0, m - 1)),
            SpaceTimeSet.rectangle(b_states, (0, m - 1)))


@pytest.mark.parametrize("seq, nx, a, b", [(presets.triple_well(), 9, 20, 24),
                                          (triple_well_grid_seq(8, 6), 8, 25, 30),
                                          (triple_well_grid_seq(50, 6), 50, 912, 937)],
                         ids=["triple-well", "grid-8x8", "grid-50x50"])
def test_bordered_committor_equals_a_sparse_solve(seq, nx, a, b, monkeypatch, caplog):
    # five fixed cells each of A and B in every block, as on the benchmark,
    # on SuperLU, the one kernel that borders; on the 50x50 grid, the
    # benchmark's sets, whose bordered residuals read 2.9-3.9 ulps of max|y|
    # against _BORDER_EPS's 4
    monkeypatch.setattr(galerkin, "_DENSE_MAX", 0)
    J = assemble(seq)
    A, B = sets_in_every_block(J, *([s, s - 1, s + 1, s - nx, s + nx] for s in (a, b)))
    with caplog.at_level(logging.INFO, logger="ajc"):
        c = committor_solve(J, A, B).values
    assert caplog.messages[-1].endswith(
        "2 borders of 20 fixed cells, 0 masked factorizations")
    ref = committor_sparse_solve(J, A, B, TAIL_TO_B)
    assert 0.1 < ref[ref < 1].max()
    assert np.abs(c - ref).max() <= 1e-13 * np.abs(ref).max()


def test_committor_on_dense_records_stays_in_0_1():
    # tw-fine's sets on getrf, which factors the free cells; a border on the
    # record's LU left values at 1 + 2.2e-16
    J = assemble(presets.triple_well(1 / 96))
    assert isinstance(J.blocks[0].B, np.ndarray)
    A, B = sets_in_every_block(J, *([s, s - 1, s + 1, s - 9, s + 9] for s in (20, 24)))
    c = committor_solve(J, A, B).values
    assert 0.0 <= c.min() and c.max() <= 1.0


def test_many_fixed_cells_factor_the_free_cells(monkeypatch, caplog):
    # 8x8 grid on SuperLU with its left and right three columns in A and B:
    # 48 fixed cells per block, more than a border takes
    monkeypatch.setattr(galerkin, "_DENSE_MAX", 0)
    J = assemble(triple_well_grid_seq(8, 6))
    A, B = sets_in_every_block(J, [i for i in range(64) if i % 8 < 3],
                               [i for i in range(64) if i % 8 > 4])
    fixed = len(A.cells | B.cells) // J.indexer.M
    assert fixed > operators._BORDER_MAX
    with caplog.at_level(logging.INFO, logger="ajc"):
        masked = committor_solve(J, A, B).values
        monkeypatch.setattr(operators, "_BORDER_MAX", fixed)
        bordered = committor_solve(J, A, B).values
    assert [m.split("; ")[-1] for m in caplog.messages] == [
        "0 borders of 0 fixed cells, 2 masked factorizations",
        f"2 borders of {2 * fixed} fixed cells, 0 masked factorizations"]
    assert np.abs(masked - bordered).max() <= 1e-13 * np.abs(masked).max()


@pytest.mark.parametrize("rates, cells, a, b, dense, log_tail", [
    # the first three on SuperLU: a stiff cycle 0 -> 1 -> 2 -> 0 broken by A
    # and B leaves the border's residual above a few ulps, so the free cell
    # is factored instead, and the border, which served no solve, is not
    # counted
    ([[0, 1e8, 0], [0, 0, 24], [1e4, 0, 0]], 1, 0, 1, False,
     "0 borders of 0 fixed cells, 1 masked factorizations"),
    # stiffer, the same way
    ([[0, 6.5e12, 1.7e13], [0, 0, 3.7e15], [7.9e15, 0, 0]], 1, 1, 0, False,
     "0 borders of 0 fixed cells, 1 masked factorizations"),
    # flip-flop at rate 1e17: I - B is exactly singular, so no border; each
    # of the two cells is its own phase
    ([[0, 1e17, 0], [1e17, 0, 0], [0, 0, 0]], 2, 0, 2, False,
     "0 borders of 0 fixed cells, 2 masked factorizations"),
    # the first stiff cycle on the dense LU, the same way
    ([[0, 1e8, 0], [0, 0, 24], [1e4, 0, 0]], 1, 0, 1, True,
     "0 borders of 0 fixed cells, 1 masked factorizations"),
    # a milder stiff cycle, whose border met its residual on the dense LU
    # and falls short on SuperLU: dense blocks factor their free cells
    ([[0, 1.3e5, 0], [0, 0, 30], [6.4e8, 0, 0]], 1, 1, 2, True,
     "0 borders of 0 fixed cells, 1 masked factorizations"),
], ids=["stiff-cycle", "stiffer-cycle", "singular", "dense-stiff-cycle", "dense-bordered-cycle"])
def test_stiff_blocks_factor_the_free_cells(rates, cells, a, b, dense, log_tail,
                                            monkeypatch, caplog):
    if not dense:
        monkeypatch.setattr(galerkin, "_DENSE_MAX", 0)
    seq = RateMatrixSequence(TimeGrid.uniform(0, 1, cells),
                             tuple(dense_rate_matrix(rates) for _ in range(cells)))
    J = assemble(seq)
    A, B = sets_in_every_block(J, [a], [b])
    with caplog.at_level(logging.INFO, logger="ajc"):
        c = committor_solve(J, A, B).values
    assert caplog.messages[-1].endswith(log_tail)
    np.testing.assert_allclose(c, committor_sparse_solve(J, A, B, TAIL_TO_B), rtol=0, atol=1e-15)


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
def test_a_border_short_at_a_later_block_moves_its_whole_group(dense, monkeypatch, caplog):
    # a stiff cycle, one phase in 3 cells, A and B in every block: one record
    # and one mask, so one group; on SuperLU its border serves the last block
    # and falls short at an earlier one, the scan finds that only after it
    # has scanned on, and scans again with the whole group on its free cells,
    # which the dense kernel factors from the start
    if not dense:
        monkeypatch.setattr(galerkin, "_DENSE_MAX", 0)
    Q = dense_rate_matrix([[0, 1e5, 0], [0, 0, 1000], [7e9, 0, 0]])
    J = assemble(RateMatrixSequence(TimeGrid.uniform(0, 1, 3), (Q,) * 3))
    assert len(J.blocks) == 1
    A, B = sets_in_every_block(J, [1], [2])
    with caplog.at_level(logging.INFO, logger="ajc"):
        c = committor_solve(J, A, B, 0.4).values
    assert caplog.messages[-1].endswith("0 borders of 0 fixed cells, 1 masked factorizations")
    tally = {"borders": 0, "border_cells": 0, "factored": 0}
    with monkeypatch.context() as mp:
        mp.setattr("ajc.committor._solve_backward",
                   lambda *args: reference_solve_backward(*args, tally=tally))
        assert c.tobytes() == committor_solve(J, A, B, 0.4).values.tobytes()
    assert tally == {"borders": 0, "border_cells": 0, "factored": 1}
    with monkeypatch.context() as mp:
        mp.setattr(operators, "_BORDER_MAX", -1)
        assert c.tobytes() == committor_solve(J, A, B, 0.4).values.tobytes()
    np.testing.assert_allclose(c, committor_sparse_solve(J, A, B, 0.4), rtol=0, atol=1e-15)
    # a NaN fixed value makes a NaN residual, a failure on the border (the
    # last block) and on the free cells (block 0) alike
    n, m = J.indexer.N, J.indexer.M
    free = ~(A.mask(n, m) | B.mask(n, m))
    terminal = np.array([0.4, 1.0, 0.0])
    for k in (m - 1, 0):
        fixed = A.mask(n, m).astype(float)
        fixed[k * n + 1] = np.nan
        for solve in (operators._solve_backward, reference_solve_backward):
            with pytest.raises(NonConvergence, match="residual nan"):
                solve(J, m - 1, terminal, fixed, free)


def test_a_committor_with_no_free_cell_solves_nothing(two_state_J, caplog):
    # A and B cover every cell: the scan goes cell by cell and solves no block
    m = two_state_J.indexer.M
    with caplog.at_level(logging.INFO, logger="ajc"):
        c = committor_solve(two_state_J, SpaceTimeSet.rectangle([A], (0, m - 1)),
                            SpaceTimeSet.rectangle([B], (0, m - 1))).values
    assert c.tolist() == [1.0, 0.0] * m
    assert caplog.messages == [
        "solve_backward: 0 blocks solved against 0 LU factorizations built, 0 reused; "
        "0 cells by 0 transfer runs with 0 squarings, 8 by the per-cell step; "
        "0 borders of 0 fixed cells, 0 masked factorizations"]


def test_solves_build_no_explicit_matrix():
    # triple well at dt = 1/96: the explicit matrix would hold 4,076,160 entries
    J = assemble(presets.triple_well(1 / 96))
    n, m = J.indexer.N, J.indexer.M
    K = koopman_solve(J, np.ones(n), m - 1)
    A = SpaceTimeSet.rectangle([20], (0, m - 1))
    c = committor_solve(J, A, SpaceTimeSet.rectangle([24], (0, m - 1)))
    a, _ = jump_activity(J, embed_spacelike(np.full(n, 1.0 / n), J.indexer))
    assert a.values.min() >= 0.0
    density = reconstruct_propagator(J, np.full(n, 1.0 / n), m - 1)
    coherence_defect(J, A)
    P = reconstruct_propagator(J, np.eye(n), m - 1).T
    assert "matrix" not in vars(J) and "block_cumulative" not in vars(J)
    assert np.abs(K.values - 1.0).max() < 1e-10
    assert 0.0 <= c.values.min() and c.values.max() <= 1.0
    assert density.sum() == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-9)


class TestTransferRuns:
    """The transfer route of _scan against the per-cell references, within
    (1e-14 + 10 eps cond_inf) max|entry|, cond that of the blocks each
    direction factors."""

    @staticmethod
    def bound(J, forward=False):
        return 1e-14 + 10 * np.finfo(float).eps * block_cond(J, forward)

    @staticmethod
    def references(mp):
        mp.setattr(operators, "solve_forward", reference_solve_forward)
        mp.setattr(operators, "_solve_backward", reference_solve_backward)
        mp.setattr("ajc.committor._solve_backward", reference_solve_backward)

    @pytest.mark.parametrize("dt", [1 / 96, 1 / 960], ids=["dt-96", "dt-960"])
    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
    def test_solves_equal_the_per_cell_reference(self, dense, dt, monkeypatch, caplog):
        # two runs of 96 or 960 equal cells: every scan goes by transfer runs
        if not dense:
            monkeypatch.setattr(galerkin, "_DENSE_MAX", 0)
        J = assemble(presets.triple_well(dt))
        n, m = J.indexer.N, J.indexer.M
        assert isinstance(J.blocks[0].B, np.ndarray) == dense
        rng = np.random.default_rng(9)
        g, f = rng.random(n), SpaceTimeVector(rng.random(J.indexer.size), J.indexer)
        A, B = sets_in_every_block(J, [20, 19, 21, 11, 29], [24, 23, 25, 15, 33])

        def outputs():
            return [koopman_solve(J, g, m - 1).values, committor_solve(J, A, B).values,
                    jump_activity(J, f)[0].values]
        with caplog.at_level(logging.INFO, logger="ajc"):
            got = outputs()
        assert all(f"{m} cells by 2 transfer runs" in line for line in caplog.messages)
        with monkeypatch.context() as mp:
            self.references(mp)
            want = outputs()
        for a, b, forward in zip(got, want, (False, False, True)):
            assert np.abs(a - b).max() <= self.bound(J, forward) * np.abs(b).max()
        # coherence's pull takes each run's products at once, with the bits of each cell's
        G = A.mask(n, m).astype(float)
        assert apply_adjoint(J, G).tobytes() == reference_apply_adjoint(J, G).tobytes()

    @pytest.mark.parametrize("border_max", [operators._BORDER_MAX, -1],
                             ids=["bordered", "free-cells"])
    def test_a_mask_that_changes_splits_the_run(self, border_max, monkeypatch, caplog):
        # A holds state 19 too in blocks 40-59 of the first phase's 96 cells:
        # the mask of blocks 0-39 and 60-95 is one group, whose two transfer
        # runs (40 and 36 cells) share its G, around a run of 20 cells that
        # is short of the rule and takes the per-cell step; bordered on SuperLU
        monkeypatch.setattr(operators, "_BORDER_MAX", border_max)
        if border_max >= 0:
            monkeypatch.setattr(galerkin, "_DENSE_MAX", 0)
        J = assemble(presets.triple_well(1 / 96))
        n, m = J.indexer.N, J.indexer.M
        assert operators._by_transfer(36, 1, n) and not operators._by_transfer(20, 1, n)
        A = SpaceTimeSet(SpaceTimeSet.rectangle([20], (0, m - 1)).cells
                         | SpaceTimeSet.rectangle([19], (40, 59)).cells)
        B = SpaceTimeSet.rectangle([24], (0, m - 1))
        with caplog.at_level(logging.INFO, logger="ajc"):
            c = committor_solve(J, A, B, 0.3).values
        borders = "3 borders of 7 fixed cells, 0 masked" if border_max >= 0 else \
            "0 borders of 0 fixed cells, 3 masked"
        assert caplog.messages[-1].endswith(
            f"172 cells by 3 transfer runs with 0 squarings, 20 by the per-cell step; "
            f"{borders} factorizations")
        with monkeypatch.context() as mp:
            self.references(mp)
            want = committor_solve(J, A, B, 0.3).values
        assert np.abs(c - want).max() <= self.bound(J) * np.abs(want).max()

    def test_propagators_of_1_to_n_columns(self):
        # c = 1 goes by transfer runs, c = N - 1 by the per-cell step (its
        # bits), c = N with no output past block 0
        J = assemble(presets.triple_well(1 / 96))
        n, m = J.indexer.N, J.indexer.M
        F = np.random.default_rng(10).random((n, n))
        for l in (m // 2 - 1, m - 1):
            for c in (1, n - 1, n):
                F0 = np.zeros(((l + 1) * n, c))
                F0[:n] = F[:, :c]
                want = operators._synchronize(J, reference_solve_forward(J, F0)[0], l)
                got = reconstruct_propagator(J, F[:, :c], l)
                assert np.abs(got - want).max() <= (
                    self.bound(J, forward=True) * np.abs(want).max())
                if c == n - 1:
                    assert got.tobytes() == want.tobytes()

    def test_a_short_run_beside_a_transfer_run_keeps_the_per_cell_bits(self):
        # 20 cells of beta 1, then 60 of beta 10: the short run keeps the
        # per-cell step's bits as long as it is scanned before the long one
        phases = presets._triple_well_phases()
        low, high = presets.TRIPLE_WELL_BETA
        seq = RateMatrixSequence(TimeGrid.uniform(0, 2, 80),
                                 [phases[low if k < 20 else high] for k in range(80)])
        J = assemble(seq)
        n, m = J.indexer.N, J.indexer.M
        assert len(J.blocks) == 2
        f = np.random.default_rng(11).random(J.indexer.size)
        got, _ = operators.solve_forward(J, f)
        want, _ = reference_solve_forward(J, f)
        assert got[:20 * n].tobytes() == want[:20 * n].tobytes()
        assert np.abs(got - want).max() <= self.bound(J, forward=True) * np.abs(want).max()
