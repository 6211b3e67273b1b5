import logging

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from ajc import galerkin, presets
from ajc import operators
from ajc.committor import TAIL_TO_B, SpaceTimeSet, coherence_defect, committor_solve
from ajc.galerkin import JumpMatrix, SpaceTimeIndexer, apply_adjoint, assemble
from ajc.generator import RateMatrixSequence, TimeGrid
from ajc.operators import (
    NonConvergence,
    SpaceTimeVector,
    embed_spacelike,
    jump_activity,
    koopman_solve,
    reconstruct_propagator,
    synchronize,
)
from ajc.oracle import exact_propagator

from conftest import (
    apply_forward,
    as_grid,
    block_cond,
    closed_form_survival,
    committor_sparse_solve,
    dense_rate_matrix,
    flat,
    koopman_matrix_column,
    triple_well_grid_seq,
)

A, B = 0, 1
TOL = 1e-10


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
        # matrices, so it meets the columns' scans to the blocks' eps * cond,
        # and a narrower one is scanned, so it equals them bit for bit
        eps = np.finfo(float).eps
        for J in (two_state_J, triple_well_J):
            n, m = J.indexer.N, J.indexer.M
            F = np.hstack([np.eye(n), np.random.default_rng(4).random((n, 2))])
            cond = block_cond(J, forward=True)
            for l in (0, m // 2, m - 1):
                got = reconstruct_propagator(J, F, l)
                want = np.column_stack([reconstruct_propagator(J, f, l) for f in F.T])
                assert np.abs(got - want).max() <= (1e-14 + 10 * eps * cond) * np.abs(want).max()
                np.testing.assert_array_equal(reconstruct_propagator(J, F[:, :n - 1], l),
                                              want[:, :n - 1])
                assert reconstruct_propagator(J, F[:, :0], l).shape == (n, 0)

    def test_bad_block_raises_before_a_solve(self, two_state_J, monkeypatch):
        scans = []
        for name in ("scan_forward", "scan_backward"):
            monkeypatch.setattr(JumpMatrix, name, lambda J, X, scan=getattr(JumpMatrix, name):
                                scans.append(1) or scan(J, X))
        for solve in (lambda l: reconstruct_propagator(two_state_J, np.array([1.0, 0.0]), l),
                      lambda l: koopman_solve(two_state_J, np.ones(2), l)):
            for l in (-1, two_state_J.indexer.M):
                with pytest.raises(ValueError, match="invalid time block"):
                    solve(l)
        assert scans == []

    def test_one_forward_scan(self, two_state_J, monkeypatch):
        # one scan per density, and none for a stack of N densities, which is
        # a product of transfer matrices: no solve checks its residual by
        # applying J again
        scans = []
        scan_forward = JumpMatrix.scan_forward
        monkeypatch.setattr(JumpMatrix, "scan_forward",
                            lambda J, X: scans.append(1) or scan_forward(J, X))
        per_call = []
        for solve in (lambda J: reconstruct_propagator(J, np.array([1.0, 0.0]), 7),
                      lambda J: reconstruct_propagator(J, np.eye(2), 7),
                      lambda J: jump_activity(J, embed_spacelike(np.array([1.0, 0.0]), J.indexer))):
            solve(two_state_J)
            per_call.append(len(scans))
        assert per_call == [1, 1, 2]

    @pytest.mark.parametrize("preset, dt", [
        (presets.triple_well, 1 / 3), (presets.triple_well, 1 / 12),
        (presets.triple_well, 1 / 48), (presets.triple_well, 1 / 96),
        (presets.two_state, 1.0), (presets.two_state, 0.5), (presets.two_state, 1 / 16),
    ], ids=["triple-well-3", "triple-well-12", "triple-well-48", "triple-well-96",
            "two-state-1", "two-state-2", "two-state-16"])
    def test_runs_of_equal_cells_equal_the_scan(self, preset, dt):
        # the identity stack as powers of one transfer matrix per phase,
        # squared over runs of up to 95 cells, against the scan of that stack
        J = assemble(preset(dt))
        n, m = J.indexer.N, J.indexer.M
        F = np.zeros((J.indexer.size, n))
        F[:n] = np.eye(n)
        X, _ = operators.solve_forward(J, F)
        for l in (1, m // 3, m // 2 + 1, m - 1):
            want = operators._synchronize(J, X, l)
            got = reconstruct_propagator(J, np.eye(n), l)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


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
        "solve_forward: 8 blocks solved against 2 LU factorizations built, 0 reused",
        "solve_backward: 8 blocks solved against 0 LU factorizations built, 2 reused, "
        "0 borders of 0 fixed cells, 0 masked factorizations, 0 refinement steps",
    ]


def test_a_stack_logs_its_runs_and_squarings(two_state_seq, caplog):
    # 8 cells: block 0, a run of cells 1-3 (one squaring) and one of 4-7 (two)
    J = assemble(two_state_seq)
    with caplog.at_level(logging.INFO, logger="ajc"):
        reconstruct_propagator(J, np.eye(2), 7)
        reconstruct_propagator(J, np.eye(2), 2)
    assert caplog.messages == [
        "reconstruct_propagator: 3 blocks solved against 2 LU factorizations built, 0 reused; "
        "8 cells as block 0 and 2 runs of equal cells, 3 squarings, "
        "worst block residual 0.0e+00",
        "reconstruct_propagator: 2 blocks solved against 0 LU factorizations built, 1 reused; "
        "3 cells as block 0 and 1 runs of equal cells, 1 squarings, "
        "worst block residual 0.0e+00",
    ]


def test_one_factorization_per_phase_on_a_uniform_grid(caplog):
    # triple well at dt = 1/96: 192 cells of one width in 2 phases
    J = assemble(presets.triple_well(1 / 96))
    n, m = J.indexer.N, J.indexer.M
    with caplog.at_level(logging.INFO, logger="ajc"):
        koopman_solve(J, np.ones(n), m - 1)
        reconstruct_propagator(J, np.full(n, 1.0 / n), m - 1)
    assert caplog.messages == [
        "solve_backward: 192 blocks solved against 2 LU factorizations built, 0 reused, "
        "0 borders of 0 fixed cells, 0 masked factorizations, 0 refinement steps",
        "solve_forward: 192 blocks solved against 0 LU factorizations built, 2 reused",
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
    # phase down, dense up to galerkin._DENSE_MAX states; the committor
    # borders them by its fixed cells, factoring none
    assert built == [(kernel, n), (kernel, n)]
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
                                          (triple_well_grid_seq(8, 6), 8, 25, 30)],
                         ids=["triple-well", "grid-8x8"])
def test_bordered_committor_equals_a_sparse_solve(seq, nx, a, b, caplog):
    # five fixed cells each of A and B in every block, as on the benchmark
    J = assemble(seq)
    A, B = sets_in_every_block(J, *([s, s - 1, s + 1, s - nx, s + nx] for s in (a, b)))
    with caplog.at_level(logging.INFO, logger="ajc"):
        c = committor_solve(J, A, B).values
    assert caplog.messages[-1].endswith(
        "2 borders of 20 fixed cells, 0 masked factorizations, 0 refinement steps")
    ref = committor_sparse_solve(J, A, B, TAIL_TO_B)
    assert 0.1 < ref[ref < 1].max()
    assert np.abs(c - ref).max() <= 1e-13 * np.abs(ref).max()


def test_many_fixed_cells_factor_the_free_cells(monkeypatch, caplog):
    # 8x8 grid with its left and right three columns in A and B: 48 fixed
    # cells per block, more than a border takes
    J = assemble(triple_well_grid_seq(8, 6))
    A, B = sets_in_every_block(J, [i for i in range(64) if i % 8 < 3],
                               [i for i in range(64) if i % 8 > 4])
    fixed = len(A.cells | B.cells) // J.indexer.M
    assert fixed > operators._BORDER_MAX
    with caplog.at_level(logging.INFO, logger="ajc"):
        masked = committor_solve(J, A, B).values
        monkeypatch.setattr(operators, "_BORDER_MAX", fixed)
        bordered = committor_solve(J, A, B).values
    assert [m.split("reused, ")[1] for m in caplog.messages] == [
        "0 borders of 0 fixed cells, 2 masked factorizations, 0 refinement steps",
        f"2 borders of {2 * fixed} fixed cells, 0 masked factorizations, 0 refinement steps"]
    assert np.abs(masked - bordered).max() <= 1e-13 * np.abs(masked).max()


@pytest.mark.parametrize("rates, cells, a, b, dense, log_tail", [
    # the first three on SuperLU: a stiff cycle 0 -> 1 -> 2 -> 0 broken by A
    # and B, one refinement step
    ([[0, 1e8, 0], [0, 0, 24], [1e4, 0, 0]], 1, 0, 1, False,
     "1 borders of 2 fixed cells, 0 masked factorizations, 1 refinement steps"),
    # stiffer: two steps leave the residual above a few ulps, so the free
    # cell is factored instead
    ([[0, 6.5e12, 1.7e13], [0, 0, 3.7e15], [7.9e15, 0, 0]], 1, 1, 0, False,
     "1 borders of 2 fixed cells, 1 masked factorizations, 2 refinement steps"),
    # flip-flop at rate 1e17: I - B is exactly singular, so no border; each
    # of the two cells is its own phase
    ([[0, 1e17, 0], [1e17, 0, 0], [0, 0, 0]], 2, 0, 2, False,
     "0 borders of 0 fixed cells, 2 masked factorizations, 0 refinement steps"),
    # a stiff cycle on the dense LU: one refinement step
    ([[0, 1.3e5, 0], [0, 0, 30], [6.4e8, 0, 0]], 1, 1, 2, True,
     "1 borders of 2 fixed cells, 0 masked factorizations, 1 refinement steps"),
], ids=["refined", "refinement-falls-short", "singular", "dense-refined"])
def test_stiff_blocks_refine_or_factor_the_free_cells(rates, cells, a, b, dense, log_tail,
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
