import dataclasses

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad
from scipy.sparse.linalg import spsolve

from ajc import galerkin, operators, presets
from ajc.galerkin import (
    SpaceTimeIndexer,
    assemble,
    phi,
    psi,
)
from ajc.committor import TAIL_TO_A, TAIL_TO_B, SpaceTimeSet, committor_solve
from ajc.generator import (
    GridPotential,
    RateMatrixSequence,
    TimeGrid,
    sqra_rates,
)
from ajc.operators import (
    RESIDUAL_TOL,
    NonConvergence,
    SpaceTimeVector,
    apply_adjoint,
    jump_activity,
    koopman_solve,
    reconstruct_propagator,
    solve_forward,
)

from conftest import (
    apply_forward,
    block_cond,
    closed_form_survival,
    committor_sparse_solve,
    dense_rate_matrix,
    flat,
    kernel_density,
    reference_apply_adjoint,
    reference_solve_backward,
    reference_solve_forward,
)

A, B = 0, 1


def quadrature_entry(seq, i, k, j, l):
    """Independent oracle: cell-averaged double integral of the exact kernel."""
    e = seq.grid.edges
    # the kernel vanishes for t1 <= t0; start the inner integral there to
    # keep the discontinuity off the quadrature grid on diagonal blocks
    val, _ = dblquad(
        lambda t1, t0: kernel_density(seq, i, t0, j, t1),
        e[k], e[k + 1],
        lambda t0: max(e[l], t0), lambda t0: e[l + 1],
        epsabs=1e-12,
    )
    return val / (e[k + 1] - e[k])


def assert_records_hold_closed_forms(J, q, dt):
    """Each cell's record holds phi, exp(-q dt), phi / dt and psi / dt of
    that cell's rates and width, bit for bit."""
    want = {"phi": phi(q, dt), "decay": np.exp(-q * dt), "leave": phi(q, dt) / dt,
            "within": psi(q, dt) / dt}
    for l, f in enumerate(J.cells):
        for name, table in want.items():
            assert getattr(f, name).tobytes() == table[:, l, None].tobytes(), (name, l)


class TestHelpers:
    @settings(max_examples=200, deadline=None)
    @given(q=st.floats(min_value=1e-12, max_value=1e6), dt=st.floats(min_value=1e-6, max_value=10.0))
    def test_phi_matches_high_precision_reference(self, q, dt):
        import mpmath

        with mpmath.workdps(50):
            ref = float((1 - mpmath.exp(-mpmath.mpf(q) * dt)) / q)
        assert float(phi(q, dt)) == pytest.approx(ref, rel=1e-11)

    @settings(max_examples=200, deadline=None)
    @given(q=st.floats(min_value=1e-12, max_value=1e6), dt=st.floats(min_value=1e-6, max_value=10.0))
    def test_psi_matches_high_precision_reference(self, q, dt):
        import mpmath

        with mpmath.workdps(50):
            x = mpmath.mpf(q) * dt
            ref = float((mpmath.exp(-x) + x - 1) / (mpmath.mpf(q) * q))
        assert float(psi(q, dt)) == pytest.approx(ref, rel=1e-11)

    def test_accurate_across_the_series_cut(self):
        # x = q dt swept through the range where the closed forms cancel;
        # the reference takes the float q and dt exactly
        for dt in (0.37, 3.1):
            for x in np.logspace(-8, 1.5, 400):
                q = x / dt
                with mpmath.workdps(50):
                    xm = mpmath.mpf(q) * mpmath.mpf(dt)
                    ref_phi = float(-mpmath.expm1(-xm) / q)
                    ref_psi = float((mpmath.exp(-xm) + xm - 1) / (mpmath.mpf(q) * q))
                assert abs(float(phi(q, dt)) / ref_phi - 1.0) <= 1e-15
                assert abs(float(psi(q, dt)) / ref_psi - 1.0) <= 2e-15

    def test_zero_rate_limits(self):
        assert float(phi(0.0, 0.7)) == pytest.approx(0.7)
        assert float(psi(0.0, 0.7)) == pytest.approx(0.7 ** 2 / 2)


class TestIndexer:
    def test_layout_time_outer_space_inner(self):
        idx = SpaceTimeIndexer(N=5, M=3)
        assert flat(idx, 0, 0) == 0
        assert flat(idx, 4, 0) == 4
        assert flat(idx, 0, 1) == 5
        i, k = idx.unflat(np.arange(idx.size))
        assert np.array_equal(flat(idx, i, k), np.arange(idx.size))


class TestAssemble:
    def test_reads_the_sequence_tables(self):
        seq = presets.triple_well(1 / 96)
        assert seq.outbound is seq.outbound
        J = assemble(seq)
        # J's only per-cell numbers are its records: no (N, M) closed-form table
        assert {f.name for f in dataclasses.fields(J)} == {
            "indexer", "grid", "outbound", "offdiag", "blocks", "block_of"}
        assert J.offdiag is seq.offdiag
        assert J.outbound is seq.outbound

    def test_one_diagonal_block_per_phase_and_width(self):
        seq = presets.triple_well(1 / 96)
        J = assemble(seq)
        pairs = list(zip(seq.phase.tolist(), seq.grid.widths.tolist()))
        first = {}
        for pair, b in zip(pairs, J.block_of):
            assert first.setdefault(pair, b) == b
        assert sorted(first.values()) == list(range(len(J.blocks)))

    def test_records_hold_kernels_columns_and_lu_only(self, monkeypatch):
        # two phases, each over cells of two widths: four records, two Rs
        Q0, Q1 = (presets.triple_well(1 / 6).matrices[k] for k in (0, -1))
        grid = TimeGrid(np.array([0.0, 0.125, 0.375, 0.5, 0.75, 0.875, 1.0]))
        J = assemble(RateMatrixSequence(grid, (Q0, Q0, Q0, Q1, Q1, Q1)))
        assert J.block_of.tolist() == [0, 1, 0, 2, 3, 3]
        assert {f.name for f in dataclasses.fields(J.blocks[0])} == {
            "R", "B", "phi", "decay", "leave", "within", "lu"}
        assert J.cells == tuple(J.blocks[b] for b in J.block_of)
        assert J.cells is J.cells
        for b in J.blocks:
            for column in (b.phi, b.decay, b.leave, b.within):
                assert column.shape == (J.indexer.N, 1) and column.flags.c_contiguous
        first, second = J.blocks[:2], J.blocks[2:]
        for one, other in (first, second):
            assert isinstance(one.R, np.ndarray) and one.R.flags.c_contiguous
            assert one.R is other.R and one.B is not other.B
        assert first[0].R is not second[0].R
        # a distinct beta per cell on a 12 x 12 grid, at the size rule: before
        # any solve each record holds its B and its phase's R, 2 N^2 doubles
        n = galerkin._DENSE_MAX
        pot = GridPotential(12, 12, 0.1, np.sin(np.arange(n)))
        seq = RateMatrixSequence(TimeGrid.uniform(0.0, 1.0, 10),
                                 sqra_rates(pot, 1.0 + np.arange(10)))
        J = assemble(seq)
        held = {id(a): a.nbytes for b in J.blocks for a in (b.R, b.B)}
        assert len(J.blocks) == 10 and all(b.lu is None for b in J.blocks)
        assert sum(held.values()) == 2 * n * n * 8 * len(J.blocks)
        # above the rule R wraps the sequence's own CSR arrays
        monkeypatch.setattr(galerkin, "_DENSE_MAX", 0)
        J = assemble(seq)
        assert all(np.shares_memory(getattr(J.blocks[b].R, name), getattr(seq.offdiag[l], name))
                   for l, b in enumerate(J.block_of) for name in ("data", "indices", "indptr"))
        assert all(sp.isspmatrix_csr(b.B) for b in J.blocks)

    def test_records_hold_each_cells_closed_forms(self):
        # one phase over cells of three widths, an absorbing phase (q = 0),
        # and q dt on both sides of _PSI_CUT; the widths are powers of two,
        # so equal cells are equal bit for bit and share a record
        Q0, Q1 = (presets.triple_well(1 / 6).matrices[k] for k in (0, -1))
        Z = dense_rate_matrix(np.zeros(Q0.shape))
        widths = 2.0 ** np.array([-10, -6, -10, -2, -6, -2, -10, -2, -6])
        mats = (Q0, Q0, Q1, Q0, Z, Z, Q1, Q1, Q0)
        grid = TimeGrid(np.concatenate([[0.0], np.cumsum(widths)]))
        seq = RateMatrixSequence(grid, mats)
        J = assemble(seq)
        q, dt = seq.outbound, grid.widths
        assert np.array_equal(dt, widths) and len(J.blocks) == 7
        x = q * dt
        assert (x == 0).any() and (x >= galerkin._PSI_CUT).any()
        assert ((x > 0) & (x < galerkin._PSI_CUT)).any()
        assert_records_hold_closed_forms(J, q, dt)

    def test_linspace_edges_share_the_uniform_grids_records(self):
        # explicit edges uniform to rounding: one record per phase, and the
        # solves of the uniform grid to the byte
        uniform = presets.triple_well(1 / 96)
        explicit = RateMatrixSequence(TimeGrid(np.linspace(0, 2, 193)), uniform.offdiag)
        A = SpaceTimeSet({(20, k) for k in range(192)}, "A")
        B = SpaceTimeSet({(24, k) for k in range(100, 192)}, "B")
        solved = []
        for seq in (uniform, explicit):
            J = assemble(seq)
            assert len(J.blocks) == 2
            solved.append([koopman_solve(J, np.arange(63.0), 150).values.tobytes(),
                           committor_solve(J, A, B, TAIL_TO_B).values.tobytes()])
        assert solved[0] == solved[1]

    def test_within_block_entry(self, two_state_seq, two_state_J):
        got = two_state_J.matrix[0, 1]
        assert got == pytest.approx(np.exp(-1.0), rel=1e-12)
        assert got == pytest.approx(quadrature_entry(two_state_seq, A, 0, B, 0), rel=1e-8)

    def test_gap_entry(self, two_state_seq, two_state_J):
        idx = two_state_J.indexer
        got = two_state_J.matrix[flat(idx, A, 0), flat(idx, B, 2)]
        assert got == pytest.approx((1 - np.exp(-1)) ** 2 * np.exp(-1), rel=1e-12)
        assert got == pytest.approx(quadrature_entry(two_state_seq, A, 0, B, 2), rel=1e-8)

    def test_quadrature_oracle_on_changing_rates(self, positive_rates_seq):
        J = assemble(positive_rates_seq)
        idx = J.indexer
        for (i, k, j, l) in [(0, 0, 1, 0), (0, 0, 2, 3), (1, 1, 0, 2), (2, 0, 1, 1)]:
            got = J.matrix[flat(idx, i, k), flat(idx, j, l)]
            assert got == pytest.approx(
                quadrature_entry(positive_rates_seq, i, k, j, l), rel=1e-7
            )

    def test_absorbing_row_is_empty(self):
        seq = RateMatrixSequence(
            TimeGrid.uniform(0, 2, 4),
            tuple(dense_rate_matrix([[0, 0], [1, 0]]) for _ in range(4)),
        )
        J = assemble(seq)
        for k in range(4):
            a = int(flat(J.indexer, 0, k))
            assert J.matrix[a].nnz == 0
            assert J.survival_mass[a] == pytest.approx(1.0)

    def test_block_upper_triangular(self, two_state_J, triple_well_J):
        for J in (two_state_J, triple_well_J):
            coo = J.matrix.tocoo()
            _, k = J.indexer.unflat(coo.row)
            _, l = J.indexer.unflat(coo.col)
            assert np.all(l >= k)

    def test_survival_mass_is_computed_once_and_read_only(self):
        # Koopman and the committor to the last edge, synchronize there and
        # the .json sidecar share one array; other edges get a fresh one
        J = assemble(presets.triple_well(1 / 12))
        last = J.indexer.M - 1
        S = J.survival_mass
        assert J.block_survival(last) is S and J.survival_mass is S
        assert not S.flags.writeable
        with pytest.raises(ValueError):
            S[0] = 0.0
        assert S.tobytes() == J._survival(last).tobytes()
        assert J.block_survival(0) is not J.block_survival(0)

    def test_entries_are_probabilities(self, two_state_J, triple_well_J):
        for J in (two_state_J, triple_well_J):
            assert J.matrix.data.min() >= 0.0
            assert J.matrix.data.max() <= 1.0
            rowsums = np.asarray(J.matrix.sum(axis=1)).ravel()
            assert rowsums.max() <= 1.0 + 1e-12
            assert J.survival_mass.min() >= -1e-12
            assert J.survival_mass.max() <= 1.0 + 1e-12

    def test_entries_after_a_stiff_cell(self):
        # q dt = 1e9/3 in cell 0: the decay between later cells must not be
        # taken as a difference of cumulative hazards that include it
        seq = RateMatrixSequence(TimeGrid.uniform(0.0, 2.0, 6), tuple(
            dense_rate_matrix([[0, r], [r, 0]]) for r in [1e9] + [0.7] * 5))
        J = assemble(seq)
        coo = J.matrix.tocoo()
        i, k = J.indexer.unflat(coo.row)
        _, l = J.indexer.unflat(coo.col)
        with mpmath.workdps(40):
            dt, r = mpmath.mpf(2) / 6, mpmath.mpf(0.7)
            for a, b, v in zip(k, l, coo.data):
                if b == 0:
                    continue
                if a == b:
                    ref = r * (mpmath.exp(-r * dt) + r * dt - 1) / (r * r * dt)
                else:
                    qa = mpmath.mpf(1e9) if a == 0 else r
                    ref = ((1 - mpmath.exp(-r * dt)) * mpmath.exp(-r * dt * (b - a - 1))
                           * (1 - mpmath.exp(-qa * dt)) / (qa * dt))
                assert abs(v / float(ref) - 1.0) <= 1e-12

    def test_sparsity_inheritance(self, positive_rates_seq, two_state_J):
        # equality for strictly positive rates, inequality in general
        J = assemble(positive_rates_seq)
        M = positive_rates_seq.grid.M
        nnz_q = 6  # 3 states, all off-diagonal rates positive
        assert J.matrix.nnz == nnz_q * M * (M + 1) // 2
        assert two_state_J.matrix.nnz <= 2 * 8 * 9 // 2

    def test_block_sparsity_within_generator_pattern(self, triple_well_seq, triple_well_J):
        J, seq = triple_well_J, triple_well_seq
        coo = J.matrix.tocoo()
        i, k = J.indexer.unflat(coo.row)
        j, l = J.indexer.unflat(coo.col)
        for m in range(seq.grid.M):
            Q = seq.matrices[m]
            pattern = set(zip(*Q.nonzero()))
            sel = l == m
            assert all((a, b) in pattern for a, b in zip(i[sel], j[sel]))


class TestRowMass:
    def test_absorbing_row(self):
        seq = RateMatrixSequence(
            TimeGrid.uniform(0, 2, 2),
            tuple(dense_rate_matrix([[0, 0], [1, 0]]) for _ in range(2)),
        )
        J = assemble(seq)
        assert J.matrix[0].sum() == 0.0 and J.survival_mass[0] == 1.0

    def test_two_state_first_cell(self, two_state_J):
        # A leaves at rate 1 on [0,4] and is frozen afterwards
        a = int(flat(two_state_J.indexer, A, 0))
        jump, surv = two_state_J.matrix[a].sum(), two_state_J.survival_mass[a]
        expected_jump = 1.0 - np.exp(-4.0) * (np.e - 1.0)
        assert jump == pytest.approx(expected_jump, rel=1e-12)
        assert jump + surv == pytest.approx(1.0, abs=1e-12)

    def test_last_cell_constant_rate(self, positive_rates_seq):
        seq = positive_rates_seq
        J = assemble(seq)
        M = seq.grid.M
        dt = seq.grid.widths[-1]
        for i in range(seq.N):
            q = seq.outbound[i, M - 1]
            a = int(flat(J.indexer, i, M - 1))
            jump, surv = J.matrix[a].sum(), J.survival_mass[a]
            assert jump == pytest.approx(1 - (1 - np.exp(-q * dt)) / (q * dt), rel=1e-11)
            assert jump + surv == pytest.approx(1.0, abs=1e-12)

    def test_mass_conservation_everywhere(self, two_state_J, triple_well_J):
        for J in (two_state_J, triple_well_J):
            jump = np.asarray(J.matrix.sum(axis=1)).ravel()
            surv = np.array([
                closed_form_survival(J, i, k)
                for k in range(J.indexer.M) for i in range(J.indexer.N)
            ])
            assert np.abs(jump + surv - 1.0).max() < 1e-10


@st.composite
def protocols(draw):
    """Small random protocols: absorbing cells, rates with q dt up to 1e9,
    and cell widths down to 1e-3."""
    n = draw(st.integers(2, 4))
    widths = draw(st.lists(st.floats(1e-3, 2.0), min_size=1, max_size=5))
    mats = []
    for dt in widths:
        if draw(st.booleans()) and draw(st.booleans()):
            mats.append(dense_rate_matrix(np.zeros((n, n))))
            continue
        qdt = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e9)),
                            min_size=n * n, max_size=n * n))
        mats.append(dense_rate_matrix(np.reshape(qdt, (n, n)) / dt))
    return RateMatrixSequence(TimeGrid(np.concatenate([[0.0], np.cumsum(widths)])),
                              tuple(mats))


class TestRandomProtocols:
    @settings(max_examples=60, deadline=None)
    @given(seq=protocols())
    def test_dense_records_equal_scipy_toarray(self, seq):
        # the dense records are built from the phases' numpy CSR arrays; the
        # same arrays through scipy give the same bits
        J = assemble(seq)
        for l, f in enumerate(J.cells):
            R = seq.offdiag[l]
            want = sp.csr_matrix((R.data, R.indices, R.indptr), shape=R.shape).toarray()
            within = psi(seq.outbound[:, l, None], seq.grid.widths[l]) / seq.grid.widths[l]
            for got, ref in ((f.R, want), (f.B, want * within)):
                assert (got.dtype, got.shape) == (ref.dtype, ref.shape)
                assert got.tobytes() == ref.tobytes()
    @settings(max_examples=60, deadline=None)
    @given(seq=protocols(), seed=st.integers(0, 2 ** 32 - 1))
    def test_scans_equal_the_explicit_matrix(self, seq, seed):
        J = assemble(seq)
        f = np.random.default_rng(seed).random((2, J.indexer.size))
        for got, want in ((apply_forward(J, f[0]), J.matrix.T @ f[0]),
                          (apply_adjoint(J, f[1]), J.matrix @ f[1])):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(seq=protocols())
    def test_mass_closure_and_koopman_of_ones(self, seq):
        J = assemble(seq)
        jump = np.asarray(J.matrix.sum(axis=1)).ravel()
        assert np.abs(jump + J.survival_mass - 1.0).max() <= 1e-14
        n, m = J.indexer.N, J.indexer.M
        K = koopman_solve(J, np.ones(n), m - 1)
        # a stiff cycle (q dt ~ 1e9 both ways) leaves a diagonal block
        # I - B with row sums ~ 1/(q dt); no substitution beats eps * cond there
        cond = block_cond(J)
        assert np.abs(K.values - 1.0).max() <= 1e-14 + 10 * np.finfo(float).eps * cond

    @settings(max_examples=60, deadline=None)
    @given(seq=protocols(), repeat=st.integers(1, 3), uniform=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_forward_solve_equals_a_sparse_solve(self, seq, repeat, uniform, seed):
        # every cell split into `repeat` cells of its phase, on explicit edges
        # or on a uniform grid, so transposed blocks and their LUs are reused
        mats = tuple(Q for Q in seq.matrices for _ in range(repeat))
        if uniform:
            grid = TimeGrid.uniform(0.0, seq.grid.horizon, len(mats))
        else:
            widths = np.repeat(seq.grid.widths / repeat, repeat)
            grid = TimeGrid(np.concatenate([[0.0], np.cumsum(widths)]))
        J = assemble(RateMatrixSequence(grid, mats))
        F = np.random.default_rng(seed).random((J.indexer.size, J.indexer.N))
        want = spsolve((sp.eye(J.indexer.size) - J.matrix).T.tocsc(), F)
        eps = np.finfo(float).eps
        try:
            got, _ = solve_forward(J, F)
        except NonConvergence:
            # a stiff cycle makes the activity ~ q dt: the solve may refuse
            # only where a few ulps of x reach the absolute RESIDUAL_TOL
            assert eps * np.abs(want).max() > 0.1 * RESIDUAL_TOL
            return
        # both solves lose up to eps * cond on an ill-conditioned block
        cond = block_cond(J, forward=True)
        np.testing.assert_allclose(got, want, rtol=1e-12 + 10 * eps * cond, atol=0.0)

    @settings(max_examples=60, deadline=None)
    @given(seq=protocols(), seed=st.integers(0, 2 ** 32 - 1))
    def test_activity_residual_is_the_full_residual(self, seq, seed):
        J = assemble(seq)
        f = np.random.default_rng(seed).random(J.indexer.size)
        try:
            a, residual = jump_activity(J, SpaceTimeVector(f, J.indexer))
        except NonConvergence:
            return  # the refusal of stiff cycles, test_forward_solve_equals_a_sparse_solve's
        # the worst block residual is the whole solve's, up to the order of
        # its roundings on terms no larger than the activity
        full = np.max(np.abs(a.values - apply_forward(J, a.values) - f))
        assert abs(residual - full) <= 4 * np.finfo(float).eps * np.abs(a.values).max()

    @settings(max_examples=60, deadline=None)
    @given(seq=protocols(), data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
    def test_propagator_of_a_stack_equals_its_columns(self, seq, data, seed):
        # N + 1 columns: the stack is a product of transfer matrices, each
        # column a scan; their block solves differ, so either may refuse a
        # stiff cycle alone, and where both succeed they meet to eps * cond
        J = assemble(seq)
        n, m = J.indexer.N, J.indexer.M
        l = data.draw(st.integers(0, m - 1))
        F = np.random.default_rng(seed).random((n, n + 1))
        try:
            want = np.column_stack([reconstruct_propagator(J, f, l) for f in F.T])
            got = reconstruct_propagator(J, F, l)
        except NonConvergence:
            return
        eps = np.finfo(float).eps
        cond = block_cond(J, forward=True)
        assert np.abs(got - want).max() <= (1e-14 + 10 * eps * cond) * np.abs(want).max()

    @settings(max_examples=60, deadline=None)
    @given(seq=protocols(), repeat=st.integers(2, 9), data=st.data())
    def test_propagator_over_runs_of_a_phase_equals_a_sparse_solve(self, seq, repeat, data):
        # every cell split into `repeat` cells of its phase on a uniform grid,
        # so the identity stack squares one transfer matrix over each run
        mats = tuple(Q for Q in seq.matrices for _ in range(repeat))
        J = assemble(RateMatrixSequence(TimeGrid.uniform(0.0, seq.grid.horizon, len(mats)), mats))
        n, m = J.indexer.N, J.indexer.M
        F = np.zeros((J.indexer.size, n))
        F[:n] = np.eye(n)
        X = spsolve((sp.eye(J.indexer.size) - J.matrix).T.tocsc(), F)
        eps = np.finfo(float).eps
        cond = block_cond(J, forward=True)
        for l in (m - 1, data.draw(st.integers(repeat - 1, m - 1))):
            try:
                got = reconstruct_propagator(J, np.eye(n), l)
            except NonConvergence:
                # a block solve refuses only where a few ulps of its
                # solution reach the absolute RESIDUAL_TOL
                assert eps * cond > 0.1 * RESIDUAL_TOL
                continue
            want = operators._synchronize(J, X, l)
            assert np.abs(got - want).max() <= (1e-14 + 10 * eps * cond) * np.abs(want).max()

    @settings(max_examples=60, deadline=None)
    @given(seq=protocols(), data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
    def test_propagator_and_koopman_are_dual(self, seq, data, seed):
        J = assemble(seq)
        n, m = J.indexer.N, J.indexer.M
        l = data.draw(st.integers(0, m - 1))
        rng = np.random.default_rng(seed)
        f, g = rng.random(n), rng.random(n)
        f /= f.sum()
        rhs = f @ koopman_solve(J, g, l).values[:n]
        eps = np.finfo(float).eps
        try:
            lhs = reconstruct_propagator(J, f, l) @ g
        except NonConvergence:
            # the forward solve's refusal of stiff cycles, as in
            # test_forward_solve_equals_a_sparse_solve
            F = np.zeros(J.indexer.size)
            F[:n] = f
            a = spsolve((sp.eye(J.indexer.size) - J.matrix).T.tocsc(), F)
            assert eps * np.abs(a).max() > 0.1 * RESIDUAL_TOL
            return
        cond = block_cond(J)
        assert abs(lhs - rhs) <= 1e-14 + 10 * eps * cond

    @settings(max_examples=60, deadline=None)
    @given(seq=protocols(), data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
    def test_scans_equal_the_per_cell_reference(self, dense, seq, data, seed):
        # the record-reading scans and the per-record residual checks give
        # the per-cell scans' bits, and refuse the same solves
        with pytest.MonkeyPatch.context() as mp:
            if not dense:
                mp.setattr(galerkin, "_DENSE_MAX", 0)
            J = assemble(seq)
        n, m = J.indexer.N, J.indexer.M
        assert isinstance(J.blocks[0].B, np.ndarray) == dense
        assert_records_hold_closed_forms(J, seq.outbound, seq.grid.widths)
        l = data.draw(st.integers(0, m - 1))
        rng = np.random.default_rng(seed)
        g, f, G = rng.random(n), rng.random(J.indexer.size), rng.random(J.indexer.size)
        F = rng.random((n, data.draw(st.integers(1, n - 1))))
        _, sets = self.committor(J, data)

        def refused(solve):
            try:
                return solve()
            except NonConvergence:
                return "refused"

        def outputs():
            return [refused(lambda: koopman_solve(J, g, l).values),
                    refused(lambda: committor_solve(J, *sets).values),
                    refused(lambda: jump_activity(J, SpaceTimeVector(f, J.indexer))[0].values),
                    refused(lambda: reconstruct_propagator(J, F, l))]
        G3 = rng.random((J.indexer.size, 3))
        got = outputs() + [apply_adjoint(J, G), apply_adjoint(J, G3)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(operators, "solve_forward", reference_solve_forward)
            mp.setattr(operators, "_solve_backward", reference_solve_backward)
            mp.setattr("ajc.committor._solve_backward", reference_solve_backward)
            want = outputs() + [reference_apply_adjoint(J, G), reference_apply_adjoint(J, G3)]
        for a, b in zip(got, want):
            if isinstance(b, str):
                assert isinstance(a, str)
            else:
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @staticmethod
    def committor(J, data):
        """A committor of random A/B/free labels and tail, with its sets."""
        n, m = J.indexer.N, J.indexer.M
        cells = [(i, k) for i in range(n) for k in range(m)]
        labels = data.draw(st.lists(st.sampled_from("AB-"), min_size=len(cells),
                                    max_size=len(cells)))
        assume("A" in labels)
        A = SpaceTimeSet(c for c, x in zip(cells, labels) if x == "A")
        B = SpaceTimeSet(c for c, x in zip(cells, labels) if x == "B")
        tail = data.draw(st.one_of(st.sampled_from([TAIL_TO_A, TAIL_TO_B]), st.floats(0.0, 1.0)))
        return committor_solve(J, A, B, tail).values, (A, B, tail)

    @staticmethod
    def bound(J):
        return 1e-14 + 10 * np.finfo(float).eps * block_cond(J)

    @settings(max_examples=60, deadline=None)
    @given(seq=protocols(), data=st.data())
    def test_committor_is_a_probability(self, seq, data):
        J = assemble(seq)
        c, _ = self.committor(J, data)
        assert max(-c.min(), c.max() - 1.0) <= self.bound(J)

    @settings(max_examples=60, deadline=None)
    @given(seq=protocols(), data=st.data())
    def test_committor_equals_a_sparse_solve(self, seq, data):
        # the masked blocks against one solve of the masked free system
        J = assemble(seq)
        c, sets = self.committor(J, data)
        assert np.abs(c - committor_sparse_solve(J, *sets)).max() <= self.bound(J)


class TestApply:
    def test_zero_maps_to_zero(self, two_state_J):
        z = np.zeros(two_state_J.indexer.size)
        assert np.all(apply_forward(two_state_J, z) == 0)

    def test_last_block_support_stays_in_last_block(self, two_state_J):
        idx = two_state_J.indexer
        f = np.zeros(idx.size)
        f[flat(idx, B, idx.M - 1)] = 1.0
        out = apply_forward(two_state_J, f)
        assert np.all(out[: (idx.M - 1) * idx.N] == 0)

    def test_adjoint_pair(self, triple_well_J):
        rng = np.random.default_rng(11)
        n = triple_well_J.indexer.size
        for _ in range(5):
            f, g = rng.random(n), rng.random(n)
            lhs = apply_forward(triple_well_J, f) @ g
            rhs = f @ apply_adjoint(triple_well_J, g)
            assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(f) * np.linalg.norm(g)

    def test_dimension_mismatch(self, two_state_J):
        with pytest.raises(ValueError):
            apply_adjoint(two_state_J, np.zeros(3))
