import numpy as np
import pytest
import scipy.sparse as sp

from ajc import presets
from ajc.generator import (
    GridPotential,
    RateMatrixSequence,
    TimeGrid,
    four_neighbor_adjacency,
    rate_sequence_from_protocol,
    sqra_rates,
    validate_generator,
)
from ajc.jumpchain import SpaceTimePoint, sample_trajectory

from conftest import dense_rate_matrix, four_neighbor_adjacency_loop


def seq_of(grid, *mats):
    return RateMatrixSequence(grid, tuple(sp.csr_matrix(np.array(m, float)) for m in mats))


class TestTimeGrid:
    def test_rejects_non_increasing_edges(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0, 1.0, 1.0]))

    def test_uniform(self):
        grid = TimeGrid.uniform(0.0, 8.0, 8)
        assert grid.M == 8
        np.testing.assert_allclose(grid.widths, 1.0)

    def test_uniform_cells_share_one_width(self):
        # linspace edges differ in the last bit; the recorded width does not
        grid = TimeGrid.uniform(0, 2, 192)
        assert np.unique(np.diff(grid.edges)).size > 1
        assert np.unique(grid.widths).tolist() == [2 / 192]
        np.testing.assert_array_equal(grid.edges, np.linspace(0, 2, 193))
        # explicit edges keep their differences
        edges = np.linspace(0, 2, 193)
        np.testing.assert_array_equal(TimeGrid(edges).widths, np.diff(edges))

    def test_interval_convention_half_open_left(self):
        grid = TimeGrid.uniform(0.0, 4.0, 4)
        assert grid.interval_of(1.0) == 0  # boundary belongs to the cell ending there
        assert grid.interval_of(1.5) == 1
        assert grid.interval_of(0.0) == 0
        with pytest.raises(ValueError):
            grid.interval_of(4.5)


class TestValidateGenerator:
    def test_valid_absorbing_generator(self):
        seq = seq_of(TimeGrid.uniform(0, 1, 1), [[-1.0, 1.0], [0.0, 0.0]])
        assert validate_generator(seq) == []

    def test_rowsum_violation(self):
        # rows close by construction; finite rates whose sum overflows do not
        seq = seq_of(TimeGrid.uniform(0, 1, 1), [[0, 1e308, 1e308], [1.0, 0, 0], [1.0, 0, 0]])
        bad = validate_generator(seq)
        assert [(v.kind, v.row, v.col, v.magnitude) for v in bad] == \
            [("rowsum", 0, None, np.inf)]

    def test_diagonal_is_ignored(self):
        # a wrong diagonal splits into the bytes of the off-diagonal part alone
        off = np.array([[0, 1.0, 0.5], [2.0, 0, 0], [0, 0.25, 0]])
        wrong = seq_of(TimeGrid.uniform(0, 1, 1), off + np.diag([3.0, -7.0, 0.0]))
        alone = seq_of(TimeGrid.uniform(0, 1, 1), off)
        for name in ("data", "indices", "indptr"):
            a, b = getattr(wrong.offdiag[0], name), getattr(alone.offdiag[0], name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert wrong.outbound.tobytes() == alone.outbound.tobytes()
        np.testing.assert_array_equal(wrong.outbound[:, 0], [1.5, 2.0, 0.25])

    def test_negativity_violation(self):
        seq = seq_of(TimeGrid.uniform(0, 1, 1), [[0.3, -0.3], [0.0, 0.0]])
        kinds = {v.kind for v in validate_generator(seq)}
        assert "negativity" in kinds

    @pytest.mark.parametrize("rate", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rate(self, rate):
        Q = dense_rate_matrix([[0, rate], [1.0, 0]])
        seq = RateMatrixSequence(TimeGrid.uniform(0, 1, 1), (Q,))
        bad = validate_generator(seq)
        assert [(v.kind, v.row, v.col) for v in bad] == [("nonfinite", 0, 1)]
        assert "nonfinite violation at matrix 0, row 0, col 1" in str(bad[0])

    def test_one_report_per_phase(self):
        # a phase's violations are filed once, under its first cell
        bad = dense_rate_matrix([[0, -1.0], [2.0, 0]])
        good = dense_rate_matrix([[0, 1.0], [1.0, 0]])
        seq = RateMatrixSequence(TimeGrid.uniform(0, 4, 4), (good, bad, good, bad))
        assert seq.phase.tolist() == [0, 1, 0, 1]
        found = validate_generator(seq)
        assert [(v.matrix, v.kind, v.row, v.col) for v in found] == [(1, "negativity", 0, 1)]
        assert str(found[0]) == "negativity violation at matrix 1, row 0, col 1: 1.000e+00"


class TestEmbeddedProbabilities:
    def test_direct_ratio(self):
        # oracle: Monte Carlo race of two exponential clocks at rates 1 and 3
        rng = np.random.default_rng(0)
        n = 200_000
        first = rng.exponential(1.0, n) < rng.exponential(1.0 / 3.0, n)
        p_fast = 1.0 - first.mean()
        # the sampler's first jump from state 0 into absorbing states 1 and 2
        seq = seq_of(TimeGrid.uniform(0, 50, 1), [[-4.0, 1.0, 3.0], [0, 0, 0], [0, 0, 0]])
        draws = 20_000
        targets = [sample_trajectory(seq, SpaceTimePoint(0, 0.0), 50.0, rng).states[1]
                   for _ in range(draws)]
        freq = np.mean(np.array(targets) == 2)
        assert abs(freq - p_fast) < 3 * np.sqrt(0.25 * 0.75 * (1 / draws + 1 / n))


class TestSqra:
    def test_potentials_compare_by_value(self):
        pot = GridPotential(3, 3, 1.0, np.zeros(9))
        assert pot == GridPotential(3, 3, 1.0, np.zeros((3, 3)))
        assert hash(pot) == hash(GridPotential(3, 3, 1.0, np.zeros(9)))
        for other in (GridPotential(3, 3, 1.0, np.ones(9)), GridPotential(3, 3, 0.5, np.zeros(9)),
                      GridPotential(9, 1, 1.0, np.zeros(9)), None):
            assert pot != other
        assert len({pot, GridPotential(3, 3, 1.0, np.zeros(9))}) == 1

    def test_flat_potential_gives_flat_rate(self):
        pot = GridPotential(3, 3, 0.5, np.full(9, 1.7))
        beta = 2.0
        Q = sqra_rates(pot, beta)
        phi = 1.0 / (beta * 0.25)
        off = Q.tocoo()
        mask = off.row != off.col
        np.testing.assert_allclose(off.data[mask], phi)

    def test_hand_evaluated_boltzmann_factor(self):
        # V_j - V_i = 2/beta with h = 1 gives Q_ij = exp(-1)/beta
        beta = 3.0
        values = np.array([0.0, 2.0 / beta])
        pot = GridPotential(2, 1, 1.0, values)
        Q = sqra_rates(pot, beta)
        assert Q[0, 1] == pytest.approx(np.exp(-1.0) / beta, rel=1e-14)
        assert Q[1, 0] == pytest.approx(np.exp(1.0) / beta, rel=1e-14)

    def test_9x7_grid_edge_count(self):
        pot = GridPotential(9, 7, 0.5, np.zeros(63))
        Q = sqra_rates(pot, 1.0)
        coo = Q.tocoo()
        offdiag = np.count_nonzero(coo.row != coo.col)
        assert offdiag == 2 * (8 * 7 + 9 * 6) == 220

    def test_detailed_balance(self):
        rng = np.random.default_rng(3)
        beta = 1.5
        pot = GridPotential(5, 4, 0.3, rng.normal(size=20))
        Q = sqra_rates(pot, beta).toarray()
        pi = np.exp(-beta * pot.values)
        flux = pi[:, None] * Q
        np.testing.assert_allclose(flux, flux.T, rtol=1e-12)

    def test_sparsity_pattern_equals_adjacency(self):
        rng = np.random.default_rng(4)
        pot = GridPotential(4, 6, 1.0, rng.normal(size=24))
        Q = sqra_rates(pot, 2.0).tocoo()
        got = {(i, j) for i, j in zip(Q.row, Q.col) if i != j}
        A = pot.adjacency.tocoo()
        assert got == set(zip(A.row.tolist(), A.col.tolist()))

    def test_rejects_bad_parameters(self):
        pot = GridPotential(2, 2, 1.0, np.zeros(4))
        with pytest.raises(ValueError):
            sqra_rates(pot, 0.0)
        with pytest.raises(ValueError):
            GridPotential(2, 2, -1.0, np.zeros(4))

    def test_adjacency_degrees(self):
        A = four_neighbor_adjacency(9, 7)
        deg = np.asarray(A.sum(axis=1)).ravel()
        assert sorted(np.unique(deg)) == [2, 3, 4]
        assert np.count_nonzero(deg == 2) == 4  # corners
        assert (A != A.T).nnz == 0
        assert A.diagonal().sum() == 0

    @pytest.mark.parametrize("nx, ny", [(50, 50), (9, 7), (1, 5), (5, 1), (3, 4), (1, 1)])
    def test_adjacency_equals_the_loop(self, nx, ny):
        got, want = four_neighbor_adjacency(nx, ny), four_neighbor_adjacency_loop(nx, ny)
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)


class TestProtocol:
    def test_two_state_protocol_matrices(self, two_state_seq):
        assert two_state_seq.grid.M == 8
        expected_early = np.array([[-1.0, 1.0], [0.0, 0.0]])
        expected_late = np.array([[0.0, 0.0], [1.0, -1.0]])
        for k in range(4):
            np.testing.assert_array_equal(two_state_seq.matrices[k].toarray(), expected_early)
        for k in range(4, 8):
            np.testing.assert_array_equal(two_state_seq.matrices[k].toarray(), expected_late)

    def test_one_rate_matrix_per_phase(self):
        seq = presets.triple_well(1 / 96)
        # one split per distinct builder output, shared by the cells of its phase
        np.testing.assert_array_equal(seq.phase, [0] * 96 + [1] * 96)
        assert seq.offdiag[0] is seq.offdiag[95] and seq.offdiag[96] is seq.offdiag[-1]
        assert seq.offdiag[95] is not seq.offdiag[96]
        assert seq.matrices[0] is seq.matrices[95] and seq.matrices[96] is seq.matrices[-1]
        assert seq.matrices[95] is not seq.matrices[96]
        assert presets.two_state(0.5).phase.max() == 1

    def test_triple_well_phases_equal_sqra_generators_closed_again(self):
        # the preset splits each phase once into the SQRA rates and their row
        # sums, and its generators, read back, split into the same bytes
        pot = presets.triple_well_grid_potential()
        seq = presets.triple_well(1 / 12)
        again = RateMatrixSequence(seq.grid, seq.matrices)
        np.testing.assert_array_equal(seq.phase, again.phase)
        for k, beta in ((0, 1.0), (12, 10.0)):
            R = sqra_rates(pot, beta)
            q = np.asarray(R.sum(axis=1)).ravel()
            for got in (seq, again):
                for name in ("data", "indices", "indptr"):
                    a, b = getattr(got.offdiag[k], name), getattr(R, name)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
                assert got.outbound[:, k].tobytes() == q.tobytes()
        assert seq.outbound.tobytes() == again.outbound.tobytes()

    def test_constant_builder(self):
        Q = dense_rate_matrix([[0, 1], [2, 0]])
        seq = rate_sequence_from_protocol(TimeGrid.uniform(0, 1, 5), lambda k, span: Q)
        for M in seq.matrices:
            np.testing.assert_array_equal(M.toarray(), Q.toarray())

    def test_triple_well_beta_schedule(self, triple_well_seq):
        assert triple_well_seq.grid.M == 6
        # first three cells share the hot generator, last three the cold one
        hot = triple_well_seq.matrices[0].toarray()
        cold = triple_well_seq.matrices[5].toarray()
        for k in (1, 2):
            np.testing.assert_array_equal(triple_well_seq.matrices[k].toarray(), hot)
        for k in (3, 4):
            np.testing.assert_array_equal(triple_well_seq.matrices[k].toarray(), cold)
        assert not np.array_equal(hot, cold)

    def test_builder_failure_reports_interval(self):
        def builder(k, span):
            if k == 2:
                raise RuntimeError("boom")
            return dense_rate_matrix([[0, 1], [1, 0]])

        with pytest.raises(ValueError, match="cell 2"):
            rate_sequence_from_protocol(TimeGrid.uniform(0, 1, 4), builder)

    def test_produced_sequences_are_valid(self, triple_well_seq, two_state_seq):
        assert validate_generator(triple_well_seq) == []
        assert validate_generator(two_state_seq) == []

    def test_diagonal_recomputed(self):
        raw = sp.csr_matrix(np.array([[5.0, 1.0], [2.0, 7.0]]))
        Q = RateMatrixSequence(TimeGrid.uniform(0, 1, 1), (raw,)).matrices[0]
        np.testing.assert_allclose(np.asarray(Q.sum(axis=1)).ravel(), 0.0, atol=1e-15)
        assert Q[0, 1] == 1.0 and Q[1, 0] == 2.0
