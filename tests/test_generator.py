import dataclasses
import re
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.vendor.pretty import pretty

from ajc import io as ajcio
from ajc import presets
from ajc.generator import (
    GridPotential,
    InvalidProtocol,
    RateMatrixSequence,
    TimeGrid,
    _split,
    four_neighbor_adjacency,
    sqra_rates,
)
from ajc.jumpchain import SpaceTimePoint, sample_trajectory

from conftest import (
    csr_bytes,
    dense_rate_matrix,
    four_neighbor_adjacency_loop,
    reference_split,
    reference_sqra_rates,
    reference_validate_generator,
)


def seq_of(grid, *mats):
    return RateMatrixSequence(grid, tuple(sp.csr_matrix(np.array(m, float)) for m in mats))


def violations(grid, *mats):
    """The violations that refuse the sequence of these rate matrices."""
    with pytest.raises(InvalidProtocol) as err:
        RateMatrixSequence(grid, mats)
    return err.value.violations


@pytest.mark.parametrize("make, message", [
    (lambda: TimeGrid(np.ones((2, 2))),
     "time grid needs a one-dimensional array of at least two edges, got shape (2, 2)"),
    (lambda: RateMatrixSequence(TimeGrid.uniform(0, 1, 1), [np.ones((2, 3))]),
     "the rate matrix of cell 0 is not square: shape (2, 3)"),
    (lambda: RateMatrixSequence(TimeGrid.uniform(0, 1, 3),
                                [np.ones((2, 2))] * 2 + [sp.csr_matrix((3, 2))]),
     "the rate matrix of cell 2 is not square: shape (3, 2)"),
    (lambda: RateMatrixSequence(TimeGrid.uniform(0, 1, 1), [np.ones(3)]),
     "a rate matrix must be two-dimensional, got shape (3,)"),
    (lambda: RateMatrixSequence(TimeGrid.uniform(0, 1, 2), [np.ones((2, 2))]),
     "need exactly one rate matrix per time cell"),
    (lambda: GridPotential(2, 2, 1.0, np.zeros(3)), "potential values must have nx*ny entries"),
], ids=["edges-2d", "not-square", "not-square-later-cell", "matrix-1d", "matrices-per-cell",
        "potential-size"])
def test_a_malformed_input_is_refused_by_name(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


class TestTimeGrid:
    def test_rejects_non_increasing_edges(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0, 1.0, 1.0]))

    def test_rejects_widths_whose_square_overflows(self):
        with pytest.raises(ValueError, match="width 5e\\+299 is too wide"):
            TimeGrid.uniform(0.0, 1e300, 2)
        with pytest.raises(ValueError, match="width inf is too wide"):
            TimeGrid(np.array([-1e308, 1e308]))
        assert TimeGrid.uniform(0.0, 2e154, 2).widths.tolist() == [1e154, 1e154]

    def test_uniform_rejects_cell_counts_numpy_cannot_allocate(self):
        for cells, shown in ((0, "cells must be positive, got 0"),
                             (10 ** 15, "1e\\+15 cells are more than numpy can allocate"),
                             (10 ** 30, "1e\\+30 cells are more than numpy can allocate")):
            with pytest.raises(ValueError, match=shown):
                TimeGrid.uniform(0.0, 2.0, cells)

    def test_uniform_rejects_non_finite_ends_by_name(self):
        with pytest.raises(ValueError, match="t1 must be finite, got inf"):
            TimeGrid.uniform(0.0, np.inf, 2)
        with pytest.raises(ValueError, match="t0 must be finite, got -inf"):
            TimeGrid.uniform(-np.inf, 0.0, 2)

    def test_uniform(self):
        grid = TimeGrid.uniform(0.0, 8.0, 8)
        assert grid.M == 8
        np.testing.assert_allclose(grid.widths, 1.0)

    def test_uniform_cells_share_one_width(self):
        # linspace edges differ in the last bit; the widths do not
        grid = TimeGrid.uniform(0, 2, 192)
        assert np.unique(np.diff(grid.edges)).size > 1
        assert np.unique(grid.widths).tolist() == [2 / 192]
        np.testing.assert_array_equal(grid.edges, np.linspace(0, 2, 193))
        # explicit edges uniform to rounding get the same width
        assert TimeGrid(np.linspace(0, 2, 193)).widths.tobytes() == grid.widths.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(ends=st.lists(st.tuples(st.sampled_from([-1.0, 1.0]),
                                   st.one_of(st.just(0.0), st.floats(1e-8, 1e8))),
                         min_size=2, max_size=2),
           cells=st.integers(1, 10 ** 5))
    def test_linspace_edges_get_the_uniform_width(self, ends, cells):
        # every span of magnitudes 1e-8 to 1e8, negative or across zero
        t0, t1 = sorted(sign * size for sign, size in ends)
        if not t0 < t1:
            return
        try:
            uniform = TimeGrid.uniform(t0, t1, cells)
        except ValueError:  # cells narrower than the edges' rounding
            with pytest.raises(ValueError, match="strictly increasing"):
                TimeGrid(np.linspace(t0, t1, cells + 1))
            return
        explicit = TimeGrid(np.linspace(t0, t1, cells + 1))
        assert explicit.widths.tobytes() == uniform.widths.tobytes()
        assert uniform.widths.tobytes() == np.full(cells, (t1 - t0) / cells).tobytes()

    @pytest.mark.parametrize("edges", [
        np.concatenate([[0.0], np.cumsum(2.0 ** np.array([-10, -6, -10, -2, -6, -2, -10,
                                                          -2, -6]))]),
        np.concatenate([[0.0], np.cumsum(np.random.default_rng(23).uniform(0.05, 1.0, 6))]),
        np.geomspace(1e-3, 2.0, 40),
    ], ids=["powers-of-two", "random-edges", "geometric"])
    def test_distinct_widths_are_the_edge_differences(self, edges):
        # the 2^-k grid of test_records_hold_each_cells_closed_forms and the
        # edges of the random-edges export case
        assert TimeGrid(edges).widths.tobytes() == np.diff(edges).tobytes()

    def test_a_grid_keeps_a_read_only_copy_of_its_edges(self):
        edges = np.linspace(0, 1, 3)
        grid = TimeGrid(edges)
        edges[1] = 5.0
        assert grid.edges.tolist() == [0.0, 0.5, 1.0] and grid.widths.tolist() == [0.5, 0.5]
        uniform = TimeGrid.uniform(0, 1, 2)
        for array in (grid.edges, grid.widths, uniform.edges, uniform.widths):
            with pytest.raises(ValueError, match="read-only"):
                array[-1] = 9.0
        assert uniform.horizon == 1.0

    def test_grids_and_sequences_compare_and_hash_by_identity(self):
        grid = TimeGrid.uniform(0, 1, 2)
        assert grid == grid and grid != TimeGrid.uniform(0, 1, 2)
        assert len({grid, grid, TimeGrid.uniform(0, 1, 2)}) == 2
        seq = presets.two_state()
        assert seq == seq and seq != presets.two_state()
        assert len({seq, seq, presets.two_state()}) == 2


class TestValidateGenerator:
    """A sequence is validated on construction."""

    def test_valid_absorbing_generator(self):
        seq = seq_of(TimeGrid.uniform(0, 1, 1), [[-1.0, 1.0], [0.0, 0.0]])
        np.testing.assert_array_equal(seq.outbound[:, 0], [1.0, 0.0])

    def test_rowsum_violation(self):
        # rows close by construction; finite rates whose sum overflows do not
        rates = sp.csr_matrix(np.array([[0, 1e308, 1e308], [1.0, 0, 0], [1.0, 0, 0]]))
        bad = violations(TimeGrid.uniform(0, 1, 1), rates)
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
        rates = sp.csr_matrix(np.array([[0.3, -0.3], [0.0, 0.0]]))
        kinds = {v.kind for v in violations(TimeGrid.uniform(0, 1, 1), rates)}
        assert "negativity" in kinds

    @pytest.mark.parametrize("rate", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rate(self, rate):
        Q = dense_rate_matrix([[0, rate], [1.0, 0]])
        bad = violations(TimeGrid.uniform(0, 1, 1), Q)
        assert [(v.kind, v.row, v.col) for v in bad] == [("nonfinite", 0, 1)]
        assert "nonfinite violation at matrix 0, row 0, col 1" in str(bad[0])

    def test_one_report_per_phase(self):
        # a phase's violations are filed once, under its first cell
        bad = dense_rate_matrix([[0, -1.0], [2.0, 0]])
        good = dense_rate_matrix([[0, 1.0], [1.0, 0]])
        found = violations(TimeGrid.uniform(0, 4, 4), good, bad, good, bad)
        assert [(v.matrix, v.kind, v.row, v.col) for v in found] == [(1, "negativity", 0, 1)]
        assert str(found[0]) == "negativity violation at matrix 1, row 0, col 1: 1.000e+00"

    def test_a_negative_rate_is_refused(self):
        # refused on construction, so neither assemble nor the sampler reads it
        rates = sp.csr_matrix(np.array([[0.0, -1.0], [2.0, 0.0]]))
        with pytest.raises(InvalidProtocol) as err:
            RateMatrixSequence(TimeGrid.uniform(0, 2, 2), (rates, rates))
        assert [(v.matrix, v.kind, v.row, v.col, v.magnitude) for v in err.value.violations] \
            == [(0, "negativity", 0, 1, 1.0)]
        assert str(err.value) == \
            "invalid protocol: negativity violation at matrix 0, row 0, col 1: 1.000e+00"

    def test_no_states_is_refused(self):
        with pytest.raises(ValueError, match="at least one state"):
            RateMatrixSequence(TimeGrid.uniform(0, 1, 2), [sp.csr_matrix((0, 0))] * 2)


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
    def test_flat_potential_gives_flat_rate(self):
        pot = GridPotential(3, 3, 0.5, np.full(9, 1.7))
        beta = 2.0
        Q, = sqra_rates(pot, [beta])
        phi = 1.0 / (beta * 0.25)
        off = Q.as_scipy().tocoo()
        mask = off.row != off.col
        np.testing.assert_allclose(off.data[mask], phi)

    def test_hand_evaluated_boltzmann_factor(self):
        # V_j - V_i = 2/beta with h = 1 gives Q_ij = exp(-1)/beta
        beta = 3.0
        values = np.array([0.0, 2.0 / beta])
        pot = GridPotential(2, 1, 1.0, values)
        Q = sqra_rates(pot, [beta])[0].toarray()
        assert Q[0, 1] == pytest.approx(np.exp(-1.0) / beta, rel=1e-14)
        assert Q[1, 0] == pytest.approx(np.exp(1.0) / beta, rel=1e-14)

    def test_9x7_grid_edge_count(self):
        pot = GridPotential(9, 7, 0.5, np.zeros(63))
        Q, = sqra_rates(pot, [1.0])
        coo = Q.as_scipy().tocoo()
        offdiag = np.count_nonzero(coo.row != coo.col)
        assert offdiag == 2 * (8 * 7 + 9 * 6) == 220

    def test_detailed_balance(self):
        rng = np.random.default_rng(3)
        beta = 1.5
        pot = GridPotential(5, 4, 0.3, rng.normal(size=20))
        Q = sqra_rates(pot, [beta])[0].toarray()
        pi = np.exp(-beta * pot.values)
        flux = pi[:, None] * Q
        np.testing.assert_allclose(flux, flux.T, rtol=1e-12)

    def test_sparsity_pattern_equals_adjacency(self):
        rng = np.random.default_rng(4)
        pot = GridPotential(4, 6, 1.0, rng.normal(size=24))
        Q = sqra_rates(pot, [2.0])[0].as_scipy().tocoo()
        got = {(i, j) for i, j in zip(Q.row, Q.col) if i != j}
        A = pot.adjacency.as_scipy().tocoo()
        assert got == set(zip(A.row.tolist(), A.col.tolist()))

    def test_a_potential_keeps_a_read_only_copy_of_its_values(self):
        values = np.zeros(4)
        pot = GridPotential(2, 2, 1.0, values)
        values[0] = 3.0
        assert pot.values.tolist() == [0.0] * 4
        with pytest.raises(ValueError, match="read-only"):
            pot.values[0] = 3.0

    def test_rejects_bad_parameters(self):
        pot = GridPotential(2, 2, 1.0, np.zeros(4))
        with pytest.raises(ValueError):
            sqra_rates(pot, [1.0, 0.0])
        with pytest.raises(ValueError):
            GridPotential(2, 2, -1.0, np.zeros(4))
        for h in (np.inf, np.nan):  # an infinite h would freeze every rate at 0
            with pytest.raises(ValueError, match=f"h must be positive and finite, got h={h}"):
                GridPotential(2, 2, h, np.zeros(4))
        for h in (1e300, 1.4e154):  # h^2 overflows, and the rates divide by it
            with pytest.raises(ValueError, match=re.escape(f"h={h!r} is too large: its square")):
                GridPotential(2, 2, h, np.zeros(4))
        widest = GridPotential(2, 2, 1.3e154, np.zeros(4))
        assert np.isfinite(sqra_rates(widest, [1.0])[0].data).all()
        for nx, ny, values in ((-1, -2, np.zeros(2)), (0, 0, []), (0, 3, []), (2, 0, [])):
            with pytest.raises(ValueError, match="nx and ny must be positive"):
                GridPotential(nx, ny, 1.0, values)

    def test_a_schedule_gives_one_matrix_per_beta(self):
        pot = GridPotential(3, 2, 0.5, np.arange(6.0))
        rates = sqra_rates(pot, [2.0, 1.0, 2.0, 2.0, 1.0])
        assert [id(R) for R in rates] == [id(rates[i]) for i in (0, 1, 0, 0, 1)]
        assert rates[0] is not rates[1]
        for R, beta in zip(rates, (2.0, 1.0)):
            assert csr_bytes(R) == csr_bytes(sqra_rates(pot, [beta])[0])

    def test_adjacency_degrees(self):
        A = four_neighbor_adjacency(9, 7).as_scipy()
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
        # one split per distinct rate matrix, shared by the cells of its phase
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
            R, = sqra_rates(pot, [beta])
            q = np.asarray(R.as_scipy().sum(axis=1)).ravel()
            for got in (seq, again):
                for name in ("data", "indices", "indptr"):
                    a, b = getattr(got.offdiag[k], name), getattr(R, name)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
                assert got.outbound[:, k].tobytes() == q.tobytes()
        assert seq.outbound.tobytes() == again.outbound.tobytes()

    def test_triple_well_phases_are_built_once_and_copied(self):
        # the preset builds its rates once per process; each sequence copies
        # them, so writing into one changes neither another nor a later one
        first, second = presets.triple_well(1 / 12), presets.triple_well(1 / 12)
        memo = list(presets._triple_well_phases().values())
        for k in (0, 12):
            for name in ("data", "indices", "indptr"):
                a = getattr(first.offdiag[k], name)
                for b in [getattr(second.offdiag[k], name)] + [getattr(R, name) for R in memo]:
                    assert not np.shares_memory(a, b)
        first.offdiag[0].data[:] = -1.0
        first.offdiag[12].data[:] = -1.0
        later = presets.triple_well(1 / 12)
        mid = 0.5 * (later.grid.edges[:-1] + later.grid.edges[1:])
        betas = np.where(mid < presets.TRIPLE_WELL_SWITCH_TIME, *presets.TRIPLE_WELL_BETA)
        want = RateMatrixSequence(later.grid, sqra_rates(presets.triple_well_grid_potential(),
                                                         betas))
        np.testing.assert_array_equal(later.phase, want.phase)
        for got, ref in zip(later.offdiag, want.offdiag):
            assert csr_bytes(got) == csr_bytes(ref)
        assert later.outbound.tobytes() == want.outbound.tobytes()

    def test_constant_builder(self):
        Q = dense_rate_matrix([[0, 1], [2, 0]])
        seq = RateMatrixSequence(TimeGrid.uniform(0, 1, 5), [Q] * 5)
        assert seq.phase.tolist() == [0] * 5
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

    def test_produced_sequences_are_valid(self, triple_well_seq, two_state_seq):
        for seq in (triple_well_seq, two_state_seq):
            assert np.isfinite(seq.outbound).all() and (seq.outbound >= 0).all()
            assert all((R.data > 0).all() for R in seq.offdiag)

    def test_diagonal_recomputed(self):
        raw = sp.csr_matrix(np.array([[5.0, 1.0], [2.0, 7.0]]))
        Q = RateMatrixSequence(TimeGrid.uniform(0, 1, 1), (raw,)).matrices[0]
        np.testing.assert_allclose(np.asarray(Q.sum(axis=1)).ravel(), 0.0, atol=1e-15)
        assert Q[0, 1] == 1.0 and Q[1, 0] == 2.0


class TestSequenceFields:
    def test_every_field_is_an_attribute(self):
        # hypothesis prints a failing example by its dataclass fields
        seq = presets.two_state()
        text = pretty(seq)
        assert text.startswith("RateMatrixSequence(") and "offdiag=" in text
        again = dataclasses.replace(seq)
        assert again is not seq
        np.testing.assert_array_equal(again.phase, seq.phase)
        assert again.outbound.tobytes() == seq.outbound.tobytes()
        for R, S in zip(again.offdiag, seq.offdiag):
            assert csr_bytes(R) == csr_bytes(S)

    @pytest.mark.parametrize("config", [
        {"preset": "two-state"},
        {"preset": "triple-well", "dt": 1 / 96},
        {"type": "sqra", "time_grid": {"t0": 0.0, "t1": 2.0, "cells": 6},
         "beta_schedule": [1, 1, 1, 10, 10, 10]},
    ])
    def test_outbound_is_one_c_ordered_table(self, config):
        # the sampler reads outbound.ravel() once per trajectory: a view, no copy
        seq = ajcio.build_sequence({"generator": config})
        assert seq.outbound.flags.c_contiguous
        assert np.shares_memory(seq.outbound, seq.outbound.ravel())

    def test_offdiag_shares_no_array_with_the_input(self):
        # canonical CSRs, the one with nothing to drop as well
        for rates in ([[0.0, 1.0], [2.0, 0.0]], [[-1.0, 1.0], [2.0, -2.0]]):
            A = sp.csr_matrix(np.array(rates))
            assert A.has_canonical_format
            seq = RateMatrixSequence(TimeGrid.uniform(0, 1, 1), (A,))
            R = seq.offdiag[0]
            assert not any(np.shares_memory(a, b) for a in (R.data, R.indices, R.indptr)
                           for b in (A.data, A.indices, A.indptr))
            A.data[:] = 7.0
            np.testing.assert_array_equal(R.data, [1.0, 2.0])


# rates as the inputs of a protocol may hold them: zeros of both signs,
# overflowing and non-finite values, and ordinary ones
RATES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e308, np.inf, -np.inf, np.nan]),
                  st.floats(-1e3, 1e3))


@st.composite
def rate_matrices(draw, n):
    """One rate matrix of n states in one of the forms a protocol accepts.

    At most 16 stored entries: scipy sorts a longer row with an unstable
    sort, so the order in which three or more duplicates are summed there
    is unspecified in the reference as well.
    """
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    entries = draw(st.lists(st.tuples(cells, RATES), max_size=12))
    cancel = draw(st.lists(st.sampled_from(entries), max_size=2)) if entries else []
    entries += [(ij, -v) for ij, v in cancel]  # duplicates that cancel to 0
    form = draw(st.sampled_from(["coo", "int coo", "csr unsorted", "csr int64",
                                 "csr canonical", "dense", "int dense"]))
    rows = np.array([i for (i, _), _ in entries], dtype=int)
    cols = np.array([j for (_, j), _ in entries], dtype=int)
    vals = np.array([v for _, v in entries], dtype=float)
    if form.startswith("int"):
        vals = np.nan_to_num(vals, posinf=5, neginf=-5).clip(-1e3, 1e3).astype(np.int64)
    if form.endswith("coo"):
        return sp.coo_matrix((vals, (rows, cols)), shape=(n, n))
    if form.startswith("csr"):
        # rows in order, columns as drawn: unsorted, with duplicates
        order = np.argsort(rows, kind="stable")
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
        A = sp.csr_matrix((vals[order], cols[order], indptr), shape=(n, n))
        if form == "csr int64":  # the constructor would pick int32
            A.indices, A.indptr = A.indices.astype(np.int64), A.indptr.astype(np.int64)
        if form == "csr canonical":  # sorted, duplicates summed
            A.sum_duplicates()
            assert A.has_canonical_format
        return A
    dense = np.zeros((n, n), dtype=vals.dtype)
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf
        np.add.at(dense, (rows, cols), vals)
    return dense


@st.composite
def potentials(draw):
    nx, ny = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    values = draw(st.lists(st.floats(-10, 10), min_size=nx * ny, max_size=nx * ny))
    return GridPotential(nx, ny, draw(st.floats(0.01, 2.0)), np.array(values))


class TestSameBytesAsReference:
    """The split, the SQRA rates and the validation give the bytes and the
    violations of the COO path they replace."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 5).flatmap(rate_matrices))
    def test_split(self, A):
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf in the inputs
            R, q = _split(A)
            ref, ref_q = reference_split(A)
        # the reference sums duplicates after dropping zeros, so duplicates
        # that cancel leave it an explicit 0.0, which the split drops
        ref.eliminate_zeros()
        assert csr_bytes(R) == csr_bytes(ref)
        assert q.dtype == ref_q.dtype and q.tobytes() == ref_q.tobytes()
        assert not np.signbit(q[np.diff(R.indptr) == 0]).any()  # absorbing rows: +0.0

    @settings(max_examples=100, deadline=None)
    @given(potentials(), st.lists(st.one_of(st.floats(1e-3, 1e3), st.sampled_from([1e300])),
                                  min_size=1, max_size=4))
    def test_sqra_rates(self, pot, betas):
        got = sqra_rates(pot, betas)
        assert len(got) == len(betas)
        for R, beta in zip(got, betas):
            assert csr_bytes(R) == csr_bytes(reference_sqra_rates(pot, beta))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4).flatmap(
        lambda n: st.lists(rate_matrices(n), min_size=1, max_size=3)),
        st.lists(st.integers(0, 2), min_size=1, max_size=5))
    def test_validation(self, phases, cells):
        picks = [c % len(phases) for c in cells]
        mats = [phases[p] for p in picks]
        used = list(dict.fromkeys(picks))  # the protocol's phases, in order of first use
        with np.errstate(invalid="ignore", over="ignore"):
            split = [_split(phases[p]) for p in used]
            try:
                RateMatrixSequence(TimeGrid.uniform(0, 1, len(mats)), mats)
                found = []
            except InvalidProtocol as exc:
                found = exc.violations
        # what the constructor splits the protocol into, valid or not
        phase = [used.index(p) for p in picks]
        seen = SimpleNamespace(phase=np.array(phase), offdiag=[split[p][0] for p in phase],
                               outbound=np.column_stack([split[p][1] for p in phase]))
        key = lambda found: [(v.matrix, v.kind, v.row, v.col, repr(v.magnitude))
                             for v in found]
        assert key(found) == key(reference_validate_generator(seen))
