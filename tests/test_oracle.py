import mpmath
import numpy as np
import pytest
import scipy.sparse as sp

from ajc import oracle, presets
from ajc.galerkin import assemble
from ajc.generator import RateMatrixSequence, TimeGrid, sqra_rates
from ajc.jumpchain import SpaceTimePoint, sample_trajectory
from ajc.operators import reconstruct_propagator
from ajc.oracle import convergence_study, exact_propagator, expm

from conftest import (
    dense_rate_matrix,
    frobenius_error,
    neumann_activity,
    operator_norm_error,
    path_state_at,
    reference_exact_propagator,
)

A, B = 0, 1


class TestExpm:
    def test_zero_generator(self):
        np.testing.assert_array_equal(expm(np.zeros((3, 3)), 2.0), np.eye(3))

    def test_two_state_closed_form(self):
        # one-way decay at rate 1: P(t) = [[e^-t, 1 - e^-t], [0, 1]]
        Q = np.array([[-1.0, 1.0], [0.0, 0.0]])
        t = 1.7
        P = expm(Q, t)
        np.testing.assert_allclose(
            P, [[np.exp(-t), 1 - np.exp(-t)], [0.0, 1.0]], rtol=1e-13
        )

    def test_semigroup_property(self):
        rng = np.random.default_rng(21)
        Q = dense_rate_matrix(rng.uniform(0.1, 2.0, (4, 4))).toarray()
        lhs = expm(Q, 0.8) @ expm(Q, 0.5)
        np.testing.assert_allclose(lhs, expm(Q, 1.3), atol=1e-10)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            expm(np.zeros((2, 2)), -1.0)

    def test_rejects_more_states_than_the_dense_limit(self):
        n = oracle.DENSE_MAX_N
        with pytest.raises(ValueError, match=f"^dense oracle limited to N <= {n}$"):
            expm(np.zeros((n + 1, n + 1)))


class TestExactPropagator:
    def test_instantaneous_is_identity(self, two_state_seq):
        np.testing.assert_array_equal(
            exact_propagator(two_state_seq, 3.0, 3.0), np.eye(2)
        )

    def test_two_state_full_horizon(self, two_state_seq):
        # product of the two phase exponentials, each over 4 time units
        Q1 = np.array([[-1.0, 1.0], [0.0, 0.0]])
        Q2 = np.array([[0.0, 0.0], [1.0, -1.0]])
        expected = expm(Q1, 4.0) @ expm(Q2, 4.0)
        got = exact_propagator(two_state_seq, 0.0, 8.0)
        np.testing.assert_allclose(got, expected, rtol=1e-11)

    @pytest.mark.parametrize("a, b, bound", [(1e6, 1e-3, np.finfo(float).eps),
                                             (1e8, 1.0, 3e-9)])
    def test_stiff_two_state_closed_form(self, a, b, bound):
        # exp(Q) of Q = [[-a, a], [b, -b]] over t = 1, with the closed form
        # evaluated at 40 digits and rounded once.  Rates (1e6, 1e-3) are
        # exact to 1.1e-16; at (1e8, 1) scipy's scaling and squaring is off
        # by 1.9e-9 in the column of the fast rate, the oracle's reach on
        # stiff phases (see the ajc.oracle docstring)
        seq = RateMatrixSequence(TimeGrid.uniform(0.0, 1.0, 1),
                                 (sp.csr_matrix(np.array([[0.0, a], [b, 0.0]])),))
        with mpmath.workdps(40):
            a_, b_ = mpmath.mpf(a), mpmath.mpf(b)
            s, e = a_ + b_, mpmath.exp(-(a_ + b_))
            exact = np.array([[float((b_ + a_ * e) / s), float(a_ * (1 - e) / s)],
                              [float(b_ * (1 - e) / s), float((a_ + b_ * e) / s)]])
        assert np.abs(exact_propagator(seq, 0.0, 1.0) - exact).max() <= bound

    def test_one_exponential_per_phase_and_overlap(self, monkeypatch):
        seq = presets.triple_well(1 / 96)
        calls = []
        monkeypatch.setattr(oracle, "expm", lambda Q, t: calls.append(t) or expm(Q, t))
        s, t = 0.1, 1.9  # both inside a cell, so two overlaps are partial
        P = exact_propagator(seq, s, t)
        e = seq.grid.edges
        whole = (s <= e[:-1]) & (e[1:] <= t)
        partial = ~whole & (np.minimum(t, e[1:]) > np.maximum(s, e[:-1]))
        # one exponential per phase over the whole cells of one grid width,
        # plus one per partial overlap at s and at t
        pairs = set(zip(seq.phase[whole].tolist(), seq.grid.widths[whole].tolist()))
        assert len(calls) == len(pairs) + partial.sum() == 4
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)

    def test_runs_of_equal_cells_agree_with_the_per_cell_product(self):
        # the triple well at dt = 1/48 is two runs of 48 equal cells, each
        # squared: its entries, all below 1, move by at most 5.4e-15
        # (measured, s and t inside cells or not)
        seq = presets.triple_well(1 / 48)
        for s, t in [(0.0, 2.0), (0.013, 1.987), (0.3, 1.7)]:
            got = exact_propagator(seq, s, t)
            assert np.abs(got - reference_exact_propagator(seq, s, t)).max() <= 2e-14
        # alternating phases make every run one cell long: the same bits
        alt = RateMatrixSequence(TimeGrid.uniform(0.0, 2.0, 96), sqra_rates(
            presets.triple_well_grid_potential(), [1.0, 10.0] * 48))
        for s, t in [(0.0, 2.0), (0.013, 1.987)]:
            got = exact_propagator(alt, s, t)
            assert got.tobytes() == reference_exact_propagator(alt, s, t).tobytes()

    def test_chapman_kolmogorov(self, triple_well_seq):
        # splitting at a point interior to a time cell must not matter
        for s, u, t in [(0.0, 0.5, 2.0), (0.2, 1.1, 1.9)]:
            lhs = exact_propagator(triple_well_seq, s, u) @ exact_propagator(
                triple_well_seq, u, t
            )
            rhs = exact_propagator(triple_well_seq, s, t)
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_rows_are_distributions(self, triple_well_seq):
        P = exact_propagator(triple_well_seq, 0.0, 2.0)
        assert P.min() >= 0.0
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)

    def test_monte_carlo_agreement(self, two_state_seq):
        # independent route: temporal Gillespie trajectories vs the
        # matrix-exponential endpoint law, checked at 3 binomial sigma
        exact = exact_propagator(two_state_seq, 0.0, 8.0)
        n = 100_000
        rng = np.random.default_rng(2024)
        for start in (A, B):
            hits = 0
            for _ in range(n):
                traj = sample_trajectory(
                    two_state_seq, SpaceTimePoint(start, 0.0), 8.0, rng
                )
                hits += path_state_at(traj, 8.0) == B
            p = exact[start, B]
            assert abs(hits / n - p) < 3 * np.sqrt(p * (1 - p) / n)

    def test_rejects_times_outside_horizon(self, two_state_seq):
        with pytest.raises(ValueError):
            exact_propagator(two_state_seq, 0.0, 9.0)
        with pytest.raises(ValueError):
            exact_propagator(two_state_seq, 5.0, 3.0)


class TestReconstructedMatrix:
    def test_zero_rates_give_identity(self):
        from ajc.generator import RateMatrixSequence, TimeGrid, sqra_rates

        seq = RateMatrixSequence(
            TimeGrid.uniform(0, 1, 3),
            tuple(dense_rate_matrix(np.zeros((3, 3))) for _ in range(3)),
        )
        np.testing.assert_array_equal(
            reconstruct_propagator(assemble(seq), np.eye(3), 2).T, np.eye(3)
        )

    def test_rows_are_distributions(self, two_state_J, triple_well_J):
        for J in (two_state_J, triple_well_J):
            P = reconstruct_propagator(J, np.eye(J.indexer.N), J.indexer.M - 1).T
            assert P.min() >= -1e-12
            np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-9)

    def test_matches_truncated_series_route(self, two_state_J):
        from ajc.operators import SpaceTimeVector, embed_spacelike, synchronize

        P = reconstruct_propagator(two_state_J, np.eye(2), 7).T
        for i in (A, B):
            e = np.zeros(2)
            e[i] = 1.0
            f = embed_spacelike(e, two_state_J.indexer)
            a = SpaceTimeVector(neumann_activity(two_state_J, f.values), f.indexer)
            np.testing.assert_allclose(P[i], synchronize(two_state_J, a, 7), atol=1e-11)


class TestErrorsAndConvergence:
    def test_error_decreases_with_dt(self):
        coarse = operator_norm_error(assemble(presets.two_state(1.0)), presets.two_state(1.0))
        fine = operator_norm_error(assemble(presets.two_state(0.25)), presets.two_state(0.25))
        assert fine < coarse
        assert coarse < 0.1

    def test_frobenius_dominates_spectral(self, two_state_seq, two_state_J):
        assert frobenius_error(two_state_J, two_state_seq) >= operator_norm_error(
            two_state_J, two_state_seq
        ) - 1e-15

    def test_study_slope_near_one(self):
        study = convergence_study(presets.two_state, [1.0, 0.5, 0.25, 0.125])
        errs = [r[1] for r in study["rows"]]
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert 0.8 <= study["slope"] <= 1.2

    def test_study_rejects_unsorted_steps(self):
        with pytest.raises(ValueError):
            convergence_study(presets.two_state, [0.5, 1.0])

    @pytest.mark.parametrize("dt_list", [[1.0, 1.0], [2.0, 1.0, 1.0]])
    def test_study_rejects_repeated_steps(self, dt_list):
        with pytest.raises(ValueError, match="strictly descending"):
            convergence_study(presets.two_state, dt_list)

    def test_misaligned_step_rejected(self):
        # the preset cannot discretize across its switching time
        with pytest.raises(ValueError):
            presets.two_state(0.3)
        for dt in (0.0, -1.0):
            with pytest.raises(ValueError, match="does not divide"):
                presets.triple_well(dt)
