import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ajc.jumpchain import SpaceTimePoint, TrajectorySample, sample_trajectory

from conftest import (
    integrated_rate,
    kernel_density,
    path_state_at,
    sample_jump_time,
    survival,
)

A, B = 0, 1


def rate_of(seq, i):
    """Outbound rate q_i(t) as a plain callable, for quadrature oracles."""
    def q(t):
        return seq.outbound[i, seq.grid.interval_of(max(t, seq.grid.t0 + 1e-12))]
    return q


class TestSurvival:
    def test_empty_integral(self, two_state_seq):
        assert survival(two_state_seq, A, 2.5, 2.5) == 1.0

    def test_homogeneous_unit_rate(self, two_state_seq):
        assert survival(two_state_seq, A, 1.0, 2.0) == pytest.approx(np.exp(-1.0))

    def test_piecewise_integral(self, two_state_seq):
        # q_A = 1 on [0,4], 0 on [4,8]; the hazard over [3,6] is 1
        got = survival(two_state_seq, A, 3.0, 6.0)
        assert got == pytest.approx(np.exp(-1.0), rel=1e-12)
        # quadrature oracle for the same integral
        hazard, _ = quad(rate_of(two_state_seq, A), 3.0, 6.0, points=[4.0])
        assert got == pytest.approx(np.exp(-hazard), rel=1e-9)

    def test_multiplicative_in_time(self, triple_well_seq):
        s, u, t = 0.2, 0.9, 1.7
        for i in (0, 17, 40):
            left = survival(triple_well_seq, i, s, u) * survival(triple_well_seq, i, u, t)
            assert left == pytest.approx(survival(triple_well_seq, i, s, t), rel=1e-12)

    def test_rejects_reversed_times(self, two_state_seq):
        with pytest.raises(ValueError):
            survival(two_state_seq, A, 3.0, 2.0)


class TestKernelDensity:
    def test_zero_for_non_future_times(self, two_state_seq):
        assert kernel_density(two_state_seq, A, 2.0, B, 2.0) == 0.0
        assert kernel_density(two_state_seq, A, 2.0, B, 1.0) == 0.0

    def test_constant_rate_value(self, two_state_seq):
        got = kernel_density(two_state_seq, A, 0.0, B, 2.0)
        assert got == pytest.approx(np.exp(-2.0), rel=1e-12)

    def test_dormant_then_active_rate(self, two_state_seq):
        # B cannot leave before t=4; hazard after that accrues at rate 1
        got = kernel_density(two_state_seq, B, 0.0, A, 5.0)
        assert got == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_kernel_is_waiting_time_density(self, two_state_seq):
        # integrating the kernel over all arrival times and targets yields
        # the probability to jump at all before the horizon
        for i, s in [(A, 0.0), (A, 2.5), (B, 1.0), (B, 4.5)]:
            total = 0.0
            for j in (A, B):
                if j == i:
                    continue
                total += quad(
                    lambda t: kernel_density(two_state_seq, i, s, j, t),
                    s, 8.0, points=[4.0], limit=200,
                )[0]
            expected = 1.0 - survival(two_state_seq, i, s, 8.0)
            assert total == pytest.approx(expected, abs=1e-8)


class TestSampleJumpTime:
    def test_absorbing_state_never_jumps(self, two_state_seq):
        # A is absorbing on [4, 8]
        for u in (0.1, 0.5, 0.999):
            assert sample_jump_time(two_state_seq, A, 4.5, u) is None

    def test_homogeneous_inverse(self, positive_rates_seq):
        seq = positive_rates_seq
        q0 = seq.outbound[0, 0]
        u = 1.0 - np.exp(-q0 * 0.25)
        assert sample_jump_time(seq, 0, 0.0, u) == pytest.approx(0.25, rel=1e-12)

    def test_dormant_hazard_shifts_the_jump(self, two_state_seq):
        t = sample_jump_time(two_state_seq, B, 0.0, 1.0 - np.exp(-1.0))
        assert t == pytest.approx(5.0, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        u=st.floats(min_value=1e-9, max_value=1.0 - 1e-12),
        s=st.floats(min_value=0.0, max_value=7.9),
        i=st.sampled_from([A, B]),
    )
    def test_inverse_property(self, two_state_seq, u, s, i):
        t = sample_jump_time(two_state_seq, i, s, u)
        if t is None:
            # hazard to the horizon never reaches the target
            assert integrated_rate(two_state_seq, i, s, 8.0) < -np.log1p(-u)
        else:
            F = 1.0 - np.exp(-integrated_rate(two_state_seq, i, s, t))
            assert F == pytest.approx(u, abs=1e-12)


class TestSampleTrajectory:
    def test_absorbing_start_is_single_point(self, two_state_seq):
        traj = sample_trajectory(two_state_seq, SpaceTimePoint(A, 5.0), 8.0, 123)
        assert len(traj) == 1
        assert traj.states[0] == A and traj.times[0] == 5.0

    def test_one_way_decay_fraction(self, two_state_seq):
        n = 20_000
        rng = np.random.default_rng(99)
        hits = 0
        for _ in range(n):
            traj = sample_trajectory(two_state_seq, SpaceTimePoint(A, 0.0), 8.0, rng)
            hits += path_state_at(traj, 4.0) == B
        p = 1.0 - np.exp(-4.0)
        assert abs(hits / n - p) < 3 * np.sqrt(p * (1 - p) / n)

    def test_deterministic_given_seed(self, two_state_seq):
        a = sample_trajectory(two_state_seq, SpaceTimePoint(A, 0.0), 8.0, 7)
        b = sample_trajectory(two_state_seq, SpaceTimePoint(A, 0.0), 8.0, 7)
        assert a.states.tobytes() == b.states.tobytes()
        assert a.times.tobytes() == b.times.tobytes()

    def test_states_alternate_and_times_increase(self, two_state_seq):
        traj = sample_trajectory(two_state_seq, SpaceTimePoint(A, 0.0), 8.0, 5)
        assert np.all(np.diff(traj.times) > 0)
        assert np.all(np.diff(traj.states) != 0)


class TestPathStateAt:
    def make(self):
        return TrajectorySample(np.array([A, B, A]), np.array([0.0, 1.0, 3.0]), 8.0)

    def test_right_continuous_at_jump(self):
        assert path_state_at(self.make(), 1.0) == B

    def test_between_jumps(self):
        assert path_state_at(self.make(), 2.0) == B
        assert path_state_at(self.make(), 5.0) == A

    def test_single_point(self):
        traj = TrajectorySample(np.array([B]), np.array([1.0]), 8.0)
        assert path_state_at(traj, 7.0) == B

    def test_rejects_time_before_start(self):
        with pytest.raises(ValueError):
            path_state_at(self.make(), -0.5)
