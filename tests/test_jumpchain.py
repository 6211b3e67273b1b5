import bisect
import hashlib
import math

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ajc import assemble, presets
from ajc import io as ajcio
from ajc.generator import RateMatrixSequence, TimeGrid
from ajc import jumpchain
from ajc.jumpchain import SpaceTimePoint, TrajectorySample, _invert_hazard, sample_trajectory

from conftest import (
    integrated_rate,
    interval_of,
    kernel_density,
    path_state_at,
    reference_invert_hazard,
    reference_trajectory,
    sample_jump_time,
    survival,
)

A, B = 0, 1

BIT_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937, np.random.Philox,
                  np.random.SFC64]


def rate_of(seq, i):
    """Outbound rate q_i(t) as a plain callable, for quadrature oracles."""
    def q(t):
        return seq.outbound[i, interval_of(seq.grid, max(t, seq.grid.t0 + 1e-12))]
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


class TestTrajectorySample:
    @pytest.mark.parametrize("times, horizon", [
        ([0.0, np.nan], 1.0), ([np.nan, 1.0], 1.0), ([0.0, np.inf], 1.0),
        ([0.0, 1.0], np.nan), ([0.0, 1.0], -5.0),
    ], ids=["nan-last", "nan-first", "inf-last", "nan-horizon", "horizon-before-last-jump"])
    def test_refuses(self, times, horizon):
        with pytest.raises(ValueError):
            TrajectorySample(np.array([0, 1]), np.array(times), horizon)

    def test_accepts_a_jump_at_the_horizon(self):
        traj = TrajectorySample(np.array([0, 1]), np.array([0.0, 1.0]), 1.0)
        assert len(traj) == 2


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

    @pytest.mark.parametrize("state, time", [(-1, 7.99), (1.5, 0.0), (2, 0.0)],
                             ids=["negative", "fractional", "past-the-last"])
    def test_rejects_a_start_state_outside_the_states(self, two_state_seq, state, time):
        with pytest.raises(ValueError, match="start state"):
            sample_trajectory(two_state_seq, SpaceTimePoint(state, time), 8.0, 0)

    def test_states_alternate_and_times_increase(self, two_state_seq):
        traj = sample_trajectory(two_state_seq, SpaceTimePoint(A, 0.0), 8.0, 5)
        assert np.all(np.diff(traj.times) > 0)
        assert np.all(np.diff(traj.states) != 0)


@st.composite
def protocols(draw):
    """The grid and rates of a random protocol of up to 3 phases over up to
    6 cells, with zero rates and absorbing rows, on a uniform grid or
    explicit uneven edges."""
    n = draw(st.integers(2, 5))
    cells = draw(st.integers(1, 6))
    rate = st.one_of(st.just(0.0), st.floats(0.05, 8.0))
    phases = [sp.csr_matrix(np.reshape(draw(st.lists(rate, min_size=n * n, max_size=n * n)),
                                       (n, n)))
              for _ in range(draw(st.integers(1, 3)))]
    cell_phase = draw(st.lists(st.integers(0, len(phases) - 1), min_size=cells, max_size=cells))
    if draw(st.booleans()):
        grid = TimeGrid.uniform(0.0, draw(st.floats(0.5, 5.0)), cells)
    else:
        widths = draw(st.lists(st.floats(0.05, 2.0), min_size=cells, max_size=cells))
        grid = TimeGrid(np.concatenate([[0.0], np.cumsum(widths)]))
    return grid, [phases[p] for p in cell_phase]


class TestSameTrajectoriesAsReference:
    """The sampler repeats the trajectory bytes of the reference walk."""

    @staticmethod
    def assert_same(seq, start, horizon, seed, count, bit_generator=np.random.PCG64):
        """count trajectories from two generators seeded alike; returns the last."""
        ours, ref = (np.random.Generator(bit_generator(seed)) for _ in range(2))
        for _ in range(count):
            a = sample_trajectory(seq, start, horizon, ours)
            b = reference_trajectory(seq, start, horizon, ref)
            assert a.states.tobytes() == b.states.tobytes()
            assert a.times.tobytes() == b.times.tobytes()
            assert a.horizon == b.horizon
            # the sampler gives back the uniforms it did not use
            assert ours.random() == ref.random()
        return a

    @settings(max_examples=100, deadline=None)
    @given(protocol=protocols(), data=st.data(), seed=st.integers(0, 2 ** 32))
    def test_random_protocols(self, protocol, data, seed):
        seq = RateMatrixSequence(*protocol)
        edges = seq.grid.edges
        where = data.draw(st.sampled_from(["t0", "interior edge", "inside"]))
        if where == "interior edge" and seq.grid.M > 1:
            time = float(edges[data.draw(st.integers(1, seq.grid.M - 1))])
        elif where == "inside":
            time = float(edges[0] + data.draw(st.floats(0.0, 1.0)) * (edges[-1] - edges[0]))
        else:
            time = seq.grid.t0
        horizon = seq.grid.horizon
        if data.draw(st.booleans()):  # stop short of the grid's end, rounding included
            horizon = min(horizon, time + data.draw(st.floats(0.0, 1.0)) * (horizon - time))
        state = data.draw(st.integers(0, seq.N - 1))
        self.assert_same(seq, SpaceTimePoint(state, time), horizon, seed, 20)

    @pytest.mark.parametrize("seq", [presets.two_state(0.5), presets.triple_well(1 / 96),
                                     presets.triple_well(1 / 3)],
                             ids=["two-state", "triple-well-96", "triple-well-3"])
    def test_presets_from_every_state(self, seq):
        mid = float(seq.grid.edges[seq.grid.M // 2])
        for state in range(seq.N):
            for time in (seq.grid.t0, mid):
                self.assert_same(seq, SpaceTimePoint(state, time), seq.grid.horizon, state, 2)

    def test_a_long_grid(self):
        # M = 5,000: a bit moved by summing stored increments would show here
        seq = presets.triple_well(1 / 2500)
        mid = float(seq.grid.edges[seq.grid.M // 2 + 1])
        for state in (0, 20, 31, 62):
            for time in (seq.grid.t0, mid):
                self.assert_same(seq, SpaceTimePoint(state, time), seq.grid.horizon, state, 2)

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda g: g.__name__)
    def test_every_bit_generator(self, bit_generator):
        seq = presets.triple_well(1 / 24)
        for state in (0, 20, 31, 62):
            self.assert_same(seq, SpaceTimePoint(state, seq.grid.t0), seq.grid.horizon, state,
                             3, bit_generator)

    def test_a_trajectory_with_no_jump(self, two_state_seq):
        # A is absorbing on [4, 8]: one hazard draw, and no jump
        traj = self.assert_same(two_state_seq, SpaceTimePoint(A, 5.0), 8.0, 3, 1)
        assert len(traj) == 1

    def test_a_jump_at_the_horizon(self):
        # a horizon on the fourth jump's time keeps that jump and no later one
        seq = presets.triple_well(1 / 24)
        start = SpaceTimePoint(31, seq.grid.t0)
        full = sample_trajectory(seq, start, seq.grid.horizon, 5)
        assert len(full) > 5
        horizon = float(full.times[4])
        traj = self.assert_same(seq, start, horizon, 5, 1)
        assert len(traj) == 5 and traj.times[-1] == horizon

    @pytest.mark.parametrize("batch", [2, 3, 63, jumpchain._BATCH])
    def test_hundreds_of_jumps_across_batches(self, monkeypatch, batch):
        # two states swapping at rates 40 and 25 make about 250 jumps on
        # [0, 8]; an odd batch ends between a jump's hazard draw (2m) and its
        # target draw (2m + 1), leaving a draw to carry into the next batch
        swap = sp.csr_matrix(np.array([[0.0, 40.0], [25.0, 0.0]]))
        seq = RateMatrixSequence(TimeGrid.uniform(0.0, 8.0, 8), [swap] * 8)
        monkeypatch.setattr(jumpchain, "_BATCH", batch)
        for seed in range(3):
            traj = self.assert_same(seq, SpaceTimePoint(A, 0.0), 8.0, seed, 2)
            assert len(traj) > 200

    def test_pinned_triple_well_bytes(self):
        # 126 trajectories of triple_well(1/24), each state twice in seeded
        # order; the hash was recorded with the reference walk
        seq = presets.triple_well(1 / 24)
        rng = np.random.default_rng(1)
        starts = rng.permutation(np.repeat(np.arange(seq.N), 2))
        rng = np.random.default_rng(int(rng.integers(2 ** 63)))
        digest, jumps = hashlib.sha256(), 0
        for state in starts:
            traj = sample_trajectory(seq, SpaceTimePoint(int(state), seq.grid.t0),
                                     seq.grid.horizon, rng)
            digest.update(traj.states.astype(np.int64).tobytes())
            digest.update(traj.times.tobytes())
            jumps += len(traj) - 1
        assert jumps == 1879
        assert digest.hexdigest() == (
            "b088a1c5587c8cb67ab901dbb500757ab586fe32bdf099a928fced261df8cfb1")


class TestBitContracts:
    """The bit-level facts by which the batched walk keeps the bytes of the
    one-draw-at-a-time walk."""

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda g: g.__name__)
    def test_a_batch_holds_the_scalar_draws(self, bit_generator):
        batched = np.random.Generator(bit_generator(7))
        scalar = np.random.Generator(bit_generator(7))
        for n in (1, 2, 3, 63, 64, 1001):
            assert batched.random(n).tolist() == [scalar.random() for _ in range(n)]
            assert batched.random() == scalar.random()

    def test_batched_log1p_rounds_as_the_scalar_one(self):
        rng = np.random.default_rng(11)
        edge = [0.0, 5e-324, 1e-300, 2.0 ** -53, 1e-8, 0.5, 0.75, 1.0 - 2.0 ** -53]
        for n in range(1, 1002, 2):  # odd lengths: the tail past the vector loop too
            u = np.concatenate([edge, rng.random(n)])[-n:]
            scalar = [-float(np.log1p(-x)) for x in u.tolist()]
            assert (-np.log1p(-u)).tobytes() == np.array(scalar).tobytes()

    def test_the_carried_cell_is_the_searched_cell(self):
        # an inversion starts in the previous jump's cell k when it holds
        # s and searches otherwise: from any k the cell, and the jump, are
        # those of bisect, s at t0 and on every edge included
        seq = presets.triple_well(1 / 24)
        edges, _, rates, increments = seq.sampler_table
        M = seq.grid.M
        times = (edges + [math.nextafter(e, -math.inf) for e in edges[1:]]
                 + [math.nextafter(e, math.inf) for e in edges[:-1]])
        for state in (0, 31):
            traj = sample_trajectory(seq, SpaceTimePoint(state, seq.grid.t0), seq.grid.horizon, 2)
            times += traj.times.tolist()
        u, i = 0.3, 20
        target = -float(np.log1p(-u))
        for s in times:
            want = max(bisect.bisect_left(edges, s) - 1, 0)
            holds = [k for k in range(M) if edges[k] < s <= edges[k + 1]]
            assert holds == ([] if s == edges[0] else [want])
            hit = reference_invert_hazard(seq, i, s, u)
            for k in range(M):
                assert _invert_hazard(edges, rates[i], increments[i], s, target, k) == hit


class TestEmbeddedChain:
    @staticmethod
    def assert_one_float_per_nonzero(seq):
        first = np.unique(seq.phase, return_index=True)[1]
        assert len(seq.embedded_chain) == first.size
        for (indptr, indices, cdf), m in zip(seq.embedded_chain, first):
            R = seq.offdiag[m]
            assert cdf.format == "d" and len(cdf) == R.nnz
            assert indptr.obj is R.indptr and indices.obj is R.indices  # not copies
            # each row's slice is bit-equal to the cumsum the draw used to take
            q = seq.outbound[:, m]
            for i in np.flatnonzero(q):
                lo, hi = R.indptr[i], R.indptr[i + 1]
                assert (np.asarray(cdf)[lo:hi].tobytes()
                        == np.cumsum(R.data[lo:hi] * (1 / q[i])).tobytes())

    def test_built_by_the_first_sample_only(self):
        seq = ajcio.build_sequence({"generator": {"preset": "triple-well"}})
        assemble(seq)
        assert "embedded_chain" not in seq.__dict__
        assert "sampler_table" not in seq.__dict__
        sample_trajectory(seq, SpaceTimePoint(0, seq.grid.t0), seq.grid.horizon, 0)
        assert "embedded_chain" in seq.__dict__
        assert len(seq.embedded_chain) == 2
        self.assert_one_float_per_nonzero(seq)
        chain, table = seq.embedded_chain, seq.sampler_table
        sample_trajectory(seq, SpaceTimePoint(5, seq.grid.t0), seq.grid.horizon, 1)
        assert seq.embedded_chain is chain and seq.sampler_table is table  # once per sequence
        TestSamplerTable.assert_one_float_per_state_and_cell(seq)

    @settings(max_examples=50, deadline=None)
    @given(protocol=protocols())
    def test_one_float_per_nonzero_of_each_phase(self, protocol):
        self.assert_one_float_per_nonzero(RateMatrixSequence(*protocol))


class TestSamplerTable:
    @staticmethod
    def assert_one_float_per_state_and_cell(seq):
        edges, phase, rates, increments = seq.sampler_table
        N, M = seq.outbound.shape
        assert edges == seq.grid.edges.tolist() and phase == seq.phase.tolist()
        for rows in (rates, increments):
            # one read-only (N, M) float64 table, a memoryview per state row
            base = rows[0].obj.base
            assert base.shape == (N, M) and base.dtype == np.float64
            assert not base.flags.writeable
            assert len(rows) == N
            assert all(r.obj.base is base and r.readonly and r.format == "d" and len(r) == M
                       for r in rows)
        assert rates[0].obj.base is seq.outbound  # not a copy
        # each whole cell's increment is the walk's own product, bit for bit
        for i in range(N):
            q = seq.outbound[i].tolist()
            assert increments[i].tolist() == [q[k] * (edges[k + 1] - edges[k]) for k in range(M)]

    @settings(max_examples=50, deadline=None)
    @given(protocol=protocols())
    def test_one_float_per_state_and_cell(self, protocol):
        self.assert_one_float_per_state_and_cell(RateMatrixSequence(*protocol))

    def test_the_walk_keeps_digits_a_prefix_sum_loses(self):
        # state 0 leaves at 1e9 in cell 0 and at 1e-3 after it: a prefix sum
        # H(t_k) holds 1e9 in every later entry, so its differences keep
        # about 7 digits of the 1e-3 increments (1.1e-4 off), while the
        # walk from s sums only what lies after s
        fast, slow = np.array([[0.0, 1e9], [1.0, 0.0]]), np.array([[0.0, 1e-3], [1.0, 0.0]])
        seq = RateMatrixSequence(TimeGrid.uniform(0.0, 5.0, 5), [fast] + [slow] * 4)
        s, u = 1.25, 0.002
        t = sample_jump_time(seq, 0, s, u)
        with mpmath.workdps(40):
            target = -mpmath.log1p(-mpmath.mpf(u))
            acc, lo, exact = mpmath.mpf(0), mpmath.mpf(s), None
            for k in range(1, seq.grid.M):
                rate, hi = mpmath.mpf(seq.outbound[0, k]), mpmath.mpf(seq.grid.edges[k + 1])
                if acc + rate * (hi - lo) >= target:
                    exact = lo + (target - acc) / rate
                    break
                acc += rate * (hi - lo)
                lo = hi
            assert exact is not None and 3 < exact < 4
            assert abs(t - exact) <= 4 * np.spacing(t)


class TestIntervalOf:
    def test_interval_convention_half_open_left(self):
        grid = TimeGrid.uniform(0.0, 4.0, 4)
        assert interval_of(grid, 1.0) == 0  # boundary belongs to the cell ending there
        assert interval_of(grid, 1.5) == 1
        assert interval_of(grid, 0.0) == 0
        with pytest.raises(ValueError):
            interval_of(grid, 4.5)


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
