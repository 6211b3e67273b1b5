import numpy as np
import pytest

from ajc.committor import (
    TAIL_TO_A,
    TAIL_TO_B,
    EmptyTarget,
    SpaceTimeSet,
    coherence_defect,
    committor_solve,
)
from ajc.galerkin import apply_adjoint
from ajc.jumpchain import SpaceTimePoint, sample_trajectory

from conftest import flat, koopman_matrix_column

A, B = 0, 1


def all_cells(J):
    idx = J.indexer
    return SpaceTimeSet.rectangle(range(idx.N), (0, idx.M - 1))


class TestSpaceTimeSet:
    def test_rectangle(self):
        s = SpaceTimeSet.rectangle([0, 2], (1, 2))
        assert s.cells == {(0, 1), (0, 2), (2, 1), (2, 2)}
        with pytest.raises(ValueError, match=r"blocks \[2, 1\] are reversed"):
            SpaceTimeSet.rectangle([0, 2], (2, 1))

    def test_mask_layout(self):
        s = SpaceTimeSet([(1, 0), (0, 2)])
        mask = s.mask(2, 3)
        np.testing.assert_array_equal(mask, [False, True, False, False, True, False])

    def test_mask_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SpaceTimeSet([(5, 0)]).mask(2, 3)

    def test_mask_names_the_first_cell_outside(self):
        # first in the set's own order, as a loop over its cells meets them;
        # an index beyond int64 is out of range too
        s = SpaceTimeSet([(0, 0), (1, 7), (-1, 2), (10 ** 30, 1), (1, 2)])
        first = next(c for c in s.cells if not (0 <= c[0] < 2 and 0 <= c[1] < 3))
        with pytest.raises(ValueError, match=rf"cell \({first[0]}, {first[1]}\) outside"):
            s.mask(2, 3)
        np.testing.assert_array_equal(SpaceTimeSet(()).mask(2, 3), np.zeros(6, dtype=bool))


class TestCommittor:
    def test_matches_koopman_on_terminal_targets(self, two_state_J):
        # the committor holds block 7 at the indicator of B, Koopman evolves
        # it to the horizon; before block 7 both solve x = J x + survival * g,
        # so they differ by a J-harmonic function there
        c = committor_solve(
            two_state_J,
            SpaceTimeSet([(B, 7)]),
            SpaceTimeSet([(A, 7)]),
        )
        K = koopman_matrix_column(two_state_J, B, 7)
        d = K.values - c.values
        assert np.abs(d - apply_adjoint(two_state_J, d))[:14].max() <= 1e-12
        np.testing.assert_array_equal(c.values[14:], [0.0, 1.0])

    def test_full_target_is_one(self, two_state_J):
        c = committor_solve(two_state_J, all_cells(two_state_J),
                            SpaceTimeSet([]))
        np.testing.assert_array_equal(c.values, 1.0)

    def test_values_are_probabilities(self, triple_well_J):
        c = committor_solve(
            triple_well_J,
            SpaceTimeSet.rectangle([2], (0, 5)),
            SpaceTimeSet.rectangle([60], (0, 5)),
        )
        assert c.values.min() >= -1e-12
        assert c.values.max() <= 1.0 + 1e-12

    def test_monotone_in_target(self, triple_well_J):
        b = SpaceTimeSet.rectangle([60], (0, 5))
        small = committor_solve(triple_well_J, SpaceTimeSet.rectangle([2], (0, 5)), b)
        large = committor_solve(
            triple_well_J, SpaceTimeSet.rectangle([2, 3, 11], (0, 5)), b
        )
        assert np.all(large.values >= small.values - 1e-12)

    def test_complement_duality(self, triple_well_J):
        a = SpaceTimeSet.rectangle([2], (0, 5))
        b = SpaceTimeSet.rectangle([60], (0, 5))
        for v in (0.0, 0.3, 1.0):
            fwd = committor_solve(triple_well_J, a, b, tail=v)
            rev = committor_solve(triple_well_J, b, a, tail=1.0 - v)
            assert np.abs(fwd.values + rev.values - 1.0).max() <= 1e-9

    def test_tail_policy_constants(self, two_state_J):
        # target only at early blocks; a walker idle at the horizon takes
        # the tail value
        a = SpaceTimeSet([(B, 0)])
        b = SpaceTimeSet([(A, 0)])
        to_a = committor_solve(two_state_J, a, b, tail=TAIL_TO_A)
        to_b = committor_solve(two_state_J, a, b, tail=TAIL_TO_B)
        idx = two_state_J.indexer
        # state A is frozen on [4, 8]: the committor there is exactly the tail
        assert to_a.values[flat(idx, A, 7)] == pytest.approx(1.0)
        assert to_b.values[flat(idx, A, 7)] == pytest.approx(0.0)

    def test_monte_carlo_hitting_probability(self, two_state_seq, two_state_J):
        # c at (A, 0) with target "state B at any block" is the probability
        # of jumping at all before the horizon, start uniform in the cell
        a = SpaceTimeSet.rectangle([B], (0, 7))
        c = committor_solve(two_state_J, a, SpaceTimeSet([]),
                            tail=TAIL_TO_B)
        got = c.values[flat(two_state_J.indexer, A, 0)]

        n = 20_000
        rng = np.random.default_rng(314)
        hits = 0
        for _ in range(n):
            traj = sample_trajectory(
                two_state_seq, SpaceTimePoint(A, rng.uniform(0.0, 1.0)), 8.0, rng
            )
            hits += len(traj) > 1
        p = hits / n
        assert abs(got - p) < 3 * np.sqrt(p * (1 - p) / n)

    def test_rejects_overlapping_sets(self, two_state_J):
        s = SpaceTimeSet([(A, 0)])
        with pytest.raises(ValueError):
            committor_solve(two_state_J, s, s)

    def test_empty_target_raises(self, two_state_J):
        with pytest.raises(EmptyTarget):
            committor_solve(two_state_J, SpaceTimeSet([]),
                            SpaceTimeSet([(A, 0)]))

    def test_bad_tail_value(self, two_state_J):
        with pytest.raises(ValueError):
            committor_solve(two_state_J, SpaceTimeSet([(B, 7)]),
                            SpaceTimeSet([(A, 7)]), tail=1.5)


class TestCoherence:
    def test_full_set_is_coherent(self, two_state_J, triple_well_J):
        for J in (two_state_J, triple_well_J):
            slack, violation = coherence_defect(J, all_cells(J), count_survival=True)
            assert slack == pytest.approx(0.0, abs=1e-10)
            assert violation == pytest.approx(0.0, abs=1e-10)

    def test_leaky_set_has_violation(self, two_state_J):
        # B leaves at rate 1 after t=4 and every jump exits the set
        leaky = SpaceTimeSet.rectangle([B], (4, 7))
        slack, violation = coherence_defect(two_state_J, leaky, count_survival=True)
        assert slack < 0.0
        assert violation > 0.0

    def test_absorbing_fiber_needs_survival_credit(self, two_state_J):
        # A is frozen on [4, 8]: coherent only if staying put counts
        fiber = SpaceTimeSet.rectangle([A], (4, 7))
        slack_no, _ = coherence_defect(two_state_J, fiber, count_survival=False)
        slack_yes, violation = coherence_defect(two_state_J, fiber, count_survival=True)
        assert slack_no == pytest.approx(-1.0)
        assert slack_yes == pytest.approx(0.0, abs=1e-12)
        assert violation == pytest.approx(0.0, abs=1e-12)

    def test_empty_set_raises(self, two_state_J):
        with pytest.raises(EmptyTarget):
            coherence_defect(two_state_J, SpaceTimeSet([]))
