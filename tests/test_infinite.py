import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from majoritylab.infinite import (
    SupportColoring,
    SupportMode,
    check_symbolic,
    out_profile,
    theorem_sweep,
)
from majoritylab.majority import feasible_prefix_set


def true_support(*positions):
    return SupportColoring(SupportMode.FINITE_TRUE, frozenset(positions))


def false_support(*positions):
    return SupportColoring(SupportMode.FINITE_FALSE, frozenset(positions))


class TestSupportColoring:
    def test_truth_modes(self):
        assert true_support(3).truth(3) and not true_support(3).truth(4)
        assert not false_support(3).truth(3) and false_support(3).truth(4)

    def test_positions_one_based(self):
        with pytest.raises(ValueError):
            true_support(0)
        with pytest.raises(ValueError):
            true_support(2).truth(0)

    def test_rendering(self):
        assert str(true_support(3, 1)) == "finite-true{1,3}"

    def test_next_true(self):
        assert true_support(2, 5).next_true(1) == 2
        assert true_support(2, 5).next_true(3) == 5
        assert true_support(2, 5).next_true(6) is None
        assert true_support().next_true(1) is None
        assert false_support(2, 3, 5).next_true(2) == 4
        assert false_support(2, 3, 5).next_true(4) == 4
        assert false_support().next_true(7) == 7
        with pytest.raises(ValueError):
            false_support().next_true(0)


def profile_by_definition(position, d):
    """(true_count, false_count) read off the out-neighbors one by one.

    The successor counts once, and so does the output of the gadget over
    (position+1 .. j) for every j up to a window end past stationarity;
    every output beyond the window sees the same OR, since the truths
    past the support are constant, so that value counts math.inf times.
    """
    counts = {True: 0, False: 0}
    counts[d.truth(position + 1)] += 1
    window_end = max(d.stationary_from, position + 2)
    seen_true = d.truth(position + 1)
    for j in range(position + 2, window_end + 1):
        seen_true = seen_true or d.truth(j)
        counts[seen_true] += 1
    counts[seen_true or d.truth(window_end + 1)] = math.inf
    return counts[True], counts[False]


class TestOutProfile:
    def test_matches_definition_exhaustively(self):
        checked = 0
        for mode in SupportMode:
            for size in range(4):
                for support in itertools.combinations(range(1, 11), size):
                    d = SupportColoring(mode, frozenset(support))
                    for position in range(1, 16):
                        assert out_profile(position, d) == profile_by_definition(
                            position, d
                        ), (d, position)
                        checked += 1
        assert checked == 5280

    def test_all_false(self):
        d = true_support()
        for i in (1, 2, 17):
            assert out_profile(i, d) == (0, math.inf)

    def test_single_true_ahead(self):
        # Outputs reaching position 5 are true; the two shorter ones and
        # the successor are false.
        assert out_profile(1, true_support(5)) == (math.inf, 3)

    def test_single_true_at_successor(self):
        assert out_profile(4, true_support(5)) == (math.inf, 0)

    def test_all_true(self):
        d = false_support()
        for i in (1, 3):
            assert out_profile(i, d) == (math.inf, 0)

    def test_false_run_counts(self):
        # Positions 2,3,4 false: from position 1 the successor and the
        # output over (2..3) and (2..4) are false.
        assert out_profile(1, false_support(2, 3, 4)) == (math.inf, 3)

    def test_stationary_beyond_support(self):
        for d in (true_support(2, 5), false_support(1, 3)):
            tail = d.stationary_from
            assert out_profile(tail, d) == out_profile(tail + 1, d)
            assert out_profile(tail, d) == out_profile(tail + 10, d)

    @given(
        st.sampled_from([SupportMode.FINITE_TRUE, SupportMode.FINITE_FALSE]),
        st.frozensets(st.integers(1, 9), max_size=4),
        st.integers(1, 12),
    )
    def test_closed_form_matches_direct_enumeration(self, mode, support, position):
        # Independent oracle: list the first out-neighbors explicitly (the
        # successor plus the gadget outputs over (position+1 .. j)) and
        # count truths.  The side the closed form calls finite must match
        # the direct count exactly and stop growing; the other side must
        # keep growing with the horizon.
        d = SupportColoring(mode, support)
        true_count, false_count = out_profile(position, d)

        def direct_counts(horizon):
            truths = [d.truth(position + 1)]
            for j in range(position + 2, horizon + 1):
                truths.append(any(d.truth(m) for m in range(position + 1, j + 1)))
            return sum(truths), len(truths) - sum(truths)

        horizon = d.stationary_from + position + 10
        t1, f1 = direct_counts(horizon)
        t2, f2 = direct_counts(horizon + 7)
        if true_count == math.inf:
            assert t2 > t1
        else:
            assert t1 == t2 == true_count
        if false_count == math.inf:
            assert f2 > f1
        else:
            assert f1 == f2 == false_count


class TestCheckSymbolic:
    def test_all_false_violates_first_position(self):
        assert check_symbolic(true_support()) == 1

    def test_all_true_violates_first_position(self):
        assert check_symbolic(false_support()) == 1

    @pytest.mark.parametrize("k", list(range(1, 51)))
    def test_singleton_violates_next_position(self, k):
        assert check_symbolic(true_support(k)) == k + 1

    def test_pair_violates_at_first_support(self):
        assert check_symbolic(true_support(2, 5)) == 2

    def test_false_singletons_violate(self):
        for k in range(1, 20):
            assert check_symbolic(false_support(k)) is not None


class TestSweep:
    def test_support_size_zero(self):
        report = theorem_sweep(0, 0)
        assert len(report.entries) == 2
        assert all(e.witness == 1 for e in report.entries)

    def test_spec_window(self):
        report = theorem_sweep(1, 10)
        assert len(report.entries) == 22
        assert all(e.witness >= 1 for e in report.entries)

    def test_wider_window(self):
        report = theorem_sweep(2, 12)
        assert len(report.entries) == 2 * (1 + 12 + 66)
        assert max(e.witness for e in report.entries) <= 13

    def test_note_present(self):
        assert "at most one position is true" in theorem_sweep(0, 0).note

    def test_entries_ordered(self):
        report = theorem_sweep(1, 3)
        keys = [
            (e.description.mode.value, len(e.description.support),
             sorted(e.description.support))
            for e in report.entries
        ]
        assert keys == sorted(
            keys, key=lambda t: (t[0] != "finite-true", t[1], t[2])
        )

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            theorem_sweep(-1, 5)


class TestConsistencyWithTruncations:
    """Violated infinite descriptions never reappear as full-path patterns.

    A description violated at the symbolic level restricted to the whole
    path v_1..v_n must be missing from the depth-n feasible set once n
    reaches the description's stationary point.  (Fixed-length prefixes of
    violated descriptions DO keep occurring at every depth - the finite
    graphs are all majority 2-colorable - so the full path is the right
    place to look for the infinite result's finite shadow.)
    """

    def test_violated_descriptions_vanish_from_full_paths(self):
        full_sets = {n: feasible_prefix_set(n, n) for n in range(2, 9)}
        descriptions = [true_support(), false_support()]
        descriptions += [true_support(k) for k in (1, 2, 3)]
        descriptions += [false_support(k) for k in (1, 2, 3)]
        for d in descriptions:
            assert check_symbolic(d) is not None
            for n in range(max(2, d.stationary_from), 9):
                pattern = tuple(d.truth(i) for i in range(1, n + 1))
                assert pattern not in full_sets[n], (str(d), n)
