import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dags, digraphs, random_dag
from majoritylab.counterexample import build_truncation, truncation_extension
from majoritylab.errors import ExtensionConflict, NotADag, NotUnique, PaletteMismatch
from majoritylab.graph import Coloring, DiGraph
from majoritylab.majority import (
    TruthView,
    brute_force_majority_colorings,
    enumerate_majority_colorings,
    feasible_prefix_set,
    greedy_dag_2color,
    project,
    verify,
)


def T(*bits):
    return tuple(bool(b) for b in bits)


class TestVerify:
    def test_single_vertex_satisfied(self):
        report = verify(DiGraph(1), Coloring(2, (0,)))
        assert report.satisfied
        assert report.checks[0] == (0, 0, True)
        assert report.first_violation is None

    def test_single_out_edge_monochromatic(self):
        g = DiGraph(2)
        g.add_edge(0, 1)
        report = verify(g, Coloring(2, (0, 0)))
        assert not report.satisfied
        assert report.first_violation == 0
        assert report.checks[0] == (1, 0, False)
        assert report.checks[1].satisfied

    def test_out_degree_three(self):
        g = DiGraph(4)
        for v in (1, 2, 3):
            g.add_edge(0, v)
        report = verify(g, Coloring(2, (1, 1, 1, 0)))
        assert report.checks[0] == (2, 1, False)

    def test_palette_enforced_at_construction(self):
        with pytest.raises(PaletteMismatch):
            Coloring(2, (0, 2))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            verify(DiGraph(3), Coloring(2, (0, 1)))

    @given(dags(max_vertices=8), st.integers(0, 2**16))
    def test_against_naive_recount(self, g, seed):
        rng = random.Random(seed)
        colors = tuple(rng.randint(0, 1) for _ in range(g.vertex_count))
        report = verify(g, Coloring(2, colors))
        for v in range(g.vertex_count):
            mono = sum(1 for u in g.out(v) if colors[u] == colors[v])
            diff = g.out_degree(v) - mono
            assert report.checks[v] == (mono, diff, diff >= mono)

    @given(dags(max_vertices=8), st.integers(0, 2**16))
    def test_color_swap_invariance(self, g, seed):
        rng = random.Random(seed)
        c = Coloring(2, tuple(rng.randint(0, 1) for _ in range(g.vertex_count)))
        a = verify(g, c)
        b = verify(g, c.swapped())
        assert [x.satisfied for x in a.checks] == [x.satisfied for x in b.checks]

    @given(dags(max_vertices=8), st.integers(0, 2**16))
    def test_relabeling_permutes_the_report(self, g, seed):
        # Processing order does not matter: relabeling vertices just
        # permutes the per-vertex records.
        rng = random.Random(seed)
        n = g.vertex_count
        colors = tuple(rng.randint(0, 1) for _ in range(n))
        perm = list(range(n))
        rng.shuffle(perm)
        h = DiGraph(n)
        for u, v in g.edges():
            h.add_edge(perm[u], perm[v])
        relabeled = [0] * n
        for v in range(n):
            relabeled[perm[v]] = colors[v]
        a = verify(g, Coloring(2, colors))
        b = verify(h, Coloring(2, tuple(relabeled)))
        for v in range(n):
            assert a.checks[v] == b.checks[perm[v]]


class TestGreedy:
    def test_single_edge(self):
        g = DiGraph(2)
        g.add_edge(0, 1)
        assert greedy_dag_2color(g).colors == (1, 0)

    def test_edgeless_all_zero(self):
        assert greedy_dag_2color(DiGraph(4)).colors == (0, 0, 0, 0)

    def test_rejects_cycles(self):
        g = DiGraph(2)
        g.add_edge(0, 1)
        g.add_edge(1, 0)
        with pytest.raises(NotADag):
            greedy_dag_2color(g)

    @given(dags(max_vertices=12))
    def test_output_always_verifies(self, g):
        assert verify(g, greedy_dag_2color(g)).satisfied

    def test_seeded_sixty_vertex_dags(self):
        rng = random.Random(7)
        for _ in range(50):
            g = random_dag(rng, 60)
            assert verify(g, greedy_dag_2color(g)).satisfied


class TestTruthView:
    def test_truth_is_relative_to_anchor(self):
        view = TruthView(2, Coloring(2, (0, 1, 1)))
        assert view.truths(range(3)) == (False, True, True)

    def test_requires_two_colors(self):
        with pytest.raises(ValueError):
            TruthView(0, Coloring(3, (0, 1, 2)))


class TestEnumerate:
    def test_single_edge_two_colors(self):
        g = DiGraph(2)
        g.add_edge(0, 1)
        result = enumerate_majority_colorings(g, 2)
        assert [c.colors for c in result] == [(0, 1), (1, 0)]

    def test_single_vertex_one_color(self):
        result = enumerate_majority_colorings(DiGraph(1), 1)
        assert [c.colors for c in result] == [(0,)]

    def test_free_must_cover_without_rule(self):
        g = DiGraph(2)
        g.add_edge(0, 1)
        with pytest.raises(ValueError):
            enumerate_majority_colorings(g, 2, free=[0])

    def test_fixed_vertices_pin_colors(self):
        g = DiGraph(2)
        g.add_edge(0, 1)
        result = enumerate_majority_colorings(g, 2, free=[1], fixed={0: 0})
        assert [c.colors for c in result] == [(0, 1)]

    def test_extension_conflict_surfaces(self):
        g = DiGraph(2)
        g.add_edge(0, 1)

        def bad_rule(assignment):
            raise NotUnique("no closed form")

        with pytest.raises(ExtensionConflict):
            enumerate_majority_colorings(g, 2, free=[0, 1], extend=bad_rule)

    # Graphs with cycles have no topological order; the search uses id order.
    @given(st.one_of(dags(max_vertices=7), digraphs(max_vertices=7)), st.integers(2, 3))
    @settings(max_examples=80)
    def test_backtracking_matches_brute_force(self, g, k):
        fast = enumerate_majority_colorings(g, k)
        slow = brute_force_majority_colorings(g, k)
        assert [c.colors for c in fast] == [c.colors for c in slow]

    @pytest.mark.parametrize("forwards", [True, False])
    def test_long_path_has_two_alternating_colorings(self, forwards):
        # Deeper than the default recursion limit: the search must not recurse.
        n = 1500
        g = DiGraph(n)
        for v in range(n - 1):
            u, w = (v, v + 1) if forwards else (v + 1, v)
            g.add_edge(u, w)
        result = enumerate_majority_colorings(g, 2)
        assert [c.colors for c in result] == [
            tuple((v + c) % 2 for v in range(n)) for c in (0, 1)
        ]

    @given(dags(max_vertices=7))
    @settings(max_examples=30)
    def test_fixing_a_vertex_filters_the_enumeration(self, g):
        if g.vertex_count == 0:
            return
        pinned = g.vertex_count - 1
        free = [v for v in range(g.vertex_count) if v != pinned]
        fixed = enumerate_majority_colorings(g, 2, free=free, fixed={pinned: 0})
        unfixed = enumerate_majority_colorings(g, 2)
        expected = [c.colors for c in unfixed if c.colors[pinned] == 0]
        assert [c.colors for c in fixed] == expected

    @given(dags(max_vertices=9))
    @settings(max_examples=30)
    def test_bitmask_brute_force_matches_generic(self, g):
        by_mask = brute_force_majority_colorings(g, 2)
        generic = [
            Coloring(2, combo)
            for combo in itertools.product((0, 1), repeat=g.vertex_count)
            if verify(g, Coloring(2, combo)).satisfied
        ]
        assert [c.colors for c in by_mask] == [c.colors for c in generic]

    def test_truncation_extension_matches_full_brute_force(self):
        g, spec = build_truncation(3)
        free = list(spec.path) + [spec.anchor]
        rule = truncation_extension(g, spec)
        with_rule = enumerate_majority_colorings(g, 2, free=free, extend=rule)
        full = brute_force_majority_colorings(g, 2)
        assert {project(c, free) for c in with_rule} == {
            project(c, free) for c in full
        }
        # The rule reproduces entire colorings, not just projections.
        assert {c.colors for c in with_rule} == {c.colors for c in full}


class TestFeasiblePrefixSet:
    def test_depth_two(self):
        assert feasible_prefix_set(2, 2) == {T(1, 0), T(0, 1)}

    def test_depth_three_single_position(self):
        # Frozen by the brute-force oracle over all of G_3.
        assert feasible_prefix_set(3, 1) == {T(0), T(1)}

    def test_frozen_chain_m3(self):
        # Regression table computed once by enumeration; the sets grow at
        # depth 5 and stabilize, so inclusion-monotonicity does NOT hold.
        at_most_one_true = {T(0, 0, 0), T(0, 0, 1), T(0, 1, 0), T(1, 0, 0)}
        expected = {
            3: {T(0, 0, 1), T(0, 1, 0), T(1, 0, 1)},
            4: {T(0, 0, 1), T(0, 1, 0), T(1, 0, 0)},
        }
        # Measured, not proved: from depth 5 through 16 the set is exactly
        # the patterns with at most one true position, the finite shadow of
        # infinite.COVERAGE_NOTE ("at most one position is true").
        expected.update({n: at_most_one_true for n in range(5, 17)})
        for n, want in expected.items():
            assert feasible_prefix_set(n, 3) == want, f"depth {n}"

    def test_search_matches_extension_rule_on_truncations(self):
        # The search forces gadget internals by pruning; the extension rule
        # fills them from the closed form.  Both must give the same colorings.
        for n in range(2, 9):
            g, spec = build_truncation(n)
            searched = enumerate_majority_colorings(g, 2, fixed={spec.anchor: 0})
            by_rule = enumerate_majority_colorings(
                g, 2, free=spec.path, fixed={spec.anchor: 0},
                extend=truncation_extension(g, spec),
            )
            assert [c.colors for c in searched] == [c.colors for c in by_rule], n

    def test_every_truncation_is_feasible(self):
        for n in range(2, 9):
            assert feasible_prefix_set(n, 1), f"G_{n} has no majority 2-coloring?"

    def test_anchor_fixing_loses_nothing(self):
        # Color-swap symmetry: pinning the anchor's color must yield the
        # same truth patterns as the unpinned full enumeration.
        for n in (2, 3):
            g, spec = build_truncation(n)
            unpinned = {
                TruthView(spec.anchor, c).truths(spec.path)
                for c in brute_force_majority_colorings(g, 2)
            }
            assert feasible_prefix_set(n, n) == unpinned

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            feasible_prefix_set(1, 1)
        with pytest.raises(ValueError):
            feasible_prefix_set(3, 4)
