import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import check_report, dags, digraphs, extension_rule_colorings, random_dag
from majoritylab import majority
from majoritylab.counterexample import build_truncation
from majoritylab.errors import CycleFound, TooLarge
from majoritylab.graph import Coloring, DiGraph
from majoritylab.majority import (
    DeficiencyReport,
    brute_force_majority_colorings,
    enumerate_majority_colorings,
    feasible_prefix_set,
    greedy_dag_2color,
    verify,
)


def T(*bits):
    return tuple(bool(b) for b in bits)


class TestVerify:
    def test_single_vertex_satisfied(self):
        report = verify(DiGraph(1), Coloring(2, (0,)))
        assert report.satisfied
        assert (report.mono[0], report.diff[0]) == (0, 0)
        assert report.first_violation is None

    def test_single_out_edge_monochromatic(self):
        g = DiGraph(2)
        g.add_edge(0, 1)
        report = verify(g, Coloring(2, (0, 0)))
        assert not report.satisfied
        assert report.first_violation == 0
        assert (report.mono[0], report.diff[0]) == (1, 0)
        assert (report.mono[1], report.diff[1]) == (0, 0)

    def test_out_degree_three(self):
        g = DiGraph(4)
        for v in (1, 2, 3):
            g.add_edge(0, v)
        report = verify(g, Coloring(2, (1, 1, 1, 0)))
        assert (report.mono[0], report.diff[0]) == (2, 1)
        assert report.first_violation == 0

    def test_palette_enforced_at_construction(self):
        with pytest.raises(ValueError, match="^vertex 1 has color 2, palette size is 2$"):
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
            assert (report.mono[v], report.diff[v]) == (mono, diff)

    @given(
        st.one_of(dags(max_vertices=8), digraphs(max_vertices=8)),
        st.integers(2, 3),
        st.integers(0, 2**16),
    )
    def test_matches_report_from_counts(self, g, k, seed):
        # The one-pass report equals the two-pass construction over the same
        # per-vertex counts, violated colorings and cycles included.
        rng = random.Random(seed)
        colors = tuple(rng.randrange(k) for _ in range(g.vertex_count))
        report = verify(g, Coloring(k, colors))
        mono = [majority.monochromatic(colors, v, g.out(v)) for v in range(g.vertex_count)]
        diff = [g.out_degree(v) - m for v, m in enumerate(mono)]
        expected = DeficiencyReport.from_counts(mono, diff)
        assert report == expected
        assert report.satisfied == expected.satisfied

    @given(
        st.one_of(dags(max_vertices=8), digraphs(max_vertices=8)),
        st.integers(2, 3),
        st.integers(0, 2**16),
    )
    def test_report_matches_a_plain_loop(self, g, k, seed):
        # verify and from_counts both build the report at C speed, so the
        # reference is a loop over counts recounted edge by edge.
        rng = random.Random(seed)
        colors = tuple(rng.randrange(k) for _ in range(g.vertex_count))
        counts = []
        for v in range(g.vertex_count):
            mono = sum(1 for u in g.out(v) if colors[u] == colors[v])
            counts.append((mono, g.out_degree(v) - mono))
        check_report(verify(g, Coloring(k, colors)), counts)
        monos = iter([m for m, _ in counts])
        diffs = iter([d for _, d in counts])
        check_report(DeficiencyReport.from_counts(monos, diffs), counts)

    def test_empty_report(self):
        for report in (
            verify(DiGraph(0), Coloring(2, ())),
            DeficiencyReport.from_counts(iter(()), iter(())),
        ):
            assert report == ((), (), None)
            check_report(report, [])

    def test_from_counts_rejects_unequal_columns(self):
        with pytest.raises(ValueError, match="^2 mono counts but 1 diff counts$"):
            DeficiencyReport.from_counts((1, 2), (0,))

    @given(dags(max_vertices=8), st.integers(0, 2**16))
    def test_color_swap_invariance(self, g, seed):
        rng = random.Random(seed)
        c = Coloring(2, tuple(rng.randint(0, 1) for _ in range(g.vertex_count)))
        a = verify(g, c)
        b = verify(g, Coloring(2, tuple(1 - x for x in c.colors)))
        assert a == b

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
        for u, v in g.sorted_edges():
            h.add_edge(perm[u], perm[v])
        relabeled = [0] * n
        for v in range(n):
            relabeled[perm[v]] = colors[v]
        a = verify(g, Coloring(2, colors))
        b = verify(h, Coloring(2, tuple(relabeled)))
        for v in range(n):
            assert (a.mono[v], a.diff[v]) == (b.mono[perm[v]], b.diff[perm[v]])


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
        with pytest.raises(CycleFound, match=r"among vertices \[0, 1\]"):
            greedy_dag_2color(g)

    @given(dags(max_vertices=12))
    def test_output_always_verifies(self, g):
        assert verify(g, greedy_dag_2color(g)).satisfied

    def test_seeded_sixty_vertex_dags(self):
        rng = random.Random(7)
        for _ in range(50):
            g = random_dag(rng, 60)
            assert verify(g, greedy_dag_2color(g)).satisfied


class TestEnumerate:
    def test_single_edge_two_colors(self):
        g = DiGraph(2)
        g.add_edge(0, 1)
        result = enumerate_majority_colorings(g, 2)
        assert [c.colors for c in result] == [(0, 1), (1, 0)]

    def test_single_vertex_one_color(self):
        result = enumerate_majority_colorings(DiGraph(1), 1)
        assert [c.colors for c in result] == [(0,)]

    def test_fixed_vertices_pin_colors(self):
        g = DiGraph(2)
        g.add_edge(0, 1)
        result = enumerate_majority_colorings(g, 2, fixed={0: 0})
        assert [c.colors for c in result] == [(0, 1)]
        # With every vertex pinned there is one coloring or none.
        assert enumerate_majority_colorings(g, 2, fixed={0: 1, 1: 0}) == [
            Coloring(2, (1, 0))
        ]
        assert enumerate_majority_colorings(g, 2, fixed={0: 1, 1: 1}) == []
        with pytest.raises(ValueError, match="out of range"):
            enumerate_majority_colorings(g, 2, fixed={2: 0})
        with pytest.raises(ValueError, match="outside palette"):
            enumerate_majority_colorings(g, 2, fixed={0: 2})

    def test_stored_colors_cap(self, monkeypatch):
        # Two free vertices have four colorings, eight stored colors.
        monkeypatch.setattr(majority, "MAX_STORED_COLORS", 8)
        assert len(enumerate_majority_colorings(DiGraph(2), 2)) == 4
        monkeypatch.setattr(majority, "MAX_STORED_COLORS", 7)
        with pytest.raises(TooLarge, match="more than 3 majority colorings of 2 vertices"):
            enumerate_majority_colorings(DiGraph(2), 2)

    @pytest.mark.parametrize("k", [2, 3])
    def test_solutions_skip_the_palette_check(self, monkeypatch, k):
        # The engine and the oracle build their solutions from the palette,
        # so they must not run Coloring's check again; the public
        # constructor keeps it.
        g = DiGraph(4)
        for u, v in [(0, 1), (0, 2), (1, 3), (2, 3)]:
            g.add_edge(u, v)

        def refuse(cls, *fields):
            raise AssertionError("palette checked twice")

        with monkeypatch.context() as m:
            m.setattr(Coloring, "__new__", refuse)
            fast = enumerate_majority_colorings(g, k)
            slow = brute_force_majority_colorings(g, k)
        assert fast and fast == slow
        for c in fast + slow:
            assert type(c.colors) is tuple
            assert c == Coloring(k, c.colors)
            assert hash(c) == hash(Coloring(k, c.colors))
        with pytest.raises(ValueError, match="^vertex 1 has color 2, palette size is 2$"):
            Coloring(2, (0, 2))

    # Graphs with cycles have no topological order; the search uses id order.
    @given(st.one_of(dags(max_vertices=7), digraphs(max_vertices=7)), st.integers(2, 3))
    @settings(max_examples=80)
    def test_backtracking_matches_brute_force(self, g, k):
        fast = enumerate_majority_colorings(g, k)
        slow = brute_force_majority_colorings(g, k)
        assert [c.colors for c in fast] == [c.colors for c in slow]
        assert all(a.colors < b.colors for a, b in zip(slow, slow[1:]))

    def test_two_color_brute_force_small_graphs(self):
        # The empty graph has exactly one coloring, the empty one.
        for k in (1, 2, 3):
            empty = [Coloring(k, ())]
            assert brute_force_majority_colorings(DiGraph(0), k) == empty
            assert enumerate_majority_colorings(DiGraph(0), k) == empty
        assert [c.colors for c in brute_force_majority_colorings(DiGraph(1), 2)] == [
            (0,),
            (1,),
        ]

    @pytest.mark.parametrize("n", [0, 2])
    def test_brute_force_refuses_an_empty_palette(self, n):
        # As the search does, also where no vertex would need a color.
        with pytest.raises(ValueError, match="palette_size must be positive"):
            brute_force_majority_colorings(DiGraph(n), 0)

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

    # On a graph with a cycle the search runs in id order, so a vertex's
    # check can fire at a depth other than its own.
    @given(
        st.one_of(dags(max_vertices=7), digraphs(max_vertices=7)),
        st.integers(2, 3),
        st.data(),
    )
    @settings(max_examples=60)
    def test_fixing_a_vertex_filters_the_enumeration(self, g, k, data):
        if g.vertex_count == 0:
            return
        pinned = data.draw(st.integers(0, g.vertex_count - 1), label="pinned")
        color = data.draw(st.integers(0, k - 1), label="color")
        fixed = enumerate_majority_colorings(g, k, fixed={pinned: color})
        oracle = brute_force_majority_colorings(g, k)
        expected = [c.colors for c in oracle if c.colors[pinned] == color]
        assert [c.colors for c in fixed] == expected

    # Fixed cyclic graphs, searched in id order.  In each, some vertex has
    # an out-neighbor of larger id, so its check is deferred to that
    # neighbor's depth; in the first, every check is.
    DEFERRED = {
        "3-cycle, exit from its last vertex": [(0, 1), (1, 2), (2, 0), (2, 3)],
        "3-cycle, exit from its first vertex": [(0, 1), (1, 2), (2, 0), (0, 3)],
        "3-cycle against id order": [(0, 2), (2, 1), (1, 0)],
        "two checks deferred to one depth": [(0, 3), (1, 3), (3, 0), (3, 1), (2, 1)],
        "4-cycle with a shared exit": [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (3, 4)],
    }

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("edges", DEFERRED.values(), ids=DEFERRED)
    def test_deferred_checks_match_brute_force(self, edges, k):
        g = DiGraph(1 + max(map(max, edges)))
        for u, v in edges:
            g.add_edge(u, v)
        oracle = [c.colors for c in brute_force_majority_colorings(g, k)]
        assert [c.colors for c in enumerate_majority_colorings(g, k)] == oracle
        for pinned, color in itertools.product(range(g.vertex_count), range(k)):
            fixed = enumerate_majority_colorings(g, k, fixed={pinned: color})
            expected = [c for c in oracle if c[pinned] == color]
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

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @given(st.one_of(dags(max_vertices=6), digraphs(max_vertices=6)))
    @settings(max_examples=30)
    def test_brute_force_matches_verifier(self, k, g):
        oracle = brute_force_majority_colorings(g, k)
        verified = [
            combo
            for combo in itertools.product(range(k), repeat=g.vertex_count)
            if verify(g, Coloring(k, combo)).satisfied
        ]
        assert [c.colors for c in oracle] == verified

    def test_truncation_extension_matches_full_brute_force(self):
        g, spec = build_truncation(3)
        path_and_anchor = list(spec.path) + [spec.anchor]
        with_rule = extension_rule_colorings(g, spec)
        full = brute_force_majority_colorings(g, 2)
        assert {tuple(c.colors[v] for v in path_and_anchor) for c in with_rule} == {
            tuple(c.colors[v] for v in path_and_anchor) for c in full
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
        # Regression table computed once by enumeration; the sets change at
        # depth 4, grow at depth 5 and stabilize, so the *aligned* inclusion
        # does not hold (the shifted one does: see the acceptance suite).
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

    def test_path_level_solution_count(self):
        # Measured, not proved, like the table above: with the anchor's
        # color pinned, G_n has exactly ceil((n + 2) / 2) majority
        # 2-colorings for n = 2..32.
        for n in range(2, 33):
            g, spec = build_truncation(n)
            solutions = enumerate_majority_colorings(g, 2, fixed={spec.anchor: 0})
            assert len(solutions) == (n + 3) // 2, f"depth {n}"

    def test_search_matches_extension_rule_on_truncations(self):
        # The search forces gadget internals by pruning; the extension rule
        # fills them from the closed form.  Both must give the same colorings.
        for n in range(2, 9):
            g, spec = build_truncation(n)
            searched = enumerate_majority_colorings(g, 2, fixed={spec.anchor: 0})
            by_rule = extension_rule_colorings(g, spec, anchor_colors=(0,))
            assert [c.colors for c in searched] == [c.colors for c in by_rule], n

    def test_every_truncation_is_feasible(self):
        for n in range(2, 9):
            assert feasible_prefix_set(n, 1), f"G_{n} has no majority 2-coloring?"

    def test_anchor_fixing_loses_nothing(self):
        # Color-swap symmetry: pinning the anchor's color must yield the
        # same truth patterns as the unpinned full enumeration.
        for n in (2, 3):
            g, spec = build_truncation(n)
            # A vertex is true when it shares the anchor's color.
            unpinned = {
                tuple(c.colors[v] == c.colors[spec.anchor] for v in spec.path)
                for c in brute_force_majority_colorings(g, 2)
            }
            assert feasible_prefix_set(n, n) == unpinned

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            feasible_prefix_set(1, 1)
        with pytest.raises(ValueError):
            feasible_prefix_set(3, 4)
