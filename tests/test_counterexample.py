import itertools
import math
import tracemalloc

import pytest

from helpers import reference_truncation, sorted_scan_violation, sorted_sigma_label
from majoritylab import counterexample
from majoritylab.counterexample import (
    SigmaCheckResult,
    TruncationSpec,
    build_truncation,
    sigma_label,
    truncation_names,
    verify_sigma,
)
from majoritylab.errors import TooLarge
from majoritylab.gadgets import is_valid_gadget
from majoritylab.graph import DiGraph, to_text, topological_sort
from majoritylab.majority import greedy_dag_2color, verify


class TestLayout:
    def test_depth_two(self):
        g, spec = build_truncation(2)
        assert g.vertex_count == 3
        assert g.edge_count == 1
        assert spec.gadget_registry == {}
        assert spec.path == (0, 1)
        assert spec.anchor == 2

    def test_depth_four_counts(self):
        g, spec = build_truncation(4)
        assert g.vertex_count == 21
        assert g.edge_count == 30
        assert sorted(spec.gadget_registry) == [(2, 3), (2, 4), (3, 4)]
        assert len(spec.gadget_registry[(2, 3)].internal) == 4
        assert len(spec.gadget_registry[(2, 4)].internal) == 8
        assert len(spec.gadget_registry[(3, 4)].internal) == 4

    @pytest.mark.parametrize("n", range(2, 13))
    def test_vertex_count_formula(self, n):
        g, _ = build_truncation(n)
        assert g.vertex_count == n + 1 + 4 * math.comb(n, 3)

    def test_size_cap(self, monkeypatch):
        # G_115 has 987736 vertices and G_116 1013957, past MAX_VERTICES;
        # the refusal comes before anything is built.
        with pytest.raises(TooLarge, match="G_116 would have 1013957 vertices"):
            build_truncation(116)
        with pytest.raises(TooLarge):
            build_truncation(10**9)
        monkeypatch.setattr(counterexample, "MAX_VERTICES", 46)
        assert build_truncation(5)[0].vertex_count == 46
        with pytest.raises(TooLarge):
            build_truncation(6)

    def test_depth_four_first_vertex_out_edges(self):
        g, spec = build_truncation(4)
        expected = {
            spec.path_vertex(2),
            spec.gadget_registry[(2, 3)].output,
            spec.gadget_registry[(2, 4)].output,
        }
        assert set(g.out(spec.path_vertex(1))) == expected
        assert g.out_degree(spec.path_vertex(1)) == 3

    def test_gadget_inputs_are_path_runs(self):
        _, spec = build_truncation(6)
        for (i, j), handle in spec.gadget_registry.items():
            assert handle.inputs == tuple(range(i - 1, j))
            assert handle.anchor == spec.anchor

    def test_hookup_edges_present(self):
        g, spec = build_truncation(6)
        for (i, j), handle in spec.gadget_registry.items():
            assert handle.output in g.out(spec.path_vertex(i - 1))

    @pytest.mark.parametrize("n", range(2, 13))
    def test_batch_matches_one_edge_at_a_time(self, n):
        g, spec = build_truncation(n)
        ref, ref_spec = reference_truncation(n)
        assert g.adjacency == ref.adjacency  # each out-list in the same order
        assert list(spec.gadget_registry.items()) == list(ref_spec.gadget_registry.items())
        assert spec == ref_spec
        assert g == ref

    def test_batch_stays_under_the_simple_graph_rule(self):
        # v1 has 35 out-edges in G_36, past add_edge's scan limit of 32.
        g, spec = build_truncation(36)
        assert g.out_degree(spec.path_vertex(1)) == 35
        for u, v in ((0, 1), (0, spec.gadget_registry[(2, 36)].output), (1, 2)):
            with pytest.raises(ValueError, match="already present"):
                g.add_edge(u, v)
        g.add_edge(0, 2)
        assert g.out(0)[-1] == 2

    def test_batch_holds_the_layout_once(self):
        # The empty graph adopts the layout list; a copy of it would add
        # 8 bytes per vertex to the peak (G_40 has 39 561 vertices).
        tracemalloc.start()
        try:
            g, _ = build_truncation(40)
            size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - size < 2 * g.vertex_count

    def test_out_degree_formula(self):
        for n in range(2, 9):
            g, spec = build_truncation(n)
            for m in range(1, n):
                assert g.out_degree(spec.path_vertex(m)) == n - m
            assert g.out_degree(spec.path_vertex(n)) == 0

    def test_anchor_is_a_sink(self):
        for n in range(2, 9):
            g, spec = build_truncation(n)
            assert g.out_degree(spec.anchor) == 0

    @pytest.mark.parametrize("n", range(2, 7))
    def test_path_and_anchor_follow_the_depth(self, n):
        g, spec = build_truncation(n)
        assert TruncationSpec._fields == ("n", "gadget_registry")
        assert TruncationSpec(n, spec.gadget_registry) == spec
        assert spec.path == tuple(range(n))
        assert all(v in g.out(u) for u, v in zip(spec.path, spec.path[1:]))
        sinks = [v for v in range(g.vertex_count) if g.out_degree(v) == 0]
        assert sinks == [spec.path[-1], spec.anchor]
        assert all(h.anchor == spec.anchor for h in spec.gadget_registry.values())
        with pytest.raises(AttributeError):
            spec.anchor = 0

    @pytest.mark.parametrize("n", [2, 5, 115])
    def test_path_vertex_is_the_position_less_one(self, n):
        spec = TruncationSpec(n, {})
        assert [spec.path_vertex(i) for i in range(1, n + 1)] == list(spec.path)
        assert spec.path_vertex(n) == n - 1
        for i in (0, -1, n + 1, 2 * n):
            with pytest.raises(ValueError, match=f"path position {i} outside 1..{n}"):
                spec.path_vertex(i)

    def test_rejects_tiny_depth(self):
        with pytest.raises(ValueError):
            build_truncation(1)


class TestContainment:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_next_depth_contains_previous(self, n):
        g_small, spec_small = build_truncation(n)
        g_big, spec_big = build_truncation(n + 1)
        mapping = {spec_small.anchor: spec_big.anchor}
        for i in range(1, n + 1):
            mapping[spec_small.path_vertex(i)] = spec_big.path_vertex(i)
        for key, h_small in spec_small.gadget_registry.items():
            h_big = spec_big.gadget_registry[key]
            for s_small, s_big in zip(h_small.stages, h_big.stages):
                mapping[s_small.neg_left] = s_big.neg_left
                mapping[s_small.neg_right] = s_big.neg_right
                mapping[s_small.neg_anchor] = s_big.neg_anchor
                mapping[s_small.collector] = s_big.collector
        small_edges = {(mapping[u], mapping[v]) for u, v in g_small.sorted_edges()}
        image = set(mapping.values())
        induced = {
            (u, v) for u, v in g_big.sorted_edges() if u in image and v in image
        }
        assert small_edges == induced


class TestSigma:
    def test_path_labels(self):
        g, spec = build_truncation(4)
        labels = sigma_label(g, spec)
        assert labels[spec.path_vertex(2)] == (2, 0, 0)
        assert labels[spec.path_vertex(4)] == (4, 0, 0)

    def test_gadget_prefix_and_output(self):
        g, spec = build_truncation(5)
        labels = sigma_label(g, spec)
        handle = spec.gadget_registry[(3, 5)]
        # Prefix (i - 1, j) = (2, 5); the output is the earliest internal
        # vertex in the gadget's own topological sort: everything else is
        # reachable from it.
        assert labels[handle.output] == (2, 5, 0)

    @pytest.mark.parametrize("n", range(2, 17))
    def test_labels_match_per_gadget_sort(self, n):
        g, spec = build_truncation(n)
        assert sigma_label(g, spec) == sorted_sigma_label(g, spec)

    def test_anchor_unlabeled(self):
        g, spec = build_truncation(4)
        labels = sigma_label(g, spec)
        assert spec.anchor not in labels
        assert set(labels) == set(range(g.vertex_count)) - {spec.anchor}

    @pytest.mark.parametrize("n", range(2, 9))
    def test_acyclic_and_accepted(self, n):
        g, spec = build_truncation(n)
        assert len(topological_sort(g)) == g.vertex_count
        result = verify_sigma(g, spec, sigma_label(g, spec))
        assert result.ok
        assert result.first_violation is None

    def test_result_ok_follows_the_violation(self):
        assert SigmaCheckResult._fields == ("first_violation",)
        assert SigmaCheckResult(None).ok
        assert not SigmaCheckResult((0, 1)).ok
        with pytest.raises(AttributeError):
            SigmaCheckResult(None).ok = False

    def test_check_streams_the_edges(self):
        # A list of G_30's edges alone would take about 2 MB.
        g, spec = build_truncation(30)
        labels = sigma_label(g, spec)
        tracemalloc.start()
        try:
            assert verify_sigma(g, spec, labels).ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_swapped_labels_flag_the_path_edge(self):
        g, spec = build_truncation(4)
        labels = sigma_label(g, spec)
        v1, v2 = spec.path_vertex(1), spec.path_vertex(2)
        labels[v1], labels[v2] = labels[v2], labels[v1]
        result = verify_sigma(g, spec, labels)
        assert not result.ok
        assert result.first_violation == (v1, v2)

    def test_partial_labels_rejected(self):
        for n in range(2, 11):
            g, spec = build_truncation(n)
            labels = sigma_label(g, spec)
            for v in (0, n - 1, g.vertex_count - 1):
                if v != spec.anchor:
                    partial = {**labels, 0: (0, 0, 0)}  # an edge fails before v
                    del partial[v]
                    with pytest.raises(ValueError, match=f"vertex {v} has no label"):
                        verify_sigma(g, spec, partial)


def _reversed_lists(g):
    """A copy of ``g`` with every out-list in reverse order."""
    h = DiGraph(g.vertex_count)
    for u, targets in enumerate(g.adjacency):
        for v in reversed(targets):
            h.add_edge(u, v)
    return h


def _relabelings(spec, labels):
    """The true labels, every swap of two path labels or of two labels
    inside one gadget, and each label lowered to (0, 0, 0)."""
    yield labels
    groups = [spec.path, *(sorted(h.internal) for h in spec.gadget_registry.values())]
    for group in groups:
        for a, b in itertools.combinations(group, 2):
            yield {**labels, a: labels[b], b: labels[a]}
    for v in labels:
        yield {**labels, v: (0, 0, 0)}


class TestSigmaFirstViolation:
    """verify_sigma names the same edge as a scan of ``sorted_edges()``.

    Each case also runs on a copy whose out-lists are reversed, so the
    first failing target in list order is not the smallest one.
    """

    @pytest.mark.parametrize("n", range(2, 11))
    def test_relabelings_match_the_sorted_scan(self, n):
        g, spec = build_truncation(n)
        reversed_g = _reversed_lists(g)
        failed = 0
        for labels in _relabelings(spec, sigma_label(g, spec)):
            want = sorted_scan_violation(g, spec, labels)  # the same edges in both
            assert verify_sigma(g, spec, labels).first_violation == want
            assert verify_sigma(reversed_g, spec, labels).first_violation == want
            failed += want is not None
        assert failed > 0

    @pytest.mark.parametrize("n", range(2, 11))
    def test_an_anchor_edge_matches_the_sorted_scan(self, n):
        g, spec = build_truncation(n)
        labels = sigma_label(g, spec)
        targets = [v for v in (n - 1, 0, g.vertex_count - 1) if v != spec.anchor]
        for v in targets:
            g.add_edge(spec.anchor, v)
            want = sorted_scan_violation(g, spec, labels)
            assert want == (spec.anchor, min(g.out(spec.anchor)))
            assert verify_sigma(g, spec, labels).first_violation == want


class TestMajorityOnTruncations:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_greedy_two_colors_every_depth(self, n):
        g, _ = build_truncation(n)
        assert verify(g, greedy_dag_2color(g)).satisfied

    @pytest.mark.parametrize("n", range(2, 9))
    def test_registered_gadgets_valid(self, n):
        g, spec = build_truncation(n)
        for handle in spec.gadget_registry.values():
            assert is_valid_gadget(g, handle)


class TestDeterminism:
    def test_rebuild_is_byte_identical(self):
        for n in (2, 4, 6):
            g1, s1 = build_truncation(n)
            g2, s2 = build_truncation(n)
            assert to_text(g1, truncation_names(s1)) == to_text(
                g2, truncation_names(s2)
            )

    def test_depth_three_snapshot(self):
        g, spec = build_truncation(3)
        assert to_text(g, truncation_names(spec)) == (
            "{\n"
            '  "edges": [\n'
            "    [0, 1],\n"
            "    [0, 7],\n"
            "    [1, 2],\n"
            "    [4, 1],\n"
            "    [5, 2],\n"
            "    [6, 3],\n"
            "    [7, 4],\n"
            "    [7, 5],\n"
            "    [7, 6]\n"
            "  ],\n"
            '  "names": {\n'
            '    "0": "v1",\n'
            '    "1": "v2",\n'
            '    "2": "v3",\n'
            '    "3": "T",\n'
            '    "4": "or2_3.s1.negx",\n'
            '    "5": "or2_3.s1.negy",\n'
            '    "6": "or2_3.s1.negt",\n'
            '    "7": "or2_3.s1.out"\n'
            "  },\n"
            '  "vertex_count": 8\n'
            "}\n"
        )
