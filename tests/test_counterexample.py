import math
import tracemalloc

import pytest

from helpers import sorted_sigma_label
from majoritylab import counterexample
from majoritylab.counterexample import (
    build_truncation,
    sigma_label,
    truncation_names,
    verify_sigma,
)
from majoritylab.errors import TooLarge
from majoritylab.gadgets import is_valid_gadget
from majoritylab.graph import to_text, topological_sort
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

    def test_gadget_ids_follow_anchor_in_registry_order(self):
        _, spec = build_truncation(5)
        next_id = spec.anchor + 1
        for key in sorted(spec.gadget_registry):
            handle = spec.gadget_registry[key]
            block = sorted(handle.internal)
            assert block[0] == next_id
            assert block == list(range(next_id, next_id + len(block)))
            next_id = block[-1] + 1

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
        g, spec = build_truncation(3)
        labels = sigma_label(g, spec)
        del labels[spec.path_vertex(1)]
        with pytest.raises(ValueError):
            verify_sigma(g, spec, labels)


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
