import hashlib
import itertools
import random

import pytest
from hypothesis import given

from helpers import multigraphs, random_multigraph
from majoritylab.errors import BudgetExceeded, SelfLoopError
from majoritylab.graph import Coloring, DiGraph
from majoritylab.majority import verify
from majoritylab.multigraph import (
    WeightedMultigraph,
    has_majority_k_coloring,
    local_search_2color,
    search_non_k_colorable,
    verify_weighted,
)


def triangle():
    mg = WeightedMultigraph(3)
    mg.add_edge(0, 1)
    mg.add_edge(0, 2)
    mg.add_edge(1, 2)
    return mg


class TestMultigraph:
    def test_parallel_edges_merge(self):
        mg = WeightedMultigraph(2)
        mg.add_edge(0, 1, 2)
        mg.add_edge(1, 0, 3)
        assert mg.edges() == [(0, 1, 5)]
        assert mg.total_weight == 5

    def test_self_loop_rejected(self):
        mg = WeightedMultigraph(1)
        with pytest.raises(SelfLoopError):
            mg.add_edge(0, 0)

    def test_weight_positive(self):
        mg = WeightedMultigraph(2)
        with pytest.raises(ValueError):
            mg.add_edge(0, 1, 0)


class TestVerifyWeighted:
    def test_unit_triangle(self):
        report = verify_weighted(triangle(), Coloring(2, (0, 0, 1)))
        assert report.satisfied

    def test_heavy_monochromatic_edge(self):
        mg = WeightedMultigraph(2)
        mg.add_edge(0, 1, 5)
        report = verify_weighted(mg, Coloring(2, (0, 0)))
        assert not report.satisfied
        assert report.first_violation == 0
        assert report.checks[0] == (5, 0, False)
        assert report.checks[1] == (5, 0, False)

    def test_isolated_vertex(self):
        report = verify_weighted(WeightedMultigraph(1), Coloring(2, (0,)))
        assert report.satisfied
        assert report.checks[0] == (0, 0, True)

    @given(multigraphs(max_vertices=6))
    def test_unit_weights_agree_with_digraph_verifier(self, mg):
        # Bridge: orient every undirected unit edge both ways; the digraph
        # verifier then counts the same incident edges per vertex, so the
        # two reports (one type for both verifiers) are equal as a whole.
        unit = WeightedMultigraph(mg.vertex_count)
        for u, v, _ in mg.edges():
            unit.add_edge(u, v, 1)
        g = DiGraph(unit.vertex_count)
        for u, v, _ in unit.edges():
            g.add_edge(u, v)
            g.add_edge(v, u)
        for colors in (
            Coloring(2, tuple(v % 2 for v in range(unit.vertex_count))),
            Coloring(2, tuple(0 for _ in range(unit.vertex_count))),
        ):
            assert verify_weighted(unit, colors) == verify(g, colors)


class TestLocalSearch:
    def test_single_heavy_edge(self):
        mg = WeightedMultigraph(2)
        mg.add_edge(0, 1, 5)
        result = local_search_2color(mg)
        assert result.flips == 1
        assert result.coloring.colors[0] != result.coloring.colors[1]

    def test_edgeless(self):
        result = local_search_2color(WeightedMultigraph(4))
        assert result.flips == 0
        assert result.coloring.colors == (0, 0, 0, 0)

    def test_seeded_instances_verified_within_flip_bound(self):
        rng = random.Random(15)
        for _ in range(60):
            mg = random_multigraph(rng, 12, 5)
            result = local_search_2color(mg)
            assert verify_weighted(mg, result.coloring).satisfied
            assert result.flips <= mg.total_weight

    @given(multigraphs())
    def test_always_terminates_verified(self, mg):
        result = local_search_2color(mg)
        assert verify_weighted(mg, result.coloring).satisfied
        assert result.flips <= mg.total_weight

    @pytest.mark.parametrize(
        "seed, flips, digest",
        [
            (1, 314, "372491db25d673dc"),
            (2, 304, "92b698a7a3e9f874"),
            (3, 320, "910aa52917995e8f"),
        ],
    )
    def test_frozen_flips_and_colorings(self, seed, flips, digest):
        # `multigraph solve` prints exactly this coloring and flip count, so
        # a change to the search or its weighted check must not move them.
        # The digest is the first 16 hex digits of SHA-256 over the colors.
        rng = random.Random(seed)
        mg = WeightedMultigraph(300)
        for _ in range(3000):
            u, v = rng.sample(range(300), 2)
            mg.add_edge(u, v, rng.randint(1, 5))
        result = local_search_2color(mg)
        assert result.flips == flips
        assert hashlib.sha256(bytes(result.coloring.colors)).hexdigest()[:16] == digest


class TestSearch:
    def test_one_color_single_edge(self):
        found = search_non_k_colorable(2, 1, 1)
        assert len(found) == 1
        assert found[0].edges() == [(0, 1, 1)]

    def test_two_colors_always_possible(self):
        assert search_non_k_colorable(4, 6, 2) == []

    def test_three_colors_small_window_empty(self):
        assert search_non_k_colorable(4, 8, 3) == []

    def test_budget_guard(self):
        with pytest.raises(BudgetExceeded):
            search_non_k_colorable(4, 8, 3, budget=10)

    def test_isomorphic_duplicates_collapse(self):
        # Unit path on 3 vertices: 3 labelings, one representative, and it
        # is 1-uncolorable, so exactly one finding for k=1.
        found = search_non_k_colorable(3, 2, 1)
        two_edge_paths = [
            mg for mg in found
            if mg.vertex_count == 3 and len(mg.edges()) == 2
            and mg.total_weight == 2
        ]
        assert len(two_edge_paths) == 1

    @pytest.mark.parametrize("k", [1, 2, 3])
    @given(mg=multigraphs(max_vertices=5))
    def test_colorability_probe_matches_verifier_brute_force(self, mg, k):
        expected = any(
            verify_weighted(mg, Coloring(k, combo)).satisfied
            for combo in itertools.product(range(k), repeat=mg.vertex_count)
        )
        assert has_majority_k_coloring(mg, k) == expected

    def test_colorability_probe(self):
        mg = WeightedMultigraph(2)
        mg.add_edge(0, 1, 1)
        assert not has_majority_k_coloring(mg, 1)
        assert has_majority_k_coloring(mg, 2)
