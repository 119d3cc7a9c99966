import hashlib
import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    bucket_instances,
    check_report,
    multigraphs,
    random_multigraph,
    rescan_local_search,
    seeded_multigraph,
)
from majoritylab import multigraph
from majoritylab.errors import TooLarge
from majoritylab.graph import Coloring, DiGraph
from majoritylab.majority import verify
from majoritylab.multigraph import (
    WeightedMultigraph,
    _instances,
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
        with pytest.raises(ValueError, match=r"^self-loop \(0, 0\) rejected$"):
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
        assert (report.mono[0], report.diff[0]) == (5, 0)
        assert (report.mono[1], report.diff[1]) == (5, 0)

    def test_isolated_vertex(self):
        report = verify_weighted(WeightedMultigraph(1), Coloring(2, (0,)))
        assert report.satisfied
        assert (report.mono[0], report.diff[0]) == (0, 0)

    @given(multigraphs(max_vertices=6), st.integers(0, 2**16))
    def test_report_matches_a_plain_loop(self, mg, seed):
        rng = random.Random(seed)
        colors = tuple(rng.randrange(2) for _ in range(mg.vertex_count))
        counts = [[0, 0] for _ in range(mg.vertex_count)]
        for u, v, w in mg.edges():
            side = 0 if colors[u] == colors[v] else 1
            counts[u][side] += w
            counts[v][side] += w
        check_report(
            verify_weighted(mg, Coloring(2, colors)), [tuple(c) for c in counts]
        )

    def test_empty_report(self):
        report = verify_weighted(WeightedMultigraph(0), Coloring(2, ()))
        assert report == ((), (), None)
        check_report(report, [])

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

    @given(multigraphs())
    def test_matches_rescan_oracle(self, mg):
        result = local_search_2color(mg)
        assert (result.flips, result.coloring.colors) == rescan_local_search(mg)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_rescan_oracle_on_seeded_instances(self, seed):
        mg = seeded_multigraph(seed)
        result = local_search_2color(mg)
        assert (result.flips, result.coloring.colors) == rescan_local_search(mg)


class TestSearch:
    def test_one_color_single_edge(self):
        found = search_non_k_colorable(2, 1, 1)
        assert len(found) == 1
        assert found[0].edges() == [(0, 1, 1)]

    def test_two_colors_always_possible(self):
        assert search_non_k_colorable(4, 6, 2) == []

    def test_three_colors_small_window_empty(self):
        assert search_non_k_colorable(4, 8, 3) == []

    def test_budget_guard(self, monkeypatch):
        monkeypatch.setattr(multigraph, "SEARCH_BUDGET", 10)
        with pytest.raises(TooLarge, match="exceed the budget 10"):
            search_non_k_colorable(4, 8, 3)

    @pytest.mark.parametrize("bounds", [(10, 1, 1), (80_000, 5, 2)])
    def test_budget_refuses_before_the_search(self, monkeypatch, bounds):
        # Ten vertices cost 10! relabellings per weight vector for the
        # canonical keys: minutes and gigabytes, though 2^10 colorings are
        # cheap.  The estimate for 80 000 vertices stops summing early.
        monkeypatch.setattr(multigraph, "_instances", None)
        with pytest.raises(TooLarge, match="exceed the budget"):
            search_non_k_colorable(*bounds)

    def test_budget_accepts_eight_vertices(self):
        assert multigraph._search_estimate(8, 1, 1) <= multigraph.SEARCH_BUDGET

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

    @pytest.mark.parametrize(
        "bounds", [(4, 8), (5, 6), (5, 4), (6, 3), (6, 4), (3, 12)]
    )
    def test_instances_match_bucket_oracle(self, bounds):
        def described(instances):
            return [(mg.vertex_count, mg.edges()) for mg in instances]

        assert described(_instances(*bounds)) == described(bucket_instances(*bounds))

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
