"""Weighted undirected multigraphs and their majority 2-colorings.

Parallel edges are represented by weights: adding an edge over an
existing pair merges by summing, which subsumes multiplicity.  The
majority condition compares, per vertex, the summed weight of
bichromatic incident edges against the monochromatic ones.  One helper
computes that ``(mono, diff)`` weight pair; the verifier, the local
search and the k-coloring probe all go through it, and the verifier
returns the same :class:`~majoritylab.majority.DeficiencyReport` as the
digraph verifier (unit weights give the unweighted counts).

Finite instances are always majority 2-colorable: flipping any violated
vertex strictly increases the total cut weight, so the local search
below terminates within total-weight many flips.  The search harness
looks for small instances with no majority k-coloring at all.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import BudgetExceeded, OutOfRangeError, SelfLoopError
from .graph import Coloring, VertexId
from .majority import DeficiencyReport

DEFAULT_SEARCH_BUDGET = 10_000_000
BUDGET_ENV_VAR = "MAJORITY_LAB_BUDGET"


class WeightedMultigraph:
    """Undirected multigraph with positive integer edge weights."""

    __slots__ = ("_vertex_count", "_adj")

    def __init__(self, vertex_count: int = 0) -> None:
        if vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        self._vertex_count = vertex_count
        self._adj: list[dict[int, int]] = [{} for _ in range(vertex_count)]

    @property
    def vertex_count(self) -> int:
        return self._vertex_count

    def add_vertex(self) -> VertexId:
        self._adj.append({})
        self._vertex_count += 1
        return self._vertex_count - 1

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self._vertex_count:
            raise OutOfRangeError(
                f"vertex {v} out of range (vertex_count {self._vertex_count})"
            )

    def add_edge(self, u: VertexId, v: VertexId, weight: int = 1) -> None:
        """Add weight between u and v; repeated pairs merge by summing."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise SelfLoopError(f"self-loop ({u}, {u}) rejected")
        if weight < 1:
            raise ValueError("edge weight must be a positive integer")
        self._adj[u][v] = self._adj[u].get(v, 0) + weight
        self._adj[v][u] = self._adj[v].get(u, 0) + weight

    def weight(self, u: VertexId, v: VertexId) -> int:
        self._check_vertex(u)
        self._check_vertex(v)
        return self._adj[u].get(v, 0)

    def incident(self, v: VertexId) -> list[tuple[VertexId, int]]:
        self._check_vertex(v)
        return sorted(self._adj[v].items())

    def degree_weight(self, v: VertexId) -> int:
        self._check_vertex(v)
        return sum(self._adj[v].values())

    def edges(self) -> list[tuple[VertexId, VertexId, int]]:
        """All edges as (u, v, w) with u < v, sorted."""
        return sorted(
            (u, v, w)
            for u in range(self._vertex_count)
            for v, w in self._adj[u].items()
            if u < v
        )

    @property
    def total_weight(self) -> int:
        return sum(w for _, _, w in self.edges())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedMultigraph):
            return NotImplemented
        return (
            self._vertex_count == other._vertex_count
            and self.edges() == other.edges()
        )

    def __repr__(self) -> str:
        return (
            f"WeightedMultigraph(vertices={self._vertex_count}, "
            f"edges={len(self.edges())}, total_weight={self.total_weight})"
        )


@dataclass(frozen=True)
class LocalSearchResult:
    coloring: Coloring
    flips: int


def _mono_diff(
    mg: WeightedMultigraph, colors: Sequence[int], v: VertexId
) -> tuple[int, int]:
    """Incident weight of ``v`` inside its color class, and across it."""
    cv = colors[v]
    mono = 0
    diff = 0
    for u, w in mg.incident(v):
        if colors[u] == cv:
            mono += w
        else:
            diff += w
    return mono, diff


def verify_weighted(mg: WeightedMultigraph, coloring: Coloring) -> DeficiencyReport:
    """Per-vertex bichromatic vs monochromatic incident weight comparison."""
    if len(coloring.colors) != mg.vertex_count:
        raise ValueError(
            f"coloring covers {len(coloring.colors)} vertices, "
            f"multigraph has {mg.vertex_count}"
        )
    return DeficiencyReport.from_counts(
        _mono_diff(mg, coloring.colors, v) for v in range(mg.vertex_count)
    )


def local_search_2color(mg: WeightedMultigraph) -> LocalSearchResult:
    """Majority 2-coloring by repeatedly flipping the smallest violated vertex.

    Starts all-zero.  Every flip strictly increases the cut weight, which
    is bounded by the total weight, so at most total_weight flips occur.
    """
    colors = [0] * mg.vertex_count
    flips = 0
    while True:
        for v in range(mg.vertex_count):
            mono, diff = _mono_diff(mg, colors, v)
            if mono > diff:
                colors[v] = 1 - colors[v]
                flips += 1
                break
        else:
            return LocalSearchResult(Coloring(2, tuple(colors)), flips)


def has_majority_k_coloring(mg: WeightedMultigraph, k: int) -> bool:
    """Brute force over all k^V assignments, each dropped at its first violation."""
    if k < 1:
        raise ValueError("palette size must be positive")
    for combo in itertools.product(range(k), repeat=mg.vertex_count):
        for v in range(mg.vertex_count):
            mono, diff = _mono_diff(mg, combo, v)
            if mono > diff:
                break
        else:
            return True
    return False


# --- small-instance search ----------------------------------------------


def _weight_vectors(num_pairs: int, max_total: int) -> Iterator[tuple[int, ...]]:
    """All non-negative weight vectors with sum <= max_total, lexicographic."""
    if num_pairs == 0:
        yield ()
        return
    for head in range(max_total + 1):
        for tail in _weight_vectors(num_pairs - 1, max_total - head):
            yield (head,) + tail


def _signature(mg: WeightedMultigraph) -> tuple:
    """Isomorphism-invariant fingerprint: sorted per-vertex incident weights."""
    return tuple(
        sorted(
            tuple(sorted(w for _, w in mg.incident(v)))
            for v in range(mg.vertex_count)
        )
    )


def _isomorphic(a: WeightedMultigraph, b: WeightedMultigraph) -> bool:
    if a.vertex_count != b.vertex_count:
        return False
    b_edges = {(u, v): w for u, v, w in b.edges()}
    a_edges = a.edges()
    if len(a_edges) != len(b_edges):
        return False
    for perm in itertools.permutations(range(a.vertex_count)):
        if all(
            b_edges.get((min(perm[u], perm[v]), max(perm[u], perm[v]))) == w
            for u, v, w in a_edges
        ):
            return True
    return False


def _search_estimate(max_vertices: int, max_total_weight: int, k: int) -> int:
    # Cost model: weight vectors to enumerate times colorings to test each.
    total = 0
    for v in range(1, max_vertices + 1):
        pairs = v * (v - 1) // 2
        vectors = math.comb(pairs + max_total_weight, pairs)
        total += vectors * k**v
    return total


def _instances(
    max_vertices: int, max_total_weight: int
) -> Iterator[WeightedMultigraph]:
    """Canonical instances up to the bounds, one per isomorphism class.

    Instances are grouped by vertex count with no isolated vertices (an
    isolated vertex is always satisfied, so such instances collapse to a
    smaller one); the single-vertex edgeless instance is the exception.
    Deduplication buckets by signature and settles collisions with an
    exact permutation check, which stays cheap for the v <= 6 scope.
    """
    for v in range(1, max_vertices + 1):
        pairs = list(itertools.combinations(range(v), 2))
        seen: dict[tuple, list[WeightedMultigraph]] = {}
        for vector in _weight_vectors(len(pairs), max_total_weight):
            mg = WeightedMultigraph(v)
            for (a, b), w in zip(pairs, vector):
                if w > 0:
                    mg.add_edge(a, b, w)
            if v >= 2 and any(mg.degree_weight(x) == 0 for x in range(v)):
                continue
            sig = _signature(mg)
            bucket = seen.setdefault(sig, [])
            if any(_isomorphic(mg, other) for other in bucket):
                continue
            bucket.append(mg)
            yield mg


def search_non_k_colorable(
    max_vertices: int,
    max_total_weight: int,
    k: int,
    *,
    budget: int | None = None,
) -> list[WeightedMultigraph]:
    """Exhaustively look for instances with no majority k-coloring.

    Enumerates one representative per isomorphism class of weighted
    multigraphs within the bounds and brute-forces all k-colorings of
    each.  The estimated cost (weight vectors times k^V) must stay under
    the budget, which defaults to the MAJORITY_LAB_BUDGET environment
    variable or 10^7.
    """
    if max_vertices < 1:
        raise ValueError("max_vertices must be at least 1")
    if max_total_weight < 0:
        raise ValueError("max_total_weight must be non-negative")
    if budget is None:
        budget = int(os.environ.get(BUDGET_ENV_VAR, DEFAULT_SEARCH_BUDGET))
    estimate = _search_estimate(max_vertices, max_total_weight, k)
    if estimate > budget:
        raise BudgetExceeded(
            f"estimated {estimate} enumeration steps exceed the budget {budget}"
        )
    return [
        mg
        for mg in _instances(max_vertices, max_total_weight)
        if not has_majority_k_coloring(mg, k)
    ]
