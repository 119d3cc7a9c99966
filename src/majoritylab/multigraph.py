"""Weighted undirected multigraphs and their majority 2-colorings.

Parallel edges are represented by weights: adding an edge over an
existing pair merges by summing, which subsumes multiplicity.  The
majority condition compares, per vertex, the summed weight of
bichromatic incident edges against the monochromatic ones.  One helper
computes that ``(mono, diff)`` weight pair for the verifier and the
k-coloring probe (the local search starts all-zero: all ``mono``); the
verifier returns the same :class:`~majoritylab.majority.DeficiencyReport`
as the digraph verifier (unit weights give the unweighted counts).

Finite instances are always majority 2-colorable: flipping any violated
vertex strictly increases the total cut weight, so the local search
below terminates within total-weight many flips.  The search harness
looks for small instances with no majority k-coloring at all.
"""

from __future__ import annotations

import heapq
import itertools
import math
from operator import itemgetter
from typing import Iterator, NamedTuple, Sequence

from .errors import TooLarge
from .graph import Coloring, VertexId
from .majority import DeficiencyReport

#: Largest estimated cost (weight vectors times (V! + k^V)) the search accepts.
SEARCH_BUDGET = 10_000_000


class WeightedMultigraph:
    """Undirected multigraph with positive integer edge weights."""

    __slots__ = ("_adj",)

    def __init__(self, vertex_count: int = 0) -> None:
        if vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        self._adj: list[dict[int, int]] = [{} for _ in range(vertex_count)]

    @property
    def vertex_count(self) -> int:
        return len(self._adj)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < len(self._adj):
            raise ValueError(
                f"vertex {v} out of range (vertex_count {len(self._adj)})"
            )

    def add_edge(self, u: VertexId, v: VertexId, weight: int = 1) -> None:
        """Add weight between u and v; repeated pairs merge by summing."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError(f"self-loop ({u}, {u}) rejected")
        if weight < 1:
            raise ValueError("edge weight must be a positive integer")
        self._adj[u][v] = self._adj[u].get(v, 0) + weight
        self._adj[v][u] = self._adj[v].get(u, 0) + weight

    def incident(self, v: VertexId) -> list[tuple[VertexId, int]]:
        self._check_vertex(v)
        return sorted(self._adj[v].items())

    def edges(self) -> list[tuple[VertexId, VertexId, int]]:
        """All edges as (u, v, w) with u < v, sorted."""
        return sorted(
            (u, v, w)
            for u, targets in enumerate(self._adj)
            for v, w in targets.items()
            if u < v
        )

    @property
    def total_weight(self) -> int:
        return sum(w for _, _, w in self.edges())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedMultigraph):
            return NotImplemented
        return (
            len(self._adj) == len(other._adj)
            and self.edges() == other.edges()
        )

    def __repr__(self) -> str:
        return (
            f"WeightedMultigraph(vertices={len(self._adj)}, "
            f"edges={len(self.edges())}, total_weight={self.total_weight})"
        )


class LocalSearchResult(NamedTuple):
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
    The search is incremental: each vertex keeps its balance ``diff - mono``
    and a min-heap holds the violated vertices (stale entries are skipped
    when popped).  A flip negates the flipped vertex's balance and moves
    each neighbor's by twice the edge weight, so a step costs one
    neighborhood rather than a rescan of the graph, and the flip order is
    exactly that of rescanning from vertex 0 after every flip.
    """
    n = mg.vertex_count
    colors = [0] * n
    incident = [mg.incident(v) for v in range(n)]
    balance = [-sum(map(itemgetter(1), inc)) for inc in incident]
    violated = [v for v in range(n) if balance[v] < 0]  # sorted, so a heap
    flips = 0
    while violated:
        v = heapq.heappop(violated)
        if balance[v] >= 0:
            continue
        cv = colors[v] = 1 - colors[v]
        balance[v] = -balance[v]
        flips += 1
        for u, w in incident[v]:
            if colors[u] != cv:
                balance[u] += 2 * w
                continue
            before = balance[u]
            balance[u] = before - 2 * w
            if balance[u] < 0 <= before:
                heapq.heappush(violated, u)
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


def _search_estimate(max_vertices: int, max_total_weight: int, k: int) -> int:
    # Cost model: per weight vector, V! relabellings for its canonical key
    # and k^V colorings to test.  The sum stops once it passes the budget.
    total = 0
    for v in range(1, max_vertices + 1):
        pairs = v * (v - 1) // 2
        vectors = math.comb(pairs + max_total_weight, pairs)
        total += vectors * (math.factorial(v) + k**v)
        if total > SEARCH_BUDGET:
            break
    return total


def _instances(
    max_vertices: int, max_total_weight: int
) -> Iterator[WeightedMultigraph]:
    """Canonical instances up to the bounds, one per isomorphism class.

    Instances are grouped by vertex count with no isolated vertices (an
    isolated vertex is always satisfied, so such instances collapse to a
    smaller one); the single-vertex edgeless instance, yielded first, is
    the exception.  The first weight vector of each class is kept.  A
    class is keyed by its smallest relabelled vector under all vertex
    permutations, read through tables built once per vertex count.  Both
    tests read the weight vector; only kept vectors become multigraphs.
    """
    yield WeightedMultigraph(1)
    for v in range(2, max_vertices + 1):
        pairs = list(itertools.combinations(range(v), 2))
        index = {pair: i for i, pair in enumerate(pairs)}
        relabellings = [
            itemgetter(*(index[min(p[a], p[b]), max(p[a], p[b])] for a, b in pairs))
            for p in itertools.permutations(range(v))
        ]
        touching = [[i for i, pair in enumerate(pairs) if x in pair] for x in range(v)]
        seen: set[object] = set()  # one pair (v = 2) relabels to a bare int
        for vector in _weight_vectors(len(pairs), max_total_weight):
            if not all(any(vector[i] for i in idx) for idx in touching):
                continue
            key = min([relabel(vector) for relabel in relabellings])
            if key in seen:
                continue
            seen.add(key)
            mg = WeightedMultigraph(v)
            for (a, b), w in zip(pairs, vector):
                if w > 0:
                    mg.add_edge(a, b, w)
            yield mg


def search_non_k_colorable(
    max_vertices: int, max_total_weight: int, k: int
) -> list[WeightedMultigraph]:
    """Exhaustively look for instances with no majority k-coloring.

    Enumerates one representative per isomorphism class of weighted
    multigraphs within the bounds and brute-forces all k-colorings of
    each.  The estimated cost, weight vectors times (V! + k^V) summed
    over the vertex counts, must stay under ``SEARCH_BUDGET``.
    """
    if max_vertices < 1:
        raise ValueError("max_vertices must be at least 1")
    if max_total_weight < 0:
        raise ValueError("max_total_weight must be non-negative")
    estimate = _search_estimate(max_vertices, max_total_weight, k)
    if estimate > SEARCH_BUDGET:
        raise TooLarge(
            f"estimated {estimate} enumeration steps exceed the budget {SEARCH_BUDGET}"
        )
    return [
        mg
        for mg in _instances(max_vertices, max_total_weight)
        if not has_majority_k_coloring(mg, k)
    ]
