"""Shared generators for seeded and property-based graph tests."""

from __future__ import annotations

import heapq
import itertools
import json
import random

from hypothesis import strategies as st

from majoritylab.counterexample import truncation_extension
from majoritylab.errors import CycleFound
from majoritylab.graph import Coloring, DiGraph, topological_sort
from majoritylab.majority import verify
from majoritylab.multigraph import WeightedMultigraph, _weight_vectors


def random_dag(rng: random.Random, max_vertices: int, edge_prob: float | None = None) -> DiGraph:
    """A random DAG with shuffled vertex labels (so ids carry no order hint)."""
    n = rng.randint(1, max_vertices)
    if edge_prob is None:
        edge_prob = rng.uniform(0.0, 0.5)
    relabel = list(range(n))
    rng.shuffle(relabel)
    g = DiGraph(n)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                g.add_edge(relabel[i], relabel[j])
    return g


def sorted_tuples_to_text(g: DiGraph, names: dict[int, str] | None = None) -> str:
    """Oracle: the graph text emitted from one global sort of edge tuples."""
    lines = ["{", '  "edges": [']
    edges = sorted((u, v) for u in range(g.vertex_count) for v in g.out(u))
    for idx, (u, v) in enumerate(edges):
        comma = "," if idx < len(edges) - 1 else ""
        lines.append(f"    [{u}, {v}]{comma}")
    if names:
        lines.append("  ],")
        lines.append('  "names": {')
        items = sorted(names)
        for idx, v in enumerate(items):
            comma = "," if idx < len(items) - 1 else ""
            lines.append(f'    "{v}": {json.dumps(names[v])}{comma}')
        lines.append("  },")
    else:
        lines.append("  ],")
    lines.append(f'  "vertex_count": {g.vertex_count}')
    lines.append("}")
    return "\n".join(lines) + "\n"


def edge_list_kahn(g: DiGraph) -> list[int]:
    """Oracle: Kahn's sort driven by ``g.out()`` alone.

    Smallest ready index first; raises ``CycleFound`` with the vertices
    whose in-degree never dropped to 0.
    """
    in_degree = [0] * g.vertex_count
    for u in range(g.vertex_count):
        for v in g.out(u):
            in_degree[v] += 1
    ready = [v for v, d in enumerate(in_degree) if d == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        u = heapq.heappop(ready)
        order.append(u)
        for v in g.out(u):
            in_degree[v] -= 1
            if in_degree[v] == 0:
                heapq.heappush(ready, v)
    if len(order) != g.vertex_count:
        raise CycleFound(frozenset(v for v, d in enumerate(in_degree) if d > 0))
    return order


def random_multigraph(
    rng: random.Random, max_vertices: int, max_weight: int
) -> WeightedMultigraph:
    n = rng.randint(1, max_vertices)
    mg = WeightedMultigraph(n)
    edge_prob = rng.uniform(0.0, 0.6)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                mg.add_edge(i, j, rng.randint(1, max_weight))
    return mg


def seeded_multigraph(seed: int) -> WeightedMultigraph:
    """The seeded 300-vertex instance the local search's output is pinned on."""
    rng = random.Random(seed)
    mg = WeightedMultigraph(300)
    for _ in range(3000):
        u, v = rng.sample(range(300), 2)
        mg.add_edge(u, v, rng.randint(1, 5))
    return mg


def _signature(mg: WeightedMultigraph) -> tuple:
    return tuple(
        sorted(
            tuple(sorted(w for _, w in mg.incident(v)))
            for v in range(mg.vertex_count)
        )
    )


def _isomorphic(a: WeightedMultigraph, b: WeightedMultigraph) -> bool:
    b_edges = {(u, v): w for u, v, w in b.edges()}
    a_edges = a.edges()
    if a.vertex_count != b.vertex_count or len(a_edges) != len(b_edges):
        return False
    return any(
        all(
            b_edges.get((min(perm[u], perm[v]), max(perm[u], perm[v]))) == w
            for u, v, w in a_edges
        )
        for perm in itertools.permutations(range(a.vertex_count))
    )


def bucket_instances(max_vertices: int, max_total_weight: int) -> list[WeightedMultigraph]:
    """Oracle: the multigraph search's instances, deduplicated pairwise.

    Buckets candidates by a sorted incident-weight fingerprint and keeps
    the first one that no earlier member of its bucket maps onto under a
    vertex permutation.
    """
    kept = []
    for v in range(1, max_vertices + 1):
        pairs = list(itertools.combinations(range(v), 2))
        buckets: dict[tuple, list[WeightedMultigraph]] = {}
        for vector in _weight_vectors(len(pairs), max_total_weight):
            mg = WeightedMultigraph(v)
            for (a, b), w in zip(pairs, vector):
                if w > 0:
                    mg.add_edge(a, b, w)
            if v >= 2 and any(not mg.incident(x) for x in range(v)):
                continue
            bucket = buckets.setdefault(_signature(mg), [])
            if not any(_isomorphic(mg, other) for other in bucket):
                bucket.append(mg)
                kept.append(mg)
    return kept


def rescan_local_search(mg: WeightedMultigraph) -> tuple[int, tuple[int, ...]]:
    """Oracle: flip the smallest violated vertex, rescanning from 0 each time.

    Returns ``(flips, colors)``.  It recounts every vertex's incident
    weights after each flip and keeps no state between scans.
    """
    colors = [0] * mg.vertex_count
    flips = 0
    while True:
        for v in range(mg.vertex_count):
            balance = sum(w if colors[u] != colors[v] else -w for u, w in mg.incident(v))
            if balance < 0:
                colors[v] = 1 - colors[v]
                flips += 1
                break
        else:
            return flips, tuple(colors)


def gadget_internal_sort(g: DiGraph, handle) -> list[int]:
    """Oracle: a gadget's internal vertices in their own topological sort.

    The sort runs on the subgraph induced by the internal vertices (the
    gadget in isolation, terminals stripped) with the usual smallest-id
    tie-break, so it is independent of the rest of the graph.
    """
    internal = sorted(handle.internal)
    local = {v: i for i, v in enumerate(internal)}
    sub = DiGraph(len(internal))
    for w in internal:
        for t in g.out(w):
            if t in local:
                sub.add_edge(local[w], local[t])
    return [internal[local_id] for local_id in topological_sort(sub)]


def sorted_sigma_label(g: DiGraph, spec) -> dict[int, tuple[int, int, int]]:
    """Oracle: the σ-labeling with each gadget's positions from its own sort."""
    labels = {spec.path_vertex(i): (i, 0, 0) for i in range(1, spec.n + 1)}
    for (i, j), handle in spec.gadget_registry.items():
        for p, w in enumerate(gadget_internal_sort(g, handle)):
            labels[w] = (i - 1, j, p)
    return labels


def extension_rule_colorings(g, spec, anchor_colors=(0, 1)):
    """Majority 2-colorings of a truncation by the forced-extension rule.

    The oracle colors the path and the anchor in every way, fills the
    gadget internals with ``truncation_extension`` and keeps each coloring
    that ``verify`` accepts.  It shares no code with the search engine.
    """
    rule = truncation_extension(g, spec)
    found = []
    for anchor_color in anchor_colors:
        for combo in itertools.product((0, 1), repeat=len(spec.path)):
            assignment = dict(zip(spec.path, combo))
            assignment[spec.anchor] = anchor_color
            coloring = Coloring(2, rule(assignment))
            if verify(g, coloring).satisfied:
                found.append(coloring)
    return sorted(found, key=lambda c: c.colors)


@st.composite
def dags(draw, max_vertices: int = 10):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    relabel = draw(st.permutations(range(n)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    g = DiGraph(n)
    for i, j in chosen:
        g.add_edge(relabel[i], relabel[j])
    return g


@st.composite
def digraphs(draw, max_vertices: int = 10):
    """Arbitrary simple digraphs (cycles allowed)."""
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    g = DiGraph(n)
    for i, j in chosen:
        g.add_edge(i, j)
    return g


@st.composite
def multigraphs(draw, max_vertices: int = 8, max_weight: int = 5):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    weighted = draw(
        st.lists(
            st.tuples(st.sampled_from(pairs), st.integers(1, max_weight)),
            unique_by=lambda t: t[0],
            max_size=len(pairs),
        )
    ) if pairs else []
    mg = WeightedMultigraph(n)
    for (i, j), w in weighted:
        mg.add_edge(i, j, w)
    return mg
