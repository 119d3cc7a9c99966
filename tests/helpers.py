"""Shared generators for seeded and property-based graph tests."""

from __future__ import annotations

import itertools
import random

from hypothesis import strategies as st

from majoritylab.counterexample import truncation_extension
from majoritylab.graph import Coloring, DiGraph
from majoritylab.majority import verify
from majoritylab.multigraph import WeightedMultigraph


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
