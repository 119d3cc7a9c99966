"""Finite truncations of the non-2-colorable DAG and their acyclicity labels.

The full construction is an infinite directed path v_1, v_2, ... together
with an anchor vertex T and, for every 2 <= i < j, a chained OR gadget
over inputs (v_i, ..., v_j) whose output receives a hookup edge from
v_{i-1}.  The depth-n truncation G_n keeps the path v_1..v_n, the anchor,
and exactly the gadgets with j <= n.

The vertex layout is deterministic: path vertices take ids 0..n-1
(v_i -> i-1), the anchor takes id n, and gadget vertices follow in
lexicographic (i, j) registry order, stages left to right, each stage in
(neg_left, neg_right, neg_anchor, collector) order.  Serialized
truncations are therefore byte-identical across runs.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple

from .errors import TooLarge
from .gadgets import GadgetHandle, build_or_chain, forced_extension, stage_names
from .graph import MAX_VERTICES, DiGraph, VertexId

SigmaLabeling = dict[VertexId, tuple[int, int, int]]


class TruncationSpec(NamedTuple):
    """Layout of a built truncation: path ids, anchor id, gadget registry."""

    n: int
    path: tuple[VertexId, ...]
    anchor: VertexId
    gadget_registry: dict[tuple[int, int], GadgetHandle]

    def path_vertex(self, i: int) -> VertexId:
        """Id of v_i (1-based path position)."""
        if not 1 <= i <= self.n:
            raise ValueError(f"path position {i} outside 1..{self.n}")
        return self.path[i - 1]


class SigmaCheckResult(NamedTuple):
    ok: bool
    first_violation: tuple[VertexId, VertexId] | None


def check_truncation_size(n: int) -> None:
    """Raise ``TooLarge`` if G_n, for n >= 2, would pass ``MAX_VERTICES``."""
    size = n + 1 + 4 * math.comb(n, 3)
    if size > MAX_VERTICES:
        raise TooLarge(f"G_{n} would have {size} vertices, past the cap {MAX_VERTICES}")


def build_truncation(n: int) -> tuple[DiGraph, TruncationSpec]:
    """Build G_n for n >= 2; it has n + 1 + 4 C(n, 3) vertices."""
    if n < 2:
        raise ValueError("truncation depth must be at least 2")
    check_truncation_size(n)
    g = DiGraph(n + 1)  # path ids 0..n-1, anchor id n
    anchor = n
    for m in range(n - 1):
        g.add_edge(m, m + 1)
    registry: dict[tuple[int, int], GadgetHandle] = {}
    for i in range(2, n):
        for j in range(i + 1, n + 1):
            handle = build_or_chain(g, anchor, tuple(range(i - 1, j)))
            g.add_edge(i - 2, handle.output)  # hookup from v_{i-1}
            registry[(i, j)] = handle
    return g, TruncationSpec(n=n, path=tuple(range(n)), anchor=anchor,
                             gadget_registry=registry)


def truncation_extension(g: DiGraph, spec: TruncationSpec):
    """The forced-extension rule of the test suite's enumeration oracle.

    Maps an assignment of the path vertices and the anchor to the total
    assignment in which every gadget's internals carry their forced truth
    values.  The oracle enumerates path and anchor colorings, extends each
    with this rule and keeps those ``verify`` accepts; the search engine
    never calls it, which keeps the cross-check independent.
    """

    def rule(assignment: Mapping[int, int]) -> list[int]:
        colors = [-1] * g.vertex_count
        anchor_color = assignment[spec.anchor]
        for v, c in assignment.items():
            colors[v] = c
        for key in sorted(spec.gadget_registry):
            handle = spec.gadget_registry[key]
            input_truths = [colors[u] == anchor_color for u in handle.inputs]
            for vid, truth in forced_extension(handle, input_truths).items():
                colors[vid] = anchor_color if truth else 1 - anchor_color
        return colors

    return rule


def sigma_label(g: DiGraph, spec: TruncationSpec) -> SigmaLabeling:
    """The triplet labeling certifying acyclicity, in tuple (lexicographic) order.

    Path vertex v_i gets (i, 0, 0); an internal vertex w of the (i, j)
    gadget gets (i-1, j, p) where p is w's position in the stage order
    ``GadgetHandle.internal_order``, a topological order of the gadget's
    internals.  The anchor carries no label.  ``verify_sigma`` checks the
    result edge by edge, without trusting that order.
    """
    labels: SigmaLabeling = {}
    for i in range(1, spec.n + 1):
        labels[spec.path_vertex(i)] = (i, 0, 0)
    for (i, j), handle in spec.gadget_registry.items():
        for p, w in enumerate(handle.internal_order):
            labels[w] = (i - 1, j, p)
    return labels


def verify_sigma(
    g: DiGraph, spec: TruncationSpec, labels: SigmaLabeling
) -> SigmaCheckResult:
    """Check that labels strictly increase along every non-anchor edge.

    Edges into the anchor only require a labeled source.  The first
    violating edge in (source, target) lexicographic order is reported.
    """
    for v in range(g.vertex_count):
        if v != spec.anchor and v not in labels:
            raise ValueError(f"labeling is not total: vertex {v} has no label")
    for u, v in g.sorted_edges():
        if u == spec.anchor:
            return SigmaCheckResult(False, (u, v))
        if v == spec.anchor:
            continue  # source label existence already established
        if not labels[u] < labels[v]:
            return SigmaCheckResult(False, (u, v))
    return SigmaCheckResult(True, None)


def truncation_names(spec: TruncationSpec) -> dict[VertexId, str]:
    """Side name map: v1..vn, T, and per-gadget stage roles."""
    names: dict[int, str] = {}
    for i in range(1, spec.n + 1):
        names[spec.path_vertex(i)] = f"v{i}"
    names[spec.anchor] = "T"
    for (i, j), handle in spec.gadget_registry.items():
        names.update(stage_names(handle, prefix=f"or{i}_{j}."))
    return names
