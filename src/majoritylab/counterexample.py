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
truncations are therefore byte-identical across runs.  G_n is laid out
in that order and appended in one batch.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple

from .errors import TooLarge
from .gadgets import GadgetHandle, _lay_out_chain, forced_extension, stage_names
from .graph import MAX_VERTICES, DiGraph, VertexId

SigmaLabeling = dict[VertexId, tuple[int, int, int]]


class TruncationSpec(NamedTuple):
    """A built truncation's depth and gadget registry; the ids follow from n."""

    n: int
    gadget_registry: dict[tuple[int, int], GadgetHandle]

    @property
    def path(self) -> tuple[VertexId, ...]:
        return tuple(range(self.n))

    @property
    def anchor(self) -> VertexId:
        return self.n

    def path_vertex(self, i: int) -> VertexId:
        """Id of v_i (1-based path position)."""
        if not 1 <= i <= self.n:
            raise ValueError(f"path position {i} outside 1..{self.n}")
        return i - 1


class SigmaCheckResult(NamedTuple):
    """The first edge the σ-labeling fails on, or ``None``."""

    first_violation: tuple[VertexId, VertexId] | None

    @property
    def ok(self) -> bool:
        return self.first_violation is None


def check_truncation_size(n: int) -> None:
    """Raise ``TooLarge`` if G_n, for n >= 2, would pass ``MAX_VERTICES``."""
    size = n + 1 + 4 * math.comb(n, 3)
    if size > MAX_VERTICES:
        raise TooLarge(f"G_{n} would have {size} vertices, past the cap {MAX_VERTICES}")


def build_truncation(n: int) -> tuple[DiGraph, TruncationSpec]:
    """Build G_n for n >= 2; it has n + 1 + 4 C(n, 3) vertices.

    After the depth and size checks every out-list is laid out in id order
    and appended in one unchecked batch: each window's inputs are distinct
    path ids below the anchor, and no list repeats a target.
    """
    if n < 2:
        raise ValueError("truncation depth must be at least 2")
    check_truncation_size(n)
    anchor = n
    # Path ids 0..n-2 point at their successor; v_n and the anchor are sinks.
    out_lists: list[list[VertexId]] = [[v + 1] for v in range(n - 1)]
    out_lists += ([], [])
    registry: dict[tuple[int, int], GadgetHandle] = {}
    for i in range(2, n):
        hookups = out_lists[i - 2]  # v_{i-1}'s list
        for j in range(i + 1, n + 1):
            first = len(out_lists)
            inputs = tuple(range(i - 1, j))
            _lay_out_chain(out_lists, anchor, inputs, first)
            hookups.append(len(out_lists) - 1)  # the chain's output
            registry[(i, j)] = GadgetHandle(anchor, inputs, first)
    g = DiGraph()
    g._append_simple(out_lists)
    return g, TruncationSpec(n, registry)


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
    for i, v in enumerate(spec.path, 1):
        labels[v] = (i, 0, 0)
    for (i, j), handle in spec.gadget_registry.items():
        for p, w in enumerate(handle.internal_order):
            labels[w] = (i - 1, j, p)
    return labels


def verify_sigma(
    g: DiGraph, spec: TruncationSpec, labels: SigmaLabeling
) -> SigmaCheckResult:
    """Check that labels strictly increase along every non-anchor edge.

    Edges into the anchor only require a labeled source; an edge out of
    it always fails.  The first violating edge in (source, target)
    lexicographic order is reported: the first failing source in one
    pass over the out-lists, and its smallest failing target.
    """
    anchor = spec.anchor
    for v in range(g.vertex_count):
        if v != anchor and v not in labels:
            raise ValueError(f"labeling is not total: vertex {v} has no label")
    for u, targets in enumerate(g.adjacency):
        if u == anchor:
            if targets:
                return SigmaCheckResult((u, min(targets)))
            continue
        low = labels[u]
        for v in targets:
            if v != anchor and not low < labels[v]:
                bad = min(t for t in targets if t != anchor and not low < labels[t])
                return SigmaCheckResult((u, bad))
    return SigmaCheckResult(None)


def truncation_names(spec: TruncationSpec) -> dict[VertexId, str]:
    """Side name map: v1..vn, T, and per-gadget stage roles."""
    names: dict[int, str] = {}
    for i, v in enumerate(spec.path, 1):
        names[v] = f"v{i}"
    names[spec.anchor] = "T"
    for (i, j), handle in spec.gadget_registry.items():
        names.update(stage_names(handle, prefix=f"or{i}_{j}."))
    return names
