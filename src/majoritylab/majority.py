"""Majority-coloring verification, greedy DAG 2-coloring, and enumeration.

A coloring is a majority coloring when every vertex has at least as many
bichromatic out-edges as monochromatic ones.  Every unweighted check in
the package counts those edges with one predicate, :func:`monochromatic`,
and both verifiers (this module's and the weighted multigraph one) return
the same :class:`DeficiencyReport`.  This module provides the
verifier (the ground truth every other routine is checked against), the
folklore greedy 2-coloring of finite DAGs in reverse topological order,
an iterative backtracking enumerator of all majority k-colorings that
colors sinks first and prunes each vertex as soon as it is checkable, a
deliberately naive brute-force oracle, and the feasible-prefix experiment
over the counterexample truncations, which runs on the same enumerator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import CycleFound, ExtensionConflict, NotADag, NotUnique
from .graph import Coloring, DiGraph, VertexId, topological_sort

ExtensionRule = Callable[[Mapping[int, int]], Sequence[int]]


class VertexCheck(NamedTuple):
    mono_count: int
    diff_count: int
    satisfied: bool


@dataclass(frozen=True)
class DeficiencyReport:
    """Per-vertex monochromatic/bichromatic out-edge counts (or weights)."""

    checks: tuple[VertexCheck, ...]
    satisfied: bool
    first_violation: int | None

    @classmethod
    def from_counts(cls, counts: Iterable[tuple[int, int]]) -> "DeficiencyReport":
        """The report over per-vertex ``(mono, diff)`` pairs in vertex order."""
        checks = tuple(VertexCheck(mono, diff, mono <= diff) for mono, diff in counts)
        first = next((v for v, c in enumerate(checks) if not c.satisfied), None)
        return cls(checks, first is None, first)


@dataclass(frozen=True)
class TruthView:
    """Reads a 2-coloring as booleans relative to an anchor vertex.

    A vertex is *true* exactly when it shares the anchor's color.
    """

    anchor: VertexId
    coloring: Coloring

    def __post_init__(self) -> None:
        if self.coloring.palette_size != 2:
            raise ValueError("truth semantics require palette size 2")

    def truth(self, v: VertexId) -> bool:
        return self.coloring.colors[v] == self.coloring.colors[self.anchor]

    def truths(self, vertices: Iterable[VertexId]) -> tuple[bool, ...]:
        return tuple(self.truth(v) for v in vertices)


def monochromatic(
    colors: Sequence[int], v: VertexId, targets: Iterable[VertexId]
) -> int:
    """How many of ``targets`` share ``v``'s color.

    With ``targets`` the out-neighbors of ``v``, ``v`` meets the majority
    condition iff twice this count is at most ``len(targets)``.
    """
    cv = colors[v]
    mono = 0
    for u in targets:
        if colors[u] == cv:
            mono += 1
    return mono


def verify(g: DiGraph, coloring: Coloring) -> DeficiencyReport:
    """Check the majority condition at every vertex.

    Out-degree-0 vertices are unconstrained (0 >= 0).  ``first_violation``
    is the smallest-index violating vertex, if any.
    """
    if len(coloring.colors) != g.vertex_count:
        raise ValueError(
            f"coloring covers {len(coloring.colors)} vertices, "
            f"graph has {g.vertex_count}"
        )
    colors = coloring.colors
    counts: list[tuple[int, int]] = []
    for v in range(g.vertex_count):
        out = g.out(v)
        mono = monochromatic(colors, v, out)
        counts.append((mono, len(out) - mono))
    return DeficiencyReport.from_counts(counts)


def greedy_dag_2color(g: DiGraph) -> Coloring:
    """The folklore majority 2-coloring of a finite DAG.

    Vertices are processed in reverse topological order, so all
    out-neighbors are already colored; each vertex takes color 0 unless
    that leaves it violated, and color 1 otherwise (the smaller
    monochromatic count, ties going to color 0).
    """
    try:
        order = topological_sort(g)
    except CycleFound as e:
        raise NotADag(f"greedy 2-coloring needs a DAG: {e}") from e
    colors = [0] * g.vertex_count
    for v in reversed(order):
        out = g.out(v)
        if 2 * monochromatic(colors, v, out) > len(out):
            colors[v] = 1
    return Coloring(2, tuple(colors))


def project(coloring: Coloring, vertices: Sequence[VertexId]) -> tuple[int, ...]:
    """The coloring restricted to ``vertices``, as a plain tuple."""
    return tuple(coloring.colors[v] for v in vertices)


def _normalize_free(
    g: DiGraph,
    free: Iterable[VertexId] | None,
    fixed: Mapping[VertexId, int] | None,
) -> tuple[list[int], dict[int, int]]:
    fixed = dict(fixed or {})
    if free is None:
        free_list = [v for v in range(g.vertex_count) if v not in fixed]
    else:
        free_list = sorted(set(free))
    for v in free_list:
        if not 0 <= v < g.vertex_count:
            raise ValueError(f"free vertex {v} out of range")
        if v in fixed:
            raise ValueError(f"vertex {v} is both free and fixed")
    for v in fixed:
        if not 0 <= v < g.vertex_count:
            raise ValueError(f"fixed vertex {v} out of range")
    return free_list, fixed


def enumerate_majority_colorings(
    g: DiGraph,
    palette_size: int,
    free: Iterable[VertexId] | None = None,
    extend: ExtensionRule | None = None,
    fixed: Mapping[VertexId, int] | None = None,
) -> list[Coloring]:
    """All majority colorings, ordered lexicographically over the free vertices.

    Without an extension rule, ``free`` plus ``fixed`` must cover every
    vertex.  The search backtracks with an explicit stack, so its depth is
    not bounded by the interpreter's recursion limit.  It assigns vertices
    in reverse topological order (id order when the graph has a cycle) and
    prunes a branch as soon as some vertex with all out-neighbors assigned
    fails the majority condition; the solutions are then sorted.

    With an extension rule, only the free and fixed vertices are assigned
    explicitly; the rule maps each such assignment to a total assignment
    (gadget internals forced), which is kept iff it passes :func:`verify`.
    A rule that reports non-uniqueness surfaces as ExtensionConflict.
    """
    if palette_size < 1:
        raise ValueError("palette_size must be positive")
    free_list, fixed_map = _normalize_free(g, free, fixed)
    if extend is None:
        if len(free_list) + len(fixed_map) != g.vertex_count:
            raise ValueError(
                "without an extension rule, free plus fixed must cover all vertices"
            )
        return _enumerate_search(g, palette_size, fixed_map)
    return _enumerate_with_extension(g, palette_size, free_list, fixed_map, extend)


def _enumerate_search(
    g: DiGraph, k: int, fixed_map: dict[int, int]
) -> list[Coloring]:
    for v, c in fixed_map.items():
        if not 0 <= c < k:
            raise ValueError(f"fixed color {c} for vertex {v} outside palette")
    n = g.vertex_count
    # Sinks first: on a DAG every vertex is checkable the moment it is
    # colored, so a violation prunes at once.  A cycle leaves id order.
    try:
        order = topological_sort(g)[::-1]
    except CycleFound:
        order = list(range(n))
    depth_of = [0] * n
    for depth, v in enumerate(order):
        depth_of[v] = depth
    # Vertex v becomes checkable at the depth where the last of {v} + out(v)
    # is assigned.
    checks_at: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(n)]
    for v in range(n):
        targets = tuple(g.out(v))
        if targets:
            last = max(depth_of[v], max(depth_of[u] for u in targets))
            checks_at[last].append((v, targets))
    palette = tuple(range(k))
    choices = [(fixed_map[v],) if v in fixed_map else palette for v in order]
    colors = [-1] * n
    # next_choice[d] is the index of the next color to try at depth d; the
    # depths 0..depth form the explicit search stack.
    next_choice = [0] * n
    found: list[tuple[int, ...]] = []
    depth = 0
    while depth >= 0:
        if depth == n:
            found.append(tuple(colors))
            depth -= 1
            continue
        options = choices[depth]
        i = next_choice[depth]
        if i == len(options):
            next_choice[depth] = 0
            depth -= 1
            continue
        next_choice[depth] = i + 1
        colors[order[depth]] = options[i]
        for w, targets in checks_at[depth]:
            if 2 * monochromatic(colors, w, targets) > len(targets):
                break
        else:
            depth += 1
    found.sort()
    return [Coloring(k, row) for row in found]


def _enumerate_with_extension(
    g: DiGraph,
    k: int,
    free_list: list[int],
    fixed_map: dict[int, int],
    extend: ExtensionRule,
) -> list[Coloring]:
    results: list[Coloring] = []
    for combo in itertools.product(range(k), repeat=len(free_list)):
        assignment = dict(zip(free_list, combo))
        assignment.update(fixed_map)
        try:
            full = extend(assignment)
        except NotUnique as e:
            raise ExtensionConflict(f"extension rule reported non-uniqueness: {e}") from e
        if len(full) != g.vertex_count:
            raise ExtensionConflict(
                f"extension returned {len(full)} colors for {g.vertex_count} vertices"
            )
        candidate = Coloring(k, tuple(full))
        if verify(g, candidate).satisfied:
            results.append(candidate)
    return results


def brute_force_majority_colorings(g: DiGraph, palette_size: int) -> list[Coloring]:
    """Oracle: every total assignment, filtered by the verifier.

    Exponential in the vertex count; meant for graphs small enough to
    exhaust.  The 2-color path counts monochromatic out-edges with
    bitmask popcounts but still visits all 2^V assignments.
    """
    if palette_size == 2:
        return _brute_force_two_colors(g)
    results = []
    for combo in itertools.product(range(palette_size), repeat=g.vertex_count):
        candidate = Coloring(palette_size, combo)
        if verify(g, candidate).satisfied:
            results.append(candidate)
    return results


def _brute_force_two_colors(g: DiGraph) -> list[Coloring]:
    n = g.vertex_count
    masks = []
    for v in range(n):
        m = 0
        for u in g.out(v):
            m |= 1 << u
        masks.append((v, m, g.out_degree(v)))
    masks = [(v, m, d) for v, m, d in masks if d > 0]
    found: list[int] = []
    for assignment in range(1 << n):
        ok = True
        for v, m, d in masks:
            ones = (assignment & m).bit_count()
            mono = ones if (assignment >> v) & 1 else d - ones
            if 2 * mono > d:
                ok = False
                break
        if ok:
            found.append(assignment)
    results = [
        Coloring(2, tuple((a >> v) & 1 for v in range(n))) for a in found
    ]
    results.sort(key=lambda c: c.colors)
    return results


def feasible_prefix_set(n: int, m: int) -> set[tuple[bool, ...]]:
    """Truth patterns on the first ``m`` path vertices realizable in G_n.

    Enumerates every majority 2-coloring of the depth-``n`` truncation with
    the anchor's color pinned to 0 (color-swap symmetry makes this
    lossless), then projects the solutions onto path positions 1..m.  The
    search colors sinks first, so each gadget's internals are forced by
    the search itself as soon as their out-neighbors are colored.
    """
    if n < 2:
        raise ValueError("truncation depth must be at least 2")
    if not 1 <= m <= n:
        raise ValueError("prefix length must satisfy 1 <= m <= n")
    from .counterexample import build_truncation

    g, spec = build_truncation(n)
    solutions = enumerate_majority_colorings(g, 2, fixed={spec.anchor: 0})
    return {
        TruthView(spec.anchor, c).truths(spec.path[:m]) for c in solutions
    }
