"""Majority-coloring verification, greedy DAG 2-coloring, and enumeration.

A coloring is a majority coloring when every vertex has at least as many
bichromatic out-edges as monochromatic ones.  Every unweighted check in
the package counts those edges with one predicate, :func:`monochromatic`,
except the search engine, which counts inline in its hot loop and is
cross-checked against the brute-force oracle.  Both verifiers (this
module's and the weighted multigraph one) return the same
:class:`DeficiencyReport`.  This module provides the
verifier (the ground truth every other routine is checked against), the
folklore greedy 2-coloring of finite DAGs in reverse topological order,
an iterative backtracking enumerator of all majority k-colorings that
colors sinks first and prunes each vertex as soon as it is checkable, a
brute-force oracle that checks all k^V colorings at once on truth tables
and shares no code with that search, and the feasible-prefix experiment
over the counterexample truncations, which runs on the same enumerator.
The enumerator is the package's one search engine, with the single
signature ``enumerate_majority_colorings(g, palette_size, fixed=None)``;
the gadgets' forced-extension rule is not an enumeration mode, the tests
keep it as an independent oracle.
"""

from __future__ import annotations

import itertools
from operator import gt, sub
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import counterexample
from .errors import CycleFound, TooLarge
from .graph import Coloring, DiGraph, VertexId, topological_sort

#: Most vertex colors the enumerator stores over all its solutions before
#: it refuses with ``TooLarge``.  A cap on the solution count alone would
#: still let a wide graph exhaust memory.  The memory per stored color is
#: highest on one vertex: ``majority enumerate --colors 4194304`` on a
#: 1-vertex graph peaks at about 690 MB.
MAX_STORED_COLORS = 2**22


class DeficiencyReport(NamedTuple):
    """Mono and diff counts (or weights) per vertex, and the first violated vertex."""

    mono: tuple[int, ...]
    diff: tuple[int, ...]
    first_violation: int | None

    @property
    def satisfied(self) -> bool:
        return self.first_violation is None

    @classmethod
    def from_counts(cls, mono: Iterable[int], diff: Iterable[int]) -> DeficiencyReport:
        """The report over two count columns of equal length, in vertex order."""
        mono, diff = tuple(mono), tuple(diff)
        if len(mono) != len(diff):
            raise ValueError(f"{len(mono)} mono counts but {len(diff)} diff counts")
        first = next(itertools.compress(itertools.count(), map(gt, mono, diff)), None)
        return cls(mono, diff, first)


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
    adjacency = g.adjacency
    colors = itertools.repeat(coloring.colors)
    mono = tuple(map(monochromatic, colors, range(len(adjacency)), adjacency))
    return DeficiencyReport.from_counts(mono, map(sub, map(len, adjacency), mono))


def greedy_dag_2color(g: DiGraph) -> Coloring:
    """The folklore majority 2-coloring of a finite DAG.

    Vertices are processed in reverse topological order, so all
    out-neighbors are already colored; each vertex takes color 0 unless
    that leaves it violated, and color 1 otherwise (the smaller
    monochromatic count, ties going to color 0).  A cyclic graph raises
    ``CycleFound``, which names every vertex the sort could not place.
    """
    order = topological_sort(g)
    adjacency = g.adjacency
    colors = [0] * g.vertex_count
    for v in reversed(order):
        out = adjacency[v]
        if 2 * monochromatic(colors, v, out) > len(out):
            colors[v] = 1
    return Coloring(2, tuple(colors))


def enumerate_majority_colorings(
    g: DiGraph,
    palette_size: int,
    fixed: Mapping[VertexId, int] | None = None,
) -> list[Coloring]:
    """All majority colorings, in lexicographic order of their color tuples.

    ``fixed`` pins the color of some vertices; every other vertex ranges
    over the palette.  The search backtracks with an explicit stack of
    per-depth iterators over each vertex's colors, so its depth is not
    bounded by the interpreter's recursion limit: it descends on the first
    admissible color, records a solution at the last depth, and backs up
    when a depth's iterator runs out.  It assigns vertices in reverse
    topological order (id order when the graph has a cycle) and prunes a
    branch as soon as some vertex with all out-neighbors assigned fails
    the majority condition.  A vertex whose out-neighbors are all
    assigned before it (every vertex of a DAG) is checked on each
    candidate color before that color is stored; on a cycle, the check
    of a vertex with a later out-neighbor is deferred to that neighbor's
    depth and runs once its color is stored.  The solutions are sorted
    and wrapped without a second palette check.  Solutions that would
    hold more than ``MAX_STORED_COLORS`` vertex colors in all raise
    ``TooLarge`` rather than fill memory; so does, at once, a palette of
    more than ``MAX_STORED_COLORS`` colors with no vertex pinned.  The
    forced-extension rule of the OR gadgets is not consulted here: the
    tests keep it as an independent cross-check.
    """
    if palette_size < 1:
        raise ValueError("palette_size must be positive")
    n = g.vertex_count
    fixed = dict(fixed or {})
    for v, c in fixed.items():
        if not 0 <= v < n:
            raise ValueError(f"fixed vertex {v} out of range")
        if not 0 <= c < palette_size:
            raise ValueError(f"fixed color {c} for vertex {v} outside palette")
    if n == 0:
        return [Coloring(palette_size, ())]
    # With 4 or more colors every digraph has a majority coloring, and
    # renaming its colors gives palette_size distinct ones; so an unpinned
    # palette past the cap is refused exactly, before the palette is built.
    if not fixed and palette_size > MAX_STORED_COLORS:
        raise TooLarge(
            f"at least {palette_size} majority colorings of {n} vertices; "
            "enumeration refused"
        )
    # Vertex v is checked at the depth where the last of {v} + out(v) is
    # assigned; it passes while at most half its targets match it.  When
    # that last vertex is v itself, the check runs on each candidate color
    # before it is stored (targets_at, half_at); otherwise, only on a cycle,
    # it is deferred to that vertex and runs after its store (later).
    adjacency = g.adjacency
    try:
        order = topological_sort(g)[::-1]
    except CycleFound:  # id order: the depth of v is v
        order = list(range(n))
        targets_at: list[tuple[int, ...]] = [()] * n
        half_at = [0] * n
        later: list[Sequence[tuple[int, tuple[int, ...], int]]] = [[] for _ in range(n)]
        for v, out in enumerate(adjacency):
            if out:
                last = max(v, *out)
                if last == v:
                    targets_at[v], half_at[v] = tuple(out), len(out) // 2
                else:
                    later[last].append((v, tuple(out), len(out) // 2))
    else:
        # Sinks first: on a DAG out(v) is colored before v, so every check
        # is v's own and none is deferred.
        targets_at = [tuple(adjacency[v]) for v in order]
        half_at = [len(targets) // 2 for targets in targets_at]
        later = [()] * n
    palette = tuple(range(palette_size))
    choices = [(fixed[v],) if v in fixed else palette for v in order]
    colors = [-1] * n
    # tries[d] iterates over the colors still untried at depth d; the depths
    # 0..depth form the explicit search stack.
    tries = [iter(())] * n
    tries[0] = iter(choices[0])
    found: list[tuple[int, ...]] = []
    max_solutions = MAX_STORED_COLORS // n
    deepest = n - 1
    depth = 0
    while depth >= 0:
        v = order[depth]
        targets = targets_at[depth]
        half = half_at[depth]
        for c in tries[depth]:
            # monochromatic() inlined, on the candidate: this loop is the
            # engine's hot path.
            mono = 0
            for u in targets:
                if colors[u] == c:
                    mono += 1
            if mono > half:
                continue
            colors[v] = c
            for w, outs, h in later[depth]:
                cw = colors[w]
                mono = 0
                for u in outs:
                    if colors[u] == cw:
                        mono += 1
                if mono > h:
                    break
            else:
                if depth < deepest:
                    depth += 1
                    tries[depth] = iter(choices[depth])
                    break
                if len(found) == max_solutions:
                    raise TooLarge(
                        f"more than {max_solutions} majority colorings of {n} "
                        "vertices; enumeration refused"
                    )
                found.append(tuple(colors))
        else:
            depth -= 1
    found.sort()
    return Coloring._trusted(palette_size, found)


def brute_force_majority_colorings(g: DiGraph, palette_size: int) -> list[Coloring]:
    """Oracle: every total assignment, filtered by the majority condition.

    Exponential in the vertex count; meant for graphs small enough to
    exhaust.  It shares nothing with the search engine: no vertex order,
    no pruning, no :func:`monochromatic`.  Assignment ``a`` in
    ``range(k**V)`` gives vertex ``v`` its base-k digit ``V-1-v``, so
    counting up is lexicographic order and the solutions need no sort.
    All assignments are checked at once on truth tables: for each vertex
    ``v`` and color ``c`` a k^V-bit int marks the assignments that color
    ``v`` with ``c``, and each vertex keeps the assignments where at most
    half its out-neighbors match it.  The tables take k·V·k^V bits, about
    10 MB for 2 colors of G_4's 21 vertices.
    """
    if palette_size < 1:
        raise ValueError("palette_size must be positive")
    k, n = palette_size, g.vertex_count
    size = k**n
    full = (1 << size) - 1
    # has[v][c]: digit n-1-v of the assignment is c, in blocks of b = k^(n-1-v)
    # bits that repeat every k*b bits; doubling repeats the block cheaply.
    has = []
    for v in range(n):
        b = k ** (n - 1 - v)
        t, width = (1 << b) - 1, k * b
        while width < size:
            t |= t << width
            width *= 2
        has.append([(t << (c * b)) & full for c in range(k)])
    ok = full
    for v in range(n):
        out = g.out(v)
        half = len(out) // 2
        # at_most[j]: at most j of the out-neighbors so far share v's color.
        at_most = [full] * (half + 1)
        for u in out:
            same = 0
            for hv, hu in zip(has[v], has[u]):
                same |= hv & hu
            for j in range(half, 0, -1):
                at_most[j] = at_most[j] & ~same | at_most[j - 1] & same
            at_most[0] &= ~same
        ok &= at_most[half]
    # bits[a] is "1" iff assignment a survives; a splits into a head and a
    # tail of base-k digits, decoded from two small product tables.
    bits = bin(ok)[:1:-1]
    heads = list(itertools.product(range(k), repeat=n // 2))
    tails = list(itertools.product(range(k), repeat=n - n // 2))
    found = []
    a = bits.find("1")
    while a >= 0:
        h, t = divmod(a, len(tails))
        found.append(heads[h] + tails[t])
        a = bits.find("1", a + 1)
    return Coloring._trusted(k, found)


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
    g, spec = counterexample.build_truncation(n)
    solutions = enumerate_majority_colorings(g, 2, fixed={spec.anchor: 0})
    prefix = spec.path[:m]
    # With the anchor at color 0, a vertex is true exactly when it has color 0.
    return {tuple(c.colors[v] == 0 for v in prefix) for c in solutions}
