"""Simple directed graphs with dense integer vertex ids.

Vertices are numbered 0..V-1 and only out-adjacency is stored: every
algorithm in this package is driven by out-edges.  A graph is mutable
while a builder assembles it and is treated as read-only afterwards;
read-only graphs can be shared freely between workers.

The module also provides the two-way text serialization (a small JSON
document, byte-deterministic on output), a DOT emitter for
visualization, and the deterministic Kahn topological sort used for
reproducible labelings.
"""

from __future__ import annotations

import heapq
import json
import re
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from .errors import (
    CycleFound,
    DuplicateEdgeError,
    OutOfRangeError,
    ParseError,
    PaletteMismatch,
    SelfLoopError,
)

VertexId = int


class TripletLabel(NamedTuple):
    """A label in N^3; tuple comparison gives the strict lexicographic order."""

    i: int
    j: int
    k: int


class DiGraph:
    """Finite simple digraph: no self-loops, no repeated directed edges.

    Anti-parallel pairs (u, v) and (v, u) are two distinct edges and are
    both allowed.
    """

    __slots__ = ("_out",)

    def __init__(self, vertex_count: int = 0) -> None:
        if vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        self._out: list[list[int]] = [[] for _ in range(vertex_count)]

    @property
    def vertex_count(self) -> int:
        return len(self._out)

    @property
    def edge_count(self) -> int:
        return sum(len(out) for out in self._out)

    def add_vertex(self) -> VertexId:
        """Append a fresh vertex and return its id (= previous vertex count)."""
        self._out.append([])
        return len(self._out) - 1

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < len(self._out):
            raise OutOfRangeError(
                f"vertex {v} out of range (vertex_count {len(self._out)})"
            )

    def add_edge(self, u: VertexId, v: VertexId) -> None:
        """Add the directed edge u -> v, rejecting anything non-simple."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise SelfLoopError(f"self-loop ({u}, {u}) rejected")
        if v in self._out[u]:
            raise DuplicateEdgeError(f"edge ({u}, {v}) already present")
        self._out[u].append(v)

    def has_edge(self, u: VertexId, v: VertexId) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._out[u]

    def out(self, v: VertexId) -> Sequence[VertexId]:
        """Out-neighbors of ``v``.  The returned list must not be mutated."""
        self._check_vertex(v)
        return self._out[v]

    def out_degree(self, v: VertexId) -> int:
        self._check_vertex(v)
        return len(self._out[v])

    def edges(self) -> Iterator[tuple[VertexId, VertexId]]:
        """All edges in (source, then insertion) order."""
        for u, targets in enumerate(self._out):
            for v in targets:
                yield u, v

    def sorted_edges(self) -> list[tuple[VertexId, VertexId]]:
        """All edges sorted lexicographically."""
        return sorted(self.edges())

    def __eq__(self, other: object) -> bool:
        # Structural equality: adjacency order is representational only.
        if not isinstance(other, DiGraph):
            return NotImplemented
        if self.vertex_count != other.vertex_count:
            return False
        return all(
            sorted(a) == sorted(b) for a, b in zip(self._out, other._out)
        )

    def __repr__(self) -> str:
        return f"DiGraph(vertices={self.vertex_count}, edges={self.edge_count})"


@dataclass(frozen=True)
class Coloring:
    """A total vertex -> color assignment over a palette 0..palette_size-1."""

    palette_size: int
    colors: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "colors", tuple(self.colors))
        if self.palette_size < 1:
            raise ValueError("palette_size must be positive")
        for v, c in enumerate(self.colors):
            if not 0 <= c < self.palette_size:
                raise PaletteMismatch(
                    f"vertex {v} has color {c}, palette size is {self.palette_size}"
                )

    def __len__(self) -> int:
        return len(self.colors)

    def __getitem__(self, v: int) -> int:
        return self.colors[v]

    def swapped(self) -> "Coloring":
        """The color-swapped counterpart of a 2-coloring."""
        if self.palette_size != 2:
            raise ValueError("swapped() is defined for palette size 2 only")
        return Coloring(2, tuple(1 - c for c in self.colors))


def topological_sort(g: DiGraph) -> list[VertexId]:
    """Kahn's algorithm with a smallest-index tie-break among ready vertices.

    Returns an order in which every edge goes from earlier to later.
    Raises CycleFound with the set of vertices left on a residual cycle.
    """
    in_degree = [0] * g.vertex_count
    for _, v in g.edges():
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
        remaining = frozenset(v for v, d in enumerate(in_degree) if d > 0)
        raise CycleFound(remaining)
    return order


# --- text serialization -------------------------------------------------
#
# Schema: a JSON object with fields
#   vertex_count: int
#   edges:        list of [u, v] pairs, sorted lexicographically on output
#   names:        optional map "id" -> string
# UTF-8, "\n" newlines, sorted keys: output is byte-deterministic.


def to_text(g: DiGraph, names: dict[int, str] | None = None) -> str:
    # Hand-rolled emission so each edge occupies one line (diff-friendly);
    # the output is ordinary JSON.
    lines = ["{", '  "edges": [']
    edges = g.sorted_edges()
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


def from_text(text: str) -> DiGraph:
    return from_text_with_names(text)[0]


def _is_int(x: object) -> bool:
    # JSON true/false load as bool, which is a subclass of int.
    return isinstance(x, int) and not isinstance(x, bool)


def from_text_with_names(text: str) -> tuple[DiGraph, dict[int, str] | None]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from e
    except RecursionError:
        raise ParseError("document nested too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    unknown = set(doc) - {"vertex_count", "edges", "names"}
    if unknown:
        raise ParseError(f"unknown fields: {sorted(unknown)}")
    if "vertex_count" not in doc or "edges" not in doc:
        raise ParseError("fields 'vertex_count' and 'edges' are required")
    vertex_count = doc["vertex_count"]
    if not _is_int(vertex_count) or vertex_count < 0:
        raise ParseError("field 'vertex_count': expected a non-negative integer")
    if not isinstance(doc["edges"], list):
        raise ParseError("field 'edges': expected a list of [u, v] pairs")
    g = DiGraph(vertex_count)
    for idx, pair in enumerate(doc["edges"]):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(_is_int(x) for x in pair)
        ):
            raise ParseError(f"edges[{idx}]: expected an [u, v] integer pair")
        try:
            g.add_edge(pair[0], pair[1])
        except (SelfLoopError, DuplicateEdgeError, OutOfRangeError) as e:
            raise ParseError(f"edges[{idx}]: {e}") from e
    names: dict[int, str] | None = None
    if "names" in doc:
        raw = doc["names"]
        if not isinstance(raw, dict):
            raise ParseError("field 'names': expected a map id -> string")
        names = {}
        for key, value in raw.items():
            try:
                vid = int(key)
            except ValueError:
                raise ParseError(f"names: key {key!r} is not an integer id") from None
            if not 0 <= vid < vertex_count:
                raise ParseError(f"names: vertex {vid} out of range")
            if not isinstance(value, str):
                raise ParseError(f"names[{key}]: expected a string")
            names[vid] = value
    return g, names


# --- DOT emission -------------------------------------------------------

_DOT_NODE_RE = re.compile(r'^(\d+)(?:\s+\[label="((?:[^"\\]|\\.)*)"\])?;$')
_DOT_EDGE_RE = re.compile(r"^(\d+) -> (\d+);$")


def _dot_escape(label: str) -> str:
    return label.replace("\\", "\\\\").replace('"', '\\"')


def _dot_unescape(label: str) -> str:
    return label.replace('\\"', '"').replace("\\\\", "\\")


def to_dot(g: DiGraph, names: dict[int, str] | None = None) -> str:
    """DOT rendering: one line per vertex, then one line per edge."""
    lines = ["digraph {"]
    for v in range(g.vertex_count):
        if names and v in names:
            lines.append(f'  {v} [label="{_dot_escape(names[v])}"];')
        else:
            lines.append(f"  {v};")
    for u, v in g.sorted_edges():
        lines.append(f"  {u} -> {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def from_dot(text: str) -> tuple[DiGraph, dict[int, str] | None]:
    """Parse the DOT subset emitted by :func:`to_dot` (round-trip support)."""
    body = [line.strip() for line in text.splitlines() if line.strip()]
    if not body or body[0] != "digraph {" or body[-1] != "}":
        raise ParseError("expected a 'digraph { ... }' document")
    vertices: list[int] = []
    names: dict[int, str] = {}
    edges: list[tuple[int, int]] = []
    for lineno, line in enumerate(body[1:-1], 2):
        node = _DOT_NODE_RE.match(line)
        if node:
            vid = int(node.group(1))
            vertices.append(vid)
            if node.group(2) is not None:
                names[vid] = _dot_unescape(node.group(2))
            continue
        edge = _DOT_EDGE_RE.match(line)
        if edge:
            edges.append((int(edge.group(1)), int(edge.group(2))))
            continue
        raise ParseError(f"line {lineno}: unrecognized statement {line!r}")
    if sorted(vertices) != list(range(len(vertices))):
        raise ParseError("vertex statements must cover ids 0..V-1 exactly once")
    g = DiGraph(len(vertices))
    for idx, (u, v) in enumerate(edges):
        try:
            g.add_edge(u, v)
        except (SelfLoopError, DuplicateEdgeError, OutOfRangeError) as e:
            raise ParseError(f"edge {idx} ({u} -> {v}): {e}") from e
    return g, names or None
