"""Simple directed graphs with dense integer vertex ids.

Vertices are numbered 0..V-1 and only out-adjacency is stored: every
algorithm in this package is driven by out-edges.  A graph is mutable
while a builder assembles it and is treated as read-only afterwards.

The module also provides the two-way text serialization (a small JSON
document, byte-deterministic on output), a DOT emitter for
visualization, and the deterministic Kahn topological sort whose
smallest-index tie-break sets the search engine's vertex order.
"""

from __future__ import annotations

import heapq
import json
import re
from collections import Counter
from itertools import islice, repeat
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import CycleFound, ParseError

VertexId = int

#: Largest vertex count a parsed file may declare; the adjacency lists of a
#: graph this size take about 64 MB.  Edge memory needs no cap: it grows
#: with the size of the file itself.
MAX_VERTICES = 1_000_000

#: Out-list length from which :meth:`DiGraph.add_edge` looks duplicates up
#: in a set of the source's targets instead of scanning the list.
_SCAN_LIMIT = 32


class DiGraph:
    """Finite simple digraph: no self-loops, no repeated directed edges.

    Anti-parallel pairs (u, v) and (v, u) are two distinct edges and are
    both allowed.  Each out-list is kept in insertion order; once a list
    holds 32 targets, a set of them, built on first need, is indexed by
    its source, so :meth:`add_edge` is linear in out-degree.  The graph
    also keeps the order :func:`topological_sort` last computed for it;
    adding a vertex or an edge drops that order.
    """

    __slots__ = ("_out", "_long", "_order")

    def __init__(self, vertex_count: int = 0) -> None:
        if vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        self._out: list[list[int]] = [[] for _ in range(vertex_count)]
        # Source -> set of its targets, for out-lists of _SCAN_LIMIT or
        # more.  Only add_edge appends to such a list.
        self._long: dict[int, set[int]] = {}
        # The topological order, once topological_sort has found one.
        self._order: list[int] | None = None

    @property
    def vertex_count(self) -> int:
        return len(self._out)

    @property
    def edge_count(self) -> int:
        return sum(len(out) for out in self._out)

    @property
    def adjacency(self) -> Sequence[Sequence[VertexId]]:
        """Every vertex's out-neighbors, indexed by id.  Must not be mutated.

        For loops over all vertices: unlike :meth:`out`, it checks no id.
        """
        return self._out

    def add_vertex(self) -> VertexId:
        """Append a fresh vertex and return its id (= previous vertex count)."""
        self._out.append([])
        self._order = None
        return len(self._out) - 1

    def _append_simple(self, out_lists: list[list[VertexId]]) -> None:
        """Append one fresh vertex per out-list, unchecked; drop the stored order.

        The graph stays simple only if every target is a vertex once the
        whole batch is in (G_n's path lists point at later lists), and no
        list repeats a target or holds its own vertex, as in the two
        callers, :func:`gadgets.build_or_chain` and
        :func:`counterexample.build_truncation`.  The graph keeps the
        lists themselves, not copies, and an empty graph keeps the outer
        list too, so G_n's layout is not held twice.
        """
        if self._out:
            self._out += out_lists
        else:
            self._out = out_lists
        self._order = None

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < len(self._out):
            raise ValueError(
                f"vertex {v} out of range (vertex_count {len(self._out)})"
            )

    def add_edge(self, u: VertexId, v: VertexId) -> None:
        """Add the directed edge u -> v, rejecting anything non-simple."""
        n = len(self._out)
        if not (0 <= u < n and 0 <= v < n):
            self._check_vertex(u)
            self._check_vertex(v)
        if u == v:
            raise ValueError(f"self-loop ({u}, {u}) rejected")
        targets = self._out[u]
        if len(targets) < _SCAN_LIMIT:
            if v in targets:
                raise ValueError(f"edge ({u}, {v}) already present")
        else:
            seen = self._long.get(u)
            if seen is None:
                seen = self._long[u] = set(targets)
            if v in seen:
                raise ValueError(f"edge ({u}, {v}) already present")
            seen.add(v)
        targets.append(v)
        self._order = None

    def out(self, v: VertexId) -> Sequence[VertexId]:
        """Out-neighbors of ``v``.  The returned list must not be mutated."""
        if not 0 <= v < len(self._out):
            self._check_vertex(v)
        return self._out[v]

    def out_degree(self, v: VertexId) -> int:
        self._check_vertex(v)
        return len(self._out[v])

    def sorted_edges(self) -> Iterator[tuple[VertexId, VertexId]]:
        """All edges in lexicographic order, one at a time.

        Sources come in id order already, so only each out-list is sorted.
        """
        for u, targets in enumerate(self._out):
            for v in sorted(targets):
                yield u, v

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


class _ColoringFields(NamedTuple):
    palette_size: int
    colors: tuple[int, ...]


class Coloring(_ColoringFields):
    """A total vertex -> color assignment over a palette 0..palette_size-1.

    ``Coloring(k, colors)`` checks every color against the palette, and so
    do ``_make`` and ``_replace``.  The private :meth:`_trusted` skips that
    check and builds a whole solution list in one call; only the search
    engine and the brute-force oracle in :mod:`majority` call it, on
    tuples they build from ``range(palette_size)`` or from pins they have
    already checked.
    """

    __slots__ = ()

    def __new__(cls, palette_size: int, colors: Sequence[int]) -> "Coloring":
        if type(colors) is not tuple:
            colors = tuple(colors)
        if palette_size < 1:
            raise ValueError("palette_size must be positive")
        # min/max check every color at C speed; the loop only names the
        # first vertex outside the palette.
        if colors and not (0 <= min(colors) and max(colors) < palette_size):
            for v, c in enumerate(colors):
                if not 0 <= c < palette_size:
                    raise ValueError(
                        f"vertex {v} has color {c}, palette size is {palette_size}"
                    )
        return tuple.__new__(cls, (palette_size, colors))

    @classmethod
    def _make(cls, fields: Iterable) -> "Coloring":
        return cls(*fields)

    @classmethod
    def _trusted(
        cls, palette_size: int, rows: Iterable[tuple[int, ...]]
    ) -> list["Coloring"]:
        """One coloring per tuple of ``rows``, each known to lie in the palette."""
        return list(map(tuple.__new__, repeat(cls), zip(repeat(palette_size), rows)))


def topological_sort(g: DiGraph) -> list[VertexId]:
    """Kahn's algorithm with a smallest-index tie-break among ready vertices.

    Returns an order in which every edge goes from earlier to later.
    Otherwise raises CycleFound with every vertex the sort could not
    place: each cycle and every vertex a cycle reaches.
    In-degrees and successors are read straight from the adjacency lists.
    The tie-break is kept for speed: the search engine colors in reverse of
    this order, which a FIFO ready list makes slower on deep truncations.

    The order is stored on the graph until a vertex or an edge is added,
    so sorting an unchanged graph again costs one list copy.  Each call
    returns a fresh copy, which the caller may mutate.  A cycle is never
    stored: every call on a cyclic graph sorts and raises again.
    """
    if g._order is not None:
        return g._order.copy()
    out = g._out
    in_degree = [0] * len(out)
    for targets in out:
        for v in targets:
            in_degree[v] += 1
    ready = [v for v, d in enumerate(in_degree) if d == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        u = heapq.heappop(ready)
        order.append(u)
        for v in out[u]:
            in_degree[v] -= 1
            if in_degree[v] == 0:
                heapq.heappush(ready, v)
    if len(order) != g.vertex_count:
        remaining = frozenset(v for v, d in enumerate(in_degree) if d > 0)
        raise CycleFound(remaining)
    g._order = order
    return order.copy()


# --- text serialization -------------------------------------------------
#
# Schema: a JSON object with fields
#   vertex_count: int
#   edges:        list of [u, v] pairs, sorted lexicographically on output
#   names:        optional map "id" -> string
# UTF-8, "\n" newlines, sorted keys: output is byte-deterministic.


def text_lines(g: DiGraph, names: dict[int, str] | None = None) -> Iterator[str]:
    """The canonical graph text, one piece per line, for writing as made.

    Sorted keys, one sorted edge per line.  Edges are emitted source by
    source with each out-list sorted, which is the lexicographic order
    without a global sort of edge tuples.  Each piece opens with the end
    of the line before it, so the last edge and the last name drop their
    commas without a lookahead.
    """
    # Hand-rolled emission so each edge occupies one line (diff-friendly);
    # the output is ordinary JSON.  A name is encoded as json.dumps would
    # encode it, without its dispatch; a name that is not a str raises
    # TypeError, as from_text would refuse it.
    yield '{\n  "edges": ['
    sep = "\n"
    for u, targets in enumerate(g._out):
        for v in sorted(targets):
            yield f"{sep}    [{u}, {v}]"
            sep = ",\n"
    if names:
        yield '\n  ],\n  "names": {'
        sep = "\n"
        for v in sorted(names):
            yield f'{sep}    "{v}": {encode_basestring_ascii(names[v])}'
            sep = ",\n"
        yield "\n  },"
    else:
        yield "\n  ],"
    yield f'\n  "vertex_count": {g.vertex_count}\n}}\n'


def to_text(g: DiGraph, names: dict[int, str] | None = None) -> str:
    """The canonical graph text (:func:`text_lines`) as one string."""
    return "".join(text_lines(g, names))


def from_text(text: str) -> DiGraph:
    return from_text_with_names(text)[0]


def _unique_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    # json.loads would otherwise keep the last of two equal keys silently.
    doc = dict(pairs)
    if len(doc) != len(pairs):
        counts = Counter(key for key, _ in pairs)
        repeated = next(key for key, _ in pairs if counts[key] > 1)
        raise ParseError(f"repeated key {repeated!r}")
    return doc


def _load_edges(n: int, pairs: list, where: str) -> DiGraph:
    """The graph on ``n`` vertices with each ``[u, v]`` pair checked and added.

    The first bad pair raises ``ParseError``, named by ``where`` formatted
    with its ``idx`` and ``pair``.
    """
    g = DiGraph(n)
    out = g._out
    limit = _SCAN_LIMIT
    for idx, pair in enumerate(pairs):
        # `type(...) is int` also rejects true/false, which JSON loads as bool.
        if (
            type(pair) is not list
            or len(pair) != 2
            or type(pair[0]) is not int
            or type(pair[1]) is not int
        ):
            raise ParseError(
                f"{where.format(idx=idx, pair=pair)}: expected an [u, v] integer pair"
            )
        u, v = pair
        # An edge in range, not a self-loop and new to a list of fewer
        # than _SCAN_LIMIT targets is appended inline.  That append never
        # touches a longer list, so the set add_edge keeps for such a list
        # stays in step with it, and the graph is fresh, so it has no
        # stored topological order to drop.  add_edge takes every other
        # edge, and raises for a bad one.
        if 0 <= u < n and 0 <= v < n and u != v:
            targets = out[u]
            if len(targets) < limit and v not in targets:
                targets.append(v)
                continue
        try:
            g.add_edge(u, v)
        except ValueError as e:
            raise ParseError(f"{where.format(idx=idx, pair=pair)}: {e}") from e
    return g


def from_text_with_names(text: str) -> tuple[DiGraph, dict[int, str] | None]:
    """Parse graph text into a graph and its optional name map.

    Every malformed document raises ``ParseError``.
    """
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from e
    except ValueError:  # an integer past sys.get_int_max_str_digits()
        raise ParseError("number too long to parse") from None
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
    if type(vertex_count) is not int or vertex_count < 0:  # also rejects true/false
        raise ParseError("field 'vertex_count': expected a non-negative integer")
    if vertex_count > MAX_VERTICES:
        raise ParseError(
            f"field 'vertex_count': {vertex_count} exceeds the cap {MAX_VERTICES}"
        )
    if not isinstance(doc["edges"], list):
        raise ParseError("field 'edges': expected a list of [u, v] pairs")
    g = _load_edges(vertex_count, doc["edges"], "edges[{idx}]")
    names: dict[int, str] | None = None
    if "names" in doc:
        raw = doc["names"]
        if not isinstance(raw, dict):
            raise ParseError("field 'names': expected a map id -> string")
        names = {}
        for key, value in raw.items():
            # Only the canonical decimal is a key: int() would also read
            # "01", " 1 ", "+1" and "1_0", and two spellings of one id
            # would silently overwrite each other.
            try:
                vid = int(key)
            except ValueError:
                vid = None
            if vid is None or key != str(vid):
                raise ParseError(f"names: key {key!r} is not a canonical integer id")
            if not 0 <= vid < vertex_count:
                raise ParseError(f"names: vertex {vid} out of range")
            if not isinstance(value, str):
                raise ParseError(f"names[{key}]: expected a string")
            names[vid] = value
    return g, names


# --- DOT emission -------------------------------------------------------

# An id is written as dot_lines writes it: ASCII decimal, no leading zero.
_DOT_NODE_RE = re.compile(r'^(0|[1-9][0-9]*)(?:\s+\[label="((?:[^"\\]|\\.)*)"\])?;$')
_DOT_EDGE_RE = re.compile(r"^(0|[1-9][0-9]*) -> (0|[1-9][0-9]*);$")
_DOT_ESCAPE_RE = re.compile(r'\\([\\"nr])')
_DOT_UNESCAPED = {"\\": "\\", '"': '"', "n": "\n", "r": "\r"}


def _dot_escape(label: str) -> str:
    # "\n" and "\r" are escaped so that a label stays on its line, also
    # when the file is read back with universal newlines.
    return (
        label.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\r", "\\r")
    )


def _dot_unescape(label: str) -> str:
    # One pass, so an escaped backslash never joins the next character.
    return _DOT_ESCAPE_RE.sub(lambda m: _DOT_UNESCAPED[m.group(1)], label)


def dot_lines(g: DiGraph, names: dict[int, str] | None = None) -> Iterator[str]:
    """DOT rendering, one line at a time: each vertex, then each edge."""
    yield "digraph {\n"
    for v in range(g.vertex_count):
        if names and v in names:
            yield f'  {v} [label="{_dot_escape(names[v])}"];\n'
        else:
            yield f"  {v};\n"
    for u, v in g.sorted_edges():
        yield f"  {u} -> {v};\n"
    yield "}\n"


def to_dot(g: DiGraph, names: dict[int, str] | None = None) -> str:
    """DOT rendering (:func:`dot_lines`) as one string."""
    return "".join(dot_lines(g, names))


def from_dot(text: str) -> tuple[DiGraph, dict[int, str] | None]:
    """Parse the DOT subset emitted by :func:`to_dot` (round-trip support).

    Statements are split on "\\n" only: other line-break characters may
    appear raw inside a label.  Blank lines are skipped, but an error
    names a statement by its line in ``text``, blank lines counted.
    """
    lines = list(map(str.strip, text.split("\n")))
    first = next((i for i, line in enumerate(lines) if line), 0)
    last = next((i for i in reversed(range(len(lines))) if lines[i]), 0)
    if lines[first] != "digraph {" or lines[last] != "}":
        raise ParseError("expected a 'digraph { ... }' document")
    vertices: list[int] = []
    names: dict[int, str] = {}
    edges: list[list[int]] = []
    # Edge lines are the majority, so they are tried first; no line
    # matches both patterns.
    for lineno, line in enumerate(islice(lines, first + 1, last), first + 2):
        if not line:
            continue
        edge = _DOT_EDGE_RE.match(line)
        node = None if edge else _DOT_NODE_RE.match(line)
        if not (edge or node):
            raise ParseError(f"line {lineno}: unrecognized statement {line!r}")
        try:  # int() refuses ids past sys.get_int_max_str_digits()
            if edge:
                edges.append([int(edge.group(1)), int(edge.group(2))])
            else:
                vid = int(node.group(1))
                vertices.append(vid)
                if node.group(2) is not None:
                    names[vid] = _dot_unescape(node.group(2))
        except ValueError:
            raise ParseError(f"line {lineno}: number too long to parse") from None
    if sorted(vertices) != list(range(len(vertices))):
        raise ParseError("vertex statements must cover ids 0..V-1 exactly once")
    g = _load_edges(len(vertices), edges, "edge {idx} ({pair[0]} -> {pair[1]})")
    return g, names or None
