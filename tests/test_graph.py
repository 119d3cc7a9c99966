import json
import sys
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import dags, digraphs, edge_list_kahn, sorted_tuples_to_text
from majoritylab import graph
from majoritylab.errors import CycleFound, ParseError
from majoritylab.graph import (
    Coloring,
    DiGraph,
    from_dot,
    from_text,
    from_text_with_names,
    to_dot,
    to_text,
    topological_sort,
)


def path_graph(n):
    g = DiGraph(n)
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


class TestConstruction:
    def test_add_vertex_dense_from_zero(self):
        g = DiGraph()
        assert g.add_vertex() == 0
        assert g.add_vertex() == 1

    def test_add_vertex_after_existing(self):
        g = DiGraph(3)
        assert g.add_vertex() == 3

    def test_add_edge(self):
        g = DiGraph(2)
        g.add_edge(0, 1)
        assert g.out_degree(0) == 1
        assert 1 in g.out(0)
        assert 0 not in g.out(1)

    def test_self_loop_rejected(self):
        g = DiGraph(2)
        with pytest.raises(ValueError, match=r"^self-loop \(0, 0\) rejected$"):
            g.add_edge(0, 0)
        assert g.edge_count == 0

    def test_duplicate_edge_rejected(self):
        g = DiGraph(2)
        g.add_edge(0, 1)
        with pytest.raises(ValueError, match=r"^edge \(0, 1\) already present$"):
            g.add_edge(0, 1)
        assert g.edge_count == 1

    def test_out_of_range_rejected(self):
        g = DiGraph(2)
        with pytest.raises(
            ValueError, match=r"^vertex 5 out of range \(vertex_count 2\)$"
        ):
            g.add_edge(0, 5)

    def test_antiparallel_pair_allowed(self):
        g = DiGraph(2)
        g.add_edge(0, 1)
        g.add_edge(1, 0)
        assert g.edge_count == 2

    def test_structural_equality_ignores_adjacency_order(self):
        a = DiGraph(3)
        a.add_edge(0, 1)
        a.add_edge(0, 2)
        b = DiGraph(3)
        b.add_edge(0, 2)
        b.add_edge(0, 1)
        assert a == b


class TestTopologicalSort:
    def test_path(self):
        assert topological_sort(path_graph(3)) == [0, 1, 2]

    def test_two_cycle(self):
        g = DiGraph(2)
        g.add_edge(0, 1)
        g.add_edge(1, 0)
        with pytest.raises(CycleFound) as exc:
            topological_sort(g)
        assert exc.value.vertices == frozenset({0, 1})

    def test_cycle_reports_what_it_reaches(self):
        # Vertex 2 lies on no cycle, but the sort cannot place it either.
        g = DiGraph(3)
        g.add_edge(0, 1)
        g.add_edge(1, 0)
        g.add_edge(1, 2)
        with pytest.raises(CycleFound) as exc:
            topological_sort(g)
        assert exc.value.vertices == frozenset({0, 1, 2})

    def test_edgeless_tie_break(self):
        assert topological_sort(DiGraph(3)) == [0, 1, 2]

    def test_min_index_tie_break(self):
        g = DiGraph(4)
        g.add_edge(3, 1)
        g.add_edge(2, 1)
        assert topological_sort(g) == [0, 2, 3, 1]

    @given(dags())
    def test_edges_go_forward(self, g):
        order = topological_sort(g)
        pos = {v: i for i, v in enumerate(order)}
        assert sorted(order) == list(range(g.vertex_count))
        for u, v in g.sorted_edges():
            assert pos[u] < pos[v]

    @given(dags())
    def test_deterministic(self, g):
        # The second call reads the stored order; a graph that was never
        # sorted must give the same one.
        first = topological_sort(g)
        fresh = DiGraph(g.vertex_count)
        for u, v in g.sorted_edges():
            fresh.add_edge(u, v)
        assert topological_sort(g) == first == topological_sort(fresh)

    def test_add_edge_after_a_sort(self):
        g = DiGraph(3)
        assert topological_sort(g) == [0, 1, 2]
        g.add_edge(2, 0)
        assert topological_sort(g) == [1, 2, 0]

    def test_add_vertex_after_a_sort(self):
        g = path_graph(2)
        assert topological_sort(g) == [0, 1]
        assert g.add_vertex() == 2
        assert topological_sort(g) == [0, 1, 2]

    def test_edge_closing_a_cycle_after_a_sort(self):
        g = path_graph(3)
        g.add_vertex()
        g.add_edge(3, 0)
        assert topological_sort(g) == [3, 0, 1, 2]
        g.add_edge(2, 0)
        fresh = DiGraph(4)
        for u, v in g.sorted_edges():
            fresh.add_edge(u, v)
        with pytest.raises(CycleFound) as expected:
            topological_sort(fresh)
        for _ in range(2):  # a cycle is never stored
            with pytest.raises(CycleFound) as exc:
                topological_sort(g)
            assert exc.value.vertices == expected.value.vertices == frozenset({0, 1, 2})

    def test_returned_order_is_a_copy(self):
        g = path_graph(3)
        order = topological_sort(g)  # the call that sorts
        order.reverse()
        order.append(7)
        assert topological_sort(g) == [0, 1, 2]
        topological_sort(g).clear()  # a call that reads the stored order
        assert topological_sort(g) == [0, 1, 2]

    @given(st.one_of(dags(), digraphs()))
    def test_matches_edge_list_kahn(self, g):
        try:
            expected = edge_list_kahn(g)
        except CycleFound as e:
            with pytest.raises(CycleFound) as exc:
                topological_sort(g)
            assert exc.value.vertices == e.vertices
        else:
            assert topological_sort(g) == expected


class TestSerialization:
    def test_round_trip_empty(self):
        g = DiGraph()
        assert from_text(to_text(g)) == g

    def test_round_trip_path(self):
        g = path_graph(3)
        assert from_text(to_text(g)) == g

    @given(digraphs())
    def test_round_trip_any(self, g):
        assert from_text(to_text(g)) == g

    def test_canonical_form(self):
        text = '{"vertex_count": 3, "edges": [[1, 2], [0, 1]]}'
        canonical = to_text(from_text(text))
        assert from_text(canonical) == from_text(text)
        assert to_text(from_text(canonical)) == canonical

    def test_names_round_trip(self):
        g = path_graph(2)
        text = to_text(g, {0: "start", 1: "end"})
        g2, names = from_text_with_names(text)
        assert g2 == g
        assert names == {0: "start", 1: "end"}

    @pytest.mark.parametrize("name", [
        "é", "雪", "\U0001f600", 'a"b', "a\\b", "\x00\x1f\x7f", "\n\t\r", "\ud800", "\udfff",
    ])
    def test_names_are_encoded_as_json_dumps_encodes_them(self, name):
        # Non-ASCII, quote, backslash, control and lone-surrogate names.
        text = to_text(path_graph(1), {0: name})
        assert text.isascii()
        assert f'"0": {json.dumps(name)}\n' in text
        assert from_text_with_names(text)[1] == {0: name}

    @pytest.mark.parametrize("name", [7, 1.5, None, True, ["v"]])
    def test_non_string_name_is_refused_both_ways(self, name):
        # json.dumps would write it, into a document that from_text refuses.
        with pytest.raises(TypeError):
            to_text(path_graph(1), {0: name})
        text = f'{{"vertex_count": 1, "edges": [], "names": {{"0": {json.dumps(name)}}}}}'
        with pytest.raises(ParseError, match=r"names\[0\]: expected a string"):
            from_text_with_names(text)

    def test_edge_out_of_range(self):
        with pytest.raises(ParseError, match="edges"):
            from_text('{"vertex_count": 3, "edges": [[0, 99]]}')

    @pytest.mark.parametrize(
        "edges, message",
        [
            ("1", "edges[0]: expected an [u, v] integer pair"),
            ('"01"', "edges[0]: expected an [u, v] integer pair"),
            ("null", "edges[0]: expected an [u, v] integer pair"),
            ('{"0": 1}', "edges[0]: expected an [u, v] integer pair"),
            ("[0]", "edges[0]: expected an [u, v] integer pair"),
            ("[0, 1, 2]", "edges[0]: expected an [u, v] integer pair"),
            ("[true, 1]", "edges[0]: expected an [u, v] integer pair"),
            ("[0, false]", "edges[0]: expected an [u, v] integer pair"),
            ("[0.0, 1]", "edges[0]: expected an [u, v] integer pair"),
            ("[0, 1.5]", "edges[0]: expected an [u, v] integer pair"),
            ("[0, 1], [2]", "edges[1]: expected an [u, v] integer pair"),
            ("[-1, 1]", "edges[0]: vertex -1 out of range (vertex_count 3)"),
            ("[0, -1]", "edges[0]: vertex -1 out of range (vertex_count 3)"),
            ("[3, 1]", "edges[0]: vertex 3 out of range (vertex_count 3)"),
            ("[0, 3]", "edges[0]: vertex 3 out of range (vertex_count 3)"),
            ("[7, 9]", "edges[0]: vertex 7 out of range (vertex_count 3)"),
            ("[5, 5]", "edges[0]: vertex 5 out of range (vertex_count 3)"),
            ("[1, 1]", "edges[0]: self-loop (1, 1) rejected"),
            ("[0, 1], [1, 2], [0, 1]", "edges[2]: edge (0, 1) already present"),
        ],
    )
    def test_edge_error_messages(self, edges, message):
        with pytest.raises(ParseError) as exc:
            from_text(f'{{"vertex_count": 3, "edges": [{edges}]}}')
        assert str(exc.value) == message

    def test_antiparallel_edges_parse(self):
        g = from_text('{"vertex_count": 2, "edges": [[1, 0], [0, 1]]}')
        assert list(g.sorted_edges()) == [(0, 1), (1, 0)]

    def test_bad_json(self):
        with pytest.raises(ParseError, match="line"):
            from_text("{nope")

    @pytest.mark.parametrize(
        "doc",
        ['{"vertex_count": 1%s, "edges": []}', '{"vertex_count": 2, "edges": [[0, 1%s]]}'],
        ids=["vertex-count", "edge-id"],
    )
    def test_number_too_long_to_parse(self, doc):
        # json.loads itself raises a plain ValueError past this digit limit.
        digits = "0" * sys.get_int_max_str_digits()
        with pytest.raises(ParseError, match="^number too long to parse$"):
            from_text(doc % digits)

    def test_unknown_field(self):
        with pytest.raises(ParseError, match="unknown"):
            from_text('{"vertex_count": 0, "edges": [], "meta": 1}')

    def test_missing_field(self):
        with pytest.raises(ParseError):
            from_text('{"vertex_count": 2}')

    def test_duplicate_edge_in_file(self):
        with pytest.raises(ParseError):
            from_text('{"vertex_count": 2, "edges": [[0, 1], [0, 1]]}')

    def test_bad_names_key(self):
        with pytest.raises(ParseError, match="names"):
            from_text('{"vertex_count": 1, "edges": [], "names": {"x": "v"}}')

    @pytest.mark.parametrize("key", ["01", " 1 ", "+1", "1_0", "1 ", "\\u0661"])
    def test_names_key_must_be_canonical(self, key):
        # int() reads every one of these keys ("١" is ARABIC-INDIC ONE).
        text = f'{{"vertex_count": 11, "edges": [], "names": {{"{key}": "v"}}}}'
        with pytest.raises(ParseError) as exc:
            from_text_with_names(text)
        assert repr(json.loads(f'"{key}"')) in str(exc.value)

    def test_names_aliases_do_not_overwrite(self):
        text = '{"vertex_count": 2, "edges": [], "names": {"1": "a", "01": "b"}}'
        with pytest.raises(ParseError, match="'01' is not a canonical integer id"):
            from_text_with_names(text)

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"vertex_count": 2, "edges": [], "names": {"1": "a", "1": "b"}}', "'1'"),
            ('{"vertex_count": 3, "edges": [[0, 1]], "edges": [], "vertex_count": 2}',
             "'vertex_count'"),
            # The first key in document order that repeats, not the first repeat.
            ('{"vertex_count": 2, "edges": [], "names": {"0": "a", "1": "b", "1": "c", '
             '"0": "d"}}', "'0'"),
        ],
    )
    def test_repeated_key_rejected(self, text, key):
        with pytest.raises(ParseError, match=f"repeated key {key}"):
            from_text_with_names(text)

    def test_repeated_key_among_many_fails_fast(self):
        # The repeat comes last, so a count per key would scan 200 000 keys
        # for each one.
        names = "".join(f'"{v}": "v", ' for v in range(200_000))
        text = f'{{"vertex_count": 200000, "edges": [], "names": {{{names}"199999": "w"}}}}'
        start = time.perf_counter()
        with pytest.raises(ParseError, match="^repeated key '199999'$"):
            from_text_with_names(text)
        assert time.perf_counter() - start < 1

    @given(st.data())
    def test_names_round_trip_any(self, data):
        g = data.draw(digraphs())
        ids = st.integers(0, max(g.vertex_count - 1, 0))
        names = data.draw(st.dictionaries(ids, st.text(max_size=4)))
        names = {v: s for v, s in names.items() if v < g.vertex_count}
        assert from_text_with_names(to_text(g, names)) == (g, names or None)

    @given(st.data())
    def test_matches_sorted_tuples_emitter(self, data):
        g = data.draw(digraphs())
        ids = st.integers(0, g.vertex_count - 1) if g.vertex_count else st.nothing()
        names = data.draw(st.none() | st.dictionaries(ids, st.text(max_size=4)))
        # Insertion order must not matter: rebuild with reversed adjacency.
        shuffled = DiGraph(g.vertex_count)
        for u in reversed(range(g.vertex_count)):
            for v in reversed(g.out(u)):
                shuffled.add_edge(u, v)
        expected = sorted_tuples_to_text(g, names)
        assert to_text(g, names) == expected
        assert to_text(shuffled, names) == expected

    def test_output_is_byte_deterministic(self):
        g = path_graph(4)
        assert to_text(g) == to_text(g)


class TestDot:
    def test_emission(self):
        g = path_graph(2)
        dot = to_dot(g, {0: "v1"})
        assert dot == 'digraph {\n  0 [label="v1"];\n  1;\n  0 -> 1;\n}\n'

    @given(digraphs(max_vertices=6))
    def test_round_trip(self, g):
        g2, _ = from_dot(to_dot(g))
        assert g2 == g

    def test_vertex_cap(self, monkeypatch):
        monkeypatch.setattr(graph, "MAX_VERTICES", 3)
        assert from_dot(to_dot(path_graph(3)))[0] == path_graph(3)
        with pytest.raises(ParseError, match="^4 vertex statements exceed the cap 3$"):
            from_dot(to_dot(path_graph(4)))

    def test_label_escaping(self):
        g = DiGraph(1)
        g2, names = from_dot(to_dot(g, {0: 'a"b\\c'}))
        assert names == {0: 'a"b\\c'}

    @given(st.data())
    def test_names_round_trip(self, data):
        g = data.draw(digraphs(max_vertices=5))
        ids = st.integers(0, g.vertex_count - 1) if g.vertex_count else st.nothing()
        names = data.draw(st.dictionaries(ids, st.text()))
        g2, names2 = from_dot(to_dot(g, names))
        assert g2 == g
        assert names2 == (names or None)

    @pytest.mark.parametrize("sep", ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
    def test_line_break_in_label(self, sep):
        dot = to_dot(DiGraph(2), {0: f"a{sep}b", 1: "\\n"})
        assert dot.count("\n") == 4
        assert from_dot(dot)[1] == {0: f"a{sep}b", 1: "\\n"}

    def test_crlf_document(self):
        dot = to_dot(DiGraph(2), {1: "x"}).replace("\n", "\r\n")
        assert from_dot(dot)[1] == {1: "x"}

    def test_reject_garbage(self):
        with pytest.raises(ParseError):
            from_dot("digraph {\n  0 -- 1;\n}")

    @pytest.mark.parametrize(
        "statements, message",
        [
            ("0 -> 0;", "edge 0 (0 -> 0): self-loop (0, 0) rejected"),
            ("0 -> 2;", "edge 0 (0 -> 2): vertex 2 out of range (vertex_count 2)"),
            ("2 -> 0;", "edge 0 (2 -> 0): vertex 2 out of range (vertex_count 2)"),
            ("0 -> 1;\n  0 -> 1;", "edge 1 (0 -> 1): edge (0, 1) already present"),
            ("0 -- 1;", "line 4: unrecognized statement '0 -- 1;'"),
            ("0 -> -1;", "line 4: unrecognized statement '0 -> -1;'"),
            # dot_lines writes no other spelling of an id.
            ("01;", "line 4: unrecognized statement '01;'"),
            ('01 [label="a"];', "line 4: unrecognized statement '01 [label=\"a\"];'"),
            ("\u0662;", "line 4: unrecognized statement '\u0662;'"),
            ("0 -> 01;", "line 4: unrecognized statement '0 -> 01;'"),
            ("\u0661 -> 0;", "line 4: unrecognized statement '\u0661 -> 0;'"),
            ("1;", "vertex statements must cover ids 0..V-1 exactly once"),
        ],
    )
    def test_edge_error_messages(self, statements, message):
        with pytest.raises(ParseError) as exc:
            from_dot(f"digraph {{\n  0;\n  1;\n  {statements}\n}}\n")
        assert str(exc.value) == message

    @pytest.mark.parametrize("statement", ["2%s;", "0 -> 1%s;"], ids=["vertex", "edge"])
    def test_number_too_long_to_parse(self, statement):
        digits = "0" * sys.get_int_max_str_digits()
        with pytest.raises(ParseError, match="^line 4: number too long to parse$"):
            from_dot(f"digraph {{\n  0;\n  1;\n  {statement % digits}\n}}\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("digraph {\n\n  0;\n  x;\n}\n", "line 4: unrecognized statement 'x;'"),
            ("\n\ndigraph {\n  0;\n  x;\n}\n", "line 5: unrecognized statement 'x;'"),
            (
                "\n \ndigraph {\n\n  0;\n\t\n  x;\n\n}\n",
                "line 7: unrecognized statement 'x;'",
            ),
            ("digraph {\r\n\r\n  0;\r\n  x;\r\n}\r\n", "line 4: unrecognized statement 'x;'"),
            (
                "\ndigraph {\n  0;\n\n  1;\n\n  2%s;\n}\n",
                "line 7: number too long to parse",
            ),
            ("\n\ndigraph {\n  0;\n  0 -> 1%s;\n}\n", "line 5: number too long to parse"),
        ],
        ids=["in-body", "leading", "both", "crlf", "long-vertex", "long-edge"],
    )
    def test_error_names_the_line_counting_blank_ones(self, text, message):
        if "%s" in text:
            text %= "0" * sys.get_int_max_str_digits()
        with pytest.raises(ParseError) as exc:
            from_dot(text)
        assert str(exc.value) == message


class TestColoring:
    def test_list_input_becomes_a_tuple(self):
        c = Coloring(2, [0, 1, 1])
        assert type(c.colors) is tuple
        assert c.colors == (0, 1, 1)

    def test_empty_coloring(self):
        assert Coloring(2, ()).colors == ()

    def test_make_and_replace_check_the_palette(self):
        c = Coloring(2, (0, 1))
        with pytest.raises(ValueError, match="vertex 1 has color 2"):
            Coloring._make((2, (0, 2)))
        with pytest.raises(ValueError, match="vertex 1 has color 2"):
            c._replace(colors=(0, 2))
        with pytest.raises(ValueError, match="palette_size must be positive"):
            c._replace(palette_size=0)
        assert c._replace(colors=[1, 0]) == Coloring(2, (1, 0))
        assert type(c._replace(colors=[1, 0]).colors) is tuple

    def test_read_only(self):
        c = Coloring(2, (0, 1))
        with pytest.raises(AttributeError):
            c.colors = (1, 0)
        with pytest.raises(AttributeError):
            c.note = "x"

    def test_equality_hash_and_repr(self):
        c = Coloring(2, [0, 1])
        assert c == Coloring(2, (0, 1))
        assert c != Coloring(3, (0, 1)) and c != Coloring(2, (1, 0))
        assert hash(c) == hash((2, (0, 1)))
        assert repr(c) == "Coloring(palette_size=2, colors=(0, 1))"

    @pytest.mark.parametrize(
        "colors, message",
        [
            ((0, 1, 2, -1), "vertex 2 has color 2, palette size is 2"),
            ([0, -1, 5], "vertex 1 has color -1, palette size is 2"),
            ((7,), "vertex 0 has color 7, palette size is 2"),
        ],
    )
    def test_first_bad_vertex_named(self, colors, message):
        with pytest.raises(ValueError) as exc:
            Coloring(2, colors)
        assert str(exc.value) == message

    @given(st.integers(1, 3), st.lists(st.integers(-2, 4), max_size=8))
    def test_rejects_exactly_the_out_of_palette_colors(self, k, colors):
        bad = [(v, c) for v, c in enumerate(colors) if not 0 <= c < k]
        if not bad:
            assert Coloring(k, colors).colors == tuple(colors)
            return
        with pytest.raises(ValueError) as exc:
            Coloring(k, colors)
        v, c = bad[0]
        assert str(exc.value) == f"vertex {v} has color {c}, palette size is {k}"


def _document(fmt, vertex_count, edges):
    if fmt == "add_edge":
        return vertex_count, edges
    if fmt == "text":
        return json.dumps({"vertex_count": vertex_count, "edges": edges})
    statements = [f"  {v};\n" for v in range(vertex_count)]
    statements += [f"  {u} -> {v};\n" for u, v in edges]
    return "digraph {\n" + "".join(statements) + "}\n"


def _build(vertex_count, edges):
    g = DiGraph(vertex_count)
    for u, v in edges:
        g.add_edge(u, v)
    return g


PARSE = {
    "text": from_text,
    "dot": lambda text: from_dot(text)[0],
    "add_edge": lambda doc: _build(*doc),
}


class TestEdgeLoader:
    """How edges enter a graph: add_edge, and the loader behind both parsers."""

    @pytest.mark.parametrize("fmt", ["text", "dot", "add_edge"])
    def test_star_parses_in_linear_time(self, fmt):
        # A scan of the out-list per edge took minutes on this star.
        n = 200_000
        doc = _document(fmt, n + 1, [[0, v] for v in range(1, n + 1)])
        start = time.perf_counter()
        g = PARSE[fmt](doc)
        assert time.perf_counter() - start < 3
        assert g.out(0) == list(range(1, n + 1))

    @pytest.mark.parametrize("target", [7, 38], ids=["before-set", "after-set"])
    @pytest.mark.parametrize(
        "fmt, where", [("text", "edges[40]"), ("dot", "edge 40 (0 -> {})")]
    )
    def test_duplicate_in_a_long_out_list(self, fmt, where, target):
        # Past 32 out-edges duplicates are found in a set; the first bad
        # edge in file order is still the one named.
        edges = [[0, v] for v in range(1, 41)] + [[0, target], [3, 3]]
        with pytest.raises(ParseError) as exc:
            PARSE[fmt](_document(fmt, 41, edges))
        assert str(exc.value) == (
            f"{where.format(target)}: edge (0, {target}) already present"
        )

    @pytest.mark.parametrize("target", [7, 38], ids=["before-set", "after-set"])
    @pytest.mark.parametrize("fmt", ["text", "dot", "add_edge"])
    def test_add_edge_rejects_a_repeat_in_a_long_out_list(self, fmt, target):
        # Source 0's set of targets is built when its 33rd edge is added,
        # by add_edge also for a parsed graph; 7 was listed before, 38 after.
        g = PARSE[fmt](_document(fmt, 41, [[0, v] for v in range(1, 41)]))
        with pytest.raises(ValueError) as exc:
            g.add_edge(0, target)
        assert str(exc.value) == f"edge (0, {target}) already present"
        assert g.out(0) == list(range(1, 41))

    @given(st.data())
    def test_add_edge_matches_a_set_of_pairs(self, data):
        # Source 0 gets every other vertex once, so its out-list passes 32
        # targets; the drawn edges repeat targets on either side of that
        # point and add self-loops and the out-of-range id n.
        n = 50
        extra = data.draw(
            st.lists(st.tuples(st.integers(0, 2), st.integers(0, n)), max_size=100)
        )
        edges = data.draw(st.permutations([(0, v) for v in range(1, n)] + extra))
        g = DiGraph(n)
        present = set()
        expected = [[] for _ in range(n)]
        for u, v in edges:
            if v == n:
                message = f"vertex {n} out of range (vertex_count {n})"
            elif u == v:
                message = f"self-loop ({u}, {u}) rejected"
            elif (u, v) in present:
                message = f"edge ({u}, {v}) already present"
            else:
                present.add((u, v))
                expected[u].append(v)
                g.add_edge(u, v)
                continue
            with pytest.raises(ValueError) as exc:
                g.add_edge(u, v)
            assert str(exc.value) == message
        assert g.adjacency == expected
