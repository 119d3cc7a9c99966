import itertools

import pytest

from helpers import gadget_internal_sort
from majoritylab import gadgets
from majoritylab.counterexample import build_truncation
from majoritylab.errors import TooLarge
from majoritylab.gadgets import (
    DEFAULT_EXHAUSTION_BOUND,
    GadgetHandle,
    build_or2,
    build_or_chain,
    forced_extension,
    is_valid_gadget,
    stage_names,
    verify_or_semantics,
)
from majoritylab.graph import DiGraph
from majoritylab.majority import TruthView, brute_force_majority_colorings


def fresh_chain(k):
    g = DiGraph(k + 1)
    handle = build_or_chain(g, 0, tuple(range(1, k + 1)))
    return g, handle


class TestConstruction:
    def test_binary_counts(self):
        g = DiGraph(3)
        handle = build_or2(g, 0, 1, 2)
        assert g.vertex_count == 7
        assert g.edge_count == 6
        assert handle.inputs == (1, 2)
        assert handle.output in handle.internal
        assert len(handle.internal) == 4

    def test_binary_degrees(self):
        g, handle = fresh_chain(2)
        stage = handle.stages[0]
        assert g.out_degree(handle.output) == 3
        for v in (stage.neg_left, stage.neg_right, stage.neg_anchor):
            assert g.out_degree(v) == 1

    def test_internal_edges_stay_inside(self):
        g, handle = fresh_chain(2)
        for w in handle.internal:
            for t in g.out(w):
                assert t in handle.members

    def test_chain_three_counts(self):
        g, handle = fresh_chain(3)
        assert len(handle.stages) == 2
        assert len(handle.internal) == 8
        assert g.edge_count == 12

    def test_chain_five_counts(self):
        g, handle = fresh_chain(5)
        assert len(handle.stages) == 4
        assert len(handle.internal) == 16

    def test_chain_two_is_binary(self):
        g1, _ = fresh_chain(2)
        g2 = DiGraph(3)
        build_or2(g2, 0, 1, 2)
        assert g1 == g2

    def test_chain_too_short(self):
        g = DiGraph(2)
        with pytest.raises(ValueError, match="at least 2 inputs, got 1"):
            build_or_chain(g, 0, (1,))

    def test_stages_link_by_output(self):
        _, handle = fresh_chain(4)
        for prev, nxt in zip(handle.stages, handle.stages[1:]):
            assert nxt.left == prev.collector
        assert handle.output == handle.stages[-1].collector

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_chain_fields_follow_vertex_order(self, k):
        # Fresh vertices are appended after the inputs, and the last one
        # created is the final collector.
        g, handle = fresh_chain(k)
        assert handle.inputs == tuple(range(1, k + 1))
        assert handle.output == g.vertex_count - 1
        assert handle.internal == frozenset(range(k + 1, g.vertex_count))

    @pytest.mark.parametrize(
        ("anchor", "inputs", "message"),
        [
            (0, (1, 1), "chain inputs must be distinct"),
            (0, (1, 2, 1), "chain inputs must be distinct"),
            (1, (1, 2), "the anchor cannot be a chain input"),
            (9, (1, 2), "vertex 9 does not exist"),
            (0, (1, 2, 3, 9), "vertex 9 does not exist"),
            (0, (-1, 2), "vertex -1 does not exist"),
        ],
    )
    def test_bad_chain_leaves_graph_unchanged(self, anchor, inputs, message):
        g = DiGraph(4)
        with pytest.raises(ValueError, match=message):
            build_or_chain(g, anchor, inputs)
        assert g == DiGraph(4)

    @pytest.mark.parametrize(
        ("anchor", "first", "second"), [(0, 1, 1), (1, 1, 2), (2, 1, 2)]
    )
    def test_binary_rejects_repeated_vertex(self, anchor, first, second):
        g = DiGraph(3)
        with pytest.raises(ValueError):
            build_or2(g, anchor, first, second)
        assert g == DiGraph(3)

    def test_size_cap_leaves_graph_unchanged(self, monkeypatch):
        monkeypatch.setattr(gadgets, "MAX_VERTICES", 8)
        g = DiGraph(4)
        with pytest.raises(TooLarge, match="would reach 12 vertices"):
            build_or_chain(g, 0, (1, 2, 3))
        assert g == DiGraph(4)
        build_or_chain(g, 0, (1, 2))
        assert g.vertex_count == 8

    def test_inputs_and_anchor_gain_no_out_edges(self):
        g = DiGraph(3)
        before = [g.out_degree(v) for v in range(3)]
        build_or_chain(g, 0, (1, 2))
        assert [g.out_degree(v) for v in range(3)] == before


class TestHandleShape:
    def test_handle_holds_anchor_and_stages_only(self):
        assert GadgetHandle._fields == ("anchor", "stages")

    def test_members(self):
        _, handle = fresh_chain(3)
        assert handle.members == frozenset(range(4)) | handle.internal

    def test_empty_stages_rejected(self):
        with pytest.raises(ValueError, match="at least one stage"):
            GadgetHandle(0, ())

    def test_reversed_stages_rejected(self):
        _, handle = fresh_chain(3)
        with pytest.raises(ValueError, match="previous collector"):
            GadgetHandle(handle.anchor, handle.stages[::-1])

    def test_repeated_fresh_id_rejected(self):
        _, handle = fresh_chain(3)
        first, second = handle.stages
        clash = second._replace(neg_right=first.neg_left)
        with pytest.raises(ValueError, match="repeats"):
            GadgetHandle(handle.anchor, (first, clash))

    @pytest.mark.parametrize("build", [
        lambda h, stages: GadgetHandle(h.anchor, stages),
        lambda h, stages: GadgetHandle._make((h.anchor, stages)),
        lambda h, stages: h._replace(stages=stages),
    ], ids=["constructor", "_make", "_replace"])
    def test_every_way_in_checks_the_stages(self, build):
        _, handle = fresh_chain(3)
        with pytest.raises(ValueError, match="previous collector"):
            build(handle, handle.stages[::-1])
        with pytest.raises(ValueError, match="at least one stage"):
            build(handle, ())

    def test_handle_is_read_only(self):
        _, handle = fresh_chain(2)
        with pytest.raises(AttributeError):
            handle.stages = ()
        with pytest.raises(AttributeError):
            handle.note = "x"

    @pytest.mark.parametrize("k", range(2, 13))
    def test_internal_order_matches_sort(self, k):
        g, handle = fresh_chain(k)
        assert list(handle.internal_order) == gadget_internal_sort(g, handle)

    def test_prefix_of_stages_is_a_shorter_chain(self):
        _, handle = fresh_chain(4)
        short = handle._replace(stages=handle.stages[:2])
        assert short.inputs == (1, 2, 3)
        assert short.output == handle.stages[1].collector
        assert len(short.internal) == 8


class TestValidity:
    def test_fresh_gadget_is_valid(self):
        g, handle = fresh_chain(3)
        assert is_valid_gadget(g, handle)

    def test_escaping_edge_invalidates(self):
        g, handle = fresh_chain(2)
        outsider = g.add_vertex()
        g.add_edge(handle.output, outsider)
        assert not is_valid_gadget(g, handle)

    def test_edge_into_gadget_is_fine(self):
        g, handle = fresh_chain(2)
        outsider = g.add_vertex()
        g.add_edge(outsider, handle.output)
        assert is_valid_gadget(g, handle)


class TestSemanticsOracle:
    def test_binary_truth_table(self):
        g, handle = fresh_chain(2)
        report = verify_or_semantics(g, handle)
        assert report.is_or
        assert [o.inputs for o in report.outcomes] == [
            (False, False), (False, True), (True, False), (True, True)
        ]
        for o in report.outcomes:
            assert o.extension_exists and o.extension_unique
            assert o.output_truth == (o.inputs[0] or o.inputs[1])

    def test_chain_three_all_eight(self):
        g, handle = fresh_chain(3)
        report = verify_or_semantics(g, handle)
        assert report.is_or
        assert len(report.outcomes) == 8
        assert all(o.extension_unique for o in report.outcomes)

    def test_chain_five_exhaustive(self):
        # 2^16 internal assignments per precoloring: direct evidence for
        # the stage-by-stage induction at a size past the small chains.
        g, handle = fresh_chain(5)
        report = verify_or_semantics(g, handle)
        assert report.is_or
        assert len(report.outcomes) == 32
        assert all(o.extension_unique for o in report.outcomes)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_outcomes_match_brute_force(self, k):
        # Independent of both the gadget loop and the search engine: all
        # majority 2-colorings of the isolated chain (7, 12, 17 vertices)
        # with the anchor colored 0, grouped by their input truths.  The
        # anchor and the inputs are sinks here, so they constrain nothing.
        g, handle = fresh_chain(k)
        assert g.vertex_count == 5 * k - 3
        outputs = {pre: [] for pre in itertools.product((False, True), repeat=k)}
        for c in brute_force_majority_colorings(g, 2):
            if c.colors[handle.anchor] == 0:
                view = TruthView(handle.anchor, c)
                outputs[view.truths(handle.inputs)].append(view.truth(handle.output))
        expected = [
            (pre, bool(truths), len(truths) == 1,
             truths[0] if len(set(truths)) == 1 else None)
            for pre, truths in outputs.items()
        ]
        report = verify_or_semantics(g, handle)
        assert [
            (o.inputs, o.extension_exists, o.extension_unique, o.output_truth)
            for o in report.outcomes
        ] == expected

    def test_embedded_gadgets_match_isolated_chains(self):
        # In G_5 the inputs are path ids, the anchor is id 5 and the
        # internals sit past both, so no gadget's members are 0..V-1.
        g, spec = build_truncation(5)
        assert len(spec.gadget_registry) == 6
        for handle in spec.gadget_registry.values():
            assert sorted(handle.members) != list(range(len(handle.members)))
            isolated = verify_or_semantics(*fresh_chain(len(handle.inputs)))
            assert verify_or_semantics(g, handle).outcomes == isolated.outcomes

    def test_exhaustion_bound(self):
        # 7 stages, 28 internal vertices: refused before enumerating 2^36
        # assignments, so this returns at once.
        g, handle = fresh_chain(8)
        assert len(handle.internal) == 28 > DEFAULT_EXHAUSTION_BOUND
        with pytest.raises(TooLarge, match="28 internal vertices exceed"):
            verify_or_semantics(g, handle)

    def test_negators_oppose_their_target(self):
        g, handle = fresh_chain(2)
        stage = handle.stages[0]
        for pre in itertools.product((False, True), repeat=2):
            ext = forced_extension(handle, pre)
            assert ext[stage.neg_left] == (not pre[0])
            assert ext[stage.neg_right] == (not pre[1])
            assert ext[stage.neg_anchor] is False

    def test_broken_topology_is_detected(self):
        # Rewire the left negator to point at the anchor instead of its
        # input: the collector is no longer forced to the OR value.
        donor = DiGraph(3)
        handle = build_or2(donor, 0, 1, 2)
        g = DiGraph(3)
        for v in handle.internal:
            assert g.add_vertex() == v
        stage = handle.stages[0]
        g.add_edge(stage.neg_left, 0)  # wrong target (anchor, not input 1)
        g.add_edge(stage.neg_right, 2)
        g.add_edge(stage.neg_anchor, 0)
        for neg in (stage.neg_left, stage.neg_right, stage.neg_anchor):
            g.add_edge(stage.collector, neg)
        report = verify_or_semantics(g, handle)
        assert not report.is_or


class TestForcedExtension:
    def test_binary_examples(self):
        _, handle = fresh_chain(2)
        stage = handle.stages[0]
        ext = forced_extension(handle, (True, False))
        assert ext[stage.neg_left] is False
        assert ext[stage.neg_right] is True
        assert ext[stage.neg_anchor] is False
        assert ext[stage.collector] is True
        assert forced_extension(handle, (False, False))[stage.collector] is False
        assert forced_extension(handle, (True, True))[stage.collector] is True

    def test_chain_stage_outputs(self):
        _, handle = fresh_chain(3)
        ext = forced_extension(handle, (False, False, True))
        assert ext[handle.stages[0].collector] is False
        assert ext[handle.stages[1].collector] is True

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_oracle_everywhere(self, k):
        g, handle = fresh_chain(k)
        internal = sorted(handle.internal)
        for pre in itertools.product((False, True), repeat=k):
            ext = forced_extension(handle, pre)
            colors = {handle.anchor: 0}
            colors.update(
                {u: 0 if t else 1 for u, t in zip(handle.inputs, pre)}
            )
            colors.update({w: 0 if ext[w] else 1 for w in internal})
            # Re-derive the unique satisfying extension exhaustively.
            satisfying = []
            for mask in range(1 << len(internal)):
                trial = dict(colors)
                for bit, w in enumerate(internal):
                    trial[w] = (mask >> bit) & 1
                ok = all(
                    2 * sum(1 for t in g.out(w) if trial[t] == trial[w])
                    <= g.out_degree(w)
                    for w in internal
                )
                if ok:
                    satisfying.append(trial)
            assert len(satisfying) == 1
            assert satisfying[0] == colors

    def test_wrong_arity(self):
        _, handle = fresh_chain(3)
        with pytest.raises(ValueError):
            forced_extension(handle, (True,))


def test_stage_names_cover_internals():
    _, handle = fresh_chain(3)
    names = stage_names(handle, prefix="g.")
    assert set(names) == set(handle.internal)
    assert names[handle.output] == "g.s2.out"
