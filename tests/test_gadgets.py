import dataclasses
import itertools

import pytest

from majoritylab.errors import ChainTooShort, NotUnique, TooLarge
from majoritylab.gadgets import (
    DEFAULT_EXHAUSTION_BOUND,
    build_or2,
    build_or_chain,
    forced_extension,
    is_valid_gadget,
    stage_names,
    verify_or_semantics,
)
from majoritylab.graph import DiGraph


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
        with pytest.raises(ChainTooShort):
            build_or_chain(g, 0, (1,))

    def test_stages_link_by_output(self):
        _, handle = fresh_chain(4)
        for prev, nxt in zip(handle.stages, handle.stages[1:]):
            assert nxt.left == prev.collector
        assert handle.output == handle.stages[-1].collector

    def test_inputs_and_anchor_gain_no_out_edges(self):
        g = DiGraph(3)
        before = [g.out_degree(v) for v in range(3)]
        build_or_chain(g, 0, (1, 2))
        assert [g.out_degree(v) for v in range(3)] == before


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

    def test_malformed_handle_not_unique(self):
        _, handle = fresh_chain(3)
        tampered = dataclasses.replace(handle, stages=handle.stages[:1])
        with pytest.raises(NotUnique):
            forced_extension(tampered, (True, False, False))


def test_stage_names_cover_internals():
    _, handle = fresh_chain(3)
    names = stage_names(handle, prefix="g.")
    assert set(names) == set(handle.internal)
    assert names[handle.output] == "g.s2.out"
