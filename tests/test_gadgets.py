import itertools
import random

import pytest

from helpers import gadget_internal_sort
from majoritylab import gadgets
from majoritylab.counterexample import build_truncation
from majoritylab.errors import TooLarge
from majoritylab.gadgets import (
    DEFAULT_EXHAUSTION_BOUND,
    GadgetHandle,
    PrecoloringOutcome,
    SemanticsReport,
    build_or2,
    build_or_chain,
    forced_extension,
    is_valid_gadget,
    stage_names,
    verify_or_semantics,
)
from majoritylab.graph import DiGraph, topological_sort
from majoritylab.majority import (
    brute_force_majority_colorings,
    enumerate_majority_colorings,
)


def fresh_chain(k):
    g = DiGraph(k + 1)
    handle = build_or_chain(g, 0, tuple(range(1, k + 1)))
    return g, handle


def without_edge(g, drop):
    """A copy of ``g`` without the edge ``drop``."""
    mutant = DiGraph(g.vertex_count)
    for edge in g.sorted_edges():
        if edge != drop:
            mutant.add_edge(*edge)
    return mutant


def reference_chain(g, anchor, inputs):
    """The chain built one ``add_vertex`` and one ``add_edge`` at a time.

    Each stage creates (neg_left, neg_right, neg_anchor, collector) and
    adds the negator edges, then the collector's, as the builder lays
    them out.  Returns its stages as plain id tuples
    ``(left, right, neg_left, neg_right, neg_anchor, collector)``,
    independent of the handle's id arithmetic.
    """
    stages = []
    left = inputs[0]
    for right in inputs[1:]:
        neg_left, neg_right, neg_anchor, collector = (g.add_vertex() for _ in range(4))
        g.add_edge(neg_left, left)
        g.add_edge(neg_right, right)
        g.add_edge(neg_anchor, anchor)
        g.add_edge(collector, neg_left)
        g.add_edge(collector, neg_right)
        g.add_edge(collector, neg_anchor)
        stages.append((left, right, neg_left, neg_right, neg_anchor, collector))
        left = collector
    return tuple(stages)


def fresh_stages(k):
    """The reference stages of ``fresh_chain(k)``, built on a graph of their own."""
    return reference_chain(DiGraph(k + 1), 0, tuple(range(1, k + 1)))


def assert_roles_match(handle, stages):
    """``stage_names`` and ``forced_extension`` agree with the reference stages.

    The names and truths are derived here from the stages' own ids: each
    negator takes the negation of its target, the anchor negator is false
    and each collector takes the OR of its stage's two inputs.
    """
    assert handle.output == stages[-1][-1]
    assert handle.internal == frozenset(v for stage in stages for v in stage[2:])
    names = {
        v: f"g.s{s}.{role}"
        for s, stage in enumerate(stages, 1)
        for v, role in zip(stage[2:], ("negx", "negy", "negt", "out"))
    }
    assert stage_names(handle, prefix="g.") == names
    for pre in itertools.product((False, True), repeat=len(handle.inputs)):
        truths = dict(zip(handle.inputs, pre))
        expected = {}
        for left, right, neg_left, neg_right, neg_anchor, collector in stages:
            expected[neg_left] = not truths[left]
            expected[neg_right] = not truths[right]
            expected[neg_anchor] = False
            expected[collector] = truths[collector] = truths[left] or truths[right]
        assert list(forced_extension(handle, pre).items()) == list(expected.items())


def engine_outcomes(g, handle):
    """``(inputs, extensions, output_truth)`` per precoloring, from the search engine.

    The anchor is pinned to 0 and each input to 0 iff true.  With the
    inputs and the anchor sinks, the engine checks exactly the internals.
    """
    rows = []
    for pre in itertools.product((False, True), repeat=len(handle.inputs)):
        fixed = {handle.anchor: 0}
        fixed.update((u, 0 if t else 1) for u, t in zip(handle.inputs, pre))
        found = enumerate_majority_colorings(g, 2, fixed=fixed)
        truths = {c.colors[handle.output] == 0 for c in found}
        rows.append((pre, len(found), truths.pop() if len(truths) == 1 else None))
    return rows


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
        ((_, _, *negators, collector),) = fresh_stages(2)
        assert handle.output == collector
        assert g.out_degree(handle.output) == 3
        for v in negators:
            assert g.out_degree(v) == 1

    def test_internal_edges_stay_inside(self):
        g, handle = fresh_chain(2)
        for w in handle.internal:
            for t in g.out(w):
                assert t in handle.members

    def test_chain_three_counts(self):
        g, handle = fresh_chain(3)
        assert handle.output == fresh_stages(3)[1][-1]
        assert len(handle.internal) == 8
        assert g.edge_count == 12

    def test_chain_five_counts(self):
        g, handle = fresh_chain(5)
        assert len(stage_names(handle)) == len(handle.internal) == 16
        assert stage_names(handle)[handle.output] == "s4.out"

    def test_chain_two_is_binary(self):
        g1, _ = fresh_chain(2)
        g2 = DiGraph(3)
        build_or2(g2, 0, 1, 2)
        assert g1 == g2

    def test_chain_too_short(self):
        g = DiGraph(2)
        with pytest.raises(ValueError, match="at least 2 inputs, got 1"):
            build_or_chain(g, 0, (1,))

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

    @pytest.mark.parametrize("k", range(2, 9))
    def test_batch_matches_one_edge_at_a_time(self, k):
        # Appended to G_4, which already has vertices and edges, over k
        # inputs drawn from its non-anchor vertices in a scrambled order.
        g, spec = build_truncation(4)
        ref, _ = build_truncation(4)
        candidates = [v for v in range(g.vertex_count) if v != spec.anchor]
        inputs = tuple(random.Random(k).sample(candidates, k))
        handle = build_or_chain(g, spec.anchor, inputs)
        stages = reference_chain(ref, spec.anchor, inputs)
        assert g.adjacency == ref.adjacency  # each out-list in the same order
        assert (handle.anchor, handle.inputs) == (spec.anchor, inputs)
        assert_roles_match(handle, stages)
        assert handle.internal_order == (
            *(v for s in reversed(stages) for v in (s[5], s[2])),
            *(v for s in stages for v in (s[3], s[4])),
        )
        # The appended lists stay under add_edge's simple-graph rule.
        _, right, _, neg_right, neg_anchor, collector = stages[-1]
        with pytest.raises(ValueError, match="already present"):
            g.add_edge(collector, neg_anchor)
        with pytest.raises(ValueError, match="already present"):
            g.add_edge(neg_right, right)

    def test_gapped_inputs_match_the_reference(self):
        g, ref = DiGraph(8), DiGraph(8)
        handle = build_or_chain(g, 0, (6, 2, 4))
        stages = reference_chain(ref, 0, (6, 2, 4))
        assert g == ref
        assert [stage[:2] for stage in stages] == [(6, 2), (stages[0][-1], 4)]
        assert_roles_match(handle, stages)

    def test_registry_handles_match_the_reference(self):
        # Each G_6 chain rebuilt on its own, on a graph of the ids before
        # it: the same fresh ids, the same out-lists and the same roles.
        g, spec = build_truncation(6)
        for handle in spec.gadget_registry.values():
            ref = DiGraph(handle.first)
            stages = reference_chain(ref, handle.anchor, handle.inputs)
            assert ref.vertex_count == handle.output + 1
            for w in handle.internal:
                assert list(g.out(w)) == list(ref.out(w))
            assert_roles_match(handle, stages)

    def test_chain_drops_the_stored_order(self):
        g, spec = build_truncation(4)
        topological_sort(g)
        build_or_chain(g, spec.anchor, (0, 2, 3))
        fresh = DiGraph(g.vertex_count)
        for u, v in g.sorted_edges():
            fresh.add_edge(u, v)
        assert topological_sort(g) == topological_sort(fresh)


class TestHandleShape:
    def test_handle_holds_anchor_inputs_and_first_only(self):
        assert GadgetHandle._fields == ("anchor", "inputs", "first")

    def test_members(self):
        _, handle = fresh_chain(3)
        assert handle.members == frozenset(range(4)) | handle.internal

    def test_empty_stages_rejected(self):
        for inputs in ((), (1,)):
            with pytest.raises(ValueError, match="at least one stage"):
                GadgetHandle(0, inputs, 2)

    @pytest.mark.parametrize("build", [
        lambda h, inputs: GadgetHandle(h.anchor, inputs, h.first),
        lambda h, inputs: GadgetHandle._make((h.anchor, inputs, h.first)),
        lambda h, inputs: h._replace(inputs=inputs),
    ], ids=["constructor", "_make", "_replace"])
    def test_every_way_in_checks_the_stages(self, build):
        _, handle = fresh_chain(3)
        with pytest.raises(ValueError, match="at least one stage"):
            build(handle, (1,))
        rebuilt = build(handle, list(handle.inputs))  # a list is stored as a tuple
        assert rebuilt == handle and type(rebuilt.inputs) is tuple

    @pytest.mark.parametrize("k", range(2, 9))
    def test_built_chain_passes_the_check(self, k):
        # Fresh ids start at the graph's old vertex count.
        _, handle = fresh_chain(k)
        assert type(handle) is GadgetHandle and GadgetHandle(*handle) == handle
        assert (handle.first, len(handle.internal)) == (k + 1, 4 * (k - 1))

    @pytest.mark.parametrize("n", range(2, 11))
    def test_registry_handles_pass_the_check(self, n):
        # Each handle's ids begin right after the previous handle's (the
        # first's right after the path and the anchor), as G_n is laid out.
        g, spec = build_truncation(n)
        end = n + 1
        for handle in spec.gadget_registry.values():
            assert handle.first == min(handle.internal) == end
            end = handle.output + 1
        assert end == g.vertex_count

    def test_handle_is_read_only(self):
        _, handle = fresh_chain(2)
        with pytest.raises(AttributeError):
            handle.first = 0
        with pytest.raises(AttributeError):
            handle.note = "x"

    @pytest.mark.parametrize("k", range(2, 13))
    def test_internal_order_matches_sort(self, k):
        g, handle = fresh_chain(k)
        assert list(handle.internal_order) == gadget_internal_sort(g, handle)

    def test_prefix_of_stages_is_a_shorter_chain(self):
        _, handle = fresh_chain(4)
        short = handle._replace(inputs=handle.inputs[:3])
        assert_roles_match(short, fresh_stages(4)[:2])
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

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_outcomes_match_brute_force(self, k):
        # Independent of both the gadget loop and the search engine: all
        # majority 2-colorings of the isolated chain (7, 12, 17, 22 vertices)
        # with the anchor colored 0, grouped by their input truths.  The
        # anchor and the inputs are sinks here, so they constrain nothing.
        g, handle = fresh_chain(k)
        assert g.vertex_count == 5 * k - 3
        outputs = {pre: [] for pre in itertools.product((False, True), repeat=k)}
        for c in brute_force_majority_colorings(g, 2):
            if c.colors[handle.anchor] == 0:
                # With the anchor at color 0, a vertex is true iff it has color 0.
                inputs = tuple(c.colors[u] == 0 for u in handle.inputs)
                outputs[inputs].append(c.colors[handle.output] == 0)
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

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_extension_counts_match_the_engine(self, k):
        g, handle = fresh_chain(k)
        report = verify_or_semantics(g, handle)
        assert [
            (o.inputs, o.extensions, o.output_truth) for o in report.outcomes
        ] == engine_outcomes(g, handle)
        assert all(o.extensions == 1 for o in report.outcomes)

    @pytest.mark.parametrize("k, ones, twos", [(2, 6, 18), (3, 26, 70)])
    def test_edge_drop_mutants_match_the_engine(self, k, ones, twos):
        # Dropping one of the 6(k-1) edges frees a vertex or loosens a
        # collector, so some precolorings gain a second extension.
        g, handle = fresh_chain(k)
        edges = list(g.sorted_edges())
        assert len(edges) == 6 * (k - 1)
        counts = []
        for drop in edges:
            mutant = without_edge(g, drop)
            report = verify_or_semantics(mutant, handle)
            rows = [(o.inputs, o.extensions, o.output_truth) for o in report.outcomes]
            assert rows == engine_outcomes(mutant, handle), drop
            counts += [o.extensions for o in report.outcomes]
        assert (counts.count(1), counts.count(2)) == (ones, twos)
        assert len(counts) == len(edges) << k

    def test_embedded_gadgets_match_isolated_chains(self):
        # In G_5 the inputs are path ids, the anchor is id 5 and the
        # internals sit past both, so no gadget's members are 0..V-1.
        g, spec = build_truncation(5)
        assert len(spec.gadget_registry) == 6
        for handle in spec.gadget_registry.values():
            assert sorted(handle.members) != list(range(len(handle.members)))
            isolated = verify_or_semantics(*fresh_chain(len(handle.inputs)))
            assert verify_or_semantics(g, handle).outcomes == isolated.outcomes

    def test_unsorted_gapped_inputs_match_an_isolated_chain(self):
        # Inputs out of id order with gaps between them, among vertices
        # that point into the gadget or are pointed at by its inputs: the
        # oracle must color the inputs in chain order and assign only the
        # internal block.  OR is symmetric in its inputs, so the chain is
        # also checked without stage 1's edge to its right input, which
        # leaves that input free and shows which input got which truth.
        g = DiGraph(8)
        for u, v in ((2, 1), (6, 7), (4, 3), (5, 0), (1, 4), (3, 6)):
            g.add_edge(u, v)
        handle = build_or_chain(g, 0, (6, 2, 4))
        assert handle.inputs == (6, 2, 4) and handle.first == 8
        last = g.add_vertex()
        for u, v in ((3, handle.first + 1), (7, handle.output), (last, handle.output),
                     (last, 2)):
            g.add_edge(u, v)
        assert is_valid_gadget(g, handle)
        fresh, fresh_handle = fresh_chain(3)
        report = verify_or_semantics(g, handle)
        assert report.is_or
        assert report == verify_or_semantics(fresh, fresh_handle)
        loose = verify_or_semantics(without_edge(g, (handle.first + 1, 2)), handle)
        loose_fresh = without_edge(fresh, (fresh_handle.first + 1, fresh_handle.inputs[1]))
        assert loose == verify_or_semantics(loose_fresh, fresh_handle)
        assert not loose.is_or

    def test_exhaustion_bound(self):
        # 7 stages, 28 internal vertices: refused before enumerating 2^36
        # assignments, so this returns at once.
        g, handle = fresh_chain(8)
        assert len(handle.internal) == 28 > DEFAULT_EXHAUSTION_BOUND
        with pytest.raises(TooLarge, match="28 internal vertices exceed"):
            verify_or_semantics(g, handle)

    def test_negators_oppose_their_target(self):
        g, handle = fresh_chain(2)
        ((_, _, neg_left, neg_right, neg_anchor, _),) = fresh_stages(2)
        for pre in itertools.product((False, True), repeat=2):
            ext = forced_extension(handle, pre)
            assert ext[neg_left] == (not pre[0])
            assert ext[neg_right] == (not pre[1])
            assert ext[neg_anchor] is False

    def test_broken_topology_is_detected(self):
        # Rewire the left negator to point at the anchor instead of its
        # input: the collector is no longer forced to the OR value.
        donor = DiGraph(3)
        handle = build_or2(donor, 0, 1, 2)
        g = DiGraph(3)
        for v in handle.internal:
            assert g.add_vertex() == v
        ((_, _, neg_left, neg_right, neg_anchor, collector),) = fresh_stages(2)
        g.add_edge(neg_left, 0)  # wrong target (anchor, not input 1)
        g.add_edge(neg_right, 2)
        g.add_edge(neg_anchor, 0)
        for neg in (neg_left, neg_right, neg_anchor):
            g.add_edge(collector, neg)
        report = verify_or_semantics(g, handle)
        assert not report.is_or


class TestDerivedVerdicts:
    def test_records_hold_only_their_data(self):
        assert PrecoloringOutcome._fields == ("inputs", "extensions", "output_truth")
        assert SemanticsReport._fields == ("outcomes",)

    @pytest.mark.parametrize("extensions, exists, unique", [
        (0, False, False), (1, True, True), (2, True, False),
    ])
    def test_outcome_verdicts_follow_the_count(self, extensions, exists, unique):
        outcome = PrecoloringOutcome((True, False), extensions, None)
        assert outcome.extension_exists is exists
        assert outcome.extension_unique is unique
        with pytest.raises(AttributeError):
            outcome.extension_unique = not unique

    @pytest.mark.parametrize("extensions, output_truth, is_or", [
        (1, True, True), (0, None, False), (1, False, False),
    ], ids=["or", "no-extension", "wrong-output"])
    def test_report_is_or_follows_the_outcomes(self, extensions, output_truth, is_or):
        good = PrecoloringOutcome((False, False), 1, False)
        last = PrecoloringOutcome((True, False), extensions, output_truth)
        report = SemanticsReport((good, last))
        assert report.is_or is is_or
        with pytest.raises(AttributeError):
            report.is_or = not is_or


class TestForcedExtension:
    def test_binary_examples(self):
        _, handle = fresh_chain(2)
        ((_, _, neg_left, neg_right, neg_anchor, collector),) = fresh_stages(2)
        ext = forced_extension(handle, (True, False))
        assert ext[neg_left] is False
        assert ext[neg_right] is True
        assert ext[neg_anchor] is False
        assert ext[collector] is True
        assert forced_extension(handle, (False, False))[collector] is False
        assert forced_extension(handle, (True, True))[collector] is True

    def test_chain_stage_outputs(self):
        _, handle = fresh_chain(3)
        first, second = (stage[-1] for stage in fresh_stages(3))
        ext = forced_extension(handle, (False, False, True))
        assert ext[first] is False
        assert ext[second] is True

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
