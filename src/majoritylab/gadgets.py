"""OR-forcing gadgets for 2-colorings read as truths against an anchor.

A binary gadget on inputs (x, y) with anchor T adds four fresh vertices:
three negators and a collector.  Each negator has a single out-edge (to
x, to y, and to T respectively), so the majority condition forces it to
the color opposite its target.  The collector points at the three
negators; with out-degree 3 at most one of those edges may be
monochromatic, which pins the collector to the minority color of its
targets - exactly the truth value x OR y.  Chains extend this to k
inputs one stage at a time: each new stage ORs the previous output with
the next input.

Whether this topology really forces OR is never assumed: it is checked
by :func:`verify_or_semantics`, which exhaustively enumerates every
internal assignment for every input precoloring.
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple, Sequence

from .errors import TooLarge
from .graph import MAX_VERTICES, DiGraph, VertexId
from .majority import monochromatic

#: Refuse exhaustive semantics checks beyond this many internal vertices.
DEFAULT_EXHAUSTION_BOUND = 24


class GadgetStage(NamedTuple):
    """One binary stage of a chain: two inputs, three negators, a collector."""

    left: VertexId
    right: VertexId
    neg_left: VertexId
    neg_right: VertexId
    neg_anchor: VertexId
    collector: VertexId

    @property
    def fresh(self) -> tuple[VertexId, VertexId, VertexId, VertexId]:
        return (self.neg_left, self.neg_right, self.neg_anchor, self.collector)


class _GadgetHandleFields(NamedTuple):
    anchor: VertexId
    stages: tuple[GadgetStage, ...]


class GadgetHandle(_GadgetHandleFields):
    """A built OR chain: its anchor and its binary stages, in order.

    Stage s ORs the previous stage's collector with input s+1, so the
    inputs, the output and the internal vertices all follow from the
    stages; the constructor, ``_make`` and ``_replace`` reject stages that
    do not form such a chain.
    """

    __slots__ = ()

    def __new__(cls, anchor: VertexId, stages: tuple[GadgetStage, ...]) -> "GadgetHandle":
        if not stages:
            raise ValueError("a gadget needs at least one stage")
        for prev, stage in zip(stages, stages[1:]):
            if stage.left != prev.collector:
                raise ValueError("a stage's left input is not the previous collector")
        fresh = [v for stage in stages for v in stage.fresh]
        if len(set(fresh)) != len(fresh):
            raise ValueError("a fresh vertex id repeats across stages")
        return tuple.__new__(cls, (anchor, stages))

    @classmethod
    def _make(cls, fields: Iterable) -> "GadgetHandle":
        return cls(*fields)

    @property
    def inputs(self) -> tuple[VertexId, ...]:
        return (self.stages[0].left, *(s.right for s in self.stages))

    @property
    def output(self) -> VertexId:
        return self.stages[-1].collector

    @property
    def internal(self) -> frozenset[VertexId]:
        return frozenset(v for stage in self.stages for v in stage.fresh)

    @property
    def internal_order(self) -> tuple[VertexId, ...]:
        """The internal vertices in topological order, sources first.

        (collector, neg_left) runs from the last stage back, as each left
        negator points at the previous collector; the right and anchor
        negators, with no internal out-edge, follow stage by stage.
        """
        back = (v for s in reversed(self.stages) for v in (s.collector, s.neg_left))
        rest = (v for s in self.stages for v in (s.neg_right, s.neg_anchor))
        return (*back, *rest)

    @property
    def members(self) -> frozenset[VertexId]:
        """The whole gadget vertex set: anchor, inputs and internals."""
        return self.internal | frozenset(self.inputs) | {self.anchor}


class PrecoloringOutcome(NamedTuple):
    inputs: tuple[bool, ...]
    extension_exists: bool
    extension_unique: bool
    output_truth: bool | None


class SemanticsReport(NamedTuple):
    """Exhaustive truth table of a gadget over all input precolorings."""

    outcomes: tuple[PrecoloringOutcome, ...]
    is_or: bool


def build_or2(
    g: DiGraph, anchor: VertexId, first: VertexId, second: VertexId
) -> GadgetHandle:
    """Attach a binary OR gadget; adds 4 vertices and 6 edges."""
    return build_or_chain(g, anchor, (first, second))


def build_or_chain(
    g: DiGraph, anchor: VertexId, inputs: Sequence[VertexId]
) -> GadgetHandle:
    """Attach a chained OR gadget over k >= 2 inputs.

    Stage s ORs the previous stage's output with input s+1, so a chain
    over k inputs has k-1 stages, 4(k-1) internal vertices and 6(k-1)
    edges.  Each stage creates its fresh vertices in the order
    (neg_left, neg_right, neg_anchor, collector); the last collector is
    the output.  All arguments, and the size cap, are checked first.
    """
    inputs = tuple(inputs)
    if len(inputs) < 2:
        raise ValueError(f"chained OR needs at least 2 inputs, got {len(inputs)}")
    size = g.vertex_count + 4 * (len(inputs) - 1)
    if size > MAX_VERTICES:
        raise TooLarge(f"the graph would reach {size} vertices, past the cap {MAX_VERTICES}")
    if len(set(inputs)) != len(inputs):
        raise ValueError("chain inputs must be distinct")
    if anchor in inputs:
        raise ValueError("the anchor cannot be a chain input")
    for v in (anchor, *inputs):
        if not 0 <= v < g.vertex_count:
            raise ValueError(f"vertex {v} does not exist")
    stages: list[GadgetStage] = []
    left = inputs[0]
    for right in inputs[1:]:
        neg_left = g.add_vertex()
        neg_right = g.add_vertex()
        neg_anchor = g.add_vertex()
        collector = g.add_vertex()
        g.add_edge(neg_left, left)
        g.add_edge(neg_right, right)
        g.add_edge(neg_anchor, anchor)
        g.add_edge(collector, neg_left)
        g.add_edge(collector, neg_right)
        g.add_edge(collector, neg_anchor)
        stages.append(
            GadgetStage(left, right, neg_left, neg_right, neg_anchor, collector)
        )
        left = collector
    return GadgetHandle(anchor, tuple(stages))


def is_valid_gadget(g: DiGraph, handle: GadgetHandle) -> bool:
    """True iff no internal vertex has an out-edge leaving the gadget."""
    members = handle.members
    return all(t in members for w in handle.internal for t in g.out(w))


def check_exhaustion_bound(internal_count: int) -> None:
    """Raise ``TooLarge`` if ``internal_count`` internals are too many to exhaust."""
    if internal_count > DEFAULT_EXHAUSTION_BOUND:
        raise TooLarge(
            f"{internal_count} internal vertices exceed the exhaustion bound "
            f"{DEFAULT_EXHAUSTION_BOUND}"
        )


def verify_or_semantics(g: DiGraph, handle: GadgetHandle) -> SemanticsReport:
    """Exhaustively check the gadget's forcing behaviour.

    For each of the 2^k input precolorings (anchor colored 0, inputs
    colored by truth) this enumerates all 2^|internal| assignments of the
    internal vertices and keeps those where every internal vertex meets
    the majority condition over its out-edges.  Only internal vertices
    are checked: validity confines their out-edges to the gadget, so
    their satisfaction is decided entirely by gadget members, while the
    inputs and the anchor may have arbitrary out-edges elsewhere.
    """
    if not is_valid_gadget(g, handle):
        raise ValueError("gadget is not valid: internal out-edge leaves the gadget")
    internal = sorted(handle.internal)
    check_exhaustion_bound(len(internal))
    targets = [(w, g.out(w)) for w in internal]
    # Indexed by the graph's own ids; the anchor keeps color 0 throughout.
    colors = [0] * g.vertex_count
    outcomes: list[PrecoloringOutcome] = []
    for pre in itertools.product((False, True), repeat=len(handle.inputs)):
        for u, truth in zip(handle.inputs, pre):
            colors[u] = 0 if truth else 1
        extension_count = 0
        output_truths: set[bool] = set()
        for mask in range(1 << len(internal)):
            for bit, w in enumerate(internal):
                colors[w] = (mask >> bit) & 1
            for w, outs in targets:
                if 2 * monochromatic(colors, w, outs) > len(outs):
                    break
            else:
                extension_count += 1
                output_truths.add(colors[handle.output] == 0)
        output_truth = output_truths.pop() if len(output_truths) == 1 else None
        outcomes.append(
            PrecoloringOutcome(
                inputs=pre,
                extension_exists=extension_count > 0,
                extension_unique=extension_count == 1,
                output_truth=output_truth,
            )
        )
    is_or = all(
        o.extension_exists and o.output_truth == any(o.inputs) for o in outcomes
    )
    return SemanticsReport(tuple(outcomes), is_or)


def forced_extension(
    handle: GadgetHandle, input_truths: Sequence[bool]
) -> dict[VertexId, bool]:
    """The unique internal truth assignment for the given input truths.

    Per stage: both negators take the negation of their target's truth,
    the anchor negator is false, and the collector takes the OR of the
    stage inputs.  The tests check against :func:`verify_or_semantics`
    that no other extension exists.
    """
    if len(input_truths) != len(handle.inputs):
        raise ValueError(
            f"expected {len(handle.inputs)} input truths, got {len(input_truths)}"
        )
    truths: dict[int, bool] = {}
    left = bool(input_truths[0])
    for stage, right in zip(handle.stages, map(bool, input_truths[1:])):
        truths[stage.neg_left] = not left
        truths[stage.neg_right] = not right
        truths[stage.neg_anchor] = False
        truths[stage.collector] = left or right
        left = truths[stage.collector]
    return truths


def stage_names(handle: GadgetHandle, prefix: str = "") -> dict[VertexId, str]:
    """Human-readable role names for the gadget's internal vertices."""
    names: dict[int, str] = {}
    for s, stage in enumerate(handle.stages, 1):
        names[stage.neg_left] = f"{prefix}s{s}.negx"
        names[stage.neg_right] = f"{prefix}s{s}.negy"
        names[stage.neg_anchor] = f"{prefix}s{s}.negt"
        names[stage.collector] = f"{prefix}s{s}.out"
    return names
