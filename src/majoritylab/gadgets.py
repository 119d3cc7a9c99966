"""OR-forcing gadgets for 2-colorings read as truths against an anchor.

A binary gadget on inputs (x, y) with anchor T adds four fresh vertices:
three negators and a collector.  Each negator has a single out-edge (to
x, to y, and to T respectively), so the majority condition forces it to
the color opposite its target.  The collector points at the three
negators; with out-degree 3 at most one of those edges may be
monochromatic, which pins the collector to the minority color of its
targets - exactly the truth value x OR y.  Chains extend this to k
inputs one stage at a time, each ORing the previous output with the next
input; a built chain is its anchor, its inputs and its first fresh id.

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
    inputs: tuple[VertexId, ...]
    first: VertexId


class GadgetHandle(_GadgetHandleFields):
    """A built OR chain: its anchor, its k >= 2 inputs and its first fresh id.

    Stage s ORs the previous collector with input s+1 and owns the fresh
    ids first+4s .. first+4s+3, so the stages, the output and the internal
    vertices all follow.  ``_make`` and ``_replace`` go through the
    constructor, which stores the inputs as a tuple and refuses fewer than two.
    """

    __slots__ = ()

    def __new__(cls, anchor: VertexId, inputs: Iterable, first: VertexId) -> "GadgetHandle":
        inputs = tuple(inputs)
        if len(inputs) < 2:
            raise ValueError("a gadget needs at least one stage")
        return tuple.__new__(cls, (anchor, inputs, first))

    @classmethod
    def _make(cls, fields: Iterable) -> "GadgetHandle":
        return cls(*fields)

    @property
    def stages(self) -> tuple[GadgetStage, ...]:
        stages = []
        left = self.inputs[0]
        for right, v in zip(self.inputs[1:], range(self.first, self.output, 4)):
            stages.append(GadgetStage(left, right, v, v + 1, v + 2, v + 3))
            left = v + 3
        return tuple(stages)

    @property
    def output(self) -> VertexId:
        return self.first + 4 * len(self.inputs) - 5

    @property
    def internal(self) -> frozenset[VertexId]:
        return frozenset(range(self.first, self.output + 1))

    @property
    def internal_order(self) -> tuple[VertexId, ...]:
        """The internal vertices in topological order, sources first.

        (collector, neg_left) runs from the last stage back, as each left
        negator points at the previous collector; the right and anchor
        negators, with no internal out-edge, follow stage by stage.
        """
        starts = range(self.first, self.output, 4)
        back = (v for s in reversed(starts) for v in (s + 3, s))
        rest = (v for s in starts for v in (s + 1, s + 2))
        return (*back, *rest)

    @property
    def members(self) -> frozenset[VertexId]:
        """The whole gadget vertex set: anchor, inputs and internals."""
        return self.internal | frozenset(self.inputs) | {self.anchor}


class PrecoloringOutcome(NamedTuple):
    """One input precoloring: how many internal extensions it has, and the
    output truth they share (``None`` when there are none or they differ)."""

    inputs: tuple[bool, ...]
    extensions: int
    output_truth: bool | None

    @property
    def extension_exists(self) -> bool:
        return self.extensions > 0

    @property
    def extension_unique(self) -> bool:
        return self.extensions == 1


class SemanticsReport(NamedTuple):
    """Exhaustive truth table of a gadget over all input precolorings."""

    outcomes: tuple[PrecoloringOutcome, ...]

    @property
    def is_or(self) -> bool:
        """Every precoloring extends, and every extension outputs the OR."""
        return all(
            o.extension_exists and o.output_truth == any(o.inputs)
            for o in self.outcomes
        )


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
    the output.  All arguments, and the size cap, are checked first; then
    the chain, simple by construction, is appended in one batch.
    """
    inputs = tuple(inputs)
    if len(inputs) < 2:
        raise ValueError(f"chained OR needs at least 2 inputs, got {len(inputs)}")
    n = g.vertex_count
    size = n + 4 * (len(inputs) - 1)
    if size > MAX_VERTICES:
        raise TooLarge(f"the graph would reach {size} vertices, past the cap {MAX_VERTICES}")
    if len(set(inputs)) != len(inputs):
        raise ValueError("chain inputs must be distinct")
    if anchor in inputs:
        raise ValueError("the anchor cannot be a chain input")
    for v in (anchor, *inputs):
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} does not exist")
    out_lists: list[list[VertexId]] = []
    _lay_out_chain(out_lists, anchor, inputs, n)
    g._append_simple(out_lists)
    return GadgetHandle(anchor, inputs, n)


def _lay_out_chain(
    out_lists: list[list[VertexId]],
    anchor: VertexId,
    inputs: Sequence[VertexId],
    first: VertexId,
) -> None:
    """Extend ``out_lists`` by the chain's 4(k-1) out-lists, fresh ids from ``first``.

    Stage s's lists are (neg_left, neg_right, neg_anchor, collector); each
    left input is the previous collector.  Nothing is checked.
    """
    left = inputs[0]
    for right, v in zip(inputs[1:], range(first, first + 4 * len(inputs) - 4, 4)):
        out_lists += ([left], [right], [anchor], [v, v + 1, v + 2])
        left = v + 3


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
    first, output = handle.first, handle.output
    m = output + 1 - first
    check_exhaustion_bound(m)
    targets = [(w, g.out(w)) for w in range(first, output + 1)]
    # Indexed by the graph's own ids; the anchor keeps color 0 throughout.
    colors = [0] * g.vertex_count
    outcomes: list[PrecoloringOutcome] = []
    for pre in itertools.product((False, True), repeat=len(handle.inputs)):
        for u, truth in zip(handle.inputs, pre):
            colors[u] = 0 if truth else 1
        extension_count = 0
        output_truths: set[bool] = set()
        for assignment in itertools.product((0, 1), repeat=m):
            # A chain's internals are the contiguous ids first .. output.
            colors[first:output + 1] = assignment
            for w, outs in targets:
                if 2 * monochromatic(colors, w, outs) > len(outs):
                    break
            else:
                extension_count += 1
                output_truths.add(colors[handle.output] == 0)
        output_truth = output_truths.pop() if len(output_truths) == 1 else None
        outcomes.append(PrecoloringOutcome(pre, extension_count, output_truth))
    return SemanticsReport(tuple(outcomes))


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
