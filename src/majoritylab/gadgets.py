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
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import ChainTooShort, NotUnique, TooLarge
from .graph import DiGraph, VertexId
from .majority import monochromatic

#: Refuse exhaustive semantics checks beyond this many internal vertices.
DEFAULT_EXHAUSTION_BOUND = 24


@dataclass(frozen=True)
class GadgetStage:
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


@dataclass(frozen=True)
class GadgetHandle:
    """Records a built gadget: anchor, ordered inputs, output, internals."""

    anchor: VertexId
    inputs: tuple[VertexId, ...]
    output: VertexId
    internal: frozenset[VertexId]
    stages: tuple[GadgetStage, ...]

    @property
    def members(self) -> frozenset[VertexId]:
        """The whole gadget vertex set: anchor, inputs and internals."""
        return self.internal | frozenset(self.inputs) | {self.anchor}


class PrecoloringOutcome(NamedTuple):
    inputs: tuple[bool, ...]
    extension_exists: bool
    extension_unique: bool
    output_truth: bool | None


@dataclass(frozen=True)
class SemanticsReport:
    """Exhaustive truth table of a gadget over all input precolorings."""

    outcomes: tuple[PrecoloringOutcome, ...]
    is_or: bool


def build_or2(
    g: DiGraph, anchor: VertexId, first: VertexId, second: VertexId
) -> GadgetHandle:
    """Attach a binary OR gadget; adds 4 vertices and 6 edges.

    Fresh vertices are created in the order (neg_left, neg_right,
    neg_anchor, collector); the collector is the output.
    """
    if len({anchor, first, second}) != 3:
        raise ValueError("anchor and the two inputs must be distinct")
    for v in (anchor, first, second):
        if not 0 <= v < g.vertex_count:
            raise ValueError(f"vertex {v} does not exist")
    neg_left = g.add_vertex()
    neg_right = g.add_vertex()
    neg_anchor = g.add_vertex()
    collector = g.add_vertex()
    g.add_edge(neg_left, first)
    g.add_edge(neg_right, second)
    g.add_edge(neg_anchor, anchor)
    g.add_edge(collector, neg_left)
    g.add_edge(collector, neg_right)
    g.add_edge(collector, neg_anchor)
    stage = GadgetStage(first, second, neg_left, neg_right, neg_anchor, collector)
    return GadgetHandle(
        anchor=anchor,
        inputs=(first, second),
        output=collector,
        internal=frozenset(stage.fresh),
        stages=(stage,),
    )


def build_or_chain(
    g: DiGraph, anchor: VertexId, inputs: Sequence[VertexId]
) -> GadgetHandle:
    """Attach a chained OR gadget over k >= 2 inputs.

    Stage s ORs the previous stage's output with input s+1, so a chain
    over k inputs has k-1 stages, 4(k-1) internal vertices and 6(k-1)
    edges.  For k = 2 this is exactly :func:`build_or2`.
    """
    inputs = tuple(inputs)
    if len(inputs) < 2:
        raise ChainTooShort(f"chained OR needs at least 2 inputs, got {len(inputs)}")
    if len(set(inputs)) != len(inputs):
        raise ValueError("chain inputs must be distinct")
    if anchor in inputs:
        raise ValueError("the anchor cannot be a chain input")
    handle = build_or2(g, anchor, inputs[0], inputs[1])
    for nxt in inputs[2:]:
        stage = build_or2(g, anchor, handle.output, nxt)
        handle = GadgetHandle(
            anchor=anchor,
            inputs=handle.inputs + (nxt,),
            output=stage.output,
            internal=handle.internal | stage.internal,
            stages=handle.stages + stage.stages,
        )
    return handle


def is_valid_gadget(g: DiGraph, handle: GadgetHandle) -> bool:
    """True iff no internal vertex has an out-edge leaving the gadget."""
    members = handle.members
    return all(t in members for w in handle.internal for t in g.out(w))


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
    if len(internal) > DEFAULT_EXHAUSTION_BOUND:
        raise TooLarge(
            f"{len(internal)} internal vertices exceed the exhaustion bound "
            f"{DEFAULT_EXHAUSTION_BOUND}"
        )
    members = sorted(handle.members)
    local = {v: i for i, v in enumerate(members)}
    targets = [(local[w], [local[t] for t in g.out(w)]) for w in internal]
    internal_local = [local[w] for w in internal]
    anchor_local = local[handle.anchor]
    inputs_local = [local[u] for u in handle.inputs]
    output_local = local[handle.output]

    k = len(handle.inputs)
    outcomes: list[PrecoloringOutcome] = []
    colors = [0] * len(members)
    for pre in itertools.product((False, True), repeat=k):
        colors[anchor_local] = 0
        for u, truth in zip(inputs_local, pre):
            colors[u] = 0 if truth else 1
        extension_count = 0
        output_truths: set[bool] = set()
        for mask in range(1 << len(internal)):
            for bit, w in enumerate(internal_local):
                colors[w] = (mask >> bit) & 1
            for w, outs in targets:
                if 2 * monochromatic(colors, w, outs) > len(outs):
                    break
            else:
                extension_count += 1
                output_truths.add(colors[output_local] == 0)
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


# The closed-form extension below is only trusted after the exhaustive
# oracle has confirmed, once per process, that the binary stage topology
# really forces a unique extension for all four precolorings.  Chains
# inherit this stage by stage: every stage is a binary gadget on the
# previous output and the next input.
_STAGE_CERTIFIED: bool | None = None


def _certify_binary_stage() -> None:
    global _STAGE_CERTIFIED
    if _STAGE_CERTIFIED is None:
        scratch = DiGraph(3)
        handle = build_or2(scratch, 0, 1, 2)
        report = verify_or_semantics(scratch, handle)
        _STAGE_CERTIFIED = report.is_or and all(
            o.extension_unique for o in report.outcomes
        )
    if not _STAGE_CERTIFIED:
        raise NotUnique(
            "the binary stage failed oracle certification; "
            "no closed-form extension is available"
        )


def _check_chain_shape(handle: GadgetHandle) -> None:
    stages = handle.stages
    if len(handle.inputs) < 2 or len(stages) != len(handle.inputs) - 1:
        raise NotUnique("handle does not describe a builder-produced chain")
    fresh: list[int] = []
    for s, stage in enumerate(stages):
        expected_left = handle.inputs[0] if s == 0 else stages[s - 1].collector
        if stage.left != expected_left or stage.right != handle.inputs[s + 1]:
            raise NotUnique("stage inputs do not follow the chain layout")
        fresh.extend(stage.fresh)
    if len(set(fresh)) != len(fresh) or set(fresh) != set(handle.internal):
        raise NotUnique("stage vertex records do not match the internal set")
    if handle.output != stages[-1].collector:
        raise NotUnique("output is not the last stage's collector")


def forced_extension(
    handle: GadgetHandle, input_truths: Sequence[bool]
) -> dict[VertexId, bool]:
    """The unique internal truth assignment for the given input truths.

    Per stage: both negators take the negation of their target's truth,
    the anchor negator is false, and the collector takes the OR of the
    stage inputs.  Raises NotUnique when the handle does not have the
    certified chain shape.
    """
    if len(input_truths) != len(handle.inputs):
        raise ValueError(
            f"expected {len(handle.inputs)} input truths, got {len(input_truths)}"
        )
    _check_chain_shape(handle)
    _certify_binary_stage()
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
