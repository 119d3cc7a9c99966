"""Symbolic majority checking of the full infinite construction.

A 2-coloring of the infinite path is described by a finite support: the
set of positions colored true (mode ``finite-true``) or the set colored
false (mode ``finite-false``), all others taking the opposite value.
For such a description the truth profile over any path vertex's
out-neighborhood (its successor plus the outputs of every gadget hooked
up to it) has a closed form with at most finitely many exceptions, so
the majority condition can be evaluated with counts that are integers
or ``math.inf`` (countably many).  Positions beyond the support behave
identically, which makes a finite sweep over positions exhaustive.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

from .errors import SweepFailure


class SupportMode(Enum):
    FINITE_TRUE = "finite-true"
    FINITE_FALSE = "finite-false"


@dataclass(frozen=True)
class SupportColoring:
    """A path coloring given by a finite exceptional set of positions."""

    mode: SupportMode
    support: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "support", frozenset(self.support))
        if any(p < 1 for p in self.support):
            raise ValueError("support positions are 1-based")

    def truth(self, position: int) -> bool:
        if position < 1:
            raise ValueError("path positions are 1-based")
        inside = position in self.support
        return inside if self.mode is SupportMode.FINITE_TRUE else not inside

    def next_true(self, position: int) -> int | None:
        """Smallest true position >= position, or None when there is none."""
        if position < 1:
            raise ValueError("path positions are 1-based")
        if self.mode is SupportMode.FINITE_TRUE:
            return min((p for p in self.support if p >= position), default=None)
        while position in self.support:
            position += 1
        return position

    @property
    def stationary_from(self) -> int:
        """First position from which truth and out-profile no longer change."""
        return (max(self.support) if self.support else 0) + 2

    def __str__(self) -> str:
        positions = ",".join(str(p) for p in sorted(self.support))
        return f"{self.mode.value}{{{positions}}}"


def out_profile(
    position: int, d: SupportColoring
) -> tuple[int | float, int | float]:
    """(true_count, false_count) over v_position's out-neighbors in the full graph.

    The out-neighbors are the successor v_{position+1} and, for every
    j >= position+2, the output of the gadget over (v_{position+1}, ..., v_j),
    whose truth is the OR of the truths on that interval.  Once j passes
    the support, the output truth is constant, so one of the two counts
    is always ``math.inf``.  Two infinite counts compare equal under
    ``>=``, the cardinality reading of the majority condition.
    """
    if position < 1:
        raise ValueError("path positions are 1-based")
    # The successor and every output whose interval stops short of the
    # next true position are false; all later outputs are true.
    first_true = d.next_true(position + 1)
    if first_true is None:
        return 0, math.inf
    return math.inf, first_true - position - 1


def check_symbolic(d: SupportColoring) -> int | None:
    """Smallest path position violating the majority condition, else None.

    Positions 1..stationary_from are checked explicitly; every later
    position has the same truth and the same out-profile as the last one,
    so the check is exhaustive for the whole infinite path.  Gadget
    internals are exempt: their forced extension always satisfies them,
    as established by the gadget oracle.
    """
    for position in range(1, d.stationary_from + 1):
        truth = d.truth(position)
        true_count, false_count = out_profile(position, d)
        mono = true_count if truth else false_count
        diff = false_count if truth else true_count
        if not diff >= mono:
            return position
    return None


COVERAGE_NOTE = (
    "Coverage: in any majority 2-coloring of the full construction, a true "
    "path position forces every later position false (its out-neighborhood "
    "would otherwise contain infinitely many true outputs against finitely "
    "many false ones).  Hence at most one position is true, so every "
    "candidate restricted to the path is a finite-true description with "
    "support size 0 or 1.  Singletons beyond the swept window behave like "
    "a swept singleton shifted by stationarity, with witness k+1 for "
    "support {k}.  Refuting all swept descriptions therefore refutes every "
    "candidate coloring."
)


@dataclass(frozen=True)
class SweepEntry:
    description: SupportColoring
    witness: int


@dataclass(frozen=True)
class SweepReport:
    max_support_size: int
    max_position: int
    entries: tuple[SweepEntry, ...]
    note: str


def theorem_sweep(max_support_size: int, max_position: int) -> SweepReport:
    """Check every support description within the bounds, in both modes.

    Descriptions are ordered by mode (finite-true first), then support
    size, then lexicographic support.  Raises SweepFailure on the first
    feasible description found; anything feasible would falsify the
    non-2-colorability claim or reveal an implementation bug.
    """
    if max_support_size < 0 or max_position < 0:
        raise ValueError("sweep bounds must be non-negative")
    entries: list[SweepEntry] = []
    for mode in (SupportMode.FINITE_TRUE, SupportMode.FINITE_FALSE):
        for size in range(max_support_size + 1):
            for combo in itertools.combinations(range(1, max_position + 1), size):
                d = SupportColoring(mode, frozenset(combo))
                witness = check_symbolic(d)
                if witness is None:
                    raise SweepFailure(d)
                entries.append(SweepEntry(d, witness))
    return SweepReport(max_support_size, max_position, tuple(entries), COVERAGE_NOTE)
