"""Exception types shared across the package."""

from __future__ import annotations


class MajorityLabError(Exception):
    """Base class for every error raised by this package."""


class SelfLoopError(MajorityLabError):
    """An edge from a vertex to itself was rejected."""


class DuplicateEdgeError(MajorityLabError):
    """An already-present directed edge was rejected."""


class OutOfRangeError(MajorityLabError):
    """A vertex id does not exist in the owning graph."""


class CycleFound(MajorityLabError):
    """Topological sorting failed; ``vertices`` holds the residual cycle."""

    def __init__(self, vertices: frozenset[int]):
        self.vertices = vertices
        super().__init__(f"graph contains a cycle among vertices {sorted(vertices)}")


class ParseError(MajorityLabError):
    """A serialized graph, coloring or multigraph file is malformed."""


class PaletteMismatch(MajorityLabError):
    """A color value is outside the coloring's palette."""


class NotADag(MajorityLabError):
    """An operation requiring an acyclic graph was given a cyclic one."""


class ChainTooShort(MajorityLabError):
    """A chained gadget needs at least two inputs."""


class TooLarge(MajorityLabError):
    """Exhaustive enumeration was refused; the search space exceeds the bound."""


class NotUnique(MajorityLabError):
    """The closed-form extension is not established for this gadget shape."""


class SweepFailure(MajorityLabError):
    """A sweep found a feasible description; ``description`` is the witness."""

    def __init__(self, description):
        self.description = description
        super().__init__(f"sweep found a feasible description: {description}")


class BudgetExceeded(MajorityLabError):
    """An enumeration estimate passed the configured budget."""
