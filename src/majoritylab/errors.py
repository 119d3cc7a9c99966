"""Exception types shared across the package."""

from __future__ import annotations


class MajorityLabError(Exception):
    """Base class for the package's own errors.

    A bad argument raises ``ValueError``; each subclass carries a fact of
    its own: a cycle, a malformed file, a refused request, a witness.
    """


class CycleFound(MajorityLabError):
    """Topological sorting failed.

    ``vertices`` holds every vertex the sort could not place: each cycle
    and every vertex a cycle reaches.
    """

    def __init__(self, vertices: frozenset[int]):
        self.vertices = vertices
        super().__init__(f"graph contains a cycle among vertices {sorted(vertices)}")


class ParseError(MajorityLabError):
    """A serialized graph, coloring or multigraph file is malformed."""


class TooLarge(MajorityLabError):
    """A request was refused: its search space or built graph passes a bound."""


class SweepFailure(MajorityLabError):
    """A sweep found a feasible description; ``description`` is the witness."""

    def __init__(self, description):
        self.description = description
        super().__init__(f"sweep found a feasible description: {description}")
