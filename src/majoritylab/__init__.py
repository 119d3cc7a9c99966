"""Majority colorings of directed graphs, OR-forcing gadgets, and the
truncation / symbolic machinery around a countable DAG that needs 3 colors."""

from .counterexample import (
    SigmaCheckResult,
    SigmaLabeling,
    TruncationSpec,
    build_truncation,
    sigma_label,
    truncation_extension,
    truncation_names,
    verify_sigma,
)
from .errors import (
    BudgetExceeded,
    ChainTooShort,
    CycleFound,
    DuplicateEdgeError,
    MajorityLabError,
    NotADag,
    NotUnique,
    OutOfRangeError,
    PaletteMismatch,
    ParseError,
    SelfLoopError,
    SweepFailure,
    TooLarge,
)
from .gadgets import (
    GadgetHandle,
    GadgetStage,
    PrecoloringOutcome,
    SemanticsReport,
    build_or2,
    build_or_chain,
    forced_extension,
    is_valid_gadget,
    stage_names,
    verify_or_semantics,
)
from .graph import (
    MAX_VERTICES,
    Coloring,
    DiGraph,
    TripletLabel,
    VertexId,
    from_dot,
    from_text,
    from_text_with_names,
    to_dot,
    to_text,
    topological_sort,
)
from .infinite import (
    SupportColoring,
    SupportMode,
    SweepEntry,
    SweepReport,
    check_symbolic,
    out_profile,
    theorem_sweep,
)
from .majority import (
    DeficiencyReport,
    TruthView,
    VertexCheck,
    brute_force_majority_colorings,
    enumerate_majority_colorings,
    feasible_prefix_set,
    greedy_dag_2color,
    project,
    verify,
)
from .multigraph import (
    LocalSearchResult,
    WeightedMultigraph,
    has_majority_k_coloring,
    local_search_2color,
    search_non_k_colorable,
    verify_weighted,
)

__all__ = [name for name in dir() if not name.startswith("_")]
