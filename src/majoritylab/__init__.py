"""Majority colorings of directed graphs, OR-forcing gadgets, and the
truncation / symbolic machinery around a countable DAG that needs 3 colors.

Every public name is loaded on first use (PEP 562): ``import majoritylab``
imports no submodule, and ``majoritylab.verify`` or
``from majoritylab import verify`` imports only ``majoritylab.majority``
and what it needs.  The submodules themselves are exported too.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "counterexample": (
        "SigmaCheckResult", "SigmaLabeling", "TruncationSpec",
        "build_truncation", "sigma_label", "truncation_extension",
        "truncation_names", "verify_sigma",
    ),
    "errors": (
        "BudgetExceeded", "ChainTooShort", "CycleFound", "DuplicateEdgeError",
        "MajorityLabError", "NotADag", "NotUnique", "OutOfRangeError",
        "PaletteMismatch", "ParseError", "SelfLoopError", "SweepFailure",
        "TooLarge",
    ),
    "gadgets": (
        "GadgetHandle", "GadgetStage", "PrecoloringOutcome", "SemanticsReport",
        "build_or2", "build_or_chain", "forced_extension", "is_valid_gadget",
        "stage_names", "verify_or_semantics",
    ),
    "graph": (
        "MAX_VERTICES", "Coloring", "DiGraph", "TripletLabel", "VertexId",
        "from_dot", "from_text", "from_text_with_names", "to_dot", "to_text",
        "topological_sort",
    ),
    "infinite": (
        "SupportColoring", "SupportMode", "SweepEntry", "SweepReport",
        "check_symbolic", "out_profile", "theorem_sweep",
    ),
    "majority": (
        "DeficiencyReport", "TruthView", "VertexCheck",
        "brute_force_majority_colorings", "enumerate_majority_colorings",
        "feasible_prefix_set", "greedy_dag_2color", "project", "verify",
    ),
    "multigraph": (
        "LocalSearchResult", "WeightedMultigraph", "has_majority_k_coloring",
        "local_search_2color", "search_non_k_colorable", "verify_weighted",
    ),
}

# name -> the submodule that defines it; a submodule maps to itself.
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SOURCE.update((module, module) for module in _EXPORTS)

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Importing a submodule binds it in this package's globals by itself.
    value = _import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
        globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
