"""Majority colorings of directed graphs, OR-forcing gadgets, and the
truncation / symbolic machinery around a countable DAG that needs 3 colors.

``import majoritylab`` runs no submodule's code: it binds every submodule
lazily (``importlib.util.LazyLoader``), entered in ``sys.modules`` and set
on the package at once but run on its first attribute access.  So
``majoritylab.verify`` or ``from majoritylab import verify`` runs only
``majoritylab.majority`` and what it needs.  The submodules themselves
are exported too, and every other public name is cached on first use
(PEP 562).
"""

import importlib.util as _util
import sys as _sys

_EXPORTS = {
    "counterexample": (
        "SigmaCheckResult", "SigmaLabeling", "TruncationSpec",
        "build_truncation", "sigma_label", "truncation_names", "verify_sigma",
    ),
    "errors": (
        "CycleFound", "MajorityLabError", "ParseError", "SweepFailure",
        "TooLarge",
    ),
    "gadgets": (
        "GadgetHandle", "PrecoloringOutcome", "SemanticsReport", "build_or_chain",
        "is_valid_gadget", "stage_names", "verify_or_semantics",
    ),
    "graph": (
        "MAX_VERTICES", "Coloring", "DiGraph", "VertexId", "from_dot", "from_text",
        "from_text_with_names", "to_dot", "to_text", "topological_sort",
    ),
    "infinite": (
        "SupportColoring", "SupportMode", "SweepEntry", "SweepReport",
        "check_symbolic", "out_profile", "theorem_sweep",
    ),
    "majority": (
        "DeficiencyReport", "brute_force_majority_colorings",
        "enumerate_majority_colorings", "feasible_prefix_set",
        "greedy_dag_2color", "verify",
    ),
    "multigraph": (
        "LocalSearchResult", "WeightedMultigraph", "has_majority_k_coloring",
        "local_search_2color", "search_non_k_colorable", "verify_weighted",
    ),
}

# name -> the submodule that defines it.
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_SOURCE, *_EXPORTS])

for _name in _EXPORTS:
    _spec = _util.find_spec(f"{__name__}.{_name}")
    _spec.loader = _util.LazyLoader(_spec.loader)
    _module = _util.module_from_spec(_spec)
    _sys.modules[_spec.name] = globals()[_name] = _module
    _spec.loader.exec_module(_module)
del _name, _spec, _module


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[module], name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
