"""The package's public surface, and what a fresh process imports.

``majoritylab.__all__`` is pinned by a literal list so that a change to
how the package loads its names cannot drop or add one unnoticed.
"""

import ast
import builtins
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import majoritylab

PUBLIC = [
    "Coloring", "CycleFound", "DeficiencyReport", "DiGraph",
    "GadgetHandle", "LocalSearchResult",
    "MAX_VERTICES", "MajorityLabError", "ParseError",
    "PrecoloringOutcome", "SemanticsReport",
    "SigmaCheckResult", "SigmaLabeling", "SupportColoring", "SupportMode",
    "SweepEntry", "SweepFailure", "SweepReport", "TooLarge",
    "TruncationSpec", "VertexId",
    "WeightedMultigraph", "brute_force_majority_colorings",
    "build_or_chain", "build_truncation", "check_symbolic", "counterexample",
    "enumerate_majority_colorings", "errors", "feasible_prefix_set",
    "from_dot", "from_text", "from_text_with_names",
    "gadgets", "graph", "greedy_dag_2color", "has_majority_k_coloring",
    "infinite", "is_valid_gadget", "local_search_2color", "majority",
    "multigraph", "out_profile", "search_non_k_colorable",
    "sigma_label", "stage_names", "theorem_sweep", "to_dot", "to_text",
    "topological_sort", "truncation_names", "verify",
    "verify_or_semantics", "verify_sigma", "verify_weighted",
]
SUBMODULES = {
    "counterexample", "errors", "gadgets", "graph", "infinite", "majority",
    "multigraph",
}
# Exported values that do not name their defining module in ``__module__``:
# a constant, a builtin alias and a generic alias.
NO_MODULE_ATTR = {
    "MAX_VERTICES": "graph", "SigmaLabeling": "counterexample", "VertexId": "graph",
}


def _package_nodes(skip=""):
    """``(file name, node)`` for every AST node of every package module but ``skip``."""
    for path in sorted((SRC / "majoritylab").glob("*.py")):
        if path.name != skip:
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                yield path.name, node


def _calls_to(callee, skip):
    """Where a package module other than ``skip`` calls something named ``callee``."""
    return [
        f"{name}:{node.lineno}"
        for name, node in _package_nodes(skip)
        if isinstance(node, ast.Call) and ast.unparse(node.func).rpartition(".")[2] == callee
    ]


class TestPublicSurface:
    def test_all_is_pinned(self):
        assert len(PUBLIC) == 55
        assert PUBLIC == sorted(PUBLIC)
        assert majoritylab.__all__ == PUBLIC

    @pytest.mark.parametrize("name", PUBLIC)
    def test_name_is_its_defining_object(self, name):
        value = getattr(majoritylab, name)
        if name in SUBMODULES:
            assert value is importlib.import_module(f"majoritylab.{name}")
            return
        home = getattr(value, "__module__", None)
        if not (isinstance(home, str) and home.startswith("majoritylab.")):
            home = f"majoritylab.{NO_MODULE_ATTR[name]}"
        assert getattr(importlib.import_module(home), name) is value
        # Re-exports share the object, so also check which module the name loads.
        assert f"majoritylab.{majoritylab._SOURCE[name]}" == home

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from majoritylab import *", namespace)
        assert sorted(k for k in namespace if k != "__builtins__") == PUBLIC

    def test_submodule_reachable_as_attribute(self):
        assert callable(majoritylab.gadgets.build_or2)

    def test_error_exports_are_the_error_module(self):
        errors = importlib.import_module("majoritylab.errors")
        base = errors.MajorityLabError
        defined = {
            name for name, value in vars(errors).items()
            if isinstance(value, type) and issubclass(value, base)
            and value is not base and value.__module__ == errors.__name__
        }
        assert defined == set(majoritylab._EXPORTS["errors"]) - {"MajorityLabError"}
        # A bad argument raises ValueError; each class left carries its own fact.
        assert defined == {"CycleFound", "ParseError", "SweepFailure", "TooLarge"}

    def test_no_other_module_defines_an_exception(self):
        # Any class deriving from a builtin exception or a package error,
        # at any depth of a module other than errors.py, fails this scan.
        errors = importlib.import_module("majoritylab.errors")
        found = []
        for name, node in _package_nodes(skip="errors.py"):
            if not isinstance(node, ast.ClassDef):
                continue
            for base in node.bases:
                base_name = ast.unparse(base).rpartition(".")[2]
                value = getattr(builtins, base_name, None) or getattr(errors, base_name, None)
                if isinstance(value, type) and issubclass(value, BaseException):
                    found.append(f"{name}: {node.name}")
        assert found == []

    def test_only_graph_touches_the_adjacency_lists(self):
        # DiGraph's set index of long out-lists and its stored topological
        # order are right only while add_edge, add_vertex, the edge loader
        # and the builders' batch append (_append_simple) in graph.py are
        # the only writers.
        found = [
            f"{name}:{node.lineno}: .{node.attr}"
            for name, node in _package_nodes(skip="graph.py")
            if isinstance(node, ast.Attribute) and node.attr in ("_out", "_long", "_order")
        ]
        assert found == []

    def test_only_the_chain_builder_appends_unchecked(self):
        # DiGraph._append_simple checks no edge: only the two builders whose
        # lists are simple by construction may call it, build_or_chain in
        # gadgets.py and, once, build_truncation in counterexample.py.
        tree = ast.parse((SRC / "majoritylab" / "counterexample.py").read_text(encoding="utf-8"))
        build = next(
            node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "build_truncation"
        )
        inside = [
            f"counterexample.py:{node.lineno}" for node in ast.walk(build)
            if isinstance(node, ast.Call) and ast.unparse(node.func).rpartition(".")[2] == "_append_simple"
        ]
        assert len(inside) == 1
        assert _calls_to("_append_simple", skip="gadgets.py") == inside

    def test_no_module_skips_the_handle_constructor(self):
        # A __new__ beside GadgetHandle in one call, as in
        # tuple.__new__(GadgetHandle, ...) or map(tuple.__new__,
        # repeat(GadgetHandle), ...), builds a handle without its
        # constructor's check; no module may, gadgets.py included.
        found = []
        for name, node in _package_nodes():
            if not isinstance(node, ast.Call):
                continue
            names = {
                n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))
            }
            if "GadgetHandle" in names and any(
                isinstance(e, ast.Attribute) and e.attr == "__new__"
                for e in (node.func, *node.args)
            ):
                found.append(f"{name}:{node.lineno}")
        assert found == []

    def test_only_majority_builds_a_report_directly(self):
        # DeficiencyReport.from_counts is where the first-violation rule
        # lives; any other module builds its reports through it.
        assert _calls_to("DeficiencyReport", skip="majority.py") == []

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            majoritylab.no_such_name  # noqa: B018
        assert not hasattr(majoritylab, "build_parser")


# --- import footprint, out of process ------------------------------------------
# The test session has imported every submodule already, so only a fresh
# interpreter can see what one command loads.

SRC = Path(__file__).resolve().parent.parent / "src"
# The package enters every library module in sys.modules at once but runs
# a module's code only on first use; until then the entry is not a plain
# ModuleType, so the script lists the modules whose code has run.
FOOTPRINT = """
import contextlib, io, sys, types
from majoritylab import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.dispatch(sys.argv[1:])
print(code, *sorted(name for name, m in sys.modules.items()
                    if name.startswith("majoritylab.") and type(m) is types.ModuleType))
"""


def _fresh(script: str, *argv: str) -> list[str]:
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        check=True,
    )
    return proc.stdout.split()


def test_bare_import_loads_no_submodule():
    # Every submodule is bound, and none has run its code.
    script = """
import sys, types, majoritylab
for name, m in sorted(sys.modules.items()):
    if name.startswith("majoritylab."):
        print(name, type(m) is types.ModuleType)
"""
    assert _fresh(script) == [
        word for name in sorted(SUBMODULES) for word in (f"majoritylab.{name}", "False")
    ]


@pytest.mark.parametrize(
    "command, modules",
    [
        ("--help", "cli errors"),
        ("majority verify GRAPH COLORING", "cli errors graph majority"),
        ("majority enumerate GRAPH --colors 2", "cli errors graph majority"),
        ("gadget verify --inputs 2", "cli errors gadgets graph majority"),
        ("counterexample verify --n 3", "cli counterexample errors gadgets graph majority"),
        ("infinite check --mode true --support 3", "cli errors infinite"),
        ("infinite sweep --max-size 1 --max-pos 3", "cli errors infinite"),
        ("multigraph solve MULTIGRAPH", "cli errors graph majority multigraph"),
        ("graph convert GRAPH --to dot", "cli errors graph"),
    ],
)
def test_command_loads_only_its_modules(tmp_path, command, modules):
    files = {
        "GRAPH": '{"vertex_count": 2, "edges": [[0, 1]]}',
        "COLORING": "0 1\n1 0\n",
        "MULTIGRAPH": "0 1 2\n",
    }
    argv = []
    for arg in command.split():
        if arg in files:
            path = tmp_path / arg
            path.write_text(files[arg], encoding="utf-8")
            arg = str(path)
        argv.append(arg)
    code, *loaded = _fresh(FOOTPRINT, *argv)
    assert code in {"0", "1"}
    assert loaded == [f"majoritylab.{m}" for m in modules.split()]
