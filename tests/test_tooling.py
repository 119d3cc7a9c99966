"""The package must still fit what the benchmark expects of it.

``bench/spans.py`` looks up each ``(module, function)`` in ``WRAPPED`` by
name when a traced run starts, ``bench/workloads.py`` calls the package
directly, and the cli-pipeline workload compares CLI stdout with the
SHA-256 digests in ``bench/golden.json``.  A renamed function, a changed
signature or a changed byte of output would only surface there; these
tests catch them with the fast suite.
"""

import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from majoritylab.cli import _isolated_chain, dispatch
from majoritylab.counterexample import build_truncation, truncation_names
from majoritylab.graph import to_dot, to_text

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPANS = BENCH / "spans.py"
GOLDEN = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))


def _wrapped() -> tuple:
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.WRAPPED


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # @dataclass looks its module up in sys.modules while the class is made.
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    return workloads


workloads = _workloads()


def test_every_wrapped_function_exists():
    assert _wrapped()
    for module_name, attr, _, _ in _wrapped():
        module = importlib.import_module(f"majoritylab.{module_name}")
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_its_warm_up_and_first_task(name, tmp_path):
    # The workloads also call the package directly, outside WRAPPED; this
    # runs those calls and the workload's own output checks on seed 1.
    plan = workloads.WORKLOADS[name](1, workloads.Env(BENCH.parent / "src", tmp_path))
    for task in (plan.warm_up, plan.tasks[0]):
        task.check(task.run())


@pytest.mark.parametrize("line", sorted(GOLDEN))
def test_cli_stdout_matches_golden_digest(line):
    code, digest = GOLDEN[line]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert dispatch(line.split()) == code
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == digest


def test_counterexample_build_files_match_stdout(tmp_path):
    # The files that build writes must carry the bytes the golden digest
    # pins for its stdout.
    text, dot = tmp_path / "g.json", tmp_path / "g.dot"
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert dispatch(
            ["counterexample", "build", "--n", "20", "--out", str(text), "--dot", str(dot)]
        ) == 0
        assert out.getvalue() == ""
        assert dispatch(["graph", "convert", str(text), "--to", "dot"]) == 0
    code, digest = GOLDEN["counterexample build --n 20"]
    assert code == 0
    assert hashlib.sha256(text.read_bytes()).hexdigest() == digest
    assert dot.read_text(encoding="utf-8") == out.getvalue()


def _stdout(argv) -> str:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert dispatch(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("to, render", [("text", to_text), ("dot", to_dot)])
def test_graph_convert_writes_the_library_rendering(tmp_path, to, render):
    # G_16 with its names has more lines than one batch of the CLI's writer.
    g, spec = build_truncation(16)
    names = truncation_names(spec)
    expected = render(g, names)
    assert expected.count("\n") > 4096
    f = tmp_path / "g.json"
    f.write_text(to_text(g, names), encoding="utf-8")
    assert _stdout(["graph", "convert", str(f), "--to", to]) == expected


def test_gadget_dot_writes_the_library_rendering():
    g, _, names = _isolated_chain(4)
    assert _stdout(["gadget", "dot", "--inputs", "4"]) == to_dot(g, names)


@pytest.mark.parametrize("target", ["majoritylab", "majoritylab.cli"])
def test_importing_the_cli_enters_every_wrapped_module(target):
    # A traced run wraps only the modules already in sys.modules, and a
    # workload imports just a few of them before it; the package binds
    # every library module, so only cli needs its own import.
    script = f"import sys, {target}; print(*sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(BENCH.parent / "src")),
        check=True,
    )
    loaded = set(proc.stdout.split())
    for module_name, _, _, _ in _wrapped():
        if module_name == "cli" and target == "majoritylab":
            continue
        assert f"majoritylab.{module_name}" in loaded, module_name


def test_no_module_imports_dataclasses_or_inspect():
    # Every CLI process and every benchmark set-up imports the package;
    # dataclasses would pull in inspect, ast, dis and tokenize at start-up.
    script = (
        "import sys, majoritylab, majoritylab.cli\n"
        "for name in majoritylab._EXPORTS: getattr(majoritylab, name).__name__\n"
        "print(*sorted(m for m in sys.modules if m in ('dataclasses', 'inspect')))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(BENCH.parent / "src")),
        check=True,
    )
    assert proc.stdout.split() == []
