"""The four benchmark workloads: inputs made from the seed, tasks, checks.

Each workload's ``setup(seed, env)`` imports the package afresh, builds
its inputs and returns a :class:`Plan`: the list of tasks one pass runs,
and the task run once, untimed, before timing starts.  A task's ``run``
is the timed work; its ``check`` inspects the result afterwards and
raises :class:`Mismatch` when the output is wrong.  The checks use the
package's oracles or the small reference code below, never the code path
being timed.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NamedTuple


class Mismatch(Exception):
    """A task produced output that differs from the expected result."""


class Task(NamedTuple):
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    # An exception the program is known to raise on this input today.  It
    # counts as a failed task but does not mark the run incorrect.
    known_defect: type[BaseException] | None = None


@dataclass
class Plan:
    tasks: list[Task]
    warm_up: Task
    # cli-pipeline only: the same argument vectors through cli.dispatch in
    # process, used by traced runs.
    in_process: list[Task] | None = None
    children_rss: bool = False
    # The calibration kernel whose slowdown on a slow machine tracks this
    # workload's (see calibration.py).
    kernel: str = "records"


@dataclass
class Env:
    src: Path  # the package's source root, put first on sys.path
    work: Path  # scratch directory for generated files

    def child_env(self) -> dict[str, str]:
        """Environment for a child interpreter that imports the package from src."""
        return dict(os.environ, PYTHONPATH=str(self.src))


def _import(name: str):
    return importlib.import_module(f"majoritylab.{name}")


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def _is_majority(out: list[list[int]], colors) -> bool:
    """Reference check: no vertex has more monochromatic than bichromatic out-edges."""
    return all(
        2 * sum(colors[u] == colors[v] for u in targets) <= len(targets)
        for v, targets in enumerate(out)
    )


def _random_dag(graph, rng: random.Random, vertices: int, out_degree: int,
                sinks_first: bool) -> tuple[Any, list[list[int]]]:
    """A DAG in which each vertex points at ``out_degree`` random later vertices.

    "Later" is a hidden topological order.  With ``sinks_first`` the ids
    run against it, so every out-neighbor has a smaller id; otherwise the
    ids are a random permutation of it.
    """
    ids = list(range(vertices))
    if sinks_first:
        ids.reverse()
    else:
        rng.shuffle(ids)
    g = graph.DiGraph(vertices)
    out: list[list[int]] = [[] for _ in range(vertices)]
    for i in range(vertices - 1):
        for j in rng.sample(range(i + 1, vertices), min(out_degree, vertices - 1 - i)):
            g.add_edge(ids[i], ids[j])
            out[ids[i]].append(ids[j])
    return g, out


# --- prefix-frontier ---------------------------------------------------------

PREFIX_DEPTHS = range(3, 12)
# Feasible truth patterns on v1..v3, as measured when the benchmark was
# written: 3, 3, then 4 patterns, constant from depth 5 on.
_AT_MOST_ONE_TRUE = {(False, False, False), (False, False, True),
                     (False, True, False), (True, False, False)}
PREFIX_TABLE = {
    3: {(False, False, True), (False, True, False), (True, False, True)},
    4: {(False, False, True), (False, True, False), (True, False, False)},
}


def prefix_frontier(seed: int, env: Env) -> Plan:
    """Depth-n truncations: build, sigma labels, feasible prefix set (m=3)."""
    cx, majority = _import("counterexample"), _import("majority")

    def task(n: int) -> Task:
        def run():
            g, spec = cx.build_truncation(n)
            sigma_ok = cx.verify_sigma(g, spec, cx.sigma_label(g, spec)).ok
            return sigma_ok, majority.feasible_prefix_set(n, 3)

        def check(result):
            sigma_ok, patterns = result
            _expect(sigma_ok, f"sigma labels rejected at n={n}")
            want = PREFIX_TABLE.get(n, _AT_MOST_ONE_TRUE)
            _expect(patterns == want, f"n={n}: patterns {sorted(patterns)}")

        return Task(f"prefix-n{n}", run, check)

    tasks = [task(n) for n in PREFIX_DEPTHS]
    return Plan(tasks, warm_up=tasks[0])


# --- gadget-oracle -------------------------------------------------------------

GADGET_INPUTS = range(2, 6)


def gadget_oracle(seed: int, env: Env) -> Plan:
    """Exhaustive OR semantics of isolated chains, and the forced extension."""
    graph, gadgets = _import("graph"), _import("gadgets")

    def task(k: int) -> Task:
        def run():
            g = graph.DiGraph(k + 1)
            handle = gadgets.build_or_chain(g, 0, tuple(range(1, k + 1)))
            report = gadgets.verify_or_semantics(g, handle)
            forced = [
                gadgets.forced_extension(handle, o.inputs)[handle.output]
                for o in report.outcomes
            ]
            return report, forced

        def check(result):
            report, forced = result
            _expect(report.is_or, f"k={k}: chain does not force OR")
            for outcome, truth in zip(report.outcomes, forced):
                _expect(outcome.extension_unique, f"k={k}: {outcome.inputs} not unique")
                _expect(outcome.output_truth == truth == any(outcome.inputs),
                        f"k={k}: {outcome.inputs} output disagrees")

        return Task(f"gadget-k{k}", run, check)

    tasks = [task(k) for k in GADGET_INPUTS]
    return Plan(tasks, warm_up=tasks[0], kernel="loop")


# --- random-instances -----------------------------------------------------------

LARGE_DAGS = (20_000, 50_000)  # vertices; out-degree 2
SMALL_DAGS = 20  # enumerated with 2 colors, 17..19 vertices
# Enumerated and brute-forced with 2 colors.  All have 13 vertices, so the
# brute force, whose cost depends on little but the vertex count, sets the
# time of the typical task and keeps task_p50_ms steady across seeds.
ORACLE_DAGS = 60
THREE_COLOR_DAGS = 2  # enumerated and brute-forced with 3 colors, 9 vertices
CHAIN_VERTICES = (1200, 1500)
MULTIGRAPHS = 2  # 300 vertices, 3000 weighted edge insertions each


def random_instances(seed: int, env: Env) -> Plan:
    """Seeded DAGs, chains and multigraphs, each through its own pipeline."""
    graph, majority = _import("graph"), _import("majority")
    multigraph = _import("multigraph")
    rng = random.Random(seed)
    tasks: list[Task] = []

    for vertices in LARGE_DAGS:
        g, out = _random_dag(graph, rng, vertices, 2, sinks_first=False)
        tasks.append(_pipeline_task(graph, majority, g, out))
    # Small DAGs number their vertices sinks first, so the enumerator can
    # check each vertex as soon as it is colored; with random ids the
    # search cost varies several-fold from one seed to the next.
    for i in range(SMALL_DAGS):
        g, out = _random_dag(graph, rng, 17 + i % 3, 2, sinks_first=True)
        tasks.append(_enumerate_task(majority, f"enum2-{i}", g, out, 2, oracle=False))
    for i in range(ORACLE_DAGS):
        g, out = _random_dag(graph, rng, 13, 2, sinks_first=True)
        tasks.append(_enumerate_task(majority, f"oracle2-{i}", g, out, 2, oracle=True))
    for i in range(THREE_COLOR_DAGS):
        g, out = _random_dag(graph, rng, 9, 2, sinks_first=True)
        tasks.append(_enumerate_task(majority, f"oracle3-{i}", g, out, 3, oracle=True))
    tasks.append(_chain_task(graph, majority, rng.randrange(*CHAIN_VERTICES)))
    for i in range(MULTIGRAPHS):
        tasks.append(_local_search_task(multigraph, rng, f"multigraph-{i}", 300, 3000))
    return Plan(tasks, warm_up=tasks[-1])


def _pipeline_task(graph, majority, g, out) -> Task:
    def run():
        parsed = graph.from_text(graph.to_text(g))
        order = graph.topological_sort(parsed)
        coloring = majority.greedy_dag_2color(parsed)
        return parsed, order, coloring, majority.verify(parsed, coloring)

    def check(result):
        parsed, order, coloring, report = result
        _expect(parsed == g, "graph text round trip changed the graph")
        position = {v: i for i, v in enumerate(order)}
        _expect(len(position) == len(out) and all(
            position[u] < position[v] for u, targets in enumerate(out) for v in targets
        ), "topological order violated")
        _expect(report.satisfied and _is_majority(out, coloring.colors),
                "greedy coloring is not a majority coloring")

    return Task(f"dag-pipeline-{len(out)}", run, check)


def _enumerate_task(majority, name, g, out, colors, oracle: bool) -> Task:
    def run():
        found = majority.enumerate_majority_colorings(g, colors)
        brute = majority.brute_force_majority_colorings(g, colors) if oracle else None
        return found, brute

    def check(result):
        found, brute = result
        rows = [c.colors for c in found]
        _expect(rows == sorted(set(rows)), f"{name}: colorings not distinct and ordered")
        _expect(all(_is_majority(out, row) for row in rows),
                f"{name}: a listed coloring violates the majority condition")
        if oracle:
            _expect(found == brute, f"{name}: enumeration differs from brute force")
        else:
            # Every DAG has a 2-coloring and its color swap.
            _expect(len(rows) >= 2, f"{name}: fewer than two colorings")

    return Task(name, run, check)


def _chain_task(graph, majority, vertices: int) -> Task:
    g = graph.DiGraph(vertices)
    for v in range(vertices - 1):
        g.add_edge(v, v + 1)
    # Every vertex but the last must differ from its successor.
    alternating = [tuple((v + c) % 2 for v in range(vertices)) for c in (0, 1)]

    def check(found):
        _expect([c.colors for c in found] == alternating,
                f"chain of {vertices}: not exactly the two alternating colorings")

    # Known defect: the enumerator recurses once per vertex.
    return Task(f"long-chain-{vertices}",
                lambda: majority.enumerate_majority_colorings(g, 2), check,
                known_defect=RecursionError)


def _local_search_task(multigraph, rng, name, vertices, insertions) -> Task:
    mg = multigraph.WeightedMultigraph(vertices)
    for _ in range(insertions):
        u, v = rng.sample(range(vertices), 2)
        mg.add_edge(u, v, rng.randint(1, 5))
    edges = mg.edges()
    total = mg.total_weight

    def run():
        result = multigraph.local_search_2color(mg)
        return result, multigraph.verify_weighted(mg, result.coloring)

    def check(result):
        search, report = result
        _expect(report.satisfied and _is_weighted_majority(
            edges, search.coloring.colors, vertices), f"{name}: not a majority coloring")
        _expect(search.flips <= total, f"{name}: {search.flips} flips exceed {total}")

    return Task(name, run, check)


def _is_weighted_majority(edges, colors, vertices: int) -> bool:
    """Reference check: bichromatic incident weight is at least the monochromatic."""
    balance = [0] * vertices
    for u, v, w in edges:
        sign = 1 if colors[u] != colors[v] else -1
        balance[u] += sign * w
        balance[v] += sign * w
    return min(balance) >= 0


# --- cli-pipeline ---------------------------------------------------------------

GOLDEN = json.loads((Path(__file__).with_name("golden.json")).read_text("utf-8"))


def cli_pipeline(seed: int, env: Env) -> Plan:
    """Documented subcommands out of process, on fixed flags and seeded files."""
    graph, majority, cli = _import("graph"), _import("majority"), _import("cli")
    rng = random.Random(seed)
    env.work.mkdir(parents=True, exist_ok=True)

    # majority verify and graph convert read a 3000-vertex DAG and a random
    # 2-coloring; majority enumerate reads a 12-vertex DAG.
    g, out = _random_dag(graph, rng, 3000, 2, sinks_first=False)
    dag_file = env.work / "dag.json"
    dag_file.write_text(graph.to_text(g), "utf-8")
    colors = [rng.randrange(2) for _ in out]
    coloring_file = env.work / "coloring.txt"
    coloring_file.write_text("".join(f"{v} {c}\n" for v, c in enumerate(colors)), "utf-8")
    small, _ = _random_dag(graph, rng, 12, 2, sinks_first=True)
    small_file = env.work / "small.json"
    small_file.write_text(graph.to_text(small), "utf-8")
    mg_lines = []
    for _ in range(600):
        u, v = rng.sample(range(100), 2)
        mg_lines.append(f"{u} {v} {rng.randint(1, 5)}\n")
    mg_file = env.work / "multigraph.txt"
    mg_file.write_text("".join(mg_lines), "utf-8")

    expected: dict[tuple[str, ...], tuple[int, Callable[[bytes], bool]]] = {}
    for line, (code, digest) in GOLDEN.items():
        expected[tuple(line.split())] = (code, _digest_is(digest))
    rows, ok = ["vertex,mono,diff,satisfied\n"], True
    for v, targets in enumerate(out):
        mono = sum(colors[u] == colors[v] for u in targets)
        satisfied = 2 * mono <= len(targets)
        ok &= satisfied
        rows.append(f"{v},{mono},{len(targets) - mono},{str(satisfied).lower()}\n")
    expected[("majority", "verify", str(dag_file), str(coloring_file))] = (
        0 if ok else 1, _text_is("".join(rows)))
    brute = majority.brute_force_majority_colorings(small, 2)
    expected[("majority", "enumerate", str(small_file), "--colors", "2")] = (
        0, _text_is("".join(" ".join(map(str, c.colors)) + "\n" for c in brute)))
    dot = ["digraph {\n"] + [f"  {v};\n" for v in range(len(out))]
    dot += [f"  {u} -> {v};\n" for u, v in sorted(
        (u, v) for u, targets in enumerate(out) for v in targets)] + ["}\n"]
    expected[("graph", "convert", str(dag_file), "--to", "dot")] = (0, _text_is("".join(dot)))
    expected[("multigraph", "solve", str(mg_file))] = (0, _solves(mg_lines))

    env_vars = env.child_env()

    def subprocess_task(argv, code, valid) -> Task:
        def run():
            done = subprocess.run(
                [sys.executable, "-m", "majoritylab", *argv],
                capture_output=True, env=env_vars, timeout=120, check=False)
            return done.returncode, done.stdout
        return Task(" ".join(argv[:2]), run, _cli_check(argv, code, valid))

    def in_process_task(argv, code, valid) -> Task:
        def run():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = cli.dispatch(list(argv))
            return rc, stdout.getvalue().encode("utf-8")
        return Task(" ".join(argv[:2]), run, _cli_check(argv, code, valid))

    tasks = [subprocess_task(a, *e) for a, e in expected.items()]
    in_process = [in_process_task(a, *e) for a, e in expected.items()]
    # The in-process half of the warm-up certifies the binary gadget stage
    # once per import, as the other workloads' warm-ups do, so traced
    # passes do the same work whether or not they follow set-up directly.
    warm_argv = ("infinite", "check", "--mode", "true", "--support", "3")
    child = subprocess_task(warm_argv, *expected[warm_argv])
    certify = in_process_task(("majority", "prefix-experiment", "--max-n", "3", "--m", "3"),
                              0, _text_is("n,m,count,patterns\n3,3,3,FFT|FTF|TFT\n"))
    warm_up = Task("warm-up", lambda: (child.run(), certify.run()),
                   lambda result: (child.check(result[0]), certify.check(result[1])))
    return Plan(tasks, warm_up=warm_up, in_process=in_process, children_rss=True)


def _cli_check(argv, code, valid):
    def check(result):
        rc, stdout = result
        _expect(rc == code, f"{' '.join(argv[:2])}: exit code {rc}, expected {code}")
        _expect(valid(stdout), f"{' '.join(argv[:2])}: unexpected stdout")
    return check


def _digest_is(digest: str):
    return lambda stdout: hashlib.sha256(stdout).hexdigest() == digest


def _text_is(text: str):
    return lambda stdout: stdout == text.encode("utf-8")


def _solves(lines: list[str]):
    weights: dict[tuple[int, int], int] = {}
    for line in lines:
        u, v, w = map(int, line.split())
        key = (min(u, v), max(u, v))
        weights[key] = weights.get(key, 0) + w
    edges = [(u, v, w) for (u, v), w in weights.items()]
    vertices = 1 + max(max(k) for k in weights)

    def valid(stdout: bytes) -> bool:
        rows = [line.split() for line in stdout.decode("utf-8").splitlines()]
        return [int(r[0]) for r in rows] == list(range(vertices)) and \
            _is_weighted_majority(edges, [int(r[1]) for r in rows], vertices)
    return valid


WORKLOADS = {
    "prefix-frontier": prefix_frontier,
    "gadget-oracle": gadget_oracle,
    "random-instances": random_instances,
    "cli-pipeline": cli_pipeline,
}
