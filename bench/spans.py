"""Spans and counts recorded around calls into the majoritylab layers.

The tracer lives entirely in the benchmark: it replaces public functions
of the package's modules with wrappers, and every module-level name that
refers to the same function object is replaced too, so calls from one
layer into another (``majority.verify`` inside the enumerator,
``counterexample.forced_extension`` inside the truncation rule,
``cli.from_text_with_names`` inside a subcommand) are seen as well.
Nothing under ``src/`` is edited; :meth:`Tracer.uninstall` puts the
original functions back.

A span is ``(name, start, end, parent, task)``; ``parent`` is the index
of the enclosing span in the same pass, or -1.  A layer's self time is
its spans' durations minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Per-layer metrics a traced run derives from spans (seconds of self time)
# and from counts.  Every workload reports all of them; a layer the
# workload never calls reads 0.
SELF_TIME_METRICS = (
    "graph.parse_s",
    "graph.serialize_s",
    "graph.topo_s",
    "majority.verify_s",
    "majority.greedy_s",
    "majority.enumerate_s",
    "majority.bruteforce_s",
    "gadgets.oracle_s",
    "gadgets.extension_s",
    "gadgets.build_s",
    "counterexample.build_s",
    "counterexample.sigma_s",
    "counterexample.rule_s",
    "infinite.sweep_s",
    "multigraph.local_search_s",
    "multigraph.verify_s",
    "multigraph.search_s",
    "cli.dispatch_s",
)
COUNT_METRICS = (
    "graph.bytes_parsed",
    "graph.bytes_written",
    "majority.verify_calls",
    "majority.verify_edges",
    "majority.enumerate_solutions",
    "gadgets.oracle_assignments",
    "gadgets.extension_calls",
    "counterexample.rule_calls",
    "infinite.descriptions",
    "multigraph.flips",
    "multigraph.instances_tested",
    "cli.stdout_bytes",
)

_PREFIX_SPAN = "majority.feasible_prefix_set"


def _count_parsed(tracer, args, result):
    tracer.counts["graph.bytes_parsed"] += len(args[0])
    return result


def _count_written(tracer, args, result):
    tracer.counts["graph.bytes_written"] += len(result)
    return result


def _count_verify(tracer, args, result):
    tracer.counts["majority.verify_calls"] += 1
    tracer.counts["majority.verify_edges"] += args[0].edge_count
    if tracer.open[_PREFIX_SPAN]:
        tracer.counts["prefix.candidates"] += 1
    return result


def _count_solutions(tracer, args, result):
    tracer.counts["majority.enumerate_solutions"] += len(result)
    if tracer.open[_PREFIX_SPAN]:
        tracer.counts["prefix.solutions"] += len(result)
    return result


def _count_oracle(tracer, args, result):
    handle = args[1]
    tracer.counts["gadgets.oracle_assignments"] += 2 ** (
        len(handle.inputs) + len(handle.internal)
    )
    return result


def _counter(name):
    def hook(tracer, args, result):
        tracer.counts[name] += 1
        return result

    return hook


def _count_flips(tracer, args, result):
    tracer.counts["multigraph.flips"] += result.flips
    return result


def _count_descriptions(tracer, args, result):
    tracer.counts["infinite.descriptions"] += len(result.entries)
    return result


def _count_stdout(tracer, args, result):
    # The benchmark calls dispatch with stdout redirected to a fresh StringIO.
    tracer.counts["cli.stdout_bytes"] += len(sys.stdout.getvalue().encode("utf-8"))
    return result


def _wrap_rule(tracer, args, result):
    # The returned closure is the layer boundary the enumerator calls.
    return tracer.wrap(
        "counterexample.rule",
        result,
        "counterexample.rule_s",
        _counter("counterexample.rule_calls"),
    )


# (module, function, metric its self time adds to, hook run on the result)
WRAPPED = (
    ("graph", "from_text", "graph.parse_s", None),
    ("graph", "from_text_with_names", "graph.parse_s", _count_parsed),
    ("graph", "from_dot", "graph.parse_s", _count_parsed),
    ("graph", "to_text", "graph.serialize_s", _count_written),
    ("graph", "to_dot", "graph.serialize_s", _count_written),
    ("graph", "topological_sort", "graph.topo_s", None),
    ("majority", "verify", "majority.verify_s", _count_verify),
    ("majority", "greedy_dag_2color", "majority.greedy_s", None),
    ("majority", "enumerate_majority_colorings", "majority.enumerate_s",
     _count_solutions),
    ("majority", "feasible_prefix_set", "majority.enumerate_s", None),
    ("majority", "brute_force_majority_colorings", "majority.bruteforce_s", None),
    ("gadgets", "build_or2", "gadgets.build_s", None),
    ("gadgets", "build_or_chain", "gadgets.build_s", None),
    ("gadgets", "verify_or_semantics", "gadgets.oracle_s", _count_oracle),
    ("gadgets", "forced_extension", "gadgets.extension_s",
     _counter("gadgets.extension_calls")),
    ("counterexample", "build_truncation", "counterexample.build_s", None),
    ("counterexample", "sigma_label", "counterexample.sigma_s", None),
    ("counterexample", "verify_sigma", "counterexample.sigma_s", None),
    ("counterexample", "truncation_extension", "counterexample.rule_s", _wrap_rule),
    ("infinite", "theorem_sweep", "infinite.sweep_s", _count_descriptions),
    ("multigraph", "local_search_2color", "multigraph.local_search_s", _count_flips),
    ("multigraph", "verify_weighted", "multigraph.verify_s", None),
    ("multigraph", "has_majority_k_coloring", "multigraph.search_s",
     _counter("multigraph.instances_tested")),
    ("multigraph", "search_non_k_colorable", "multigraph.search_s", None),
    ("cli", "dispatch", "cli.dispatch_s", _count_stdout),
)


class Tracer:
    """Collects spans and counts for one pass at a time.

    Wrappers record only while ``active`` is set, so output checks and
    input generation that call the package leave no spans.
    """

    def __init__(self) -> None:
        self.active = False
        self.task: str | None = None
        self.spans: list[tuple] = []
        self.counts: Counter[str] = Counter()
        self.open: Counter[str] = Counter()
        self._metric_of: dict[str, str] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, metric, hook=None):
        self._metric_of[name] = metric
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            spans = tracer.spans
            stack = tracer._stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            tracer.open[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.open[name] -= 1
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.task)
            return hook(tracer, args, result) if hook else result

        return wrapper

    def install(self) -> None:
        """Wrap every function in WRAPPED wherever a majoritylab module names it."""
        modules = [
            m for name, m in sys.modules.items()
            if name == "majoritylab" or name.startswith("majoritylab.")
        ]
        for module_name, attr, metric, hook in WRAPPED:
            home = sys.modules.get(f"majoritylab.{module_name}")
            if home is None:  # cli is imported only by the cli workload
                continue
            original = getattr(home, attr)
            wrapper = self.wrap(f"{module_name}.{attr}", original, metric, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, value))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, value in reversed(self._patches):
            setattr(module, key, value)
        self._patches.clear()

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()

    def self_times(self) -> dict[str, float]:
        """Self time per metric over the spans of the current pass."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child):
            totals[self._metric_of[name]] += end - start - covered
        return {m: totals.get(m, 0.0) for m in SELF_TIME_METRICS}

    def pass_counts(self) -> dict[str, float]:
        counts = {m: self.counts.get(m, 0) for m in COUNT_METRICS}
        candidates = self.counts.get("prefix.candidates", 0)
        counts["majority.prefix_yield"] = (
            self.counts.get("prefix.solutions", 0) / candidates if candidates else 0.0
        )
        return counts
