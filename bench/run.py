"""Benchmark for majoritylab: one workload per run, closed loop, one process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload prefix-frontier --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25   # each workload in turn

A run repeats cycles until ``--seconds`` have passed (at least one
cycle).  A cycle sets up from scratch - imports the package from
``src/``, builds the workload's inputs from the seed, runs one untimed
warm-up task - and then runs one pass over the workload's tasks, one at
a time.  Every task's output is checked after its timer stops.

Times are reported at reference speed.  The machine the benchmark was
written on alternates between a fast and a slow state, for seconds to
minutes at a time, and the slow state takes up to twice as long.  So the
workload's calibration kernel (calibration.py) is timed after each
set-up, before a task once CALIBRATE_EVERY_S have passed since the last
calibration, and after each pass.  Every task run lies between two
calibrations, and its duration is multiplied by the kernel's reference
time over their mean.  ``wall_s`` sums each task's median scaled
duration over the passes; ``setup_s`` is the median set-up time, each
scaled by the calibration that follows it.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics.  With ``--trace 1`` each cycle runs an untraced and
a traced pass, the JSON holds the per-layer metrics of the traced
passes, and the spans of the last traced pass are written under
``.bench_out/``.  bench/NOTES.md describes every metric.
"""

from __future__ import annotations

import argparse
import gzip
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
STARTUP_PROBES = 5
CALIBRATE_EVERY_S = 0.25

sys.path.insert(0, str(Path(__file__).resolve().parent))
import calibration  # noqa: E402
from spans import COUNT_METRICS, SELF_TIME_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS, Env, Task  # noqa: E402


class Tally:
    """Outcomes and timings of the tasks run in the timed phase."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []

    def run(self, task: Task) -> float:
        """Run one task, check it, and return its timed duration."""
        self.attempted += 1
        start = perf_counter()
        try:
            result = task.run()
        except Exception as e:  # noqa: BLE001 - a failed task must not end the run
            elapsed = perf_counter() - start
            self.failed += 1
            if task.known_defect is None or not isinstance(e, task.known_defect):
                self.unexpected.append(
                    f"{task.name}: {''.join(traceback.format_exception_only(e)).strip()}")
        else:
            elapsed = perf_counter() - start
            try:
                task.check(result)
            except Exception as e:  # noqa: BLE001 - malformed output also fails the check
                self.failed += 1
                self.unexpected.append(f"{task.name}: {type(e).__name__}: {e}")
        return elapsed


def fresh_import() -> None:
    """Drop every majoritylab module so set-up pays for a full import."""
    for name in [n for n in sys.modules if n.split(".")[0] == "majoritylab"]:
        del sys.modules[name]
    import majoritylab  # noqa: F401

    if not Path(majoritylab.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"majoritylab was imported from {majoritylab.__file__}")


def run_pass(tasks: list[Task], tally: Tally, timeline: Timeline,
             tracer: Tracer | None = None) -> None:
    """Run every task once, in order, recording durations and calibrations."""
    for index, task in enumerate(tasks):
        timeline.calibrate_if_due()
        if tracer:
            tracer.task = task.name
            tracer.active = True
        try:
            timeline.add(index, tally.run(task))
        finally:
            if tracer:
                tracer.active = False
    timeline.calibrate()


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def startup_seconds(env: Env) -> float:
    """Median time to start the interpreter and import the CLI module."""
    times = []
    for _ in range(STARTUP_PROBES):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import majoritylab.cli"],
                       env=env.child_env(), check=True)
        times.append(perf_counter() - start)
    return statistics.median(times)


class Timeline:
    """Task durations and calibration times, in the order they happened.

    A calibration runs before a task once CALIBRATE_EVERY_S have passed
    since the last one, and after every pass, so every task lies between
    two calibrations.
    """

    def __init__(self, kernel: str) -> None:
        self.kernel, self.reference = calibration.KERNELS[kernel]
        self.events: list[tuple[int, float]] = []  # (task index, or -1, seconds)
        self._last = float("-inf")

    def calibrate(self) -> float:
        seconds = calibration.seconds(self.kernel)
        self.events.append((-1, seconds))
        self._last = perf_counter()
        return seconds

    def calibrate_if_due(self) -> None:
        if perf_counter() - self._last >= CALIBRATE_EVERY_S:
            self.calibrate()

    def add(self, index: int, seconds: float) -> None:
        self.events.append((index, seconds))

    def calibrations(self, since: int = 0) -> list[float]:
        return [seconds for index, seconds in self.events[since:] if index < 0]

    def task_medians(self) -> list[float]:
        """Each task's median duration, every run of it scaled to reference
        speed by the mean of the calibrations on either side."""
        scaled: dict[int, list[float]] = defaultdict(list)
        pending: list[tuple[int, float]] = []
        before = 0.0
        for index, seconds in self.events:
            if index >= 0:
                pending.append((index, seconds))
                continue
            for task, duration in pending:
                scaled[task].append(2 * self.reference * duration / (before + seconds))
            pending, before = [], seconds
        return [statistics.median(scaled[task]) for task in sorted(scaled)]


def write_spans(path: Path, tracer: Tracer) -> None:
    """The last traced pass's spans, one JSON object per line."""
    origin = min((span[1] for span in tracer.spans), default=0.0)
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as f:
        for name, start, end, parent, task in tracer.spans:
            f.write(json.dumps({"name": name, "start": start - origin,
                                "end": end - origin, "parent": parent,
                                "task": task}) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "majoritylab" / "__init__.py").is_file():
        print(f"error: no majoritylab package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    setup = WORKLOADS[args.workload]
    env = Env(src=SRC, work=OUT / f"work-{args.workload}-{args.seed}")
    try:
        return measure(args, setup, env)
    finally:
        shutil.rmtree(env.work, ignore_errors=True)


def run_all(args) -> int:
    """Every workload in a fresh process of its own, one after another."""
    status = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)], check=False)
        status = status or done.returncode
    return status


def measure(args, setup, env: Env) -> int:
    warm, tally = Tally(), Tally()
    setup_times: list[float] = []
    setup_calibrations: list[float] = []
    untraced = traced = None
    layer_times: dict[str, list[float]] = {m: [] for m in SELF_TIME_METRICS}
    counts: list[dict] = []
    tracer = Tracer()
    deadline = perf_counter() + args.seconds
    while True:
        plan = None  # let the previous inputs go before building new ones
        start = perf_counter()
        fresh_import()
        plan = setup(args.seed, env)
        warm.run(plan.warm_up)
        setup_times.append(perf_counter() - start)
        if untraced is None:
            untraced, traced = Timeline(plan.kernel), Timeline(plan.kernel)
        setup_calibrations.append(untraced.calibrate())
        tasks = plan.in_process if args.trace and plan.in_process else plan.tasks
        # Traced runs alternate which pass follows set-up, so neither kind
        # always pays for running first.
        traced_first = args.trace and len(setup_times) % 2 == 0
        if not traced_first:
            run_pass(tasks, tally, untraced)
        if args.trace:
            tracer.reset()
            tracer.install()
            first_event = len(traced.events)
            try:
                run_pass(tasks, tally, traced, tracer)
            finally:
                tracer.uninstall()
            scale = traced.reference / statistics.median(traced.calibrations(first_event))
            for metric, value in tracer.self_times().items():
                layer_times[metric].append(value * scale)
            counts.append(tracer.pass_counts())
        if traced_first:
            run_pass(tasks, tally, untraced)
        if perf_counter() >= deadline:
            break

    unexpected = warm.unexpected + tally.unexpected
    task_s = untraced.task_medians()
    if args.trace:
        if any(c != counts[0] for c in counts):
            unexpected.append("per-layer counts differ between traced passes")
        write_spans(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl.gz", tracer)
        metrics = {m: (statistics.median(v), "s") for m, v in layer_times.items()}
        scale = untraced.reference / statistics.median(untraced.calibrations())
        metrics["cli.startup_s"] = (
            startup_seconds(env) * scale if plan.in_process else 0.0, "s")
        metrics.update({m: (counts[0][m], "count") for m in COUNT_METRICS})
        metrics["majority.prefix_yield"] = (counts[0]["majority.prefix_yield"], "frac")
        metrics["trace.overhead_frac"] = (
            sum(traced.task_medians()) / sum(task_s) - 1, "frac")
    else:
        metrics = {
            "wall_s": (sum(task_s), "s"),
            "setup_s": (statistics.median(
                t * untraced.reference / c for t, c in zip(setup_times, setup_calibrations)),
                "s"),
            "task_p50_ms": (statistics.median(task_s) * 1e3, "ms"),
            "pass_frac": ((tally.attempted - tally.failed) / tally.attempted, "frac"),
            "peak_rss_mb": (peak_rss_mb(plan.children_rss), "MB"),
        }

    for line in unexpected:
        print(f"unexpected: {line}", file=sys.stderr)
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"cycles={len(setup_times)} tasks_per_pass={len(tasks)} "
          f"attempted={tally.attempted} failed={tally.failed}")
    calibrations = untraced.calibrations()
    print(f"# calibration: {len(calibrations)} runs of the {plan.kernel} kernel, median "
          f"{statistics.median(calibrations):.6f} s, reference {untraced.reference} s")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value} {unit}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
