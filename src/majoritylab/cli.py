"""Unified command-line front end.

Every subcommand is a thin adapter over the library: it parses files,
calls the corresponding module, and serializes the result as diff-friendly
text (CSV rows, line records, or DOT).  Outputs are byte-deterministic
for fixed inputs and flags.

Exit codes: 0 = pass, 1 = property violated, 2 = usage or IO error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import counterexample as cx
from . import gadgets, infinite, majority, multigraph
from .errors import MajorityLabError, ParseError, SweepFailure
from .graph import (
    Coloring,
    DiGraph,
    from_dot,
    from_text_with_names,
    to_dot,
    to_text,
    topological_sort,
)

PROG = "majoritylab"


def _bool_text(b: bool) -> str:
    return "true" if b else "false"


def _pattern_text(pattern: tuple[bool, ...]) -> str:
    return "".join("T" if b else "F" for b in pattern)


def _read_file(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _parse_coloring(text: str, vertex_count: int, palette_size: int | None) -> Coloring:
    """Coloring file: one 'vertex color' pair per line; '#' starts a comment."""
    entries: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'vertex color'")
        try:
            v, c = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: expected two integers") from None
        if not 0 <= v < vertex_count:
            raise ParseError(f"line {lineno}: vertex {v} out of range")
        if c < 0:
            raise ParseError(f"line {lineno}: color {c} is negative")
        if v in entries:
            raise ParseError(f"line {lineno}: vertex {v} assigned twice")
        entries[v] = c
    missing = [v for v in range(vertex_count) if v not in entries]
    if missing:
        raise ParseError(f"coloring is not total: missing vertices {missing}")
    if palette_size is None:
        palette_size = max(entries.values(), default=0) + 1
    return Coloring(palette_size, tuple(entries[v] for v in range(vertex_count)))


def _parse_multigraph(text: str) -> multigraph.WeightedMultigraph:
    """Multigraph file: one 'u v w' triple per line; repeated pairs merge."""
    triples: list[tuple[int, int, int]] = []
    top = -1
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected 'u v w'")
        try:
            u, v, w = (int(p) for p in parts)
        except ValueError:
            raise ParseError(f"line {lineno}: expected three integers") from None
        if u < 0 or v < 0:
            raise ParseError(f"line {lineno}: vertex ids must be non-negative")
        if w < 1:
            raise ParseError(f"line {lineno}: weight must be positive")
        triples.append((u, v, w))
        top = max(top, u, v)
    mg = multigraph.WeightedMultigraph(top + 1)
    for u, v, w in triples:
        mg.add_edge(u, v, w)
    return mg


def _parse_id_list(text: str) -> list[int]:
    if not text.strip():
        return []
    try:
        return [int(p) for p in text.split(",")]
    except ValueError:
        raise ParseError(f"expected comma-separated integers, got {text!r}") from None


def _isolated_chain(k: int) -> tuple[DiGraph, gadgets.GadgetHandle, dict[int, str]]:
    """A fresh graph holding only an anchor, k inputs, and one chain gadget."""
    g = DiGraph(k + 1)
    anchor = 0
    inputs = tuple(range(1, k + 1))
    handle = gadgets.build_or_chain(g, anchor, inputs)
    names = {anchor: "T"}
    names.update({u: f"u{idx}" for idx, u in enumerate(inputs, 1)})
    names.update(gadgets.stage_names(handle))
    return g, handle, names


# --- majority group -----------------------------------------------------


def _cmd_majority_verify(args: argparse.Namespace) -> int:
    g, _ = from_text_with_names(_read_file(args.graph))
    coloring = _parse_coloring(_read_file(args.coloring), g.vertex_count, args.colors)
    report = majority.verify(g, coloring)
    print("vertex,mono,diff,satisfied")
    for v, check in enumerate(report.checks):
        print(f"{v},{check.mono_count},{check.diff_count},{_bool_text(check.satisfied)}")
    if report.satisfied:
        return 0
    print(f"violated at vertex {report.first_violation}", file=sys.stderr)
    return 1


def _cmd_majority_enumerate(args: argparse.Namespace) -> int:
    g, _ = from_text_with_names(_read_file(args.graph))
    free = None if args.free is None else _parse_id_list(args.free)
    for v in free or ():
        if not 0 <= v < g.vertex_count:
            raise ParseError(f"--free vertex {v} out of range")
    colorings = majority.enumerate_majority_colorings(g, args.colors)
    if free is not None:
        rows = sorted({majority.project(c, free) for c in colorings})
    else:
        rows = [c.colors for c in colorings]
    for row in rows:
        print(" ".join(str(c) for c in row))
    return 0


def _cmd_majority_prefix(args: argparse.Namespace) -> int:
    if args.m < 1:
        raise ParseError("--m must be at least 1")
    print("n,m,count,patterns")
    for n in range(max(2, args.m), args.max_n + 1):
        patterns = sorted(majority.feasible_prefix_set(n, args.m))
        rendered = "|".join(_pattern_text(p) for p in patterns)
        print(f"{n},{args.m},{len(patterns)},{rendered}")
    return 0


# --- gadget group --------------------------------------------------------


def _cmd_gadget_verify(args: argparse.Namespace) -> int:
    g, handle, _ = _isolated_chain(args.inputs)
    report = gadgets.verify_or_semantics(g, handle)
    print("inputs,extension_exists,extension_unique,output_truth")
    for outcome in report.outcomes:
        truth = "" if outcome.output_truth is None else _bool_text(outcome.output_truth)
        print(
            f"{_pattern_text(outcome.inputs)},"
            f"{_bool_text(outcome.extension_exists)},"
            f"{_bool_text(outcome.extension_unique)},"
            f"{truth}"
        )
    print(f"is_or: {_bool_text(report.is_or)}", file=sys.stderr)
    return 0 if report.is_or else 1


def _cmd_gadget_dot(args: argparse.Namespace) -> int:
    g, _, names = _isolated_chain(args.inputs)
    sys.stdout.write(to_dot(g, names))
    return 0


# --- counterexample group -------------------------------------------------


def _cmd_counterexample_build(args: argparse.Namespace) -> int:
    g, spec = cx.build_truncation(args.n)
    names = cx.truncation_names(spec)
    text = to_text(g, names)
    wrote = False
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        wrote = True
    if args.dot:
        Path(args.dot).write_text(to_dot(g, names), encoding="utf-8")
        wrote = True
    if not wrote:
        sys.stdout.write(text)
    return 0


def _cmd_counterexample_verify(args: argparse.Namespace) -> int:
    g, spec = cx.build_truncation(args.n)
    validity = all(
        gadgets.is_valid_gadget(g, h) for h in spec.gadget_registry.values()
    )
    try:
        topological_sort(g)
        acyclic = True
    except MajorityLabError:
        acyclic = False
    anchor_sink = g.out_degree(spec.anchor) == 0
    sigma_ok = cx.verify_sigma(g, spec, cx.sigma_label(g, spec)).ok
    print("check,result")
    for name, ok in (
        ("gadget_validity", validity),
        ("acyclic", acyclic),
        ("anchor_sink", anchor_sink),
        ("sigma_labels", sigma_ok),
    ):
        print(f"{name},{'pass' if ok else 'fail'}")
    return 0 if validity and acyclic and anchor_sink and sigma_ok else 1


# --- infinite group --------------------------------------------------------


def _support_mode(text: str) -> infinite.SupportMode:
    if text == "true":
        return infinite.SupportMode.FINITE_TRUE
    if text == "false":
        return infinite.SupportMode.FINITE_FALSE
    raise ParseError(f"--mode must be 'true' or 'false', got {text!r}")


def _cmd_infinite_check(args: argparse.Namespace) -> int:
    support = frozenset(_parse_id_list(args.support))
    d = infinite.SupportColoring(_support_mode(args.mode), support)
    witness = infinite.check_symbolic(d)
    print("verdict,witness")
    if witness is None:
        print("feasible,")
        return 0
    print(f"violation,{witness}")
    return 1


def _cmd_infinite_sweep(args: argparse.Namespace) -> int:
    try:
        report = infinite.theorem_sweep(args.max_size, args.max_pos)
    except SweepFailure as e:
        print(f"feasible description found: {e.description}", file=sys.stderr)
        return 1
    for line in report.note.split(".  "):
        print(f"# {line.strip().rstrip('.')}.")
    print("mode,support,witness")
    for entry in report.entries:
        support = "+".join(str(p) for p in sorted(entry.description.support))
        print(f"{entry.description.mode.value},{support},{entry.witness}")
    return 0


# --- multigraph group ------------------------------------------------------


def _cmd_multigraph_solve(args: argparse.Namespace) -> int:
    mg = _parse_multigraph(_read_file(args.file))
    result = multigraph.local_search_2color(mg)
    for v, c in enumerate(result.coloring.colors):
        print(f"{v} {c}")
    print(f"# flips: {result.flips}", file=sys.stderr)
    return 0 if multigraph.verify_weighted(mg, result.coloring).satisfied else 1


def _cmd_multigraph_search(args: argparse.Namespace) -> int:
    findings = multigraph.search_non_k_colorable(args.max_v, args.max_w, args.k)
    if not findings:
        print("# findings: 0")
        return 0
    print(f"# findings: {len(findings)}")
    for idx, mg in enumerate(findings):
        print(f"# instance {idx}: vertices={mg.vertex_count} "
              f"total_weight={mg.total_weight}")
        for u, v, w in mg.edges():
            print(f"{u} {v} {w}")
        print()
    return 1


# --- graph group -----------------------------------------------------------


def _cmd_graph_convert(args: argparse.Namespace) -> int:
    text = _read_file(args.input)
    if text.lstrip().startswith("digraph"):
        g, names = from_dot(text)
    else:
        g, names = from_text_with_names(text)
    if args.to == "dot":
        sys.stdout.write(to_dot(g, names))
    else:
        sys.stdout.write(to_text(g, names))
    return 0


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Majority colorings of digraphs: verifiers, OR gadgets, "
        "counterexample truncations, symbolic infinite checks, and weighted "
        "multigraph experiments.",
    )
    groups = parser.add_subparsers(dest="group", required=True)

    g_majority = groups.add_parser("majority", help="verify / enumerate colorings")
    sub = g_majority.add_subparsers(dest="command", required=True)
    p = sub.add_parser("verify", help="check a coloring file against a graph file")
    p.add_argument("graph")
    p.add_argument("coloring")
    p.add_argument("--colors", type=int, default=None, help="palette size override")
    p.set_defaults(func=_cmd_majority_verify)
    p = sub.add_parser("enumerate", help="list all majority colorings")
    p.add_argument("graph")
    p.add_argument("--colors", type=int, required=True)
    p.add_argument(
        "--free",
        default=None,
        help="comma-separated vertex ids; output is projected onto them",
    )
    p.set_defaults(func=_cmd_majority_enumerate)
    p = sub.add_parser(
        "prefix-experiment",
        help="feasible truth patterns on the first m path vertices of each "
        "truncation depth",
    )
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_majority_prefix)

    g_gadget = groups.add_parser("gadget", help="OR gadget oracle and rendering")
    sub = g_gadget.add_subparsers(dest="command", required=True)
    p = sub.add_parser("verify", help="exhaustive truth table of an isolated chain")
    p.add_argument("--inputs", type=int, required=True)
    p.set_defaults(func=_cmd_gadget_verify)
    p = sub.add_parser("dot", help="DOT rendering of an isolated chain")
    p.add_argument("--inputs", type=int, required=True)
    p.set_defaults(func=_cmd_gadget_dot)

    g_cx = groups.add_parser("counterexample", help="build / verify truncations")
    sub = g_cx.add_subparsers(dest="command", required=True)
    p = sub.add_parser("build", help="build the depth-n truncation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None, help="write graph text here")
    p.add_argument("--dot", default=None, help="write DOT rendering here")
    p.set_defaults(func=_cmd_counterexample_build)
    p = sub.add_parser("verify", help="validity, acyclicity and label checks")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_counterexample_verify)

    g_inf = groups.add_parser("infinite", help="symbolic checks of the full graph")
    sub = g_inf.add_subparsers(dest="command", required=True)
    p = sub.add_parser("check", help="check one support-described path coloring")
    p.add_argument("--mode", required=True, choices=("true", "false"))
    p.add_argument("--support", default="", help="comma-separated positions")
    p.set_defaults(func=_cmd_infinite_check)
    p = sub.add_parser("sweep", help="check every description within bounds")
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--max-pos", type=int, required=True)
    p.set_defaults(func=_cmd_infinite_sweep)

    g_mg = groups.add_parser("multigraph", help="weighted multigraph experiments")
    sub = g_mg.add_subparsers(dest="command", required=True)
    p = sub.add_parser("solve", help="majority 2-color a multigraph file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_multigraph_solve)
    p = sub.add_parser("search", help="look for non-k-colorable instances")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-v", type=int, required=True)
    p.add_argument("--max-w", type=int, required=True)
    p.set_defaults(func=_cmd_multigraph_search)

    g_graph = groups.add_parser("graph", help="file format utilities")
    sub = g_graph.add_subparsers(dest="command", required=True)
    p = sub.add_parser("convert", help="convert between graph text and DOT")
    p.add_argument("input")
    p.add_argument("--to", required=True, choices=("dot", "text"))
    p.set_defaults(func=_cmd_graph_convert)

    return parser


def dispatch(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (MajorityLabError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
