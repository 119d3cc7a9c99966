"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v`` to get one PASSED/FAILED
row per criterion.  Criterion 6 is split in two: the frozen regression
table, and the inclusion between depths.  The inclusion that holds is
shifted by one path position: G_{n+1} contains an out-closed copy of G_n
below v_2, so its patterns on v_2..v_4 are patterns of G_n on v_1..v_3.
The aligned inclusion (patterns on v_1..v_3 shrinking with depth) is
false, because deeper truncations give every path vertex more out-edges;
it breaks at depths 3 -> 4 and 4 -> 5, and the test pins both breaks
with brute force and verified witnesses.  See the README.
"""

import os
import random
import subprocess
import sys
import time
from pathlib import Path

from helpers import extension_rule_colorings, random_dag, random_multigraph
from majoritylab.cli import dispatch
from majoritylab.counterexample import (
    build_truncation,
    sigma_label,
    truncation_extension,
    truncation_names,
    verify_sigma,
)
from majoritylab.gadgets import build_or_chain, is_valid_gadget, verify_or_semantics
from majoritylab.graph import Coloring, DiGraph, to_text, topological_sort
from majoritylab.majority import (
    brute_force_majority_colorings,
    enumerate_majority_colorings,
    feasible_prefix_set,
    greedy_dag_2color,
    verify,
)
from majoritylab.multigraph import (
    local_search_2color,
    search_non_k_colorable,
    verify_weighted,
)


def _passed(n, message):
    print(f"criterion {n}: PASS ({message})")


def T(*bits):
    return tuple(bool(b) for b in bits)


def test_criterion_1_gadget_semantics():
    """Chains of size 2..4 force OR with a unique extension, within 5 s."""
    start = time.perf_counter()
    for k in (2, 3, 4):
        g = DiGraph(k + 1)
        handle = build_or_chain(g, 0, tuple(range(1, k + 1)))
        report = verify_or_semantics(g, handle)
        assert len(report.outcomes) == 2**k
        assert report.is_or
        assert all(o.extension_unique for o in report.outcomes)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"oracle took {elapsed:.2f}s"
    _passed(1, f"k=2..4 exhaustive, {elapsed:.2f}s")


def test_criterion_2_validity():
    """Every registered gadget is valid inside every truncation, n = 2..8."""
    total = 0
    for n in range(2, 9):
        g, spec = build_truncation(n)
        for handle in spec.gadget_registry.values():
            assert is_valid_gadget(g, handle)
            total += 1
    _passed(2, f"{total} gadgets valid across n=2..8")


def test_criterion_3_acyclicity_and_sigma():
    """Topological sort succeeds, anchor is a sink, labels accepted; n=8 < 10 s."""
    for n in range(2, 8):
        g, spec = build_truncation(n)
        assert len(topological_sort(g)) == g.vertex_count
        assert g.out_degree(spec.anchor) == 0
        assert verify_sigma(g, spec, sigma_label(g, spec)).ok
    start = time.perf_counter()
    g, spec = build_truncation(8)
    assert len(topological_sort(g)) == g.vertex_count
    assert g.out_degree(spec.anchor) == 0
    assert verify_sigma(g, spec, sigma_label(g, spec)).ok
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"n=8 chain took {elapsed:.2f}s"
    _passed(3, f"n=2..8 accepted, n=8 in {elapsed:.2f}s")


def test_criterion_4_greedy_two_coloring():
    """Greedy passes the verifier on 500 seeded DAGs and every truncation."""
    rng = random.Random(0xDA6)
    for _ in range(500):
        g = random_dag(rng, 60)
        assert verify(g, greedy_dag_2color(g)).satisfied
    for n in range(2, 9):
        g, _ = build_truncation(n)
        assert verify(g, greedy_dag_2color(g)).satisfied
    _passed(4, "500 random DAGs (<= 60 vertices) plus G_2..G_8")


def test_criterion_5_enumeration_oracle_equivalence():
    """Pruned backtracking matches brute force, and the gadget extension
    rule matches full brute force on the depth-3 truncation."""
    g3, spec3 = build_truncation(3)
    path_and_anchor = list(spec3.path) + [spec3.anchor]
    with_rule = extension_rule_colorings(g3, spec3)
    full = brute_force_majority_colorings(g3, 2)
    assert {tuple(c.colors[v] for v in path_and_anchor) for c in with_rule} == {
        tuple(c.colors[v] for v in path_and_anchor) for c in full
    }
    assert [c.colors for c in enumerate_majority_colorings(g3, 2)] == [
        c.colors for c in full
    ]

    rng = random.Random(0x5EED)
    for _ in range(100):
        g = random_dag(rng, 18)
        fast = enumerate_majority_colorings(g, 2)
        slow = brute_force_majority_colorings(g, 2)
        assert [c.colors for c in fast] == [c.colors for c in slow]
    _passed(5, "G_3 projections plus 100 random DAGs (<= 18 vertices)")


#: Feasible truth patterns on path positions 1..3, computed once by the
#: enumeration oracle (cross-checked against the full 2^V brute force for
#: n = 3 and 4 in test_criterion_6_shrinkage_inclusion) and frozen.
FROZEN_PREFIX_SETS_M3 = {
    3: {T(0, 0, 1), T(0, 1, 0), T(1, 0, 1)},
    4: {T(0, 0, 1), T(0, 1, 0), T(1, 0, 0)},
    5: {T(0, 0, 0), T(0, 0, 1), T(0, 1, 0), T(1, 0, 0)},
    6: {T(0, 0, 0), T(0, 0, 1), T(0, 1, 0), T(1, 0, 0)},
    7: {T(0, 0, 0), T(0, 0, 1), T(0, 1, 0), T(1, 0, 0)},
    8: {T(0, 0, 0), T(0, 0, 1), T(0, 1, 0), T(1, 0, 0)},
}


def test_criterion_6_prefix_regression_table():
    """The m=3 feasible-set chain matches the frozen table exactly."""
    computed = {n: feasible_prefix_set(n, 3) for n in range(3, 9)}
    assert computed == FROZEN_PREFIX_SETS_M3
    counts = [len(computed[n]) for n in range(3, 9)]
    assert counts == [3, 3, 4, 4, 4, 4]
    _passed(6, f"frozen m=3 table matched, counts {counts}")


def _shift_map(small, large):
    """Vertex map G_n -> G_{n+1}: v_k -> v_{k+1}, anchor -> anchor, and gadget
    (i, j) -> gadget (i+1, j+1), stage by stage, role by role."""
    phi = {v: large.path_vertex(k + 2) for k, v in enumerate(small.path)}
    phi[small.anchor] = large.anchor
    for (i, j), handle in small.gadget_registry.items():
        image = large.gadget_registry[(i + 1, j + 1)]
        for stage, image_stage in zip(handle.stages, image.stages):
            phi.update(zip(stage.fresh, image_stage.fresh))
    return phi


def _reachable(g, start):
    seen, stack = {start}, [start]
    while stack:
        for u in g.out(stack.pop()):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def _prefix_truths(spec, colorings):
    # A path vertex is true when it shares the anchor's color.
    return {
        tuple(c.colors[v] == c.colors[spec.anchor] for v in spec.path[:3])
        for c in colorings
    }


def _witness(n, path_truths):
    """The coloring of G_n with the given path truths, anchor color 0 and
    gadget internals filled by the forced-extension rule."""
    g, spec = build_truncation(n)
    assignment = {v: 0 if t else 1 for v, t in zip(spec.path, path_truths)}
    assignment[spec.anchor] = 0
    return g, spec, Coloring(2, truncation_extension(g, spec)(assignment))


def test_criterion_6_shrinkage_inclusion():
    """Deeper truncations only constrain the path prefix, shifted by one.

    In G_{n+1} the vertices reachable from v_2, plus the anchor, form an
    out-closed copy of G_n (v_k -> v_{k+1}, gadget (i, j) -> gadget
    (i+1, j+1)).  A vertex's majority condition reads only its
    out-neighbors, so every majority coloring of G_{n+1} restricts to one
    of G_n: the depth-(n+1) patterns on v_2..v_4 are depth-n patterns on
    v_1..v_3.

    The aligned inclusion (depth-(n+1) patterns on v_1..v_3 among the
    depth-n ones) is false: G_n is not out-closed in G_{n+1}, because
    every path vertex gains out-edges there (the path edge v_n -> v_{n+1}
    and hookups into the new (i, n+1) gadgets), which moves its majority
    threshold.  TFF enters at depth 4 and FFF at depth 5; both breaks are
    pinned by brute force and verified witnesses that bypass the search.
    """
    # (a) The shift map is an isomorphism onto the part of G_{n+1} below v_2.
    for n in range(2, 9):
        g, spec = build_truncation(n)
        big, big_spec = build_truncation(n + 1)
        phi = _shift_map(spec, big_spec)
        image = set(phi.values())
        assert len(phi) == len(image) == g.vertex_count
        assert image == _reachable(big, big_spec.path_vertex(2)) | {big_spec.anchor}
        mapped = {(phi[u], phi[v]) for u, v in g.sorted_edges()}
        assert mapped == {(u, v) for u, v in big.sorted_edges() if u in image}, n

    # (b) Shifted inclusion: patterns on v_2..v_4 at depth n+1 are feasible
    # on v_1..v_3 at depth n.
    sets = {n: feasible_prefix_set(n, 3) for n in range(3, 9)}
    for n in range(3, 8):
        shifted = {p[1:] for p in feasible_prefix_set(n + 1, 4)}
        assert shifted <= sets[n], (
            f"depth {n + 1} shifted patterns outside depth {n}: "
            f"{sorted(shifted - sets[n])}"
        )

    # (c) The aligned inclusion breaks exactly at depths 3 -> 4 and 4 -> 5.
    new = {n: sorted(sets[n + 1] - sets[n]) for n in range(3, 8)
           if not sets[n + 1] <= sets[n]}
    assert new == {3: [T(1, 0, 0)], 4: [T(0, 0, 0)]}

    # Independent oracles for both breaks, none of them the search engine.
    g3, spec3 = build_truncation(3)
    g4, spec4 = build_truncation(4)
    brute3 = _prefix_truths(spec3, brute_force_majority_colorings(g3, 2))
    brute4 = _prefix_truths(spec4, brute_force_majority_colorings(g4, 2))
    assert T(1, 0, 0) not in brute3
    assert T(0, 0, 0) not in brute4
    assert (brute3, brute4) == (FROZEN_PREFIX_SETS_M3[3], FROZEN_PREFIX_SETS_M3[4])
    for n, path_truths in ((4, T(1, 0, 0, 1)), (5, T(0, 0, 0, 1, 0))):
        g, spec, witness = _witness(n, path_truths)
        assert verify(g, witness).satisfied, (n, path_truths)
        assert _prefix_truths(spec, [witness]) == {path_truths[:3]}
    _passed(6, "shift copy out-closed; shifted inclusion held for n=3..7; "
               "aligned breaks only at 3->4 and 4->5")


def test_criterion_7_symbolic_sweep():
    """Every support description within the window is violated, with the
    expected witnesses."""
    from majoritylab.infinite import (
        SupportColoring,
        SupportMode,
        check_symbolic,
        theorem_sweep,
    )

    report = theorem_sweep(2, 12)
    assert all(e.witness >= 1 for e in report.entries)
    assert max(e.witness for e in report.entries) <= 13
    all_false = SupportColoring(SupportMode.FINITE_TRUE, frozenset())
    assert check_symbolic(all_false) == 1
    for k in range(1, 51):
        d = SupportColoring(SupportMode.FINITE_TRUE, frozenset({k}))
        assert check_symbolic(d) == k + 1
    _passed(7, f"{len(report.entries)} descriptions violated; witnesses match")


def test_criterion_8_multigraph_max_cut():
    """Local search terminates verified within the flip bound; no
    non-2-colorable instance exists within the search window."""
    rng = random.Random(0xCAB)
    for _ in range(200):
        mg = random_multigraph(rng, 12, 5)
        result = local_search_2color(mg)
        assert verify_weighted(mg, result.coloring).satisfied
        assert result.flips <= mg.total_weight
    assert search_non_k_colorable(4, 8, 2) == []
    _passed(8, "200 instances within flip bound; k=2 search empty")


def _run_cli(argv):
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    return code, out.getvalue(), err.getvalue()


def test_criterion_9_determinism():
    """Rebuilt truncations and repeated CLI runs are byte-identical."""
    for n in range(2, 9):
        g1, s1 = build_truncation(n)
        g2, s2 = build_truncation(n)
        assert to_text(g1, truncation_names(s1)) == to_text(g2, truncation_names(s2))
    commands = [
        ["counterexample", "build", "--n", "5"],
        ["counterexample", "verify", "--n", "4"],
        ["infinite", "sweep", "--max-size", "1", "--max-pos", "8"],
        ["majority", "prefix-experiment", "--max-n", "5", "--m", "3"],
        ["gadget", "verify", "--inputs", "3"],
        ["multigraph", "search", "--k", "2", "--max-v", "3", "--max-w", "4"],
    ]
    for argv in commands:
        assert _run_cli(argv) == _run_cli(argv), argv
    # One out-of-process double run through the real entry point.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-m", "majoritylab", "counterexample", "build", "--n", "4"]
    first = subprocess.run(argv, capture_output=True, env=env)
    second = subprocess.run(argv, capture_output=True, env=env)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    _passed(9, "truncations and CLI outputs byte-identical across runs")
