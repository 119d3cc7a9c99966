import io
import contextlib
import hashlib
import json
import os
import random
import re
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import digraphs, multigraphs
from majoritylab import graph, majority
from majoritylab.cli import dispatch
from majoritylab.counterexample import build_truncation, truncation_names
from majoritylab.graph import DiGraph, from_dot, from_text, to_dot, to_text


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def path_graph_file(tmp_path):
    g = DiGraph(3)
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    path = tmp_path / "path.json"
    path.write_text(to_text(g), encoding="utf-8")
    return path


ENUMERATE = "majority enumerate FILE --colors 2"


def run_limited(argv, limit_mb, stdout=subprocess.PIPE):
    """Run the CLI in a child process under an address-space limit.

    Out of process, so an uncaught exception shows as exit 1 (the
    "property violated" code) plus a traceback, and an oversized
    allocation fails fast in the child instead of exhausting the machine.
    """
    src = Path(__file__).resolve().parent.parent / "src"
    limit = limit_mb * 2**20
    return subprocess.run(
        [sys.executable, "-m", "majoritylab", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


class TestUsage:
    def test_unknown_subcommand(self):
        assert run(["nonsense"])[0] == 2

    def test_missing_file(self, tmp_path):
        code, _, err = run(
            ["majority", "enumerate", str(tmp_path / "absent.json"), "--colors", "2"]
        )
        assert code == 2
        assert "error" in err

    def test_help_exits_zero(self):
        assert run(["--help"])[0] == 0

    def test_negative_color_rejected(self, tmp_path):
        g = DiGraph(1)
        gf = tmp_path / "g.json"
        gf.write_text(to_text(g), encoding="utf-8")
        cf = tmp_path / "c.txt"
        cf.write_text("0 -1\n", encoding="utf-8")
        assert run(["majority", "verify", str(gf), str(cf)])[0] == 2

    def test_zero_weight_rejected(self, tmp_path):
        f = tmp_path / "mg.txt"
        f.write_text("0 1 0\n", encoding="utf-8")
        assert run(["multigraph", "solve", str(f)])[0] == 2

    def test_tiny_depth_rejected(self):
        assert run(["counterexample", "build", "--n", "1"])[0] == 2

    def test_seed_flag_rejected(self):
        code, out, err = run(["--seed", "7", "counterexample", "build", "--n", "3"])
        assert code == 2
        assert out == ""
        assert "usage:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, text",
        [
            (ENUMERATE, "[" * 100_000),
            (ENUMERATE, '{"vertex_count": true, "edges": []}'),
            (ENUMERATE, '{"vertex_count": 3, "edges": [[true, 2]]}'),
            (ENUMERATE, '{"vertex_count": 2000000000, "edges": []}'),
            ("multigraph solve FILE", "0 1000000000 1\n"),
            (ENUMERATE, '{"vertex_count": 30, "edges": []}'),
            (ENUMERATE, '{"vertex_count": 1000, "edges": []}'),
            (ENUMERATE, '{"vertex_count": 2, "edges": [], "names": {"1": "a", "1": "b"}}'),
            (ENUMERATE, '{"vertex_count": 3, "edges": [[0, 1]], "edges": [], "vertex_count": 2}'),
            ("counterexample build --n 300", ""),
            ("counterexample verify --n 300", ""),
            ("gadget dot --inputs 100000000", ""),
            ("gadget verify --inputs 100000000", ""),
        ],
        ids=[
            "deep-nesting",
            "bool-vertex-count",
            "bool-edge-end",
            "huge-vertex-count",
            "huge-multigraph-id",
            "too-many-solutions",
            "too-many-wide-solutions",
            "repeated-names-key",
            "repeated-top-level-keys",
            "huge-truncation-build",
            "huge-truncation-verify",
            "huge-chain-dot",
            "huge-chain-verify",
        ],
    )
    def test_malformed_graph_file_is_a_usage_error(self, tmp_path, command, text):
        # The edgeless graphs parse, but their 2^30 and 2^1000 colorings are
        # refused by the enumerator.  The generated graphs need no file and
        # are refused before they are built.
        f = tmp_path / "bad.txt"
        f.write_text(text, encoding="utf-8")
        argv = [str(f) if arg == "FILE" else arg for arg in command.split()]
        proc = run_limited(argv, 400)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    def test_over_cap_palette_refused_before_it_is_built(self, tmp_path):
        # A palette of 10^9 colors would need gigabytes as a tuple; refused
        # first, the 1-vertex enumeration fits in 100 MB.
        f = tmp_path / "one.json"
        f.write_text(to_text(DiGraph(1)), encoding="utf-8")
        proc = run_limited(["majority", "enumerate", str(f), "--colors", str(10**9)], 100)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            "error: at least 1000000000 majority colorings of 1 vertices; "
            "enumeration refused\n"
        )

    def test_long_chain_refused_before_it_is_built(self):
        # Built, the 200 000-input chain needs about 365 MB; refused by the
        # exhaustion bound first, it fits in 100 MB.
        proc = run_limited(["gadget", "verify", "--inputs", "200000"], 100)
        assert proc.returncode == 2
        assert proc.stderr == (
            "error: 799996 internal vertices exceed the exhaustion bound 24\n"
        )

    @pytest.mark.parametrize("command", ["verify", "dot"])
    @pytest.mark.parametrize("k", [-3, -1, 0, 1])
    def test_short_chain_names_its_input_count(self, command, k):
        code, out, err = run(["gadget", command, "--inputs", str(k)])
        assert (code, out) == (2, "")
        assert err == f"error: chained OR needs at least 2 inputs, got {k}\n"

    def test_number_too_long_to_parse(self, tmp_path):
        f = tmp_path / "long.json"
        digits = "0" * sys.get_int_max_str_digits()
        f.write_text(f'{{"vertex_count": 1{digits}, "edges": []}}', encoding="utf-8")
        assert run(["graph", "convert", str(f), "--to", "dot"]) == (
            2, "", "error: number too long to parse\n"
        )

    def test_out_of_memory_is_a_usage_error(self):
        # G_115 is inside MAX_VERTICES but far past 40 MB, so building it
        # runs out of memory within a second.
        proc = run_limited(["counterexample", "verify", "--n", "115"], 40)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: out of memory\n"

    @pytest.mark.parametrize(
        "flag", ["--out", "--dot", None], ids=["--out", "--dot", "stdout"]
    )
    def test_largest_truncation_is_written_within_400_mb(self, tmp_path, flag):
        # G_115 and its names take about 280 MB; its text is written in
        # batches of lines, since the whole document would not fit beside them.
        f = tmp_path / "g115"
        argv = ["counterexample", "build", "--n", "115"]
        if flag:
            proc = run_limited([*argv, flag, str(f)], 400)
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
        else:
            with open(f, "w", encoding="utf-8") as out:
                proc = run_limited(argv, 400, stdout=out)
            assert (proc.returncode, proc.stderr) == (0, "")
        with open(f, "rb") as written:
            written.seek(-2, os.SEEK_END)
            assert written.read() == b"}\n"


class TestMajorityCommands:
    def test_verify_pass(self, path_graph_file, tmp_path):
        coloring = tmp_path / "c.txt"
        coloring.write_text("0 0\n1 1\n2 0\n", encoding="utf-8")
        code, out, _ = run(["majority", "verify", str(path_graph_file), str(coloring)])
        assert code == 0
        assert out.splitlines()[0] == "vertex,mono,diff,satisfied"
        assert "0,0,1,true" in out

    def test_verify_fail(self, path_graph_file, tmp_path):
        coloring = tmp_path / "c.txt"
        coloring.write_text("0 0\n1 0\n2 1\n", encoding="utf-8")
        code, out, err = run(["majority", "verify", str(path_graph_file), str(coloring)])
        assert code == 1
        assert "violated at vertex 0" in err

    def test_verify_stdout_on_a_violated_coloring(self, tmp_path):
        g = DiGraph(6)
        for u, v in [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)]:
            g.add_edge(u, v)
        graph_file = tmp_path / "g.json"
        graph_file.write_text(to_text(g), encoding="utf-8")
        coloring = tmp_path / "c.txt"
        colors = (0, 1, 1, 1, 1, 0)
        coloring.write_text(
            "".join(f"{v} {c}\n" for v, c in enumerate(colors)), encoding="utf-8"
        )
        code, out, err = run(["majority", "verify", str(graph_file), str(coloring)])
        # Recounted by hand: 1 and 2 each match their one target, 3 matches
        # one of two (a tie passes), and 5 is a sink.
        assert out == (
            "vertex,mono,diff,satisfied\n"
            "0,0,2,true\n"
            "1,1,0,false\n"
            "2,1,0,false\n"
            "3,1,1,true\n"
            "4,0,1,true\n"
            "5,0,0,true\n"
        )
        assert (code, err) == (1, "violated at vertex 1\n")

    def test_verify_partial_coloring_rejected(self, path_graph_file, tmp_path):
        coloring = tmp_path / "c.txt"
        coloring.write_text("0 0\n", encoding="utf-8")
        assert run(["majority", "verify", str(path_graph_file), str(coloring)])[0] == 2

    @pytest.mark.parametrize(
        "flag, code, message",
        [
            ([], 0, ""),
            (["--colors", "2"], 2, "vertex 2 has color 2, palette size is 2"),
            (["--colors", "0"], 2, "palette_size must be positive"),
        ],
        ids=["inferred", "two", "zero"],
    )
    def test_verify_palette_flag(self, path_graph_file, tmp_path, flag, code, message):
        coloring = tmp_path / "c.txt"
        coloring.write_text("0 0\n1 1\n2 2\n", encoding="utf-8")
        argv = ["majority", "verify", str(path_graph_file), str(coloring), *flag]
        got, _, err = run(argv)
        assert got == code
        assert err == (f"error: {message}\n" if message else "")

    def test_not_total_error_stays_short(self, tmp_path):
        graph = tmp_path / "wide.json"
        graph.write_text('{"vertex_count": 200000, "edges": []}', encoding="utf-8")
        coloring = tmp_path / "empty.txt"
        coloring.write_text("", encoding="utf-8")
        code, out, err = run(["majority", "verify", str(graph), str(coloring)])
        assert code == 2
        assert out == ""
        assert len(err.encode("utf-8")) < 1024
        assert err.startswith("error: coloring is not total: 200000 vertices missing: 0, 1,")

    def test_enumerate(self, tmp_path):
        g = DiGraph(2)
        g.add_edge(0, 1)
        f = tmp_path / "edge.json"
        f.write_text(to_text(g), encoding="utf-8")
        code, out, _ = run(["majority", "enumerate", str(f), "--colors", "2"])
        assert code == 0
        assert out.splitlines() == ["0 1", "1 0"]

    def test_enumerate_projection(self, tmp_path):
        g = DiGraph(2)
        g.add_edge(0, 1)
        f = tmp_path / "edge.json"
        f.write_text(to_text(g), encoding="utf-8")
        code, out, _ = run(
            ["majority", "enumerate", str(f), "--colors", "2", "--free", "1"]
        )
        assert out.splitlines() == ["0", "1"]

    def test_enumerate_long_path(self, tmp_path):
        n = 1500
        g = DiGraph(n)
        for v in range(n - 1):
            g.add_edge(v, v + 1)
        f = tmp_path / "path.json"
        f.write_text(to_text(g), encoding="utf-8")
        code, out, err = run(["majority", "enumerate", str(f), "--colors", "2"])
        assert code == 0, err
        assert out.splitlines() == [
            " ".join(str((v + c) % 2) for v in range(n)) for c in (0, 1)
        ]

    def test_enumerate_free_checked_before_search(self, tmp_path, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("enumeration ran before --free was checked")

        monkeypatch.setattr(majority, "enumerate_majority_colorings", no_search)
        f = tmp_path / "one.json"
        f.write_text(to_text(DiGraph(1)), encoding="utf-8")
        code, _, err = run(
            ["majority", "enumerate", str(f), "--colors", "2", "--free", "0,5"]
        )
        assert code == 2
        assert "--free vertex 5 out of range" in err

    @pytest.mark.parametrize("max_n", [116, 10**9])
    def test_prefix_experiment_refuses_an_over_cap_depth_first(self, monkeypatch, max_n):
        def no_search(*args, **kwargs):
            raise AssertionError("a truncation was searched before the refusal")

        monkeypatch.setattr(majority, "feasible_prefix_set", no_search)
        code, out, err = run(
            ["majority", "prefix-experiment", "--max-n", str(max_n), "--m", "3"]
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: G_{max_n} would have ")
        assert err.endswith(" vertices, past the cap 1000000\n")

    @pytest.mark.parametrize(
        "max_n, m", [(3, 5), (1, 1), (0, 1), (3, 0)], ids=["m-above", "n1", "n0", "m0"]
    )
    def test_prefix_experiment_refuses_an_empty_range(self, max_n, m):
        code, out, err = run(
            ["majority", "prefix-experiment", "--max-n", str(max_n), "--m", str(m)]
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: --m and --max-n must satisfy 1 <= m <= max-n, 2 <= max-n\n"
        )

    def test_prefix_experiment(self):
        code, out, _ = run(["majority", "prefix-experiment", "--max-n", "4", "--m", "2"])
        assert code == 0
        assert out.splitlines() == [
            "n,m,count,patterns",
            "2,2,2,FT|TF",
            "3,2,3,FF|FT|TF",
            "4,2,3,FF|FT|TF",
        ]


class TestGadgetCommands:
    def test_verify_truth_table(self):
        code, out, err = run(["gadget", "verify", "--inputs", "2"])
        assert code == 0
        assert out.splitlines() == [
            "inputs,extension_exists,extension_unique,output_truth",
            "FF,true,true,false",
            "FT,true,true,true",
            "TF,true,true,true",
            "TT,true,true,true",
        ]
        assert "is_or: true" in err

    def test_verify_past_exhaustion_bound(self):
        code, out, err = run(["gadget", "verify", "--inputs", "8"])
        assert code == 2
        assert out == ""
        assert err == "error: 28 internal vertices exceed the exhaustion bound 24\n"

    def test_dot_parses_back(self):
        code, out, _ = run(["gadget", "dot", "--inputs", "3"])
        assert code == 0
        g, names = from_dot(out)
        assert g.vertex_count == 4 + 8
        assert names[0] == "T"
        assert sum(1 for n in names.values() if n.endswith(".out")) == 2


class TestCounterexampleCommands:
    def test_build_stdout(self):
        g, spec = build_truncation(3)
        code, out, _ = run(["counterexample", "build", "--n", "3"])
        assert code == 0
        assert out == to_text(g, truncation_names(spec))

    def test_build_to_files(self, tmp_path):
        out_file = tmp_path / "g.json"
        dot_file = tmp_path / "g.dot"
        code, out, _ = run(
            ["counterexample", "build", "--n", "3",
             "--out", str(out_file), "--dot", str(dot_file)]
        )
        assert code == 0
        assert out == ""
        assert from_text(out_file.read_text(encoding="utf-8")).vertex_count == 8
        assert dot_file.read_text(encoding="utf-8").startswith("digraph {")

    def test_verify_passes(self):
        code, out, _ = run(["counterexample", "verify", "--n", "4"])
        assert code == 0
        assert out.count(",pass") == 4


class TestInfiniteCommands:
    def test_check_far_singleton(self):
        code, out, _ = run(
            ["infinite", "check", "--mode", "true", "--support", "1000000000000"]
        )
        assert code == 1
        assert out.splitlines()[1] == "violation,1000000000001"

    def test_check_all_false(self):
        code, out, _ = run(["infinite", "check", "--mode", "true", "--support", ""])
        assert code == 1
        assert out.splitlines() == ["verdict,witness", "violation,1"]

    def test_check_singleton(self):
        code, out, _ = run(["infinite", "check", "--mode", "true", "--support", "7"])
        assert code == 1
        assert "violation,8" in out

    def test_check_false_mode(self):
        # Positions 2 and 3 false, all others true: position 1 is true and
        # has two false out-neighbors against infinitely many true ones.
        code, out, _ = run(["infinite", "check", "--mode", "false", "--support", "2,3"])
        assert code == 1
        assert out.splitlines() == ["verdict,witness", "violation,1"]

    def test_sweep(self):
        code, out, _ = run(["infinite", "sweep", "--max-size", "1", "--max-pos", "3"])
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "mode,support,witness"
        assert len(lines) == 1 + 8
        assert "finite-true,2,3" in lines

    @pytest.mark.parametrize("size, pos", [("4", "100"), ("1000000000", "1000000000")])
    def test_sweep_past_budget_exits_2_at_once(self, size, pos):
        start = time.perf_counter()
        code, out, err = run(["infinite", "sweep", "--max-size", size, "--max-pos", pos])
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err.startswith("error: the sweep lists at least ")
        assert err.endswith(" descriptions, past the budget 1000000\n")


class TestMultigraphCommands:
    def test_solve(self, tmp_path):
        f = tmp_path / "mg.txt"
        f.write_text("0 1 5\n", encoding="utf-8")
        code, out, err = run(["multigraph", "solve", str(f)])
        assert code == 0
        assert out.splitlines() == ["0 1", "1 0"]
        assert "# flips: 1" in err

    def test_search_empty(self):
        code, out, _ = run(["multigraph", "search", "--k", "2", "--max-v", "3", "--max-w", "4"])
        assert code == 0
        assert out.strip() == "# findings: 0"

    def test_search_findings(self):
        code, out, _ = run(["multigraph", "search", "--k", "1", "--max-v", "2", "--max-w", "1"])
        assert code == 1
        assert "# findings: 1" in out
        assert "0 1 1" in out


class TestLineRecords:
    """Both line-record files: field count, integer fields, skipped lines."""

    @pytest.mark.parametrize(
        "kind, text, message",
        [
            ("coloring", "0 0\n1 1 1\n", "line 2: expected 'vertex color'"),
            ("coloring", "# c\n\n0\n", "line 3: expected 'vertex color'"),
            ("coloring", "0 0\n1 x\n", "line 2: expected two integers"),
            ("coloring", "  # c\n0 1.0\n", "line 2: expected two integers"),
            ("coloring", "0 1_0\n", "line 1: expected two integers"),
            ("coloring", "0 0\n1 \u0660\n", "line 2: expected two integers"),
            ("coloring", "0 +1\n", "line 1: expected two integers"),
            ("coloring", "\uff10 0\n", "line 1: expected two integers"),
            ("coloring", "0 --1\n", "line 1: expected two integers"),
            ("coloring", "0 \u00b9\n", "line 1: expected two integers"),
            ("coloring", "0 0\n1 -1\n", "line 2: color -1 is negative"),
            ("multigraph", "0 1\n", "line 1: expected 'u v w'"),
            ("multigraph", "# c\n\n0 1 2 3\n", "line 3: expected 'u v w'"),
            ("multigraph", "0 1 x\n", "line 1: expected three integers"),
            ("multigraph", "\n0 1 1\n#\n0 2 1e3\n", "line 4: expected three integers"),
            ("multigraph", "0 1 \u0663\n", "line 1: expected three integers"),
            ("multigraph", "0 1 1_0\n", "line 1: expected three integers"),
            ("multigraph", "0 +1 1\n", "line 1: expected three integers"),
            ("multigraph", "0 1 -\n", "line 1: expected three integers"),
            ("multigraph", "0 -1 1\n", "line 1: vertex ids must be non-negative"),
            ("multigraph", "0 1 1\n2 2 1\n", "line 2: self-loop (2, 2) rejected"),
        ],
    )
    def test_bad_record_names_its_line(self, path_graph_file, tmp_path, kind, text, message):
        f = tmp_path / "records.txt"
        f.write_text(text, encoding="utf-8")
        if kind == "coloring":
            argv = ["majority", "verify", str(path_graph_file), str(f)]
        else:
            argv = ["multigraph", "solve", str(f)]
        assert run(argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    @pytest.mark.parametrize("kind", ["coloring", "multigraph"])
    def test_only_newline_ends_a_record(self, path_graph_file, tmp_path, kind, sep):
        # str.splitlines would break at sep, so line 1 would be two records
        # and the bad record would be reported on line 3.
        f = tmp_path / "records.txt"
        if kind == "coloring":
            f.write_text(f"0 0{sep}1 1\n2 x\n", encoding="utf-8")
            argv = ["majority", "verify", str(path_graph_file), str(f)]
            message = "line 1: expected 'vertex color'"
        else:
            f.write_text(f"0 1 1{sep}1 2 1\n0 1 x\n", encoding="utf-8")
            argv = ["multigraph", "solve", str(f)]
            message = "line 1: expected 'u v w'"
        assert run(argv) == (2, "", f"error: {message}\n")

    def test_coloring_skips_blank_and_comment_lines(self, path_graph_file, tmp_path):
        f = tmp_path / "c.txt"
        f.write_text("# colors\n\n0 0\n   \n  # mid\n1 1\n2 0\n", encoding="utf-8")
        code, out, _ = run(["majority", "verify", str(path_graph_file), str(f)])
        assert code == 0
        assert out.splitlines()[1:] == ["0,0,1,true", "1,0,1,true", "2,0,0,true"]

    def test_multigraph_skips_blank_and_comment_lines(self, tmp_path):
        f = tmp_path / "mg.txt"
        f.write_text("# weights\n\n  0 1 5  \n\t\n#0 2 9\n", encoding="utf-8")
        code, out, _ = run(["multigraph", "solve", str(f)])
        assert code == 0
        assert out.splitlines() == ["0 1", "1 0"]


class TestIdLists:
    """--free and --support: comma-separated fields, each -?[0-9]+ once stripped, none repeated."""

    @pytest.mark.parametrize("value", ["\u0663", "1_0", "+1", "\uff13", "\u0662,1_0", " 1 , 2"])
    @pytest.mark.parametrize("flag, argv, good", [
        ("--free", ["majority", "enumerate", "GRAPH", "--colors", "2"], (0, "0 1\n1 0\n")),
        ("--support", ["infinite", "check", "--mode", "true"], (1, "verdict,witness\nviolation,1\n")),
    ], ids=["free", "support"])
    def test_only_ascii_integers_are_read(self, path_graph_file, flag, argv, good, value):
        argv = [str(path_graph_file) if a == "GRAPH" else a for a in argv]
        bad = (2, "", f"error: expected comma-separated integers, got {value!r}\n")
        # Spaces around a field are stripped, so " 1 , 2" reads vertices 1 and 2.
        assert run([*argv, flag, value]) == ((*good, "") if value == " 1 , 2" else bad)

    @pytest.mark.parametrize("value, repeat", [("1,1", 1), ("2, 0,2", 2), ("0,1,1,0", 1)])
    @pytest.mark.parametrize("flag, argv", [
        ("--free", ["majority", "enumerate", "GRAPH", "--colors", "2"]),
        ("--support", ["infinite", "check", "--mode", "true"]),
    ], ids=["free", "support"])
    def test_a_repeated_id_is_refused(self, path_graph_file, flag, argv, value, repeat):
        argv = [str(path_graph_file) if a == "GRAPH" else a for a in argv]
        assert run([*argv, flag, value]) == (2, "", f"error: id {repeat} is repeated in {value!r}\n")


class TestGraphConvert:
    def test_text_to_dot_and_back(self, path_graph_file, tmp_path):
        code, dot, _ = run(["graph", "convert", str(path_graph_file), "--to", "dot"])
        assert code == 0
        dot_file = tmp_path / "g.dot"
        dot_file.write_text(dot, encoding="utf-8")
        code, text, _ = run(["graph", "convert", str(dot_file), "--to", "text"])
        assert code == 0
        assert from_text(text) == from_text(path_graph_file.read_text(encoding="utf-8"))

    def test_over_cap_dot_is_refused(self, tmp_path, monkeypatch):
        # Graph text past the cap would be refused by every subcommand, so
        # the DOT reader refuses it first.
        monkeypatch.setattr(graph, "MAX_VERTICES", 3)
        f = tmp_path / "g.dot"
        f.write_text(to_dot(DiGraph(4)), encoding="utf-8")
        assert run(["graph", "convert", str(f), "--to", "text"]) == (
            2, "", "error: 4 vertex statements exceed the cap 3\n"
        )
        f.write_text(to_dot(DiGraph(3)), encoding="utf-8")
        assert run(["graph", "convert", str(f), "--to", "text"]) == (0, to_text(DiGraph(3)), "")

    def test_canonicalizes(self, tmp_path):
        f = tmp_path / "g.json"
        f.write_text('{"vertex_count": 3, "edges": [[1, 2], [0, 1]]}', encoding="utf-8")
        code, out, _ = run(["graph", "convert", str(f), "--to", "text"])
        assert code == 0
        assert out.index("[0, 1]") < out.index("[1, 2]")

    def test_names_survive_both_directions(self, tmp_path):
        g = DiGraph(2)
        g.add_edge(0, 1)
        f = tmp_path / "named.json"
        f.write_text(to_text(g, {0: "src", 1: "dst"}), encoding="utf-8")
        _, dot, _ = run(["graph", "convert", str(f), "--to", "dot"])
        assert 'label="src"' in dot
        dot_file = tmp_path / "named.dot"
        dot_file.write_text(dot, encoding="utf-8")
        _, text, _ = run(["graph", "convert", str(dot_file), "--to", "text"])
        assert text == f.read_text(encoding="utf-8")

    def test_line_break_names_survive_both_directions(self, tmp_path):
        f = tmp_path / "named.json"
        f.write_text(to_text(DiGraph(3), {0: "a\nb", 1: "c\r\nd", 2: "e\u2028f\r"}), encoding="utf-8")
        code, dot, _ = run(["graph", "convert", str(f), "--to", "dot"])
        assert code == 0
        dot_file = tmp_path / "named.dot"
        dot_file.write_text(dot, encoding="utf-8")
        code, text, _ = run(["graph", "convert", str(dot_file), "--to", "text"])
        assert code == 0
        assert text == f.read_text(encoding="utf-8")


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["counterexample", "build", "--n", "5"],
            ["infinite", "sweep", "--max-size", "1", "--max-pos", "6"],
            ["majority", "prefix-experiment", "--max-n", "5", "--m", "2"],
            ["gadget", "verify", "--inputs", "3"],
        ],
    )
    def test_repeat_runs_identical(self, argv):
        first = run(argv)
        second = run(argv)
        assert first == second


def _seeded_dag_files(tmp_path, seed=3, vertices=3000):
    """A random DAG (edges go up in id) and a random 2-coloring of it."""
    rng = random.Random(seed)
    g = DiGraph(vertices)
    for u in range(vertices - 1):
        for v in rng.sample(range(u + 1, vertices), min(3, vertices - 1 - u)):
            g.add_edge(u, v)
    graph_file = tmp_path / "dag.json"
    graph_file.write_text(to_text(g), encoding="utf-8")
    coloring_file = tmp_path / "coloring.txt"
    coloring_file.write_text(
        "".join(f"{v} {rng.randrange(2)}\n" for v in range(vertices)), encoding="utf-8"
    )
    return graph_file, coloring_file


class TestUnbufferedOutput:
    """A child with unbuffered stdout prints the bytes an in-process run gives."""

    @pytest.mark.parametrize("argv", [
        "infinite sweep --max-size 3 --max-pos 30",
        "majority verify GRAPH COLORING",
    ])
    def test_unbuffered_child_matches_in_process(self, tmp_path, argv):
        graph_file, coloring_file = _seeded_dag_files(tmp_path)
        files = {"GRAPH": graph_file, "COLORING": coloring_file}
        argv = [str(files.get(arg, arg)) for arg in argv.split()]
        code, out, _ = run(argv)
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "majoritylab", *argv],
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED="1"),
        )
        assert proc.returncode == code
        assert proc.stdout == out.encode("utf-8")
        if argv[0] == "infinite":
            golden = json.loads((src.parent / "bench" / "golden.json").read_text("utf-8"))
            assert hashlib.sha256(proc.stdout).hexdigest() == golden[" ".join(argv)][1]


# --- fuzzing -------------------------------------------------------------------


# Tokens of the three file formats, so that mutations reach past the first
# syntax check more often than random bytes do.
TOKENS = [
    b"{", b"}", b"[", b"]", b",", b":", b'"', b"\\", b" ", b"\n", b"#",
    b"-1", b"0", b"7", b"1.5", b"1e3", b"true", b"null", b"NaN",
    b'"vertex_count"', b'"edges"', b'"names"', b"digraph {", b"->", b";",
    b'[label="x"]', b"\xff",
]
CHUNKS = st.one_of(st.binary(min_size=1, max_size=4), st.sampled_from(TOKENS))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 20) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["vertex_count", "edges", "names", "0"]), inner, max_size=3),
    max_leaves=8,
).map(lambda value: json.dumps(value).encode("utf-8"))


@st.composite
def _mutated(draw, valid: bytes) -> bytes:
    """``valid`` with a few chunks replaced, deleted or inserted."""
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        chunk = draw(CHUNKS)
        edit = draw(st.sampled_from(("replace", "delete", "insert")))
        if edit == "replace":
            data[at:at + len(chunk)] = chunk
        elif edit == "delete":
            del data[at:at + len(chunk)]
        else:
            data[at:at] = chunk
    return bytes(data)


def _fuzzed(valid: st.SearchStrategy[bytes]) -> st.SearchStrategy[bytes]:
    return st.one_of(st.binary(max_size=64), JSON_VALUES, valid, valid.flatmap(_mutated))


def _graph_json(g: DiGraph) -> bytes:
    return to_text(g, {0: "T"} if g.vertex_count else None).encode("utf-8")


def _coloring_text(colors: list[int]) -> bytes:
    return "".join(f"{v} {c}\n" for v, c in enumerate(colors)).encode("utf-8")


def _multigraph_text(mg) -> bytes:
    return "".join(f"{u} {v} {w}\n" for u, v, w in mg.edges()).encode("utf-8")


GRAPH_JSON = digraphs(max_vertices=8).map(_graph_json)
GRAPH_DOT = digraphs(max_vertices=8).map(lambda g: to_dot(g, {0: "T"}).encode("utf-8"))
COLORING = st.lists(st.integers(0, 2), max_size=8).map(_coloring_text)
MULTIGRAPH = multigraphs(max_vertices=8).map(_multigraph_text)

# Each command names its input files by the strategy that fills them.
FUZZED_COMMANDS = [
    ("majority verify FILE FILE", (GRAPH_JSON, COLORING)),
    ("majority enumerate FILE --colors 2", (GRAPH_JSON,)),
    ("graph convert FILE --to dot", (GRAPH_JSON,)),
    ("graph convert FILE --to text", (GRAPH_DOT,)),
    ("multigraph solve FILE", (MULTIGRAPH,)),
]


class TestFuzz:
    @given(data=st.data())
    @settings(max_examples=150)
    def test_any_input_gives_an_exit_code(self, data):
        command, sources = data.draw(st.sampled_from(FUZZED_COMMANDS))
        blobs = [data.draw(_fuzzed(source)) for source in sources]
        # Numbers above 20 would let a mutation declare a graph too large to
        # enumerate quickly; the out-of-process cases above cover big inputs.
        assume(all(int(d) <= 20 for blob in blobs for d in re.findall(rb"\d+", blob)))
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for idx, blob in enumerate(blobs):
                path = Path(tmp) / f"input{idx}"
                path.write_bytes(blob)
                paths.append(str(path))
            argv = [paths.pop(0) if arg == "FILE" else arg for arg in command.split()]
            code, _, err = run(argv)
        assert code in (0, 1, 2)
        if code == 2:
            assert err.startswith("error: ")
