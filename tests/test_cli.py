import io
import contextlib
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from majoritylab import majority
from majoritylab.cli import dispatch
from majoritylab.counterexample import build_truncation, truncation_names
from majoritylab.graph import DiGraph, from_dot, from_text, to_text


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
        ],
        ids=[
            "deep-nesting",
            "bool-vertex-count",
            "bool-edge-end",
            "huge-vertex-count",
            "huge-multigraph-id",
        ],
    )
    def test_malformed_graph_file_is_a_usage_error(self, tmp_path, command, text):
        # Out of process, so an uncaught exception would show as exit 1
        # (the "property violated" code) plus a traceback.  The address-space
        # limit makes an oversized allocation fail fast in the child instead
        # of exhausting the machine.
        f = tmp_path / "bad.txt"
        f.write_text(text, encoding="utf-8")
        src = Path(__file__).resolve().parent.parent / "src"
        limit = 400 * 2**20
        argv = [str(f) if arg == "FILE" else arg for arg in command.split()]
        proc = subprocess.run(
            [sys.executable, "-m", "majoritylab", *argv],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr


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

    def test_verify_partial_coloring_rejected(self, path_graph_file, tmp_path):
        coloring = tmp_path / "c.txt"
        coloring.write_text("0 0\n", encoding="utf-8")
        assert run(["majority", "verify", str(path_graph_file), str(coloring)])[0] == 2

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
    def test_check_all_false(self):
        code, out, _ = run(["infinite", "check", "--mode", "true", "--support", ""])
        assert code == 1
        assert out.splitlines() == ["verdict,witness", "violation,1"]

    def test_check_singleton(self):
        code, out, _ = run(["infinite", "check", "--mode", "true", "--support", "7"])
        assert code == 1
        assert "violation,8" in out

    def test_sweep(self):
        code, out, _ = run(["infinite", "sweep", "--max-size", "1", "--max-pos", "3"])
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "mode,support,witness"
        assert len(lines) == 1 + 8
        assert "finite-true,2,3" in lines


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


class TestGraphConvert:
    def test_text_to_dot_and_back(self, path_graph_file, tmp_path):
        code, dot, _ = run(["graph", "convert", str(path_graph_file), "--to", "dot"])
        assert code == 0
        dot_file = tmp_path / "g.dot"
        dot_file.write_text(dot, encoding="utf-8")
        code, text, _ = run(["graph", "convert", str(dot_file), "--to", "text"])
        assert code == 0
        assert from_text(text) == from_text(path_graph_file.read_text(encoding="utf-8"))

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
