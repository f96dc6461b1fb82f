"""CLI exercised in-process through main(argv)."""

import argparse
import csv
import hashlib
import io
import os
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import padovanheap
from padovanheap import FibonacciHeap, Oracle, PadovanHeap
from padovanheap.auditor import CostModel
from padovanheap.cli import (
    CSV_HEADER, GEN_CHUNK, build_parser, main, write_dot)
from padovanheap.trace import format_trace, gen_workload

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# What pip's generated console script does, with the entry point's value
# filled in from pyproject.toml.
LAUNCHER = """\
import sys
from importlib.metadata import EntryPoint
sys.argv[0] = "padovan-heap"
sys.exit(EntryPoint("padovan-heap", {value!r}, "console_scripts").load()())
"""


def run_cli(*argv):
    return main(list(argv))


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_run_prints_outputs(tmp_path, capsys):
    tr = write(tmp_path, "t.txt", "i 5\ni 3\nf\nd\nd\n")
    assert run_cli("run", tr) == 0
    assert capsys.readouterr().out == "3\n3\n5\n"


def test_run_all_impls_agree(tmp_path, capsys):
    tr = write(tmp_path, "t.txt", "i 5\ni 3\ni 9\nk 3 -1\nf\nx 1\nd\nd\n")
    outs = set()
    for impl in ("padovan", "fibonacci", "oracle"):
        assert run_cli("run", tr, "--impl", impl) == 0
        outs.add(capsys.readouterr().out)
    assert outs == {"-1\n-1\n3\n"}


def test_run_differential_and_audit(tmp_path, capsys):
    tr = write(tmp_path, "t.txt", "i 5\ni 3\ni 9\ni 1\nf\nk 3 -4\nd\nf\nd\nd\nd\n")
    assert run_cli("run", tr, "--differential", "--audit") == 0
    assert capsys.readouterr().out == "1\n-4\n1\n1\n3\n5\n"


def test_run_differential_reports_the_first_mismatch(tmp_path, capsys,
                                                      monkeypatch):
    real_delete_min = FibonacciHeap.delete_min
    monkeypatch.setattr(FibonacciHeap, "delete_min",
                        lambda self: real_delete_min(self) + 1)
    tr = write(tmp_path, "t.txt", "i 5\ni 3\nf\nd\n")
    assert run_cli("run", tr, "--differential") == 1
    assert ("differential mismatch at output 1: padovan=3 fibonacci=4"
            in capsys.readouterr().err)


def test_run_differential_reports_an_oracle_mismatch(tmp_path, capsys,
                                                     monkeypatch):
    real_delete_min = Oracle.delete_min
    monkeypatch.setattr(Oracle, "delete_min",
                        lambda self: real_delete_min(self) + 1)
    tr = write(tmp_path, "t.txt", "i 5\ni 3\nf\nd\n")
    assert run_cli("run", tr, "--differential") == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "differential mismatch at output 1: padovan=3 oracle=4\n"


def test_run_differential_stats_are_padovans_row(tmp_path, capsys):
    tr = write(tmp_path, "t.txt", "i 5\ni 3\ni 9\ni 1\nf\nk 3 -4\nd\nf\n")
    alone, both = tmp_path / "alone.csv", tmp_path / "both.csv"
    assert run_cli("run", tr, "--stats", str(alone)) == 0
    assert run_cli("run", tr, "--differential", "--stats", str(both)) == 0
    capsys.readouterr()
    assert both.read_bytes() == alone.read_bytes()
    assert b"\npadovan,trace,4,8," in alone.read_bytes()


def dot_lines(text):
    """The DOT text's lines with each node id replaced by its key, which
    the trace keeps distinct, so that two runs' graphs compare."""
    keys = dict(re.findall(r'^  n(\d+) \[label="([^/]+)/', text, re.M))
    return re.sub(r"\bn(\d+)\b", lambda m: "k" + keys[m.group(1)],
                  text).splitlines()


def test_run_differential_dot_is_padovans_dot(tmp_path, capsys):
    tr = str(tmp_path / "w.txt")
    assert run_cli("gen", "--mode", "random", "--n", "300", "--seed", "0",
                   "-o", tr) == 0
    alone, both = tmp_path / "alone.dot", tmp_path / "both.dot"
    assert run_cli("run", tr, "--dot", str(alone)) == 0
    assert run_cli("run", tr, "--differential", "--dot", str(both)) == 0
    capsys.readouterr()
    assert dot_lines(both.read_text()) == dot_lines(alone.read_text())


def test_dot_lines_of_a_random_trace_are_frozen(tmp_path, capsys):
    """The lines of the graph, as a multiset, are those the stack-walking
    writer gave before write_dot walked iter_vertices: 58 vertices, 44
    edges, 17 of them dashed."""
    tr = str(tmp_path / "w.txt")
    assert run_cli("gen", "--mode", "random", "--n", "300", "--seed", "0",
                   "-o", tr) == 0
    dot = tmp_path / "g.dot"
    assert run_cli("run", tr, "--dot", str(dot)) == 0
    capsys.readouterr()
    lines = dot_lines(dot.read_text())
    assert len(lines) == 105
    assert sum("dashed" in line for line in lines) == 17
    assert hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest() == (
        "7c4eed3497988bb31f1ce42da76505e265e2e435c0734dced220d8a47156ed61")


def test_run_missing_file(capsys):
    assert run_cli("run", "/nonexistent/trace.txt") == 2
    assert "cannot read trace" in capsys.readouterr().err


def test_run_bad_trace_syntax(tmp_path, capsys):
    tr = write(tmp_path, "t.txt", "i 5\nboom\n")
    assert run_cli("run", tr) == 2
    err = capsys.readouterr().err
    assert "syntax" in err and "line 2" in err


def test_run_bad_trace_dead_id(tmp_path, capsys):
    tr = write(tmp_path, "t.txt", "i 5\nx 3\n")
    assert run_cli("run", tr) == 2
    assert "dead_id" in capsys.readouterr().err


def test_run_empty_pop_is_runtime_failure(tmp_path, capsys):
    tr = write(tmp_path, "t.txt", "f\n")
    assert run_cli("run", tr) == 1
    assert "replay failed" in capsys.readouterr().err


def test_audit_requires_padovan(tmp_path, capsys):
    tr = write(tmp_path, "t.txt", "i 1\n")
    assert run_cli("run", tr, "--impl", "fibonacci", "--audit") == 2
    assert "--audit requires" in capsys.readouterr().err
    assert run_cli("run", tr, "--impl", "oracle", "--dot", str(tmp_path / "g.dot")) == 2


def test_run_audit_clean(tmp_path, capsys):
    tr = write(tmp_path, "t.txt", "i 2\ni 7\ni 4\nf\nk 2 0\nd\nd\nd\n")
    assert run_cli("run", tr, "--audit") == 0
    assert capsys.readouterr().out == "2\n0\n2\n4\n"


def test_run_audit_fails_on_a_state_violation(tmp_path, capsys, monkeypatch):
    real_find_min = PadovanHeap.find_min

    def find_min_then_break_heap_order(self):
        m = real_find_min(self)
        m.child.key = 1  # under the root 3
        return m

    monkeypatch.setattr(PadovanHeap, "find_min",
                        find_min_then_break_heap_order)
    tr = write(tmp_path, "t.txt", "i 5\ni 3\ni 9\nf\nd\n")
    assert run_cli("run", tr, "--audit") == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("audit failed at event 3 (f):\n"
                   "  kind=heap_order child_key=1 parent_key=3\n")


def test_run_audit_reports_a_broken_root_list(tmp_path, capsys,
                                             monkeypatch):
    """The state is audited before the budget reads potentials(), whose
    root-list scan would not return on this corruption."""
    def find_min_then_break_the_root_list(self):
        roots = self.roots()
        roots[-1].right = roots[1]  # the root list no longer closes
        return min(roots, key=lambda r: r.key)

    def expire(signum, frame):
        raise TimeoutError("run --audit did not return")

    monkeypatch.setattr(PadovanHeap, "find_min",
                        find_min_then_break_the_root_list)
    tr = write(tmp_path, "t.txt", "i 1\ni 2\ni 3\ni 4\ni 5\nf\n")
    old = signal.signal(signal.SIGALRM, expire)
    try:
        signal.alarm(10)
        try:
            assert run_cli("run", tr, "--audit") == 1
        finally:
            signal.alarm(0)
    finally:
        signal.signal(signal.SIGALRM, old)
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("audit failed at event 5 (f):\n")
    assert "kind=broken_owner_link" in err


def test_run_audit_reports_a_child_link_into_a_freed_vertex(tmp_path,
                                                           capsys,
                                                           monkeypatch):
    """check_root_safety runs after the f as well, and reads the freed
    vertex's None left link as no danger, so the audit is reported."""
    find_min = PadovanHeap.find_min

    def find_min_then_aim_the_root_at_a_freed_vertex(self):
        m = find_min(self)
        f = self.insert(20)
        self.delete(f)
        self.roots()[0].child = f
        return m

    monkeypatch.setattr(PadovanHeap, "find_min",
                        find_min_then_aim_the_root_at_a_freed_vertex)
    tr = write(tmp_path, "t.txt",
               "".join("i %d\n" % k for k in range(1, 9)) + "f\n")
    assert run_cli("run", tr, "--audit") == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("audit failed at event 8 (f):\n"
                   "  kind=broken_owner_link child_key=20 owner_key=1\n")


def test_run_audit_fails_on_a_budget_violation(tmp_path, capsys,
                                               monkeypatch):
    # the default model with both budgets at 0: the first insert's
    # charge, t0 + t2 = 3, is over
    monkeypatch.setattr(CostModel.__init__, "__defaults__",
                        ((1, 1, 2, 6, 6, 2, 3), 0, 0))
    tr = write(tmp_path, "t.txt", "i 5\ni 3\nf\n")
    assert run_cli("run", tr, "--differential", "--audit") == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("audit failed at event 0 (i 5):\n"
                   "  kind=budget bound=0 charge=3 dW=3 index=0 op='i' "
                   "steps=0\n")


def test_stats_csv(tmp_path, capsys):
    tr = write(tmp_path, "t.txt", "i 5\ni 3\nf\n")
    out = str(tmp_path / "s.csv")
    assert run_cli("run", tr, "--stats", out) == 0
    capsys.readouterr()
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_HEADER
    assert rows[0] == ["impl", "mode", "n", "ops", "total_steps", "max_rank",
                       "steps_per_op", "phi0", "phi1", "phi2", "phi3", "phi4",
                       "phi5", "phi6"]
    assert len(rows) == 2
    r = rows[1]
    assert r[0] == "padovan" and r[1] == "trace"
    assert r[2] == "2" and r[3] == "3"          # 2 inserts, 3 ops
    assert abs(float(r[6]) - float(r[4]) / 3) < 1e-5
    # two roots join outright: one tree, its single child inner, nothing placed
    assert r[7:] == ["1", "0", "1", "0", "0", "0", "0"]


def test_dot_output(tmp_path, capsys):
    tr = write(tmp_path, "t.txt", "i 3\ni 1\ni 2\nf\n")
    dot = str(tmp_path / "g.dot")
    assert run_cli("run", tr, "--dot", dot) == 0
    capsys.readouterr()
    text = open(dot).read()
    assert text.startswith("digraph")
    assert '[label="1/1/-"]' in text            # root: key/rank/dash
    assert '[label="2/0/P"]' in text            # placed child
    assert '[label="3/0/N"]' in text
    assert text.count("->") == 2
    assert text.count("dashed") == 1            # only the placed child


@pytest.mark.parametrize("status", [-1, 4])
def test_dot_labels_an_out_of_range_status_visibly(status):
    # find_min over 1..8 leaves 2 a rank-0 child of root 1
    h = PadovanHeap()
    hs = {k: h.insert(k) for k in range(1, 9)}
    h.find_min()
    hs[2].status = status
    out = io.StringIO()
    write_dot(h, out)
    text = out.getvalue()
    assert '[label="2/0/?%d"]' % status in text
    assert text.count("?") == 1


def test_gen_stdout_and_file(tmp_path, capsys):
    assert run_cli("gen", "--mode", "ascending", "--n", "3") == 0
    assert capsys.readouterr().out == "i 1\ni 2\ni 3\nf\n"
    out = str(tmp_path / "w.txt")
    assert run_cli("gen", "--mode", "random", "--n", "200", "--seed", "7",
                   "-o", out) == 0
    text = open(out).read()
    assert run_cli("gen", "--mode", "random", "--n", "200", "--seed", "7") == 0
    assert capsys.readouterr().out == text


@pytest.mark.parametrize("mode, n", [
    ("random", GEN_CHUNK - 1), ("random", GEN_CHUNK),
    ("random", GEN_CHUNK + 1), ("random", 2 * GEN_CHUNK + 5),
    ("ascending", GEN_CHUNK - 2), ("ascending", GEN_CHUNK - 1),
    ("ascending", GEN_CHUNK), ("competition", GEN_CHUNK // 4 + 1)])
def test_gen_streams_the_whole_trace_byte_for_byte(tmp_path, capsys,
                                                    mode, n):
    """gen writes the trace in chunks of GEN_CHUNK events; the bytes are
    those of the whole trace formatted at once, on both sides of a chunk
    boundary (ascending has n + 1 events, competition 4 n)."""
    want = format_trace(gen_workload(mode, n, seed=11)).encode()
    out = tmp_path / "w.txt"
    assert run_cli("gen", "--mode", mode, "--n", str(n), "--seed", "11",
                   "-o", str(out)) == 0
    assert out.read_bytes() == want
    assert run_cli("gen", "--mode", mode, "--n", str(n), "--seed", "11") == 0
    assert capsys.readouterr().out.encode() == want


def test_gen_then_run_differential(tmp_path, capsys):
    out = str(tmp_path / "w.txt")
    assert run_cli("gen", "--mode", "random", "--n", "800", "--seed", "3",
                   "-o", out) == 0
    assert run_cli("run", out, "--differential", "--audit") == 0


def test_bench_summary_and_csv(tmp_path, capsys):
    out = str(tmp_path / "b.csv")
    assert run_cli("bench", "--impl", "padovan", "--mode", "competition",
                   "--n", "100", "--csv", out) == 0
    got = capsys.readouterr().out
    assert got.count("\n") == 1                 # one summary line, no F/D echo
    assert got.startswith("impl=padovan mode=competition n=100 ops=400 ")
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_HEADER and len(rows) == 2
    assert rows[1][0] == "padovan" and rows[1][3] == "400"
    assert int(rows[1][5]) <= 3                 # flat rank on this workload


def test_bench_fibonacci(tmp_path, capsys):
    out = str(tmp_path / "b.csv")
    assert run_cli("bench", "--impl", "fibonacci", "--mode", "random",
                   "--n", "500", "--seed", "2", "--csv", out) == 0
    capsys.readouterr()
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][0] == "fibonacci"
    assert rows[1][7:] == ["0"] * 7             # no potentials for the baseline


def test_usage_errors_exit_two(tmp_path, capsys):
    csv_path = str(tmp_path / "b.csv")
    for argv in ((), ("frobnicate",), ("gen", "--mode", "random"),
                 ("gen", "--mode", "nope", "--n", "5"),
                 ("bench", "--mode", "random", "--n", "5"),
                 ("gen", "--mode", "random", "--n", "0"),
                 ("gen", "--mode", "ascending", "--n", "-1"),
                 ("bench", "--mode", "competition", "--n", "-3",
                  "--csv", csv_path)):
        with pytest.raises(SystemExit) as ei:
            run_cli(*argv)
        assert ei.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        if "--n" in argv and int(argv[argv.index("--n") + 1]) < 1:
            assert "--n: must be at least 1" in err
    assert not os.path.exists(csv_path)


def test_parser_options_are_pinned():
    """Each subcommand's options, with their choices and defaults."""
    parser = build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    impls = ("padovan", "fibonacci", "oracle")
    modes = ("random", "ascending", "competition")
    got = {name: [(tuple(a.option_strings) or a.dest,
                   tuple(a.choices) if a.choices else None, a.default,
                   a.required)
                  for a in p._actions]
           for name, p in sub.choices.items()}
    help_ = (("-h", "--help"), None, argparse.SUPPRESS, False)
    assert got == {
        "run": [help_, ("file", None, None, True),
                (("--impl",), impls, "padovan", False),
                (("--audit",), None, False, False),
                (("--differential",), None, False, False),
                (("--stats",), None, None, False),
                (("--dot",), None, None, False)],
        "gen": [help_, (("--mode",), modes, None, True),
                (("--n",), None, None, True),
                (("--seed",), None, 0, False),
                (("-o", "--out"), None, None, False)],
        "bench": [help_, (("--impl",), impls, "padovan", False),
                  (("--mode",), modes, None, True),
                  (("--n",), None, None, True),
                  (("--seed",), None, 0, False),
                  (("--csv",), None, None, True)],
    }


def child_env():
    """Environment in which a child Python imports the padovanheap under test."""
    pkg_parent = Path(padovanheap.__file__).resolve().parent.parent
    return {**os.environ, "PYTHONPATH": str(pkg_parent)}


def test_module_entry_point():
    r = subprocess.run([sys.executable, "-m", "padovanheap", "gen",
                        "--mode", "ascending", "--n", "2"],
                       capture_output=True, text=True, env=child_env())
    assert r.returncode == 0
    assert r.stdout == "i 1\ni 2\nf\n"


def test_non_positive_n_is_a_usage_error_under_optimize():
    """-O strips asserts; --n 0 must still exit 2 and write nothing."""
    r = subprocess.run([sys.executable, "-O", "-m", "padovanheap", "gen",
                        "--mode", "ascending", "--n", "0"],
                       capture_output=True, text=True, env=child_env())
    assert r.returncode == 2
    assert r.stdout == ""
    assert "--n: must be at least 1" in r.stderr


def test_console_script():
    """The `padovan-heap` console script runs `gen` end to end.

    The script must be declared in pyproject.toml as padovanheap.cli:main.
    Where a launcher is on PATH, the installed launcher is run.  Otherwise
    the declared entry point is loaded and called the way pip's generated
    launcher does it, so main() must parse sys.argv on its own.
    """
    exe = shutil.which("padovan-heap")
    try:
        import tomllib
    except ModuleNotFoundError:                 # Python 3.10
        tomllib = None if exe else pytest.importorskip("tomllib")
    if tomllib is not None:
        with open(PYPROJECT, "rb") as fh:
            scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
        assert scripts.get("padovan-heap") == "padovanheap.cli:main"
    if exe:
        cmd = [exe]
    else:
        cmd = [sys.executable, "-c", LAUNCHER.format(value=scripts["padovan-heap"])]
    r = subprocess.run(cmd + ["gen", "--mode", "competition", "--n", "1"],
                       capture_output=True, text=True, env=child_env())
    assert r.returncode == 0
    assert r.stdout == "i -1\ni -2\nf\nd\n"
