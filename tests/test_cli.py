import csv
import inspect
import io
import itertools
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import recsp.cli
import recsp.errors
from recsp import instance_io
from recsp.cli import main
from recsp.dispatch import solve
from recsp.generator import generate_instance
from recsp.graph import Instance, MultiDigraph
from recsp.instance_io import (
    ARRAY_MIN_CHARS,
    parse_instance,
    parse_solution,
    serialize_instance,
)
from recsp.oracle import solve_bruteforce

SAMPLE = """\
p recsp 2 2 0 1 1
a 0 1 5 1 1
a 0 1 1 10 0
"""

DIAMOND = """\
p recsp 4 4 0 3 2
a 0 1 0 10 0
a 1 3 0 10 0
a 0 2 10 0 0
a 2 3 10 0 0
"""


@pytest.fixture
def sample_file(tmp_path):
    path = tmp_path / "sample.txt"
    path.write_text(SAMPLE)
    return str(path)


def test_solve_text_output(sample_file, capsys):
    assert main(["solve", "--input", sample_file]) == 0
    out = capsys.readouterr().out
    assert "total 3" in out
    assert "divergence 1" in out


def test_solve_machine_output_roundtrips(sample_file, capsys):
    assert main(["solve", "--input", sample_file, "--output", "machine"]) == 0
    sol = parse_solution(capsys.readouterr().out)
    assert sol.total_cost == 3
    assert sol.x_arcs == (1,) and sol.y_arcs == (0,)


def test_solve_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(SAMPLE))
    assert main(["solve"]) == 0
    assert "total 3" in capsys.readouterr().out


def test_solve_each_method_agrees(sample_file, capsys):
    for method in ("auto", "asp", "layered", "dag", "oracle"):
        assert main(["solve", "--input", sample_file, "--method", method,
                     "--output", "machine"]) == 0
        assert parse_solution(capsys.readouterr().out).total_cost == 3


def test_solve_method_mismatch_exit_codes(tmp_path, capsys):
    unlayered = tmp_path / "unlayered.txt"
    unlayered.write_text(
        "p recsp 3 3 0 2 1\na 0 1 1 1 0\na 1 2 1 1 0\na 0 2 1 1 0\n"
    )
    assert main(["solve", "-i", str(unlayered), "--method", "layered"]) == 6

    bridge = tmp_path / "bridge.txt"
    bridge.write_text(
        "p recsp 4 5 0 3 1\na 0 1 1 1 0\na 0 2 1 1 0\na 1 2 1 1 0\n"
        "a 1 3 1 1 0\na 2 3 1 1 0\n"
    )
    assert main(["solve", "-i", str(bridge), "--method", "asp"]) == 7
    # auto falls back to the general solver on both
    assert main(["solve", "-i", str(bridge)]) == 0
    capsys.readouterr()


def test_asp_exits_7_on_a_graph_too_dense_to_be_series_parallel(tmp_path, capsys):
    # all 6 arcs of the 4-node tournament, past the 2 * 4 - 3 a
    # series-parallel graph can have: asp refuses it before reducing it,
    # and auto goes on to the other solvers
    dense = tmp_path / "dense.txt"
    dense.write_text("p recsp 4 6 0 3 1\n" + "".join(
        f"a {u} {w} 1 1 0\n" for u in range(4) for w in range(u + 1, 4)))
    assert main(["solve", "-i", str(dense), "--method", "asp"]) == 7
    assert "too dense to be series-parallel" in capsys.readouterr().err
    assert main(["solve", "-i", str(dense)]) == 0
    capsys.readouterr()


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("p recsp 2 1 0 1 1\na 0 1 zap 1 0\n")
    assert main(["solve", "-i", str(bad)]) == 3
    assert "error:" in capsys.readouterr().err
    # numbers longer than int() converts, in an instance and in a solution
    long = "9" * 5000
    bad.write_text(f"p recsp 2 1 0 1 1\na 0 1 {long} 1 1\n")
    assert main(["solve", "-i", str(bad)]) == 3
    assert "first-stage cost outside the signed 64-bit range" in capsys.readouterr().err
    sample = tmp_path / "sample.txt"
    sample.write_text(SAMPLE)
    bad.write_text(f"s recsp {long} 1 2 1\nx 1\ny 0\n")
    assert main(["verify", "-i", str(sample), "-s", str(bad)]) == 3
    assert "total cost has too many digits" in capsys.readouterr().err


def test_files_that_are_not_utf8_fail_to_parse_as_stdin_does(tmp_path, monkeypatch, capsys):
    # each undecodable byte reaches the parser as a lone surrogate
    def stdin(raw):
        return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", errors="surrogateescape")

    raw = b"p recsp 2 1 0 1 1\na 0 1 1 1 \xff\n"
    message = "line 2, column 11: deviation must be an integer, got '\\udcff'"
    bad = tmp_path / "bad.txt"
    bad.write_bytes(raw)
    assert main(["solve", "-i", str(bad)]) == 3
    assert message in capsys.readouterr().err
    monkeypatch.setattr("sys.stdin", stdin(raw))
    assert main(["solve"]) == 3
    assert message in capsys.readouterr().err

    raw = b"s recsp 3 1 2 1\nx 1\ny \xfe0\n"
    message = "line 3, column 3: arc id must be an integer, got '\\udcfe0'"
    sample = tmp_path / "sample.txt"
    sample.write_text(SAMPLE)
    bad.write_bytes(raw)
    assert main(["verify", "-i", str(sample), "-s", str(bad)]) == 3
    assert message in capsys.readouterr().err
    monkeypatch.setattr("sys.stdin", stdin(SAMPLE.encode()))
    assert main(["verify", "-s", str(bad)]) == 3
    assert message in capsys.readouterr().err


def test_validation_and_cycle_exit_codes(tmp_path, capsys):
    bad_k = tmp_path / "badk.txt"
    bad_k.write_text("p recsp 2 1 0 1 7\na 0 1 1 1 0\n")
    assert main(["solve", "-i", str(bad_k)]) == 4

    cyclic = tmp_path / "cyclic.txt"
    cyclic.write_text(
        "p recsp 3 3 0 2 1\na 0 1 1 1 0\na 1 0 1 1 0\na 0 2 1 1 0\n"
    )
    assert main(["solve", "-i", str(cyclic)]) == 5
    capsys.readouterr()


def test_huge_cost_exits_0_with_the_exact_total(tmp_path, capsys):
    # a one-arc tree takes the Python sweep, which answers exactly
    huge = tmp_path / "huge.txt"
    huge.write_text(f"p recsp 2 1 0 1 1\na 0 1 {1 << 58} 1 0\n")
    assert main(["solve", "-i", str(huge), "--method", "asp"]) == 0
    assert "total 288230376151711745" in capsys.readouterr().out


def test_asp_ignores_huge_costs_off_every_path(tmp_path, capsys):
    # arc 2 -> 3 lies on no 0-1 path: asp's guard does not count it
    off = tmp_path / "off.txt"
    off.write_text(
        "p recsp 4 3 0 1 1\na 0 1 1 1 0\na 0 1 2 1 0\n"
        f"a 2 3 5 {(1 << 63) - 1} {(1 << 63) - 1}\n"
    )
    for method in ("asp", "auto", "oracle"):
        assert main(["solve", "-i", str(off), "--method", method]) == 0
        assert "total 2" in capsys.readouterr().out


def test_auto_and_asp_answer_costs_past_the_int64_guard(tmp_path, capsys):
    huge = tmp_path / "huge.txt"
    huge.write_text(
        "p recsp 3 3 0 2 1\na 0 1 4000000000000000000 1 0\n"
        "a 1 2 1 1 1\na 0 2 5 5 5\n"
    )
    for method in ("auto", "asp"):
        assert main(["solve", "-i", str(huge), "--method", method]) == 0
        assert "total 15" in capsys.readouterr().out


@pytest.mark.parametrize("costs", [(-(1 << 63), (1 << 63) - 1, (1 << 63) - 1), (10**18 - 1,) * 3],
                         ids=["int64 ends", "18 digits"])
@pytest.mark.parametrize("on_path", [True, False], ids=["leaf arc", "off every path"])
def test_long_files_keep_extreme_costs_exact(tmp_path, capsys, costs, on_path):
    # long enough for the byte scan, which reads numbers of up to 19
    # digits within int64, the int64 ends included, as int64 arrays
    inst = generate_instance("asp", 3, arcs=120, k=3)
    g = inst.graph
    rows = [*zip(g.tail, g.head, g.first, g.nominal, g.deviation)]
    n = g.node_count
    if on_path:
        arc, rows[0] = 0, (*rows[0][:2], *costs)
    else:  # an arc out of the sink
        arc, n = len(rows), n + 1
        rows.append((inst.sink, n - 1, *costs))
    text = serialize_instance(Instance(MultiDigraph.from_rows(n, rows), inst.source, inst.sink, 3))
    assert len(text) >= ARRAY_MIN_CHARS
    assert instance_io._scan_bytes(text) is not None
    parsed, by_lines = parse_instance(text), instance_io._parse_lines(text)
    first, nominal, deviation = costs
    assert parsed.graph.upper[arc] == nominal + deviation
    assert parsed.graph.combined[arc] == first + nominal + deviation
    assert parsed.graph.upper == by_lines.graph.upper
    assert parsed.graph.combined == by_lines.graph.combined
    path = tmp_path / "extreme.txt"
    path.write_text(text)
    # past asp's int64 guard on a leaf arc the Python sweep answers exactly
    totals = []
    for method in ("asp", "dag"):
        assert main(["solve", "-i", str(path), "--method", method, "--output", "machine"]) == 0
        totals.append(parse_solution(capsys.readouterr().out).total_cost)
    assert totals[0] == totals[1]
    assert solve(parsed).total_cost == solve(parsed, "dag").total_cost


def test_too_many_paths_exit_code(tmp_path, capsys):
    # 17 two-arc gaps in series: 2^17 paths blow the enumeration cap
    lines = ["p recsp 18 34 0 17 1"]
    for gap in range(17):
        lines.extend([f"a {gap} {gap + 1} 1 1 0"] * 2)
    blowup = tmp_path / "blowup.txt"
    blowup.write_text("\n".join(lines) + "\n")
    assert main(["solve", "-i", str(blowup), "--method", "oracle"]) == 8
    capsys.readouterr()


def test_the_oracle_exits_8_at_once_on_sixteen_gaps(tmp_path, capsys):
    # 16 two-arc gaps: 65,536 paths, whose pair loops would run for about
    # half an hour; the path cap stops the enumeration first
    lines = ["p recsp 17 32 0 16 1"]
    for gap in range(16):
        lines.extend([f"a {gap} {gap + 1} 1 1 0"] * 2)
    path = tmp_path / "sixteen.txt"
    path.write_text("\n".join(lines) + "\n")
    start = time.perf_counter()
    assert main(["solve", "-i", str(path), "--method", "oracle"]) == 8
    assert time.perf_counter() - start < 1
    assert "2048" in capsys.readouterr().err


@pytest.mark.parametrize("padded", [False, True], ids=["line parse", "byte scan"])
def test_running_out_of_memory_exits_11_without_a_traceback(tmp_path, padded):
    # a billion declared nodes: the graph's per-node offsets cannot fit
    # under a 1.5 GB address-space limit, set on the child process only
    resource = pytest.importorskip("resource")
    text = "p recsp 1000000000 1 0 1 0\na 0 1 1 1 0\n"
    if padded:
        text = "# padding\n" * (ARRAY_MIN_CHARS // 10) + text
        assert len(text) >= ARRAY_MIN_CHARS
    path = tmp_path / "huge_n.txt"
    path.write_text(text)
    limit = 1536 << 20
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "recsp.cli", "solve", "-i", str(path)], env=env,
        capture_output=True, text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert done.returncode == 11, done.stderr
    assert done.stderr == "error: out of memory\n"


def test_missing_file_exit_code(tmp_path, capsys):
    assert main(["solve", "-i", str(tmp_path / "nope.txt")]) == 2
    capsys.readouterr()


def test_verify_accept_and_reject(tmp_path, sample_file, capsys):
    good = tmp_path / "good.txt"
    good.write_text("s recsp 3 1 2 1\nx 1\ny 0\n")
    assert main(["verify", "-i", sample_file, "-s", str(good)]) == 0
    assert "accepted" in capsys.readouterr().out

    bad = tmp_path / "bad.txt"
    bad.write_text("s recsp 4 1 2 1\nx 1\ny 0\n")
    assert main(["verify", "-i", sample_file, "-s", str(bad)]) == 1
    assert "rejected" in capsys.readouterr().out


def test_verify_solver_pipeline(tmp_path, capsys):
    inst_path = tmp_path / "inst.txt"
    inst_path.write_text(DIAMOND)
    sol_path = tmp_path / "sol.txt"
    assert main(["solve", "-i", str(inst_path), "--output", "machine"]) == 0
    sol_path.write_text(capsys.readouterr().out)
    assert main(["verify", "-i", str(inst_path), "-s", str(sol_path)]) == 0
    capsys.readouterr()


def test_verify_accepts_what_solve_wrote_past_int64(tmp_path, capsys):
    # the stage costs sum past the signed 64-bit range of an arc cost
    big = (1 << 63) - 1
    inst_path = tmp_path / "inst.txt"
    inst_path.write_text(f"p recsp 2 1 0 1 1\na 0 1 {big} {big} {big}\n")
    assert main(["solve", "-i", str(inst_path), "--output", "machine"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == f"s recsp {3 * big} {big} {2 * big} 0"
    sol_path = tmp_path / "sol.txt"
    sol_path.write_text(out)
    assert main(["verify", "-i", str(inst_path), "-s", str(sol_path)]) == 0
    assert capsys.readouterr().out == "accepted\n"


def test_generate_writes_solvable_instance(tmp_path, capsys):
    out = tmp_path / "gen.txt"
    assert main(["generate", "--family", "layered", "--seed", "7",
                 "--nodes", "7", "--arcs", "16", "--k", "2",
                 "--output", str(out)]) == 0
    inst = parse_instance(out.read_text())
    assert inst.graph.arc_count == 16
    assert main(["solve", "-i", str(out)]) == 0
    capsys.readouterr()


def test_generate_to_stdout_is_deterministic(capsys):
    assert main(["generate", "--family", "asp", "--seed", "3", "--arcs", "9"]) == 0
    first = capsys.readouterr().out
    assert main(["generate", "--family", "asp", "--seed", "3", "--arcs", "9"]) == 0
    assert capsys.readouterr().out == first
    parse_instance(first)


def test_generate_config_error_exit_code(capsys):
    assert main(["generate", "--family", "dag", "--nodes", "9",
                 "--arcs", "2"]) == 2
    capsys.readouterr()


def _error_subclasses():
    return {
        cls for _, cls in inspect.getmembers(recsp.errors, inspect.isclass)
        if issubclass(cls, recsp.errors.RecspError) and cls is not recsp.errors.RecspError
    }


def test_every_error_class_has_one_distinct_exit_code():
    classes = _error_subclasses()
    # each class states its own code rather than inheriting RecspError's
    assert all("exit_code" in vars(cls) for cls in classes)
    codes = [cls.exit_code for cls in classes]
    assert len(set(codes)) == len(codes)
    assert not {0, 1} & set(codes)


def test_readme_exit_code_table_lists_every_code():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Exit codes\n", 1)[1].split("\n## ", 1)[0]
    rows = {int(code): meaning for code, meaning in re.findall(r"^\| (\d+) +\| (.*) \|$", section, re.M)}
    codes = {cls.exit_code for cls in _error_subclasses() | {recsp.errors.RecspError}}
    assert set(rows) == codes | {0, 1, 2, 9, 10, 11}
    assert not {9, 10} & codes
    for gone in (9, 10):
        assert rows[gone].startswith("no longer returned"), rows[gone]


@pytest.mark.parametrize("text, code", [
    ("p recsp 2 1 0 1 1\na 0 1 zap 1 0\n", 3),
    ("p recsp 3 3 0 2 1\na 0 1 1 1 0\na 1 0 1 1 0\na 0 2 1 1 0\n", 5),
], ids=["malformed", "cyclic"])
def test_a_typed_error_exits_with_its_code_in_a_child_process(tmp_path, text, code):
    path = tmp_path / "instance.txt"
    path.write_text(text)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "recsp.cli", "solve", "-i", str(path)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == code, done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout == ""


def test_bench_csv_schema_and_agreement(capsys):
    # every family's method solves every instance the generator draws from
    # it, so each row carries an integer total and the exit code is 0
    for family, k in itertools.product(("asp", "layered", "dag"), ("2", "0")):
        assert main(["bench", "--family", family, "--seed", "11",
                     "--sizes", "8,12,16", "--k", k]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["family", "n", "m", "k", "method", "total",
                           "time_ms", "agreement"]
        assert len(rows) == 4
        for row in rows[1:]:
            assert row[0] == family and row[4] == family and row[3] == k
            assert int(row[2]) in (8, 12, 16)
            int(row[5])
            assert row[7] == "yes"
            float(row[6])


def test_bench_output_file_holds_the_stdout_bytes(tmp_path, monkeypatch, capsys):
    # a stopped clock makes the time column repeat
    monkeypatch.setattr(recsp.cli, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    args = ["bench", "--family", "layered", "--seed", "4", "--sizes", "12,20", "--k", "2"]
    assert main(args) == 0
    out = capsys.readouterr().out
    path = tmp_path / "bench.csv"
    assert main(args + ["-o", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == out.encode()
    assert out.startswith("family,n,m,k,method,total,time_ms,agreement\r\n")
    assert len(out.splitlines()) == 3


def test_bench_limit_skips_cross_check(capsys):
    assert main(["bench", "--family", "dag", "--seed", "5",
                 "--sizes", "30", "--k", "2", "--limit", "10"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[1][7] == "skipped"


def test_bench_totals_match_oracle(capsys):
    assert main(["bench", "--family", "layered", "--seed", "21",
                 "--sizes", "12", "--k", "2"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    total = int(rows[1][5])
    # regenerate the same instance to cross-check the reported value
    from recsp.generator import generate_instance
    inst = generate_instance("layered", 21, nodes=max(4, 12 // 4), arcs=12, k=2)
    assert total == solve_bruteforce(inst).total_cost


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["solve", "--method", "quantum"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err2:
        main([])
    assert err2.value.code == 2
