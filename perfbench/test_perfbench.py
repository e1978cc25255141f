"""Tests of the benchmark itself: its reference totals, the repeatability
of its traced counts, and its refusal to run without the program."""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import recsp  # noqa: E402
from bench_pass import measure  # noqa: E402
from bench_reference import pair_dp_total, reference  # noqa: E402
from bench_trace import COUNT_METRICS, Tracer, summarize  # noqa: E402
from bench_workloads import WORKLOADS, _rows, generate  # noqa: E402


def test_reference_matches_oracle_on_small_instances():
    gen = recsp.generate_instance
    for seed in range(150):
        arcs, nodes, k = 16 + seed % 11, 4 + seed % 7, 1 + seed % 3
        if seed % 3 == 0:
            instance = gen("asp", seed, arcs=arcs, k=k)
        elif seed % 3 == 1:
            instance = gen("layered", seed, nodes=nodes, arcs=arcs, k=k, layers=3)
        else:
            instance = gen("dag", seed, nodes=nodes, arcs=arcs, k=k)
        args = (instance.graph.node_count, _rows(instance),
                instance.source, instance.sink, instance.k)
        oracle = recsp.solve_bruteforce(instance).total_cost
        lower, exact = reference(*args)
        assert exact == oracle
        assert pair_dp_total(*args) == oracle
        assert lower <= oracle


def test_reference_handles_parallel_arcs_and_negative_costs():
    graph = recsp.MultiDigraph.from_rows(4, [
        (0, 1, 5, 1, 1), (0, 1, 1, 10, 0), (1, 3, -4, 2, 3),
        (0, 2, 2, 2, 0), (2, 3, 1, -1, 0), (1, 2, 0, 0, 0),
    ])
    for k in (1, 2, 3):
        instance = recsp.Instance(graph, 0, 3, k)
        oracle = recsp.solve_bruteforce(instance).total_cost
        assert pair_dp_total(4, _rows(instance), 0, 3, k) == oracle


def _texts():
    gen = recsp.generate_instance
    instances = [
        gen("asp", 3, arcs=2000, k=10),
        gen("dag", 3, nodes=40, arcs=160, k=2),
        gen("dag", 3, nodes=40, arcs=160, k=6),
        gen("layered", 3, nodes=60, arcs=200, k=3, layers=8),
        *(generate(recsp, spec)[0] for spec in WORKLOADS["small-mixed"](3)[:30]),
    ]
    return [recsp.serialize_instance(inst) for inst in instances]


def _traced_pass(texts):
    tracer = Tracer()
    result = measure(recsp, texts, 0, tracer)
    walls = [p["wall"] for p in result["passes"] if p["traced"]]
    assert [p["traced"] for p in result["passes"]] == [False, True]
    metrics, _, repeat = summarize(tracer.spans, walls)
    assert repeat
    return metrics, [recsp.parse_solution(o).total_cost for o in result["outputs"]]


def test_traced_counts_and_totals_repeat():
    original = recsp.dispatch.solve
    texts = _texts()
    first_metrics, first_totals = _traced_pass(texts)
    second_metrics, second_totals = _traced_pass(texts)
    assert first_totals == second_totals
    for name in COUNT_METRICS:
        assert first_metrics[name] == second_metrics[name], name
    assert all(first_metrics[name] > 0 for name in COUNT_METRICS)
    # uninstalling restores every wrapped function
    assert recsp.dispatch.solve is original
    assert recsp.solve is original


def test_runner_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
