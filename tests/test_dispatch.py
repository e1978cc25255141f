import importlib
import os
import subprocess
import sys

import pytest

import recsp.graph
import recsp.reduction
from recsp import asp, dispatch
from recsp.asp import decompose, solve_asp
from recsp.dispatch import METHODS, solve
from recsp.errors import NotLayeredError, NotSeriesParallelError, TooManyPathsError
from recsp.generator import SplitMix64, generate_instance
from recsp.graph import Instance, MultiDigraph
from recsp.instance_io import serialize_solution
from recsp.oracle import solve_bruteforce

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def bridge_instance(k=1):
    # the 1 -> 2 bridge defeats both recognizers, so only the general
    # solver (or the oracle) applies
    g = MultiDigraph.from_rows(4, [
        (0, 1, 1, 1, 0), (0, 2, 1, 1, 0), (1, 2, 1, 1, 0),
        (1, 3, 1, 1, 0), (2, 3, 1, 1, 0),
    ])
    return Instance(g, 0, 3, k)


def tournament(n, k=1):
    # every forward arc on n nodes: n(n - 1)/2 pairs, past 2n - 3 from n = 4
    rows = [(u, w, u + w, 1, w) for u in range(n) for w in range(u + 1, n)]
    return Instance(MultiDigraph.from_rows(n, rows), 0, n - 1, k)


def test_unknown_method_is_rejected():
    with pytest.raises(ValueError):
        solve(bridge_instance(), "quantum")


def test_explicit_method_does_not_fall_back():
    with pytest.raises(NotSeriesParallelError):
        solve(bridge_instance(), "asp")
    with pytest.raises(NotLayeredError):
        solve(bridge_instance(), "layered")


def test_auto_falls_back_to_the_general_solver():
    inst = bridge_instance()
    assert solve(inst).total_cost == solve_bruteforce(inst).total_cost


def overflow_instance():
    # series-parallel, but arc 0's cost is past the asp kernel's int64 guard
    g = MultiDigraph.from_rows(3, [
        (0, 1, 4 * 10**18, 1, 0), (1, 2, 1, 1, 1), (0, 2, 5, 5, 5),
    ])
    return Instance(g, 0, 2, 1)


def test_asp_answers_costs_past_its_int64_guard():
    inst = overflow_instance()
    sol = solve(inst, "asp")
    assert sol.total_cost == 15
    assert sol.total_cost == solve(inst, "dag").total_cost
    assert sol.total_cost == solve_bruteforce(inst).total_cost
    # asp applies, so auto answers with it
    assert serialize_solution(solve(inst)) == serialize_solution(sol)


def test_zero_budget_shortcut_applies_to_every_method():
    g = MultiDigraph.from_rows(2, [(0, 1, 5, 1, 1), (0, 1, 1, 10, 0)])
    inst = Instance(g, 0, 1, 0)
    # combined costs are 5+1+1 = 7 and 1+10+0 = 11, so arc 0 wins
    for method in METHODS:
        sol = solve(inst, method)
        assert sol.total_cost == 7
        assert sol.x_arcs == sol.y_arcs == (0,)


def test_oracle_method_matches_the_fast_solvers():
    rng = SplitMix64(424242)
    for trial in range(30):
        inst = generate_instance("asp", rng.randint(0, 10**9),
                                 arcs=rng.randint(1, 10), k=rng.randint(1, 3))
        assert solve(inst, "oracle").total_cost == solve(inst, "asp").total_cost


def test_oracle_method_propagates_the_path_limit():
    # 17 two-arc gaps in series give 2^17 s-t paths, past the default cap
    rows = []
    for gap in range(17):
        rows.append((gap, gap + 1, 1, 1, 0))
        rows.append((gap, gap + 1, 1, 1, 0))
    inst = Instance(MultiDigraph.from_rows(18, rows), 0, 17, 1)
    with pytest.raises(TooManyPathsError):
        solve(inst, "oracle")


def test_costs_past_the_float_range_do_not_overflow():
    # an unreached entry is INF, and INF + 10**400 raises in float arithmetic
    for method, rows in (
        ("asp", [(0, 1, 10**400, 1, 0), (1, 2, 1, 1, 1), (0, 2, 5, 5, 5)]),
        ("layered", [(0, 1, 10**400, 1, 0), (0, 2, 1, 1, 1), (1, 3, 1, 1, 1), (2, 3, 5, 5, 5)]),
    ):
        g = MultiDigraph.from_rows(rows[-1][1] + 1, rows)
        inst = Instance(g, 0, g.node_count - 1, 1)
        want = solve_bruteforce(inst).total_cost
        for how in ("dag", method, "auto"):
            assert solve(inst, how).total_cost == want, how


def _calls_to_asp(monkeypatch):
    calls = []

    def spy(instance):
        calls.append(instance)
        return solve_asp(instance)

    monkeypatch.setattr(dispatch, "solve_asp", spy)
    return calls


@pytest.mark.parametrize("rows", [
    [(0, 1, 3, 1, 4), (0, 2, 1, 2, 0), (1, 3, 1, 0, 2), (2, 3, 2, 2, 1)],
    [(0, 1, 1, 2, 3), (1, 2, 2, 1, 0), (2, 3, 1, 1, 5), (1, 2, 0, 4, 1)],
], ids=["diamond", "chain with a parallel"])
def test_auto_keeps_asp_on_layered_series_parallel_graphs(monkeypatch, rows):
    inst = Instance(MultiDigraph.from_rows(4, rows), 0, 3, 1)
    want = serialize_solution(solve(inst, "asp"))
    calls = _calls_to_asp(monkeypatch)
    assert serialize_solution(solve(inst)) == want
    assert calls == [inst]
    assert decompose(inst).leaf_count == len(rows)


def test_auto_skips_asp_on_graphs_too_dense_to_be_series_parallel(monkeypatch):
    # the 4-node tournament has 6 pairs, past 2 * 4 - 3: decompose refuses
    # it before the reduction runs, for auto and for --method asp alike
    inst = tournament(4)

    def building(*args):
        raise AssertionError("reduced a graph too dense to be series-parallel")

    with monkeypatch.context() as patch:
        patch.setattr(asp, "_queue", building)
        patch.setattr(asp, "_rounds", building)
        with pytest.raises(NotSeriesParallelError, match="too dense"):
            solve(inst, "asp")
        assert solve(inst).total_cost == solve_bruteforce(inst).total_cost
    # the bridge has 5 pairs on 4 nodes, exactly the bound: the reduction
    # runs and stalls
    with pytest.raises(NotSeriesParallelError, match="reduction stalled"):
        decompose(bridge_instance())


def test_no_solve_imports_scipy():
    # scipy may be installed, but the package must not import it: a fresh
    # interpreter parses one instance of each family and solves it with
    # auto and with the family's own method
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = "\n".join([
        "import sys",
        "from recsp import generate_instance, parse_instance, serialize_instance, solve",
        "for family in ('asp', 'layered', 'dag'):",
        "    text = serialize_instance(generate_instance(family, 7, k=2))",
        "    for method in ('auto', family):",
        "        solve(parse_instance(text), method)",
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_the_benchmark_tracer_times_autos_layering_test(monkeypatch):
    # the tracer wraps compute_layering wherever a recsp module holds it,
    # so auto's layered step must reach the layering test by that name
    monkeypatch.syspath_prepend(PERFBENCH)
    trace = importlib.import_module("bench_trace")
    taken = generate_instance("layered", 3, nodes=30, arcs=90, k=3, layers=6)
    rejected = generate_instance("dag", 3, nodes=12, arcs=30, k=2)
    tracer = trace.Tracer()
    tracer.install()
    try:
        for inst in (taken, rejected):
            dispatch.solve(inst, "auto")
    finally:
        tracer.uninstall()
    spans = tracer.spans
    name, parent, error = trace.NAME, trace.PARENT, trace.ERROR
    solves = [i for i, s in enumerate(spans) if s[name] == "dispatch.solve"]
    assert len(solves) == 2
    errors = []
    for d in solves:
        layering = [s for s in spans if s[name] == "graph.layering"
                    and spans[s[parent]][name] == "reduction.solve"
                    and spans[s[parent]][parent] == d]
        assert len(layering) == 1
        errors.append(layering[0][error])
    assert errors == [None, "NotLayeredError"]
    assert recsp.reduction.compute_layering is recsp.graph.compute_layering


def test_the_benchmark_tracer_counts_autos_density_refusals(monkeypatch):
    # asp refuses a graph too dense to be series-parallel inside solve_asp,
    # so each refusal is a failed asp.solve span under dispatch.solve, the
    # span dispatch.rejections counts; 24 nodes take the sorted pair count
    monkeypatch.syspath_prepend(PERFBENCH)
    trace = importlib.import_module("bench_trace")
    tracer = trace.Tracer()
    tracer.install()
    try:
        for n in (4, 24):
            dispatch.solve(tournament(n), "auto")
    finally:
        tracer.uninstall()
    spans = tracer.spans
    name, parent, error = trace.NAME, trace.PARENT, trace.ERROR
    solves = [i for i, s in enumerate(spans) if s[name] == "dispatch.solve"]
    assert len(solves) == 2
    for d in solves:
        first = next(s for s in spans if s[parent] == d)
        assert (first[name], first[error]) == ("asp.solve", "NotSeriesParallelError")
        assert first[error] in trace.RECOGNITION_ERRORS
