"""Every solver against an exact reference at mid size.

The oracle enumerates path pairs, so it can check the solvers only on
tiny graphs.  Here the reference is the pair dynamic program of
``perfbench/bench_reference.py``, which reads plain arc rows and imports
nothing from ``recsp``.  The instances are asp graphs of 30-255 arcs,
the whole range of asp's Python sweep, and layered and dag graphs of
30-120 nodes, at budgets from 1 to past the longest source-sink path.
Generated costs are at most 200 an arc, so every float64 sum the
reference makes is exact.

The dag reduction keeps a pair transition only where a longer allowance
strictly lowers the recovery cost, and no total shows whether it also
keeps the others.  So its pair transitions are also checked against the
strict improvements of an independent hop-bounded sweep.
"""
import importlib.util
import os
import random

from recsp.dispatch import solve
from recsp.errors import NotLayeredError, NotSeriesParallelError
from recsp.generator import generate_instance
from recsp.graph import Instance
from recsp.reduction import build_dag_reduction
from recsp.solution import verify_solution

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "bench_reference.py")
_SPEC = importlib.util.spec_from_file_location("bench_reference", _PATH)
reference = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reference)

METHODS = ("auto", "asp", "layered", "dag")
# the methods that must apply to each family; the others may reject it
OWN = {"asp": {"auto", "asp", "dag"}, "layered": {"auto", "layered", "dag"},
       "dag": {"auto", "dag"}}


def _instances(family, count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        if family == "asp":
            yield generate_instance("asp", rng.getrandbits(32), arcs=rng.randint(30, 255))
            continue
        nodes = rng.randint(30, 120)
        layers = rng.randint(3, 12) if family == "layered" else None
        yield generate_instance(family, rng.getrandbits(32), nodes=nodes,
                                arcs=nodes * rng.randint(2, 4), layers=layers)


def _rows(graph):
    return list(zip(graph.tail, graph.head, graph.first, graph.upper))


def _budgets(rng, longest, n):
    """1, one budget below the longest path, the longest and one past it."""
    ks = {1, rng.randint(1, max(1, min(longest - 1, 12))), longest, longest + 1}
    return sorted(k for k in ks if k < n)


def _check_family(family, count, seed):
    rng = random.Random(seed)
    for inst in _instances(family, count, seed):
        graph, s, t = inst.graph, inst.source, inst.sink
        n, rows = graph.node_count, _rows(graph)
        lower, longest = reference.path_extremes(n, rows, s, t)
        totals = {}
        for k in _budgets(rng, longest, n):
            # past the longest path the budget binds no pair
            capped = min(k, longest)
            if capped not in totals:
                totals[capped] = reference.pair_dp_total(n, rows, s, t, capped)
            want = totals[capped]
            assert lower <= want
            case = Instance(graph, s, t, k)
            for method in METHODS:
                try:
                    sol = solve(case, method)
                except (NotSeriesParallelError, NotLayeredError):
                    assert method not in OWN[family], (family, method, k)
                    continue
                assert sol.total_cost == want, (family, n, k, method)
                assert verify_solution(case, sol).accepted


def test_asp_matches_the_pair_dp_over_the_python_sweeps_range():
    _check_family("asp", 10, 1601)


def test_layered_instances_match_the_pair_dp():
    _check_family("layered", 8, 1602)


def test_dag_instances_match_the_pair_dp():
    _check_family("dag", 8, 1603)


def _on_path(n, rows, s, t):
    out, into = [[] for _ in range(n)], [[] for _ in range(n)]
    for tail, head, *_ in rows:
        out[tail].append(head)
        into[head].append(tail)

    def seen_from(start, step):
        seen = [False] * n
        seen[start] = True
        stack = [start]
        while stack:
            for w in step[stack.pop()]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        return seen

    return list(map(bool.__and__, seen_from(s, out), seen_from(t, into)))


def _strict_improvements(n, rows, s, t, k):
    """(i, j, l) for on-path i != j where the least upper cost of an i-j
    path with at most l arcs is finite and below that with l - 1."""
    on = _on_path(n, rows, s, t)
    kept = [(tail, head, upper) for tail, head, _, upper in rows if on[tail] and on[head]]
    found = set()
    for i in range(n):
        if not on[i]:
            continue
        inf = float("inf")
        best = [inf] * n
        best[i] = 0
        for l in range(1, k + 1):
            # Bellman-Ford by hop count: at most l arcs
            nxt = best[:]
            for tail, head, upper in kept:
                if best[tail] + upper < nxt[head]:
                    nxt[head] = best[tail] + upper
            found.update((i, j, l) for j in range(n) if j != i and nxt[j] < best[j])
            best = nxt
    return found


def test_dag_reduction_keeps_exactly_the_strict_improvements():
    rng = random.Random(1604)
    for family in ("dag", "layered"):
        for inst in _instances(family, 3, 1605):
            graph = inst.graph
            n, rows = graph.node_count, _rows(graph)
            _, longest = reference.path_extremes(n, rows, inst.source, inst.sink)
            k = rng.randint(1, min(longest, 6))
            case = Instance(graph, inst.source, inst.sink, k)
            pairs = [(i, j, l) for i, j, _, l, arc in build_dag_reduction(case) if arc is None]
            assert len(pairs) == len(set(pairs))
            assert set(pairs) == _strict_improvements(n, rows, inst.source, inst.sink, k)
