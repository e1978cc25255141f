import hashlib
import importlib
import math
import os
import random
import time
import tracemalloc
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recsp import asp, dispatch
from recsp.asp import LEAF, PARALLEL, SERIES, decompose, root_values, solve_asp
from recsp.dispatch import solve
from recsp.errors import NotSeriesParallelError
from recsp.generator import SplitMix64, generate_instance
from recsp.graph import INF, Instance, MultiDigraph
from recsp.instance_io import parse_instance, serialize_instance, serialize_solution
from recsp.oracle import bruteforce_root_values, solve_bruteforce
from recsp.reduction import solve_dag, solve_layered
from recsp.solution import verify_solution

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def parallel_pair(k):
    g = MultiDigraph.from_rows(2, [(0, 1, 5, 1, 1), (0, 1, 1, 10, 0)])
    return Instance(g, 0, 1, k)


def test_decompose_single_arc():
    g = MultiDigraph.from_rows(2, [(0, 1, 1, 1, 0)])
    tree = decompose(Instance(g, 0, 1, 1))
    assert tree.nodes[tree.root] == (LEAF, 0)
    assert tree.leaf_count == 1


def test_decompose_parallel_and_series():
    tree = decompose(parallel_pair(1))
    assert tree.nodes[tree.root][0] == PARALLEL

    g = MultiDigraph.from_rows(3, [(0, 1, 1, 1, 0), (1, 2, 1, 1, 0)])
    tree = decompose(Instance(g, 0, 2, 1))
    kind, left, right = tree.nodes[tree.root]
    assert kind == SERIES
    assert tree.nodes[left] == (LEAF, 0)
    assert tree.nodes[right] == (LEAF, 1)


def test_decompose_diamond():
    g = MultiDigraph.from_rows(4, [
        (0, 1, 0, 10, 0), (1, 3, 0, 10, 0),
        (0, 2, 10, 0, 0), (2, 3, 10, 0, 0),
    ])
    tree = decompose(Instance(g, 0, 3, 1))
    kind, left, right = tree.nodes[tree.root]
    assert kind == PARALLEL
    assert tree.nodes[left][0] == SERIES
    assert tree.nodes[right][0] == SERIES
    assert tree.leaf_count == 4


def test_decompose_rejects_bridge_graph():
    g = MultiDigraph.from_rows(4, [
        (0, 1, 1, 1, 0), (0, 2, 1, 1, 0), (1, 2, 1, 1, 0),
        (1, 3, 1, 1, 0), (2, 3, 1, 1, 0),
    ])
    with pytest.raises(NotSeriesParallelError):
        decompose(Instance(g, 0, 3, 1))


def test_decompose_prunes_dangling_arcs():
    # without pruning the stub at node 1 would stall the reduction
    g = MultiDigraph.from_rows(5, [
        (0, 1, 0, 10, 0), (1, 3, 0, 10, 0),
        (0, 2, 10, 0, 0), (2, 3, 10, 0, 0),
        (1, 4, 1, 1, 0),
    ])
    tree = decompose(Instance(g, 0, 3, 1))
    assert tree.leaf_count == 4
    leaf_arcs = {n[1] for n in tree.nodes if n[0] == LEAF}
    assert leaf_arcs == {0, 1, 2, 3}


def test_root_values_parallel_pair():
    rv = root_values(parallel_pair(1))
    assert rv.first == 1
    assert rv.upper == (INF, 2)
    assert rv.opt == (7, 3)


def test_root_values_two_arc_chain():
    g = MultiDigraph.from_rows(3, [(0, 1, 1, 3, 0), (1, 2, 2, 2, 2)])
    rv = root_values(Instance(g, 0, 2, 2))
    assert rv.first == 3
    # a two-arc series admits no single-arc route
    assert rv.upper == (INF, INF, 7)
    # the only path pair diverges in zero arcs
    assert rv.opt == (10, INF, INF)


def test_root_values_allows_zero_budget():
    rv = root_values(parallel_pair(0))
    assert rv.opt == (7,)


def test_root_values_match_bruteforce():
    rng = SplitMix64(808)
    for trial in range(120):
        inst = generate_instance("asp", rng.randint(0, 10**9),
                                 arcs=rng.randint(1, 8), k=rng.randint(1, 3))
        assert root_values(inst) == bruteforce_root_values(inst)


def test_solve_requires_positive_budget():
    with pytest.raises(ValueError):
        solve_asp(parallel_pair(0))


def test_solve_matches_oracle_on_random_instances():
    rng = SplitMix64(112233)
    for trial in range(150):
        inst = generate_instance("asp", rng.randint(0, 10**9),
                                 arcs=rng.randint(1, 14), k=rng.randint(1, 4))
        sol = solve_asp(inst)
        assert sol.total_cost == solve_bruteforce(inst).total_cost
        assert verify_solution(inst, sol).accepted


def test_solve_matches_general_solver_beyond_oracle_scale():
    rng = SplitMix64(445566)
    for trial in range(60):
        inst = generate_instance("asp", rng.randint(0, 10**9),
                                 arcs=rng.randint(15, 60), k=rng.randint(1, 5))
        assert solve_asp(inst).total_cost == solve_dag(inst).total_cost


def test_divergence_equals_chosen_root_entry():
    rng = SplitMix64(778899)
    for trial in range(60):
        inst = generate_instance("asp", rng.randint(0, 10**9),
                                 arcs=rng.randint(2, 12), k=rng.randint(1, 4))
        rv = root_values(inst)
        sol = solve_asp(inst)
        best = min(range(inst.k + 1), key=lambda l: (rv.opt[l], l))
        assert sol.divergence == best
        assert sol.total_cost == rv.opt[best]


def test_identical_parallel_arcs_prefer_first():
    g = MultiDigraph.from_rows(2, [(0, 1, 1, 1, 0), (0, 1, 1, 1, 0)])
    sol = solve_asp(Instance(g, 0, 1, 1))
    assert sol.x_arcs == (0,) and sol.y_arcs == (0,)
    assert sol.total_cost == 2 and sol.divergence == 0


def test_equal_first_stage_arcs_prefer_first():
    # the recovery takes arc 2; arcs 0 and 1 tie as the first stage
    g = MultiDigraph.from_rows(2, [(0, 1, 1, 9, 1), (0, 1, 1, 9, 1), (0, 1, 5, 0, 0)])
    sol = solve_asp(Instance(g, 0, 1, 1))
    assert sol.x_arcs == (0,) and sol.y_arcs == (2,)
    assert sol.total_cost == 1 and sol.divergence == 1


def test_huge_costs_are_solved_exactly():
    # 2**58 is past the int64 guard, which only the numpy sweep needs
    inst = Instance(MultiDigraph.from_rows(2, [(0, 1, 1 << 58, 0, 0)]), 0, 1, 1)
    assert solve_asp(inst).total_cost == 1 << 58
    assert root_values(inst) == bruteforce_root_values(inst)


def _with_costs(inst, scale, first=None):
    """``inst`` with every cost times ``scale``, and arc 0's first cost
    replaced by ``first`` if given."""
    g = inst.graph
    firsts = [c * scale for c in g.first]
    if first is not None:
        firsts[0] = first
    graph = MultiDigraph(g.node_count, g.tail, g.head, firsts,
                         [c * scale for c in g.nominal], [c * scale for c in g.deviation])
    return Instance(graph, inst.source, inst.sink, inst.k)


def test_costs_past_the_int64_guard_take_the_python_sweep(monkeypatch, asp_kernels):
    # a tree large enough for the numpy sweep, with its costs scaled just
    # past the guard, is swept exactly in Python and answers as unscaled
    inst = generate_instance("asp", 0x0BE5, arcs=450, k=3)
    g = inst.graph
    assert decompose(inst).leaf_count == g.arc_count >= asp.ARRAY_MIN_ARCS
    worst = max(abs(f) + abs(u) for f, u in zip(g.first, g.upper))
    # the least |first| + |upper| the guard refuses on these leaves
    limit = -(-asp.ASP_INF // (16 * (g.arc_count + 2))) - 1
    scale = -(-limit // worst)
    solve_asp(_with_costs(inst, scale - 1))
    assert asp_kernels == ["numpy"]
    scaled = _with_costs(inst, scale)
    want, sol = solve_asp(inst), solve_asp(scaled)
    assert asp_kernels == ["numpy", "numpy", "python"]
    assert (sol.x_arcs, sol.y_arcs) == (want.x_arcs, want.y_arcs)
    assert sol.total_cost == want.total_cost * scale
    with monkeypatch.context() as patch:
        patch.setattr(dispatch, "solve_dag", lambda instance: pytest.fail("auto reached dag"))
        assert serialize_solution(solve(scaled)) == serialize_solution(sol)
    for cost in (10**400, -10**400):
        huge = _with_costs(inst, 1, first=cost)
        assert solve_asp(huge).total_cost == solve_dag(huge).total_cost
        assert asp_kernels[-1] == "python"


# sha256 of serialize_solution(solve_asp(...)) on the instance below and
# on it with every cost times 2**60, as the solver gave them while
# decompose still chose the kernel
PHASE_DIGESTS = (
    "de3386373184f0b72d73700a2cf7d32af471daeffe79d701fe6f027c2bc80805",
    "00ad042b2f778f8be8839d748d77f5849e3eb4b3006004c35ce12ced84d28570",
)


def test_decompose_reads_no_cost_and_plans_nothing(monkeypatch):
    # a tree the array rounds build, within the guard and past it: only
    # the sweep tests the guard and plans, so costs stay unmade
    inst = generate_instance("asp", 0x0BE5, arcs=450, k=3)
    cases = inst, _with_costs(inst, 1 << 60)

    def refused(*args):
        raise AssertionError("decompose chose a kernel")

    with monkeypatch.context() as patch:
        for name in ("_plan", "_fits_int64"):
            patch.setattr(asp, name, refused)
        for case in cases:
            assert decompose(case).leaf_count >= asp.ARRAY_MIN_ARCS
            assert "costs" not in case.graph.__dict__
    digests = tuple(hashlib.sha256(serialize_solution(solve_asp(case)).encode()).hexdigest()
                    for case in cases)
    assert digests == PHASE_DIGESTS


def test_negative_costs_supported():
    g = MultiDigraph.from_rows(3, [
        (0, 1, -7, 2, 0), (1, 2, 4, -9, 1), (0, 2, 0, 0, 0),
    ])
    # 0->2 direct and the two-arc chain are parallel alternatives
    for k in (1, 2):
        inst = Instance(g, 0, 2, k)
        assert solve_asp(inst).total_cost == solve_bruteforce(inst).total_cost


TALL = 4096


def _costs(i):
    return i % 7 - 3, i % 5, i % 3


def long_path(arcs, k):
    rows = [(i, i + 1, *_costs(i)) for i in range(arcs)]
    return Instance(MultiDigraph.from_rows(arcs + 1, rows), 0, arcs, k)


def wide_bundle(arcs, k):
    # nodes past the sink are isolated; they only let k reach past 1
    rows = [(0, 1, *_costs(i)) for i in range(arcs)]
    return Instance(MultiDigraph.from_rows(max(2, k + 1), rows), 0, 1, k)


@pytest.mark.parametrize("k", [1, 50])
@pytest.mark.parametrize("shape", [long_path, wide_bundle])
def test_tall_runs_are_rebalanced(shape, k):
    inst = shape(TALL, k)
    tree = decompose(inst)
    assert tree.height <= 2 * math.ceil(math.log2(TALL)) + 2
    assert tree.leaf_count == inst.graph.arc_count
    assert len(tree.nodes) == 2 * TALL - 1
    sol = solve_asp(inst)
    assert verify_solution(inst, sol).accepted
    if shape is long_path:
        # the only path is both stages; the dag reduction is quadratic in
        # the path's length, so the layered solver is the second opinion
        assert sol.total_cost == sum(inst.graph.combined)
        assert sol.total_cost == solve_layered(inst).total_cost
    else:
        assert sol.total_cost == min(inst.graph.first) + min(inst.graph.upper)
        assert sol.total_cost == solve_dag(inst).total_cost


def test_width_is_capped_at_the_effective_budget():
    # 500 parallel two-arc paths: 1002 nodes, longest path 2 arcs, k = 1001
    rows = []
    for i in range(500):
        rows.append((0, 2 + i, *_costs(i)))
        rows.append((2 + i, 1, *_costs(3 * i + 1)))
    inst = Instance(MultiDigraph.from_rows(1002, rows), 0, 1, 1001)
    assert decompose(inst).hops == inst.effective_k == 2
    start = time.perf_counter()
    sol = solve_asp(inst)
    assert time.perf_counter() - start < 1.0
    assert sol.total_cost == solve(inst, "dag").total_cost
    rv = root_values(inst)
    assert len(rv.opt) == len(rv.upper) == 1002
    assert rv.opt[3:] == rv.upper[3:] == (INF,) * 999
    assert rv.upper[2] != INF


def test_root_values_pad_past_the_longest_path():
    g = MultiDigraph.from_rows(5, [(0, 1, 1, 3, 0), (1, 2, 2, 2, 2)])
    assert root_values(Instance(g, 0, 2, 4)) == bruteforce_root_values(Instance(g, 0, 2, 4))
    assert root_values(Instance(g, 0, 2, 4)).opt == (10, INF, INF, INF, INF)


def _count_steps(monkeypatch):
    steps = []
    for name in ("_parallel_step", "_series_step"):
        step = getattr(asp, name)

        def counted(*args, step=step):
            steps.append(len(args[0]))
            return step(*args)

        monkeypatch.setattr(asp, name, counted)
    return steps


@pytest.mark.parametrize("make", [
    lambda: long_path(TALL, 1),
    lambda: long_path(TALL, 50),
    lambda: wide_bundle(TALL, 50),
    lambda: generate_instance("asp", 0xB10C, arcs=5000, k=50),
])
def test_sweep_takes_one_batched_step_per_height_and_kind(monkeypatch, make):
    inst = make()
    tree = decompose(inst)
    width = min(inst.k, tree.hops) + 1
    inner = len(tree.nodes) - tree.leaf_count
    # a height splits into further blocks only past BLOCK_CELLS per step
    rows = max(1, asp.BLOCK_CELLS // (2 * width * width))
    steps = _count_steps(monkeypatch)
    solve_asp(inst)
    assert sum(steps) == inner
    assert len(steps) <= 2 * tree.height + math.ceil(inner / rows)
    if width == 2:
        assert len(steps) <= 2 * tree.height


@pytest.mark.parametrize("shape", [long_path, wide_bundle])
def test_tall_runs_are_rebalanced_by_either_phase_alone(monkeypatch, shape):
    # rounds carried down to one arc, then the queue reduction alone
    inst = shape(TALL, 50)
    want = solve_asp(inst)
    for min_arcs in (1, 1 << 62):
        monkeypatch.setattr(asp, "ARRAY_MIN_ARCS", min_arcs)
        tree = decompose(inst)
        assert tree.height <= 2 * math.ceil(math.log2(TALL)) + 2
        assert len(tree.nodes) == 2 * TALL - 1
        # one store row per node of height 1; the others reuse a child's
        columns = _arrays(tree)
        assert asp._plan(columns).slots == columns.height.tolist().count(1)
        assert solve_asp(inst) == want


def _arrays(tree):
    """The tree's columns as ``_plan`` takes them: arrays, as the array
    rounds leave them."""
    leaf_arcs, kids, series, height, hops = tree.columns
    return asp._Columns(np.asarray(leaf_arcs, dtype=np.intp), np.asarray(kids, dtype=np.intp),
                        np.asarray(series, dtype=bool), np.asarray(height, dtype=np.intp),
                        np.asarray(hops, dtype=np.intp))


def nested_alternation(arcs, k=1):
    """((a | b) . c | d) . e ...: each arc in turn joins the whole graph so
    far in parallel (from the source) or in series (to a new sink)."""
    rows, sink = [(0, 1, 1, 1, 0)], 1
    while len(rows) < arcs:
        if len(rows) % 2:
            rows.append((0, sink, *_costs(len(rows))))
        else:
            rows.append((sink, sink + 1, *_costs(len(rows))))
            sink += 1
    return Instance(MultiDigraph.from_rows(sink + 1, rows), 0, sink, min(k, sink))


def _shape(tree, i=None):
    node = tree.nodes[tree.root if i is None else i]
    if node[0] == LEAF:
        return node[1]
    return node[0], _shape(tree, node[1]), _shape(tree, node[2])


def test_rounds_close_runs_like_the_queue(monkeypatch):
    # runs whose operands differ in height: a bundle of chains and a chain
    # of bundles; both phases see the operands in the same order here
    lengths = [1, 7, 2, 3, 1, 12, 5, 1, 1, 4, 9, 2, 16, 1, 3]
    rows, n = [], 2
    for length in lengths:
        way = [0, *range(n, n + length - 1), 1]
        n += length - 1
        rows += [(u, w, *_costs(len(rows))) for u, w in zip(way, way[1:])]
    bundles = Instance(MultiDigraph.from_rows(n, rows), 0, 1, 3)
    rows = [(v, v + 1, *_costs(v + i)) for v, width in enumerate(lengths) for i in range(width)]
    chain = Instance(MultiDigraph.from_rows(len(lengths) + 1, rows), 0, len(lengths), 3)
    for inst in (bundles, chain):
        shapes = []
        for min_arcs in (1, 1 << 62):
            monkeypatch.setattr(asp, "ARRAY_MIN_ARCS", min_arcs)
            shapes.append(_shape(decompose(inst)))
        assert shapes[0] == shapes[1]


def _close_phase_by_phase(leaves, phases):
    """Reference for ``_Runs.close`` in plain Python: splice each member run
    of its parent's kind into the parent, then close the other runs phase
    by phase by ``_queue``'s ``close`` rule.  Returns {run: shape}."""
    ops, kinds, spliced = [], [], set()
    for series, members, sizes in phases:
        for end, size in zip(accumulate(sizes), sizes):
            run = []
            for m in members[end - size:end]:
                if m >= leaves and kinds[m - leaves] == series:
                    run += ops[m - leaves]
                    spliced.add(m - leaves)
                else:
                    run.append(m)
            ops.append(run)
            kinds.append(series)
    done = {}  # run -> (shape, height)
    for r, (run, series) in enumerate(zip(ops, kinds)):
        if r in spliced:
            continue
        kind = SERIES if series else PARALLEL
        items = [done[m - leaves] if m >= leaves else (m, 0) for m in run]
        while len(items) > 2:
            low = min(max(a[1], b[1]) for a, b in zip(items, items[1:]))
            paired, i = [], 0
            while i < len(items):
                if i + 1 < len(items) and items[i][1] <= low and items[i + 1][1] <= low:
                    (a, ha), (b, hb) = items[i:i + 2]
                    paired.append(((kind, a, b), max(ha, hb) + 1))
                    i += 2
                else:
                    paired.append(items[i])
                    i += 1
            items = paired
        (a, ha), (b, hb) = items
        done[r] = ((kind, a, b), max(ha, hb) + 1)
    return {r: shape for r, (shape, _) in done.items()}


@pytest.mark.parametrize("seed", range(6))
def test_runs_close_in_one_pass_per_height_like_the_queue(monkeypatch, seed):
    # random phases of both kinds; members are unused leaves or earlier
    # runs, so same-kind runs are spliced and operand heights differ
    rng = random.Random(seed)
    for _ in range(25):
        leaves = rng.randint(2, 300)
        runs = asp._Runs(leaves)
        phases, free = [], list(range(leaves))
        while len(free) >= 2:
            rng.shuffle(free)
            members, sizes = [], []
            while len(free) >= 2 and (not sizes or rng.random() < 0.7):
                size = min(len(free), rng.choice((2, 2, 3, 4, rng.randint(2, 40))))
                members += free[-size:]
                del free[-size:]
                sizes.append(size)
            series = rng.random() < 0.5
            phases.append((series, members, sizes))
            free += runs.open(np.array(members), np.array(sizes), series).tolist()
        tree = asp._Tree(leaves)
        joins = []
        join = asp._Tree.join

        def counted(self, *args):
            joins.append(len(args[1]))
            return join(self, *args)

        monkeypatch.setattr(asp._Tree, "join", counted)
        root = runs.close(tree)
        monkeypatch.setattr(asp._Tree, "join", join)

        def shape(i):
            if i < leaves:
                return i
            a, b = tree.kids[i - leaves].tolist()
            return SERIES if tree.series[i - leaves] else PARALLEL, shape(a), shape(b)

        want = _close_phase_by_phase(leaves, phases)
        assert {r: shape(root[r]) for r in want} == want
        # the last run opened holds every leaf, and the root is made last
        assert tree.made == 2 * leaves - 1 == root[-1] + 1
        assert len(joins) <= tree.height[root[list(want)]].max()


def test_array_rounds_match_the_oracle_and_the_queue(monkeypatch):
    # the array phase on oracle-size graphs: rounds, stall rejections and
    # the hand-over to the queue once a round removes too little
    rng = SplitMix64(4242)
    verdicts = set()
    for trial in range(400):
        if trial % 8 == 1:
            # two arcs a round: the rounds hand over from 17 arcs on
            inst = nested_alternation(rng.randint(2, 24), rng.randint(1, 12))
        elif trial % 2:
            inst = generate_instance("asp", rng.randint(0, 10**9), arcs=rng.randint(1, 12),
                                     k=rng.randint(1, 3))
        else:
            # a 0 .. n-1 backbone and forward arcs, some of them parallel
            n = rng.randint(3, 7)
            pairs = [(v, v + 1) for v in range(n - 1)]
            for _ in range(rng.randint(0, 8)):
                tail = rng.randint(0, n - 2)
                pairs.append((tail, rng.randint(tail + 1, n - 1)))
            rows = [(u, w, rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(0, 5))
                    for u, w in pairs]
            inst = Instance(MultiDigraph.from_rows(n, rows), 0, n - 1, rng.randint(1, n - 1))
        results = []
        for min_arcs in (1, 1 << 62):
            monkeypatch.setattr(asp, "ARRAY_MIN_ARCS", min_arcs)
            try:
                results.append((len(decompose(inst).nodes), root_values(inst)))
            except NotSeriesParallelError as err:
                results.append(str(err))
        assert results[0] == results[1]
        verdicts.add(type(results[0]))
        if type(results[0]) is tuple:
            assert results[0][1] == bruteforce_root_values(inst)
    assert verdicts == {tuple, str}


def test_nested_alternation_hands_over_to_the_queue():
    # every round would remove two arcs: without the share rule the rounds
    # take quadratic time; only decompose is timed, as the tree is m tall
    m = 8192
    inst = nested_alternation(m)
    start = time.perf_counter()
    tree = decompose(inst)
    assert time.perf_counter() - start < 1.0
    assert len(tree.nodes) == 2 * m - 1
    assert tree.height == m - 1


@pytest.mark.parametrize("doubled", [500, 10])
def test_rounds_reject_before_building(monkeypatch, doubled):
    # 100 bridges in series, some arcs doubled: the first round merges the
    # pairs; with all 500 doubled the rounds go on, with 10 they are over
    # (too few arcs removed), and either way the next round finds nothing
    # to do and raises before any run is closed
    rows = []
    for b in range(100):
        s, x, y, t = 3 * b, 3 * b + 1, 3 * b + 2, 3 * b + 3
        for tail, head in ((s, x), (s, y), (x, y), (x, t), (y, t)):
            rows += [(tail, head, 1, 1, 0)] * (1 + (len(rows) < 2 * doubled))
    inst = Instance(MultiDigraph.from_rows(301, rows), 0, 300, 1)
    assert inst.graph.arc_count == 500 + doubled

    def building(*args):
        raise AssertionError("built a tree for a graph it rejects")

    monkeypatch.setattr(asp, "_close_runs", building)
    monkeypatch.setattr(asp, "_queue", building)
    with pytest.raises(NotSeriesParallelError, match="stalled with 500 arcs left"):
        decompose(inst)


def test_rounds_refuse_a_graph_too_dense_before_building(monkeypatch):
    # the 24-node tournament: 276 arcs, enough for the array rounds, and
    # 276 distinct pairs, past 2 * 24 - 3 = 45; the sorted pair count
    # refuses it before the rounds, and auto answers as dag does
    n = 24
    rows = [(u, w, u * w % 7, u + w, w % 3) for u in range(n) for w in range(u + 1, n)]
    inst = Instance(MultiDigraph.from_rows(n, rows), 0, n - 1, 2)
    assert inst.graph.arc_count >= asp.ARRAY_MIN_ARCS
    want = serialize_solution(solve(inst, "dag"))

    def building(*args):
        raise AssertionError("built a tree for a graph it refuses")

    with monkeypatch.context() as patch:
        for name in ("_rounds", "_queue", "_close_runs"):
            patch.setattr(asp, name, building)
        with pytest.raises(NotSeriesParallelError, match="276 distinct arc pairs, past 2n - 3 = 45"):
            decompose(inst)
        with pytest.raises(NotSeriesParallelError, match="too dense"):
            solve(inst, "asp")
        sol = solve(inst)
    assert serialize_solution(sol) == want
    assert verify_solution(inst, sol).accepted


def test_pruned_arcs_do_not_count_towards_the_rounds():
    # 300 arcs dangle off the sink: the 100 kept ones go to the queue alone
    inst = generate_instance("asp", 7, arcs=100, k=3)
    g = inst.graph
    n = g.node_count
    rows = [*zip(g.tail, g.head, g.first, g.nominal, g.deviation),
            *((inst.sink, n + i % 50, 1, 1, 0) for i in range(300))]
    padded = Instance(MultiDigraph.from_rows(n + 50, rows), inst.source, inst.sink, inst.k)
    assert decompose(padded).nodes == decompose(inst).nodes
    assert root_values(padded) == root_values(inst)


def test_decompose_memory_follows_the_arcs_not_the_node_count():
    small = generate_instance("asp", 31, arcs=300, k=3)
    g = small.graph
    inst = Instance(MultiDigraph(200_000, g.tail, g.head, g.first, g.nominal, g.deviation),
                    small.source, small.sink, small.k)
    inst.on_path  # cached on the instance; sized by the node count
    assert len(decompose(inst).nodes) == 2 * 300 - 1
    tracemalloc.start()
    try:
        decompose(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# tracemalloc peak of _sweep on the path below: 184-198 KB while the
# Python sweep kept every node's rows, 90-95 KB once it drops a child's
# rows as their parent's are made (x86-64, Python 3.11)
PATH_SWEEP_PEAK = 1 << 17


def test_python_sweep_drops_the_rows_no_node_reads():
    inst = long_path(asp.ARRAY_MIN_ARCS - 1, asp.ARRAY_MIN_ARCS - 1)
    tree = decompose(inst)
    inst.graph.combined  # made on first read, for the graph
    tracemalloc.start()
    try:
        first, opt, _, read_back = asp._sweep(inst, tree)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PATH_SWEEP_PEAK
    # the one path is both stages, so no arc is recovered
    assert first == sum(inst.graph.first)
    assert opt == [sum(inst.graph.combined)] + [INF] * (len(opt) - 1)
    assert read_back(0) == (list(range(inst.graph.arc_count)),) * 2


def _rows_by_the_queue_rule(tree):
    """Every node's store row and the row count, by the rule the queue
    reduction once applied as it joined: in creation order, a node of
    height 1 takes a fresh row, any other its left child's row, or its
    right child's if the left is a leaf (-1 for leaves)."""
    height = tree.columns.lists().height
    row = [-1] * tree.leaf_count
    fresh = 0
    for _, a, b in tree.nodes[tree.leaf_count:]:
        if height[a] or height[b]:
            row.append(row[a] if height[a] else row[b])
        else:
            row.append(fresh)
            fresh += 1
    return row, fresh


@pytest.mark.parametrize("make", [
    lambda: long_path(1, 1),
    lambda: long_path(TALL, 50),
    lambda: wide_bundle(TALL, 50),
    lambda: nested_alternation(4096),
    lambda: generate_instance("asp", 0xB10C, arcs=5000, k=50),
    lambda: generate_instance("asp", 7, arcs=100, k=3),
])
def test_store_rows_follow_the_queue_rule_in_every_phase(monkeypatch, make):
    # rounds alone (down to one arc), both phases, the queue alone
    inst = make()
    for min_arcs in (1, 256, 1 << 62):
        monkeypatch.setattr(asp, "ARRAY_MIN_ARCS", min_arcs)
        tree = decompose(inst)
        plan = asp._plan(_arrays(tree))
        row, slots = _rows_by_the_queue_rule(tree)
        assert plan.slots == slots
        assert plan.out_row.tolist() == [row[i] for i in plan.ids.tolist()]
        assert plan.child_row.tolist() == [
            slots if c < tree.leaf_count else row[c] for c in plan.children.tolist()]


@pytest.mark.parametrize("make", [
    lambda: long_path(1, 1),
    lambda: parallel_pair(1),
    lambda: generate_instance("asp", 0xB10C, arcs=5000, k=50),
])
def test_solving_never_reads_the_node_tuples(monkeypatch, make):
    inst = make()
    want = solve_asp(inst), root_values(inst)

    def unread(tree):
        raise AssertionError("the solver read DecompTree.nodes")

    monkeypatch.setattr(asp.DecompTree, "nodes", property(unread))
    assert (solve_asp(inst), root_values(inst)) == want
    assert verify_solution(inst, want[0]).accepted


@st.composite
def series_blocks(draw):
    """(children, child_first, hops): a block of series nodes as the sweep
    gathers them, with their left children's hops in ascending order.  A
    left child has no finite entry past its hops; infinite entries lie
    anywhere from _PIN to _INF, finite ones are of either sign and, in
    some draws, so few apart that the minima tie."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    rows, w = draw(st.integers(1, 9)), draw(st.integers(1, 14))
    spread = draw(st.sampled_from([2, 1 << 40]))
    hops = sorted(rng.randint(1, w + 1) for _ in range(rows))
    share = rng.random()  # of entries that are finite where they may be

    def entry(finite):
        return rng.randint(-spread, spread) if finite else rng.randint(asp._PIN, asp._INF)

    children = np.array([[[[entry(rng.random() < share and (side or l <= hops[r]))
                            for l in range(w)] for _ in range(2)] for side in range(2)]
                         for r in range(rows)], dtype=np.int64)
    child_first = np.array([[entry(True), entry(True)] for _ in range(rows)], dtype=np.int64)
    return children, child_first, hops[-1]


def _series(children, child_first, span):
    rows, _, _, w = children.shape
    values, first = np.empty((rows, 2, w), dtype=np.int64), np.empty(rows, dtype=np.int64)
    (shares,) = asp._series_step(children, child_first, values, first, span)
    return values, shares, first


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(series_blocks())
def test_series_window_keeps_finite_values_and_shares(block):
    # the window stops past the last left child's hops
    children, child_first, hops = block
    w = children.shape[3]
    values, shares, first = _series(children, child_first, w)
    finite = values < asp._PIN
    got, got_shares, got_first = _series(children, child_first, min(w, hops + 1))
    assert (got[finite] == values[finite]).all()
    assert (got_shares[finite] == shares[finite]).all()
    assert (got[~finite] >= asp._PIN).all()
    assert (got_first == first).all()


def _parallel_by_argmin(children, child_first):
    """The parallel step over all four candidates at once, the first that
    attains the minimum taken by ``argmin``."""
    rows, _, _, w = children.shape
    cand = np.empty((rows, 4, w), dtype=np.int64)
    cand[:, :2] = children[:, :, 0]
    np.add(children[:, ::-1, 1], child_first[:, :, None], out=cand[:, 2:])
    values = np.stack([cand.min(axis=1), children[:, :, 1].min(axis=1)], axis=1)
    return (values, child_first.min(axis=1), cand.argmin(axis=1),
            children[:, 1, 1] < children[:, 0, 1])


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.integers(0, 2**32))
def test_parallel_step_takes_the_first_least_candidate(seed):
    # costs in 0..2, so that candidates often tie, and rows of infinities
    rng = random.Random(seed)
    rows, w = rng.randint(1, 9), rng.randint(1, 6)
    children = np.array([[[[rng.choice([0, 1, 2, 2, asp._INF]) if r % 3 else asp._INF
                            for _ in range(w)] for _ in range(2)] for _ in range(2)]
                         for r in range(rows)], dtype=np.int64)
    child_first = np.array([[rng.randint(0, 2) for _ in range(2)] for _ in range(rows)],
                           dtype=np.int64)
    values, first = np.empty((rows, 2, w), dtype=np.int64), np.empty(rows, dtype=np.int64)
    code, side = asp._parallel_step(children, child_first, values, first)
    want_values, want_first, want_code, want_side = _parallel_by_argmin(children, child_first)
    assert (values == want_values).all() and (first == want_first).all()
    assert (code == want_code).all() and (side == want_side).all()


def _block_end_by_search(lead, lo, end, w, room):
    """The block cut by a hand-written bisection, the reference for
    ``asp._block_end``."""
    if (end - lo) * min(w, lead[end - 1] + 1) <= room:
        return end
    fits, over = lo + 1, end
    while over - fits > 1:
        mid = (fits + over) // 2
        if (mid - lo) * min(w, lead[mid - 1] + 1) <= room:
            fits = mid
        else:
            over = mid
    return fits


def _check_cut(lead, lo, end, w, room):
    hi = asp._block_end(lead, lo, end, w, room)
    assert hi == _block_end_by_search(lead, lo, end, w, room)
    assert lo < hi <= end
    # a block of two nodes or more keeps count times span within room
    assert hi - lo == 1 or (hi - lo) * min(w, lead[hi - 1] + 1) <= room


@st.composite
def block_cuts(draw):
    """(lead, lo, end, w, room) as a height's plan gives them: parallel
    nodes lead with 1, then series nodes by nondecreasing lead."""
    parallel = draw(st.integers(0, 30))
    series = sorted(draw(st.lists(st.integers(1, 80), min_size=1 - min(parallel, 1),
                                  max_size=30)))
    lead = [1] * parallel + series
    lo = draw(st.integers(0, len(lead) - 1))
    end = draw(st.integers(lo + 1, len(lead)))
    return lead, lo, end, draw(st.integers(1, 90)), draw(st.integers(0, 4000))


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(block_cuts())
def test_block_cuts_match_the_search(cut):
    # blocks only split the work, so a wrong cut changes no answer
    _check_cut(*cut)


def test_block_cuts_of_the_benchmark_sweeps_match_the_search(monkeypatch):
    # every block _evaluate cuts for asp-20k at seed 1, recorded as cut
    monkeypatch.syspath_prepend(PERFBENCH)
    bench = importlib.import_module("bench_workloads")
    cuts = []

    def recording(*args):
        cuts.append(args)
        return block_end(*args)

    block_end = asp._block_end
    monkeypatch.setattr(asp, "_block_end", recording)
    for family, seed, kwargs in bench.WORKLOADS["asp-20k"](1):
        solve_asp(generate_instance(family, seed, **kwargs))
    monkeypatch.undo()
    # some heights are split into several blocks
    assert any(block_end(*cut) < cut[2] for cut in cuts)
    for cut in cuts:
        _check_cut(*cut)


@pytest.mark.parametrize("bundled", [False, True], ids=["path", "bundles"])
def test_array_rounds_stop_at_once_below_the_least_kept_arcs(monkeypatch, asp_kernels, bundled):
    # 300 arcs, but only the 100 of a path (or of 50 two-arc bundles in
    # series) lie on source-sink paths: the 200 enter the source from
    # nodes it cannot reach.  The rounds are over from the start, so their
    # first merge (or chain) ends them and the queue builds a small tree
    rows = [(i // 2 if bundled else i, i // 2 + 1 if bundled else i + 1, *_costs(i))
            for i in range(100)]
    sink = 50 if bundled else 100
    rows += [(sink + 1 + i % 20, 0, *_costs(i)) for i in range(200)]
    inst = Instance(MultiDigraph.from_rows(sink + 21, rows), 0, sink, 3)
    assert inst.graph.arc_count >= asp.ARRAY_MIN_ARCS
    calls = []
    rounds = asp._rounds
    monkeypatch.setattr(asp, "_rounds", lambda *args: calls.append(args) or rounds(*args))
    sol = solve_asp(inst)
    assert asp_kernels == ["python"]
    assert len(calls) == 1
    assert sol.total_cost == solve_dag(inst).total_cost
    assert verify_solution(inst, sol).accepted


def test_asp_solves_a_scanned_graph_without_its_in_arcs():
    # the in-arc ids are ordered only when read, and neither the sort, the
    # on-path mask nor the asp sweep reads them
    made = generate_instance("asp", 0x1A2B, arcs=5000, k=50)
    for method in ("asp", "auto"):
        inst = parse_instance(serialize_instance(made))
        assert "_arrays" in inst.graph.__dict__  # scanned
        sol = solve(inst, method)
        assert "_in" not in inst.graph.__dict__
        assert verify_solution(inst, sol).accepted


def test_small_trees_build_no_plan_and_take_no_numpy_step(monkeypatch):
    # below ARRAY_MIN_ARCS leaves the Python sweep alone solves the tree
    inst = generate_instance("asp", 0x5EED, arcs=asp.ARRAY_MIN_ARCS - 1, k=4)
    want = solve_asp(inst), root_values(inst)

    def unused(*args):
        raise AssertionError("a small tree reached the numpy sweep")

    for name in ("_plan", "_parallel_step", "_series_step"):
        monkeypatch.setattr(asp, name, unused)
    assert (solve_asp(inst), root_values(inst)) == want
    assert len(decompose(inst).nodes) == 2 * inst.graph.arc_count - 1


@st.composite
def costed_asp(draw):
    """A generated series-parallel graph of 1 to 300 arcs with drawn
    costs: spreads of 0-2, where minima tie, or wider, costs of either
    sign, and up to three isolated nodes, so that k, drawn from 0 to
    n - 1, may pass the longest path."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    g = generate_instance("asp", rng.getrandbits(32), arcs=rng.randint(1, 300)).graph
    spread = rng.choice([0, 1, 2, 1000])
    rows = [(t, h, rng.randint(-spread, spread), rng.randint(-spread, spread),
             rng.randint(0, spread)) for t, h in zip(g.tail, g.head)]
    n = g.node_count + rng.randint(0, 3)
    k = rng.randint(0, min(n - 1, rng.choice([4, 12, n])))
    return Instance(MultiDigraph.from_rows(n, rows), 0, 1, k)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(costed_asp())
def test_python_and_numpy_sweeps_agree_on_one_tree(inst):
    # one tree from the queue reduction, swept once from its own lists
    # and once in numpy from its plan
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(asp, "ARRAY_MIN_ARCS", 1 << 62)  # lists at every size
        tree = decompose(inst)
    as_arrays = asp.DecompTree(tree.root, tree.height, tree.hops, _arrays(tree))
    plan = asp._plan(as_arrays.columns)
    assert asp._sweep_lists(inst, tree.columns)[0] == asp._evaluate(inst, as_arrays, plan)[0].tolist()
    got, want = asp._sweep(inst, tree), asp._sweep(inst, as_arrays)
    assert got[:3] == want[:3]
    for l, value in enumerate(got[1]):
        if value != INF:
            assert got[3](l) == want[3](l)


# tracemalloc peak of parse_instance plus solve(..., "asp") on the text
# below while MultiDigraph kept every column as a list: the lowest of
# three runs (x86-64, Python 3.11, numpy 2.4)
LIST_COLUMNS_PEAK = 4_411_085


def test_parse_and_solve_peak_is_not_above_the_list_columns():
    text = serialize_instance(generate_instance("asp", 11, arcs=5000, k=50))
    tracemalloc.start()
    try:
        solve(parse_instance(text), "asp")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= LIST_COLUMNS_PEAK
