import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recsp.graph
from recsp import reduction
from recsp.csp import solve_levels
from recsp.dispatch import solve
from recsp.errors import ConfigError, NotLayeredError
from recsp.generator import SplitMix64, generate_instance
from recsp.graph import SATURATE, Instance, MultiDigraph, compute_layering
from recsp.instance_io import parse_solution, serialize_solution
from recsp.oracle import solve_bruteforce
from recsp.reduction import (
    build_dag_reduction,
    build_layered_reduction,
    layered_columns,
    pair_paths,
    solve_dag,
    solve_layered,
)
from recsp.solution import verify_solution


def random_instance(rng, family, max_nodes=8, max_arcs=14, max_k=3):
    # Some size/arc/layer combinations cannot be wired; redraw everything
    # until the generator accepts, so no single bad combination can stall us.
    while True:
        n = rng.randint(4, max_nodes)
        kw = {"nodes": n, "arcs": rng.randint(n + 3, max_arcs),
              "k": rng.randint(1, max_k)}
        if family == "layered":
            kw["layers"] = rng.randint(3, min(4, n))
        try:
            return generate_instance(family, rng.randint(0, 10**9), **kw)
        except ConfigError:
            continue


def parallel_pair(k):
    g = MultiDigraph.from_rows(2, [(0, 1, 5, 1, 1), (0, 1, 1, 10, 0)])
    return Instance(g, 0, 1, k)


def test_layered_reduction_structure_on_parallel_pair():
    inst = parallel_pair(1)
    transitions = build_layered_reduction(inst)
    direct = [tr for tr in transitions if tr[4] is not None]
    pairs = [tr for tr in transitions if tr[4] is None]
    assert len(direct) == 1 and len(pairs) == 1
    # cheapest combined parallel survives as the zero-time transition
    assert direct[0] == (0, 1, 7, 0, 0)
    # stage pair: cheapest first-stage arc + cheapest worst-case arc
    assert pairs[0] == (0, 1, 3, 1, None)
    # the pair transition expands to those two stage paths
    assert pair_paths(inst.graph, 0, 1, 1) == ((1,), (0,))


def test_dag_reduction_structure_on_parallel_pair():
    transitions = build_dag_reduction(parallel_pair(1))
    direct = [tr for tr in transitions if tr[4] is not None]
    pairs = [tr for tr in transitions if tr[4] is None]
    assert len(direct) == 1 and len(pairs) == 1
    assert direct[0][2:4] == (7, 0)
    assert pairs[0][2:4] == (3, 1)


def test_dag_reduction_arc_budget_sweep():
    # chain 0 -> 1 -> 2 with k=2: a pair gets a transition only for the
    # allowances that improve on one arc less
    g = MultiDigraph.from_rows(3, [(0, 1, 1, 1, 0), (1, 2, 1, 1, 0)])
    transitions = build_dag_reduction(Instance(g, 0, 2, 2))
    pairs = [(tr[0], tr[1], tr[3]) for tr in transitions if tr[4] is None]
    assert sorted(pairs) == [(0, 1, 1), (0, 2, 2), (1, 2, 1)]


def test_dag_reduction_on_a_path_is_linear_in_the_budget():
    # one direct transition per arc and, since every pair has exactly one
    # path, one pair transition per node pair at most k hops apart
    m, k = 512, 50
    g = MultiDigraph.from_rows(m + 1, [(v, v + 1, 1, 2, 1) for v in range(m)])
    transitions = build_dag_reduction(Instance(g, 0, m, k))
    assert sum(tr[3] == 0 for tr in transitions) == m
    assert len(transitions) == m + sum(m + 1 - d for d in range(1, k + 1)) == 24887


def test_hop_tables_skip_nodes_out_of_reach(count_reads):
    # each hop table reads the out-arcs of at most k nodes from its
    # source on, and each first-stage sweep those of the nodes before the
    # last one the table reached
    m, k = 512, 50
    g = MultiDigraph.from_rows(m + 1, [(v, v + 1, 1, 2, 1) for v in range(m)])
    calls = count_reads(g, "_in", "_out")
    assert solve_dag(Instance(g, 0, m, k)).total_cost == 2048
    assert calls[0] <= 157_000


def test_first_stage_sweeps_stop_where_the_hop_tables_stop(count_reads):
    # from each source the hop table reads the out-arcs of the source and
    # of the nodes it reached in fewer than k arcs, and the first-stage
    # sweep those of the nodes before the last one reached: 49,313 reads,
    # against 156,778 when the sweep ran to the end of the path
    m, k = 512, 50
    g = MultiDigraph.from_rows(m + 1, [(v, v + 1, 1, 2, 1) for v in range(m)])
    inst = Instance(g, 0, m, k)
    inst.on_path, inst.effective_k
    calls = count_reads(g, "_out")
    assert len(build_dag_reduction(inst)) == 24887
    assert calls[0] <= 2 * (m + 1) * (k + 1)
    assert solve_dag(inst).total_cost == 2048


def _layered_reference(instance):
    """The layered transitions, in order, from one dictionary sweep per
    source over the next k layers."""
    graph = instance.graph
    k, on = instance.effective_k, instance.on_path
    layer = compute_layering(instance)
    by_layer = {}
    for v in graph.order:
        if on[v]:
            by_layer.setdefault(layer[v], []).append(v)
    transitions = []
    for i in graph.order:
        if not on[i]:
            continue
        best = {}
        for a in graph.out_arcs(i):
            j = graph.head[a]
            if on[j] and (j not in best or graph.combined[a] < graph.combined[best[j]]):
                best[j] = a
        transitions += [(i, j, graph.combined[a], 0, a) for j, a in best.items()]
        first, upper = {i: 0}, {i: 0}
        for gap in range(1, k + 1):
            for v in by_layer.get(layer[i] + gap, ()):
                arcs = [a for a in graph.in_arcs(v) if graph.tail[a] in first]
                if arcs:
                    first[v] = min(first[graph.tail[a]] + graph.first[a] for a in arcs)
                    upper[v] = min(upper[graph.tail[a]] + graph.upper[a] for a in arcs)
                    transitions.append((i, v, first[v] + upper[v], gap, None))
    return transitions


def _random_layered(rng, scale):
    """A layered graph with parallel arcs, negative costs and stubs off
    every source-sink path, at ``scale`` times the usual width."""
    widths = [1] + [rng.randint(1, 3 * scale) for _ in range(rng.randint(1, 6))] + [1]
    layers, n = [], 0
    for w in widths:
        layers.append(list(range(n, n + w)))
        n += w

    def row(tail, head):
        return (tail, head, rng.randint(-9, 30), rng.randint(-9, 30), rng.randint(0, 9))

    rows = []
    for here, there in zip(layers, layers[1:]):
        rows += [row(here[rng.randint(0, len(here) - 1)], v) for v in there]
        rows += [row(v, there[rng.randint(0, len(there) - 1)]) for v in here]
        for _ in range(rng.randint(0, 4 * scale)):
            rows.append(row(here[rng.randint(0, len(here) - 1)],
                            there[rng.randint(0, len(there) - 1)]))
    # a stub fed from two layers and one hanging above the source
    rows += [row(0, n), row(layers[-2][0], n), row(n + 1, 0)]
    order = list(range(len(rows)))
    for i in range(len(order) - 1, 0, -1):
        j = rng.randint(0, i)
        order[i], order[j] = order[j], order[i]
    return MultiDigraph.from_rows(n + 2, [rows[i] for i in order]), layers[-1][0]


def test_layered_build_matches_the_per_source_sweep_in_order():
    rng = SplitMix64(4242)
    instances = []
    for scale in (1, 1, 1, 3):
        for _ in range(30):
            g, sink = _random_layered(rng, scale)
            instances += [Instance(g, 0, sink, k) for k in range(1, 5)]
    for seed in range(6):
        instances.append(generate_instance("layered", seed, nodes=60, arcs=240, k=4, layers=12))
    for inst in instances:
        assert build_layered_reduction(inst) == _layered_reference(inst)
        nodes, _, tail, head, cost, time, arc = layered_columns(inst)
        columns = zip(nodes[tail].tolist(), nodes[head].tolist(), cost.tolist(), time.tolist(),
                      arc.tolist())
        assert sorted(columns, key=lambda tr: tr[:4]) == sorted(
            build_dag_reduction(inst), key=lambda tr: tr[:4])


@pytest.mark.parametrize("sign", [1, -1])
def test_layered_build_is_exact_past_int64(sign):
    # every stage path sums three costs near 2**62: int64 would wrap
    big = sign * (1 << 62)
    g = MultiDigraph.from_rows(6, [
        (0, 1, big, big, 5), (0, 2, big + 7, big - 3, 0), (1, 3, big, big + 1, 2),
        (2, 3, big - 1, big, 9), (2, 4, big + 2, big - 5, 1), (1, 4, big, big, 0),
        (3, 5, big, big, 3), (4, 5, big - 4, big + 4, 0),
    ])
    for k in (1, 2, 3):
        inst = Instance(g, 0, 5, k)
        sol = solve(inst, "layered")
        assert abs(sol.total_cost) > 1 << 63
        assert sol.total_cost == solve_bruteforce(inst).total_cost
        assert verify_solution(inst, sol).accepted
        assert parse_solution(serialize_solution(sol)) == sol
        assert build_layered_reduction(inst) == _layered_reference(inst)


def _guarded(hops, bound, sign):
    """A layered graph whose sink is ``hops`` arcs from the source, two
    nodes wide in between, with small costs but for one first-stage cost
    of sign ``sign`` that puts the guard's bound at ``bound``, and a stub
    off every path that costs far more."""
    rng = SplitMix64(hops)
    layers = [[0], *([2 * i + 1, 2 * i + 2] for i in range(hops - 1)), [2 * hops - 1]]
    rows = [(t, h, rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(0, 3))
            for here, there in zip(layers, layers[1:]) for t in here for h in there]
    upper = max(2, *(abs(nominal + deviation) for *_, nominal, deviation in rows))
    rows += [(0, layers[1][0], sign * (bound // hops - upper), 1, 1),
             (0, 2 * hops, sign << 62, 0, 0)]
    return MultiDigraph.from_rows(2 * hops + 1, rows), 2 * hops - 1


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("hops, offset", [(1, -1), (3, -2), (1, 0), (4, 0)])
def test_the_int64_guard_sends_the_layered_solve_to_the_tuple_kernel(monkeypatch, hops, offset,
                                                                     sign):
    # the guard's bound just below, then at, the limit (the largest multiple
    # of the hop count below it, 2**61 - 1 being prime): the level kernel
    # runs below the limit and not at it; both ways the answer is the
    # oracle's total, and the tuple kernel's answer byte for byte
    bound = SATURATE + offset
    calls = []

    def spying(*args):
        calls.append(args)
        return solve_levels(*args)

    monkeypatch.setattr(reduction, "solve_levels", spying)
    graph, sink = _guarded(hops, bound, sign)
    on = range(graph.arc_count - 1)  # all but the stub
    assert hops * (max(abs(graph.first[a]) for a in on) + max(abs(graph.upper[a]) for a in on)) \
        == bound
    for k in range(1, hops + 1):
        inst = Instance(graph, 0, sink, k)
        calls.clear()
        sol = solve(inst, "layered")
        assert len(calls) == (bound < SATURATE)
        assert sol.total_cost == solve_bruteforce(inst).total_cost
        assert verify_solution(inst, sol).accepted
        listed = reduction._solve(inst, build_layered_reduction(inst))
        assert serialize_solution(listed) == serialize_solution(sol)
    assert (layered_columns(inst) is None) == (bound >= SATURATE)


def _shuffled_layered(rng, scale):
    """A layered graph with node ids shuffled, so that its topological
    order mixes layers, and costs of 0 to 3 times ``scale``, so that
    minima tie, and one isolated node, so that k may pass the longest
    path; returns the graph, its source and its sink."""
    widths = [1] + [rng.randint(1, 4) for _ in range(rng.randint(1, 5))] + [1]
    layers, n = [], 0
    for w in widths:
        layers.append(list(range(n, n + w)))
        n += w
    label = list(range(n))
    rng.shuffle(label)
    rows = []
    for here, there in zip(layers, layers[1:]):
        pairs = [(rng.choice(here), v) for v in there] + [(v, rng.choice(there)) for v in here]
        pairs += [(rng.choice(here), rng.choice(there)) for _ in range(rng.randint(0, 4))]
        rows += [(label[u], label[v], *(rng.randint(0, 3) * scale for _ in range(3)))
                 for u, v in pairs]
    return MultiDigraph.from_rows(n + 1, rows), label[0], label[n - 1]


def test_the_exact_list_solves_the_same_in_any_tail_order():
    # solve_csp over build_layered_reduction's list as built, and over the
    # same list sorted stably by the tail's place in the topological order
    # and by time: each head sees its transitions in the same order, so
    # the answers agree byte for byte, ties included
    rng = random.Random(2718)
    differ = 0
    for draw in range(150):
        for scale in (1, 1 << 60):
            graph, s, t = _shuffled_layered(rng, scale)
            place = {v: p for p, v in enumerate(graph.order)}
            hops = Instance(graph, s, t, 1).hops[t]
            for k in range(1, hops + 2):
                inst = Instance(graph, s, t, k)
                listed = build_layered_reduction(inst)
                ordered = sorted(listed, key=lambda tr: (place[tr[0]], tr[3]))
                differ += listed != ordered
                assert serialize_solution(reduction._solve(inst, listed)) == serialize_solution(
                    reduction._solve(inst, ordered))
    assert differ


def test_the_layered_columns_come_in_the_level_kernels_order():
    # the nodes numbered by (layer, place in graph.order), the transitions
    # by head, then by the tail's place, the direct one first; the shuffled
    # ids mix layers in the topological order, so on some draws ordering
    # each head's tails by their number instead would differ
    rng = random.Random(3141)
    differ = 0
    for draw in range(150):
        graph, s, t = _shuffled_layered(rng, 1)
        place = {v: p for p, v in enumerate(graph.order)}
        hops = Instance(graph, s, t, 1).hops
        for k in range(1, hops[t] + 1):
            nodes, starts, tail, head, _, time, _ = layered_columns(Instance(graph, s, t, k))
            nodes, tail, head, time = nodes.tolist(), tail.tolist(), head.tolist(), time.tolist()
            assert nodes[0] == s and nodes[-1] == t and starts[-1] == len(nodes)
            assert [hops[v] for v in nodes] == [
                level for level, (a, b) in enumerate(zip(starts, starts[1:])) for _ in range(a, b)]
            assert head == sorted(head) and set(head) == set(range(1, len(nodes)))
            assert all(hops[nodes[u]] < hops[nodes[v]] for u, v in zip(tail, head))
            listed = list(zip(head, [place[nodes[u]] for u in tail], time))
            assert listed == sorted(set(listed))
            differ += sorted(zip(head, tail, time)) != list(zip(head, tail, time))
    assert differ


def test_an_unlayered_graph_past_the_guard_is_refused():
    big = 1 << 62
    g = MultiDigraph.from_rows(3, [(0, 1, big, big, 0), (1, 2, big, 1, 0), (0, 2, 1, big, 0)])
    inst = Instance(g, 0, 2, 1)
    for run in (solve_layered, layered_columns, build_layered_reduction):
        with pytest.raises(NotLayeredError):
            run(inst)
    assert solve(inst).total_cost == solve_bruteforce(inst).total_cost


def test_level_kernel_memory_follows_the_transitions():
    # the hub takes 2w + 1 of the 5w + 3 transitions: a kernel padded to
    # the largest in-degree would hold about (w + 3) * (2w + 1) cells
    w = 1000
    hub, sink = w + 1, w + 2
    rows = [(0, 1 + i, i % 7, 3, i % 5) for i in range(w)]
    rows += [(1 + i, hub, i * 3 % 11, 2, i % 3) for i in range(w)]
    rows.append((hub, sink, 1, 1, 1))
    inst = Instance(MultiDigraph.from_rows(w + 3, rows), 0, sink, 2)
    nodes, starts, tail, head, cost, time, _ = layered_columns(inst)
    assert len(tail) == 5 * w + 3 and (head == len(nodes) - 2).sum() == 2 * w + 1
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = solve_levels(starts, tail, head, cost, time, 2)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert result[0] == solve(inst, "dag").total_cost
    assert peak <= 12 * len(tail) * 8


def test_reductions_keep_on_path_nodes_and_the_effective_budget():
    # 0 -> 1 -> 2 with parallels on both gaps; 1 -> 3 dangles and 4 -> 1
    # hangs above the path.  k = 4 is twice the longest 0-2 path.
    g = MultiDigraph.from_rows(5, [
        (0, 1, 4, 1, 3), (0, 1, 1, 6, 0), (1, 2, 2, 2, 2), (1, 2, 5, 0, 1),
        (1, 3, 1, 1, 0), (4, 1, 1, 1, 0),
    ])
    inst = Instance(g, 0, 2, 4)
    assert inst.effective_k == 2
    for build in (build_layered_reduction, build_dag_reduction):
        transitions = build(inst)
        assert {tr[0] for tr in transitions} | {tr[1] for tr in transitions} == {0, 1, 2}
        assert max(tr[3] for tr in transitions) == 2
    assert solve_layered(inst).total_cost == solve_bruteforce(inst).total_cost
    assert solve_dag(inst).total_cost == solve_bruteforce(inst).total_cost


def _count_searches(monkeypatch, method, dead_end):
    """The sorts and backward searches of a solve by ``method`` of a
    generated layered instance, with ``dead_end`` one more arc from a
    node on a path to a new node with no out-arc."""
    made = generate_instance("layered", 5, nodes=12, arcs=30, k=3, layers=4)
    g = made.graph
    rows = list(zip(g.tail, g.head, g.first, g.nominal, g.deviation))
    n = g.node_count
    if dead_end:
        rows.append((made.source, n, 1, 1, 0))
        n += 1
    sorts, searches = [], []
    sort, search = recsp.graph.topological_order, recsp.graph._sweep_back

    def sorting(graph, source=None):
        sorts.append(source)
        return sort(graph, source)

    def searching(graph, sink, hops):
        searches.append((sink, graph))
        return search(graph, sink, hops)

    graph = MultiDigraph.from_rows(n, rows)
    monkeypatch.setattr(recsp.graph, "topological_order", sorting)
    monkeypatch.setattr(recsp.graph, "_sweep_back", searching)
    inst = Instance(graph, made.source, made.sink, made.k)
    sol = solve(inst, method)
    assert sorts == [inst.source]
    assert sol.total_cost == solve_bruteforce(inst).total_cost
    assert inst.on_path == [v < g.node_count for v in range(n)]
    return searches, inst


@pytest.mark.parametrize("method", ["layered", "dag", "auto"])
def test_each_solve_searches_the_graph_once_each_way(monkeypatch, method):
    # forward from the source in the sort that validates; a reached dead
    # end other than the sink, off every path, needs one search back from
    # the sink for the on-path mask, which reuses the forward hop counts
    searches, inst = _count_searches(monkeypatch, method, dead_end=True)
    assert searches == [(inst.sink, inst.graph)]


@pytest.mark.parametrize("method", ["layered", "dag", "auto"])
def test_without_a_dead_end_no_solve_searches_back(monkeypatch, method):
    # every node the source reaches leads on to the sink, the only node
    # reached with no out-arc: the sort's hop counts settle the mask
    searches, _ = _count_searches(monkeypatch, method, dead_end=False)
    assert searches == []


@pytest.mark.parametrize("method", ["layered", "dag", "auto"])
def test_each_solve_counts_the_longest_hops_once(method):
    # the layering check and the effective budget share the hop counts of
    # the sort that validates: the solve keeps that one list, and it
    # holds the longest hop counts from the source
    inst = generate_instance("layered", 5, nodes=12, arcs=30, k=3, layers=4)
    hops = inst.hops
    sol = solve(inst, method)
    assert inst.hops is hops
    graph, longest = inst.graph, {inst.source: 0}
    for v in graph.order:
        for a in graph.out_arcs(v) if v in longest else ():
            longest[graph.head[a]] = max(longest.get(graph.head[a], 0), longest[v] + 1)
    assert hops == [longest.get(v, -1) for v in range(graph.node_count)]
    assert sol.total_cost == solve_bruteforce(inst).total_cost


@pytest.mark.parametrize("method", ["layered", "dag", "auto"])
def test_each_instance_sorts_its_graph_once(monkeypatch, method):
    sorts = []
    original = recsp.graph.topological_order

    def counting(graph, source=None):
        sorts.append(graph)
        return original(graph, source)

    monkeypatch.setattr(recsp.graph, "topological_order", counting)
    inst = generate_instance("layered", 5, nodes=12, arcs=30, k=3, layers=4)
    sol = solve(inst, method)
    assert sorts == [inst.graph]
    assert sol.total_cost == solve_bruteforce(inst).total_cost


def test_solvers_require_positive_budget():
    inst = parallel_pair(0)
    with pytest.raises(ValueError):
        solve_layered(inst)
    with pytest.raises(ValueError):
        solve_dag(inst)


def test_layered_solver_refuses_unlayered_instance():
    g = MultiDigraph.from_rows(3, [(0, 1, 1, 1, 0), (1, 2, 1, 1, 0), (0, 2, 1, 1, 0)])
    with pytest.raises(NotLayeredError):
        solve_layered(Instance(g, 0, 2, 1))


def test_layered_solver_tolerates_unlayered_dangles():
    # the 3 -> 4 stub is off every 0-2 path and must not break the layering
    g = MultiDigraph.from_rows(5, [
        (0, 1, 3, 1, 1), (1, 2, 2, 5, 2), (0, 3, 1, 1, 0), (3, 4, 1, 1, 0),
    ])
    inst = Instance(g, 0, 2, 1)
    assert solve_layered(inst).total_cost == solve_bruteforce(inst).total_cost


def test_dag_solver_handles_negative_costs():
    g = MultiDigraph.from_rows(4, [
        (0, 1, -4, 2, 1), (1, 3, 3, -6, 0), (0, 2, 1, 1, 0), (2, 3, -2, -2, 3),
    ])
    for k in (1, 2, 3):
        inst = Instance(g, 0, 3, k)
        assert solve_dag(inst).total_cost == solve_bruteforce(inst).total_cost


def test_layered_matches_oracle_on_random_instances():
    rng = SplitMix64(31337)
    for trial in range(120):
        inst = random_instance(rng, "layered")
        sol = solve_layered(inst)
        assert sol.total_cost == solve_bruteforce(inst).total_cost
        assert verify_solution(inst, sol).accepted


def test_dag_matches_oracle_on_random_instances():
    rng = SplitMix64(90210)
    for trial in range(120):
        inst = random_instance(rng, "dag")
        sol = solve_dag(inst)
        assert sol.total_cost == solve_bruteforce(inst).total_cost
        assert verify_solution(inst, sol).accepted


def test_solutions_expand_to_consistent_paths():
    rng = SplitMix64(60601)
    for trial in range(40):
        inst = random_instance(rng, "dag", max_nodes=9, max_arcs=18, max_k=4)
        sol = solve_dag(inst)
        assert verify_solution(inst, sol).accepted
        assert sol.divergence <= inst.k
        assert sol.total_cost == sol.first_cost + sol.second_cost


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.integers(3, 14), st.data())
def test_dag_and_layered_give_the_same_answers_on_layered_graphs(seed, nodes, data):
    # a generated layered graph with costs redrawn from small ranges, so
    # that minima tie, and with node ids and arc order shuffled; every k
    # up to one past the effective budget
    layers = data.draw(st.integers(3, nodes), label="layers")
    arcs = data.draw(st.integers(2 * nodes, 4 * nodes), label="arcs")
    top = data.draw(st.integers(0, 3), label="top")
    graph = generate_instance("layered", seed, nodes=nodes, arcs=arcs, k=1, layers=layers).graph
    rng = random.Random(seed)
    ids = list(range(nodes))
    rng.shuffle(ids)
    rows = [(ids[t], ids[h], rng.randint(-1, top), rng.randint(-1, top), rng.randint(0, top))
            for t, h in zip(graph.tail, graph.head)]
    rng.shuffle(rows)
    g = MultiDigraph.from_rows(nodes, rows)
    budget = Instance(g, ids[0], ids[-1], nodes - 1).effective_k
    for k in range(1, min(budget + 1, nodes - 1) + 1):
        inst = Instance(g, ids[0], ids[-1], k)
        assert serialize_solution(solve(inst, "dag")) == serialize_solution(solve(inst, "layered"))
