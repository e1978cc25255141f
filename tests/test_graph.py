import heapq
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recsp.dispatch import solve
from recsp.errors import CyclicGraphError, NotLayeredError, RecspError, ValidationError
from recsp.graph import (
    INF,
    Arc,
    HopBoundedTable,
    Instance,
    MultiDigraph,
    compute_layering,
    dag_shortest_paths,
    divergence_count,
    path_cost,
    SATURATE,
    path_error,
    shortest_path,
    _sweep_back,
    topological_order,
)
from recsp.generator import SplitMix64
from recsp.instance_io import parse_instance


def build(n, rows):
    return MultiDigraph.from_rows(n, rows)


def longest_hops(graph: MultiDigraph, source: int) -> list[int]:
    """Most arcs on any source->v path, for every v (-1 if unreachable).

    Pushes along the out-arcs of reached nodes, as ``dag_shortest_paths``.
    ``Instance`` validation counts the same hops in ``topological_order``.
    """
    head, (ids, starts) = graph.head, graph._out
    hops = [-1] * graph.node_count
    hops[source] = 0
    for v in graph.order[graph.order.index(source):]:
        h = hops[v] + 1
        if h:  # v is reached
            for a in ids[starts[v]:starts[v + 1]]:
                if hops[head[a]] < h:
                    hops[head[a]] = h
    return hops


def random_dag(rng, n, m):
    rows = []
    for v in range(1, n):
        rows.append((rng.randint(0, v - 1), v, rng.randint(-5, 20),
                     rng.randint(-5, 20), rng.randint(0, 10)))
    while len(rows) < m:
        tail = rng.randint(0, n - 2)
        rows.append((tail, rng.randint(tail + 1, n - 1), rng.randint(-5, 20),
                     rng.randint(-5, 20), rng.randint(0, 10)))
    return build(n, rows)


def test_arc_cost_selectors():
    arc = Arc(0, 0, 1, 5, 3, 2)
    assert arc.first_cost == 5
    assert arc.upper_cost == 5
    assert arc.combined_cost == 10


def test_arc_rejects_negative_deviation_and_self_loop():
    with pytest.raises(ValidationError):
        Arc(0, 0, 1, 1, 1, -1)
    with pytest.raises(ValidationError):
        Arc(0, 2, 2, 1, 1, 0)


def test_arcs_are_views_built_on_first_access():
    g = build(3, [(0, 1, 5, 3, 2), (1, 2, -1, 0, 4)])
    assert "arcs" not in g.__dict__
    assert g.arcs == (Arc(0, 0, 1, 5, 3, 2), Arc(1, 1, 2, -1, 0, 4))
    assert g.arcs is g.arcs
    assert (g.arcs[1].upper_cost, g.arcs[1].combined_cost) == (4, 3)
    with pytest.raises(ValidationError, match=r"^arc columns differ in length$"):
        MultiDigraph(2, [0], [1], [1], [1], [])


def test_validation_reports_faults_in_the_same_order():
    # the first arc with a negative deviation or a self-loop comes first,
    # then a node count below 1, then endpoints out of range
    rows = [(0, 1, 1, 1, 0)] * 9
    rows[2] = (0, 9, 1, 1, 0)
    rows[5] = (1, 2, 1, 1, -1)
    rows[7] = (3, 3, 1, 1, 0)
    with pytest.raises(ValidationError, match=r"^arc 5: deviation -1 < 0$"):
        build(4, rows)
    rows[5] = (1, 2, 1, 1, 0)
    with pytest.raises(ValidationError, match=r"^arc 7: self-loop at node 3$"):
        build(4, rows)
    with pytest.raises(ValidationError, match=r"^arc 7: self-loop at node 3$"):
        build(0, rows)
    rows[7] = (2, 3, 1, 1, 0)
    with pytest.raises(ValidationError, match=r"^node_count must be >= 1$"):
        build(0, rows)
    for tail, head in ((0, 9), (0, 4), (4, 1), (-1, 1), (0, -1)):
        rows[2] = (tail, head, 1, 1, 0)
        with pytest.raises(ValidationError, match=r"^arc 2: endpoint out of range$"):
            build(4, rows)
    rows[2] = (0, 1, 1, 1, 0)
    assert build(4, rows).arc_count == 9
    rows[5] = (1, 2, 1, 1, -1)
    with pytest.raises(ValidationError, match=r"^arc 5: deviation -1 < 0$"):
        build(4, rows)


def test_graph_parallel_arcs_kept_distinct():
    g = build(2, [(0, 1, 1, 1, 0), (0, 1, 2, 2, 0)])
    assert g.arc_count == 2
    assert g.out_arcs(0) == (0, 1)
    assert g.in_arcs(1) == (0, 1)


def test_graph_rejects_bad_endpoints():
    with pytest.raises(ValidationError):
        build(2, [(0, 5, 1, 1, 0)])


def test_topological_order_prefers_small_ids():
    # the hops are counted from the source only: -1 everywhere without one
    g = build(4, [(0, 3, 1, 1, 0), (1, 3, 1, 1, 0), (2, 3, 1, 1, 0)])
    assert topological_order(g) == ([0, 1, 2, 3], [-1, -1, -1, -1])
    assert topological_order(g, 1) == ([0, 1, 2, 3], [-1, 0, -1, 1])


def test_topological_order_detects_cycle():
    g = build(3, [(0, 1, 1, 1, 0), (1, 2, 1, 1, 0), (2, 0, 1, 1, 0)])
    with pytest.raises(CyclicGraphError):
        topological_order(g)


def test_instance_validation():
    g = build(3, [(0, 1, 1, 1, 0), (1, 2, 1, 1, 0)])
    Instance(g, 0, 2, 1)
    with pytest.raises(ValidationError):
        Instance(g, 0, 0, 1)  # source == sink
    with pytest.raises(ValidationError):
        Instance(g, 0, 2, 3)  # k >= node count
    with pytest.raises(ValidationError):
        Instance(g, 0, 2, -1)
    with pytest.raises(ValidationError):
        Instance(g, 2, 0, 1)  # sink unreachable


def test_instance_rejects_cycles_with_cyclic_error():
    g = build(2, [(0, 1, 1, 1, 0), (1, 0, 1, 1, 0)])
    with pytest.raises(CyclicGraphError):
        Instance(g, 0, 1, 0)


def test_on_st_path_mask_drops_dangling_nodes():
    # 3 dangles off the path, 4 hangs above it
    g = build(5, [(0, 1, 1, 1, 0), (1, 2, 1, 1, 0), (1, 3, 1, 1, 0), (4, 1, 1, 1, 0)])
    assert Instance(g, 0, 2, 1).on_path == [True, True, True, False, False]


def test_effective_k_caps_at_longest_path():
    # longest 0-3 path has 3 arcs beside the one-arc shortcut; 4 is unreachable
    g = build(5, [(0, 1, 1, 1, 0), (1, 2, 1, 1, 0), (2, 3, 1, 1, 0),
                  (0, 3, 1, 1, 0), (4, 3, 1, 1, 0)])
    assert longest_hops(g, 0) == [0, 1, 2, 3, -1]
    assert Instance(g, 0, 3, 4).effective_k == 3
    assert Instance(g, 0, 3, 2).effective_k == 2


def test_graph_is_sorted_once_and_sweeps_start_at_the_source():
    g = build(4, [(2, 0, 1, 1, 0), (0, 1, 1, 1, 0), (2, 3, 1, 1, 0), (1, 3, 1, 1, 0)])
    assert g.order == (2, 0, 1, 3) and g.order is g.order
    # node 2 comes before the source in the order and stays unreached
    assert dag_shortest_paths(g, g.first, 0) == [0, 1, INF, 2]


def test_layering_simple_chain():
    g = build(3, [(0, 1, 1, 1, 0), (1, 2, 1, 1, 0)])
    assert compute_layering(Instance(g, 0, 2, 1)) == {0: 1, 1: 2, 2: 3}


def test_layering_ignores_pruned_nodes():
    # arc 3 -> 2 would break the layering but 3 is not on any 0-2 path
    g = build(4, [(0, 1, 1, 1, 0), (1, 2, 1, 1, 0), (3, 2, 1, 1, 0)])
    layer = compute_layering(Instance(g, 0, 2, 1))
    assert layer == {0: 1, 1: 2, 2: 3}


def test_layering_conflict_raises():
    # both a two-arc and a direct route to the sink
    g = build(3, [(0, 1, 1, 1, 0), (1, 2, 1, 1, 0), (0, 2, 1, 1, 0)])
    with pytest.raises(NotLayeredError):
        compute_layering(Instance(g, 0, 2, 1))


def _layering_reference(instance):
    """compute_layering as it was: layers assigned along out-arcs in
    topological order, each checked where it is met again."""
    graph, on = instance.graph, instance.on_path
    layer = {instance.source: 1}
    for v in graph.order[graph.order.index(instance.source):]:
        if not on[v]:
            continue
        for a in graph.out_arcs(v):
            h = graph.head[a]
            if not on[h]:
                continue
            if h in layer:
                if layer[h] != layer[v] + 1:
                    raise NotLayeredError(f"arc {a}")
            else:
                layer[h] = layer[v] + 1
    return layer


def test_layering_gives_the_verdict_and_map_of_the_layer_by_layer_pass():
    rng = SplitMix64(1234)
    verdicts = set()
    for trial in range(400):
        # nodes 0..n-1 in layers of random width; the sink is node n - 1
        n = rng.randint(3, 12)
        cuts = sorted({0, n - 1} | {rng.randint(1, n - 2) for _ in range(rng.randint(0, n))})
        layers = [list(range(a, b)) for a, b in zip(cuts, cuts[1:])] + [[n - 1]]
        rows = [(u, after[rng.randint(0, len(after) - 1)], 1, 1, 0)
                for here, after in zip(layers, layers[1:]) for u in here]
        for _ in range(rng.randint(0, 2)):  # arcs that may skip layers
            tail = rng.randint(0, n - 2)
            rows.append((tail, rng.randint(tail + 1, n - 1), 1, 1, 0))
        # a stub off every 0 -> n - 1 path: from the path into n, and n + 1 -> n
        stub_tail = rng.randint(0, n - 2)
        rows += [(stub_tail, n, 1, 1, 0), (n + 1, n, 1, 1, 0), (n + 1, n - 1, 1, 1, 0)]
        g = build(n + 2, rows)
        inst = Instance(g, 0, n - 1, 1)
        try:
            want = _layering_reference(inst)
        except NotLayeredError:
            with pytest.raises(NotLayeredError):
                compute_layering(inst)
            verdicts.add("not layered")
            continue
        assert compute_layering(inst) == want
        verdicts.add("layered")
    assert verdicts == {"layered", "not layered"}


def _layering_loop(instance):
    """compute_layering as an arc-by-arc loop over the hop counts."""
    graph, on, hops = instance.graph, instance.on_path, instance.hops
    for a, (t, h) in enumerate(zip(graph.tail, graph.head)):
        if on[t] and on[h] and hops[h] != hops[t] + 1:
            raise NotLayeredError(
                f"arc {a} spans layers {hops[t] + 1}->{hops[h] + 1}, expected {hops[t] + 2}"
            )
    return {v: hops[v] + 1 for v in graph.order if on[v]}


def test_layering_gives_the_error_text_and_map_of_the_arc_loop():
    rng = SplitMix64(4321)
    verdicts = set()
    for trial in range(400):
        n = rng.randint(3, 10)
        if trial % 2:
            g = random_dag(rng, n, rng.randint(n - 1, 2 * n))
            rows = list(zip(g.tail, g.head, g.first, g.nominal, g.deviation))
        else:  # layers of random width, each node joined to the next layer
            cuts = sorted({0, n - 1} | {rng.randint(1, n - 2) for _ in range(rng.randint(0, n))})
            layers = [list(range(a, b)) for a, b in zip(cuts, cuts[1:])] + [[n - 1]]
            rows = [(u, after[rng.randint(0, len(after) - 1)], 1, 1, 0)
                    for here, after in zip(layers, layers[1:]) for u in here]
            for _ in range(rng.randint(0, 2)):  # arcs that may skip layers
                tail = rng.randint(0, n - 2)
                rows.append((tail, rng.randint(tail + 1, n - 1), 1, 1, 0))
        # stubs off every 0 -> n - 1 path, skipping layers: into n, and out of n + 1
        stub_tail = rng.randint(0, n - 2)
        rows += [(stub_tail, n, 1, 1, 0), (0, n, 1, 1, 0), (n + 1, n - 1, 1, 1, 0)]
        order = sorted(range(len(rows)), key=lambda _: rng.randint(0, 1 << 30))
        inst = Instance(build(n + 2, [rows[i] for i in order]), 0, n - 1, 1)
        try:
            want = _layering_loop(inst)
        except NotLayeredError as err:
            with pytest.raises(NotLayeredError) as got:
                compute_layering(inst)
            assert str(got.value) == str(err)
            verdicts.add("not layered")
            continue
        assert compute_layering(inst) == want
        verdicts.add("layered")
    assert verdicts == {"layered", "not layered"}


def test_dag_shortest_paths_with_negative_costs():
    g = build(4, [(0, 1, 4, 0, 0), (0, 2, 1, 0, 0), (2, 1, -3, 0, 0),
                  (1, 3, 2, 0, 0)])
    dist = dag_shortest_paths(g, g.first, 0)
    assert dist == [0, -2, 1, 0]
    assert shortest_path(g, g.first, dist, 0, 3) == (1, 2, 3)


def test_dag_shortest_paths_unreachable_is_inf():
    g = build(3, [(1, 2, 1, 1, 0)])
    dist = dag_shortest_paths(g, g.first, 0)
    assert dist[1] is INF and dist[2] is INF
    assert shortest_path(g, g.first, dist, 0, 2) is None


def _full_sweep(g, cost, source):
    """Shortest paths reading the in-arcs of every node after the source,
    with the parent arc of each: the smallest id among the best in-arcs."""
    dist, parent = [INF] * g.node_count, [None] * g.node_count
    dist[source] = 0
    for v in g.order[g.order.index(source) + 1:]:
        for a in g.in_arcs(v):
            d = dist[g.tail[a]] + cost[a]
            if d < dist[v]:
                dist[v], parent[v] = d, a
    return dist, parent


def _walk(g, parent, source, target):
    """The arc path source->target along a parent-arc array, None if unreachable."""
    if target != source and parent[target] is None:
        return None
    arcs = []
    while target != source:
        arcs.append(parent[target])
        target = g.tail[parent[target]]
    return tuple(reversed(arcs))


def test_dag_shortest_paths_from_every_source_match_a_full_sweep():
    rng = SplitMix64(77)
    for trial in range(40):
        n = rng.randint(3, 9)
        rows = []
        for _ in range(rng.randint(1, 16)):
            tail = rng.randint(0, n - 2)
            rows.append((tail, rng.randint(tail + 1, n - 1), rng.randint(-5, 5), 0, 0))
        g = build(n, rows)
        for source in range(n):
            for cost in (g.first, g.upper, g.combined):
                want, parent = _full_sweep(g, cost, source)
                dist = dag_shortest_paths(g, cost, source)
                assert dist == want
                for v in range(n):
                    assert shortest_path(g, cost, dist, source, v) == _walk(g, parent, source, v)
                # stopped on reaching ``until``: final up to it in topological order
                for until in g.order[g.order.index(source):]:
                    dist = dag_shortest_paths(g, cost, source, until=until)
                    done = g.order[:g.order.index(until) + 1]
                    assert [dist[v] for v in done] == [want[v] for v in done]
                    for v in done:
                        got = shortest_path(g, cost, dist, source, v)
                        assert got == _walk(g, parent, source, v)


def test_dag_shortest_paths_reads_only_reached_nodes(count_reads):
    # two disjoint 512-arc paths; the second follows the first in
    # topological order and no node of it is reachable from the first;
    # longest_hops pushes along the reached nodes the same way
    m = 512
    rows = [(v, v + 1, 1, 0, 0) for v in range(m)]
    rows += [(v, v + 1, 1, 0, 0) for v in range(m + 1, 2 * m + 1)]
    g = build(2 * m + 2, rows)
    source = m - 10
    want, parent = _full_sweep(g, g.first, source)
    calls = count_reads(g, "_in", "_out")
    dist = dag_shortest_paths(g, g.first, source)
    assert dist == want
    assert dist[m] == 10 and dist[m + 1] is INF
    assert calls[0] <= 11  # the full sweep reads the in-arcs of 523 nodes
    assert shortest_path(g, g.first, dist, source, m) == _walk(g, parent, source, m)
    calls[0] = 0
    hops = longest_hops(g, source)
    assert hops == [v - source if source <= v <= m else -1 for v in range(2 * m + 2)]
    assert calls[0] <= 11


def test_hop_table_reads_the_in_arcs_of_nodes_in_reach_only(count_reads):
    # along a 512-arc path the table from 0 with 50 hops reads the
    # out-arcs of nodes 0 to 49, and the arcs of no node after them; the
    # topological sort, which reads every node's out-arcs once, is made
    # before counting
    g = build(513, [(v, v + 1, 1, 0, 0) for v in range(512)])
    g.order
    calls = count_reads(g, "_in", "_out")
    table = HopBoundedTable(g, g.upper, 0, 50)
    assert calls[0] == 50
    assert table.reached == list(range(1, 51))


def test_hop_table_until_reads_only_up_to_the_target(count_reads):
    # a 512-step path with two parallel arcs a step; the table from 20
    # stops at 30 and reads back the same paths as the full table
    m = 512
    rows = []
    for v in range(m):
        rows += [(v, v + 1, 0, v % 5, 1), (v, v + 1, 0, v % 3, 2)]
    g = build(m + 1, rows)
    full = HopBoundedTable(g, g.upper, 20, 40)
    calls = count_reads(g, "_in", "_out")
    table = HopBoundedTable(g, g.upper, 20, 40, until=30)
    assert calls[0] == 10  # the full table reads the out-arcs of 40 nodes
    assert table.reached == full.reached[:10]
    for v in range(31):
        for l in range(41):
            assert table.dist[v][l] == full.dist[v][l]
            assert table.path_to(v, l) == full.path_to(v, l)


def test_dag_shortest_paths_matches_enumeration():
    from recsp.oracle import enumerate_st_paths

    rng = SplitMix64(2024)
    for trial in range(60):
        n = rng.randint(3, 8)
        g = random_dag(rng, n, rng.randint(n, 14))
        for cost in (g.first, g.upper, g.combined):
            dist = dag_shortest_paths(g, cost, 0)
            for v in range(1, n):
                paths = enumerate_st_paths(g, 0, v)
                if not paths:
                    assert dist[v] is INF
                    continue
                want = min(path_cost(cost, p) for p in paths)
                assert dist[v] == want
                got = shortest_path(g, cost, dist, 0, v)
                assert path_cost(cost, got) == want
                assert path_error(g, got, 0, v) is None


def test_hop_table_matches_enumeration():
    from recsp.oracle import enumerate_st_paths

    rng = SplitMix64(77)
    for trial in range(40):
        n = rng.randint(3, 7)
        g = random_dag(rng, n, rng.randint(n, 12))
        max_hops = rng.randint(1, 4)
        table = HopBoundedTable(g, g.upper, 0, max_hops)
        for v in range(1, n):
            paths = enumerate_st_paths(g, 0, v)
            for l in range(max_hops + 1):
                fitting = [p for p in paths if len(p) <= l]
                if not fitting:
                    assert table.dist[v][l] is INF
                    assert table.path_to(v, l) is None
                    continue
                want = min(path_cost(g.upper, p) for p in fitting)
                assert table.dist[v][l] == want
                got = table.path_to(v, l)
                assert len(got) <= l
                assert path_cost(g.upper, got) == want


class _BackpointerTable:
    """The hop-indexed table as it was built with backpointers, kept to
    pin the paths ``HopBoundedTable.path_to`` reads back from distances."""

    _CARRY = -1
    _NONE = -2

    def __init__(self, graph, cost, source, max_hops):
        tail, head = graph.tail, graph.head
        self.graph = graph
        width = max_hops + 1
        carry, none = self._CARRY, self._NONE
        unreached = [INF] * width
        dist = [unreached] * graph.node_count
        back = [None] * graph.node_count
        dist[source] = [0] * width
        back[source] = [none] + [carry] * max_hops
        marked = [False] * graph.node_count
        for a in graph.out_arcs(source):
            marked[head[a]] = True
        for v in graph.order[graph.order.index(source) + 1:]:
            if not marked[v]:
                continue
            row = [INF] * width
            bp = [none] * width
            for a in graph.in_arcs(v):
                src = dist[tail[a]]
                if src is unreached:
                    continue
                c = cost[a]
                for l in range(1, width):
                    d = src[l - 1]
                    if d is not INF and d + c < row[l]:
                        row[l] = d + c
                        bp[l] = a
            if row[max_hops] is INF:
                continue
            for l in range(1, width):
                d = row[l - 1]
                if d is not INF and d <= row[l]:
                    row[l] = d
                    bp[l] = carry
            dist[v] = row
            back[v] = bp
            for a in graph.out_arcs(v):
                marked[head[a]] = True
        self.dist = dist
        self._back = back

    def path_to(self, v, l):
        if self.dist[v][l] is INF:
            return None
        arcs = []
        while True:
            bp = self._back[v][l]
            if bp == self._NONE:
                break
            if bp == self._CARRY:
                l -= 1
                continue
            arcs.append(bp)
            v = self.graph.tail[bp]
            l -= 1
        arcs.reverse()
        return tuple(arcs)


def test_hop_table_paths_match_the_backpointer_table():
    # few distinct costs and many parallel arcs: ties in cost and in hops;
    # a table stopped at ``until`` agrees with the full one up to it
    rng = SplitMix64(4242)
    queries = cut_queries = 0
    for trial in range(300):
        n = rng.randint(2, 8)
        rows = []
        for _ in range(rng.randint(1, 20)):
            tail = rng.randint(0, n - 2)
            head = rng.randint(tail + 1, n - 1)
            rows += [(tail, head, 0, rng.randint(-2, 2), rng.randint(0, 1))] * rng.randint(1, 2)
        g = build(n, rows)
        max_hops = rng.randint(0, n)
        for source in range(n):
            for cost in (g.first, g.upper, g.combined):
                table = HopBoundedTable(g, cost, source, max_hops)
                want = _BackpointerTable(g, cost, source, max_hops)
                assert table.dist == want.dist
                for v in range(n):
                    for l in range(max_hops + 1):
                        assert table.path_to(v, l) == want.path_to(v, l)
                        queries += 1
                for until in g.order[g.order.index(source):]:
                    stop = g.order.index(until) + 1
                    cut = HopBoundedTable(g, cost, source, max_hops, until=until)
                    assert cut.reached == [v for v in table.reached if g.order.index(v) < stop]
                    for v in g.order[:stop]:
                        assert cut.dist[v] == table.dist[v]
                        for l in range(max_hops + 1):
                            assert cut.path_to(v, l) == table.path_to(v, l)
                            cut_queries += 1
    assert queries > 100_000 and cut_queries > 100_000


def test_hop_table_values_nonincreasing_in_allowance():
    rng = SplitMix64(5150)
    for trial in range(30):
        n = rng.randint(3, 7)
        g = random_dag(rng, n, rng.randint(n, 12))
        table = HopBoundedTable(g, g.upper, 0, 5)
        for v in range(n):
            for l in range(1, 6):
                assert table.dist[v][l] <= table.dist[v][l - 1]


def test_path_error_cases():
    g = build(4, [(0, 1, 1, 1, 0), (1, 2, 1, 1, 0), (2, 3, 1, 1, 0), (0, 2, 1, 1, 0)])
    assert path_error(g, (0, 1, 2), 0, 3) is None
    assert "empty" in path_error(g, (), 0, 3)
    assert "out of range" in path_error(g, (9,), 0, 3)
    assert "not at source" in path_error(g, (1, 2), 0, 3)
    assert "previous arc ended" in path_error(g, (0, 2), 0, 3)
    assert "not at sink" in path_error(g, (0, 1), 0, 3)


def test_path_error_rejects_repeated_node():
    g = build(3, [(0, 1, 1, 1, 0), (1, 2, 1, 1, 0), (2, 0, 1, 1, 0)])
    # the walk 0 -> 1 -> 2 -> 0 revisits node 0
    assert "repeated" in path_error(g, (0, 1, 2), 0, 0)


def test_divergence_count_is_arc_identity_based():
    assert divergence_count((1, 2, 3), (3, 4)) == 2
    assert divergence_count((1, 2), (1, 2)) == 0
    # parallel arcs with equal costs still count as different identities
    assert divergence_count((5,), (6,)) == 1


def build_from_arrays(n, rows):
    """The graph of ``rows`` given as int64 arrays, as the byte scan gives it."""
    return MultiDigraph(n, *np.array(rows, dtype=np.int64).reshape(-1, 5).T)


def test_array_columns_are_checked_like_lists():
    rows = [(0, 1, 1, 1, 0)] * 9
    faults = [(4, {}), (0, {}), (4, {5: (1, 2, 1, 1, -1)}), (4, {7: (3, 3, 1, 1, 0)}),
              (0, {7: (3, 3, 1, 1, 0)}), (4, {5: (1, 1, 1, 1, -1), 7: (3, 3, 1, 1, 0)})]
    faults += [(4, {2: (t, h, 1, 1, 0), 6: (2, 2, 1, 1, 0)}) for t, h in ((0, 9), (4, 1), (-1, 1))]
    faults += [(4, {2: (t, h, 1, 1, 0)}) for t, h in ((0, 9), (0, 4), (4, 1), (-1, 1), (0, -1))]
    for n, changes in faults:
        faulty = [changes.get(i, row) for i, row in enumerate(rows)]
        outcomes = []
        for make in (build, build_from_arrays):
            try:
                outcomes.append(make(n, faulty))
            except ValidationError as err:
                outcomes.append(str(err))
        assert outcomes[0] == outcomes[1]
    with pytest.raises(ValidationError, match=r"^arc columns differ in length$"):
        MultiDigraph(2, *np.ones((4, 1), dtype=np.int64), np.ones(2, dtype=np.int64))


def test_array_columns_become_lists_on_first_read():
    rows = [(0, 1, 5, 3, 2), (1, 2, -1, 0, 4), (0, 2, 7, -3, 0)]
    g = build_from_arrays(3, rows)
    assert g.stage_costs((0, 1), (2,)) == (4, -3)
    assert not {"first", "nominal", "deviation", "upper", "combined"} & set(g.__dict__)
    assert g == build(3, rows)
    assert g.upper == [5, 4, -3] and g.combined == [10, 3, 4]
    assert type(g.first) is list and all(type(c) is int for c in g.first + g.tail)
    assert g.costs.tolist() == [[5, -1, 7], [5, 4, -3], [10, 3, 4]]


@pytest.mark.parametrize("make", [build, build_from_arrays])
def test_int64_costs_saturate_from_the_exact_values(make):
    top, bottom = (1 << 63) - 1, -(1 << 63)
    rows = [(0, 1, bottom, top, top), (0, 1, top, bottom, 0), (0, 1, bottom, top, 0),
            (0, 1, SATURATE, -SATURATE, 3), (0, 1, 1 - SATURATE, 2, SATURATE - 3)]
    g = make(2, rows)
    assert g.stage_costs((0,), (0,)) == (bottom, 2 * top)
    assert g.upper == [2 * top, bottom, top, 3 - SATURATE, SATURATE - 1]
    assert g.combined == [top - 1, top + bottom, -1, 3, 0]
    assert g.costs.tolist() == [[max(-SATURATE, min(c, SATURATE)) for c in column]
                                for column in (g.first, g.upper, g.combined)]
    assert [end.tolist() for end in g.ends] == [[0] * 5, [1] * 5]


@st.composite
def multigraphs(draw):
    """(n, rows): arcs between random distinct nodes, parallels and
    isolated nodes allowed, not necessarily acyclic."""
    n = draw(st.integers(2, 8))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    ends = draw(st.lists(pairs, max_size=14))
    if ends and draw(st.booleans()):
        ends += [ends[0]] * draw(st.integers(1, 2))  # parallel arcs
    return n, [(t, h, draw(st.integers(-5, 5)), 1, 0) for t, h in ends]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(multigraphs())
@example((1, []))
@example((3, []))
@example((3, [(2, 0, 4, 1, 0)]))
def test_csr_lists_each_node_s_arcs_in_ascending_id_order(drawn):
    n, rows = drawn
    for make in (build, build_from_arrays):
        g = make(n, rows)
        assert g.tail == [r[0] for r in rows] and g.head == [r[1] for r in rows]
        for v in range(n):
            assert g.out_arcs(v) == tuple(a for a, r in enumerate(rows) if r[0] == v)
            assert g.in_arcs(v) == tuple(a for a, r in enumerate(rows) if r[1] == v)
            assert all(type(a) is int for a in g.out_arcs(v) + g.in_arcs(v))


def _heap_order(graph):
    """topological_order as it was: its own in-degree count, then the heap
    loop over each node's out-arcs."""
    indeg = [0] * graph.node_count
    for h in graph.head:
        indeg[h] += 1
    ready = [v for v in range(graph.node_count) if indeg[v] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for a in graph.out_arcs(v):
            indeg[graph.head[a]] -= 1
            if indeg[graph.head[a]] == 0:
                heapq.heappush(ready, graph.head[a])
    return order


def _reached(graph, start, step):
    """Nodes reached from ``start`` by repeated ``step(v)``, brute force."""
    seen = {start}
    while True:
        more = {w for v in seen for w in step(v)} - seen
        if not more:
            return seen
        seen |= more


@st.composite
def dags(draw):
    """(n, rows, source): arcs forward in a shuffled node order, parallels,
    isolated nodes and nodes above the source allowed."""
    n = draw(st.integers(1, 9))
    label = draw(st.permutations(range(n)))
    rows = []
    for _ in range(draw(st.integers(0, 16)) if n > 1 else 0):
        a = draw(st.integers(0, n - 2))
        b = draw(st.integers(a + 1, n - 1))
        rows += [(label[a], label[b], draw(st.integers(-5, 5)), 1, 0)] * draw(st.integers(1, 2))
    return n, rows, draw(st.integers(0, n - 1))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(dags())
def test_sweep_gives_the_heap_order_and_the_longest_hops(drawn):
    n, rows, source = drawn
    for make in (build, build_from_arrays):
        g = make(n, rows)
        order, hops = topological_order(g, source)
        assert order == _heap_order(g)
        assert hops == longest_hops(g, source)
        assert topological_order(g) == (order, [-1] * n)
        reach = _reached(g, source, lambda v: [g.head[a] for a in g.out_arcs(v)])
        for sink in sorted(reach - {source}):
            inst = Instance(make(n, rows), source, sink, 0)
            assert inst.graph.order == tuple(order)
            assert inst.hops == hops
            back = _reached(g, sink, lambda v: [g.tail[a] for a in g.in_arcs(v)])
            assert inst.on_path == [v in reach and v in back for v in range(n)]


@pytest.mark.parametrize("make", [build, build_from_arrays])
@pytest.mark.parametrize("ends, sink, on, searched", [
    # the sink's out-arc leads on to 3, a dead end off every path
    ([(0, 1), (1, 2), (0, 2), (2, 3)], 2, [1, 1, 1, 0], True),
    # 1 -> 3 leaves the path and 3 leads nowhere
    ([(0, 1), (1, 2), (1, 3), (0, 2)], 2, [1, 1, 1, 0], True),
    # 4 is a dead end and 5 isolated, but the source reaches neither
    ([(0, 1), (1, 2), (3, 1), (3, 4), (0, 2)], 2, [1, 1, 1, 0, 0, 0], False),
], ids=["sink with out-arcs", "dead end off the paths", "unreached dead ends"])
def test_on_path_searches_back_only_past_a_reached_dead_end(monkeypatch, make, ends, sink, on,
                                                            searched):
    searches = []

    def searching(*args):
        searches.append(args[1])
        return _sweep_back(*args)

    monkeypatch.setattr("recsp.graph._sweep_back", searching)
    g = make(len(on), [(t, h, 1, 1, 0) for t, h in ends])
    inst = Instance(g, 0, sink, 1)
    assert inst.on_path == list(map(bool, on))
    assert searches == ([sink] if searched else [])
    assert inst.on_path == _sweep_back(g, sink, inst.hops)


def test_on_path_memory_follows_the_mask():
    # a short text declaring 200,000 nodes, all but the source without an
    # out-arc: the mask's list of n entries is the only thing sized by n
    # that the test may build, not a list of the nodes with no out-arc
    n = 200_000
    text = f"p recsp {n} 1 0 1 1\na 0 1 1 1 0\n"
    assert len(text) < 64
    inst = parse_instance(text)
    tracemalloc.start()
    try:
        on = inst.on_path
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert on[:2] == [True, True] and not any(on[2:])
    assert peak <= 1.25 * 8 * n + (1 << 20)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(dags())
@example((4, [(0, 1, 1, 1, 0), (1, 2, 1, 1, 0), (0, 2, 1, 1, 0), (1, 3, 1, 1, 0)], 0))
def test_on_path_and_asp_past_a_dead_end_leave_the_in_arcs_unordered(drawn):
    # one more arc leads from the source to a new node with no out-arc, so
    # the sort's hop counts do not settle the mask; only reading a path
    # back orders the in-arc ids, and neither the mask nor asp does that
    n, rows, source = drawn
    rows = rows + [(source, n, 1, 1, 0)]
    n += 1
    for make in (build, build_from_arrays):
        g = make(n, rows)
        reach = _reached(g, source, lambda v: [g.head[a] for a in g.out_arcs(v)])
        for sink in sorted(reach - {source, n - 1}):
            inst = Instance(make(n, rows), source, sink, 1)
            back = _reached(g, sink, lambda v: [g.tail[a] for a in g.in_arcs(v)])
            assert inst.on_path == [v in reach and v in back for v in range(n)]
            assert "_in" not in inst.graph.__dict__
            try:
                solve(inst, "asp")
            except RecspError:
                pass
            assert "_in" not in inst.graph.__dict__


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(dags())
def test_in_arcs_are_ordered_on_first_read_alike_in_both_forms(drawn):
    # the sort takes its in-degrees from the offsets alone
    n, rows, source = drawn
    graphs = [make(n, rows) for make in (build, build_from_arrays)]
    for g in graphs:
        assert g.order == tuple(_heap_order(g))
        assert "_in" not in g.__dict__
    lists, arrays = ([g.in_arcs(v) for v in range(n)] for g in graphs)
    assert lists == arrays
    assert all(type(a) is int for arcs in arrays for a in arcs)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(dags(), st.integers(2, 3), st.booleans())
def test_a_cycle_off_every_path_is_rejected(drawn, length, entered):
    # a cycle on new nodes, left alone or entered from the source: off
    # every path to the sink either way
    n, rows, source = drawn
    cycle = list(range(n + 1, n + 1 + length))
    rows = rows + [(source, n, 1, 1, 0)]
    rows += [(v, w, 1, 1, 0) for v, w in zip(cycle, cycle[1:] + cycle[:1])]
    if entered:
        rows.append((n, cycle[0], 1, 1, 0))
    for make in (build, build_from_arrays):
        with pytest.raises(CyclicGraphError):
            Instance(make(n + 1 + length, rows), source, n, 0)
        with pytest.raises(CyclicGraphError):
            topological_order(make(n + 1 + length, rows), source)
