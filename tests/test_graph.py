import pytest

from recsp.errors import CyclicGraphError, NotLayeredError, ValidationError
from recsp.graph import (
    INF,
    Arc,
    HopBoundedTable,
    Instance,
    MultiDigraph,
    compute_layering,
    dag_shortest_paths,
    divergence_count,
    longest_hops,
    on_st_path_mask,
    path_cost,
    path_error,
    reconstruct_path,
    topological_order,
)
from recsp.generator import SplitMix64


def build(n, rows):
    return MultiDigraph.from_rows(n, rows)


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
    g = build(4, [(0, 3, 1, 1, 0), (1, 3, 1, 1, 0), (2, 3, 1, 1, 0)])
    assert topological_order(g) == [0, 1, 2, 3]


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
    assert on_st_path_mask(g, 0, 2) == [True, True, True, False, False]


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
    assert g.position == [1, 2, 0, 3]
    assert g.after(0) == (1, 3)


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


def test_dag_shortest_paths_with_negative_costs():
    g = build(4, [(0, 1, 4, 0, 0), (0, 2, 1, 0, 0), (2, 1, -3, 0, 0),
                  (1, 3, 2, 0, 0)])
    dist, parent = dag_shortest_paths(g, "first", 0)
    assert dist == [0, -2, 1, 0]
    assert reconstruct_path(g, parent, 0, 3) == (1, 2, 3)


def test_dag_shortest_paths_unreachable_is_inf():
    g = build(3, [(1, 2, 1, 1, 0)])
    dist, parent = dag_shortest_paths(g, "first", 0)
    assert dist[1] is INF and dist[2] is INF
    assert reconstruct_path(g, parent, 0, 2) is None


def _full_sweep(g, selector, source):
    """Shortest paths reading the in-arcs of every node after the source."""
    cost = g.column(selector)
    dist, parent = [INF] * g.node_count, [None] * g.node_count
    dist[source] = 0
    for v in g.after(source):
        for a in g.in_arcs(v):
            d = dist[g.tail[a]] + cost[a]
            if d < dist[v]:
                dist[v], parent[v] = d, a
    return dist, parent


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
            for selector in ("first", "upper", "combined"):
                want = _full_sweep(g, selector, source)
                assert dag_shortest_paths(g, selector, source) == want
                # stopped on reaching ``until``: final up to it in topological order
                for until in g.order[g.position[source]:]:
                    dist, parent = dag_shortest_paths(g, selector, source, until=until)
                    done = g.order[:g.position[until] + 1]
                    assert [dist[v] for v in done] == [want[0][v] for v in done]
                    assert [parent[v] for v in done] == [want[1][v] for v in done]


def test_dag_shortest_paths_reads_only_reached_nodes(monkeypatch):
    # two disjoint 512-arc paths; the second follows the first in
    # topological order and no node of it is reachable from the first
    calls = [0]

    def counting(original):
        def count(graph, v):
            calls[0] += 1
            return original(graph, v)
        return count

    m = 512
    rows = [(v, v + 1, 1, 0, 0) for v in range(m)]
    rows += [(v, v + 1, 1, 0, 0) for v in range(m + 1, 2 * m + 1)]
    g = build(2 * m + 2, rows)
    source = m - 10
    want = _full_sweep(g, "first", source)
    for name in ("in_arcs", "out_arcs"):
        monkeypatch.setattr(MultiDigraph, name, counting(getattr(MultiDigraph, name)))
    dist, parent = dag_shortest_paths(g, "first", source)
    assert (dist, parent) == want
    assert dist[m] == 10 and dist[m + 1] is INF
    assert calls[0] <= 11  # the full sweep reads the in-arcs of 523 nodes


def test_dag_shortest_paths_matches_enumeration():
    from recsp.oracle import enumerate_st_paths

    rng = SplitMix64(2024)
    for trial in range(60):
        n = rng.randint(3, 8)
        g = random_dag(rng, n, rng.randint(n, 14))
        for selector in ("first", "upper", "combined"):
            dist, parent = dag_shortest_paths(g, selector, 0)
            for v in range(1, n):
                paths = enumerate_st_paths(g, 0, v)
                if not paths:
                    assert dist[v] is INF
                    continue
                want = min(path_cost(g, p, selector) for p in paths)
                assert dist[v] == want
                got = reconstruct_path(g, parent, 0, v)
                assert path_cost(g, got, selector) == want
                assert path_error(g, got, 0, v) is None


def test_hop_table_matches_enumeration():
    from recsp.oracle import enumerate_st_paths

    rng = SplitMix64(77)
    for trial in range(40):
        n = rng.randint(3, 7)
        g = random_dag(rng, n, rng.randint(n, 12))
        max_hops = rng.randint(1, 4)
        table = HopBoundedTable(g, "upper", 0, max_hops)
        for v in range(1, n):
            paths = enumerate_st_paths(g, 0, v)
            for l in range(max_hops + 1):
                fitting = [p for p in paths if len(p) <= l]
                if not fitting:
                    assert table.dist[v][l] is INF
                    assert table.path_to(v, l) is None
                    continue
                want = min(path_cost(g, p, "upper") for p in fitting)
                assert table.dist[v][l] == want
                got = table.path_to(v, l)
                assert len(got) <= l
                assert path_cost(g, got, "upper") == want


def test_hop_table_values_nonincreasing_in_allowance():
    rng = SplitMix64(5150)
    for trial in range(30):
        n = rng.randint(3, 7)
        g = random_dag(rng, n, rng.randint(n, 12))
        table = HopBoundedTable(g, "upper", 0, 5)
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
