import time

import pytest

from recsp.errors import ConfigError, TooManyPathsError
from recsp.generator import SplitMix64, generate_instance
from recsp.graph import Instance, MultiDigraph, dag_shortest_paths
from recsp.oracle import bruteforce_root_values, enumerate_st_paths, solve_bruteforce
from recsp.solution import verify_solution


def random_dag(rng, min_nodes=3, max_nodes=7, k=None, max_k=3):
    # Redraw every parameter on rejection: a fixed bad combination (say k
    # too large for the node count) would otherwise never become feasible.
    while True:
        n = rng.randint(min_nodes, max_nodes)
        budget = rng.randint(0, min(max_k, n - 1)) if k is None else k
        try:
            return generate_instance("dag", rng.randint(0, 10**9), nodes=n,
                                     arcs=rng.randint(n, 12), k=budget)
        except ConfigError:
            continue


def test_enumerate_counts_and_order():
    diamond = MultiDigraph.from_rows(4, [
        (0, 1, 1, 1, 0), (1, 3, 1, 1, 0), (0, 2, 1, 1, 0), (2, 3, 1, 1, 0),
    ])
    assert enumerate_st_paths(diamond, 0, 3) == [(0, 1), (2, 3)]

    fan = MultiDigraph.from_rows(2, [(0, 1, 1, 1, 0)] * 5)
    assert enumerate_st_paths(fan, 0, 1) == [(0,), (1,), (2,), (3,), (4,)]

    bridge = MultiDigraph.from_rows(4, [
        (0, 1, 1, 1, 0), (0, 2, 1, 1, 0), (1, 2, 1, 1, 0),
        (1, 3, 1, 1, 0), (2, 3, 1, 1, 0),
    ])
    assert enumerate_st_paths(bridge, 0, 3) == [(0, 2, 4), (0, 3), (1, 4)]


def test_enumerate_no_paths():
    g = MultiDigraph.from_rows(3, [(0, 1, 1, 1, 0), (2, 1, 1, 1, 0)])
    assert enumerate_st_paths(g, 0, 2) == []


def test_enumerate_limit():
    fan = MultiDigraph.from_rows(2, [(0, 1, 1, 1, 0)] * 6)
    with pytest.raises(TooManyPathsError):
        enumerate_st_paths(fan, 0, 1, limit=5)
    assert len(enumerate_st_paths(fan, 0, 1, limit=6)) == 6


def test_the_default_cap_stops_the_pair_loops_at_once():
    # 16 two-arc gaps give 65,536 paths; uncapped, the pair loops over
    # them would run for about half an hour
    rows = [(gap, gap + 1, 1, 1, 0) for gap in range(16) for _ in range(2)]
    inst = Instance(MultiDigraph.from_rows(17, rows), 0, 16, 1)
    for run in (solve_bruteforce, bruteforce_root_values):
        start = time.perf_counter()
        with pytest.raises(TooManyPathsError, match="more than 2048"):
            run(inst)
        assert time.perf_counter() - start < 1


def test_bruteforce_on_frozen_micro_instances():
    g = MultiDigraph.from_rows(2, [(0, 1, 5, 1, 1), (0, 1, 1, 10, 0)])
    assert solve_bruteforce(Instance(g, 0, 1, 1)).total_cost == 3
    assert solve_bruteforce(Instance(g, 0, 1, 0)).total_cost == 7

    diamond = MultiDigraph.from_rows(4, [
        (0, 1, 0, 10, 0), (1, 3, 0, 10, 0),
        (0, 2, 10, 0, 0), (2, 3, 10, 0, 0),
    ])
    assert solve_bruteforce(Instance(diamond, 0, 3, 2)).total_cost == 0
    assert solve_bruteforce(Instance(diamond, 0, 3, 1)).total_cost == 20


def test_bruteforce_zero_budget_is_combined_shortest_path():
    rng = SplitMix64(1789)
    for trial in range(40):
        inst = random_dag(rng, k=0)
        dist = dag_shortest_paths(inst.graph, inst.graph.combined, inst.source)
        sol = solve_bruteforce(inst)
        assert sol.total_cost == dist[inst.sink]
        assert sol.x_arcs == sol.y_arcs
        assert sol.divergence == 0


def test_bruteforce_output_is_verifiable():
    rng = SplitMix64(1848)
    for trial in range(40):
        inst = random_dag(rng)
        sol = solve_bruteforce(inst)
        assert verify_solution(inst, sol).accepted
        assert sol.divergence <= inst.k


def test_bruteforce_monotone_in_budget():
    import dataclasses

    rng = SplitMix64(1918)
    for trial in range(30):
        inst = random_dag(rng, min_nodes=5, k=0)
        n = inst.graph.node_count
        prev = None
        for k in range(0, n - 1):
            total = solve_bruteforce(dataclasses.replace(inst, k=k)).total_cost
            assert prev is None or total <= prev
            prev = total
