"""Acceptance suite: one test per criterion, run with ``pytest -v``.

Each test name is the pass/fail line for its criterion.  All comparisons
are exact integer equality; timed criteria assert against wall-clock
budgets.
"""
import dataclasses
import time

import pytest

from recsp.asp import root_values, solve_asp
from recsp.dispatch import solve
from recsp.errors import ConfigError
from recsp.generator import SplitMix64, generate_instance
from recsp.graph import (
    Instance,
    MultiDigraph,
    dag_shortest_paths,
    divergence_count,
)
from recsp.oracle import bruteforce_root_values, enumerate_st_paths, solve_bruteforce
from recsp.reduction import solve_dag, solve_layered
from recsp.solution import verify_solution

FAMILY_SOLVERS = {"asp": solve_asp, "layered": solve_layered, "dag": solve_dag}


def small_instance(family, rng, k=None):
    """One oracle-scale instance: at most 8 nodes and 14 arcs.

    Every parameter is redrawn after a rejected draw; a fixed unsatisfiable
    combination (say, too few arcs for a layered layout) would otherwise
    stall the sweep forever.
    """
    while True:
        budget = rng.randint(1, 3) if k is None else k
        seed = rng.randint(0, 10**9)
        try:
            if family == "asp":
                inst = generate_instance(family, seed,
                                         arcs=rng.randint(1, 14), k=budget)
                if inst.graph.node_count > 8:
                    continue
                return inst
            n = rng.randint(4, 8)
            if family == "layered":
                return generate_instance(family, seed, nodes=n,
                                         arcs=rng.randint(n + 3, 14), k=budget,
                                         layers=rng.randint(3, min(4, n)))
            return generate_instance(family, seed, nodes=n,
                                     arcs=rng.randint(n + 2, 14), k=budget)
        except ConfigError:
            continue


def layered_instance(rng):
    """A layered instance above oracle scale, for solver cross-checks."""
    while True:
        n = rng.randint(5, 12)
        try:
            return generate_instance("layered", rng.randint(0, 10**9), nodes=n,
                                     arcs=rng.randint(n + 4, 30),
                                     k=rng.randint(1, 4),
                                     layers=rng.randint(3, min(5, n)))
        except ConfigError:
            continue


def test_c1_every_family_solver_matches_bruteforce_on_300_instances_each():
    start = time.perf_counter()
    for offset, (family, solver) in enumerate(FAMILY_SOLVERS.items()):
        rng = SplitMix64(0xC1 + offset)
        for trial in range(300):
            inst = small_instance(family, rng)
            assert solver(inst).total_cost == solve_bruteforce(inst).total_cost
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s, budget is 60s"


def test_c2_decomposition_and_layered_solvers_agree_with_general_solver():
    rng = SplitMix64(0xC2)
    for trial in range(300):
        inst = generate_instance("asp", rng.randint(0, 10**9),
                                 arcs=rng.randint(2, 40), k=rng.randint(1, 4))
        assert solve_asp(inst).total_cost == solve_dag(inst).total_cost
    for trial in range(300):
        inst = layered_instance(rng)
        assert solve_layered(inst).total_cost == solve_dag(inst).total_cost


def test_c3_zero_budget_collapses_to_combined_shortest_path_for_all_families():
    rng = SplitMix64(0xC3)
    for family in FAMILY_SOLVERS:
        for trial in range(100):
            inst = small_instance(family, rng, k=0)
            dist = dag_shortest_paths(inst.graph, inst.graph.combined, inst.source)
            want = dist[inst.sink]
            for method in ("auto", "asp", "layered", "dag", "oracle"):
                sol = solve(inst, method)
                assert sol.total_cost == want
                assert sol.x_arcs == sol.y_arcs
                assert sol.divergence == 0


def test_c4_worst_case_recovery_dominates_every_sampled_scenario():
    rng = SplitMix64(0xC4)
    violations = 0
    for trial in range(50):
        family = ("asp", "layered", "dag")[trial % 3]
        inst = small_instance(family, rng)
        sol = solve(inst)
        x_set = set(sol.x_arcs)
        paths = enumerate_st_paths(inst.graph, inst.source, inst.sink)
        neighborhood = [p for p in paths
                        if divergence_count(p, x_set) <= inst.k]
        worst_best = min(
            sum(inst.graph.arcs[a].upper_cost for a in p) for p in neighborhood
        )
        if worst_best != sol.second_cost:
            violations += 1
        for scenario in range(20):
            costs = [arc.nominal + rng.randint(0, arc.deviation)
                     for arc in inst.graph.arcs]
            best = min(sum(costs[a] for a in p) for p in neighborhood)
            if best > worst_best:
                violations += 1
    assert violations == 0


def test_c5_micro_regression_values_are_exact():
    pair = MultiDigraph.from_rows(2, [(0, 1, 5, 1, 1), (0, 1, 1, 10, 0)])
    diamond = MultiDigraph.from_rows(4, [
        (0, 1, 0, 10, 0), (1, 3, 0, 10, 0),
        (0, 2, 10, 0, 0), (2, 3, 10, 0, 0),
    ])
    cases = (
        (Instance(pair, 0, 1, 1), 3),
        (Instance(pair, 0, 1, 0), 7),
        (Instance(diamond, 0, 3, 2), 0),
        (Instance(diamond, 0, 3, 1), 20),
    )
    for inst, want in cases:
        assert solve_bruteforce(inst).total_cost == want
        assert solve(inst).total_cost == want
        if inst.k >= 1:
            assert solve_asp(inst).total_cost == want
            assert solve_layered(inst).total_cost == want
            assert solve_dag(inst).total_cost == want


def test_c6_root_arrays_match_bruteforce_on_100_instances_including_inf():
    rng = SplitMix64(0xC6)
    saw_inf = 0
    for trial in range(100):
        inst = generate_instance("asp", rng.randint(0, 10**9),
                                 arcs=rng.randint(1, 8), k=rng.randint(1, 3))
        mine = root_values(inst)
        brute = bruteforce_root_values(inst)
        assert mine == brute
        if any(v == float("inf") for v in mine.upper + mine.opt):
            saw_inf += 1
    assert saw_inf > 0, "sweep never exercised an unreachable entry"


def test_c7_verifier_accepts_all_solver_output_and_rejects_all_mutations():
    rng = SplitMix64(0xC7)
    accepted = rejected = mutations = over_budget_cases = 0
    for trial in range(100):
        family = ("asp", "layered", "dag")[trial % 3]
        inst = small_instance(family, rng)
        sol = FAMILY_SOLVERS[family](inst)
        if verify_solution(inst, sol).accepted:
            accepted += 1
        mutated = [
            dataclasses.replace(sol, total_cost=sol.total_cost + 1),
            dataclasses.replace(sol, total_cost=sol.total_cost - 1),
            dataclasses.replace(sol, first_cost=sol.first_cost + 1),
            dataclasses.replace(sol, second_cost=sol.second_cost - 1),
            dataclasses.replace(sol, divergence=sol.divergence + 1),
        ]
        x_set = set(sol.x_arcs)
        over = next(
            (p for p in enumerate_st_paths(inst.graph, inst.source, inst.sink)
             if divergence_count(p, x_set) > inst.k),
            None,
        )
        if over is not None:
            # a recovery path over budget, with every cost field consistent
            over_budget_cases += 1
            second = sum(inst.graph.arcs[a].upper_cost for a in over)
            mutated.append(dataclasses.replace(
                sol, y_arcs=over, second_cost=second,
                total_cost=sol.first_cost + second,
                divergence=divergence_count(over, x_set),
            ))
        for bad in mutated:
            mutations += 1
            if not verify_solution(inst, bad).accepted:
                rejected += 1
    assert accepted == 100
    assert rejected == mutations
    assert over_budget_cases >= 10


def test_c8_decomposition_solver_scales_to_100k_arcs_within_budget():
    base = generate_instance("asp", 0xC8, arcs=100_000, k=50)
    start = time.perf_counter()
    sol = solve_asp(base)
    base_time = time.perf_counter() - start
    assert verify_solution(base, sol).accepted
    assert base_time < 10.0, f"100k-arc solve took {base_time:.2f}s, budget is 10s"

    doubled = generate_instance("asp", 0xC8, arcs=200_000, k=50)
    start = time.perf_counter()
    sol = solve_asp(doubled)
    doubled_time = time.perf_counter() - start
    assert verify_solution(doubled, sol).accepted
    ratio = doubled_time / base_time
    assert ratio <= 3.0, f"doubling arcs scaled time by {ratio:.2f}, budget is 3x"


def test_c9_total_cost_is_nonincreasing_in_the_recovery_budget():
    rng = SplitMix64(0xC9)
    checked = 0
    while checked < 100:
        family = ("asp", "layered", "dag")[checked % 3]
        inst = small_instance(family, rng, k=1)
        if inst.graph.node_count <= 4:
            continue
        checked += 1
        previous = None
        for k in range(0, 5):
            total = solve(dataclasses.replace(inst, k=k)).total_cost
            assert previous is None or total <= previous, (
                f"budget {k} raised the total from {previous} to {total}"
            )
            previous = total
