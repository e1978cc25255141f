"""Reduction-based solvers for layered and general acyclic instances.

Both solvers compile the two-stage problem into one budget-constrained
shortest path problem over the original node ids, with the recovery
budget as the time budget, and solve it with the kernel in ``csp``.  The
builders list transitions ``(tail, head, cost, time, arc)`` source by
source in the graph's topological order, as that kernel needs:

* a direct transition keeps one original arc ``arc`` in both stages: its
  cost is the cheapest combined two-stage cost among parallels, time 0;
* a pair transition (``arc`` None, time at least 1) replaces a whole
  stretch: its two stages follow separate shortest paths between the
  same endpoints, and its time bounds the arcs the recovery path uses
  that the first-stage path does not.

Only nodes on source-sink paths take part, and the budget is the
instance's effective k.  A pair transition records just its endpoints
and time; the stage paths it stands for are rebuilt, by sweeping again
from its tail, for the pair transitions on the optimum only.
"""
from __future__ import annotations

from .csp import solve_csp
from .errors import InfeasibleError
from .graph import (
    INF,
    HopBoundedTable,
    Instance,
    compute_layering,
    dag_shortest_paths,
    reconstruct_path,
)
from .solution import Solution, build_solution


def _direct(graph, on, i: int) -> list[tuple]:
    """The zero-time transitions out of ``i``: to each head on a
    source-sink path, the cheapest parallel, used in both stages."""
    head, combined = graph.head, graph.combined
    best: dict[int, int] = {}
    for a in graph.out_arcs(i):
        j = head[a]
        if on[j] and (j not in best or combined[a] < combined[best[j]]):
            best[j] = a
    return [(i, j, combined[a], 0, a) for j, a in best.items()]


def _window_costs(graph, by_layer, source: int, layers: range) -> dict[int, int]:
    """Cheapest first-stage plus cheapest recovery cost from ``source`` to
    every node it reaches within ``layers``, the layers after its own.

    In a layered graph every arc advances one layer, so sweeping the nodes
    layer by layer visits them in topological order.
    """
    tail, first, upper = graph.tail, graph.first, graph.upper
    dist_first = {source: 0}
    dist_upper = {source: 0}
    for h in layers:
        for v in by_layer[h]:
            best_first = best_upper = INF
            for a in graph.in_arcs(v):
                d = dist_first.get(tail[a])
                if d is None:
                    continue
                d += first[a]
                if d < best_first:
                    best_first = d
                d = dist_upper[tail[a]] + upper[a]
                if d < best_upper:
                    best_upper = d
            if best_first is not INF:
                dist_first[v] = best_first
                dist_upper[v] = best_upper
    del dist_first[source]
    return {v: d + dist_upper[v] for v, d in dist_first.items()}


def build_layered_reduction(instance: Instance) -> list[tuple]:
    """Transitions for a layered instance.

    Raises NotLayeredError (via the layering pass) when the graph, pruned
    to the nodes on source-sink paths, is not layered.  Pair transitions
    join every node pair whose layers differ by at most the budget, found
    by a sweep over only those layers.  A pair's time is the layer gap:
    split an optimal stage pair at the nodes both paths visit; between two
    consecutive such nodes the stages either share one arc (a direct
    transition) or the recovery stretch has no arc of the first-stage
    path, so it diverges by exactly the gap, as in ``build_dag_reduction``.
    """
    graph = instance.graph
    k = instance.effective_k
    on = instance.on_path
    layer = compute_layering(instance)
    last = layer[instance.sink]
    nodes = [v for v in graph.order if on[v]]
    by_layer: list[list[int]] = [[] for _ in range(last + 1)]
    for v in nodes:
        by_layer[layer[v]].append(v)
    transitions = []
    for i in nodes:
        transitions += _direct(graph, on, i)
        li = layer[i]
        costs = _window_costs(graph, by_layer, i, range(li + 1, min(li + k, last) + 1))
        transitions += [(i, j, c, layer[j] - li, None) for j, c in costs.items()]
    return transitions


def build_dag_reduction(instance: Instance) -> list[tuple]:
    """Transitions for an arbitrary acyclic instance.

    For an ordered pair (i, j) of nodes on source-sink paths, a pair
    transition with allowance l costs the cheapest first-stage path plus
    the cheapest recovery path with at most l arcs, and its time is l.
    Budgeting l (rather than the realized divergence) is still exact: the
    all-pairs sweep includes every split of an optimal pair into shared
    stretches and disjoint stretches.

    Only allowances that strictly improve on l - 1 are emitted, which is
    also exact.  Costs are nonincreasing in l, so a pruned (i, j, l) costs
    the same as the smallest allowance with its cost, which is emitted;
    swapping that one in for it in any path of transitions keeps the cost
    and uses less of the budget, so every optimum survives the pruning.
    The first allowance with a finite cost, j's least hop count from i,
    improves on the infinite allowance 0, so on a path each node pair
    within the budget gets exactly one transition.
    """
    graph = instance.graph
    k = instance.effective_k
    on = instance.on_path
    transitions = []
    for i in graph.order:
        if not on[i]:
            continue
        transitions += _direct(graph, on, i)
        dist_first, _ = dag_shortest_paths(graph, "first", i)
        table = HopBoundedTable(graph, "upper", i, k)
        for j in graph.after(i):
            row = table.dist[j]
            if not on[j] or row[k] is INF:
                continue
            base = dist_first[j]
            transitions += [
                (i, j, base + row[l], l, None) for l in range(1, k + 1) if row[l] < row[l - 1]
            ]
    return transitions


def pair_paths(graph, i: int, j: int, l: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The first-stage and recovery paths of the pair transition from
    ``i`` to ``j`` with time ``l``.

    Sweeps again from ``i``: the cheapest first-stage path, and the
    cheapest recovery path with at most ``l`` arcs.  These are the paths
    whose costs the transition was built with, in both reductions.
    """
    _, parent = dag_shortest_paths(graph, "first", i)
    y = HopBoundedTable(graph, "upper", i, l).path_to(j, l)
    return reconstruct_path(graph, parent, i, j), y


def _solve(instance: Instance, transitions: list[tuple]) -> Solution:
    result = solve_csp(
        instance.graph.node_count, transitions, instance.source, instance.sink,
        instance.effective_k,
    )
    if result is None:
        raise InfeasibleError("no stage pair within the recovery budget")
    x: list[int] = []
    y: list[int] = []
    for i, j, _, l, a in result[1]:
        if a is None:
            px, py = pair_paths(instance.graph, i, j, l)
            x.extend(px)
            y.extend(py)
        else:
            x.append(a)
            y.append(a)
    return build_solution(instance, tuple(x), tuple(y))


def _require_positive_budget(instance: Instance):
    if instance.k < 1:
        raise ValueError("k must be >= 1 here; solve() handles k = 0 directly")


def solve_layered(instance: Instance) -> Solution:
    """Exact solver for layered instances (every arc advances one layer)."""
    _require_positive_budget(instance)
    return _solve(instance, build_layered_reduction(instance))


def solve_dag(instance: Instance) -> Solution:
    """Exact solver for arbitrary acyclic instances."""
    _require_positive_budget(instance)
    return _solve(instance, build_dag_reduction(instance))
