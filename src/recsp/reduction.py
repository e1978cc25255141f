"""Reduction-based solvers for layered and general acyclic instances.

Both solvers compile the two-stage problem into one budget-constrained
shortest path problem over the original node ids, with the recovery
budget as the time budget:

* a "direct" arc keeps one original arc in both stages: cost is the
  cheapest combined two-stage cost among parallels, time 0;
* a "pair" arc replaces a whole stretch: its two stages follow separate
  shortest paths between the same endpoints, and its time bounds the
  arcs the recovery path uses that the first-stage path does not.

Only nodes on source-sink paths take part, and the budget is the
instance's effective k.  A pair arc records just its endpoints; the
stage paths it stands for are rebuilt, by sweeping again from its tail,
for the pair arcs on the constrained optimum only.
"""
from __future__ import annotations

from .csp import CspArc, solve_csp
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


def _direct_arcs(graph, on) -> list[CspArc]:
    """One zero-time arc per (tail, head) pair of ``on`` nodes: the cheapest
    parallel, used in both stages."""
    tail, head, combined = graph.tail, graph.head, graph.combined
    best: dict[tuple[int, int], int] = {}
    for a in range(graph.arc_count):
        i, j = tail[a], head[a]
        if not (on[i] and on[j]):
            continue
        cur = best.get((i, j))
        if cur is None or combined[a] < combined[cur]:
            best[(i, j)] = a
    return [
        CspArc(i, j, combined[a], 0, ("direct", a)) for (i, j), a in sorted(best.items())
    ]


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


def build_layered_reduction(instance: Instance) -> list[CspArc]:
    """Constrained-problem arcs for a layered instance.

    Raises NotLayeredError (via the layering pass) when the graph, pruned
    to the nodes on source-sink paths, is not layered.  Pair arcs join
    every node pair whose layers differ by at most the budget, found by a
    sweep over only those layers.  A pair arc's time is the layer gap:
    split an optimal stage pair at the nodes both paths visit; between two
    consecutive such nodes the stages either share one arc (a direct arc)
    or the recovery stretch has no arc of the first-stage path, so it
    diverges by exactly the gap, as in ``build_dag_reduction``.
    """
    graph = instance.graph
    k = instance.effective_k
    layer = compute_layering(instance)
    by_layer: list[list[int]] = [[] for _ in range(layer[instance.sink] + 1)]
    for v in sorted(layer):
        by_layer[layer[v]].append(v)
    arcs = _direct_arcs(graph, instance.on_path)
    for i in sorted(layer):
        li = layer[i]
        window = range(li + 1, min(li + k, layer[instance.sink]) + 1)
        costs = _window_costs(graph, by_layer, i, window)
        for j in sorted(costs):
            arcs.append(CspArc(i, j, costs[j], layer[j] - li, ("pair", i, j)))
    return arcs


def build_dag_reduction(instance: Instance) -> list[CspArc]:
    """Constrained-problem arcs for an arbitrary acyclic instance.

    For every ordered pair (i, j) of nodes on source-sink paths whose
    shortest hop count is within the budget, one pair arc per allowance l
    from that hop count up to the budget: the recovery path is the
    cheapest using at most l arcs and the arc's time is l itself.
    Budgeting l (rather than the realized divergence) is still exact: the
    all-pairs sweep includes every split of an optimal pair into shared
    stretches and disjoint stretches.
    """
    graph = instance.graph
    k = instance.effective_k
    on = instance.on_path
    arcs = _direct_arcs(graph, on)
    for i in range(graph.node_count):
        if not on[i]:
            continue
        dist_first, _ = dag_shortest_paths(graph, "first", i)
        table = HopBoundedTable(graph, "upper", i, k)
        for j in sorted(v for v in graph.after(i) if on[v]):
            lo = table.min_hops(j)
            if lo is None:
                continue
            base = dist_first[j]
            row = table.dist[j]
            for l in range(lo, k + 1):
                arcs.append(CspArc(i, j, base + row[l], l, ("pair", i, j)))
    return arcs


def pair_paths(graph, arc: CspArc) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The first-stage and recovery paths a pair arc stands for.

    Sweeps again from the arc's tail: the cheapest first-stage path, and
    the cheapest recovery path with at most ``arc.time`` arcs.  These are
    the paths whose costs the arc was built with, in both reductions.
    """
    _, i, j = arc.ref
    _, parent = dag_shortest_paths(graph, "first", i)
    y = HopBoundedTable(graph, "upper", i, arc.time).path_to(j, arc.time)
    return reconstruct_path(graph, parent, i, j), y


def _solve(instance: Instance, arcs: list[CspArc]) -> Solution:
    result = solve_csp(
        instance.graph.node_count, arcs, instance.source, instance.sink,
        instance.effective_k,
    )
    if result is None:
        raise InfeasibleError("no stage pair within the recovery budget")
    x: list[int] = []
    y: list[int] = []
    for arc in result.arcs:
        if arc.ref[0] == "direct":
            x.append(arc.ref[1])
            y.append(arc.ref[1])
        else:
            px, py = pair_paths(instance.graph, arc)
            x.extend(px)
            y.extend(py)
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
