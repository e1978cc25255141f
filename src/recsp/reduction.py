"""Reduction-based solvers for layered and general acyclic instances.

Both solvers compile the two-stage problem into one budget-constrained
shortest path problem over the original node ids, with the recovery
budget as the time budget, and solve it with a kernel in ``csp``.  The
builders list transitions ``(tail, head, cost, time, arc)`` into a node
before any out of it, and into each head by the tail's place in the
topological order, a direct transition before a pair one:

* a direct transition keeps one original arc ``arc`` in both stages: its
  cost is the cheapest combined two-stage cost among parallels, time 0;
* a pair transition (``arc`` None, time at least 1) replaces a whole
  stretch: its two stages follow separate shortest paths between the
  same endpoints, and its time bounds the arcs the recovery path uses
  that the first-stage path does not.

The builders find the pair transitions differently.  In a layered graph
every path between two nodes has the same number of arcs, the layer gap,
so ``layered_columns`` needs no hop index: it handles every source at
once in numpy arrays, one batched step per layer gap.
``build_dag_reduction`` sweeps from one source at a time: a hop-bounded
table for the recovery stage, and a first-stage sweep that stops at the
last node the table reached.

``dag`` lists the transitions as tuples, source by source, for
``solve_csp``.  ``layered`` keeps them as the build's columns, head by
head (``layered_columns``), and solves them with ``solve_levels``, one
batched step per layer, in int64 only; past ``graph.fits_int64`` it runs
``solve_csp`` over ``dag``'s exact list, as ``build_layered_reduction``
returns it once the layering is checked.  Both find the same optimum,
ties included.

Only nodes on source-sink paths take part, and the budget is the
instance's effective k.  A pair transition records just its endpoints
and time; the stage paths it stands for are rebuilt, by sweeping again
from its tail, for the pair transitions on the optimum only.
"""
from __future__ import annotations

import numpy as np

from .csp import run_starts, solve_csp, solve_levels
from .graph import (
    HopBoundedTable,
    Instance,
    compute_layering,
    dag_shortest_paths,
    fits_int64,
    shortest_path,
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


def layered_columns(instance: Instance):
    """Transitions for a layered instance as int64 columns, or None past ``fits_int64``.

    Returns ``(nodes, starts, tail, head, cost, time, arc)``: ``nodes``
    maps the compact ids, the on-path nodes by (layer, place in
    ``graph.order``), to node ids; ``starts`` lists each layer's first id,
    then the node count; the other five are arrays over the transitions in
    the order given below, with tails and heads as compact ids and ``arc``
    an object array, None for a pair transition.

    Raises NotLayeredError (via ``compute_layering``) when the graph, pruned
    to the nodes on source-sink paths, is not layered.  Pair transitions
    join every node pair whose layers differ by at most the budget.  A
    pair's time is the layer gap: split an optimal stage pair at the
    nodes both paths visit; between two consecutive such nodes the stages
    either share one arc (a direct transition) or the recovery stretch has
    no arc of the first-stage path, so it diverges by exactly the gap, as
    in ``build_dag_reduction``.  When the on-path arcs' costs fail
    ``graph.fits_int64``, nothing is built and None is returned.

    All sources are handled at once, in arrays over the compact ids.  The
    arcs joining on-path nodes are reduced to one entry per (tail, head)
    pair: the cheapest first-stage and upper costs, and the cheapest combined
    cost with its first arc on ties (the direct transition).  The pairs
    one layer apart are the entries; those g + 1 apart extend each pair g
    apart by the entries out of its head and keep the least first-stage
    and upper cost per (tail, head).  Two stable sorts list them by head,
    then by the tail's place, the direct transition first: the order
    ``solve_levels`` reads, each head's as in ``build_dag_reduction``.
    """
    layer = compute_layering(instance)
    graph = instance.graph
    k = instance.effective_k
    size = len(layer)
    # compact ids by (layer, place in graph.order): id i's place is place[i]
    level = np.fromiter(layer.values(), np.intp, size)
    place = level.argsort(kind="stable")
    nodes = np.fromiter(layer, np.intp, size)[place]
    rank = np.full(graph.node_count, -1, np.intp)
    rank[nodes] = np.arange(size)
    tails, heads = graph.ends
    tails, heads = rank[tails], rank[heads]
    arcs = (np.minimum(tails, heads) >= 0).nonzero()[0]
    first, upper = graph.costs[:2, arcs]
    if not fits_int64(instance, first, upper):
        return None
    combined = first + upper
    key = tails[arcs] * size + heads[arcs]
    order = np.lexsort((combined, key))  # stable: the first arc wins ties
    key = key[order]
    start = run_starts(key)
    direct = order[start]
    tail, head = tails[arcs[direct]], heads[arcs[direct]]
    first = np.minimum.reduceat(first[order], start)
    upper = np.minimum.reduceat(upper[order], start)
    degree = np.bincount(tail, minlength=size)
    offset = degree.cumsum() - degree
    columns = [(tail, head, combined[direct])]
    s, v, f, u = tail, head, first, upper
    for gap in range(1, k + 1):
        columns.append((s, v, f + u))
        if gap == k:
            break
        count = degree[v]
        ends = count.cumsum()
        if not ends[-1]:
            break
        out = (offset[v] - ends + count).repeat(count) + np.arange(ends[-1])
        key = (s * size).repeat(count) + head[out]
        order = key.argsort()
        key = key[order]
        start = run_starts(key)
        s, v = np.divmod(key[start], size)
        f = np.minimum.reduceat((f.repeat(count) + first[out])[order], start)
        u = np.minimum.reduceat((u.repeat(count) + upper[out])[order], start)
    sizes = [len(column[0]) for column in columns]
    time = np.arange(len(columns)).repeat(sizes)
    tail, head, cost = map(np.concatenate, zip(*columns))
    # an empty object array holds None: the pair transitions' arc
    arc = np.concatenate((arcs[direct], np.empty(len(time) - sizes[0], object)))
    # by head, by the tail's place, then by time (16-bit keys sort by radix)
    small = np.uint16 if size <= 1 << 16 else np.intp
    order = place.astype(small)[tail].argsort(kind="stable")
    order = order[head.astype(small)[order].argsort(kind="stable")]
    # layers count from 1: the running counts are each layer's first id
    starts = np.bincount(level).cumsum().tolist()
    return nodes, starts, tail[order], head[order], cost[order], time[order], arc[order]


def build_layered_reduction(instance: Instance) -> list[tuple]:
    """``layered_columns``' transitions as exact tuples, for ``solve_csp``
    past ``graph.fits_int64``: ``build_dag_reduction``'s list, once the
    layering is checked.  Its order differs, but each head's transitions
    come in the same order (tails topologically, a direct one before a pair
    one), and ``solve_csp`` reads a tail's row only once it is final: same
    optimum."""
    compute_layering(instance)
    return build_dag_reduction(instance)


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
        table = HopBoundedTable(graph, graph.upper, i, k)
        if not table.reached:
            continue
        # first-stage distances are read only where the table reached
        dist_first = dag_shortest_paths(graph, graph.first, i, until=table.reached[-1])
        for j in table.reached:
            if not on[j]:
                continue
            row = table.dist[j]
            base = dist_first[j]
            for l in range(1, k + 1):
                if row[l] < row[l - 1]:
                    transitions.append((i, j, base + row[l], l, None))
    return transitions


def pair_paths(graph, i: int, j: int, l: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The first-stage and recovery paths of the pair transition from
    ``i`` to ``j`` with time ``l``.

    Sweeps again from ``i``, both sweeps only up to ``j``: the cheapest
    first-stage path, and the cheapest recovery path with at most ``l``
    arcs.  These are the paths whose costs the transition was built with,
    in both reductions.
    """
    dist = dag_shortest_paths(graph, graph.first, i, until=j)
    y = HopBoundedTable(graph, graph.upper, i, l, until=j).path_to(j, l)
    return shortest_path(graph, graph.first, dist, i, j), y


def _solution(instance: Instance, steps) -> Solution:
    """The solution whose stage paths the ``(tail, head, time, arc)``
    steps of an optimal transition path stand for."""
    x: list[int] = []
    y: list[int] = []
    for i, j, l, a in steps:
        if a is None:
            px, py = pair_paths(instance.graph, i, j, l)
            x.extend(px)
            y.extend(py)
        else:
            x.append(a)
            y.append(a)
    return build_solution(instance, tuple(x), tuple(y))


def _solve(instance: Instance, transitions: list[tuple]) -> Solution:
    # never None: the direct transitions reach the sink at time 0 (see Instance)
    _, steps = solve_csp(
        instance.graph.node_count, transitions, instance.source, instance.sink,
        instance.effective_k,
    )
    return _solution(instance, [(i, j, l, a) for i, j, _, l, a in steps])


def solve_layered(instance: Instance) -> Solution:
    """Exact solver for layered instances (every arc advances one layer).

    Runs ``solve_levels`` over ``layered_columns``, whose nodes come
    numbered by layer, the source first and the sink last.  Past
    ``graph.fits_int64`` it runs ``solve_csp`` over
    ``build_layered_reduction`` instead, which finds the same optimum.
    """
    instance.require_positive_budget()
    columns = layered_columns(instance)
    if columns is None:
        return _solve(instance, build_layered_reduction(instance))
    nodes, starts, tail, head, cost, time, arc = columns
    _, rows = solve_levels(starts, tail, head, cost, time, instance.effective_k)
    return _solution(instance, zip(nodes[tail[rows]].tolist(), nodes[head[rows]].tolist(),
                                   time[rows].tolist(), arc[rows].tolist()))


def solve_dag(instance: Instance) -> Solution:
    """Exact solver for arbitrary acyclic instances."""
    instance.require_positive_budget()
    return _solve(instance, build_dag_reduction(instance))
