"""Independent exact totals for checking solver output.

Nothing here imports the package under test.  The functions take plain
arc rows ``(tail, head, first, upper)``, so a defect in the program's own
graph code cannot hide in the reference it is checked against.

Two facts make the checks cheap:

* ``min C(X) + min upper(Y)`` over s-t paths, taken separately, is a lower
  bound on every feasible pair, and it is the optimum once ``k`` reaches
  the longest s-t hop count (then any recovery path fits the budget);
* below that, ``pair_dp_total`` solves the problem exactly by a dynamic
  program over (first-stage node, recovery node, budget used).
"""
from __future__ import annotations

from collections import deque

import numpy as np


def topo_levels(node_count: int, rows):
    """Topological order, and a level per node that every arc climbs."""
    indeg = [0] * node_count
    heads = [[] for _ in range(node_count)]
    for tail, head, *_ in rows:
        heads[tail].append(head)
        indeg[head] += 1
    level = [0] * node_count
    order = []
    ready = deque(v for v in range(node_count) if indeg[v] == 0)
    while ready:
        v = ready.popleft()
        order.append(v)
        for h in heads[v]:
            level[h] = max(level[h], level[v] + 1)
            indeg[h] -= 1
            if indeg[h] == 0:
                ready.append(h)
    if len(order) != node_count:
        raise ValueError("graph has a cycle")
    return order, level


def path_extremes(node_count: int, rows, source: int, sink: int):
    """(lower bound on the total, longest s-t hop count) of an instance."""
    order, _ = topo_levels(node_count, rows)
    out = [[] for _ in range(node_count)]
    for tail, head, first, upper in rows:
        out[tail].append((head, first, upper))
    inf = float("inf")
    first_dist = [inf] * node_count
    upper_dist = [inf] * node_count
    hops = [-1] * node_count
    first_dist[source] = upper_dist[source] = 0
    hops[source] = 0
    for v in order:
        if hops[v] < 0:
            continue
        for head, first, upper in out[v]:
            first_dist[head] = min(first_dist[head], first_dist[v] + first)
            upper_dist[head] = min(upper_dist[head], upper_dist[v] + upper)
            hops[head] = max(hops[head], hops[v] + 1)
    return first_dist[sink] + upper_dist[sink], hops[sink]


def _runs(keys, *columns):
    """Split columns (already sorted by key, then head) into runs of one key.

    Yields (key, [column slices]) where the last column, the heads, is
    replaced by the start of each run of equal heads and those heads.
    """
    bounds = [0, *(np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist(), len(keys)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        *cols, heads = (c[lo:hi] for c in columns)
        starts = np.flatnonzero(np.diff(heads, prepend=-1))
        yield int(keys[lo]), (*cols, starts, heads[starts])


def _hop_tables(node_count: int, tail, head, upper, k: int):
    """``table[h, v, u]``: least upper cost of a v-u path of exactly h arcs."""
    order = np.argsort(head, kind="stable")
    tails, heads, cost = tail[order], head[order], upper[order]
    starts = np.flatnonzero(np.diff(heads, prepend=-1))
    table = np.full((k + 1, node_count, node_count), np.inf)
    np.fill_diagonal(table[0], 0.0)
    for h in range(1, k + 1):
        table[h][:, heads[starts]] = np.minimum.reduceat(
            table[h - 1][:, tails] + cost, starts, axis=1)
    return table


def pair_dp_total(node_count: int, rows, source: int, sink: int, k: int):
    """Exact optimum ``min C(X) + upper(Y)`` with ``|Y \\ X| <= k``.

    A state ``(u, v, b)`` says the first-stage path has reached ``u``, the
    recovery path ``v``, and ``b`` recovery arcs were charged.  Moves: the
    first-stage path takes an arc (its first cost), the recovery path takes
    an arc (its upper cost, one unit of budget), or both take the same arc
    from a shared node (both costs, no budget).  Charging a lone recovery
    move even when the first-stage path also uses that arc only overcounts,
    and an optimal pair has an ordering of moves in which every shared arc
    is taken jointly, so the minimum over all move sequences is exact.

    First-stage moves and lone recovery moves commute, so ``raw[u]`` holds
    the states reached with recovery moves taken only before joint moves,
    and lone recovery stretches of h arcs are applied from hop tables where
    they matter: at ``v = u``, before a joint move and at the sink.  Rows
    are finished level by level, since every arc climbs a level.
    """
    _, level = topo_levels(node_count, rows)
    lv = np.array(level, dtype=np.intp)
    tail = np.array([r[0] for r in rows], dtype=np.intp)
    head = np.array([r[1] for r in rows], dtype=np.intp)
    first = np.array([r[2] for r in rows], dtype=np.float64)
    upper = np.array([r[3] for r in rows], dtype=np.float64)
    hops = _hop_tables(node_count, tail, head, upper, k)
    order = np.lexsort((head, lv[tail]))
    advance = dict(_runs(lv[tail][order], tail[order], first[order],
                         (first + upper)[order], head[order]))

    width = k + 1
    raw = np.full((node_count, node_count, width), np.inf)
    raw[source, source, 0] = 0.0
    # met[u, b]: both paths at u, b charged, lone recovery stretches included
    met = np.full((node_count, width), np.inf)
    for lvl in range(int(lv.max()) + 1):
        here = np.flatnonzero(lv == lvl)
        block = raw[here]
        reached = np.full((len(here), width), np.inf)
        for h in range(width):
            stretch = hops[h][:, here].T[:, :, None]
            np.minimum(reached[:, h:], (block[:, :, :width - h] + stretch).min(axis=1),
                       out=reached[:, h:])
        met[here] = reached
        if lvl not in advance:
            continue
        tails, cost, both, starts, heads = advance[lvl]
        step = np.minimum.reduceat(raw[tails] + cost[:, None, None], starts, axis=0)
        raw[heads] = np.minimum(raw[heads], step)
        step = np.minimum.reduceat(met[tails] + both[:, None], starts, axis=0)
        raw[heads, heads] = np.minimum(raw[heads, heads], step)
    best = met[sink].min()
    return None if best == np.inf else int(best)


def reference(node_count: int, rows, source: int, sink: int, k: int):
    """(lower bound, exact total) for an instance small enough to solve here."""
    lower, longest = path_extremes(node_count, rows, source, sink)
    if k >= longest:
        return lower, lower
    return lower, pair_dp_total(node_count, rows, source, sink, k)
