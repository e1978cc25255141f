"""Budget-constrained shortest paths by DP over (node, budget used).

The kernels behind both reduction-based solvers (Joksch 1966; Hassin
1992).  A transition ``(tail, head, cost, time, arc)`` moves from tail to
head for an additive cost and spends a nonnegative integer time of the
budget; ``arc`` is the caller's payload and never influences the search.
The caller lists every transition into a node before any transition out
of it (for instance source by source in a topological order), so one
forward pass computes, for each node and exact time used, the least cost
of reaching it, with no sort and no adjacency lists.  The path ends at the
sink's first least entry, which allows any time within the budget.

``solve_csp`` takes the transitions as a list of tuples and relaxes them
one by one in Python.  ``solve_levels`` takes them as array columns
together with a level per node, below every transition's head and above
its tail, and takes one batched numpy step per level.  Both return the
same optimum: the least cost, then the least time, then, at each node on
the way back, the earliest transition in list order that attains it.
"""
from __future__ import annotations

import numpy as np

from .graph import INF

# int64 rows hold no path as this sentinel plus a sum of costs, and
# solve_levels requires every such sum below LEVEL_LIMIT in magnitude
_SENTINEL = 1 << 62
LEVEL_LIMIT = _SENTINEL >> 1


def solve_csp(node_count, transitions, source, sink, budget):
    """``(cost, transitions)`` of a minimum-cost source->sink path whose
    total time is at most ``budget``, or None when no such path exists.

    ``transitions`` must be ordered as the module docstring says.  The
    path is walked back from the sink's first least entry, so among
    equal-cost optima it uses the least time, then prefers transitions
    earlier in the list.  Costs may be negative.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    width = budget + 1
    dist: list = [None] * node_count
    back: list = [None] * node_count
    dist[source] = [0] + [INF] * budget
    back[source] = [None] * width
    for step in transitions:
        tail, head, cost, time, _ = step
        src = dist[tail]
        if src is None:
            continue  # the tail is out of reach
        row = dist[head]
        if row is None:
            row = dist[head] = [INF] * width
            back[head] = [None] * width
        bp = back[head]
        for t in range(time, width):
            d = src[t - time]
            if d is INF:
                continue  # unreached; INF + a cost past the float range raises
            d += cost
            if d < row[t]:
                row[t] = d
                bp[t] = step

    row = dist[sink]
    if row is None:
        return None
    # the first least entry: equal costs resolve to less time
    total = min(row)
    if total is INF:
        return None
    path = []
    v, t = sink, row.index(total)
    while (step := back[v][t]) is not None:
        path.append(step)
        v = step[0]
        t -= step[3]
    path.reverse()
    return total, path


def run_starts(key):
    """Where each run of equal values in the sorted array ``key`` starts."""
    new = np.empty(len(key), bool)
    new[:1] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    return new.nonzero()[0]


def solve_levels(level, tail, head, cost, time, source, sink, budget):
    """``(cost, rows)`` of the optimum ``solve_csp`` finds over the
    transitions given as columns, or None when there is none.

    ``rows`` are the positions in the columns of the transitions on the
    path, in path order.  ``tail``, ``head`` and ``time`` are integer
    arrays, ``cost`` an int64 array, all in list order.  Every transition
    has ``level[head] > level[tail]`` and a time of at most ``budget``,
    the source is on the lowest level, so no transition enters it, and
    every chain of transitions sums to less than ``LEVEL_LIMIT`` in
    magnitude.

    One stable sort groups the transitions by head, the heads numbered by
    level, keeping list order within each head.  Each level then takes one
    batched step: gather each tail's row shifted by the transition's time,
    add the costs, and keep the least per head and time
    (``np.minimum.reduceat``).  The tails lie on lower levels, so their
    rows are final.  Only the path is read back, from the rows, as
    ``solve_csp``'s backpointers would give it: at each node, the earliest
    transition in list order whose tail's row plus its cost attains the
    node's row.  The temporaries hold one level's transitions times the
    budget's width, and the rows the nodes times that width.  A row with
    no path holds the sentinel 2**62 plus the sum of a chain, so it stays
    in int64 and at or above ``LEVEL_LIMIT``, where no path's cost is.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    width = budget + 1
    level = np.asarray(level, dtype=np.int64)
    size = len(level)
    # number the nodes by level: sorted by that number, the heads come
    # level by level (a 16-bit key sorts by radix)
    by_level = level.argsort(kind="stable")
    number = np.empty(size, np.intp)
    number[by_level] = np.arange(size)
    key = number[head].astype(np.uint16 if size <= 1 << 16 else np.intp)
    order = key.argsort(kind="stable")
    key, tail, cost, time = key[order], tail[order], cost[order], time[order]
    cuts = run_starts(key)
    fed = by_level[key[cuts]]
    # rows: the heads in that order, then the other nodes
    row = np.full(size, len(cuts), np.intp)
    row[fed] = np.arange(len(cuts))
    rest = (row == len(cuts)).nonzero()[0]
    row[rest] = np.arange(len(cuts), size)
    # the heads of each level, and each head's transitions from the first
    # of its level
    levels = np.append(run_starts(level[fed]), len(cuts))
    local = cuts - cuts[levels[:-1]].repeat(np.diff(levels))
    cuts = np.append(cuts, len(key)).tolist()
    levels = levels.tolist()
    # rows padded on the left by budget sentinel columns, so that a
    # transition of time l reads its tail's row shifted by l
    span = budget + width
    dist = np.full((size, span), _SENTINEL, dtype=np.int64)
    start = row[source]
    dist[start, budget] = 0
    flat = dist.reshape(-1)
    tail = row[tail]
    # where each transition's shifted row starts in the flat rows
    begin = (tail * span + budget - time)[:, None]
    columns = np.arange(width)
    for a, b in zip(levels, levels[1:]):
        lo, hi = cuts[a], cuts[b]
        sums = flat.take(begin[lo:hi] + columns)
        sums += cost[lo:hi, None]
        np.minimum.reduceat(sums, local[a:b], axis=0, out=dist[a:b, budget:])

    dist = dist[:, budget:]
    v = row[sink]
    # the path ends at the sink's first least entry, as in solve_csp
    t = int(dist[v].argmin())
    total = dist[v, t]
    if total >= LEVEL_LIMIT:
        return None
    dist = dist.tolist()
    path = []
    while v != start:
        want = dist[v][t]
        lo, hi = cuts[v], cuts[v + 1]
        for r, u, c, l in zip(range(lo, hi), tail[lo:hi].tolist(), cost[lo:hi].tolist(),
                              time[lo:hi].tolist()):
            if l <= t and dist[u][t - l] + c == want:
                break
        path.append(int(order[r]))
        v, t = u, t - l
    path.reverse()
    return int(total), path
