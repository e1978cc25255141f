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
one by one in Python.  ``solve_levels`` takes them as array columns over
nodes numbered level by level, listed by head, each climbing a level or
more; it takes one batched numpy step per level.  Both return the same
optimum: the least cost, then the least time, then, at each node on the
way back, the earliest transition in list order that attains it.
"""
from __future__ import annotations

import numpy as np

from .graph import INF, NO_PATH, SATURATE


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


def solve_levels(starts, tail, head, cost, time, budget):
    """``(cost, rows)`` of the optimum ``solve_csp`` finds over the
    columns from node 0 to the last node, or None when there is none.

    ``rows`` are the positions in the columns of the transitions on the
    path, in path order.  ``starts`` lists each level's first node, then
    the node count; node 0, the source, is alone on the lowest level.
    ``tail``, ``head`` and ``time`` are integer arrays, ``cost`` an int64
    array, listed by ascending head; every node but the source heads a
    transition, each from a lower level with a time of at most ``budget``,
    and the costs meet ``graph.fits_int64``, whose proof covers these
    rows: they start at ``NO_PATH``.

    Each level takes one batched step: gather each tail's row shifted by
    the transition's time, add the costs, and keep the least per head and
    time (``np.minimum.reduceat``).  The tails lie on lower levels, so
    their rows are final.  Only the path is read back, from the rows, as
    ``solve_csp``'s backpointers would give it: at each node, the earliest
    transition in list order whose tail's row plus its cost attains the
    node's row.  The temporaries hold one level's transitions times the
    budget's width, and the rows the nodes times that width.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    width = budget + 1
    # head v's transitions are cuts[v]:cuts[v + 1]; the source's are none
    cuts = np.concatenate(([0], run_starts(head), [len(head)]))
    # rows padded on the left by budget no-path columns, so that a
    # transition of time l reads its tail's row shifted by l
    span = budget + width
    dist = np.full((starts[-1], span), NO_PATH, dtype=np.int64)
    dist[0, budget] = 0
    flat = dist.reshape(-1)
    # where each transition's shifted row starts in the flat rows
    begin = (tail * span + budget - time)[:, None]
    columns = np.arange(width)
    for a, b in zip(starts[1:], starts[2:]):
        lo, hi = cuts[a], cuts[b]
        sums = flat.take(begin[lo:hi] + columns)
        sums += cost[lo:hi, None]
        np.minimum.reduceat(sums, cuts[a:b] - lo, axis=0, out=dist[a:b, budget:])

    dist = dist[:, budget:]
    v = starts[-1] - 1
    # the path ends at the sink's first least entry, as in solve_csp
    t = int(dist[v].argmin())
    total = dist[v, t]
    if total >= SATURATE:
        return None
    dist = dist.tolist()
    cuts = cuts.tolist()
    path = []
    while v:
        want = dist[v][t]
        lo, hi = cuts[v], cuts[v + 1]
        for r, u, c, l in zip(range(lo, hi), tail[lo:hi].tolist(), cost[lo:hi].tolist(),
                              time[lo:hi].tolist()):
            if l <= t and dist[u][t - l] + c == want:
                break
        path.append(r)
        v, t = u, t - l
    path.reverse()
    return int(total), path
