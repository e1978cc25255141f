"""Budget-constrained shortest paths by DP over (node, budget used).

The one kernel behind both reduction-based solvers (Joksch 1966; Hassin
1992).  A transition ``(tail, head, cost, time, arc)`` moves from tail to
head for an additive cost and spends a nonnegative integer time of the
budget; ``arc`` is the caller's payload and never influences the search.
The caller lists every transition into a node before any transition out
of it (for instance source by source in a topological order), so one
forward pass computes, for each node and exact time used, the least cost
of reaching it, with no sort and no adjacency lists; the sink's row is
then carried from time t - 1 to t to allow any time within the budget.
"""
from __future__ import annotations

from .graph import INF

_CARRY = -1


def solve_csp(node_count, transitions, source, sink, budget):
    """``(cost, transitions)`` of a minimum-cost source->sink path whose
    total time is at most ``budget``, or None when no such path exists.

    ``transitions`` must be ordered as the module docstring says.  Among
    equal-cost optima the path uses the least time, then prefers
    transitions earlier in the list.  Costs may be negative.
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
            d = src[t - time] + cost
            if d < row[t]:
                row[t] = d
                bp[t] = step

    row = dist[sink]
    if row is None:
        return None
    bp = back[sink]
    for t in range(1, width):
        # carrying wins ties, so equal costs resolve to less time
        if row[t - 1] <= row[t]:
            row[t] = row[t - 1]
            bp[t] = _CARRY
    if row[budget] is INF:
        return None
    path = []
    v, t = sink, budget
    while (step := back[v][t]) is not None:
        if step is _CARRY:
            t -= 1
            continue
        path.append(step)
        v = step[0]
        t -= step[3]
    path.reverse()
    return row[budget], path
