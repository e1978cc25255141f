"""Exhaustive reference implementations.

Everything here enumerates all source-sink paths outright, so it is only
usable on small instances; the point is to be obviously correct and
serve as the ground truth the fast solvers are tested against.
"""
from __future__ import annotations

from .asp import RootValues
from .errors import TooManyPathsError
from .graph import INF, Instance, MultiDigraph, divergence_count, path_cost
from .solution import Solution, build_solution

# the pair loops grow with the square of the path count: at 2,048 paths
# they take 1.5 s (3 s for the root values) on a 2-vCPU host
DEFAULT_LIMIT = 2_048


def enumerate_st_paths(
    graph: MultiDigraph, source: int, sink: int, limit: int = DEFAULT_LIMIT
) -> list[tuple[int, ...]]:
    """All simple source->sink paths as arc-id tuples, in lexicographic order.

    Raises TooManyPathsError once more than ``limit`` paths are found.
    The graph must be acyclic, which makes every walk simple.
    """
    paths: list[tuple[int, ...]] = []
    frames = [iter(graph.out_arcs(source))]
    arc_stack: list[int] = []
    while frames:
        a = next(frames[-1], None)
        if a is None:
            frames.pop()
            if arc_stack:
                arc_stack.pop()
            continue
        head = graph.head[a]
        if head == sink:
            paths.append(tuple(arc_stack + [a]))
            if len(paths) > limit:
                raise TooManyPathsError(f"more than {limit} source-sink paths")
            continue
        arc_stack.append(a)
        frames.append(iter(graph.out_arcs(head)))
    return paths


def solve_bruteforce(instance: Instance, limit: int = DEFAULT_LIMIT) -> Solution:
    """Optimal stage pair by trying every pair of source-sink paths.

    Ties resolve to the earliest pair in enumeration order, so the result
    is deterministic; only the total cost is guaranteed to match the fast
    solvers.
    """
    graph = instance.graph
    paths = enumerate_st_paths(graph, instance.source, instance.sink, limit)
    first_costs = [path_cost(graph.first, p) for p in paths]
    upper_costs = [path_cost(graph.upper, p) for p in paths]
    arc_sets = [set(p) for p in paths]
    best = None
    best_pair = None
    for xi, x in enumerate(paths):
        for yi, y in enumerate(paths):
            if len(arc_sets[yi] - arc_sets[xi]) > instance.k:
                continue
            total = first_costs[xi] + upper_costs[yi]
            if best is None or total < best:
                best = total
                best_pair = (x, y)
    return build_solution(instance, best_pair[0], best_pair[1])


def bruteforce_root_values(
    instance: Instance, limit: int = DEFAULT_LIMIT
) -> RootValues:
    """The decomposition solver's root arrays, recomputed by enumeration."""
    graph = instance.graph
    k = instance.k
    paths = enumerate_st_paths(graph, instance.source, instance.sink, limit)
    first_costs = [path_cost(graph.first, p) for p in paths]
    upper_costs = [path_cost(graph.upper, p) for p in paths]
    first = min(first_costs)
    upper = [INF] * (k + 1)
    for p, cu in zip(paths, upper_costs):
        if len(p) <= k and cu < upper[len(p)]:
            upper[len(p)] = cu
    opt = [INF] * (k + 1)
    for xi, x in enumerate(paths):
        xset = set(x)
        for yi, y in enumerate(paths):
            d = divergence_count(y, xset)
            if d <= k:
                total = first_costs[xi] + upper_costs[yi]
                if total < opt[d]:
                    opt[d] = total
    return RootValues(first=first, upper=tuple(upper), opt=tuple(opt))
