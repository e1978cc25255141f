"""Entry point that picks a solver for an instance."""
from __future__ import annotations

from .asp import solve_asp
from .errors import NotLayeredError, NotSeriesParallelError
from .graph import Instance, dag_shortest_paths, shortest_path
from .oracle import solve_bruteforce
from .reduction import solve_dag, solve_layered
from .solution import Solution, build_solution

METHODS = ("auto", "asp", "layered", "dag", "oracle")


def _solve_zero_budget(instance: Instance) -> Solution:
    """With no recovery allowed both stages follow one combined-cheapest path."""
    graph = instance.graph
    dist = dag_shortest_paths(graph, graph.combined, instance.source, until=instance.sink)
    path = shortest_path(graph, graph.combined, dist, instance.source, instance.sink)
    return build_solution(instance, path, path)


def solve(instance: Instance, method: str = "auto") -> Solution:
    """Solve an instance with the given method.

    ``auto`` tries the decomposition solver, then the layered one, then
    falls back to the general solver.
    An explicitly requested method that does not apply raises its error
    instead of falling back.
    ``oracle`` enumerates all path pairs and suits only small instances.
    k = 0 short-circuits to a plain shortest path for every method.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    if instance.k == 0:
        return _solve_zero_budget(instance)
    if method == "asp":
        return solve_asp(instance)
    if method == "layered":
        return solve_layered(instance)
    if method == "dag":
        return solve_dag(instance)
    if method == "oracle":
        return solve_bruteforce(instance)
    try:
        return solve_asp(instance)
    except NotSeriesParallelError:
        pass
    try:
        return solve_layered(instance)
    except NotLayeredError:
        pass
    return solve_dag(instance)
