"""Recoverable robust shortest paths on acyclic multidigraphs.

Pick a first-stage path, pay its first-stage cost; after worst-case cost
increases materialize, repair it into a recovery path that may use at
most k arcs outside the original, paying the recovery path's worst-case
second-stage cost.  The solvers here minimize the sum of both stages,
exactly, with specialized algorithms for layered and series-parallel
graphs and a general one for arbitrary DAGs.
"""
from .asp import DecompTree, RootValues, decompose, root_values, solve_asp
from .dispatch import METHODS, solve
from .errors import (
    ConfigError,
    CyclicGraphError,
    NotLayeredError,
    NotSeriesParallelError,
    ParseError,
    RecspError,
    TooManyPathsError,
    ValidationError,
)
from .generator import FAMILIES, SplitMix64, generate_instance
from .graph import INF, Arc, Instance, MultiDigraph
from .instance_io import (
    parse_instance,
    parse_solution,
    serialize_instance,
    serialize_solution,
)
from .oracle import bruteforce_root_values, enumerate_st_paths, solve_bruteforce
from .reduction import solve_dag, solve_layered
from .solution import Solution, VerifyResult, build_solution, verify_solution

__version__ = "0.1.0"

__all__ = [
    "Arc",
    "ConfigError",
    "CyclicGraphError",
    "DecompTree",
    "FAMILIES",
    "INF",
    "Instance",
    "METHODS",
    "MultiDigraph",
    "NotLayeredError",
    "NotSeriesParallelError",
    "ParseError",
    "RecspError",
    "RootValues",
    "Solution",
    "SplitMix64",
    "TooManyPathsError",
    "ValidationError",
    "VerifyResult",
    "build_solution",
    "bruteforce_root_values",
    "decompose",
    "enumerate_st_paths",
    "generate_instance",
    "parse_instance",
    "parse_solution",
    "root_values",
    "serialize_instance",
    "serialize_solution",
    "solve",
    "solve_asp",
    "solve_bruteforce",
    "solve_dag",
    "solve_layered",
    "verify_solution",
]
