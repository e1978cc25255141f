"""Command line interface: solve, verify, generate, bench."""
from __future__ import annotations

import argparse
import csv
import io
import sys
import time

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
from .generator import FAMILIES, generate_instance
from .instance_io import (
    parse_instance,
    parse_solution,
    serialize_instance,
    serialize_solution,
)
from .solution import verify_solution

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_VALIDATION = 4
EXIT_CYCLIC = 5
EXIT_NOT_LAYERED = 6
EXIT_NOT_SP = 7
EXIT_TOO_MANY_PATHS = 8
EXIT_MEMORY = 11

_ERROR_EXITS = (
    (ParseError, EXIT_PARSE),
    (CyclicGraphError, EXIT_CYCLIC),
    (NotLayeredError, EXIT_NOT_LAYERED),
    (NotSeriesParallelError, EXIT_NOT_SP),
    (TooManyPathsError, EXIT_TOO_MANY_PATHS),
    (ValidationError, EXIT_VALIDATION),
    (ConfigError, EXIT_CONFIG),
)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    # bytes that are not UTF-8 reach the parser as lone surrogates, as
    # they do on stdin, and fail there as ParseError
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        return handle.read()


def _write(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def cmd_solve(args) -> int:
    instance = parse_instance(_read(args.input))
    solution = solve(instance, args.method)
    if args.output == "machine":
        sys.stdout.write(serialize_solution(solution))
    else:
        x = " ".join(str(a) for a in solution.x_arcs)
        y = " ".join(str(a) for a in solution.y_arcs)
        sys.stdout.write(
            f"total {solution.total_cost}\n"
            f"first stage {solution.first_cost} arcs {x}\n"
            f"second stage {solution.second_cost} arcs {y}\n"
            f"divergence {solution.divergence} of budget {instance.k}\n"
        )
    return EXIT_OK


def cmd_verify(args) -> int:
    instance = parse_instance(_read(args.input))
    solution = parse_solution(_read(args.solution))
    result = verify_solution(instance, solution)
    if result.accepted:
        print("accepted")
        return EXIT_OK
    print(f"rejected: {result.reason}")
    return EXIT_REJECTED


def cmd_generate(args) -> int:
    instance = generate_instance(
        args.family,
        args.seed,
        nodes=args.nodes,
        arcs=args.arcs,
        k=args.k,
        layers=args.layers,
    )
    _write(args.output, serialize_instance(instance))
    return EXIT_OK


def cmd_bench(args) -> int:
    """One CSV row per size: generate, solve with the family's method,
    cross-check against the ``dag`` method.

    Instances over the --limit arc count skip the cross-check (the general
    solver is quadratic in nodes).  Each family's method applies to every
    instance of that family, so every row carries a total.
    """
    rows = []
    for index, arcs in enumerate(args.sizes):
        seed = args.seed + index
        nodes = max(4, arcs // 4) if args.family != "asp" else None
        instance = generate_instance(
            args.family, seed, nodes=nodes, arcs=arcs, k=args.k
        )
        n = instance.graph.node_count
        m = instance.graph.arc_count
        start = time.perf_counter()
        solution = solve(instance, args.family)
        elapsed = (time.perf_counter() - start) * 1000.0
        if m <= args.limit:
            reference = solve(instance, "dag")
            agreement = "yes" if reference.total_cost == solution.total_cost else "no"
        else:
            agreement = "skipped"
        rows.append(
            [args.family, n, m, instance.k, args.family,
             solution.total_cost, f"{elapsed:.3f}", agreement]
        )
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["family", "n", "m", "k", "method", "total", "time_ms", "agreement"])
    writer.writerows(rows)
    _write(args.output, text.getvalue())
    return EXIT_OK


def _size_list(text: str) -> list[int]:
    try:
        sizes = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad size list {text!r}")
    if not sizes:
        raise argparse.ArgumentTypeError("size list is empty")
    return sizes


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recsp",
        description="Recoverable robust shortest paths on acyclic multidigraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("--input", "-i", default="-", help="instance file, '-' for stdin")
    p.add_argument("--method", choices=METHODS, default="auto")
    p.add_argument("--output", choices=("text", "machine"), default="text",
                   help="human-readable or solution-file output")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check a solution file against an instance")
    p.add_argument("--input", "-i", default="-", help="instance file, '-' for stdin")
    p.add_argument("--solution", "-s", required=True, help="solution file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("generate", help="write a seeded random instance")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nodes", type=int, default=None)
    p.add_argument("--arcs", type=int, default=None)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--layers", type=int, default=None,
                   help="layer count (layered family only)")
    p.add_argument("--output", "-o", default="-")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("bench", help="time a solver over a size sweep, as CSV")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sizes", type=_size_list, required=True,
                   help="comma-separated arc counts, e.g. 100,200,400")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--limit", type=int, default=600,
                   help="largest arc count still cross-checked against --method dag")
    p.add_argument("--output", "-o", default="-")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RecspError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for cls, code in _ERROR_EXITS:
            if isinstance(exc, cls):
                return code
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_MEMORY


if __name__ == "__main__":
    sys.exit(main())
