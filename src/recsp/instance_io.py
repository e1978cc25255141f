"""Plain-text instance and solution formats.

Instance files:

    # full-line comments and blank lines are ignored
    p recsp <nodes> <arcs> <source> <sink> <k>
    a <tail> <head> <first> <nominal> <deviation>

with exactly one ``a`` line per arc; arc ids count 0-based in line
order.  Solution files:

    s recsp <total> <first> <second> <divergence>
    x <arc ids of the first-stage path, in order>
    y <arc ids of the recovery path, in order>

Lines end where ``str.splitlines`` ends them (``\\n``, ``\\r\\n``, ``\\x1c``
and the other Unicode line boundaries), and fields are separated by any
run of Unicode whitespace, as ``str.split`` separates them.  A number is
an optional sign and decimal digits, Unicode decimal digits included
(``\u0665`` reads as 5).  It must be a signed 64-bit integer, except
the three costs of an ``s`` line: sums of 64-bit arc costs, they may be
any integer ``int()`` converts.  Anything structurally wrong raises
ParseError with a 1-based line and column.
Semantic problems (out-of-range endpoints, cycles, unreachable sink)
surface as the usual validation errors when the instance object is
built.

The arc lines are checked and converted all at once and fill the
graph's columns directly; a line is looked at on its own only to report
a fault in it.
"""
from __future__ import annotations

import re
from itertools import chain, repeat

from .errors import ParseError
from .graph import Instance, MultiDigraph
from .solution import Solution

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1
_INT = r"[+-]?\d+"
# integers joined by single spaces; a single integer token matches too
_INTS_RE = re.compile(rf"{_INT}(?: {_INT})*")
_ARC_NAMES = ("tail", "head", "first-stage cost", "nominal cost", "deviation")


def _content_lines(text: str):
    """(line_number, tokens) for each line that is neither blank nor a comment.

    Tokens are the runs of non-whitespace characters; a comment line is
    one whose first token starts with ``#``.
    """
    lines = enumerate(map(str.split, text.splitlines()), start=1)
    return [(lineno, tokens) for lineno, tokens in lines if tokens and tokens[0][0] != "#"]


def _last_line(text: str) -> int:
    return text.count("\n") + 1


def _fail(text: str, lineno: int, index: int, message: str):
    """Raise ParseError at the 1-based column of token ``index`` of a line."""
    raw = text.splitlines()[lineno - 1]
    end = 0
    # a token cannot start inside the whitespace before it, so the first
    # match of its text after the previous token is the token itself
    for token in raw.split()[:index + 1]:
        start = raw.find(token, end)
        end = start + len(token)
    raise ParseError(lineno, start + 1, message)


def _ints(tokens, wide: int = 0) -> list[int] | None:
    """The tokens as ints, or None unless every one is an integer and all
    but the first ``wide`` are signed 64-bit integers."""
    if not tokens:
        return []
    if not _INTS_RE.fullmatch(" ".join(tokens)):
        return None
    try:
        values = list(map(int, tokens))
    except ValueError:  # a token longer than int() converts
        return None
    bounded = values[wide:] if wide else values
    if bounded and (min(bounded) < _INT64_MIN or max(bounded) > _INT64_MAX):
        return None
    return values


def _int_fields(text: str, line, first: int, names, wide: int = 0) -> list[int]:
    """The integers from token ``first`` on; ``names`` says what each one is.

    The first ``wide`` of them may be any integer, the rest must be signed
    64-bit integers.  All tokens are checked at once; only when that fails
    are they checked one by one, to raise ParseError at the first fault.
    """
    lineno, tokens = line
    values = _ints(tokens[first:], wide)
    if values is not None:
        return values
    values = []
    for index, name in zip(range(first, len(tokens)), names):
        token = tokens[index]
        if not _INTS_RE.fullmatch(token):
            _fail(text, lineno, index, f"{name} must be an integer, got {token!r}")
        try:
            value = int(token)
        except ValueError:  # more digits than int() converts
            value = None
        if index - first < wide:
            if value is None:
                _fail(text, lineno, index, f"{name} has too many digits")
        elif value is None or not _INT64_MIN <= value <= _INT64_MAX:
            _fail(text, lineno, index, f"{name} outside the signed 64-bit range")
        values.append(value)
    return values


def _check_shape(text: str, line, expected_head: str, count: int, what: str):
    lineno, tokens = line
    if tokens[0] != expected_head:
        _fail(text, lineno, 0, f"expected {what} line starting with {expected_head!r}")
    if len(tokens) != count:
        _fail(text, lineno, len(tokens) - 1,
              f"{what} line needs {count} fields, got {len(tokens)}")


def _arc_values(text: str, arc_lines) -> list[int]:
    """The five integers of every arc line, in line order, as one flat list."""
    tokens = [line[1] for line in arc_lines]
    if set(map(len, tokens)) <= {6}:
        flat = list(chain.from_iterable(tokens))
        tags = flat[0::6]
        if tags.count("a") == len(tags):
            del flat[0::6]
            values = _ints(flat)
            if values is not None:
                return values
    # some line is faulty: check line by line to report the first fault
    values = []
    for line in arc_lines:
        _check_shape(text, line, "a", 6, "arc")
        values += _int_fields(text, line, 1, _ARC_NAMES)
    return values


def parse_instance(text: str) -> Instance:
    lines = _content_lines(text)
    if not lines:
        raise ParseError(_last_line(text), 1, "missing problem line")
    _check_shape(text, lines[0], "p", 7, "problem")
    lineno, tokens = lines[0]
    if tokens[1] != "recsp":
        _fail(text, lineno, 1, "problem type must be 'recsp'")
    names = ("node count", "arc count", "source", "sink", "k")
    n, m, source, sink, k = _int_fields(text, lines[0], 2, names)
    if m < 0:
        _fail(text, lineno, 3, "arc count must be >= 0")
    arc_lines = lines[1:]
    if len(arc_lines) != m:
        where = arc_lines[m][0] if len(arc_lines) > m else _last_line(text)
        raise ParseError(where, 1, f"expected {m} arc lines, found {len(arc_lines)}")
    values = _arc_values(text, arc_lines)
    graph = MultiDigraph(n, *(values[i::5] for i in range(5)))
    return Instance(graph, source, sink, k)


def serialize_instance(instance: Instance) -> str:
    graph = instance.graph
    lines = [
        f"p recsp {graph.node_count} {graph.arc_count} "
        f"{instance.source} {instance.sink} {instance.k}"
    ]
    columns = zip(graph.tail, graph.head, graph.first, graph.nominal, graph.deviation)
    lines += [f"a {t} {h} {c} {chat} {delta}" for t, h, c, chat, delta in columns]
    return "\n".join(lines) + "\n"


def parse_solution(text: str) -> Solution:
    lines = _content_lines(text)
    if len(lines) != 3:
        raise ParseError(
            _last_line(text), 1, f"expected 3 solution lines, found {len(lines)}"
        )
    _check_shape(text, lines[0], "s", 6, "summary")
    lineno, tokens = lines[0]
    if tokens[1] != "recsp":
        _fail(text, lineno, 1, "solution type must be 'recsp'")
    names = ("total cost", "first-stage cost", "second-stage cost", "divergence")
    total, first, second, divergence = _int_fields(text, lines[0], 2, names, wide=3)

    def arc_ids(line, head):
        lineno, tokens = line
        if tokens[0] != head:
            _fail(text, lineno, 0, f"expected {head!r} line")
        return tuple(_int_fields(text, line, 1, repeat("arc id")))

    return Solution(
        x_arcs=arc_ids(lines[1], "x"),
        y_arcs=arc_ids(lines[2], "y"),
        first_cost=first,
        second_cost=second,
        total_cost=total,
        divergence=divergence,
    )


def serialize_solution(solution: Solution) -> str:
    def id_line(head, ids):
        return " ".join([head] + [str(a) for a in ids])

    return (
        f"s recsp {solution.total_cost} {solution.first_cost} "
        f"{solution.second_cost} {solution.divergence}\n"
        f"{id_line('x', solution.x_arcs)}\n"
        f"{id_line('y', solution.y_arcs)}\n"
    )
