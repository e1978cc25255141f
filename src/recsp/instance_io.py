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

An instance is read one of two ways, to the same result.  An ASCII
text of at least ``ARRAY_MIN_CHARS`` characters is scanned as one numpy
array of its bytes: token and line edges, then the arc numbers of all
lines at once, with no ``str`` per token.  That scan takes only what is
plainly valid (int64 arc numbers of up to 19 digits, for one) and otherwise
gives up without raising.  Shorter texts, and the ones it gives up on,
are split line by line into ``str`` tokens, whose arc lines are still
checked and converted all at once; a line is looked at on its own only
to report a fault in it, so every ParseError comes from this path.
Both fill the graph's columns directly: the scan as int64 arrays, the
line parse as lists.
"""
from __future__ import annotations

import re
from itertools import chain, repeat

import numpy as np

from .errors import ParseError
from .graph import Instance, MultiDigraph
from .solution import Solution

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1
_INT_RE = re.compile(r"[+-]?\d+")
_ARC_NAMES = ("tail", "head", "first-stage cost", "nominal cost", "deviation")

# Texts this long or longer are scanned as bytes.  The scan has a fixed
# cost of some 40 numpy calls; reading only the tokens and numbers of
# generated instances (median of 9 files each, 2 vCPU Xeon, Python 3.11,
# numpy 2.4) it took 233 us against 219 us split by line at 1.3 KB,
# 257 against 271 us at 1.6 KB, and 2.1 against 12.7 ms at 98 KB.
ARRAY_MIN_CHARS = 1500
# at most 19 digits, so that every number the byte scan reads fits in uint64
_MAX_DIGITS = 19
_POW10 = 10 ** np.arange(_MAX_DIGITS, dtype=np.uint64)


def _content_lines(text: str):
    """(line_number, tokens) for each line that is neither blank nor a comment.

    Tokens are the runs of non-whitespace characters; a comment line is
    one whose first token starts with ``#``.
    """
    lines = enumerate(map(str.split, text.splitlines()), start=1)
    return [(lineno, tokens) for lineno, tokens in lines if tokens and tokens[0][0] != "#"]


def _last_line(text: str) -> int:
    """Number of the last line, counting the empty one after a final line
    end, with the line ends ``str.splitlines`` knows."""
    return len((text + "x").splitlines())


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
    # int() takes a token with no whitespace, as every str.split token is,
    # exactly when it matches _INT_RE or has underscores between its digits
    if "_" in " ".join(tokens):
        return None
    try:
        values = list(map(int, tokens))
    except ValueError:  # not an integer, or longer than int() converts
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
        if not _INT_RE.fullmatch(token):
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


def _problem(text: str, line) -> list[int]:
    """Node count, arc count, source, sink and k of the problem line."""
    _check_shape(text, line, "p", 7, "problem")
    lineno, tokens = line
    if tokens[1] != "recsp":
        _fail(text, lineno, 1, "problem type must be 'recsp'")
    names = ("node count", "arc count", "source", "sink", "k")
    values = _int_fields(text, line, 2, names)
    if values[1] < 0:
        _fail(text, lineno, 3, "arc count must be >= 0")
    return values


def _parse_lines(text: str) -> Instance:
    """The instance read line by line from ``str`` tokens; raises
    ParseError at the first fault."""
    lines = _content_lines(text)
    if not lines:
        raise ParseError(_last_line(text), 1, "missing problem line")
    n, m, source, sink, k = _problem(text, lines[0])
    arc_lines = lines[1:]
    if len(arc_lines) != m:
        where = arc_lines[m][0] if len(arc_lines) > m else _last_line(text)
        raise ParseError(where, 1, f"expected {m} arc lines, found {len(arc_lines)}")
    values = _arc_values(text, arc_lines)
    graph = MultiDigraph(n, *(values[i::5] for i in range(5)))
    return Instance(graph, source, sink, k)


def _scan_bytes(text: str):
    """(problem line, arc columns) of an ASCII text, read from its bytes.

    The arc columns are the rows of one int64 array of shape (5, arcs).

    The problem line comes back as ``(line number, tokens)`` for
    ``_problem`` to check; the arc lines are checked and converted here.
    Returns None, and never raises, for anything else: no first content
    line of 7 tokens, an arc line of other than 6 tokens or not tagged
    ``a``, a number that is not ``[+-]?[0-9]{1,19}`` or is outside int64.
    The caller then parses the text line by line.
    """
    data = np.frombuffer(text.encode("ascii"), np.uint8)
    # str.split() separators: \t \n \v \f \r, \x1c-\x1f and space;
    # comparisons, since a 256-entry table gather takes 30 times as long
    blank = (data == 32) | (data - 9 <= 4) | (data - 28 <= 3)
    edges = np.flatnonzero(np.diff(blank, prepend=True, append=True)).astype(np.int32)
    del blank
    starts, ends = edges[0::2], edges[1::2]
    # str.splitlines() boundaries: \n \v \f \r and \x1c-\x1e, \r\n as one
    breaks = (data - 10 <= 3) | (data - 28 <= 2)
    breaks[1:] &= (data[1:] != 10) | (data[:-1] != 13)
    breaks = np.flatnonzero(breaks).astype(np.int32)
    # the first token of each line that has one, and its token count
    heads = np.zeros(len(starts) + 1, bool)
    heads[np.searchsorted(starts, breaks)] = True
    heads[0] = True
    heads = np.flatnonzero(heads[:-1]).astype(np.int32)
    counts = np.diff(heads, append=len(starts))
    content = data[starts[heads]] != 35  # a line whose first token starts with '#'
    lines = np.flatnonzero(content)
    if not len(lines) or counts[lines[0]] != 7 or (counts[lines[1:]] != 6).any():
        return None
    first = heads[lines[0]]
    problem = (int(np.searchsorted(breaks, starts[first])) + 1,
               [text[s:e] for s, e in zip(starts[first:first + 7].tolist(),
                                          ends[first:first + 7].tolist())])
    content[:lines[0] + 1] = False  # now marks the arc lines only
    arcs = np.repeat(content, counts)
    starts, ends = starts[arcs].reshape(-1, 6), ends[arcs].reshape(-1, 6)
    if (ends[:, 0] - starts[:, 0] != 1).any() or (data[starts[:, 0]] != 97).any():
        return None
    # the numbers, column by column: an optional sign, then 1 to 19 digits
    begin, end = starts[:, 1:].T.ravel(), ends[:, 1:].T.ravel()
    sign = data[begin]
    negative = sign == 45
    width = end - begin - (negative | (sign == 43))
    if len(width) and not 1 <= width.min() <= width.max() <= _MAX_DIGITS:
        return None
    # digit times 10**place, summed one place at a time from the right
    values = np.zeros(len(width), np.uint64)
    end -= 1
    for place in range(width.max() if len(width) else 0):
        digits = data[end] - np.uint8(48)  # a byte below '0' wraps past 9
        digits *= width > place
        if digits.max() > 9:
            return None
        values += digits * _POW10[place]
        end -= 1
    if (values > np.uint64(_INT64_MAX) + negative).any():
        return None
    values = values.view(np.int64)  # -2**63 negates to itself
    np.negative(values, out=values, where=negative)
    return problem, values.reshape(5, -1)


def parse_instance(text: str) -> Instance:
    # the scan keeps byte positions in int32
    if ARRAY_MIN_CHARS <= len(text) < 1 << 31 and text.isascii():
        scanned = _scan_bytes(text)
        if scanned is not None:
            line, columns = scanned
            n, m, source, sink, k = _problem(text, line)
            if m == columns.shape[1]:
                return Instance(MultiDigraph(n, *columns), source, sink, k)
    return _parse_lines(text)


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
