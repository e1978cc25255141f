import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recsp import instance_io
from recsp.dispatch import solve
from recsp.errors import CyclicGraphError, ParseError, RecspError, ValidationError
from recsp.generator import SplitMix64, generate_instance
from recsp.graph import Instance, MultiDigraph
from recsp.instance_io import (
    ARRAY_MIN_CHARS,
    parse_instance,
    parse_solution,
    serialize_instance,
    serialize_solution,
)
from recsp.oracle import solve_bruteforce
from recsp.solution import Solution

SAMPLE = """\
# two parallel arcs
p recsp 2 2 0 1 1
a 0 1 5 1 1
a 0 1 1 10 0
"""


def test_parse_sample_instance():
    inst = parse_instance(SAMPLE)
    assert inst.graph.node_count == 2
    assert inst.graph.arc_count == 2
    assert (inst.source, inst.sink, inst.k) == (0, 1, 1)
    arc = inst.graph.arcs[1]
    assert (arc.tail, arc.head, arc.first_cost, arc.nominal, arc.deviation) == \
        (0, 1, 1, 10, 0)


def test_instance_roundtrip_on_sample():
    inst = parse_instance(SAMPLE)
    assert parse_instance(serialize_instance(inst)) == inst


def test_instance_roundtrip_random():
    rng = SplitMix64(5005)
    for trial in range(30):
        for family in ("layered", "dag", "asp"):
            try:
                inst = generate_instance(family, rng.randint(0, 10**9),
                                         nodes=rng.randint(4, 9),
                                         arcs=rng.randint(10, 20),
                                         k=rng.randint(0, 3))
            except Exception:
                continue
            assert parse_instance(serialize_instance(inst)) == inst


def test_comments_and_blank_lines_ignored():
    noisy = "\n\n# header\n" + SAMPLE + "\n# trailing\n\n"
    assert parse_instance(noisy) == parse_instance(SAMPLE)


def test_parse_reports_line_and_column():
    bad = "p recsp 2 2 0 1 1\na 0 1 5 1 1\na 0 1 oops 10 0\n"
    with pytest.raises(ParseError) as err:
        parse_instance(bad)
    assert err.value.line == 3
    assert err.value.column == 7
    assert "integer" in err.value.message


def test_parse_rejects_missing_problem_line():
    with pytest.raises(ParseError):
        parse_instance("a 0 1 1 1 0\n")
    with pytest.raises(ParseError):
        parse_instance("# nothing here\n")


def test_parse_rejects_wrong_arc_count():
    with pytest.raises(ParseError) as err:
        parse_instance("p recsp 2 2 0 1 1\na 0 1 5 1 1\n")
    assert "arc lines" in err.value.message
    with pytest.raises(ParseError):
        parse_instance(SAMPLE + "a 0 1 1 1 0\n")


def test_parse_rejects_wrong_field_counts():
    with pytest.raises(ParseError):
        parse_instance("p recsp 2 2 0 1\na 0 1 5 1 1\na 0 1 1 10 0\n")
    with pytest.raises(ParseError):
        parse_instance("p recsp 2 1 0 1 1\na 0 1 5 1\n")


def test_parse_enforces_64_bit_range():
    big = 1 << 63
    with pytest.raises(ParseError) as err:
        parse_instance(f"p recsp 2 1 0 1 1\na 0 1 {big} 1 0\n")
    assert "64-bit" in err.value.message
    # the extremes themselves are fine
    inst = parse_instance(f"p recsp 2 1 0 1 1\na 0 1 {big - 1} {-big} 0\n")
    assert inst.graph.arcs[0].first_cost == big - 1
    assert inst.graph.arcs[0].nominal == -big


def test_parse_rejects_non_integer_tokens():
    for token in ("1.5", "0x10", "1_0", "++3", ""):
        text = f"p recsp 2 1 0 1 1\na 0 1 {token} 1 0\n"
        with pytest.raises(ParseError):
            parse_instance(text)


def test_semantic_errors_are_not_parse_errors():
    with pytest.raises(ValidationError):
        parse_instance("p recsp 2 1 0 1 1\na 0 1 1 1 -2\n")  # negative deviation
    with pytest.raises(ValidationError):
        parse_instance("p recsp 2 1 0 1 5\na 0 1 1 1 0\n")  # k out of range
    with pytest.raises(CyclicGraphError):
        parse_instance("p recsp 3 3 0 2 1\na 0 1 1 1 0\na 1 0 1 1 0\na 0 2 1 1 0\n")


def test_solution_roundtrip():
    sol = Solution(x_arcs=(0, 3), y_arcs=(1, 2), first_cost=4, second_cost=5,
                   total_cost=9, divergence=2)
    assert parse_solution(serialize_solution(sol)) == sol


def test_solution_roundtrip_from_solver():
    inst = parse_instance(SAMPLE)
    sol = solve_bruteforce(inst)
    assert parse_solution(serialize_solution(sol)) == sol


def test_solution_format_layout():
    sol = Solution(x_arcs=(1,), y_arcs=(0,), first_cost=1, second_cost=2,
                   total_cost=3, divergence=1)
    assert serialize_solution(sol) == "s recsp 3 1 2 1\nx 1\ny 0\n"


def test_parse_solution_rejects_bad_shapes():
    with pytest.raises(ParseError):
        parse_solution("s recsp 3 1 2 1\nx 1\n")
    with pytest.raises(ParseError):
        parse_solution("s recsp 3 1 2 1\ny 0\nx 1\n")
    with pytest.raises(ParseError):
        parse_solution("s recsp 3 1 2\nx 1\ny 0\n")
    with pytest.raises(ParseError):
        parse_solution("s recsp 3 1 2 1\nx 1\ny 0\nx 5\n")


def test_solution_costs_may_leave_int64_but_arc_ids_may_not():
    wide = 3 << 64
    sol = Solution(x_arcs=(0,), y_arcs=(1,), first_cost=-wide, second_cost=wide + 5,
                   total_cost=5, divergence=1)
    assert parse_solution(serialize_solution(sol)) == sol
    long = "9" * 5000
    cases = [
        (f"s recsp 1 {long} 2 1\nx 1\ny 0\n", 1, 11, "first-stage cost has too many digits"),
        (f"s recsp 3 1 2 {1 << 63}\nx 1\ny 0\n", 1, 15, "divergence outside the signed 64-bit range"),
        (f"s recsp 3 1 2 1\nx 1 {long}\ny 0\n", 2, 5, "arc id outside the signed 64-bit range"),
        (f"s recsp 3 1 2 1\nx 1\ny -{long}\n", 3, 3, "arc id outside the signed 64-bit range"),
    ]
    for text, line, column, message in cases:
        with pytest.raises(ParseError) as err:
            parse_solution(text)
        assert (err.value.line, err.value.column, err.value.message) == (line, column, message)


def test_parse_keeps_the_separators_and_digits_it_accepts():
    # str.split() and str.splitlines() rules: any Unicode whitespace
    # separates fields, \r\n and \x1c end lines, and a Unicode decimal
    # digit counts as its value
    expected = parse_instance(SAMPLE)
    assert parse_instance(SAMPLE.replace("\n", "\r\n")) == expected
    assert parse_instance(SAMPLE.replace("\n", "\x1c")) == expected
    assert parse_instance(SAMPLE.replace(" ", "\u00a0")) == expected
    assert parse_instance(SAMPLE.replace("5", "\u0665")) == expected


_INTS_RE = re.compile(r"[+-]?\d+(?: [+-]?\d+)*")


def _ints_by_regex(tokens):
    """The tokens as ints if the joined text matches a regular expression
    of integers, as the parser checked them before."""
    if not _INTS_RE.fullmatch(" ".join(tokens)):
        return None
    try:
        return list(map(int, tokens))
    except ValueError:
        return None


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(st.lists(st.text("0123456789\u0663\u06f5\U0001d7d9+-_\u00b2\u00b3xeaI", min_size=1,
                        max_size=6), min_size=1, max_size=4))
@example(["1_0"])
@example(["\u0663", "\u00b2", "\U0001d7d9"])
@example(["+", "0x1", "1e3"])
@example(["1" * 20, "-" + "9" * 20])
def test_integer_tokens_are_read_as_the_regular_expression_reads_them(tokens):
    # every token may leave int64 here; the range is checked apart
    assert instance_io._ints(tokens, len(tokens)) == _ints_by_regex(tokens)


def test_parse_and_solve_build_no_arc_views():
    for family in ("asp", "layered", "dag"):
        inst = generate_instance(family, 3, nodes=8, arcs=16, k=2)
        parsed = parse_instance(serialize_instance(inst))
        serialize_solution(solve(parsed))
        assert "arcs" not in parsed.graph.__dict__


PROBLEM_NAMES = ("node count", "arc count", "source", "sink", "k")
ARC_NAMES = ("tail", "head", "first-stage cost", "nominal cost", "deviation")
FAULTS = ("not integer", "outside int64", "missing field", "extra field", "wrong tag",
          "extra arc line", "missing arc line")


def _layout(draw, rows):
    """Text of the token rows with blank and comment lines between them.

    Returns the text and, for each row, its line number and the 1-based
    column of each of its tokens.
    """
    lines, where = [], []
    for tokens in rows:
        for _ in range(draw(st.integers(0, 2))):
            lines.append(draw(st.sampled_from(["", "  ", "\t", "# note", "  #a 0 1 2 3 4"])))
        line, columns = draw(st.sampled_from(["", " ", "\t "])), []
        for i, token in enumerate(tokens):
            if i:
                line += draw(st.sampled_from([" ", "  ", "\t", "\u00a0"]))
            columns.append(len(line) + 1)
            line += token
        lines.append(line)
        where.append((len(lines), columns))
    lines += draw(st.lists(st.sampled_from(["", "# end"]), max_size=2))
    return "\n".join(lines) + "\n", where


def _place_fault(draw, rows):
    """Put one fault into the token rows of a serialized instance.

    Returns the message it must raise and where: (row, token index) for a
    fault at a token, (row, None) for column 1 of a row, or None for
    column 1 of the line after the last.
    """
    m = len(rows) - 1
    fault = draw(st.sampled_from(FAULTS))
    r = draw(st.integers(0, m))
    what, names = ("problem", PROBLEM_NAMES) if r == 0 else ("arc", ARC_NAMES)
    first = 2 if r == 0 else 1  # index of the row's first integer
    count = len(rows[r])
    field = draw(st.integers(first, count - 1))
    if fault == "not integer":
        token = draw(st.sampled_from(["1.5", "0x10", "1_0", "++3"]))
        rows[r][field] = token
        return f"{names[field - first]} must be an integer, got {token!r}", (r, field)
    if fault == "outside int64":
        rows[r][field] = draw(st.sampled_from([str(1 << 63), str(-(1 << 63) - 1), "9" * 5000]))
        return f"{names[field - first]} outside the signed 64-bit range", (r, field)
    if fault == "missing field":
        del rows[r][field]
        return f"{what} line needs {count} fields, got {count - 1}", (r, count - 2)
    if fault == "extra field":
        rows[r].insert(field, "7")
        return f"{what} line needs {count} fields, got {count + 1}", (r, count)
    if fault == "wrong tag":
        rows[r][0] = draw(st.sampled_from(["b", "A", "ap", "a" if r == 0 else "p"]))
        return f"expected {what} line starting with {'p' if r == 0 else 'a'!r}", (r, 0)
    if fault == "extra arc line":
        rows.insert(r + 1, ["a", "0", "1", "1", "1", "0"])
        return f"expected {m} arc lines, found {m + 1}", (m + 1, None)
    del rows[max(r, 1)]
    return f"expected {m} arc lines, found {m - 1}", None


def _expected(text, where, spot, message, last_line):
    """(text, line, column, message) of a fault placed by _place_fault."""
    if spot is None:
        return text, last_line, 1, message
    line, columns = where[spot[0]]
    return text, line, 1 if spot[1] is None else columns[spot[1]], message


@st.composite
def corrupted_instances(draw):
    """(text, line, column, message): a serialized random instance with one
    fault placed at a known line and column."""
    if draw(st.booleans()):
        inst = generate_instance("asp", draw(st.integers(0, 10**6)),
                                 arcs=draw(st.integers(1, 10)), k=1)
    else:
        n = draw(st.integers(2, 6))
        inst = generate_instance("dag", draw(st.integers(0, 10**6)),
                                 nodes=n, arcs=2 * n, k=1)
    rows = [line.split() for line in serialize_instance(inst).splitlines()]
    message, spot = _place_fault(draw, rows)
    text, where = _layout(draw, rows)
    return _expected(text, where, spot, message, text.count("\n") + 1)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(corrupted_instances())
def test_parse_errors_point_at_the_placed_fault(case):
    text, line, column, message = case
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert (err.value.line, err.value.column, err.value.message) == (line, column, message)


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r", "\x0b", "\x1c"])
def test_count_errors_name_the_last_line_at_every_line_end(end):
    # the line after a final line end counts, as str.splitlines() counts
    cases = [
        (parse_instance, f"# nothing{end}{end}", "missing problem line"),
        (parse_instance, f"p recsp 3 2 0 2 1{end}a 0 1 1 1 0{end}",
         "expected 2 arc lines, found 1"),
        (parse_solution, f"s recsp 3 1 2 1{end}x 1{end}", "expected 3 solution lines, found 2"),
    ]
    for parse, text, message in cases:
        for body, line in ((text, 3), (text[:-len(end)], 2)):
            with pytest.raises(ParseError) as err:
                parse(body)
            assert (err.value.line, err.value.column, err.value.message) == (line, 1, message)


# within a line: every ASCII whitespace byte that str.splitlines() does not
# end a line at; then every line end it knows among ASCII bytes
SPACES = [" ", "\t", "\x1f", "  ", " \t\x1f "]
LINE_ENDS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]
NOISE_LINES = ["", "  ", "\t\x1f", "#", "# note", "  #a 0 1 2 3 4", "\x1f#\x00 p recsp"]
COSTS = ["0", "-0", "+0", "7", "-7", "+12", "007", "-0042", "9" * 18, "-" + "9" * 18,
         "+" + "1" * 18, "0" * 17 + "5"]
WIDE_COSTS = [str((1 << 63) - 1), str(-(1 << 63)), str(-(1 << 63) + 1), "+" + str((1 << 63) - 1),
              "0" * 18 + "1", "-" + "0" * 17 + "123"]  # 19 digits or more


def _node(rng, v):
    forms = [str(v), "0" * rng.randint(1, 4) + str(v), "+" + str(v)]
    return rng.choice(forms + ["-0", "-000"] if v == 0 else forms)


@st.composite
def long_texts(draw):
    """(text, wide): a path instance of valid arc lines in every layout
    the formats allow, at least ARRAY_MIN_CHARS long; ``wide`` when some
    number has 20 digits or more, or is outside int64."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    m = draw(st.integers(60, 160))
    # "ascii" texts are the byte scan's to read; the others it leaves
    kind = draw(st.sampled_from(["ascii", "ascii", "ascii", "wide", "unicode"]))
    costs = COSTS + (WIDE_COSTS if kind == "wide" else [])
    ends = draw(st.lists(st.sampled_from(LINE_ENDS), min_size=1, max_size=4))
    noise = draw(st.sampled_from([0.0, 0.1, 0.5]))
    rows = [["p", "recsp", str(m + 1), str(m), "0", str(m), str(rng.randint(0, 3))]]
    for i in range(m):
        deviation = rng.choice([c for c in costs if not c.startswith("-") or c == "-0"])
        rows.append(["a", _node(rng, i), _node(rng, i + 1), rng.choice(costs),
                     rng.choice(costs), deviation])
    lines = []
    for row in rows:
        while rng.random() < noise:
            lines.append(rng.choice(NOISE_LINES))
        tokens = iter(row)
        line = rng.choice(["", "", " ", "\t"]) + next(tokens)
        for token in tokens:
            line += rng.choice(SPACES) + token
        lines.append(line + rng.choice(["", "", " ", "\x1f"]))
    text = "".join(line + rng.choice(ends) for line in lines)
    if len(text) < ARRAY_MIN_CHARS:
        text += "#" * (ARRAY_MIN_CHARS - len(text)) + rng.choice(ends)
    if kind == "unicode":
        text = draw(st.sampled_from([
            text.replace("\t", "\u00a0"), text.replace(" ", "\u2003", 3),
            text.replace("5", "\u0665"), text.replace("\r", "\u2028"),
        ]))
    numbers = [token for row in rows[1:] for token in row[1:]]
    return text, any(len(token.lstrip("+-")) > 19 or not -(1 << 63) <= int(token) < 1 << 63
                     for token in numbers)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(long_texts())
def test_byte_scan_reads_what_the_line_parse_reads(case):
    text, wide = case
    assert len(text) >= ARRAY_MIN_CHARS
    assert parse_instance(text) == instance_io._parse_lines(text)
    if text.isascii():
        assert (instance_io._scan_bytes(text) is None) == wide


@pytest.mark.parametrize("cost", [str((1 << 63) - 1), str(-(1 << 63)), str(1 << 63),
                                  str(-(1 << 63) - 1), "0" * 18 + "1"])
def test_byte_scan_reads_19_digits_within_int64(cost):
    # the scan reads the int64 ends and 19 digits with leading zeros as
    # the line parse does, and leaves a number past either end to it
    rows = serialize_instance(generate_instance("asp", 3, arcs=120, k=3)).splitlines()
    tokens = rows[1].split()
    tokens[3] = cost  # the first arc's first-stage cost
    text = "\n".join([rows[0], " ".join(tokens), *rows[2:]]) + "\n"
    assert len(text) >= ARRAY_MIN_CHARS
    inside = -(1 << 63) <= int(cost) < 1 << 63
    scanned = instance_io._scan_bytes(text)
    assert (scanned is not None) == inside
    if inside:
        assert scanned[1][2, 0] == int(cost)
        assert parse_instance(text) == instance_io._parse_lines(text)
    else:
        with pytest.raises(ParseError):
            parse_instance(text)


def test_byte_scan_reads_a_layered_file_of_19_digit_costs():
    # a layered-40 instance with every cost times 2**55: 19-digit costs,
    # past the layered solve's int64 guard
    made = generate_instance("layered", 7, nodes=200, arcs=800, k=5, layers=40)
    g = made.graph
    costs = ([c << 55 for c in column] for column in (g.first, g.nominal, g.deviation))
    inst = Instance(MultiDigraph(g.node_count, g.tail, g.head, *costs), made.source, made.sink,
                    made.k)
    text = serialize_instance(inst)
    assert max(len(token.lstrip("-")) for token in text.split()) == 19
    assert instance_io._scan_bytes(text) is not None
    assert parse_instance(text) == instance_io._parse_lines(text) == inst


@st.composite
def long_corrupted_instances(draw):
    """(text, line, column, message): corrupted_instances' faults placed in
    an asp instance of 300 arcs or more, laid out in ASCII."""
    inst = generate_instance("asp", draw(st.integers(0, 10**6)),
                             arcs=draw(st.integers(300, 400)), k=1)
    rows = [line.split() for line in serialize_instance(inst).splitlines()]
    message, spot = _place_fault(draw, rows)
    rng = random.Random(draw(st.integers(0, 2**32)))
    end = draw(st.sampled_from(LINE_ENDS))
    lines, where = [], []
    for tokens in rows:
        if rng.random() < 0.2:
            lines.append(rng.choice(NOISE_LINES))
        line, columns = rng.choice(["", " ", "\t\x1f"]), []
        for i, token in enumerate(tokens):
            if i:
                line += rng.choice(SPACES)
            columns.append(len(line) + 1)
            line += token
        lines.append(line)
        where.append((len(lines), columns))
    text = end.join(lines) + end
    assert len(text) >= ARRAY_MIN_CHARS
    return _expected(text, where, spot, message, len(lines) + 1)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(long_corrupted_instances())
def test_parse_errors_point_at_the_placed_fault_in_long_texts(case):
    text, line, column, message = case
    instance_io._scan_bytes(text)  # gives up on faults, never raises
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert (err.value.line, err.value.column, err.value.message) == (line, column, message)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(long_texts(), st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 127)),
                              min_size=1, max_size=3))
def test_byte_scan_and_line_parse_fail_alike_on_stray_bytes(case, strays):
    text = case[0]
    for spot, byte in strays:
        spot %= len(text)
        text = text[:spot] + chr(byte) + text[spot + 1:]
    outcomes = []
    for parse in (parse_instance, instance_io._parse_lines):
        try:
            outcomes.append(parse(text))
        except RecspError as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]


def test_long_ascii_texts_skip_the_str_tokens(monkeypatch):
    big = serialize_instance(generate_instance("layered", 1, nodes=200, arcs=800, k=5, layers=40))
    small = serialize_instance(generate_instance("asp", 1, arcs=30, k=1))
    small += "#" * (1023 - len(small)) + "\n"
    assert len(small) == 1024 < ARRAY_MIN_CHARS <= len(big)
    expected = parse_instance(big)

    def refuse(text):
        raise AssertionError("split into str tokens")

    monkeypatch.setattr(instance_io, "_content_lines", refuse)
    assert parse_instance(big) == expected
    with pytest.raises(AssertionError, match="str tokens"):
        parse_instance(small)
