import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recsp.dispatch import solve
from recsp.errors import CyclicGraphError, ParseError, ValidationError
from recsp.generator import SplitMix64, generate_instance
from recsp.instance_io import (
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
    m = len(rows) - 1
    fault = draw(st.sampled_from(FAULTS))
    r = draw(st.integers(0, m))
    what, names = ("problem", PROBLEM_NAMES) if r == 0 else ("arc", ARC_NAMES)
    first = 2 if r == 0 else 1  # index of the row's first integer
    count = len(rows[r])
    field = draw(st.integers(first, count - 1))
    spot = None  # (row, token index) of the fault, when it is at a token
    if fault == "not integer":
        token = draw(st.sampled_from(["1.5", "0x10", "1_0", "++3"]))
        rows[r][field] = token
        spot = r, field
        message = f"{names[field - first]} must be an integer, got {token!r}"
    elif fault == "outside int64":
        rows[r][field] = draw(st.sampled_from([str(1 << 63), str(-(1 << 63) - 1), "9" * 5000]))
        spot = r, field
        message = f"{names[field - first]} outside the signed 64-bit range"
    elif fault == "missing field":
        del rows[r][field]
        spot = r, count - 2
        message = f"{what} line needs {count} fields, got {count - 1}"
    elif fault == "extra field":
        rows[r].insert(field, "7")
        spot = r, count
        message = f"{what} line needs {count} fields, got {count + 1}"
    elif fault == "wrong tag":
        rows[r][0] = draw(st.sampled_from(["b", "A", "ap", "a" if r == 0 else "p"]))
        spot = r, 0
        message = f"expected {what} line starting with {'p' if r == 0 else 'a'!r}"
    elif fault == "extra arc line":
        rows.insert(r + 1, ["a", "0", "1", "1", "1", "0"])
        message = f"expected {m} arc lines, found {m + 1}"
    else:
        del rows[max(r, 1)]
        message = f"expected {m} arc lines, found {m - 1}"
    text, where = _layout(draw, rows)
    if spot is not None:
        line, columns = where[spot[0]]
        return text, line, columns[spot[1]], message
    if fault == "extra arc line":
        return text, where[m + 1][0], 1, message
    return text, text.count("\n") + 1, 1, message


@settings(derandomize=True, max_examples=300, deadline=None)
@given(corrupted_instances())
def test_parse_errors_point_at_the_placed_fault(case):
    text, line, column, message = case
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert (err.value.line, err.value.column, err.value.message) == (line, column, message)
