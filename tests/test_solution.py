import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recsp.errors import ValidationError
from recsp.graph import Instance, MultiDigraph
from recsp.instance_io import ARRAY_MIN_CHARS, parse_instance, serialize_instance
from recsp.oracle import enumerate_st_paths
from recsp.solution import Solution, build_solution, verify_solution


def diamond(k):
    g = MultiDigraph.from_rows(4, [
        (0, 1, 0, 10, 0), (1, 3, 0, 10, 0),
        (0, 2, 10, 0, 0), (2, 3, 10, 0, 0),
    ])
    return Instance(g, 0, 3, k)


def test_build_solution_fields():
    inst = diamond(2)
    sol = build_solution(inst, (0, 1), (2, 3))
    assert sol.first_cost == 0
    assert sol.second_cost == 0
    assert sol.total_cost == 0
    assert sol.divergence == 2
    same = build_solution(inst, (0, 1), (0, 1))
    assert same.total_cost == 20 and same.divergence == 0


def test_build_solution_rejects_bad_paths_and_budget():
    inst = diamond(1)
    with pytest.raises(ValidationError):
        build_solution(inst, (0,), (0, 1))  # X stops before the sink
    with pytest.raises(ValidationError):
        build_solution(inst, (0, 1), (2, 3))  # divergence 2 > k


def test_verify_accepts_consistent_solution():
    inst = diamond(2)
    sol = build_solution(inst, (0, 1), (2, 3))
    result = verify_solution(inst, sol)
    assert result.accepted and result.reason is None


def test_verify_rejects_in_declared_order():
    inst = diamond(2)
    good = build_solution(inst, (0, 1), (2, 3))

    bad = dataclasses.replace(good, x_arcs=(0,))
    assert "first-stage path" in verify_solution(inst, bad).reason

    bad = dataclasses.replace(good, y_arcs=(2, 1))
    assert "recovery path" in verify_solution(inst, bad).reason

    tight = dataclasses.replace(inst, k=1)
    assert "budget" in verify_solution(tight, good).reason

    bad = dataclasses.replace(good, divergence=1)
    assert "divergence field" in verify_solution(inst, bad).reason

    bad = dataclasses.replace(good, first_cost=good.first_cost + 1)
    assert "first-stage cost" in verify_solution(inst, bad).reason

    bad = dataclasses.replace(good, second_cost=good.second_cost - 1)
    assert "second-stage cost" in verify_solution(inst, bad).reason

    bad = dataclasses.replace(good, total_cost=good.total_cost + 1)
    assert "total cost" in verify_solution(inst, bad).reason


def test_verify_rejects_arc_swap_that_breaks_cost():
    # swapping Y to the other route changes second-stage cost and divergence
    inst = diamond(2)
    sol = build_solution(inst, (0, 1), (0, 1))
    bad = dataclasses.replace(sol, y_arcs=(2, 3))
    result = verify_solution(inst, bad)
    assert not result.accepted
    assert "divergence" in result.reason


def _broken(draw, path, m):
    """``path`` as drawn, kept half the time; else truncated, reversed or
    with an arc id out of range."""
    fault = draw(st.sampled_from(["none"] * 3 + ["truncated", "reversed", "out of range"]))
    if fault == "truncated":
        return path[:draw(st.integers(0, len(path) - 1))]
    if fault == "reversed":
        return path[::-1]
    if fault == "out of range":
        at = draw(st.integers(0, len(path) - 1))
        return path[:at] + (draw(st.sampled_from([-1, m, m + 3])),) + path[at + 1:]
    return path


@st.composite
def stage_pairs(draw):
    """An instance in either graph form and two arc-id sequences drawn from
    its s-t paths, some broken, with some budgets below their divergence."""
    n = draw(st.integers(3, 7))
    rows = [(v, v + 1, draw(st.integers(-3, 5)), draw(st.integers(-3, 5)),
             draw(st.integers(0, 3))) for v in range(n - 1)]
    for _ in range(draw(st.integers(0, 10))):
        tail = draw(st.integers(0, n - 2))
        rows.append((tail, draw(st.integers(tail + 1, n - 1)), draw(st.integers(-3, 5)),
                     draw(st.integers(-3, 5)), draw(st.integers(0, 3))))
    graph = MultiDigraph.from_rows(n, rows)
    paths = enumerate_st_paths(graph, 0, n - 1)
    x = _broken(draw, draw(st.sampled_from(paths)), len(rows))
    y = _broken(draw, draw(st.sampled_from(paths)), len(rows))
    diverge = len(set(y) - set(x))
    if diverge and draw(st.booleans()):
        k = draw(st.integers(0, diverge - 1))
    else:
        k = draw(st.integers(0, n - 1))
    instance = Instance(graph, 0, n - 1, k)
    if draw(st.booleans()):
        # comment lines make the text long enough for the byte scan
        text = "#\n" * (ARRAY_MIN_CHARS // 2) + serialize_instance(instance)
        instance = parse_instance(text)
        assert "_arrays" in instance.graph.__dict__
    return instance, x, y


FIELD_CHECKS = ("divergence field", "first-stage cost", "second-stage cost", "total cost")


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(stage_pairs())
def test_build_raises_the_reason_verify_gives(drawn):
    # build_solution raises ValidationError(m) exactly when verify_solution
    # rejects the same pair for a path or the budget with reason m;
    # otherwise what it builds is accepted
    instance, x, y = drawn
    claimed = verify_solution(instance, Solution(x, y, 0, 0, 0, 0))
    try:
        built = build_solution(instance, x, y)
    except ValidationError as error:
        assert not claimed.accepted and claimed.reason == str(error)
    else:
        assert claimed.accepted or claimed.reason.startswith(FIELD_CHECKS)
        assert verify_solution(instance, built).accepted
