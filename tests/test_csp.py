from itertools import accumulate

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from recsp.csp import run_starts, solve_csp, solve_levels
from recsp.generator import SplitMix64


def test_budget_forces_costlier_route():
    # cheap route needs 2 time units, expensive one none
    transitions = [
        (0, 1, 1, 1, None),
        (0, 2, 10, 0, None),
        (1, 2, 1, 1, None),
    ]
    tight_cost, tight = solve_csp(3, transitions, 0, 2, 0)
    assert tight_cost == 10 and sum(tr[3] for tr in tight) == 0
    loose_cost, loose = solve_csp(3, transitions, 0, 2, 2)
    assert loose_cost == 2 and sum(tr[3] for tr in loose) == 2
    assert [tr[0] for tr in loose] == [0, 1]


def test_out_of_reach_sink_returns_none():
    assert solve_csp(2, [(0, 1, 1, 3, None)], 0, 1, 2) is None
    assert solve_csp(3, [], 0, 2, 5) is None


def test_empty_path_when_source_is_sink():
    assert solve_csp(2, [(0, 1, 1, 0, None)], 0, 0, 0) == (0, [])


def test_negative_costs_allowed():
    transitions = [(0, 1, 5, 0, None), (0, 2, 0, 0, None), (1, 2, -9, 1, None)]
    assert solve_csp(3, transitions, 0, 2, 1)[0] == -4
    assert solve_csp(3, transitions, 0, 2, 0)[0] == 0


def test_equal_cost_tie_uses_less_time():
    transitions = [(0, 1, 3, 2, None), (0, 1, 3, 1, None)]
    cost, path = solve_csp(2, transitions, 0, 1, 2)
    assert cost == 3
    assert path == [(0, 1, 3, 1, None)]


def _enumerate_csp(transitions, node_count, source, sink, budget):
    """``(cost, time)``, the least cost of a feasible path and the least
    time among the paths of that cost, by DFS, for cross-checking; None
    when no path is feasible."""
    out = [[] for _ in range(node_count)]
    for tr in transitions:
        out[tr[0]].append(tr)
    best = None
    stack = [(source, 0, 0)]
    while stack:
        node, cost, used = stack.pop()
        if node == sink:
            if best is None or (cost, used) < best:
                best = cost, used
            continue
        for _, head, c, time, _ in out[node]:
            if used + time <= budget:
                stack.append((head, cost + c, used + time))
    return best


def test_matches_enumeration_on_random_instances():
    # the first trials draw costs in -10..30; the rest in -2..2, so that
    # paths of one cost and different times are common
    rng = SplitMix64(404)
    for trial in range(360):
        n = rng.randint(2, 7)
        m = rng.randint(1, 12)
        low, high = (-10, 30) if trial < 120 else (-2, 2)
        transitions = []
        for index in range(m):
            tail = rng.randint(0, n - 2)
            head = rng.randint(tail + 1, n - 1)
            transitions.append((tail, head, rng.randint(low, high),
                                rng.randint(0, 3), index))
        # heads follow tails in id order, so grouping by tail suffices
        transitions.sort(key=lambda tr: tr[0])
        budget = rng.randint(0, 4)
        want = _enumerate_csp(transitions, n, 0, n - 1, budget)
        got = solve_csp(n, transitions, 0, n - 1, budget)
        if want is None:
            assert got is None
        else:
            cost, path = got
            assert (cost, sum(tr[3] for tr in path)) == want
            assert sum(tr[3] for tr in path) <= budget
            assert sum(tr[2] for tr in path) == cost
            assert all(tr in transitions for tr in path)
            # returned transitions chain from source to sink
            at = 0
            for tr in path:
                assert tr[0] == at
                at = tr[1]
            assert at == n - 1


@st.composite
def leveled_transitions(draw):
    """Transitions as ``solve_levels`` requires them: nodes numbered level
    by level, the source (node 0) alone on the lowest and the sink (the
    last node) alone on the highest, level 5 at most; every other node
    fed, the transitions listed by head, each from a lower level with a
    time within the budget.  Tails repeat within a head, costs are small,
    so that minima tie, times may be 0, and through the budget the sink
    may be out of reach."""
    widths = [1, *draw(st.lists(st.integers(1, 3), max_size=4)), 1]
    starts = list(accumulate(widths, initial=0))
    budget = draw(st.integers(0, 4))
    rows = []
    for level in range(1, len(widths)):
        for head in range(starts[level], starts[level + 1]):
            for tail in draw(st.lists(st.integers(0, starts[level] - 1), min_size=1, max_size=4)):
                rows.append((tail, head, draw(st.integers(-6, 6)), draw(st.integers(0, budget))))
    return starts, rows, budget


@settings(derandomize=True, database=None, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(leveled_transitions(), st.sampled_from((1, 1 << 56)))
@example(([0, 1, 2, 3], [(0, 1, 2, 1), (0, 1, 2, 0), (0, 1, 1, 1), (1, 2, 0, 1), (0, 2, 3, 0)],
          1), 1)
@example(([0, 1, 2, 3], [(0, 1, 0, 1), (0, 1, 5, 1), (1, 2, 0, 1)], 1), 1)
def test_level_kernel_finds_the_list_kernels_path(drawn, scale):
    # a chain climbs at most five levels, so at 2**56 its costs sum to at
    # most 30 * 2**56, just below LEVEL_LIMIT: the top of the kernel's range
    starts, rows, budget = drawn
    transitions = [(i, j, c * scale, l, r) for r, (i, j, c, l) in enumerate(rows)]
    want = solve_csp(starts[-1], transitions, 0, starts[-1] - 1, budget)
    tail, head, _, time = (np.array(column, dtype=np.intp) for column in zip(*rows))
    cost = np.array([c * scale for _, _, c, _ in rows], dtype=np.int64)
    got = solve_levels(starts, tail, head, cost, time, budget)
    if want is None:
        assert got is None
    else:
        assert got is not None and got[0] == want[0]
        assert [transitions[r] for r in got[1]] == want[1]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.sampled_from((np.int64, np.uint16)), st.integers(0, 5),
       st.lists(st.integers(0, 3), max_size=40))
@example(np.int64, 3, [])
@example(np.uint16, 3, [2])
@example(np.int64, 0, [1, 2, 3])
def test_run_starts_finds_every_run_of_equal_keys(dtype, top, draws):
    """``run_starts`` against a scan, on sorted keys: empty, one key, all
    equal (``top = 0``) and runs of every length."""
    key = np.sort(np.array([min(d, top) for d in draws], dtype=dtype))
    starts = run_starts(key)
    assert starts.tolist() == [i for i in range(len(key)) if i == 0 or key[i] != key[i - 1]]
