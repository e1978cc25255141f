from recsp.csp import solve_csp
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


def test_infeasible_returns_none():
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
    """The least cost of a feasible path, by DFS, for cross-checking."""
    out = [[] for _ in range(node_count)]
    for tr in transitions:
        out[tr[0]].append(tr)
    best = None
    stack = [(source, 0, 0)]
    while stack:
        node, cost, used = stack.pop()
        if node == sink:
            if best is None or cost < best:
                best = cost
            continue
        for _, head, c, time, _ in out[node]:
            if used + time <= budget:
                stack.append((head, cost + c, used + time))
    return best


def test_matches_enumeration_on_random_instances():
    rng = SplitMix64(404)
    for trial in range(120):
        n = rng.randint(2, 7)
        m = rng.randint(1, 12)
        transitions = []
        for index in range(m):
            tail = rng.randint(0, n - 2)
            head = rng.randint(tail + 1, n - 1)
            transitions.append((tail, head, rng.randint(-10, 30),
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
            assert cost == want
            assert sum(tr[3] for tr in path) <= budget
            assert sum(tr[2] for tr in path) == cost
            assert all(tr in transitions for tr in path)
            # returned transitions chain from source to sink
            at = 0
            for tr in path:
                assert tr[0] == at
                at = tr[1]
            assert at == n - 1
