"""Differential tests: every applicable solver against the oracle.

Hypothesis draws small acyclic multigraphs (random DAGs with dangling
nodes, layered graphs with off-path stubs, series-parallel graphs among
them long chains and wide bundles) with negative costs, parallel arcs
and, in some draws, costs on either side of the asp kernel's int64 guard.
Each graph is solved for every budget 0 <= k < n, which covers k at and
beyond the longest source-sink path; where asp applies, its exact root
arrays must also equal the oracle's.  On layered graphs the layered
columns and the dag reduction must list the same transitions, and both
layered kernels must match the oracle, also with costs scaled past
int64.  A last property forces asp's array rounds onto these small
graphs and onto nested alternations, and checks them against the oracle
and against the queue reduction alone, also with costs scaled past the
asp guard.  Relabelling the nodes at random, so that the topological
order is no longer id order, changes no total.
"""
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from recsp import asp, reduction
from recsp.asp import ASP_INF, decompose, root_values
from recsp.dispatch import solve
from recsp.errors import NotLayeredError, NotSeriesParallelError
from recsp.generator import generate_instance
from recsp.graph import Instance, MultiDigraph
from recsp.instance_io import serialize_solution
from recsp.oracle import bruteforce_root_values, solve_bruteforce
from recsp.reduction import build_dag_reduction, build_layered_reduction, layered_columns
from recsp.solution import verify_solution

COSTS = st.integers(-20, 20)
DEVIATIONS = st.integers(0, 10)


def _row(draw, tail, head):
    return (tail, head, draw(COSTS), draw(COSTS), draw(DEVIATIONS))


@st.composite
def random_dags(draw):
    """Arcs go forward in a shuffled node order; an s-t backbone keeps the
    sink reachable and the other arcs may dangle off every s-t path."""
    n = draw(st.integers(2, 7))
    label = draw(st.permutations(range(n)))
    inner = []
    if n > 2:
        inner = draw(st.lists(st.integers(1, n - 2), unique=True, max_size=n - 2))
    backbone = [0, *sorted(inner), n - 1]
    rows = [_row(draw, label[a], label[b]) for a, b in zip(backbone, backbone[1:])]
    for _ in range(draw(st.integers(0, 8))):
        a = draw(st.integers(0, n - 2))
        b = draw(st.integers(a + 1, n - 1))
        rows.append(_row(draw, label[a], label[b]))
    order = draw(st.permutations(range(len(rows))))
    return n, [rows[i] for i in order], label[0], label[n - 1]


@st.composite
def layered_dags(draw):
    """Layers 0..L with arcs between consecutive layers (parallels allowed),
    plus stubs that break the layering but lie off every s-t path."""
    widths = [1, *draw(st.lists(st.integers(1, 2), min_size=1, max_size=3)), 1]
    layers, n = [], 0
    for w in widths:
        layers.append(list(range(n, n + w)))
        n += w
    rows = []
    for here, there in zip(layers, layers[1:]):
        for v in there:  # every node gets an in-arc and, below, an out-arc
            rows.append(_row(draw, draw(st.sampled_from(here)), v))
        for v in here:
            rows.append(_row(draw, v, draw(st.sampled_from(there))))
        for _ in range(draw(st.integers(0, 2))):
            tail, head = draw(st.sampled_from(here)), draw(st.sampled_from(there))
            rows.append(_row(draw, tail, head))
    if draw(st.booleans()):
        # a dead end fed from two layers: on an s-t path it would break the layering
        rows.append(_row(draw, 0, n))
        if n - 1 > 1:
            rows.append(_row(draw, draw(st.integers(1, n - 2)), n))
        n += 1
    return n, rows, 0, layers[-1][0]


@st.composite
def series_parallel(draw):
    """Generated series-parallel graphs, long chains and wide bundles (the
    tallest trees before their runs are balanced) and bundles of chains;
    isolated extra nodes let k pass the longest path."""
    shape = draw(st.sampled_from(("generated", "chain", "bundle", "chains")))
    if shape == "generated":
        inst = generate_instance("asp", draw(st.integers(0, 10**6)),
                                 arcs=draw(st.integers(1, 9)), k=1)
        g = inst.graph
        n, pairs, s, t = g.node_count, list(zip(g.tail, g.head)), inst.source, inst.sink
    elif shape == "chain":
        m = draw(st.integers(1, 12))
        n, pairs, s, t = m + 1, [(i, i + 1) for i in range(m)], 0, m
    elif shape == "bundle":
        n, pairs, s, t = 2, [(0, 1)] * draw(st.integers(2, 12)), 0, 1
    else:
        n, pairs, s, t = 2, [], 0, 1
        for length in draw(st.lists(st.integers(1, 4), min_size=2, max_size=4)):
            way = [0, *range(n, n + length - 1), 1]
            n += length - 1
            pairs += zip(way, way[1:])
    n += draw(st.integers(0, 3))
    return n, [_row(draw, tail, head) for tail, head in pairs], s, t


def _guard_limit(arc_count):
    """Smallest |first| + |upper| of one arc that the asp guard refuses."""
    q = 16 * (arc_count + 2)
    return -(-ASP_INF // q) - 1


@st.composite
def graphs(draw):
    n, rows, s, t = draw(st.one_of(random_dags(), layered_dags(), series_parallel()))
    if draw(st.integers(0, 3)) == 0:
        # push one arc's cost to just below, at or just above the guard
        worst = _guard_limit(len(rows)) + draw(st.integers(-1, 1))
        i = draw(st.integers(0, len(rows) - 1))
        tail, head, _, nominal, deviation = rows[i]
        sign = draw(st.sampled_from((1, -1)))
        first = sign * (worst - abs(nominal + deviation))
        rows[i] = (tail, head, first, nominal, deviation)
    return MultiDigraph.from_rows(n, rows), s, t


def _check(inst, method, want):
    sol = solve(inst, method)
    assert sol.total_cost == want, method
    assert verify_solution(inst, sol).accepted, method


@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graphs())
def test_every_solver_matches_the_oracle(drawn):
    graph, s, t = drawn
    for k in range(graph.node_count):
        inst = Instance(graph, s, t, k)
        want = solve_bruteforce(inst).total_cost
        _check(inst, "auto", want)
        _check(inst, "dag", want)
        try:
            _check(inst, "layered", want)
        except NotLayeredError:
            pass
        try:
            _check(inst, "asp", want)
            assert root_values(inst) == bruteforce_root_values(inst)
        except NotSeriesParallelError:
            pass


def _transitions(build, inst):
    return sorted(build(inst), key=lambda tr: tr[:4])


def _columns(inst):
    """``layered_columns``' transitions as tuples over node ids, sorted as
    ``_transitions`` sorts them."""
    nodes, _, tail, head, cost, time, arc = layered_columns(inst)
    rows = zip(nodes[tail].tolist(), nodes[head].tolist(), cost.tolist(), time.tolist(),
               arc.tolist())
    return sorted(rows, key=lambda tr: tr[:4])


@settings(derandomize=True, database=None, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(layered_dags())
def test_layered_and_dag_reductions_list_the_same_transitions(drawn):
    # the layered columns against the dag list; past the int64 guard the
    # layered list is the dag list, so costs stay at their drawn scale
    n, rows, s, t = drawn
    graph = MultiDigraph.from_rows(n, rows)
    for k in range(1, n):
        inst = Instance(graph, s, t, k)
        assert _columns(inst) == _transitions(build_dag_reduction, inst)


@settings(derandomize=True, database=None, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(layered_dags(), st.sampled_from((1, 1 << 60)))
def test_both_layered_kernels_match_the_oracle(drawn, scale):
    # solve_levels over the columns against solve_csp over the transition
    # list; scaled by 2**60, costs and their sums leave int64
    n, rows, s, t = drawn
    graph = MultiDigraph.from_rows(n, [(a, b, f * scale, u * scale, d * scale)
                                       for a, b, f, u, d in rows])
    for k in range(1, n):
        inst = Instance(graph, s, t, k)
        sol = solve(inst, "layered")
        assert sol.total_cost == solve_bruteforce(inst).total_cost
        assert verify_solution(inst, sol).accepted
        listed = reduction._solve(inst, build_layered_reduction(inst))
        assert serialize_solution(listed) == serialize_solution(sol)


def _outcome(inst, method):
    """The total of a verified answer, or the error type where the method
    does not apply."""
    try:
        sol = solve(inst, method)
    except (NotLayeredError, NotSeriesParallelError) as err:
        return type(err)
    assert verify_solution(inst, sol).accepted, method
    return sol.total_cost


@settings(derandomize=True, database=None, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from((random_dags, layered_dags, series_parallel)), st.data())
def test_relabelled_nodes_change_no_total(family, data):
    # the generators number layered graphs layer by layer, so there the
    # smallest-id-first topological order is id order; a random relabel
    # makes the two differ
    n, rows, s, t = data.draw(family())
    label = data.draw(st.permutations(range(n)))
    graph = MultiDigraph.from_rows(n, rows)
    moved = MultiDigraph.from_rows(n, [(label[a], label[b], *costs) for a, b, *costs in rows])
    for k in range(n):
        inst, relabelled = Instance(graph, s, t, k), Instance(moved, label[s], label[t], k)
        want = solve_bruteforce(inst).total_cost
        for method in ("auto", "asp", "layered", "dag"):
            got = _outcome(relabelled, method)
            assert got == _outcome(inst, method), method
            if got not in (NotSeriesParallelError, NotLayeredError):
                assert got == want, method
        if family is layered_dags and k:
            assert _columns(relabelled) == _transitions(build_dag_reduction, relabelled)
            sol = reduction._solve(relabelled, build_layered_reduction(relabelled))
            assert serialize_solution(sol) == serialize_solution(solve(relabelled, "layered"))


@pytest.mark.parametrize("offset", [-1, 0])
def test_guard_boundary_is_exact(offset, asp_kernels):
    # one arc: |first| + |upper| one below, then at, the least magnitude
    # the guard sends from the numpy sweep to the Python one
    worst = _guard_limit(1) + offset
    inst = Instance(MultiDigraph.from_rows(2, [(0, 1, worst - 3, 2, 1)]), 0, 1, 1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(asp, "ARRAY_MIN_ARCS", 1)  # a one-leaf tree may be planned
        assert solve(inst, "asp").total_cost == worst
        assert asp_kernels == ["numpy" if offset < 0 else "python"]
    assert solve(inst, "asp").total_cost == worst
    assert solve(inst).total_cost == worst


@st.composite
def nested_alternations(draw):
    """((a | b) . c | d) . e ...: each round of the reduction removes two
    arcs, so from 17 arcs on the array rounds hand over to the queue."""
    m = draw(st.integers(2, 24))
    pairs, sink = [(0, 1)], 1
    while len(pairs) < m:
        if len(pairs) % 2:
            pairs.append((0, sink))
        else:
            pairs.append((sink, sink + 1))
            sink += 1
    return sink + 1, [_row(draw, tail, head) for tail, head in pairs], 0, sink


@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(series_parallel(), random_dags(), nested_alternations()),
       st.sampled_from((1, 1 << 60)))
def test_array_rounds_match_the_oracle_and_the_queue(drawn, scale):
    # scaled by 2**60, costs are past asp's int64 guard, so the tree the
    # rounds build goes to the Python sweep
    n, rows, s, t = drawn
    graph = MultiDigraph.from_rows(n, [(a, b, f * scale, u * scale, d * scale)
                                       for a, b, f, u, d in rows])
    insts = [Instance(graph, s, t, k) for k in range(n)]
    verdicts, roots = [], []
    with pytest.MonkeyPatch.context() as patch:
        for min_arcs in (1, 1 << 62):  # array rounds from the first arc, queue alone
            patch.setattr(asp, "ARRAY_MIN_ARCS", min_arcs)
            try:
                verdicts.append(len(decompose(insts[-1]).nodes))
            except NotSeriesParallelError as err:
                verdicts.append(str(err))
                continue
            roots.append(list(map(root_values, insts)))
    assert verdicts[0] == verdicts[1]
    if roots:
        assert roots[0] == roots[1] == list(map(bruteforce_root_values, insts))


def _unique_compact(instance):
    """asp's compact ids as they were made: the sorted distinct ends of
    the kept arcs, each end's id its index among them."""
    tails, heads = instance.graph.ends
    on = instance.on_mask
    kept = np.flatnonzero(on[tails] & on[heads])
    ends, compact = np.unique(np.concatenate((tails[kept], heads[kept])), return_inverse=True)
    s, t = np.searchsorted(ends, (instance.source, instance.sink)).tolist()
    return kept, compact[:len(kept)], compact[len(kept):], len(ends), s, t


@st.composite
def with_off_path_nodes(draw, graphs):
    """A drawn graph with a dead end fed from a random node, a node
    hanging above one, and an isolated node."""
    n, rows, s, t = draw(graphs)
    rows = rows + [_row(draw, draw(st.integers(0, n - 1)), n),
                   _row(draw, n + 1, draw(st.integers(0, n - 1)))]
    return n + 3, rows, s, t


@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(with_off_path_nodes(st.one_of(random_dags(), series_parallel(), nested_alternations())))
def test_rank_ids_match_the_unique_relabel(drawn):
    # ranks among the on-path nodes are the sorted distinct ends of the
    # kept arcs; the array rounds build the same trees from either
    n, rows, s, t = drawn
    inst = Instance(MultiDigraph.from_rows(n, rows), s, t, 1)
    got, want = inst.core, _unique_compact(inst)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(asp, "ARRAY_MIN_ARCS", 1)  # the array rounds from the first arc
        outcomes = []
        for core in (got, want):
            inst.__dict__["core"] = core
            try:
                tree = decompose(inst)
            except NotSeriesParallelError as err:
                outcomes.append(str(err))
                continue
            plan = [x.tolist() if isinstance(x, np.ndarray) else x
                    for x in (*tree.columns, *asp._plan(tree.columns))]
            outcomes.append((tree.root, tree.height, tree.hops, plan,
                             serialize_solution(solve(inst, "asp"))))
    assert outcomes[0] == outcomes[1]


@st.composite
def generated_asp(draw):
    """Generated series-parallel instances, past the array rounds' size."""
    inst = generate_instance("asp", draw(st.integers(0, 10**6)),
                             arcs=draw(st.integers(10, 300)), k=1)
    g = inst.graph
    return g.node_count, list(zip(g.tail, g.head, g.first, g.nominal, g.deviation)), \
        inst.source, inst.sink


@st.composite
def dense_dags(draw):
    """A chain through all n nodes plus at least 2n - 3 distinct forward
    pairs: at or past the density bound."""
    n = draw(st.integers(3, 8))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=2 * n - 3, unique=True))
    rows = [_row(draw, a, b) for a, b in [(i, i + 1) for i in range(n - 1)] + chosen]
    return n, rows, 0, n - 1


@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(series_parallel(), nested_alternations(), random_dags(), generated_asp(),
                 dense_dags()))
def test_the_density_test_rejects_only_what_decompose_rejects(drawn):
    n, rows, s, t = drawn
    inst = Instance(MultiDigraph.from_rows(n, rows), s, t, 1)
    with pytest.MonkeyPatch.context() as patch:
        verdicts = []
        for min_arcs in (1, 1 << 62):  # pairs sorted in arrays, pairs in a set
            patch.setattr(asp, "ARRAY_MIN_ARCS", min_arcs)
            try:
                verdicts.append(decompose(inst).leaf_count)
            except NotSeriesParallelError as err:
                verdicts.append(str(err))
    assert verdicts[0] == verdicts[1]
    # sparse graphs may still be rejected; every dense one the reduction
    # itself rejects too
    if str(verdicts[0]).startswith("too dense"):
        g, on = inst.graph, inst.on_path
        kept = [a for a in range(g.arc_count) if on[g.tail[a]] and on[g.head[a]]]
        with pytest.raises(NotSeriesParallelError, match="reduction stalled"):
            asp._queue([g.tail[a] for a in kept], [g.head[a] for a in kept], range(len(kept)),
                       s, t, [0] * len(kept), [1] * len(kept))
