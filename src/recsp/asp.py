"""Series-parallel recognition and the decomposition-tree solver.

The solver prunes the graph to the nodes on source-sink paths, reduces
it to a binary series/parallel decomposition tree, then sweeps the tree
bottom-up.  Every tree node carries three quantities about its subgraph:

* ``first``: cheapest first-stage path cost (always finite);
* ``upper[l]``: cheapest worst-case second-stage path cost over paths
  with exactly l arcs (index 0 is always infinite);
* ``opt[l]``: cheapest stage-pair cost over pairs whose recovery path
  uses exactly l arcs outside the first-stage path.

The root's best ``opt`` entry within the budget is the optimum.  Arrays
are int64 with a large sentinel for infinity; additions are masked so
the sentinel saturates, and a magnitude pre-check refuses inputs that
could push a finite value anywhere near it.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import CostOverflowError, InfeasibleError, NotSeriesParallelError
from .graph import INF, Instance
from .solution import Solution, build_solution

ASP_INF = 1 << 62

LEAF = "leaf"
SERIES = "series"
PARALLEL = "parallel"


@dataclass(frozen=True)
class DecompTree:
    """Binary series/parallel decomposition of the pruned graph.

    ``nodes[i]`` is ("leaf", arc_id) or (kind, left, right) with children
    created before parents, so index order is evaluation order.
    """

    nodes: tuple[tuple, ...]
    root: int

    @property
    def leaf_count(self) -> int:
        return sum(1 for n in self.nodes if n[0] == LEAF)


@dataclass(frozen=True)
class RootValues:
    """Root arrays with infinities as float inf, for inspection and tests."""

    first: int
    upper: tuple
    opt: tuple


def decompose(instance: Instance) -> DecompTree:
    """Reduce the pruned graph to a decomposition tree.

    Repeatedly merges parallel arcs and contracts internal nodes with one
    arc in and one arc out; the graph is series-parallel exactly when this
    ends with a single source->sink arc.  Raises NotSeriesParallelError
    otherwise.
    """
    graph = instance.graph
    s, t = instance.source, instance.sink
    on = instance.on_path

    nodes: list[tuple] = []
    tails: list[int] = []
    heads: list[int] = []
    tree: list[int] = []
    alive: list[bool] = []
    # at most one live arc per (tail, head): parallels merge on insertion
    out_by_head: dict[int, dict[int, int]] = {}
    in_by_tail: dict[int, dict[int, int]] = {}
    for v in range(graph.node_count):
        if on[v]:
            out_by_head[v] = {}
            in_by_tail[v] = {}

    def add(tail: int, head: int, node: int):
        existing = out_by_head[tail].get(head)
        if existing is not None:
            # the arc already there becomes the left child
            nodes.append((PARALLEL, tree[existing], node))
            tree[existing] = len(nodes) - 1
            return
        aid = len(tails)
        tails.append(tail)
        heads.append(head)
        tree.append(node)
        alive.append(True)
        out_by_head[tail][head] = aid
        in_by_tail[head][tail] = aid

    def remove(aid: int):
        alive[aid] = False
        del out_by_head[tails[aid]][heads[aid]]
        del in_by_tail[heads[aid]][tails[aid]]

    for a, (tail, head) in enumerate(zip(graph.tail, graph.head)):
        if on[tail] and on[head]:
            nodes.append((LEAF, a))
            add(tail, head, len(nodes) - 1)

    pending = deque(v for v in sorted(out_by_head) if v != s and v != t)
    queued = set(pending)
    while pending:
        v = pending.popleft()
        queued.discard(v)
        if len(in_by_tail[v]) != 1 or len(out_by_head[v]) != 1:
            continue
        a = next(iter(in_by_tail[v].values()))
        b = next(iter(out_by_head[v].values()))
        u, w = tails[a], heads[b]
        remove(a)
        remove(b)
        nodes.append((SERIES, tree[a], tree[b]))
        add(u, w, len(nodes) - 1)
        for x in (u, w):
            if x != s and x != t and x not in queued:
                pending.append(x)
                queued.add(x)

    live = alive.count(True)
    if live != 1:
        raise NotSeriesParallelError(f"reduction stalled with {live} arcs left")
    aid = alive.index(True)
    if tails[aid] != s or heads[aid] != t:
        raise NotSeriesParallelError(
            f"reduction ended at arc {tails[aid]}->{heads[aid]}, not source->sink"
        )
    return DecompTree(nodes=tuple(nodes), root=tree[aid])


def _check_magnitudes(graph):
    """Refuse costs that could bring a finite int64 entry near the sentinel."""
    worst = max(
        (abs(f) + abs(u) for f, u in zip(graph.first, graph.upper)), default=0
    )
    if 16 * (graph.arc_count + 2) * (worst + 1) >= ASP_INF:
        raise CostOverflowError(
            "cost magnitudes too large for the exact int64 kernel"
        )


def _evaluate(graph, tree: DecompTree, k: int, keep_backpointers: bool):
    """Bottom-up sweep; returns (root values, backpointers or None).

    Child value arrays are dropped as soon as their parent is done, so
    peak memory stays proportional to the backpointer store.
    """
    width = k + 1
    inf_row = np.full(width, ASP_INF, dtype=np.int64)
    values: list = [None] * len(tree.nodes)
    back: list = [None] * len(tree.nodes) if keep_backpointers else None

    # reusable workspaces; results are always copied out of them
    rows = np.empty((4, width), dtype=np.int64)
    pair = np.empty((2, width), dtype=np.int64)
    conv_a = np.empty((2, width, 1), dtype=np.int64)
    conv_b = np.empty((2, 1, width), dtype=np.int64)
    conv_raw = np.empty((2, width, width), dtype=np.int64)
    conv_bad = np.empty((2, width, width), dtype=bool)
    # scatter pattern turning an outer sum into anti-diagonal columns
    jj = np.arange(width, dtype=np.intp)[:, None]
    ll = jj + np.arange(width, dtype=np.intp)[None, :]
    scratch = np.empty((2, width, 2 * width - 1), dtype=np.int64)

    for idx, node in enumerate(tree.nodes):
        kind = node[0]
        if kind == LEAF:
            a = node[1]
            upper = inf_row.copy()
            if k >= 1:
                upper[1] = graph.upper[a]
            opt = inf_row.copy()
            opt[0] = graph.combined[a]
            values[idx] = (graph.first[a], upper, opt)
            continue
        left, right = node[1], node[2]
        lf, lu, lo = values[left]
        rf, ru, ro = values[right]
        if kind == PARALLEL:
            rows[0] = lo
            rows[1] = ro
            np.add(ru, lf, out=rows[2])
            np.add(lu, rf, out=rows[3])
            # re-pin sums involving the sentinel back to it
            rows[2][ru >= ASP_INF] = ASP_INF
            rows[3][lu >= ASP_INF] = ASP_INF
            opt = rows.min(axis=0)
            pair[0] = lu
            pair[1] = ru
            upper = pair.min(axis=0)
            first = lf if lf <= rf else rf
            if keep_backpointers:
                back[idx] = (
                    0 if lf <= rf else 1,
                    pair.argmin(axis=0).astype(np.int8),
                    rows.argmin(axis=0).astype(np.int8),
                )
        else:
            conv_a[0, :, 0] = lo
            conv_a[1, :, 0] = lu
            conv_b[0, 0] = ro
            conv_b[1, 0] = ru
            np.add(conv_a, conv_b, out=conv_raw)
            np.logical_or(conv_a >= ASP_INF, conv_b >= ASP_INF, out=conv_bad)
            conv_raw[conv_bad] = ASP_INF
            scratch.fill(ASP_INF)
            scratch[:, jj, ll] = conv_raw
            window = scratch[:, :, :width]
            vals = window.min(axis=1)
            args = window.argmin(axis=1)  # first occurrence: smallest left share
            opt, upper = vals[0], vals[1]
            first = lf + rf
            if keep_backpointers:
                back[idx] = (
                    args[0].astype(np.int32),
                    args[1].astype(np.int32),
                )
        values[idx] = (first, upper, opt)
        values[left] = None
        values[right] = None
    root = values[tree.root]
    return root, back


def _reconstruct(nodes, back, root: int, query):
    """Walk backpointers, collecting original arc ids for both stages."""
    x: list[int] = []
    y: list[int] = []
    stack = [(root, query)]
    while stack:
        idx, q = stack.pop()
        node = nodes[idx]
        kind = node[0]
        if kind == LEAF:
            arc = node[1]
            if q[0] == "opt":
                x.append(arc)
                y.append(arc)
            elif q[0] == "first":
                x.append(arc)
            else:
                y.append(arc)
            continue
        left, right = node[1], node[2]
        if kind == PARALLEL:
            first_side, upper_side, opt_code = back[idx]
            if q[0] == "opt":
                l = q[1]
                code = int(opt_code[l])
                if code == 0:
                    stack.append((left, q))
                elif code == 1:
                    stack.append((right, q))
                elif code == 2:
                    stack.append((right, ("upper", l)))
                    stack.append((left, ("first",)))
                else:
                    stack.append((left, ("upper", l)))
                    stack.append((right, ("first",)))
            elif q[0] == "first":
                stack.append((left if first_side == 0 else right, q))
            else:
                stack.append((left if int(upper_side[q[1]]) == 0 else right, q))
        else:
            opt_j, upper_j = back[idx]
            if q[0] == "opt":
                l = q[1]
                j = int(opt_j[l])
                stack.append((right, ("opt", l - j)))
                stack.append((left, ("opt", j)))
            elif q[0] == "first":
                stack.append((right, q))
                stack.append((left, q))
            else:
                l = q[1]
                j = int(upper_j[l])
                stack.append((right, ("upper", l - j)))
                stack.append((left, ("upper", j)))
    return x, y


def root_values(instance: Instance) -> RootValues:
    """The three root quantities for an instance, with float infinities."""
    tree = decompose(instance)
    _check_magnitudes(instance.graph)
    (first, upper, opt), _ = _evaluate(instance.graph, tree, instance.k, False)

    def out(arr):
        return tuple(INF if v >= ASP_INF else int(v) for v in arr)

    return RootValues(first=int(first), upper=out(upper), opt=out(opt))


def solve_asp(instance: Instance) -> Solution:
    """Exact solver for arc series-parallel instances."""
    if instance.k < 1:
        raise ValueError("k must be >= 1 here; solve() handles k = 0 directly")
    tree = decompose(instance)
    _check_magnitudes(instance.graph)
    (first, upper, opt), back = _evaluate(instance.graph, tree, instance.k, True)
    best = int(np.argmin(opt))  # ties: smallest divergence
    if opt[best] >= ASP_INF:
        raise InfeasibleError("no stage pair within the recovery budget")
    x, y = _reconstruct(tree.nodes, back, tree.root, ("opt", best))
    return build_solution(instance, tuple(x), tuple(y))
