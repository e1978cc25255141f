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
have one column per budget value up to the effective budget (k capped
at the longest source-sink hop count, which is the root's); no stage
pair diverges by more.

Height first.  Series and parallel composition are both associative, so
the reduction collects every maximal run of one kind as a list of
operands (series runs in path order, parallel runs in arrival order)
and closes it into a balanced binary subtree.  No total changes, and a
path or a bundle of m arcs gets height ceil(log2 m).  Each round of the
closing joins neighbours no taller than the lowest neighbouring pair, so
short operands are joined before tall ones.  The sweep then runs once
per height: the parallel nodes of that height in one batched step and
the series nodes in another, in blocks of rows so that no temporary
exceeds ``BLOCK_CELLS`` int64 cells.  A height only touches the columns
up to the longest path below it; the rest stay infinite.

Store and slots.  Internal nodes' ``opt``/``upper`` rows live in one
array of shape (slots + 1, 2, width).  ``decompose`` assigns the slots:
a node of height 1 takes a fresh one, and any other node writes over
its left child's row (its right child's if the left is a leaf).  That
is safe because a block gathers its children's rows before it writes
and no other node reads them.  The last row stays all-infinite; leaf
children read it and get their two finite entries (``opt[0]``,
``upper[1]``) patched in, so leaves hold no row.  ``first`` is one
value per tree node.

Backpointers are kept per height and kind, as narrow arrays indexed by
the node's place in its batch: parallel batches keep an int8 code per
``opt`` entry and a bool side per ``upper`` entry; series batches keep
the left share of every entry in the smallest unsigned type that holds
the width.  A parallel node's cheaper ``first`` side is read off the
per-node ``first`` values.  ``_reconstruct`` finds each node it visits
by its index in sweep order.

Exactness.  The guard in ``_check_magnitudes`` keeps the absolute costs
of all arcs, summed, below ``ASP_INF / 16`` = 2**58, which bounds every
finite entry.  Inside the sweep infinity is ``_INF =
ASP_INF >> 1`` and additions are unmasked: an entry with no path behind
it is ``_INF`` plus costs of distinct arcs, and each block clamps its
results at ``_INF`` (one ``np.minimum``), so such an entry stays within
2**58 below ``_INF``, a sum of two entries stays inside int64, and a
finite candidate always beats an infinite one.  Entries at or above
``_PIN = _INF >> 1`` read as infinite.  Ties: numpy's argmin takes the
first occurrence, which is the smallest left share in series and the
left (earlier) side in parallel.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import count
from typing import NamedTuple

import numpy as np

from .errors import CostOverflowError, InfeasibleError, NotSeriesParallelError
from .graph import INF, Instance
from .solution import Solution, build_solution

ASP_INF = 1 << 62
_INF = ASP_INF >> 1
_PIN = _INF >> 1
# int64 cells in the largest temporary of one batched step (512 KB)
BLOCK_CELLS = 1 << 16

LEAF = "leaf"
SERIES = "series"
PARALLEL = "parallel"


class _Plan(NamedTuple):
    """Internal nodes in sweep order and the store rows they touch.

    Sweep order sorts internal nodes by height, parallel before series.
    ``levels[h - 1]`` is (start, split, end, reach) for height h: its
    parallel nodes are ``ids[start:split]``, its series nodes
    ``ids[split:end]``, and reach is the most arcs on a path below any
    node of height h or less.  The ``child_*`` arrays hold two entries
    per node, left then right.  Leaves are nodes ``0 .. len(leaf_arcs) -
    1``; ``height`` is per node and ``sweep_index[i - leaves]`` is the
    index of internal node i in ``ids``.
    """

    ids: np.ndarray
    out_row: np.ndarray
    children: np.ndarray
    child_row: np.ndarray
    child_leaf: np.ndarray
    child_arc: np.ndarray
    levels: tuple
    slots: int
    leaf_arcs: np.ndarray
    height: list
    sweep_index: list


@dataclass(frozen=True)
class DecompTree:
    """Binary series/parallel decomposition of the pruned graph.

    ``nodes[i]`` is ("leaf", arc_id) or (kind, left, right) with children
    created before parents.  Same-kind runs are balanced; ``height`` is
    the most internal nodes on a root-leaf path and ``hops`` the most
    arcs on a source-sink path.
    """

    nodes: tuple[tuple, ...]
    root: int
    height: int
    hops: int
    plan: _Plan = field(repr=False, compare=False)

    @property
    def leaf_count(self) -> int:
        return len(self.plan.leaf_arcs)


@dataclass(frozen=True)
class RootValues:
    """Root arrays with infinities as float inf, for inspection and tests."""

    first: int
    upper: tuple
    opt: tuple


def decompose(instance: Instance) -> DecompTree:
    """Reduce the pruned graph to a balanced decomposition tree.

    Repeatedly merges parallel arcs and contracts internal nodes with one
    arc in and one arc out; the graph is series-parallel exactly when this
    ends with a single source->sink arc.  Raises NotSeriesParallelError
    otherwise.  A reduced arc stands for a leaf or for an open run: a
    deque of series operands or a list of parallel ones.
    """
    graph = instance.graph
    s, t = instance.source, instance.sink
    on = instance.on_path

    nodes: list[tuple] = []
    height: list[int] = []  # internal nodes on the longest way down to a leaf
    hops: list[int] = []  # arcs on the longest source-sink path of the subgraph
    slot: list[int] = []  # store row; leaves have none
    kids: list[int] = []  # left and right child of every internal node
    series_flags: list[bool] = []
    fresh = count().__next__

    def join(kind: str, a: int, b: int) -> int:
        series = kind is SERIES
        nodes.append((kind, a, b))
        kids.extend((a, b))
        series_flags.append(series)
        ha, hb = height[a], height[b]
        height.append((ha if ha > hb else hb) + 1)
        slot.append(slot[a] if ha else slot[b] if hb else fresh())
        pa, pb = hops[a], hops[b]
        hops.append(pa + pb if series else (pa if pa > pb else pb))
        return len(nodes) - 1

    def close(item) -> int:
        """Close an open run into a balanced subtree; returns its root."""
        kind = SERIES if type(item) is deque else PARALLEL
        ops = list(item)
        while len(ops) > 2:
            # join, left to right, the neighbours no taller than the lowest
            # possible pair; taller operands wait for a later round
            tall = [height[x] for x in ops]
            low = min(map(max, tall, tall[1:]))
            paired = []
            i = 0
            while i < len(ops):
                if i + 1 < len(ops) and tall[i] <= low and tall[i + 1] <= low:
                    paired.append(join(kind, ops[i], ops[i + 1]))
                    i += 2
                else:
                    paired.append(ops[i])
                    i += 1
            ops = paired
        return join(kind, *ops)

    tails: list[int] = []
    heads: list[int] = []
    tree: list = []
    alive: list[bool] = []
    # at most one live arc per (tail, head): parallels merge on insertion
    out_by_head: dict[int, dict[int, int]] = {}
    in_by_tail: dict[int, dict[int, int]] = {}
    for v in range(graph.node_count):
        if on[v]:
            out_by_head[v] = {}
            in_by_tail[v] = {}

    def add(tail: int, head: int, item):
        existing = out_by_head[tail].get(head)
        if existing is not None:
            # the arc already there stays on the left
            run = tree[existing]
            if type(run) is not list:
                run = tree[existing] = [run if type(run) is int else close(run)]
            run.append(item if type(item) is int else close(item))
            return
        aid = len(tails)
        tails.append(tail)
        heads.append(head)
        tree.append(item)
        alive.append(True)
        out_by_head[tail][head] = aid
        in_by_tail[head][tail] = aid

    def remove(aid: int):
        alive[aid] = False
        del out_by_head[tails[aid]][heads[aid]]
        del in_by_tail[heads[aid]][tails[aid]]

    leaf_arcs = []
    for a, (tail, head) in enumerate(zip(graph.tail, graph.head)):
        if on[tail] and on[head]:
            nodes.append((LEAF, a))
            leaf_arcs.append(a)
            height.append(0)
            hops.append(1)
            slot.append(-1)
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
        before, after = tree[a], tree[b]
        if type(before) is deque:
            if type(after) is deque:
                # merge the shorter run into the longer one
                if len(before) >= len(after):
                    before.extend(after)
                else:
                    after.extendleft(reversed(before))
                    before = after
            else:
                before.append(after if type(after) is int else close(after))
            run = before
        elif type(after) is deque:
            after.appendleft(before if type(before) is int else close(before))
            run = after
        else:
            run = deque((before if type(before) is int else close(before),
                         after if type(after) is int else close(after)))
        add(u, w, run)
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
    root = tree[aid] if type(tree[aid]) is int else close(tree[aid])
    plan = _plan(leaf_arcs, height, hops, slot, fresh(), kids, series_flags)
    return DecompTree(nodes=tuple(nodes), root=root, height=height[root],
                      hops=hops[root], plan=plan)


def _plan(leaf_arcs, height, hops, slot, slots, kids, series_flags) -> _Plan:
    """Sweep order and batch bounds of a closed tree."""
    leaves = len(leaf_arcs)
    key = np.array(height[leaves:], dtype=np.intp) * 2 + np.array(series_flags, dtype=np.intp)
    order = np.argsort(key, kind="stable")
    ids = order + leaves
    children = np.array(kids, dtype=np.intp).reshape(-1, 2)[order].ravel()
    row = np.array(slot, dtype=np.intp)
    row[:leaves] = slots  # leaves read the all-infinite last row
    # parallel then series nodes of each height, one batch each
    sizes = np.bincount(key, minlength=2 * height[-1] + 2).tolist()
    levels = []
    end = 0
    for parallel, series in zip(sizes[2::2], sizes[3::2]):
        start, split = end, end + parallel
        end = split + series
        levels.append((start, split, end))
    reach = []
    if levels:
        peaks = np.maximum.reduceat(np.array(hops[leaves:], dtype=np.intp)[order],
                                    [level[0] for level in levels])
        reach = np.maximum.accumulate(peaks).tolist()
    sweep_index = np.empty(len(ids), dtype=np.intp)
    sweep_index[order] = np.arange(len(ids))
    arcs = np.array(leaf_arcs, dtype=np.intp)
    return _Plan(
        ids=ids, out_row=row[ids], children=children,
        child_row=row[children], child_leaf=children < leaves,
        child_arc=np.take(arcs, children, mode="clip"),
        levels=tuple(level + (most,) for level, most in zip(levels, reach)),
        slots=slots, leaf_arcs=arcs, height=height,
        sweep_index=sweep_index.tolist(),
    )


def _check_magnitudes(graph):
    """Refuse costs that could bring a finite int64 entry near the sentinel."""
    worst = max(
        (abs(f) + abs(u) for f, u in zip(graph.first, graph.upper)), default=0
    )
    if 16 * (graph.arc_count + 2) * (worst + 1) >= ASP_INF:
        raise CostOverflowError(
            "cost magnitudes too large for the exact int64 kernel"
        )


def _parallel_step(children, child_first, values, first):
    """Parallel composition of a block of nodes.

    ``children`` is (rows, side, opt/upper, w) and ``child_first`` is
    (rows, side); results go to ``values`` (rows, opt/upper, w) and
    ``first``.  Returns the backpointers: per ``opt`` entry a code, 0/1
    for both stages on the left/right, 2 for the first stage on the left
    and the recovery on the right, 3 the reverse; per ``upper`` entry
    whether the right side is strictly cheaper.
    """
    rows, _, _, w = children.shape
    cand = np.empty((rows, 4, w), dtype=np.int64)
    cand[:, :2] = children[:, :, 0]
    np.add(children[:, ::-1, 1], child_first[:, :, None], out=cand[:, 2:])
    np.minimum.reduce(cand, axis=1, out=values[:, 0])
    np.minimum(children[:, 0, 1], children[:, 1, 1], out=values[:, 1])
    np.minimum(child_first[:, 0], child_first[:, 1], out=first)
    return cand.argmin(axis=1).astype(np.int8), children[:, 1, 1] < children[:, 0, 1]


def _series_step(children, child_first, values, first):
    """Series composition of a block: min-plus convolution of both arrays.

    ``values[r, a, l] = min_j left[r, a, j] + right[r, a, l - j]``; the
    backpointer is the smallest minimising j (the left share).
    """
    rows, _, _, w = children.shape
    # the right rows reversed, then infinities: at window l, offset j
    # reads right[l - j] for j <= l and an infinity beyond
    padded = np.empty((rows, 2, 2 * w - 1), dtype=np.int64)
    padded[:, :, :w] = children[:, 1, :, ::-1]
    padded[:, :, w:] = _INF
    step = padded.itemsize
    shifted = np.ndarray((rows, 2, w, w), np.int64, padded, (w - 1) * step,
                         (*padded.strides[:2], -step, step))
    sums = children[:, 0, :, None, :] + shifted
    np.minimum.reduce(sums, axis=3, out=values)
    np.add(child_first[:, 0], child_first[:, 1], out=first)
    return (sums.argmin(axis=3).astype(np.min_scalar_type(w - 1)),)


def _evaluate(graph, tree: DecompTree, width: int):
    """Sweep by height.

    Returns the first cost of every node, the root's (opt, upper) rows
    and the backpointers: per height a (parallel, series) pair of tuples
    of arrays indexed by position in the batch.
    """
    plan = tree.plan
    first = np.empty(len(tree.nodes), dtype=np.int64)
    first[:len(plan.leaf_arcs)] = np.array(graph.first, dtype=np.int64)[plan.leaf_arcs]
    if not plan.levels:  # a single arc
        arc = tree.nodes[tree.root][1]
        root = np.full((2, width), _INF, dtype=np.int64)
        root[0, 0] = graph.combined[arc]
        if width > 1:
            root[1, 1] = graph.upper[arc]
        return first, root, []

    store = np.full((plan.slots + 1, 2, width), _INF, dtype=np.int64)
    # a leaf child's only finite entries: opt[0] and upper[1]
    leaf_values = np.stack((np.array(graph.combined, dtype=np.int64),
                            np.array(graph.upper, dtype=np.int64)), axis=1)[plan.child_arc]
    child_leaf = plan.child_leaf[:, None]
    child_row, children, ids, out_row = plan.child_row, plan.children, plan.ids, plan.out_row
    back = []
    for start, split, end, reach in plan.levels:
        w = min(width, reach + 1)
        block = max(1, BLOCK_CELLS // (2 * w * w))  # series sums are 2w**2 a node
        found = ([], [])
        for lo in range(start, end, block):
            hi = min(lo + block, end)
            kids = slice(2 * lo, 2 * hi)
            gathered = store[child_row[kids], :, :w]
            # opt[0] and upper[1] sit w + 1 apart in a flattened (opt, upper) row
            patch = gathered.reshape(2 * (hi - lo), 2 * w)[:, ::w + 1]
            np.copyto(patch, leaf_values[kids, :patch.shape[1]], where=child_leaf[kids])
            gathered = gathered.reshape(hi - lo, 2, 2, w)
            child_first = first[children[kids]].reshape(hi - lo, 2)
            values = np.empty((hi - lo, 2, w), dtype=np.int64)
            out_first = np.empty(hi - lo, dtype=np.int64)
            mid = min(max(split, lo), hi) - lo
            if mid:
                found[0].append(_parallel_step(
                    gathered[:mid], child_first[:mid], values[:mid], out_first[:mid]))
            if mid < hi - lo:
                found[1].append(_series_step(
                    gathered[mid:], child_first[mid:], values[mid:], out_first[mid:]))
            # keep infinities at or below _INF; see the module docstring
            np.minimum(values, _INF, out=values)
            store[out_row[lo:hi], :, :w] = values
            first[ids[lo:hi]] = out_first
        back.append(tuple(
            parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))
            for parts in found
        ))
    return first, store[out_row[-1]], back


def _reconstruct(tree: DecompTree, first, back, query):
    """Walk backpointers, collecting original arc ids for both stages.

    ``first`` holds every node's first cost: a parallel node's cheaper
    first stage is on the right only when strictly cheaper there.
    """
    nodes = tree.nodes
    plan = tree.plan
    leaves = len(plan.leaf_arcs)
    x: list[int] = []
    y: list[int] = []
    stack = [(tree.root, query)]
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
        level = plan.height[idx] - 1
        start, split, _, _ = plan.levels[level]
        i = plan.sweep_index[idx - leaves]
        if kind == PARALLEL:
            opt_code, upper_right = back[level][0]
            p = i - start
            if q[0] == "opt":
                l = q[1]
                code = int(opt_code[p, l])
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
                stack.append((right if first[right] < first[left] else left, q))
            else:
                stack.append((right if upper_right[p, q[1]] else left, q))
        else:
            (shares,) = back[level][1]
            if q[0] == "first":
                stack.append((right, q))
                stack.append((left, q))
            else:
                l = q[1]
                j = int(shares[i - split, 0 if q[0] == "opt" else 1, l])
                stack.append((right, (q[0], l - j)))
                stack.append((left, (q[0], j)))
    return x, y


def root_values(instance: Instance) -> RootValues:
    """The three root quantities for an instance, with float infinities.

    The arrays have k + 1 entries; those past the effective budget are
    infinite, since no recovery path has that many arcs.
    """
    tree = decompose(instance)
    _check_magnitudes(instance.graph)
    width = min(instance.k, tree.hops) + 1
    first, (opt, upper), _ = _evaluate(instance.graph, tree, width)
    pad = (INF,) * (instance.k + 1 - width)

    def out(arr):
        return tuple(INF if v >= _PIN else int(v) for v in arr) + pad

    return RootValues(first=int(first[tree.root]), upper=out(upper), opt=out(opt))


def solve_asp(instance: Instance) -> Solution:
    """Exact solver for arc series-parallel instances."""
    if instance.k < 1:
        raise ValueError("k must be >= 1 here; solve() handles k = 0 directly")
    tree = decompose(instance)
    _check_magnitudes(instance.graph)
    width = min(instance.k, tree.hops) + 1
    first, (opt, _), back = _evaluate(instance.graph, tree, width)
    best = int(np.argmin(opt))  # ties: smallest divergence
    if opt[best] >= _PIN:
        raise InfeasibleError("no stage pair within the recovery budget")
    x, y = _reconstruct(tree, first, back, ("opt", best))
    return build_solution(instance, tuple(x), tuple(y))
