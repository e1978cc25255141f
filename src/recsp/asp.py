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

Recognition.  ``decompose`` merges parallel arcs and contracts nodes
with one arc in and one arc out until a single source-sink arc is left,
which happens exactly on series-parallel graphs (Valdes, Tarjan & Lawler
1982).  It first refuses a pruned graph with more distinct (tail, head)
pairs than the 2n - 3 a series-parallel graph on its n nodes can have
(Duffin 1965), before any tree node exists.  Then it has two phases.  A
pruned graph of at least ``ARRAY_MIN_ARCS`` arcs is first reduced in
array rounds over the compact node ids of ``Instance.core``: each round
merges every class of parallel arcs with one sort and contracts every
maximal chain, ranked by pointer jumping.  The rounds recognise first
and build after: a round with nothing to do raises (the reduction is
confluent, so the queue would stall too), and the runs are spliced phase
by phase, then closed in one pass per height, only once the rounds stop.
They stop once fewer than ``ARRAY_MIN_ARCS`` arcs are left or a round
removes less than ``1 / ROUND_SHARE`` of them, after checking that work
is left; the queue reduction then finishes with the closed subtrees as
its leaves, and it alone reduces smaller graphs.  ``decompose`` only
recognises: it keeps the tree's node columns as the reduction left them,
lists from the queue alone and arrays once the rounds ran, and leaves
the choice of kernel to the sweep.

Height first.  Series and parallel composition are both associative, so
the reduction collects every maximal run of one kind as a list of
operands (series runs in path order, parallel runs in arrival order)
and closes it into a balanced binary subtree.  No total changes, and a
path or a bundle of m arcs gets height ceil(log2 m).  Each round of the
closing joins neighbours no taller than the lowest neighbouring pair, so
short operands are joined before tall ones.  ``_sweep`` picks the
kernel from the columns, by one rule.  A tree whose columns are lists
(one of fewer than ``ARRAY_MIN_ARCS`` leaves), or one whose costs fail
the int64 guard (see Exactness), is swept in plain Python
(``_sweep_lists``), node by node in creation order, over the columns as
lists; its rows are Python lists, ``min(k, hops) + 1`` long, and a
node's rows are dropped once its parent's are made.  Any other tree is
planned (``_plan``) and swept in numpy once per height: the parallel
nodes of that height in one batched step and the series nodes in
another.  A height only touches the columns up to the longest path below
it; the rest stay infinite.  A series node's left child has no finite
entry past its own hop count either, so the convolution stops there: the
Python sweep reads no further than the left child's row, and for the
numpy one ``_plan`` sorts each height's series nodes by that count, and
a block convolves as far as its last node needs.
Blocks are cut so that no temporary exceeds ``BLOCK_CELLS`` int64
cells, a series node taking 2w times that span.  The values are read
at the argmin, in the one pass that finds the backpointers.

Store and slots.  In the numpy sweep, internal nodes' ``opt``/``upper``
rows live in one array of shape (slots + 1, 2, width).  ``_plan``
assigns every row once, from the finished tree: a node of height 1
takes a fresh one (numbered in creation order), and any other node
writes over its left child's row (its right child's if the left is a
leaf).  That is safe because a block gathers its children's rows before
it writes and no other node reads them.  The last row stays
all-infinite; leaf children read it and get their two finite entries
(``opt[0]``, ``upper[1]``) patched in, so leaves hold no row.
``first`` is one value per tree node.

Backpointers are kept per height and kind, as narrow arrays indexed by
the node's place in its batch: parallel batches keep an int8 code per
``opt`` entry and a bool side per ``upper`` entry; series batches keep
the left share of every entry in the smallest unsigned type that holds
the block's span.  A parallel node's cheaper ``first`` side is read off the
per-node ``first`` values.  The Python sweep keeps the same
backpointers as lists, one pair per internal node.  ``_read_back``
walks either kind: every node's kind and children, and a leaf's arc,
come from the tree's columns; only a node's backpointers are looked up
per kernel, a numpy node's by its height and its index in sweep order.

Exactness.  The Python sweep adds exact ints, with ``INF`` for no path,
and is exact on every input.  It never adds to ``INF``, since an int
past the float range raises there; skipping an infinite candidate
changes no finite minimum and no tie.  The numpy sweep is exact where
the int64 guard (``_fits_int64``) holds: the absolute costs of the
tree's leaf arcs, summed, stay below ``ASP_INF / 16`` = 2**58, which
bounds every finite entry; arcs off every source-sink path are never
read, so their costs do not count.  It reads the graph's int64
``costs``, clipped to +-``SATURATE`` = 2**61, which fails the guard as
any larger cost does.  ``_sweep`` tests the guard once, on trees whose
columns are arrays, and sweeps a tree that fails it in Python, so no
instance is refused for its costs; ``decompose`` reads no cost.  Inside
the numpy sweep infinity is ``_INF = ASP_INF >> 1`` and additions are
unmasked: an entry with no path behind it is ``_INF`` plus costs of
distinct arcs, and each block clamps its results at ``_INF`` (one
``np.minimum``), so such an entry stays within 2**58 below ``_INF``, a
sum of two entries stays inside int64, and a finite candidate always
beats an infinite one.  Entries at or above ``_PIN = _INF >> 1`` read
as infinite.  Ties: numpy's argmin takes the first occurrence, which is
the smallest left share in series and the left (earlier) side in
parallel; the Python sweep takes the first minimum in the same order.
Cutting a convolution short drops only infinite candidates, so it
changes no finite entry and no tie.
"""
from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .csp import run_starts
from .errors import NotSeriesParallelError
from .graph import INF, Instance
from .solution import Solution, build_solution

ASP_INF = 1 << 62
_INF = ASP_INF >> 1
_PIN = _INF >> 1
# int64 cells in the largest temporary of one batched step (512 KB): a
# series node's sums, 2w times its span, or a node's two gathered children
BLOCK_CELLS = 1 << 16
# Pruned graphs with fewer arcs skip the array rounds of ``decompose``,
# and the rounds stop below it.  numpy's fixed cost per call dominates
# small graphs: on the small-mixed benchmark (20-60 arcs) the queue
# reduction takes 0.21 s a pass, array rounds from the first arc 1.5 s
# (2 vCPU Xeon, Python 3.11, numpy 2.4).  Trees with fewer leaves are
# swept in Python and build no ``_plan``: on small-mixed's 400 asp trees
# that took 61 ms a pass in-process, ``_plan`` and the numpy sweep 176
# ms.  On generated trees at k = 2, 5 and 50 the Python sweep took
# 0.2x the numpy one's time at 16 arcs, 0.6-0.9x at 128 and 1.1-1.3x at
# 256, and the gap widens with size.  ``decompose``'s density test
# counts the pairs of smaller graphs in a set: on small-mixed that took 7
# ms a pass in-process, the sort 27 ms.
ARRAY_MIN_ARCS = 256
# The rounds hand over to the queue once a round removes less than
# 1/ROUND_SHARE of the live arcs.  A nested alternation ((a|b).c|d).e...
# loses two arcs a round: 4,096 arcs take 0.025 s with the hand-over and
# 1.1 s without it, and the time grows with the square of the arcs.
ROUND_SHARE = 8

LEAF = "leaf"
SERIES = "series"
PARALLEL = "parallel"


class _Columns(NamedTuple):
    """A decomposition tree's node columns as the reduction left them (see
    ``_Tree``): the leaf arcs, ``kids`` flat (left, right, left, ...) and
    ``series`` per internal node, and ``height`` and ``hops`` per node.
    They are lists when the queue reduction alone built the tree, which it
    does exactly below ``ARRAY_MIN_ARCS`` leaves, and the ``_Tree``'s
    arrays once the array rounds ran."""

    leaf_arcs: list | np.ndarray
    kids: list | np.ndarray
    series: list | np.ndarray
    height: list | np.ndarray
    hops: list | np.ndarray

    def lists(self) -> _Columns:
        """The columns as lists."""
        return self if type(self.kids) is list else _Columns(*(c.tolist() for c in self))


class _Plan(NamedTuple):
    """Internal nodes in sweep order and the store rows they touch.

    Sweep order sorts internal nodes by height, parallel before series.
    ``levels[h - 1]`` is (start, split, end, reach) for height h: its
    parallel nodes are ``ids[start:split]``, its series nodes
    ``ids[split:end]``, and reach is the most arcs on a path below any
    node of height h or less.  ``children`` and ``child_row`` hold two
    entries per node, left then right; node ids are the tree's (see
    ``_Columns``), and ``sweep_index[i]`` is the index in ``ids`` of
    internal node ``leaves + i``.  ``out_row`` and ``child_row`` are store
    rows; leaves read row ``slots``.  ``lead`` holds, in sweep order, the
    hops of each series node's left child, which has no finite entry past
    them, and 1 for each parallel node; series batches are sorted by it.
    """

    ids: np.ndarray
    out_row: np.ndarray
    children: np.ndarray
    child_row: np.ndarray
    levels: tuple
    slots: int
    sweep_index: np.ndarray
    lead: list


@dataclass(frozen=True, eq=False)
class DecompTree:
    """Binary series/parallel decomposition of the pruned graph.

    Same-kind runs are balanced; ``height`` is the most internal nodes on
    a root-leaf path and ``hops`` the most arcs on a source-sink path.
    ``columns`` is the only record kept: the node columns as the
    reduction left them, lists or arrays (see ``_Columns``).  Which
    kernel sweeps the tree is ``_sweep``'s choice.  Trees compare by
    identity.
    """

    root: int
    height: int
    hops: int
    columns: _Columns = field(repr=False)

    @property
    def leaf_count(self) -> int:
        return len(self.columns.leaf_arcs)

    @cached_property
    def nodes(self) -> tuple[tuple, ...]:
        """``nodes[i]`` is ("leaf", arc_id) or (kind, left, right), children
        created before parents; built on first read."""
        leaf_arcs, kids, series = self.columns.lists()[:3]
        kinds = [SERIES if s else PARALLEL for s in series]
        return (*zip(repeat(LEAF), leaf_arcs), *zip(kinds, kids[::2], kids[1::2]))


@dataclass(frozen=True)
class RootValues:
    """Root arrays with infinities as float inf, for inspection and tests."""

    first: int
    upper: tuple
    opt: tuple


def decompose(instance: Instance) -> DecompTree:
    """Reduce the pruned graph to a balanced decomposition tree.

    Merges parallel arcs and contracts internal nodes with one arc in and
    one arc out until a single source->sink arc is left; the graph is
    series-parallel exactly when that happens, and NotSeriesParallelError
    is raised otherwise.  The reduction is confluent, so the order of the
    steps changes the tree's shape but not the verdict.

    With its parallel arcs merged, a two-terminal series-parallel graph on
    n >= 2 nodes has treewidth at most 2 and so at most 2n - 3 arcs
    (Duffin 1965), so a pruned graph with more distinct (tail, head) pairs
    over its n on-path nodes is refused before either phase.  When the
    arcs are no more than that bound, one comparison decides; denser
    graphs count their pairs with one sort, or in a set below
    ``ARRAY_MIN_ARCS`` arcs.

    Two phases, which build one tree over the leaf arcs.  A pruned graph of
    at least ``ARRAY_MIN_ARCS`` arcs is first reduced in array rounds
    (``_rounds``) into a ``_Tree``, which recognise before they build: a
    round with nothing to do raises before any tree node exists, also when
    it would be the first after the rounds stop, and the runs opened are
    spliced phase by phase, then closed in one pass per height, only once
    the rounds end, so a graph the rounds reject gets no tree.  The queue
    reduction (``_queue``) finishes what the rounds leave, with their
    closed subtrees as its leaves, and alone reduces smaller graphs, in
    lists.  A tree of fewer than ``ARRAY_MIN_ARCS`` leaves keeps those
    lists as its columns; a larger one extends the ``_Tree`` with them and
    keeps its arrays.  It reads no cost and picks no kernel (see
    ``_sweep``).  The comments on ``ARRAY_MIN_ARCS`` and ``ROUND_SHARE``
    give the measurements behind both limits.
    """
    graph, on = instance.graph, instance.on_path
    bound = 2 * on.count(True) - 3
    if graph.arc_count >= ARRAY_MIN_ARCS:
        if graph.arc_count > bound:
            mask = instance.on_mask
            tails, heads = graph.ends
            kept = mask[tails] & mask[heads]
            # node_count**2 fits in int64 for any graph whose CSR offsets fit in memory
            key = tails[kept] * graph.node_count + heads[kept]
            # argsort, whose code the solvers page in anyway: numpy's in-place
            # sort would map about 0.15 MB more of it into the process; the key
            # is never empty, since the sink is reachable and so some arc joins
            # two on-path nodes
            _refuse_dense(len(run_starts(key[key.argsort()])), bound)
        leaf_arcs, tree, (tails, heads, items, s, t) = _rounds(instance)
        height, hops = tree.height[:tree.made].tolist(), tree.hops[:tree.made].tolist()
    else:
        leaf_arcs = [a for a, (u, w) in enumerate(zip(graph.tail, graph.head)) if on[u] and on[w]]
        tails = [graph.tail[a] for a in leaf_arcs]
        heads = [graph.head[a] for a in leaf_arcs]
        if len(leaf_arcs) > bound:
            _refuse_dense(len(set(zip(tails, heads))), bound)
        items, s, t = range(len(leaf_arcs)), instance.source, instance.sink
        height, hops = [0] * len(leaf_arcs), [1] * len(leaf_arcs)
    kids, series = _queue(tails, heads, items, s, t, height, hops)
    root = len(height) - 1  # every other node lies below it
    if len(leaf_arcs) < ARRAY_MIN_ARCS:
        # the rounds never run on so few arcs, so the queue made every node
        if type(leaf_arcs) is not list:
            leaf_arcs = leaf_arcs.tolist()
        columns = _Columns(leaf_arcs, kids, series, height, hops)
    else:
        tree.extend(kids, series, height, hops)
        columns = _Columns(leaf_arcs, tree.kids.ravel(), tree.series, tree.height, tree.hops)
    return DecompTree(root=root, height=height[root], hops=hops[root], columns=columns)


def _refuse_dense(pairs: int, bound: int):
    if pairs > bound:
        raise NotSeriesParallelError(
            f"too dense to be series-parallel: {pairs} distinct arc pairs, past 2n - 3 = {bound}")


class _Tree:
    """Node columns of a decomposition tree under construction.

    Leaves are nodes ``0 .. leaves - 1``; internal nodes follow in
    creation order, children first.  Internal node i has its left and
    right child in ``kids[i - leaves]`` and its kind in ``series[i -
    leaves]``.  ``height`` (internal nodes on the longest way down to a
    leaf) and ``hops`` (arcs on the longest source-sink path of the
    subgraph) cover every node.  The reduction records nothing else;
    ``_plan`` derives the rest.  A binary tree over the leaves has ``leaves
    - 1`` internal nodes, so every column is allocated once, and the array
    rounds and then the queue reduction's lists (``extend``) fill it.
    """

    def __init__(self, leaves: int):
        self.leaves = leaves
        self.made = leaves
        self.kids = np.empty((leaves - 1, 2), dtype=np.intp)
        self.series = np.empty(leaves - 1, dtype=bool)
        self.height = np.zeros(2 * leaves - 1, dtype=np.intp)
        self.hops = np.ones(2 * leaves - 1, dtype=np.intp)

    def join(self, series, a, b, height: int):
        """New nodes of ``height`` joining a[i] and b[i], in series where
        ``series[i]`` holds, else in parallel; returns their ids."""
        lo, hi = self.made, self.made + len(a)
        self.made = hi
        inner = slice(lo - self.leaves, hi - self.leaves)
        self.kids[inner, 0] = a
        self.kids[inner, 1] = b
        self.series[inner] = series
        self.height[lo:hi] = height
        hops_a, hops_b = self.hops[a], self.hops[b]
        self.hops[lo:hi] = np.where(series, hops_a + hops_b, np.maximum(hops_a, hops_b))
        return np.arange(lo, hi)

    def extend(self, kids: list, series: list, height: list, hops: list):
        """Append the nodes the queue reduction made: their ``kids`` (flat)
        and ``series``, and ``height`` and ``hops`` of every node."""
        made = self.made
        self.height[made:] = height[made:]
        self.hops[made:] = hops[made:]
        self.kids.reshape(-1)[2 * (made - self.leaves):] = kids
        self.series[made - self.leaves:] = series
        self.made = len(height)


def _rounds(instance: Instance):
    """Reduce the pruned graph in array rounds over compact node ids.

    Each round merges every class of parallel arcs (one stable sort on
    tail and head; a class keeps arc order) and then contracts every
    maximal chain through nodes with one arc in and one arc out, found by
    list ranking with pointer jumping.  The rounds start from
    ``Instance.core``, the kept arcs with their ends renumbered, and
    write nothing into it; every array made here is sized by the kept
    arcs or by the compact ids of their endpoints, never by
    ``node_count``.  Rounds run while at least ``ARRAY_MIN_ARCS`` arcs
    are left and each removes at least ``1 / ROUND_SHARE`` of them; a
    round that finds nothing to do raises, also the one after the last.
    Returns the kept arc ids (an array), the tree with the runs closed,
    and what the queue reduction takes: the arcs left (tails, heads and
    the roots of their subtrees, as lists) and the compact source and
    sink.
    """
    kept, tail, head, size, s, t = instance.core
    tree = _Tree(len(kept))
    item = np.arange(len(kept))
    runs = _Runs(len(kept))
    # once the rounds are over, one more looks for work without doing it:
    # a graph with none is rejected before anything is built, and only a
    # graph with work left goes to the queue
    over = len(tail) < ARRAY_MIN_ARCS
    while len(tail) > 1:
        live = len(tail)
        key = tail * size + head
        order = np.argsort(key, kind="stable")
        first = run_starts(key[order])
        if len(first) < live:
            if over:
                break
            sizes = np.diff(first, append=live)
            merged = sizes > 1
            kept_arc = order[first]  # each class's first arc stands for it
            item[kept_arc[merged]] = runs.open(
                item[order[np.repeat(merged, sizes)]], sizes[merged], False)
            keep = np.zeros(live, dtype=bool)
            keep[kept_arc] = True
            tail, head, item = tail[keep], head[keep], item[keep]

        inner = (np.bincount(head, minlength=size) == 1) & (np.bincount(tail, minlength=size) == 1)
        inner[[s, t]] = False
        into, out = inner[head], inner[tail]
        linked = into | out
        if linked.any():
            if over:
                break
            chain = np.flatnonzero(linked)
            into, out = into[chain], out[chain]
            local = np.arange(len(chain))
            entering = np.empty(size, dtype=np.intp)
            entering[head[chain[into]]] = local[into]
            # list ranking: rank is the distance back to the chain's first arc
            back = local.copy()
            back[out] = entering[tail[chain[out]]]
            rank = out.astype(np.intp)
            while True:
                further = back[back]
                if (further == back).all():
                    break
                rank += rank[back]
                back = further
            order = np.lexsort((rank, back))
            chain, back = chain[order], back[order]
            first = np.flatnonzero(np.diff(back, prepend=-1))
            lengths = np.diff(first, append=len(chain))
            rest = ~linked
            tail = np.concatenate((tail[rest], tail[chain[first]]))
            head = np.concatenate((head[rest], head[chain[first + lengths - 1]]))
            item = np.concatenate((item[rest], runs.open(item[chain], lengths, True)))

        if len(tail) == live:
            raise NotSeriesParallelError(f"reduction stalled with {live} arcs left")
        over = len(tail) < ARRAY_MIN_ARCS or ROUND_SHARE * (live - len(tail)) < live
    if runs.count:
        root = runs.close(tree)
        run = item >= len(kept)
        item[run] = root[item[run] - len(kept)]
    return kept, tree, (tail.tolist(), head.tolist(), item.tolist(), s, t)


class _Runs:
    """The runs the array rounds open, closed only once the rounds end.

    Operands are leaves (ids below ``leaves``) or runs (``leaves + r`` is
    run r).  ``close`` splices a run that is an operand of a run of its
    own kind into it, so every run closed is maximal, as in the queue
    reduction, and closes the others together in ``_close_runs``.
    """

    def __init__(self, leaves: int):
        self.leaves = leaves
        self.count = 0
        self.phases = []  # (series, members, sizes) in opening order

    def open(self, members, sizes, series: bool):
        """Open one run per ``sizes[i]`` consecutive members; returns their ids."""
        self.phases.append((series, members, sizes))
        self.count += len(sizes)
        return np.arange(self.leaves + self.count - len(sizes), self.leaves + self.count)

    def close(self, tree: _Tree):
        """Splice the runs phase by phase, close them at once; returns the roots."""
        leaves = self.leaves
        kind = np.concatenate([np.full(len(sizes), series) for series, _, sizes in self.phases])
        start = np.empty(self.count, dtype=np.intp)
        size = np.empty(self.count, dtype=np.intp)
        absorbed = np.zeros(self.count, dtype=bool)
        ops = np.empty(0, dtype=np.intp)  # operands of every run, run after run
        lo = 0
        for series, members, sizes in self.phases:
            r = members - leaves
            spliced = r >= 0
            spliced[spliced] = kind[r[spliced]] == series
            r = r[spliced]
            absorbed[r] = True
            # a spliced member's operands, else the member itself, read from
            # the operands so far followed by the members
            width = np.ones(len(members), dtype=np.intp)
            width[spliced] = size[r]
            at = np.arange(len(ops), len(ops) + len(members))
            at[spliced] = start[r]
            hi = lo + len(sizes)
            size[lo:hi] = np.add.reduceat(width, np.cumsum(sizes) - sizes)
            start[lo:hi] = len(ops) + np.cumsum(size[lo:hi]) - size[lo:hi]
            ops = np.concatenate((ops, np.concatenate((ops, members))[_spans(at, width)]))
            lo = hi
        closing = np.flatnonzero(~absorbed)
        x = ops[_spans(start[closing], size[closing])]
        run = x >= leaves
        # run r waits as ~j, j its place among the runs closed here
        x[run] = -np.cumsum(~absorbed)[x[run] - leaves]
        root = np.empty(self.count, dtype=np.intp)
        root[closing] = _close_runs(x, size[closing], kind[closing], tree)
        return root


def _spans(start, size):
    """Indices ``start[i] .. start[i] + size[i] - 1``, span after span."""
    end = np.cumsum(size)
    return np.repeat(start - end + size, size) + np.arange(end[-1])


def _close_runs(ops, size, series, tree: _Tree):
    """Close runs by ``_queue``'s rule for one run, all of them at once.

    ``ops`` holds the operands of every run, run after run, ``size`` their
    counts (at least 2 each) and ``series`` their kinds.  An operand is a
    leaf, or ``~r`` while run r is open, which counts as taller than any
    height.  The pass for height h joins, in every run, the neighbours of
    height at most h, two by two from the left of each stretch of such
    operands, in one ``_Tree.join``.  A run closes where its last two
    operands join; its root, of height h + 1, takes its place, and its
    parent pairs it from h + 1 on, as if it had closed before.  Returns
    each run's root.
    """
    n, count = len(ops), len(size)
    root = ~np.arange(count)  # ~r until run r closes
    # per operand, and one column past the last: the operand, its height (n
    # is taller than any pass's), its run where it starts (else -1), its kind
    cols = np.zeros((4, n + 1), dtype=np.intp)
    cols[0, :n] = ops
    cols[1] = np.append(ops < 0, True) * n
    cols[2] = -1
    cols[2, np.append(np.cumsum(size) - size, n)] = np.arange(count + 1)
    cols[3, :n] = np.repeat(series, size)
    h = 0
    while cols.shape[1] > 1:
        ops, tall, head, kind = cols
        low = tall <= h
        first = head >= 0
        # a stretch starts at a low run start or after a taller operand; the
        # scan of flip is 0 at the stretch's start and alternates from there
        begins = low & first
        begins[1:] |= low[1:] > low[:-1]
        starts = np.flatnonzero(begins)
        odd = starts & 1
        flip = np.ones(len(low), dtype=bool)
        flip[starts] = odd == np.concatenate(([1], odd[:-1]))
        pair = low > np.logical_xor.accumulate(flip)
        pair[:-1] &= low[1:] > first[1:]
        i = np.flatnonzero(pair)
        h += 1
        ops[i] = tree.join(kind[i], ops[i], ops[i + 1], h)
        tall[i] = h
        # a pair that was all its run had left closes the run
        whole = i[first[i] & first[i + 2]]
        root[head[whole]] = ops[whole]
        keep = np.concatenate(([True], ~pair[:-1]))
        keep[whole] = False
        cols = cols.compress(keep, axis=1)
        ops, tall = cols[:2]
        held = np.flatnonzero(ops < 0)
        ops[held] = root[~ops[held]]
        tall[held[ops[held] >= 0]] = h
    return root


def _queue(tails, heads, items, s, t, height: list, hops: list):
    """Queue reduction of the arcs left, whose subtrees are closed.

    The items are the roots of the arcs' subtrees: leaves, or the runs the
    array rounds closed.  ``height`` and ``hops`` hold the columns of the
    nodes made so far (see ``_Tree``) and are extended in place; returns
    the new nodes' ``kids``, flat, and ``series``.  A reduced arc stands
    for a closed subtree or for an open run: a deque of series operands or
    a list of parallel ones.  Nodes are taken from a queue, in id order
    first; parallel arcs merge on insertion, the arc already there staying
    on the left.
    """
    kids: list[int] = []
    series: list[bool] = []

    def join(is_series: bool, a: int, b: int) -> int:
        kids.extend((a, b))
        series.append(is_series)
        ha, hb = height[a], height[b]
        height.append((ha if ha > hb else hb) + 1)
        pa, pb = hops[a], hops[b]
        hops.append(pa + pb if is_series else (pa if pa > pb else pb))
        return len(height) - 1

    def close(item) -> int:
        """Close an open run into a balanced subtree; returns its root."""
        is_series = type(item) is deque
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
                    paired.append(join(is_series, ops[i], ops[i + 1]))
                    i += 2
                else:
                    paired.append(ops[i])
                    i += 1
            ops = paired
        return join(is_series, *ops)

    # per node: successor -> reduced arc, and the set of predecessors
    succ: dict[int, dict] = {v: {} for v in sorted({*tails, *heads})}
    pred: dict[int, set] = {v: set() for v in succ}

    def add(u: int, w: int, item):
        out = succ[u]
        run = out.get(w)
        if run is None:
            out[w] = item
            pred[w].add(u)
            return
        if type(run) is not list:
            run = out[w] = [run if type(run) is int else close(run)]
        run.append(item if type(item) is int else close(item))

    for u, w, item in zip(tails, heads, items):
        add(u, w, item)
    pending = deque(v for v in succ if v != s and v != t)
    queued = set(pending)
    while pending:
        v = pending.popleft()
        queued.discard(v)
        ins, outs = pred[v], succ[v]
        if len(ins) != 1 or len(outs) != 1:
            continue
        u = ins.pop()
        w, after = outs.popitem()
        before = succ[u].pop(v)
        pred[w].discard(v)
        if type(before) is not deque:
            before = deque((before if type(before) is int else close(before),))
        if type(after) is not deque:
            before.append(after if type(after) is int else close(after))
        elif len(before) >= len(after):  # merge the shorter run into the longer one
            before.extend(after)
        else:
            after.extendleft(reversed(before))
            before = after
        add(u, w, before)
        for x in (u, w):
            if x != s and x != t and x not in queued:
                pending.append(x)
                queued.add(x)

    live = sum(map(len, succ.values()))
    if live != 1:
        raise NotSeriesParallelError(f"reduction stalled with {live} arcs left")
    root = succ[s][t]  # the one arc left joins the terminals
    if type(root) is not int:
        close(root)
    return kids, series


def _plan(columns: _Columns) -> _Plan:
    """Sweep order, batch bounds and store rows of a tree whose columns
    are arrays.

    Rows are assigned here, once, by the module docstring's rule: each
    internal node follows the children whose row it takes down to a node
    of height 1, by pointer jumping.  The plan holds nothing the columns
    hold.
    """
    leaf_arcs, kids, series, height, hops = columns
    leaves = len(leaf_arcs)
    inner = height[leaves:]
    top = int(inner.max(initial=0))
    kids = kids.reshape(-1, 2)
    left, right = kids.T
    fresh = np.flatnonzero(inner == 1)
    down = np.where(left >= leaves, left, right) - leaves
    down[fresh] = fresh
    for _ in range((top - 1).bit_length()):
        down = down[down]
    slots = len(fresh)
    number = np.empty(len(inner), dtype=np.intp)  # fresh rows, in creation order
    number[fresh] = np.arange(slots)
    # leaves read the last, all-infinite row
    row = np.concatenate((np.full(leaves, slots), number[down]))
    # parallel then series nodes of each height, one batch each, series
    # nodes by left-child hops, and in creation order within that
    batch = inner * 2 + series
    longest = int(hops[-1])  # the root's: no node has more
    lead = np.where(series, hops[left], 1)
    # numpy sorts 16-bit keys stably by radix: 58 against 147 us for the 5k
    # internal nodes of an asp-20k tree
    key = (batch * (longest + 1) + lead).astype(
        np.uint16 if (2 * top + 2) * (longest + 1) <= 1 << 16 else np.intp, copy=False)
    order = np.argsort(key, kind="stable")
    lead = lead[order].tolist()
    ids = order + leaves
    children = kids[order].ravel()
    sizes = np.bincount(batch, minlength=2 * top + 2).tolist()
    levels = []
    end = 0
    for parallel, series in zip(sizes[2::2], sizes[3::2]):
        start, split = end, end + parallel
        end = split + series
        levels.append((start, split, end))
    reach = []
    if levels:
        peaks = np.maximum.reduceat(hops[leaves:][order], [level[0] for level in levels])
        reach = np.maximum.accumulate(peaks).tolist()
    sweep_index = np.empty(len(ids), dtype=np.intp)
    sweep_index[order] = np.arange(len(ids))
    return _Plan(
        ids=ids, out_row=row[ids], children=children,
        child_row=row[children],
        levels=tuple(level + (most,) for level, most in zip(levels, reach)),
        slots=slots, sweep_index=sweep_index, lead=lead,
    )


def _fits_int64(costs, leaf_arcs) -> bool:
    """Whether the numpy sweep is exact on the leaf arcs: the largest
    ``|first| + |upper|`` over them in the graph's int64 ``costs``, times
    16 times the arcs plus 2, stays below ``ASP_INF``.  A cost clipped to
    +-SATURATE fails the test, as its exact value would.
    """
    # one row each, then the gather: a gather of both rows at once takes 5x as long
    worst = int((np.abs(costs[0]) + np.abs(costs[1]))[leaf_arcs].max())
    return 16 * (len(leaf_arcs) + 2) * (worst + 1) < ASP_INF


def _parallel_step(children, child_first, values, first):
    """Parallel composition of a block of nodes.

    ``children`` is (rows, side, opt/upper, w) and ``child_first`` is
    (rows, side); results go to ``values`` (rows, opt/upper, w) and
    ``first``.  Returns the backpointers: per ``opt`` entry a code, 0/1
    for both stages on the left/right, 2 for the first stage on the left
    and the recovery on the right, 3 the reverse; per ``upper`` entry
    whether the right side is strictly cheaper.
    """
    (opt_a, upper_a), (opt_b, upper_b) = children.transpose(1, 2, 0, 3)
    first_a, first_b = child_first.T
    opt = values[:, 0]
    np.minimum(opt_a, opt_b, out=opt)
    code = (opt_b < opt_a).view(np.int8)
    # a mixed candidate replaces the minimum only where strictly cheaper:
    # the code is the first candidate that attains it
    mixed = np.empty_like(opt)
    for c, f, upper in ((2, first_a, upper_b), (3, first_b, upper_a)):
        np.add(upper, f[:, None], out=mixed)
        cheaper = mixed < opt
        np.copyto(opt, mixed, where=cheaper)
        np.copyto(code, c, where=cheaper)
    np.minimum(upper_a, upper_b, out=values[:, 1])
    np.minimum(first_a, first_b, out=first)
    return code, upper_b < upper_a


def _series_step(children, child_first, values, first, span):
    """Series composition of a block: min-plus convolution of both arrays.

    ``values[r, a, l] = min_j left[r, a, j] + right[r, a, l - j]`` over
    ``j < span``: no left child of the block has a finite entry past it.
    The backpointer is the smallest minimising j (the left share).
    """
    rows, _, _, w = children.shape
    # the right rows reversed, then infinities: at window l, offset j
    # reads right[l - j] for j <= l and an infinity beyond
    padded = np.empty((rows, 2, w + span - 1), dtype=np.int64)
    padded[:, :, :w] = children[:, 1, :, ::-1]
    padded[:, :, w:] = _INF
    step = padded.itemsize
    shifted = np.ndarray((rows, 2, w, span), np.int64, padded, (w - 1) * step,
                         (*padded.strides[:2], -step, step))
    sums = (children[:, 0, :, None, :span] + shifted).reshape(-1, span)
    share = sums.argmin(axis=1)
    # the minima are where the argmin points: no second pass over the sums
    values.reshape(-1)[:] = sums[np.arange(len(sums)), share]
    np.add(child_first[:, 0], child_first[:, 1], out=first)
    return (share.reshape(values.shape).astype(np.min_scalar_type(span - 1)),)


def _block_end(lead, lo: int, end: int, w: int, room: int) -> int:
    """Where the block from ``lo`` ends: the most nodes up to ``end`` whose
    count times the span of the last, ``min(w, lead + 1)``, stays within
    ``room``, and at least one.  Within a height spans never fall, so the
    last node's is the widest and the products rise, as ``bisect`` needs."""
    return lo + max(1, bisect_right(range(lo + 1, end + 1), room,
                                    key=lambda i: (i - lo) * min(w, lead[i - 1] + 1)))


def _evaluate(instance: Instance, tree: DecompTree, plan: _Plan):
    """Sweep by height, ``min(k, hops) + 1`` wide, in the order ``plan``
    gives the tree's internal nodes.

    Returns the first cost of every node, the root's (opt, upper) rows
    and the backpointers: per height a (parallel, series) pair of tuples
    of arrays indexed by position in the batch.
    """
    leaf_arcs = tree.columns.leaf_arcs
    # (first, upper, combined) of the leaf arcs; no other arc is read
    costs = instance.graph.costs.take(leaf_arcs, axis=1)
    width = min(instance.k, tree.hops) + 1
    leaves = len(leaf_arcs)
    first = np.empty(2 * leaves - 1, dtype=np.int64)
    first[:leaves] = costs[0]
    if not plan.levels:  # a single arc
        root = np.full((2, width), _INF, dtype=np.int64)
        root[0, 0] = costs[2, 0]
        if width > 1:
            root[1, 1] = costs[1, 0]
        return first, root, []

    store = np.full((plan.slots + 1, 2, width), _INF, dtype=np.int64)
    child_row, children, ids, out_row = plan.child_row, plan.children, plan.ids, plan.out_row
    # a leaf child's only finite entries: opt[0] (combined) and upper[1]
    leaf_values = costs[:0:-1, np.minimum(children, leaves - 1)].T
    child_leaf = (children < leaves)[:, None]
    lead = plan.lead
    back = []
    for start, split, end, reach in plan.levels:
        w = min(width, reach + 1)
        room = BLOCK_CELLS // (2 * w)  # for node count times span
        found = ([], [])
        lo = start
        while lo < end:
            hi = _block_end(lead, lo, end, w, room)
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
                    gathered[mid:], child_first[mid:], values[mid:], out_first[mid:],
                    min(w, lead[hi - 1] + 1)))
            # keep infinities at or below _INF; see the module docstring
            np.minimum(values, _INF, out=values)
            store[out_row[lo:hi], :, :w] = values
            first[ids[lo:hi]] = out_first
            lo = hi
        back.append(tuple(
            parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))
            for parts in found
        ))
    return first, store[out_row[-1]], back


def _sweep_lists(instance: Instance, columns: _Columns):
    """Sweep a tree node by node in Python, exactly.

    Nodes are visited in creation order, children first.  Each keeps
    ``first``, and its ``opt`` and ``upper`` rows until its parent's are
    made; the rows are ``min(k, hops) + 1`` long, exact ints with ``INF``
    where no path is, and no candidate adds to ``INF``.  A series node's
    convolution stops at its left child's hops.  Ties go as in
    ``_evaluate``: the smallest left share, the first of the four parallel
    candidates, the right side only when strictly cheaper.  Returns every
    node's first cost, the root's opt and upper rows, and per internal
    node the backpointer rows ``_read_back`` takes.
    """
    leaf_arcs, kids, series, _, hops = columns
    graph = instance.graph
    first_cost, upper_cost, combined = graph.first, graph.upper, graph.combined
    first = [first_cost[a] for a in leaf_arcs]
    k = instance.k
    if k:
        opt = [[combined[a], INF] for a in leaf_arcs]
        upper = [[INF, upper_cost[a]] for a in leaf_arcs]
    else:
        opt = [[combined[a]] for a in leaf_arcs]
        upper = [[INF] for _ in leaf_arcs]
    back = []
    for node, is_series, a, b in zip(range(len(leaf_arcs), len(hops)), series,
                                     kids[::2], kids[1::2]):
        w = min(k, hops[node]) + 1
        fa, fb, oa, ob, ua, ub = first[a], first[b], opt[a], opt[b], upper[a], upper[b]
        if is_series:
            first.append(fa + fb)
            wb = len(ob)
            rows = []
            for x, y in ((oa, ob), (ua, ub)):
                row, shares = [INF] * w, [0] * w
                # left shares in ascending order, so a tie keeps the smallest
                for j, left in enumerate(x):
                    if left is not INF:
                        for l in range(j, min(w, j + wb)):
                            right = y[l - j]
                            if right is not INF and left + right < row[l]:
                                row[l], shares[l] = left + right, j
                rows += row, shares
            o, opt_back, u, upper_back = rows
        else:
            first.append(fb if fb < fa else fa)
            # the narrower side has no path past its width
            if len(oa) < w:
                oa, ua = oa + [INF] * (w - len(oa)), ua + [INF] * (w - len(oa))
            if len(ob) < w:
                ob, ub = ob + [INF] * (w - len(ob)), ub + [INF] * (w - len(ob))
            o, opt_back, u, upper_back = [], [], [], []
            for l in range(w):
                # the first candidate that attains the minimum
                best, code, ual, ubl = oa[l], 0, ua[l], ub[l]
                if ob[l] < best:
                    best, code = ob[l], 1
                if ubl is not INF and fa + ubl < best:
                    best, code = fa + ubl, 2
                if ual is not INF and fb + ual < best:
                    best, code = fb + ual, 3
                o.append(best)
                opt_back.append(code)
                right = ubl < ual
                u.append(ubl if right else ual)
                upper_back.append(right)
        opt.append(o)
        upper.append(u)
        # each node is one node's child, and the root nobody's
        opt[a] = opt[b] = upper[a] = upper[b] = None
        back.append((opt_back, upper_back))
    return first, opt[-1], upper[-1], back


_OPT, _FIRST, _UPPER = range(3)


def _read_back(root: int, columns, back, first, l: int):
    """Walk backpointers down from the root's ``opt[l]``; returns the arc
    ids of both stages, each in path order.

    ``columns`` starts with the tree's leaf arcs, kids and series as lists
    (see ``_Columns``).  ``back(i)`` gives the backpointer rows of
    internal node ``leaves + i``, a pair indexed by l: a series node's
    left shares of its opt and upper entries; a parallel node's code per
    opt entry (0/1 for both stages on the left/right, 2 for the first
    stage on the left and the recovery on the right, 3 the reverse) and,
    per upper entry, whether the right side is strictly cheaper.
    ``first`` holds every node's first cost: a parallel node's cheaper
    first stage is on the right only when strictly cheaper there.
    """
    leaf_arcs, kids, series = columns[:3]
    leaves = len(leaf_arcs)
    x: list[int] = []
    y: list[int] = []
    stack = [(root, _OPT, l)]
    while stack:
        i, q, l = stack.pop()
        if i < leaves:
            if q != _UPPER:
                x.append(leaf_arcs[i])
            if q != _FIRST:
                y.append(leaf_arcs[i])
            continue
        i -= leaves
        left, right = kids[2 * i], kids[2 * i + 1]
        opt_back, upper_back = back(i)
        if series[i]:
            if q == _FIRST:
                stack += (right, q, 0), (left, q, 0)
            else:
                j = int((opt_back if q == _OPT else upper_back)[l])
                stack += (right, q, l - j), (left, q, j)
        elif q == _FIRST:
            stack.append((right if first[right] < first[left] else left, q, 0))
        elif q == _UPPER:
            stack.append((right if upper_back[l] else left, q, l))
        else:
            code = opt_back[l]
            if code < 2:
                stack.append((right if code else left, q, l))
            elif code == 2:
                stack += (right, _UPPER, l), (left, _FIRST, 0)
            else:
                stack += (left, _UPPER, l), (right, _FIRST, 0)
    return x, y


def _sweep(instance: Instance, tree: DecompTree):
    """Sweep the tree with the kernel its record and costs allow.

    A tree whose columns are lists (one of fewer than ``ARRAY_MIN_ARCS``
    leaves) or whose leaf arcs' costs fail the int64 guard
    (``_fits_int64``) is swept in Python (``_sweep_lists``); any other is
    planned (``_plan``) and swept in numpy (``_evaluate``).

    Returns the root's first cost, its opt and upper rows as exact ints
    with ``INF`` where no path is, and ``read_back(l)``, the stage paths
    of ``opt[l]`` (see ``_read_back``).
    """
    columns = tree.columns
    if type(columns.kids) is list or not _fits_int64(instance.graph.costs, columns.leaf_arcs):
        columns = columns.lists()
        first, opt, upper, backs = _sweep_lists(instance, columns)
        back = backs.__getitem__
    else:
        plan = _plan(columns)
        first, root, found = _evaluate(instance, tree, plan)
        opt, upper = ([INF if v >= _PIN else v for v in row.tolist()] for row in root)
        height, levels, sweep_index = columns.height, plan.levels, plan.sweep_index
        leaves = len(columns.leaf_arcs)

        def back(i):
            level = int(height[leaves + i]) - 1
            start, split, _, _ = levels[level]
            p = int(sweep_index[i])
            if p < split:
                opt_code, upper_right = found[level][0]
                return opt_code[p - start], upper_right[p - start]
            (shares,) = found[level][1]
            return shares[p - split]

        columns = [c.tolist() for c in columns[:3]]
    return int(first[tree.root]), opt, upper, partial(_read_back, tree.root, columns, back, first)


def root_values(instance: Instance) -> RootValues:
    """The three root quantities for an instance, with float infinities.

    The arrays have k + 1 entries; those past the effective budget are
    infinite, since no recovery path has that many arcs.
    """
    first, opt, upper, _ = _sweep(instance, decompose(instance))
    pad = (INF,) * (instance.k + 1 - len(opt))
    return RootValues(first=first, upper=(*upper, *pad), opt=(*opt, *pad))


def solve_asp(instance: Instance) -> Solution:
    """Exact solver for arc series-parallel instances."""
    instance.require_positive_budget()
    _, opt, _, read_back = _sweep(instance, decompose(instance))
    x, y = read_back(opt.index(min(opt)))  # ties: smallest divergence
    return build_solution(instance, tuple(x), tuple(y))
