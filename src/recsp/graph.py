"""Multidigraph core: two-stage arc costs and the shared DAG algorithms.

Costs are plain Python integers; the unreachable/impossible sentinel is
``INF`` (``float("inf")``).  Integer arithmetic never overflows in Python,
so finite values stay exact.  The sweeps never add a cost to ``INF``: an
int past the float range raises there, so they skip infinite entries.

A ``MultiDigraph`` is stored as per-arc integer columns, given as lists
or, by the byte scan of the parser, as int64 arrays.  It derives its
adjacency from them, as two flat CSR (compressed sparse row) arrays:
the arc ids ordered stably by tail and by head, each with ``node_count +
1`` offsets, so that a node's out- or in-arcs are one slice, in ascending
id order.  The ids by head are ordered on first read, since only reading
a path back needs them; everything else is built with the graph.  It
keeps its topological order once it has been computed; ``Instance``
validation does so in one forward sweep that also counts the longest
hops from the source, and those counts give the on-path nodes too
unless some node the source reaches, other than the sink, has no
out-arc; then one sweep back along the order marks them over the
out-arcs.  The routines here read those and never sort the graph again.
Each column is built on first read in the form its reader wants: the
exact Python-int lists the sweeps here read, and the int64 ``ends`` and
``costs`` that numpy code reads (the costs saturated at ``SATURATE``, so
that sums of two stay inside int64).
``Arc`` objects are views built only when ``MultiDigraph.arcs`` is read.

Every sweep from a source walks the topological order from it and pushes
along the out-arcs of the nodes it has reached.  Given ``until``, a node
at or after the source, a sweep stops on reaching that node: the entries
of nodes up to and including it are final, as a node's entry depends
only on the nodes before it; later ones are not.

The shortest-path sweeps take a cost column (``graph.first``,
``graph.upper`` or ``graph.combined``) and keep distances only.  A path
is read back from them: walking from its end, each step takes the
smallest-id in-arc whose tail's distance plus its cost attains the
current one, and in a hop-indexed table it first steps down a hop while
that costs nothing, so on a cost tie the path with fewer arcs wins.
"""
from __future__ import annotations

import heapq
import operator
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, compress, islice

import numpy as np

from .errors import CyclicGraphError, NotLayeredError, ValidationError

INF = float("inf")


class Arc(namedtuple("Arc", "id tail head first_cost nominal deviation")):
    """A directed arc with a first-stage cost and an uncertain second-stage cost.

    The second-stage cost lies in [nominal, nominal + deviation]; its upper
    extreme is what the recoverable objective charges.  A tuple, so that
    ``MultiDigraph.arcs`` can build views of its validated columns with
    ``Arc._make``, which skips the checks made here.
    """

    __slots__ = ()

    def __new__(cls, id, tail, head, first_cost, nominal, deviation):
        if deviation < 0:
            raise ValidationError(f"arc {id}: deviation {deviation} < 0")
        if tail == head:
            raise ValidationError(f"arc {id}: self-loop at node {tail}")
        return super().__new__(cls, id, tail, head, first_cost, nominal, deviation)

    @property
    def upper_cost(self) -> int:
        return self.nominal + self.deviation

    @property
    def combined_cost(self) -> int:
        return self.first_cost + self.nominal + self.deviation


def _column():
    return field(init=False, repr=False, compare=False)


# int64 cost columns are clipped to +-SATURATE: a sum of two stays in range
SATURATE = 1 << 61


class _ListOnRead:
    """A cost column of a graph given as arrays, made a list on first read.

    Set on the class after ``dataclass`` has made the column a field: the
    graph keeps the column in its ``__dict__`` when given a list, and
    drops it there when given an array, so that this is read instead.
    """

    def __init__(self, name: str, row: int):
        self.name, self.row = name, row

    def __get__(self, graph, owner=None):
        if graph is None:
            return self
        column = graph._arrays[self.row].tolist()
        graph.__dict__[self.name] = column
        return column


@dataclass(frozen=True)
class MultiDigraph:
    """Directed multigraph over nodes 0..node_count-1.

    Parallel arcs are permitted and stay distinct by arc id.  The graph is
    stored as per-arc columns indexed by arc id: ``tail``, ``head``,
    ``first``, ``nominal`` and ``deviation`` as given, as lists or as
    int64 arrays.  Read as attributes they are lists, built on first read
    from arrays; ``upper`` and ``combined`` are lists built on first read
    (Python ints, since sums of int64 costs can leave that range); ``ends``
    and ``costs`` are their int64 forms.

    The adjacency is CSR: ``_out`` is a pair ``(ids, starts)`` of tuples,
    ``ids`` the arc ids ordered stably by tail and ``starts`` the
    ``node_count + 1`` offsets into it, so that v's out-arcs are
    ``ids[starts[v]:starts[v + 1]]``; ``_in`` is the same by head, its
    offsets ``_in_starts`` counted with the graph and its ids ordered on
    first read, by path read-back only.  The sweeps here slice these
    pairs; other code reads ``out_arcs`` and ``in_arcs``.
    """

    node_count: int
    tail: list[int]
    head: list[int]
    first: list[int]
    nominal: list[int]
    deviation: list[int]
    _out: tuple[tuple[int, ...], tuple[int, ...]] = _column()
    _in_starts: tuple[int, ...] = _column()

    def __post_init__(self):
        n = self.node_count
        given = (self.tail, self.head, self.first, self.nominal, self.deviation)
        tail, head, _, _, deviation = given
        m = len(tail)
        if not len(head) == len(self.first) == len(self.nominal) == len(deviation) == m:
            raise ValidationError("arc columns differ in length")
        arrays = isinstance(tail, np.ndarray)
        # whole-column checks; the arc-by-arc scans only find the culprit
        if arrays:
            faulty = np.flatnonzero((deviation < 0) | (tail == head))[:1].tolist()
            inside = not m or 0 <= min(tail.min(), head.min()) and max(tail.max(), head.max()) < n
        else:
            faulty = range(m) if m and (min(deviation) < 0 or any(map(operator.eq, tail, head))) else ()
            inside = not m or 0 <= min(tail) and max(tail) < n and 0 <= min(head) and max(head) < n
        for i in faulty:
            if deviation[i] < 0:
                raise ValidationError(f"arc {i}: deviation {deviation[i]} < 0")
            if tail[i] == head[i]:
                raise ValidationError(f"arc {i}: self-loop at node {tail[i]}")
        if n < 1:
            raise ValidationError("node_count must be >= 1")
        if not inside:
            for i, t, h in zip(range(m), tail, head):
                if not (0 <= t < n and 0 <= h < n):
                    raise ValidationError(f"arc {i}: endpoint out of range")
        if arrays:
            # the ids and offsets share their int objects, and so do both end lists
            ids = list(range(m + 1))
            out_ids = _pick(ids, _by_node(tail))
            # v's offset counts the arcs whose end is below v
            starts = [_pick(ids, np.bincount(column + 1, minlength=n + 1).cumsum())
                      for column in (tail, head)]
            nodes = list(range(max(tail.max(), head.max()) + 1 if m else 0))
            self.__dict__.update(_arrays=given, ends=given[:2], tail=list(_pick(nodes, tail)),
                                 head=list(_pick(nodes, head)))
            for name in ("first", "nominal", "deviation"):
                del self.__dict__[name]  # read through _ListOnRead
        else:
            out_ids = tuple(sorted(range(m), key=tail.__getitem__))
            starts = []
            for column in (tail, head):
                count = [0] * n
                for v in column:
                    count[v] += 1
                starts.append(tuple(accumulate(count, initial=0)))
        self.__dict__.update(_out=(out_ids, starts[0]), _in_starts=starts[1])

    @classmethod
    def from_rows(cls, node_count: int, rows) -> "MultiDigraph":
        """Build from (tail, head, first_cost, nominal, deviation) rows; ids follow row order."""
        columns = [list(column) for column in zip(*rows)] or [[] for _ in range(5)]
        return cls(node_count, *columns)

    @cached_property
    def arcs(self) -> tuple[Arc, ...]:
        """The arcs as ``Arc`` views of the columns, built on first access."""
        return tuple(map(Arc._make, zip(
            range(self.arc_count), self.tail, self.head, self.first, self.nominal,
            self.deviation,
        )))

    @property
    def arc_count(self) -> int:
        return len(self.tail)

    @cached_property
    def upper(self) -> list[int]:
        """Worst-case second-stage cost of each arc, ``nominal + deviation``,
        made on first read."""
        return list(map(operator.add, self.nominal, self.deviation))

    @cached_property
    def combined(self) -> list[int]:
        """Both stages' cost of each arc, ``first + upper``; made as ``upper`` is."""
        return list(map(operator.add, self.first, self.upper))

    @cached_property
    def ends(self):
        """``tail`` and ``head`` as two int64 arrays; a graph given as
        arrays stores its own."""
        return np.array(self.tail + self.head, dtype=np.int64).reshape(2, self.arc_count)

    @cached_property
    def costs(self) -> np.ndarray:
        """``first``, ``upper`` and ``combined`` as one int64 array of shape
        (3, arc_count), each clipped to +-SATURATE from its exact value."""
        given = self.__dict__.get("_arrays")
        if given is not None and all(-SATURATE <= c.min(initial=0) and c.max(initial=0) <= SATURATE
                                     for c in given[2:]):
            # no sum of three such costs leaves int64
            costs = np.empty((3, self.arc_count), dtype=np.int64)
            costs[0] = given[2]
            np.add(given[3], given[4], out=costs[1])
            np.add(costs[0], costs[1], out=costs[2])
        else:
            columns = (self.first, self.upper, self.combined)
            try:
                costs = np.array(columns, dtype=np.int64)
            except OverflowError:
                costs = np.array([[min(max(c, -SATURATE), SATURATE) for c in column]
                                  for column in columns], dtype=np.int64)
        np.minimum(costs, SATURATE, out=costs)
        return np.maximum(costs, -SATURATE, out=costs)

    def stage_costs(self, x_arcs, y_arcs) -> tuple[int, int]:
        """The exact first-stage cost of ``x_arcs`` and upper cost of
        ``y_arcs``; a graph given as arrays sums just their entries."""
        given = self.__dict__.get("_arrays")
        if given is None:
            return path_cost(self.first, x_arcs), path_cost(self.upper, y_arcs)
        x, y = list(x_arcs), list(y_arcs)
        return sum(given[2][x].tolist()), sum(given[3][y].tolist()) + sum(given[4][y].tolist())

    def out_arcs(self, v: int) -> tuple[int, ...]:
        """The ids of the arcs leaving v, ascending."""
        ids, starts = self._out
        return ids[starts[v]:starts[v + 1]]

    @cached_property
    def _in(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The in-arc CSR pair, ``_out``'s by head, its ids ordered on
        first read; the offsets were counted with the graph."""
        given = self.__dict__.get("_arrays")
        if given is None:
            ids = tuple(sorted(range(self.arc_count), key=self.head.__getitem__))
        else:
            ids = tuple(_by_node(given[1]).tolist())
        return ids, self._in_starts

    def in_arcs(self, v: int) -> tuple[int, ...]:
        """The ids of the arcs entering v, ascending."""
        ids, starts = self._in
        return ids[starts[v]:starts[v + 1]]

    @cached_property
    def order(self) -> tuple[int, ...]:
        """``topological_order`` of the graph, computed on first use and
        kept; ``Instance`` validation sets it."""
        return tuple(topological_order(self)[0])


for _row, _name in enumerate(("first", "nominal", "deviation"), start=2):
    setattr(MultiDigraph, _name, _ListOnRead(_name, _row))


def _by_node(column: np.ndarray) -> np.ndarray:
    """The arc ids ordered by ``column``, then by id: node and arc ids fit
    in 32 bits in any graph that fits in memory, and no two keys tie, so
    the quick argsort is stable here."""
    return ((column << 32) | np.arange(len(column))).argsort()


def _pick(pool: list, index: np.ndarray) -> tuple:
    """``pool``'s entries at ``index``, sharing their objects."""
    if len(index) > 1:
        return operator.itemgetter(*index.tolist())(pool)
    return tuple(map(pool.__getitem__, index.tolist()))


@dataclass(frozen=True)
class Instance:
    """A recoverable shortest path instance: graph, terminals, recovery budget k.

    Validation sorts the graph and keeps that sweep's ``hops``: the most arcs
    on any source->v path for every node v, -1 where v is unreachable.

    Every instance that validates is feasible: the sink is reachable, and
    any s-t path taken as both stages diverges by 0 <= k.  The solvers rely
    on this and return a stage pair for every instance."""

    graph: MultiDigraph
    source: int
    sink: int
    k: int
    hops: list[int] = _column()

    def __post_init__(self):
        n = self.graph.node_count
        if not (0 <= self.source < n):
            raise ValidationError(f"source {self.source} out of range")
        if not (0 <= self.sink < n):
            raise ValidationError(f"sink {self.sink} out of range")
        if self.source == self.sink:
            raise ValidationError("source and sink must differ")
        if not (0 <= self.k < n):
            raise ValidationError(f"k={self.k} outside 0 <= k < {n}")
        order, hops = topological_order(self.graph, self.source)  # raises CyclicGraphError
        self.graph.__dict__["order"] = tuple(order)
        if hops[self.sink] < 0:
            raise ValidationError("sink is not reachable from source")
        self.__dict__["hops"] = hops

    @cached_property
    def on_path(self) -> list[bool]:
        """Nodes on at least one source-sink path, computed once.

        In a DAG these are exactly the nodes reachable from the source that
        also reach the sink, and every arc joining two such nodes lies on
        some source-sink path as well.  A walk along out-arcs from a
        reached node stays among reached nodes and ends at a node with no
        out-arc; so when the sink is the only such node reached, every
        reached node reaches it, and the hop counts of the validating sort
        settle the mask.  Otherwise one sweep back along the order from the
        sink marks each reached node with an out-arc into a marked node.
        """
        graph, hops, sink = self.graph, self.hops, self.sink
        starts = graph._out[1]
        dead = compress(range(graph.node_count), map(operator.eq, starts, islice(starts, 1, None)))
        reached = (-1).__lt__
        if starts[sink] == starts[sink + 1] and sum(map(reached, map(hops.__getitem__, dead))) == 1:
            return list(map(reached, hops))
        return _sweep_back(graph, sink, hops)

    @cached_property
    def on_mask(self) -> np.ndarray:
        """``on_path`` as a bool array, made once."""
        return np.frombuffer(bytes(self.on_path), dtype=bool)

    @cached_property
    def core(self) -> tuple:
        """The arcs between on-path nodes and compact ids for their ends,
        made once: ``(arcs, tail, head, size, source, sink)``.

        A compact id is the node's rank among the on-path nodes in node-id
        order; those nodes are exactly the kept arcs' ends.  ``tail`` and
        ``head`` are int64, so that keys ``tail * size + head`` cannot
        overflow.  The arrays are read-only and sized by the kept arcs;
        the rank over every declared node is not kept.
        """
        tails, heads = self.graph.ends
        on = self.on_mask
        rank = np.cumsum(on, dtype=np.int32)
        rank -= 1
        arcs = np.flatnonzero(on[tails] & on[heads])
        tail, head = (rank[ends[arcs]].astype(np.int64) for ends in (tails, heads))
        for column in (arcs, tail, head):
            column.flags.writeable = False
        s, t = rank[[self.source, self.sink]].tolist()
        return arcs, tail, head, int(rank[-1]) + 1, s, t

    def require_positive_budget(self):
        if self.k < 1:
            raise ValueError("k must be >= 1 here; solve() handles k = 0 directly")

    @cached_property
    def effective_k(self) -> int:
        """k capped at the longest source-sink hop count.

        A recovery path has no more arcs than that, so no stage pair can
        diverge by more: the budget beyond it buys nothing.
        """
        return min(self.k, self.hops[self.sink])


def topological_order(graph: MultiDigraph, source: int | None = None):
    """Topological node order, smallest node id first among ready nodes
    (Kahn 1962), and the longest hop counts from ``source``.

    Returns ``(order, hops)``: ``hops[v]`` is the most arcs on any
    source->v path, -1 where v is unreachable, pushed along the out-arcs
    of each reached node as it leaves the heap; every entry is -1 without
    a source.  Raises CyclicGraphError if the graph has a directed cycle,
    wherever it lies.
    """
    head, (ids, starts), in_starts = graph.head, graph._out, graph._in_starts
    n = graph.node_count
    indeg = list(map(operator.sub, islice(in_starts, 1, None), in_starts))
    ready = list(compress(range(n), map(operator.not_, indeg)))  # ascending: a heap
    hops = [-1] * n
    if source is not None:
        hops[source] = 0
    order = []
    push, pop = heapq.heappush, heapq.heappop
    while ready:
        v = pop(ready)
        order.append(v)
        h = hops[v] + 1  # 0 if v is not reached
        for a in ids[starts[v]:starts[v + 1]]:
            w = head[a]
            if h and hops[w] < h:
                hops[w] = h
            d = indeg[w] - 1
            indeg[w] = d
            if not d:
                push(ready, w)
    if len(order) != n:
        raise CyclicGraphError("graph contains a directed cycle")
    return order, hops


def _sweep_back(graph: MultiDigraph, sink: int, hops: list[int]) -> list[bool]:
    """The nodes whose ``hops`` are >= 0 that reach ``sink``: one sweep
    back along ``graph.order`` from the sink marks each such node with an
    out-arc into a marked one, whose mark is final, as it comes later."""
    head, (ids, starts), order = graph.head, graph._out, graph.order
    on = [False] * graph.node_count
    on[sink] = True
    for v in reversed(order[:order.index(sink)]):
        if hops[v] >= 0:
            on[v] = any(on[head[a]] for a in ids[starts[v]:starts[v + 1]])
    return on


def compute_layering(instance: Instance) -> dict[int, int]:
    """Layer assignment for the nodes on source-sink paths, in topological
    order: a map node -> layer with layer(source) = 1.

    Such a layering exists exactly when every arc between on-path nodes
    adds one to the longest hop count from the source, and then the layer
    is that count plus one: every path from the source to a node has the
    same number of arcs.  Nodes off all source-sink paths are pruned first;
    they cannot carry any feasible solution.  Raises NotLayeredError
    otherwise, naming the lowest-id arc that breaks the layering.
    """
    tails, heads = instance.graph.ends
    on, level = instance.on_mask, np.array(instance.hops, dtype=np.int64)
    bad = (on[tails] & on[heads] & (level[heads] != level[tails] + 1)).nonzero()[0]
    if len(bad):
        a = int(bad[0])
        t, h = int(level[tails[a]]), int(level[heads[a]])
        raise NotLayeredError(f"arc {a} spans layers {t + 1}->{h + 1}, expected {t + 2}")
    on, hops = instance.on_path, instance.hops
    return {v: hops[v] + 1 for v in instance.graph.order if on[v]}


def dag_shortest_paths(
    graph: MultiDigraph, cost: list[int], source: int, until: int | None = None
) -> list:
    """Single-source shortest paths on a DAG; negative costs allowed.

    Returns ``dist``: ``dist[v]`` is the minimum total ``cost`` (a per-arc
    column) of a source->v path, INF if unreachable; ``shortest_path``
    reads a path back from it.  The sweep skips the nodes it has not
    reached; ``until`` is as in the module docstring.
    """
    head, (ids, starts) = graph.head, graph._out
    dist: list = [INF] * graph.node_count
    dist[source] = 0
    start = graph.order.index(source)
    stop = graph.node_count if until is None else graph.order.index(until, start)
    for v in graph.order[start:stop]:
        d = dist[v]
        if d is INF:
            continue
        for a in ids[starts[v]:starts[v + 1]]:
            e = d + cost[a]
            if e < dist[head[a]]:
                dist[head[a]] = e
    return dist


def shortest_path(graph: MultiDigraph, cost: list[int], dist: list, source: int, target: int):
    """A cheapest source->target arc-id path, or None if the target is
    unreachable, read back from ``dist``: ``dag_shortest_paths`` from
    ``source`` over ``cost``, swept at least up to ``target``.

    Walks back from the target; each step takes the smallest-id in-arc
    whose tail's distance plus its cost attains the current distance.
    """
    if dist[target] is INF:
        return None
    tail, (ids, starts) = graph.tail, graph._in
    arcs = []
    v = target
    while v != source:
        d = dist[v]
        a = next(a for a in ids[starts[v]:starts[v + 1]] if dist[tail[a]] == d - cost[a])
        arcs.append(a)
        v = tail[a]
    arcs.reverse()
    return tuple(arcs)


class HopBoundedTable:
    """Hop-indexed shortest path table from one source.

    ``dist[v][l]`` is the minimum ``cost`` (a per-arc column) of a
    source->v path using at most l arcs (INF if none); nonincreasing in
    l.  A node's row is pushed along its out-arcs when it is finite below
    ``max_hops``; a node gets a row of its own when a push first reaches
    it, and nodes out of reach share one row of INF.  ``reached`` lists,
    in topological order, the nodes after the source that got a row, as
    the walk meets them.  ``path_to`` reads a path back from ``dist``.
    ``until`` stops the sweep as the module docstring says; ``reached``
    then ends at it if it got a row.
    """

    def __init__(self, graph: MultiDigraph, cost: list[int], source: int, max_hops: int,
                 until: int | None = None):
        if max_hops < 0:
            raise ValueError("max_hops must be >= 0")
        head, (ids, starts) = graph.head, graph._out
        self.graph = graph
        self.cost = cost
        self.source = source
        width = max_hops + 1
        unreached = [INF] * width  # shared, never written: nodes out of reach
        dist = [unreached] * graph.node_count
        dist[source] = [0] * width
        start = graph.order.index(source)
        stop = graph.node_count if until is None else graph.order.index(until, start)
        reached = []
        for v in graph.order[start:stop]:
            row = dist[v]
            if row is unreached:
                continue
            reached.append(v)
            # rows are nonincreasing in l, as the rows pushed to them are:
            # INF below the least hop count h and finite from it
            h = row.count(INF)
            finite = row[h:max_hops]
            if not finite:
                continue  # no path on through v fits in max_hops
            for a in ids[starts[v]:starts[v + 1]]:
                w = head[a]
                out = dist[w]
                if out is unreached:
                    out = dist[w] = [INF] * width
                c = cost[a]
                for l, d in enumerate(finite, h + 1):
                    d += c
                    if d < out[l]:
                        out[l] = d
        if until is not None and dist[until] is not unreached:
            reached.append(until)
        self.dist = dist
        self.reached = reached[1:]  # the source leads

    def path_to(self, v: int, l: int):
        """One optimal path realizing dist[v][l], or None if it is INF.

        On a cost tie it takes fewer arcs, then the smallest-id last arc.
        """
        dist = self.dist
        if dist[v][l] is INF:
            return None
        tail, cost, (ids, starts) = self.graph.tail, self.cost, self.graph._in
        arcs = []
        while v != self.source:
            d = dist[v][l]
            if dist[v][l - 1] == d:
                l -= 1
                continue
            a = next(a for a in ids[starts[v]:starts[v + 1]] if dist[tail[a]][l - 1] == d - cost[a])
            arcs.append(a)
            v = tail[a]
            l -= 1
        arcs.reverse()
        return tuple(arcs)


def divergence_count(y_arcs, x_arcs) -> int:
    """Number of arc identities used by Y but not by X."""
    return len(set(y_arcs) - set(x_arcs))


def path_error(graph: MultiDigraph, arc_ids, source: int, sink: int):
    """Why ``arc_ids`` is not a valid simple source->sink path, or None if it is."""
    if not arc_ids:
        return "path is empty"
    m = graph.arc_count
    for a in arc_ids:
        if not (0 <= a < m):
            return f"arc id {a} out of range"
    tail, head = graph.tail, graph.head
    if tail[arc_ids[0]] != source:
        return f"path starts at node {tail[arc_ids[0]]}, not at source {source}"
    prev_head = source
    visited = set()
    for a in arc_ids:
        if tail[a] != prev_head:
            return f"arc {a} starts at {tail[a]}, previous arc ended at {prev_head}"
        if tail[a] in visited:
            return f"node {tail[a]} repeated"
        visited.add(tail[a])
        prev_head = head[a]
    if prev_head in visited:
        return f"node {prev_head} repeated"
    if prev_head != sink:
        return f"path ends at node {prev_head}, not at sink {sink}"
    return None


def path_cost(cost: list[int], arc_ids) -> int:
    """The sum of a per-arc cost column over ``arc_ids``."""
    return sum(cost[a] for a in arc_ids)
