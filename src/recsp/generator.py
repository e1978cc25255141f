"""Seeded random instance families.

Instances are generated with a self-contained splitmix64 generator so
that a (family, seed, parameters) triple yields the same instance on any
platform, or in any other language implementing the same recurrence:

    state = (state + 0x9E3779B97F4A7C15) mod 2^64
    z = state
    z = (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9 mod 2^64
    z = (z XOR (z >> 27)) * 0x94D049BB133111EB mod 2^64
    output = z XOR (z >> 31)

The state is a counter: draw i (from 1) is ``mix(seed + i * gamma)``, with
gamma the added constant and ``mix`` the last four lines.  ``randint(lo,
hi)`` draws one output and reduces it modulo the range size.  The families
draw in numpy blocks (``draws``), each draw's range known up front or
following elementwise from earlier draws, with only uint64 operands
(uint64 with int64 gives float64, which loses bits).  Cost ranges are
fixed: first-stage and nominal costs in [1, 100], deviations in [0, 100].
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .graph import Instance, MultiDigraph

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

FAMILIES = ("layered", "dag", "asp")


class SplitMix64:
    """Tiny deterministic PRNG; see the module docstring for the recurrence."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def draws(self, count: int) -> np.ndarray:
        """The next ``count`` outputs as a uint64 array, as ``count`` calls
        of ``next_u64`` give them."""
        z = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA) + np.uint64(self._state)
        self._state = (self._state + count * _GAMMA) & _MASK
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi], both ends included."""
        if lo > hi:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.next_u64() % (hi - lo + 1)


def _arcs(rng: SplitMix64, count: int, width: int):
    """``count`` arcs' draws: ``width - 3`` uint64 columns for the ends, and
    the last three as int64 (first, nominal, deviation) costs."""
    block = rng.draws(count * width).reshape(count, width)
    costs = block[:, -3:] % np.array([100, 100, 101], dtype=np.uint64)
    return block[:, :-3], costs.astype(np.int64) + [1, 1, 0]


def _instance(nodes, tails, heads, costs, sink, k):
    columns = [np.concatenate(tails).tolist(), np.concatenate(heads).tolist()]
    graph = MultiDigraph(nodes, *columns, *np.concatenate(costs).T.tolist())
    return Instance(graph, 0, sink, k)


def _check_k(k: int, nodes: int):
    if not (0 <= k < nodes):
        raise ConfigError(f"k={k} outside 0 <= k < {nodes}")


def _gen_layered(rng, nodes, arcs, k, layers):
    if nodes < 2:
        raise ConfigError("layered family needs at least 2 nodes")
    if layers is None:
        layers = min(nodes, 4)
    if not (2 <= layers <= nodes):
        raise ConfigError(f"layers={layers} outside 2 <= layers <= {nodes}")
    middle = nodes - 2
    if layers == 2 and middle > 0:
        raise ConfigError("layers=2 leaves no layer for the middle nodes")
    _check_k(k, nodes)
    if arcs < nodes - 1:  # each node but the source takes an in-arc; before any draw
        raise ConfigError(f"layered family needs at least nodes - 1 = {nodes - 1} arcs")

    # each middle layer holds one node, and each further node joins a drawn one
    grow = rng.draws(middle - (layers - 2)) % np.uint64(layers - 2) + np.uint64(1)
    sizes = np.bincount(grow.astype(np.intp), minlength=layers) + 1
    start = np.cumsum(sizes) - sizes
    # round-robin wiring gives every node an arc on both sides
    width = np.maximum(sizes[:-1], sizes[1:])
    wired = int(width.sum())
    if arcs < wired:
        raise ConfigError(f"layered family needs at least {wired} arcs for this layout")
    pair = np.repeat(np.arange(layers - 1), width)
    i = np.arange(wired) - np.repeat(np.cumsum(width) - width, width)
    _, wired_costs = _arcs(rng, wired, 3)
    picks, costs = _arcs(rng, arcs - wired, 6)
    li = (picks[:, 0] % np.uint64(layers - 1)).astype(np.intp)
    size = sizes.astype(np.uint64)
    tails = [start[pair] + i % sizes[pair], start[li] + (picks[:, 1] % size[li]).astype(np.int64)]
    heads = [start[pair + 1] + i % sizes[pair + 1],
             start[li + 1] + (picks[:, 2] % size[li + 1]).astype(np.int64)]
    return _instance(nodes, tails, heads, [wired_costs, costs], nodes - 1, k)


def _gen_dag(rng, nodes, arcs, k):
    if nodes < 2:
        raise ConfigError("dag family needs at least 2 nodes")
    _check_k(k, nodes)
    if arcs < nodes - 1:  # as for layered
        raise ConfigError(f"dag family needs at least nodes - 1 = {nodes - 1} arcs")
    # each node but the source takes a tail below it; each node but the sink
    # without an out-arc, and each extra arc's drawn tail, a head above it
    top = np.uint64(nodes - 1)
    head = np.arange(1, nodes, dtype=np.uint64)
    below, first_costs = _arcs(rng, nodes - 1, 4)
    tails = [below[:, 0] % head]
    outdeg = np.bincount(tails[0].astype(np.intp), minlength=nodes)
    dead = np.flatnonzero(outdeg[:-1] == 0).astype(np.uint64)
    if arcs < nodes - 1 + len(dead):
        raise ConfigError(f"dag family needs at least {nodes - 1 + len(dead)} arcs here")
    picks, dead_costs = _arcs(rng, len(dead), 4)
    extra, extra_costs = _arcs(rng, arcs - nodes + 1 - len(dead), 5)
    tail = extra[:, 0] % top
    tails += [dead, tail]
    heads = [head, dead + np.uint64(1) + picks[:, 0] % (top - dead),
             tail + np.uint64(1) + extra[:, 1] % (top - tail)]
    return _instance(nodes, tails, heads, [first_costs, dead_costs, extra_costs], nodes - 1, k)


def _gen_asp(rng, arcs, k):
    """Random series-parallel instance with ``arcs`` arcs.

    Builds a random binary composition tree over the arcs, then assigns
    node ids: source 0, sink 1, one fresh node per series composition.
    k larger than the resulting graph allows is clamped to nodes - 1.
    """
    if arcs < 1:
        raise ConfigError("asp family needs at least 1 arc")
    if k < 0:
        raise ConfigError("k must be >= 0")
    # step s joins two of the arcs - s items left into composition arcs + s,
    # in series if its third draw is even
    left = np.arange(arcs, 1, -1, dtype=np.uint64)
    picks = rng.draws(3 * (arcs - 1)).reshape(arcs - 1, 3)
    firsts = (picks[:, 0] % left).tolist()
    seconds = (picks[:, 1] % (left - np.uint64(1))).tolist()
    series = (picks[:, 2] % np.uint64(2) == 0).tolist()
    parts = []
    items = list(range(arcs))
    for i, j, in_series in zip(firsts, seconds, series):
        a = items[i]
        items[i] = items[-1]
        items.pop()
        parts.append((a, items[j], in_series))
        items[j] = arcs + len(parts) - 1

    tails = [0] * arcs
    heads = [0] * arcs
    next_id = 2
    stack = [(items[0], 0, 1)]
    while stack:
        idx, tail, head = stack.pop()
        if idx < arcs:
            tails[idx] = tail
            heads[idx] = head
            continue
        a, b, in_series = parts[idx - arcs]
        if in_series:
            mid = next_id
            next_id += 1
            stack.append((b, mid, head))
            stack.append((a, tail, mid))
        else:
            stack.append((b, tail, head))
            stack.append((a, tail, head))
    nodes = next_id
    _, costs = _arcs(rng, arcs, 3)
    return _instance(nodes, [tails], [heads], [costs], 1, min(k, nodes - 1))


def generate_instance(
    family: str,
    seed: int,
    *,
    nodes: int | None = None,
    arcs: int | None = None,
    k: int = 1,
    layers: int | None = None,
) -> Instance:
    """Generate one instance of the given family from a seed.

    ``nodes`` and ``arcs`` default to a small size; the asp family takes
    its node count from the composition tree and ignores ``nodes``.
    """
    if family not in FAMILIES:
        raise ConfigError(f"unknown family {family!r}; choose from {FAMILIES}")
    if arcs is None:
        arcs = 12
    if nodes is None:
        nodes = 6
    rng = SplitMix64(seed)
    if family == "layered":
        return _gen_layered(rng, nodes, arcs, k, layers)
    if family == "dag":
        if layers is not None:
            raise ConfigError("layers only applies to the layered family")
        return _gen_dag(rng, nodes, arcs, k)
    if layers is not None:
        raise ConfigError("layers only applies to the layered family")
    return _gen_asp(rng, arcs, k)
