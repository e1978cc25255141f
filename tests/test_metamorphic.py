"""Metamorphic relations on instances past the oracle's reach.

Two transformations leave the optimum unchanged:

- reversal: reverse every arc and swap source and sink; a stage pair of
  the reversed instance is a stage pair of the original read backwards,
  with the same arcs and so the same costs and divergence;
- dominated parallel copies: add copies of arcs whose first-stage,
  nominal and deviation costs are no lower than the original's; swapping
  a copy for its original in both stages raises no cost and no
  divergence, so no pair that uses a copy beats the best one without.

Each method that applies must give the base total on both transformed
instances, and all of them the same total.  The sizes take asp past
``ARRAY_MIN_ARCS`` into its numpy sweep and the layered and dag
reductions past the oracle's path cap; the budgets run from 1 to past
the longest source-sink path, where the effective budget caps them.
"""
import pytest

from recsp.dispatch import solve
from recsp.generator import SplitMix64, generate_instance
from recsp.graph import Instance, MultiDigraph
from recsp.solution import verify_solution


def _rows(graph):
    return list(zip(graph.tail, graph.head, graph.first, graph.nominal, graph.deviation))


def _reversed(inst):
    rows = [(head, tail, *costs) for tail, head, *costs in _rows(inst.graph)]
    return Instance(MultiDigraph.from_rows(inst.graph.node_count, rows),
                    inst.sink, inst.source, inst.k)


def _dominated(inst, seed):
    """A quarter more arcs, each a copy of a drawn arc raised by 0 to 3 in
    every cost column."""
    rng = SplitMix64(seed)
    rows = _rows(inst.graph)
    for _ in range(len(rows) // 4):
        tail, head, *costs = rows[rng.randint(0, len(rows) - 1)]
        rows.append((tail, head, *(c + rng.randint(0, 3) for c in costs)))
    return Instance(MultiDigraph.from_rows(inst.graph.node_count, rows),
                    inst.source, inst.sink, inst.k)


# (family, seed, generator sizes, methods solved at every k, methods solved
# only at k <= 5, where the dag reduction stays cheap on layered graphs)
CASES = [
    ("asp", 1, dict(arcs=1000), ("asp",), ()),
    ("asp", 2, dict(arcs=2500), ("asp",), ()),
    ("asp", 3, dict(arcs=5000), ("asp",), ()),
    ("layered", 4, dict(nodes=150, arcs=600, layers=30), ("layered",), ("dag",)),
    ("layered", 5, dict(nodes=300, arcs=1200, layers=60), ("layered",), ("dag",)),
    ("dag", 6, dict(nodes=100, arcs=400), ("dag",), ()),
    ("dag", 7, dict(nodes=200, arcs=800), ("dag",), ()),
]


@pytest.mark.parametrize("family, seed, sizes, methods, low_k_methods", CASES,
                         ids=[f"{c[0]}-{c[1]}" for c in CASES])
def test_reversal_and_dominated_copies_keep_every_total(
        family, seed, sizes, methods, low_k_methods):
    base = generate_instance(family, seed, k=1, **sizes)
    longest = base.hops[base.sink]
    for k in sorted({1, 2, 5, longest, min(longest + 5, base.graph.node_count - 1)}):
        inst = Instance(base.graph, base.source, base.sink, k)
        variants = (inst, _reversed(inst), _dominated(inst, seed * 1000 + k))
        totals = set()
        for method in methods + (low_k_methods if k <= 5 else ()):
            for variant in variants:
                sol = solve(variant, method)
                assert verify_solution(variant, sol).accepted, (method, k)
                totals.add(sol.total_cost)
        assert len(totals) == 1, (k, totals)
