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

Two more move the optimum by a known amount:

- per-gap shifts: in a layered graph every source-sink path takes one
  arc from hop ``g`` to ``g + 1`` for each ``g``, so adding ``c_g`` to the
  first-stage and ``d_g`` to the nominal cost of those arcs adds
  ``c_g + d_g`` to every pair's total, and their sum to the optimum;
- scaling: multiplying every cost by ``s > 0`` multiplies every pair's
  total, and so the optimum, by ``s``.

Their shifts and scales run from small ones to ones past the int64 rule
of the layered and asp solves, and past the int64 range of
``graph.costs``, which clips them; the scaling relation checks which
kernel each scale takes.
"""
import pytest

from recsp.dispatch import solve
from recsp.generator import SplitMix64, generate_instance
from recsp.graph import Instance, MultiDigraph
from recsp.reduction import layered_columns
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


def _case(name):
    """The base instance of the CASES entry with this id."""
    family, seed, sizes, *_ = next(c for c in CASES if f"{c[0]}-{c[1]}" == name)
    return generate_instance(family, seed, k=1, **sizes)


def _with_costs(inst, k, first, nominal, deviation):
    graph = MultiDigraph(inst.graph.node_count, inst.graph.tail, inst.graph.head,
                         first, nominal, deviation)
    return Instance(graph, inst.source, inst.sink, k)


@pytest.mark.parametrize("name, longest_too", [("layered-4", True), ("layered-5", False)])
def test_per_gap_shifts_raise_every_total_by_their_sum(name, longest_too):
    base = _case(name)
    graph, hops, longest = base.graph, base.hops, base.hops[base.sink]
    for k in (1, 2, 5) + ((longest,) if longest_too else ()):
        total = solve(Instance(graph, base.source, base.sink, k), "layered").total_cost
        # +-2**58 per gap takes layered past its int64 rule, onto its exact route
        for bound in (5, 1 << 40, 1 << 58):
            rng = SplitMix64(bound + k)
            c, d = ({g: rng.randint(-bound, bound) for g in range(longest)} for _ in "cd")
            # an arc out of an unreached node, or out of the sink's hop,
            # lies on no source-sink path and keeps its costs
            first = [cost + c.get(hops[tail], 0) for cost, tail in zip(graph.first, graph.tail)]
            nominal = [cost + d.get(hops[tail], 0) for cost, tail in zip(graph.nominal, graph.tail)]
            inst = _with_costs(base, k, first, nominal, graph.deviation)
            shift = sum(c.values()) + sum(d.values())
            for method in ("layered", "auto") + (("dag",) if k <= 5 else ()):
                assert solve(inst, method).total_cost == total + shift, (method, k, bound)


# (case, methods); asp's and layered's costs meet the one int64 rule
# (graph.fits_int64) at 2**20 and 2**42 and fail it from 2**50, so each
# case runs both kernels, and 2**70 saturates graph.costs on every instance
@pytest.mark.parametrize("name, methods", [
    ("asp-1", ("asp", "auto")),
    ("asp-3", ("asp", "auto")),
    ("layered-4", ("layered", "dag", "auto")),
    ("dag-6", ("dag", "auto")),
])
def test_scaling_every_cost_scales_every_total(name, methods, asp_kernels):
    base = _case(name)
    graph = base.graph
    for k in (1, 2, 5):
        total = solve(Instance(graph, base.source, base.sink, k), methods[0]).total_cost
        for shift in (20, 42, 50, 70):
            scale = 1 << shift
            inst = _with_costs(base, k, *([cost * scale for cost in column] for column in
                                          (graph.first, graph.nominal, graph.deviation)))
            asp_kernels.clear()
            for method in methods:
                sol = solve(inst, method)
                assert verify_solution(inst, sol).accepted, (method, k, shift)
                assert sol.total_cost == total * scale, (method, k, shift)
            fits = shift < 50
            if name.startswith("asp"):
                assert asp_kernels == ["numpy" if fits else "python"] * len(methods), (k, shift)
            if name.startswith("layered"):
                assert (layered_columns(inst) is not None) == fits, (k, shift)
