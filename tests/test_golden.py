"""Byte-identical answers: digests of the serialised solutions of fixed
lists of instances under ``auto`` and every method.

A speed-up must keep every path, not only every total, so a change to
any answer, ties included, changes the digest.  The instances go through
``serialize_instance`` and ``parse_instance``, as the benchmark's do, so
the large ones reach the solvers as the byte scan's arrays.
"""
import hashlib
import importlib
import os
import random

import recsp
from recsp.dispatch import solve
from recsp.errors import RecspError
from recsp.generator import generate_instance
from recsp.graph import Instance, MultiDigraph
from recsp.instance_io import parse_instance, serialize_instance, serialize_solution

# recorded with the parent of the change that added this test
DIGEST = "5d2f60953c51de81fc9fd4b1c7a498871637d3a1f07080c2ff03582ecc267b92"
# the same for instances whose source is not first in the topological
# order, recorded with the parent of the change that added it
MID_ORDER_DIGEST = "e43697559d51f522e67716686b15091735723e2002ed8caaf3e2e2e4325c83e7"
# auto's answers on the benchmark's instances at seeds 1 and 1009, recorded
# with the parent of the change that added it
WORKLOAD_DIGEST = "744335d45d984949153be03eed0e5553243146809685b589493914ca8e819aac"
# named here, so that a workload added to the benchmark leaves it as it is
WORKLOADS = ("asp-20k", "layered-40", "small-mixed")
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _tied(instance, seed, dead_end=False, top=3):
    """The instance with costs redrawn from 0..top, so that minima tie, and
    with ``dead_end`` one more arc from a node on a path to a new node
    that leads nowhere."""
    rng = random.Random(seed)
    graph = instance.graph
    rows = [(t, h, rng.randint(0, top), rng.randint(0, top), rng.randint(0, top))
            for t, h in zip(graph.tail, graph.head)]
    n = graph.node_count
    if dead_end:
        rows.append((graph.tail[0], n, 1, 1, 0))
        n += 1
    return Instance(MultiDigraph.from_rows(n, rows), instance.source, instance.sink, instance.k)


def _instances():
    for seed in range(12):
        yield generate_instance("asp", seed, arcs=40, k=seed % 4 + 1)
    for seed, arcs, k in ((12, 256, 8), (13, 400, 3), (14, 700, 20)):
        yield generate_instance("asp", seed, arcs=arcs, k=k)
    for seed in range(4):
        yield generate_instance("layered", 20 + seed, nodes=30, arcs=90, k=3, layers=6)
        yield generate_instance("dag", 30 + seed, nodes=25, arcs=80, k=2 + seed)
    # k past the longest path
    yield generate_instance("asp", 40, arcs=30, k=29)
    yield generate_instance("layered", 41, nodes=12, arcs=30, k=11, layers=4)
    yield generate_instance("dag", 42, nodes=12, arcs=30, k=11)
    for seed, (family, size) in enumerate([("asp", {"arcs": 50}), ("asp", {"arcs": 300}),
                                           ("layered", {"nodes": 24, "arcs": 70, "layers": 5}),
                                           ("dag", {"nodes": 20, "arcs": 60})]):
        made = generate_instance(family, 50 + seed, k=3, **size)
        yield _tied(made, seed)
        yield _tied(made, seed, dead_end=True)


def _relabelled(instance, seed, k):
    """The instance with budget ``k``, one new node feeding the source
    and one feeding a drawn node, and every node id shuffled: the source
    has an in-arc, so it is never first in the topological order."""
    rng = random.Random(seed)
    graph = instance.graph
    n = graph.node_count
    rows = list(zip(graph.tail, graph.head, graph.first, graph.nominal, graph.deviation))
    rows += [(n, instance.source, 1, 1, 0), (n + 1, rng.randrange(n), 0, 2, 1)]
    label = list(range(n + 2))
    rng.shuffle(label)
    rows = [(label[t], label[h], *costs) for t, h, *costs in rows]
    return Instance(MultiDigraph.from_rows(n + 2, rows), label[instance.source],
                    label[instance.sink], k)


def _mid_order_instances():
    made = [generate_instance("asp", 60, arcs=40, k=2),
            generate_instance("asp", 61, arcs=300, k=6),
            generate_instance("layered", 62, nodes=30, arcs=90, k=3, layers=6),
            generate_instance("dag", 63, nodes=40, arcs=150, k=3)]
    for seed, instance in enumerate(made):
        # costs up to 1 tie the k = 0 path's combined costs in every family
        for variant in (instance, _tied(instance, seed), _tied(instance, seed, top=1)):
            for k in (variant.k, 0):
                yield _relabelled(variant, seed, k)


def _digest(instances, check=lambda instance: None):
    digest = hashlib.sha256()
    for instance in instances:
        text = serialize_instance(instance)
        digest.update(text.encode())
        for method in ("auto", "asp", "layered", "dag"):
            parsed = parse_instance(text)
            check(parsed)
            try:
                answer = serialize_solution(solve(parsed, method))
            except RecspError as error:
                answer = type(error).__name__
            digest.update(f"{method}\n{answer}\n".encode())
    return digest.hexdigest()


def test_answers_match_the_recorded_digest():
    assert _digest(_instances()) == DIGEST


def _source_not_first(instance):
    assert instance.graph.order[0] != instance.source


def test_answers_from_a_source_mid_order_match_the_recorded_digest():
    # every sweep from the source starts past the front of the order:
    # the k = 0 path, the first table of dag's reduction and each pair's
    # paths read back, under ties and in both graph forms
    assert _digest(_mid_order_instances(), _source_not_first) == MID_ORDER_DIGEST


def test_auto_answers_on_the_benchmark_instances_match_the_recorded_digest(monkeypatch):
    # the specs come from the benchmark's own module, and each instance is
    # generated, serialised and parsed as its set-up and timed pass do
    monkeypatch.syspath_prepend(PERFBENCH)
    bench = importlib.import_module("bench_workloads")
    digest = hashlib.sha256()
    for name in WORKLOADS:
        for seed in (1, 1009):
            for spec in bench.WORKLOADS[name](seed):
                _, text = bench.generate(recsp, spec)
                answer = serialize_solution(solve(parse_instance(text), "auto"))
                digest.update(f"{answer}\n".encode())
    assert digest.hexdigest() == WORKLOAD_DIGEST
