"""Byte-identical answers: one digest of the serialised solutions of a
fixed list of instances under ``auto`` and every method.

A speed-up must keep every path, not only every total, so a change to
any answer, ties included, changes the digest.  The instances go through
``serialize_instance`` and ``parse_instance``, as the benchmark's do, so
the large ones reach the solvers as the byte scan's arrays.
"""
import hashlib
import random

from recsp.dispatch import solve
from recsp.errors import RecspError
from recsp.generator import generate_instance
from recsp.graph import Instance, MultiDigraph
from recsp.instance_io import parse_instance, serialize_instance, serialize_solution

# recorded with the parent of the change that added this test
DIGEST = "5d2f60953c51de81fc9fd4b1c7a498871637d3a1f07080c2ff03582ecc267b92"


def _tied(instance, seed, dead_end=False):
    """The instance with costs redrawn from 0..3, so that minima tie, and
    with ``dead_end`` one more arc from a node on a path to a new node
    that leads nowhere."""
    rng = random.Random(seed)
    graph = instance.graph
    rows = [(t, h, rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))
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


def test_answers_match_the_recorded_digest():
    digest = hashlib.sha256()
    for instance in _instances():
        text = serialize_instance(instance)
        digest.update(text.encode())
        for method in ("auto", "asp", "layered", "dag"):
            try:
                answer = serialize_solution(solve(parse_instance(text), method))
            except RecspError as error:
                answer = type(error).__name__
            digest.update(f"{method}\n{answer}\n".encode())
    assert digest.hexdigest() == DIGEST
