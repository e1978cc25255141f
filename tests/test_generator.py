import hashlib
import importlib
import os
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recsp.asp import decompose
from recsp.errors import ConfigError
from recsp.generator import FAMILIES, SplitMix64, generate_instance
from recsp.graph import Instance, MultiDigraph, compute_layering
from recsp.instance_io import serialize_instance

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
# sha256 of the serialised instances of each benchmark workload, recorded
# with the parent of the change that made the families draw in blocks
WORKLOAD_INSTANCES = {
    ("asp-20k", 1): "1d13b14bf9931507b8b745eef92cb2008cb77f60c0d42c18254df8546f21dbcb",
    ("asp-20k", 1009): "30b3b6abf665732070273d056b0221f3ed1dc9c8cab7a183aa8995bd4941d008",
    ("layered-40", 1): "cb1d4775abe5b164aa1f5cc315e9cb450e573d72af39fcc50f9e5ac757007e66",
    ("layered-40", 1009): "23e5fad9cc6ae2a4deeb7c009cec8209249119d174bb1ac51088bf55eda28ecb",
    ("small-mixed", 1): "0e0d86d66dacde3cfd0a190e85dcad36115e0f2fb2fff3206c5cc3ec6f7517fb",
    ("small-mixed", 1009): "d7afc855a601d47e7e4a21982fd92845df8bdf87fc48c4b2055be8ea08fa6ba0",
}


# The reference: the families as they drew before the block draws, one
# next_u64 per randint, kept as they were.

def _costs(rng: SplitMix64):
    return rng.randint(1, 100), rng.randint(1, 100), rng.randint(0, 100)


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

    sizes = [1] + [1] * (layers - 2) + [1]
    for _ in range(middle - (layers - 2)):
        sizes[rng.randint(1, layers - 2)] += 1
    layer_nodes = []
    next_id = 1
    for li, size in enumerate(sizes):
        if li == 0:
            layer_nodes.append([0])
        elif li == layers - 1:
            layer_nodes.append([nodes - 1])
        else:
            layer_nodes.append(list(range(next_id, next_id + size)))
            next_id += size

    rows = []
    for a, b in zip(layer_nodes, layer_nodes[1:]):
        # round-robin wiring gives every node an arc on both sides
        for i in range(max(len(a), len(b))):
            rows.append((a[i % len(a)], b[i % len(b)], *_costs(rng)))
    if arcs < len(rows):
        raise ConfigError(
            f"layered family needs at least {len(rows)} arcs for this layout"
        )
    while len(rows) < arcs:
        li = rng.randint(0, layers - 2)
        tail = layer_nodes[li][rng.randint(0, len(layer_nodes[li]) - 1)]
        head = layer_nodes[li + 1][rng.randint(0, len(layer_nodes[li + 1]) - 1)]
        rows.append((tail, head, *_costs(rng)))
    return Instance(MultiDigraph.from_rows(nodes, rows), 0, nodes - 1, k)


def _gen_dag(rng, nodes, arcs, k):
    if nodes < 2:
        raise ConfigError("dag family needs at least 2 nodes")
    _check_k(k, nodes)
    rows = []
    outdeg = [0] * nodes
    for v in range(1, nodes):
        tail = rng.randint(0, v - 1)
        rows.append((tail, v, *_costs(rng)))
        outdeg[tail] += 1
    for v in range(nodes - 1):
        if outdeg[v] == 0:
            rows.append((v, rng.randint(v + 1, nodes - 1), *_costs(rng)))
    if arcs < len(rows):
        raise ConfigError(f"dag family needs at least {len(rows)} arcs here")
    while len(rows) < arcs:
        tail = rng.randint(0, nodes - 2)
        rows.append((tail, rng.randint(tail + 1, nodes - 1), *_costs(rng)))
    return Instance(MultiDigraph.from_rows(nodes, rows), 0, nodes - 1, k)


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
    ops: list[tuple] = [("leaf",)] * arcs
    items = list(range(arcs))
    while len(items) > 1:
        i = rng.randint(0, len(items) - 1)
        a = items[i]
        items[i] = items[-1]
        items.pop()
        j = rng.randint(0, len(items) - 1)
        b = items[j]
        kind = "series" if rng.randint(0, 1) == 0 else "parallel"
        ops.append((kind, a, b))
        items[j] = len(ops) - 1

    tails = [0] * arcs
    heads = [0] * arcs
    next_id = 2
    stack = [(items[0], 0, 1)]
    while stack:
        idx, tail, head = stack.pop()
        op = ops[idx]
        if op[0] == "leaf":
            tails[idx] = tail
            heads[idx] = head
        elif op[0] == "parallel":
            stack.append((op[2], tail, head))
            stack.append((op[1], tail, head))
        else:
            mid = next_id
            next_id += 1
            stack.append((op[2], mid, head))
            stack.append((op[1], tail, mid))
    nodes = next_id
    rows = [(tails[i], heads[i], *_costs(rng)) for i in range(arcs)]
    return Instance(MultiDigraph.from_rows(nodes, rows), 0, 1, min(k, nodes - 1))


def _reference(family, seed, *, nodes=None, arcs=None, k=1, layers=None):
    """generate_instance through the reference families."""
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


# reference outputs of the published splitmix64 recurrence
KNOWN_STREAMS = {
    0: (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
        0xF88BB8A8724C81EC),
    1: (0x910A2DEC89025CC1, 0xBEEB8DA1658EEC67, 0xF893A2EEFB32555E,
        0x71C18690EE42C90B),
    1234567: (0x599ED017FB08FC85, 0x2C73F08458540FA5, 0x883EBCE5A3F27C77,
              0x3FBEF740E9177B3F),
}


def test_splitmix64_known_answer_vectors():
    for seed, expected in KNOWN_STREAMS.items():
        rng = SplitMix64(seed)
        assert tuple(rng.next_u64() for _ in range(4)) == expected


def test_randint_reduction_and_bounds():
    rng = SplitMix64(99)
    draws = [rng.randint(1, 100) for _ in range(6)]
    assert draws == [4, 65, 28, 8, 77, 100]
    rng = SplitMix64(7)
    assert [rng.randint(0, 1) for _ in range(8)] == [1, 0, 0, 1, 0, 1, 0, 0]
    rng = SplitMix64(12)
    for _ in range(200):
        v = rng.randint(-3, 3)
        assert -3 <= v <= 3
    assert rng.randint(5, 5) == 5
    with pytest.raises(ValueError):
        rng.randint(2, 1)


def test_same_seed_same_instance():
    for family in FAMILIES:
        a = generate_instance(family, 123, nodes=6, arcs=12, k=2)
        b = generate_instance(family, 123, nodes=6, arcs=12, k=2)
        assert serialize_instance(a) == serialize_instance(b)
        c = generate_instance(family, 124, nodes=6, arcs=12, k=2)
        assert serialize_instance(a) != serialize_instance(c)


def test_layered_family_is_layered():
    rng = SplitMix64(2718)
    for trial in range(40):
        n = rng.randint(4, 12)
        inst = generate_instance("layered", rng.randint(0, 10**9), nodes=n,
                                 arcs=n + 10, k=1, layers=rng.randint(3, min(5, n)))
        layer = compute_layering(inst)  # raises if not layered
        assert layer[inst.source] == 1
        assert inst.graph.node_count == n


def test_layered_family_respects_layer_count():
    inst = generate_instance("layered", 5, nodes=10, arcs=25, k=2, layers=5)
    layer = compute_layering(inst)
    assert max(layer.values()) == 5


def test_dag_family_every_node_lies_on_a_path():
    rng = SplitMix64(3141)
    for trial in range(40):
        n = rng.randint(3, 10)
        inst = generate_instance("dag", rng.randint(0, 10**9), nodes=n,
                                 arcs=2 * n + 4, k=1)
        assert all(inst.on_path)
        for arc in inst.graph.arcs:
            assert arc.tail < arc.head


def test_asp_family_is_series_parallel():
    rng = SplitMix64(1618)
    for trial in range(40):
        inst = generate_instance("asp", rng.randint(0, 10**9),
                                 arcs=rng.randint(1, 40), k=3)
        tree = decompose(inst)
        assert tree.leaf_count == inst.graph.arc_count
        assert (inst.source, inst.sink) == (0, 1)


def test_asp_family_clamps_budget():
    inst = generate_instance("asp", 9, arcs=1, k=5)
    assert inst.graph.node_count == 2
    assert inst.k == 1


def test_cost_ranges():
    for family in FAMILIES:
        inst = generate_instance(family, 77, nodes=8, arcs=30, k=1)
        for arc in inst.graph.arcs:
            assert 1 <= arc.first_cost <= 100
            assert 1 <= arc.nominal <= 100
            assert 0 <= arc.deviation <= 100


def test_config_errors():
    with pytest.raises(ConfigError):
        generate_instance("mystery", 0)
    with pytest.raises(ConfigError):
        generate_instance("dag", 0, nodes=1, arcs=5)
    with pytest.raises(ConfigError):
        generate_instance("dag", 0, nodes=8, arcs=3)  # too few arcs to wire
    with pytest.raises(ConfigError):
        generate_instance("layered", 0, nodes=6, arcs=30, k=1, layers=9)
    with pytest.raises(ConfigError):
        generate_instance("layered", 0, nodes=6, arcs=2, k=1)
    with pytest.raises(ConfigError):
        generate_instance("dag", 0, nodes=6, arcs=12, k=6)
    with pytest.raises(ConfigError):
        generate_instance("asp", 0, arcs=0)
    with pytest.raises(ConfigError):
        generate_instance("dag", 0, nodes=4, arcs=8, k=1, layers=3)


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, -3, 2**64 + 5])
@pytest.mark.parametrize("count", [0, 1, 2, 1000])
def test_a_block_draw_is_that_many_single_draws(seed, count):
    block, single = SplitMix64(seed), SplitMix64(seed)
    drawn = block.draws(count)
    assert drawn.dtype == "uint64"
    assert drawn.tolist() == [single.next_u64() for _ in range(count)]
    assert block._state == single._state
    # a randint after the block continues the same stream, and blocks and
    # single draws interleave
    assert block.randint(0, 999) == single.randint(0, 999)
    assert block.next_u64() == single.draws(1).tolist()[0]
    assert block.draws(count).tolist() == single.draws(count).tolist()
    assert block.draws(3).tolist() == [single.next_u64() for _ in range(3)]


def _outcome(make, family, seed, kwargs):
    try:
        return serialize_instance(make(family, seed, **kwargs))
    except ConfigError as exc:
        return f"ConfigError: {exc}"


SEEDS = st.one_of(st.integers(-2**70, -1), st.just(0), st.integers(1, 2**64 - 1),
                  st.integers(2**64, 2**70))


@st.composite
def _specs(draw):
    # mostly a valid k and an arc count near the node count, so that most
    # specs make an instance and the rest raise each ConfigError
    family = draw(st.sampled_from(FAMILIES))
    nodes = draw(st.sampled_from(range(1, 15)))
    k = draw(st.integers(0, nodes - 1) | st.sampled_from([-1, nodes]))
    kwargs = {"arcs": max(0, nodes + draw(st.sampled_from(range(-3, 31)))), "k": k}
    if family != "asp":
        kwargs["nodes"] = nodes
    # the other families reject any layers
    layers = draw(st.none() | st.integers(1, nodes + 1))
    if layers is not None and (family == "layered" or draw(st.sampled_from([False] * 9 + [True]))):
        kwargs["layers"] = layers
    return family, draw(SEEDS), kwargs


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(_specs())
# the minimal layouts of each family
@example(("asp", -1, {"arcs": 1, "k": 1}))
@example(("asp", 0, {"arcs": 2, "k": 1}))
@example(("asp", 2**64 + 1, {"arcs": 3, "k": 2}))
@example(("dag", -5, {"nodes": 2, "arcs": 1, "k": 1}))
@example(("dag", 0, {"nodes": 3, "arcs": 2, "k": 1}))
@example(("dag", 2**64, {"nodes": 3, "arcs": 2, "k": 0}))
@example(("layered", 3, {"nodes": 5, "arcs": 4, "k": 1, "layers": 5}))
@example(("layered", -7, {"nodes": 2, "arcs": 1, "k": 1, "layers": 2}))
@example(("layered", 2**65, {"nodes": 9, "arcs": 20, "k": 2}))
def test_instances_match_the_per_draw_reference(spec):
    family, seed, kwargs = spec
    got = _outcome(generate_instance, family, seed, kwargs)
    want = _outcome(_reference, family, seed, kwargs)
    if got.startswith("ConfigError") and "nodes - 1" in got:
        # rejected before any draw, where the reference drew its layout first
        nodes = kwargs["nodes"]
        assert kwargs["arcs"] < nodes - 1
        assert got == f"ConfigError: {family} family needs at least nodes - 1 = {nodes - 1} arcs"
        assert want.startswith(f"ConfigError: {family} family needs at least ")
    else:
        assert got == want


def test_benchmark_instances_match_the_recorded_digests(monkeypatch):
    # the generator pinned directly, not through the answers
    monkeypatch.syspath_prepend(PERFBENCH)
    bench = importlib.import_module("bench_workloads")
    for (name, seed), want in WORKLOAD_INSTANCES.items():
        digest = hashlib.sha256()
        for family, sub_seed, kwargs in bench.WORKLOADS[name](seed):
            digest.update(serialize_instance(generate_instance(family, sub_seed, **kwargs)).encode())
        assert digest.hexdigest() == want, (name, seed)


@pytest.mark.parametrize("family", ["dag", "layered"])
def test_too_few_arcs_for_the_nodes_raise_before_drawing(family):
    layers = {"layers": 3} if family == "layered" else {}
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(ConfigError, match=r"at least nodes - 1 = 9999999 arcs"):
            generate_instance(family, 0, nodes=10**7, arcs=5, **layers)
        took = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert took < 0.1
    assert peak < 10 << 20
