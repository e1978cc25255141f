import pytest

from recsp.asp import decompose
from recsp.errors import ConfigError
from recsp.generator import FAMILIES, SplitMix64, generate_instance
from recsp.graph import compute_layering
from recsp.instance_io import serialize_instance

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
