"""The workloads: seeded instance sets and their reference totals.

Each workload turns a seed into a list of instance specs, the arguments
of the package's own seeded generator; set-up generates each instance and
serializes it, and the timed pass sees only the text.  Why each workload
is in the matrix is in README.md beside this file and in BENCHMARK.json.
"""
from __future__ import annotations

import json
import os
import random

from bench_reference import path_extremes, reference

DEFAULT_SEED = 1
# kept out of tuning: a later change confirms its claim on this seed too
HELDOUT_SEED = 1009

SMALL_COUNT = 1200
_RECORDED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "recorded_totals.json")


def _sub_seeds(seed, count):
    rng = random.Random(seed)
    return [rng.getrandbits(62) for _ in range(count)]


def _asp_20k(seed):
    return [("asp", s, {"arcs": 5000, "k": 50}) for s in _sub_seeds(seed, 4)]


def _layered_40(seed):
    return [("layered", s, {"nodes": 200, "arcs": 800, "k": 5, "layers": 40})
            for s in _sub_seeds(seed, 8)]


def _small_mixed(seed):
    rng = random.Random(seed)
    out = []
    for i in range(SMALL_COUNT):
        family = ("asp", "layered", "dag")[i % 3]
        arcs = rng.randint(20, 60)
        k = rng.randint(1, 4)
        sub_seed = rng.getrandbits(62)
        if family == "asp":
            out.append(("asp", sub_seed, {"arcs": arcs, "k": k}))
            continue
        nodes = arcs // 3
        layers = max(3, nodes // 3) if family == "layered" else None
        out.append((family, sub_seed, {"nodes": nodes, "arcs": arcs, "k": k, "layers": layers}))
    return out


# each turns a workload seed into the (family, seed, keyword arguments)
# of every instance, for the package's generate_instance
WORKLOADS = {
    "asp-20k": _asp_20k,
    "layered-40": _layered_40,
    "small-mixed": _small_mixed,
}

# the pair DP holds node_count**2 * (k + 1) floats; past this many its
# totals are checked against the lower bound and, for recorded seeds,
# the recorded totals
_PAIR_DP_MAX_CELLS = 4_000_000


def _rows(instance):
    return [(a.tail, a.head, a.first_cost, a.upper_cost) for a in instance.graph.arcs]


def recorded_totals(workload: str, seed: int):
    """The recorded total of each instance, or None for an unrecorded seed."""
    with open(_RECORDED, encoding="utf-8") as handle:
        return json.load(handle).get(workload, {}).get(str(seed))


def generate(recsp, spec):
    """An instance and its text."""
    family, seed, kwargs = spec
    instance = recsp.generate_instance(family, seed, **kwargs)
    return instance, recsp.serialize_instance(instance)


def reference_of(instance, recorded=None):
    """(lower bound, exact total) of an instance.

    The exact total is None where no independent method is feasible and
    no total was recorded.
    """
    n = instance.graph.node_count
    rows = _rows(instance)
    if n * n * (instance.k + 1) <= _PAIR_DP_MAX_CELLS:
        return reference(n, rows, instance.source, instance.sink, instance.k)
    lower, longest = path_extremes(n, rows, instance.source, instance.sink)
    if recorded is not None:
        return lower, recorded
    return lower, lower if instance.k >= longest else None
