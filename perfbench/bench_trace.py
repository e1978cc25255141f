"""Spans and counts around the public functions of each ``recsp`` module.

The tracer wraps functions from outside the package: every reference to a
wrapped function in any ``recsp`` module is swapped for the wrapper, and
``uninstall`` puts the originals back.  A span is
``[name, start, end, parent, instance, pass, error, size]``: times come from
``time.perf_counter`` (a system-wide monotonic clock on Linux, so another
process can line samples up with them), ``parent`` is the index of the
enclosing span or -1, ``error`` the exception class name if the call
raised, and ``size`` a count taken from the call (tree nodes, reduction
arcs, CSP states).  The layer of a span is the part of its name before the
dot, which is the module it wraps.
"""
from __future__ import annotations

import bisect
import functools
import inspect
import statistics
import sys
import time

NAME, START, END, PARENT, INSTANCE, PASS, ERROR, SIZE = range(8)
RECOGNITION_ERRORS = ("NotSeriesParallelError", "NotLayeredError")
# spans whose peak memory is measured (see peak_growth)
MEMORY_SPANS = {"asp.solve": "asp.peak_mb", "reduction.build": "reduction.peak_mb"}
LAYERS = ("instance_io", "graph", "dispatch", "asp", "reduction", "csp", "solution")
# counts that must repeat exactly between passes and runs of one seed
COUNT_METRICS = (
    "graph.topo_sorts", "graph.sp_calls", "graph.hop_tables", "dispatch.rejections",
    "asp.tree_nodes", "reduction.arcs", "csp.states",
)


def _csp_states(fn):
    signature = inspect.signature(fn)

    def states(args, kwargs, result):
        bound = signature.bind(*args, **kwargs).arguments
        return bound["node_count"] * (bound["budget"] + 1)

    return states


def _tree_nodes(args, kwargs, result):
    return len(result.nodes)


def _arc_count(args, kwargs, result):
    return len(result)


def _targets():
    from recsp import asp, csp, dispatch, graph, instance_io, reduction, solution

    return [
        (instance_io, "parse_instance", "instance_io.parse", None),
        (instance_io, "serialize_solution", "instance_io.serialize", None),
        (graph.MultiDigraph, "__post_init__", "graph.validate", None),
        (graph.Instance, "__post_init__", "graph.validate", None),
        (graph, "topological_order", "graph.topo", None),
        (graph, "dag_shortest_paths", "graph.sp", None),
        (graph.HopBoundedTable, "__init__", "graph.hop_table", None),
        (graph, "compute_layering", "graph.layering", None),
        (dispatch, "solve", "dispatch.solve", None),
        (asp, "decompose", "asp.decompose", _tree_nodes),
        (asp, "solve_asp", "asp.solve", None),
        (reduction, "build_layered_reduction", "reduction.build", _arc_count),
        (reduction, "build_dag_reduction", "reduction.build", _arc_count),
        (reduction, "solve_layered", "reduction.solve", None),
        (reduction, "solve_dag", "reduction.solve", None),
        (csp, "solve_csp", "csp.solve", _csp_states(csp.solve_csp)),
        (solution, "build_solution", "solution.build", None),
    ]


class Tracer:
    """Records spans in memory while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self.instance = -1
        self.pass_index = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, fn, name, size):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1,
                      self.instance, self.pass_index, None, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                record[START] = clock()
                result = fn(*args, **kwargs)
                record[END] = clock()
            except BaseException as exc:
                record[END] = clock()
                record[ERROR] = type(exc).__name__
                raise
            finally:
                stack.pop()
            if size is not None:
                record[SIZE] = size(args, kwargs, result)
            return result

        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "recsp" or key.startswith("recsp.")]
        for owner, attr, name, size in _targets():
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, size)
            holders = [owner] if inspect.isclass(owner) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def peak_growth(span, times, rss) -> float:
    """Largest RSS rise in bytes over the span, from samples ``rss`` taken at
    ``times``; the baseline is the last sample before the span began."""
    lo = bisect.bisect_left(times, span[START])
    hi = bisect.bisect_right(times, span[END])
    if lo == 0 or lo >= hi:
        return 0.0
    return max(0.0, max(rss[lo:hi]) - rss[lo - 1])


def pass_metrics(spans, wall: float, samples=None):
    """(per-layer metrics, self time per layer) of one traced pass.

    ``spans`` are that pass's spans only; ``samples`` are (times, rss)
    lists of the traced process's resident set.
    """
    own = self_times(spans)
    by_name: dict[str, float] = {}
    count: dict[str, int] = {}
    size: dict[str, int] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s, t in zip(spans, own):
        by_name[s[NAME]] = by_name.get(s[NAME], 0.0) + t
        count[s[NAME]] = count.get(s[NAME], 0) + 1
        if s[SIZE] is not None:
            size[s[NAME]] = size.get(s[NAME], 0) + s[SIZE]
        layer_self[s[NAME].split(".")[0]] += t

    solves = count.get("dispatch.solve", 0)
    rejected = [s for s in spans
                if s[ERROR] in RECOGNITION_ERRORS and s[PARENT] >= 0
                and spans[s[PARENT]][NAME] == "dispatch.solve"]
    rejected_parents = {s[PARENT] for s in rejected}

    peaks = dict.fromkeys(MEMORY_SPANS.values(), 0.0)
    if samples:
        times, rss = samples
        for s in spans:
            metric = MEMORY_SPANS.get(s[NAME])
            if metric:
                peaks[metric] = max(peaks[metric], peak_growth(s, times, rss) / 2**20)

    t = by_name.get
    metrics = {
        "instance_io.parse_s": t("instance_io.parse", 0.0),
        "instance_io.serialize_s": t("instance_io.serialize", 0.0),
        "graph.validate_s": t("graph.validate", 0.0),
        "graph.topo_sorts": count.get("graph.topo", 0),
        "graph.topo_s": t("graph.topo", 0.0),
        "graph.sp_calls": count.get("graph.sp", 0),
        "graph.hop_tables": count.get("graph.hop_table", 0),
        "graph.sp_s": t("graph.sp", 0.0) + t("graph.hop_table", 0.0),
        "graph.layering_s": t("graph.layering", 0.0),
        "dispatch.rejections": len(rejected),
        "dispatch.rejected_s": sum((s[END] - s[START] for s in rejected), 0.0),
        "dispatch.first_try_share":
            (solves - len(rejected_parents)) / solves if solves else 0.0,
        "asp.decompose_s": t("asp.decompose", 0.0),
        "asp.tree_nodes": size.get("asp.decompose", 0),
        "asp.sweep_s": t("asp.solve", 0.0),
        "asp.peak_mb": peaks["asp.peak_mb"],
        "reduction.build_s": t("reduction.build", 0.0),
        "reduction.arcs": size.get("reduction.build", 0),
        "reduction.peak_mb": peaks["reduction.peak_mb"],
        "csp.solve_s": t("csp.solve", 0.0),
        "csp.states": size.get("csp.solve", 0),
        "solution.build_s": t("solution.build", 0.0),
        "trace.wall_s": wall,
        "trace.coverage_share": sum(own) / wall,
    }
    return metrics, layer_self



def summarize(spans, walls, samples=None):
    """Metrics over all traced passes: medians of times, counts of pass 0.

    Returns (metrics, (wall, layer self times) of the median pass, whether
    every pass gave the same counts).
    """
    begin: dict[int, int] = {}
    groups = [[] for _ in walls]
    for i, s in enumerate(spans):
        first = begin.setdefault(s[PASS], i)
        local = list(s)
        if local[PARENT] >= 0:
            local[PARENT] -= first
        groups[s[PASS]].append(local)
    results = [pass_metrics(g, w, samples) for g, w in zip(groups, walls)]
    metrics = dict(results[0][0])
    for key, value in metrics.items():
        if key in MEMORY_SPANS.values():
            metrics[key] = max(r[0][key] for r in results)
        elif isinstance(value, float):
            metrics[key] = statistics.median(r[0][key] for r in results)
    repeat = all(r[0][key] == metrics[key] for r in results for key in COUNT_METRICS)
    median_pass = sorted(range(len(walls)), key=walls.__getitem__)[(len(walls) - 1) // 2]
    return metrics, (walls[median_pass], results[median_pass][1]), repeat
