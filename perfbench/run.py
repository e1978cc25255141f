"""Benchmark runner for recsp.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
One run:

1. sets up the workload from the seed several times (generate the
   instances, serialize them, compute reference totals) and reports as
   ``setup_s`` the sum over instances of each one's median set-up time;
2. starts a fresh process that only repeats the timed pass (instance text
   to solution text) for about S seconds, so nothing from set-up shares
   its memory or heap, and reports as ``wall_s`` the sum over instances of
   each one's median time.  Both times are scaled to a reference host
   speed by a calibration timed between instances (bench_speed.py): the
   host this was tuned on changes speed by up to 1.9x, for a second or
   for minutes, and unscaled times follow it;
3. with ``--trace 1``, starts a second process whose passes alternate
   between untraced and traced (the ``recsp`` modules wrapped in spans),
   while this process samples its RSS from outside to give each
   memory-heavy span its peak;
4. checks every answer outside the timed region: ``verify_solution`` must
   accept it and its total must equal the independent reference.

The last line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  Lines before it
are a human-readable report, including the failure share and, for traced
runs, each layer's self time against the traced wall time.
``--workload all`` runs every workload traced and prints everything.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bench_speed  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402

SETUP_REPEATS = 3
SETUP_SECONDS = 3.0
CHILD_TIMEOUT_S = 150
SAMPLE_INTERVAL_S = 0.002
WORK_DIR = ".bench_work"


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def set_up(recsp, workload: str, seed: int):
    """The workload's instances, texts and references, and set-up times.

    Set-up, repeated at least SETUP_REPEATS times and for SETUP_SECONDS,
    generates and serializes each instance (the program's work) and
    computes its reference totals (the benchmark's own work).  Each part of
    each instance counts with its median time over the set-ups, scaled to
    the reference host speed like the timed pass.
    """
    clock = time.perf_counter
    speed = bench_speed.Speed()
    specs = bench_workloads.WORKLOADS[workload](seed)
    recorded = bench_workloads.recorded_totals(workload, seed) or [None] * len(specs)
    generate_s, reference_s = [[] for _ in specs], [[] for _ in specs]
    began, repeats = clock(), 0
    while repeats < SETUP_REPEATS or clock() - began < SETUP_SECONDS:
        built = []
        for i, spec in enumerate(specs):
            factor = speed.factor()
            start = clock()
            instance, text = bench_workloads.generate(recsp, spec)
            middle = clock()
            ref = bench_workloads.reference_of(instance, recorded[i])
            end = clock()
            generate_s[i].append((middle - start) * factor)
            reference_s[i].append((end - middle) * factor)
            built.append((instance, text, ref))
        repeats += 1
    parts = {"generate_s": sum(map(statistics.median, generate_s)),
             "reference_s": sum(map(statistics.median, reference_s))}
    times = {"setup_s": parts["generate_s"] + parts["reference_s"], **parts,
             "repeats": repeats}
    return [list(column) for column in zip(*built)], times


def per_instance(passes, key="scaled"):
    """Per instance, its median time over the passes."""
    return [statistics.median(column) for column in zip(*(p[key] for p in passes))]


def _sample_rss(proc, deadline, times, rss):
    """Sample the child's resident set until it exits (Linux /proc, read only)."""
    page = os.sysconf("SC_PAGE_SIZE")
    try:
        fd = os.open(f"/proc/{proc.pid}/statm", os.O_RDONLY)
    except OSError:
        return
    try:
        while proc.poll() is None and time.perf_counter() < deadline:
            try:
                resident = int(os.pread(fd, 128, 0).split()[1])
            except (OSError, IndexError, ValueError):
                break
            times.append(time.perf_counter())
            rss.append(resident * page)
            time.sleep(SAMPLE_INTERVAL_S)
    finally:
        os.close(fd)


def run_child(src, inputs, tmp, seconds, spans_path=None):
    """Run bench_pass.py; returns its result and, when traced, RSS samples."""
    result_path = os.path.join(tmp, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "bench_pass.py"),
           src, inputs, result_path, str(seconds)]
    if spans_path:
        cmd.append(spans_path)
    times, rss = [], []
    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    proc = subprocess.Popen(cmd)
    try:
        if spans_path:
            _sample_rss(proc, deadline, times, rss)
        proc.wait(timeout=max(0.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"timed pass exited with code {proc.returncode}")
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle), (times, rss)


def check(recsp, instances, refs, outputs):
    """(failed instance indices with reasons, count of uncertified totals)."""
    failures, uncertified = [], 0
    for index, (instance, (lower, exact), output) in enumerate(zip(instances, refs, outputs)):
        if output.startswith("error"):
            failures.append((index, output))
            continue
        try:
            solution = recsp.parse_solution(output)
        except recsp.RecspError as exc:
            failures.append((index, f"unparsable solution: {exc}"))
            continue
        verdict = recsp.verify_solution(instance, solution)
        total = solution.total_cost
        if not verdict.accepted:
            failures.append((index, f"rejected: {verdict.reason}"))
        elif total < lower:
            failures.append((index, f"total {total} below the lower bound {lower}"))
        elif exact is not None and total != exact:
            failures.append((index, f"total {total}, reference {exact}"))
        elif exact is None and total != lower:
            uncertified += 1
    return failures, uncertified


def run_workload(recsp, src, workload, seed, seconds, trace):
    """One run: its counts, end-to-end metrics and, if traced, per-layer ones."""
    (instances, texts, refs), setup = set_up(recsp, workload, seed)
    os.makedirs(WORK_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        inputs = os.path.join(tmp, "inputs.json")
        with open(inputs, "w", encoding="utf-8") as handle:
            json.dump(texts, handle)
        del texts
        plain, _ = run_child(src, inputs, tmp, seconds)
        traced = samples = None
        if trace:
            spans_path = os.path.join(WORK_DIR, f"spans-{workload}-seed{seed}.jsonl")
            traced, samples = run_child(src, inputs, tmp, seconds, spans_path)

    failures, uncertified = check(recsp, instances, refs, plain["outputs"])
    attempted = len(plain["passes"]) * len(instances)
    failed = len(failures) * len(plain["passes"]) + plain["unstable"]
    if traced:
        extra, _ = check(recsp, instances, refs, traced["outputs"])
        failures += extra
        attempted += len(traced["passes"]) * len(instances)
        failed += len(extra) * len(traced["passes"]) + traced["unstable"]
    typical = per_instance(plain["passes"])
    report = {
        "workload": workload, "seed": seed, "instances": len(instances),
        "passes": len(plain["passes"]),
        "attempted": attempted, "failed": failed, "uncertified": uncertified,
        "failures": failures[:5],
        "end_to_end": {
            "setup_s": setup["setup_s"],
            "wall_s": sum(typical),
            "peak_rss_mb": plain["peak_rss_mb"],
        },
        "setup_parts_s": {k: setup[k] for k in ("generate_s", "reference_s")},
        "setup_repeats": setup["repeats"],
        "median_pass_s": statistics.median(p["wall"] for p in plain["passes"]),
        "calibrations": plain["calibrations"],
        # printed and kept, not gated: on workloads of a few instances they
        # restate wall_s, and every gated metric must exist on every workload
        "latency_ms": {
            "p50": 1000 * percentile(typical, 50),
            "p99": 1000 * percentile(typical, 99),
        },
    }
    if traced:
        with open(spans_path, encoding="utf-8") as handle:
            spans = [json.loads(line) for line in handle]
        walls = [p["wall"] for p in traced["passes"] if p["traced"]]
        per_layer, layer_self, repeat = bench_trace.summarize(spans, walls, samples)
        # both sides from the one process, whose passes alternate
        per_layer["trace.overhead_share"] = (
            sum(per_instance([p for p in traced["passes"] if p["traced"]]))
            / sum(per_instance([p for p in traced["passes"] if not p["traced"]])) - 1)
        report.update(per_layer=per_layer, layer_self=layer_self,
                      counts_repeat=repeat, traced_passes=len(walls))
    return report


def _spec():
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def save_report(report, trace):
    """Keep the full report beside the spans for later collection."""
    path = os.path.join(WORK_DIR, f"report-{report['workload']}-seed{report['seed']}"
                                  f"-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)


def print_report(report, spec):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"== {report['workload']}  seed {report['seed']}  "
          f"{report['instances']} instances  {report['passes']} untraced passes")
    notes = {
        "setup_s": f"(sum over instances of each one's median of "
                   f"{report['setup_repeats']} set-ups, scaled)",
        "wall_s": "(sum over instances of each one's median pass, scaled)",
    }
    for name, value in report["end_to_end"].items():
        print(f"  {name:<26} {value:12.4f} {units[name]}  {notes.get(name, '')}")
    for name, value in report["setup_parts_s"].items():
        print(f"    {'setup ' + name:<24} {value:12.4f} s")
    print(f"  {'median_pass_s':<26} {report['median_pass_s']:12.4f} s  "
          f"(as timed, not scaled; {report['calibrations']} calibrations, "
          f"not gated)")
    for name, value in report["latency_ms"].items():
        print(f"  {'latency_' + name + '_ms':<26} {value:12.4f} ms  "
              f"(per instance median, scaled, {report['instances']} samples)")
    share = report["failed"] / report["attempted"]
    print(f"  {'fail_share':<26} {share:12.4f} share  "
          f"({report['failed']} of {report['attempted']} attempted; "
          f"{report['uncertified']} totals checked only against the lower bound)")
    for index, reason in report["failures"]:
        print(f"  FAILED instance {index}: {reason}")
    if "per_layer" not in report:
        return
    print(f"  traced: {report['traced_passes']} passes, counts repeat across "
          f"passes: {report['counts_repeat']}")
    for name, value in report["per_layer"].items():
        print(f"  {name:<26} {value:12.4f} {units[name]}")
    wall, layer_self = report["layer_self"]
    print(f"  layer self time against the traced wall_s of its pass, {wall:.4f} s:")
    for layer, seconds in layer_self.items():
        print(f"    {layer:<12} {seconds:10.4f} s {100 * seconds / wall:6.1f}%")
    covered = sum(layer_self.values())
    print(f"    {'sum':<12} {covered:10.4f} s {100 * covered / wall:6.1f}%   "
          f"untraced {wall - covered:.4f} s")


def result_line(report, spec, trace):
    group = spec["per_layer"] if trace else spec["end_to_end"]
    values = report["per_layer"] if trace else report["end_to_end"]
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in group},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*bench_workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=bench_workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "recsp", "__init__.py")):
        print("error: run from the root of a recsp checkout (no src/recsp here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import recsp

    spec = _spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload != "all":
        report = run_workload(recsp, src, args.workload, args.seed, args.seconds, args.trace)
        save_report(report, args.trace)
        print_report(report, spec)
        print(json.dumps(result_line(report, spec, args.trace)))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in bench_workloads.WORKLOADS:
        report = run_workload(recsp, src, workload, args.seed, args.seconds, True)
        save_report(report, True)
        print_report(report, spec)
        for trace in (False, True):
            line = result_line(report, spec, trace)
            for name, metric in line["metrics"].items():
                combined["metrics"][f"{workload}/{name}"] = metric
        combined["attempted"] += report["attempted"]
        combined["failed"] += report["failed"]
    combined["correct"] = combined["failed"] == 0
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
