"""Repeat run.py over seeds and summarize the spread of every metric.

    python3 perfbench/collect.py [--out perfbench/baseline.json]

Run from the root of a checkout.  Each workload of BENCHMARK.json runs
once per seed 1-10 with ``--trace 0``; for every end-to-end metric this
prints the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread, the distance between the quartiles as a share of the
median, beside the metric's bound.  Each workload then runs once traced at
the default seed and once untraced at the held-out seed.  ``--out`` writes
everything, with the machine it ran on, as JSON.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bench_workloads  # noqa: E402


SEEDS = range(1, 11)


def run(workload: str, seed: int, seconds: int, trace: int):
    """(result line, full report) of one run.py run."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    path = os.path.join(".bench_work", f"report-{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as handle:
        return json.loads(proc.stdout.strip().splitlines()[-1]), json.load(handle)


def spread_of(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return {"median": mid, "q1": q1, "q3": q3, "spread": (q3 - q1) / mid, "values": values}


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    out = {"machine": machine(), "run_seconds": seconds, "seeds": list(SEEDS),
           "default_seed": bench_workloads.DEFAULT_SEED,
           "heldout_seed": bench_workloads.HELDOUT_SEED, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run(workload, seed, seconds, 0) for seed in SEEDS]
        lines = [line for line, _ in runs]
        entry = {
            "attempted": sum(line["attempted"] for line in lines),
            "failed": sum(line["failed"] for line in lines),
            "end_to_end": {},
            "latency_ms": {p: spread_of([report["latency_ms"][p] for _, report in runs])
                           for p in ("p50", "p99")},
        }
        print(f"== {workload}: {entry['failed']} failed of {entry['attempted']} attempted")
        for name, bound in bounds.items():
            stats = spread_of([line["metrics"][name]["value"] for line in lines])
            stats["bound"] = bound
            entry["end_to_end"][name] = stats
            flag = "ok" if stats["spread"] <= bound / 3 else (
                "within bound" if stats["spread"] <= bound else "OVER BOUND")
            print(f"  {name:<16} median {stats['median']:12.4f}  q1 {stats['q1']:12.4f}  "
                  f"q3 {stats['q3']:12.4f}  spread {stats['spread']:.4f}  "
                  f"bound {bound}  {flag}")
        for p, stats in entry["latency_ms"].items():
            print(f"  latency_{p}_ms   median {stats['median']:12.4f}  "
                  f"spread {stats['spread']:.4f}  (not gated)")
        line, _ = run(workload, bench_workloads.HELDOUT_SEED, seconds, 0)
        entry["heldout"] = {k: line[k] for k in ("correct", "attempted", "failed")}
        print(f"  held-out seed {bench_workloads.HELDOUT_SEED}: {entry['heldout']}")
        seed = bench_workloads.DEFAULT_SEED
        line, report = run(workload, seed, seconds, 1)
        wall, layer_self = report["layer_self"]
        entry["traced"] = {
            "seed": seed,
            "correct": line["correct"],
            "counts_repeat": report["counts_repeat"],
            "per_layer": {k: v["value"] for k, v in line["metrics"].items()},
            "layer_self_s": layer_self,
            "layer_self_pass_wall_s": wall,
        }
        print(f"  traced at seed {seed}: coverage "
              f"{sum(layer_self.values()) / wall:.3f}, overhead "
              f"{line['metrics']['trace.overhead_share']['value']:.3f}")
        out["workloads"][workload] = entry
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(out, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
