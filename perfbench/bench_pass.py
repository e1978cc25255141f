"""The timed passes, run in a process that does nothing else.

    python3 bench_pass.py SRC INPUTS RESULT SECONDS [SPANS]

Reads instance texts (a JSON list) from INPUTS and takes each one from
text to solution text the way ``recsp solve --output machine`` does:
``parse_instance``, ``solve(method="auto")``, ``serialize_solution``.
Whole passes repeat while another one fits in SECONDS; there is at least
one.  With SPANS, passes alternate between untraced and traced (the
``recsp`` modules wrapped in spans), starting untraced, with at least one
of each; the spans are written there afterwards, one JSON list per line.
RESULT receives each pass's per-instance seconds, raw and scaled to the
reference host speed (see bench_speed.py), their sum and whether the pass
was traced, the first pass's outputs, the number of later outputs that
differed from them, and the peak RSS.
"""
from __future__ import annotations

import json
import statistics
import sys
import time

from bench_speed import Speed


def run_pass(recsp, texts, speed, tracer=None):
    """(outputs, per-instance seconds, the same scaled by ``speed``) of one
    pass; a failed instance outputs its error."""
    dispatch, instance_io = recsp.dispatch, recsp.instance_io
    clock = time.perf_counter
    outputs, seconds, scaled = [], [], []
    for index, text in enumerate(texts):
        factor = speed.factor()
        if tracer is not None:
            tracer.instance = index
        start = clock()
        try:
            instance = instance_io.parse_instance(text)
            output = instance_io.serialize_solution(dispatch.solve(instance, "auto"))
        except Exception as exc:  # counted against the instance; the pass goes on
            output = f"error {type(exc).__name__}: {exc}"
        elapsed = clock() - start
        seconds.append(elapsed)
        scaled.append(elapsed * factor)
        outputs.append(output)
    return outputs, seconds, scaled


def measure(recsp, texts, seconds: float, tracer=None) -> dict:
    speed = Speed()
    passes, first, unstable = [], None, 0
    traced_count = 0
    began = time.perf_counter()
    while True:
        # with a tracer, odd passes are traced, so both kinds share the host's state
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.pass_index = traced_count
            traced_count += 1
            tracer.install()
        try:
            outputs, times, scaled = run_pass(recsp, texts, speed, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        passes.append({"wall": sum(times), "traced": traced, "seconds": times,
                       "scaled": scaled})
        if first is None:
            first = outputs
        else:
            unstable += sum(a != b for a, b in zip(first, outputs))
        typical = statistics.median(p["wall"] for p in passes)
        if (time.perf_counter() - began + typical > seconds
                and (tracer is None or traced_count)):
            break
    return {"passes": passes, "outputs": first, "unstable": unstable,
            "calibrations": len(speed.samples)}


def peak_rss_mb() -> float:
    """Peak resident set of this process (``VmHWM``).

    ``ru_maxrss`` would not do: Linux carries the parent's peak into it
    across fork and exec, and the parent holds the set-up objects.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv) -> int:
    src, inputs, result_path, seconds = argv[1], argv[2], argv[3], float(argv[4])
    spans_path = argv[5] if len(argv) > 5 else None
    sys.path.insert(0, src)
    import recsp

    with open(inputs, encoding="utf-8") as handle:
        texts = json.load(handle)
    if spans_path is None:
        result = measure(recsp, texts, seconds)
    else:
        from bench_trace import Tracer

        tracer = Tracer()
        result = measure(recsp, texts, seconds, tracer)
        with open(spans_path, "w", encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span) + "\n")
    result["peak_rss_mb"] = peak_rss_mb()
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
