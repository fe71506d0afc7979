"""The repository benchmark: one command, two workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload build-anchor --seed 1 --seconds 50 --trace 0

Workloads: ``build-anchor`` and ``ingest-serve`` (see
``workloads.py`` for what each runs and why it was chosen).

``--trace 0`` makes one untraced pass and reports every end-to-end metric.
``--trace 1`` splits ``--seconds`` between an untraced pass and then a
traced pass with the same inputs: the traced pass wraps the library's layer functions (``spans.py``),
and the run reports each layer's self time and call count.  It also reports
the tracing overhead per end-to-end metric (traced minus untraced) and checks
that both passes produced bit-identical outputs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
are a readable report: metrics with units and sample counts, the failed
share, the machine fingerprint and why the workload was chosen.  The same
report is written, as JSON, to ``perfbench/results/``; a traced run also
writes its spans there.

Each pass runs under a fresh ``Telemetry`` bundle installed with
``set_telemetry``, so the library's counters it reads cover that pass alone.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import shutil
import sys
import tempfile
import time

# One thread: numpy's BLAS would otherwise start worker threads that spin on
# the machine's other core.  Set before anything imports numpy.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS_DIR = os.path.join(HERE, "results")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    **{f"build_s.{name}": "s" for name in (
        "send-v", "send-coef", "h-wtopk", "send-sketch",
        "basic-s", "improved-s", "twolevel-s")},
    "lookup_p50_ms": "ms",
    "lookup_p99_ms": "ms",
    "scan_qps": "queries/s",
    "ingest_updates_per_s": "updates/s",
    "fresh_p50_ms": "ms",
    "fresh_p90_ms": "ms",
    "read_p95_ms": "ms",
}
BENCH_SPANS = ("bench.run", "bench.setup", "bench.build", "bench.serve", "bench.ingest")


def _fingerprint() -> dict:
    import numpy
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
    }


def _git_commit() -> str:
    """HEAD's commit read from ``.git`` directly (no subprocess)."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), encoding="ascii") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _run_pass(workloads, spans, inputs, workload, seconds, traced):
    """One pass over the workload; returns its result and span recorder."""
    from repro.telemetry import Telemetry, set_telemetry

    recorder = spans.SpanRecorder() if traced else None
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="pass-", dir=WORK_DIR)
    telemetry = Telemetry()
    previous = set_telemetry(telemetry)
    uninstall = spans.install(recorder) if traced else None
    try:
        ctx = workloads.Context(inputs, telemetry, workdir, recorder)
        if recorder is not None:
            with recorder.span("bench.run"):
                result = workloads.run_workload(ctx, workload, seconds)
        else:
            result = workloads.run_workload(ctx, workload, seconds)
    finally:
        if uninstall is not None:
            uninstall()
        set_telemetry(previous)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_DIR)
    # The library's own fan-out counter, read from this pass's bundle only.
    counted = telemetry.metrics.counter_value("repro_service_fanout_queries_total")
    result.attempted += 1
    if counted != result.fanout_queries_sent:
        result.fail(f"pass telemetry counted {counted:.0f} fan-out queries, "
                    f"the pass sent {result.fanout_queries_sent}")
    return result, recorder


def _per_layer(spans, recorder, result) -> dict:
    totals, calls = spans.self_times(recorder)
    metrics = {}
    for name in [layer[0] for layer in spans.LAYERS]:
        metrics[f"{name}.self_s"] = (totals.get(name, 0) / 1e9, "s")
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
    metrics[f"{spans.ENGINE_LAYER}.queries"] = (recorder.engine_queries, "count")
    lookups = recorder.engine_cache_lookups
    metrics["serving.engine.cache_hit_ratio"] = (
        recorder.engine_cache_hits / lookups if lookups else 0.0, "ratio")
    for name in BENCH_SPANS:
        metrics[f"{name}.self_s"] = (totals.get(name, 0) / 1e9, "s")
    wall = spans.root_wall_ns(recorder)
    self_sum = sum(totals.values())
    metrics["trace.wall_s"] = (wall / 1e9, "s")
    metrics["trace.spans"] = (len(recorder), "count")
    result.attempted += 1
    if self_sum != wall:
        result.fail(f"self times sum to {self_sum} ns, traced wall time is {wall} ns")
    return metrics


def _compare_outputs(untraced, traced) -> int:
    """Count operations whose output differs between the two passes."""
    mismatches = 0
    for key, digest in traced.digests.items():
        other = untraced.digests.get(key)
        if other is not None and other != digest:
            mismatches += 1
            traced.fail(f"traced output differs from untraced for {key}")
    return mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no library sources under {ROOT}/src; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spans.self_test()
    workload = workloads.WORKLOADS[args.workload]

    generated = time.perf_counter()
    inputs = workloads.generate_inputs(args.seed)
    generated = time.perf_counter() - generated
    # The inputs live for the whole run: keep them out of the collector's
    # reach, so collections inside library calls scan only the library's heap.
    gc.collect()
    gc.freeze()

    # A traced run splits its time between an untraced and a traced pass.
    seconds = args.seconds / 2 if args.trace else args.seconds
    untraced, _ = _run_pass(workloads, spans, inputs, workload, seconds, False)
    results = [untraced]
    report = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_generation_s": generated,
        "fingerprint": _fingerprint(),
        "unmeasured": workloads.UNMEASURED,
        "end_to_end": {name: {"value": untraced.metrics.get(name), "unit": unit,
                              "samples": untraced.samples.get(name, 0)}
                       for name, unit in END_TO_END_UNITS.items()},
    }
    if args.trace:
        traced, recorder = _run_pass(workloads, spans, inputs, workload,
                                     seconds, True)
        results.append(traced)
        report["identical_outputs"] = _compare_outputs(untraced, traced) == 0
        report["tracing_overhead"] = {}
        for name, unit in END_TO_END_UNITS.items():
            on, off = traced.metrics.get(name), untraced.metrics.get(name)
            report["tracing_overhead"][name] = {
                "traced": on, "unit": unit,
                "minus_untraced": on - off if on is not None and off is not None else None}
        per_layer = _per_layer(spans, recorder, traced)
        report["per_layer"] = {name: {"value": value, "unit": unit}
                               for name, (value, unit) in per_layer.items()}
        os.makedirs(RESULTS_DIR, exist_ok=True)
        recorder.write(os.path.join(
            RESULTS_DIR, f"{workload.name}-seed{args.seed}.spans.jsonl"))
        output = report["per_layer"]
    else:
        output = {name: {"value": entry["value"], "unit": entry["unit"]}
                  for name, entry in report["end_to_end"].items()}

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    missing = [name for name, entry in output.items() if entry["value"] is None]
    report["attempted"], report["failed"] = attempted, failed
    report["errors"] = [error for r in results for error in r.errors]
    report["missing_metrics"] = missing
    correct = failed == 0 and not missing
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{workload.name}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)

    _print_report(report, output, attempted, failed)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": entry["value"] if entry["value"] is not None else 0.0,
                           "unit": entry["unit"]} for name, entry in output.items()},
    }))
    return 0


def _print_report(report, output, attempted, failed) -> None:
    print(f"workload {report['workload']} seed {report['seed']} "
          f"({report['seconds']:g} s, trace {report['trace']}): {report['why']}")
    fingerprint = report["fingerprint"]
    print("machine: " + ", ".join(f"{key}={value}" for key, value in fingerprint.items()))
    print(f"unmeasured: {report['unmeasured']}")
    for name, entry in report["end_to_end"].items():
        value = entry["value"]
        shown = "missing" if value is None else f"{value:.6g}"
        line = f"  {name:<24} {shown:>14} {entry['unit']:<10} n={entry['samples']}"
        overhead = report.get("tracing_overhead", {}).get(name)
        if overhead and overhead["minus_untraced"] is not None:
            line += f"  traced-untraced={overhead['minus_untraced']:+.4g}"
        print(line)
    if report["trace"]:
        print(f"outputs identical with tracing on: {report['identical_outputs']}")
        for name, entry in report["per_layer"].items():
            print(f"  {name:<58} {entry['value']:>14.6g} {entry['unit']}")
    share = failed / attempted if attempted else 0.0
    print(f"operations: {attempted} attempted, {failed} failed ({share:.2%})")
    for error in report["errors"][:5]:
        print(f"  error: {error.strip().splitlines()[-1]}")


if __name__ == "__main__":
    sys.exit(main())
