"""End-to-end benchmark of crowd-topk: one workload per run.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload catalog_spr --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` measures the workload untraced, then replays the same
units with each layer's public entry points wrapped (see ``spans.py``)
and reports the per-layer metrics; the spans are written to
``.perfbench/spans/<workload>.jsonl``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the line before it holds the run's details (host
fingerprint, seed, loop type, tail percentile and sample counts).  The
exit code is 1 when an output check fails and 2 when the program cannot
be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUPS = 11


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def host_fingerprint(seed: int) -> dict:
    import numpy
    import scipy

    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
    }


def _commit() -> str:
    """The checkout's commit from ``.git`` when present, else ``unknown``."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as src:
            ref = src.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as src:
                return src.read().strip()
        return ref
    except OSError:
        return "unknown"


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it.

    Returns ``(value, percentile, samples)``: the value with exactly 10
    samples above it.  With fewer than 21 samples that percentile would
    not be above the median, and the median is reported instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), 50.0, n
    rank = n - 11
    return ordered[rank], 100.0 * (rank + 1) / n, n


def run_units(unit_fn, ctx, seconds: float) -> list:
    """Repeat units until the next one would overrun ``seconds``."""
    units = []
    started = time.perf_counter()
    index = 0
    while True:
        unit_started = time.perf_counter()
        units.append(unit_fn(ctx, index))
        index += 1
        took = time.perf_counter() - unit_started
        if time.perf_counter() - started + took > seconds:
            return units


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(units: list, setup_s: list[float], sla_s: float) -> tuple[dict, dict]:
    latencies = [x for u in units for x in u.latencies]
    tmc = [x for u in units for x in u.tmc]
    window = sum(u.wall_s for u in units)
    completed = sum(u.attempted - u.failed for u in units)
    attempted = sum(u.attempted for u in units)
    met = sum(1 for x in latencies if x <= sla_s)
    tail_value, tail_pct, tail_n = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (statistics.median(u.wall_s for u in units), "s"),
        "query_p50_s": (statistics.median(latencies), "s"),
        "query_tail_s": (tail_value, "s"),
        "queries_per_s": (completed / window, "1/s"),
        "microtasks_per_s": (sum(u.microtasks for u in units) / window, "1/s"),
        "tmc": (statistics.median(tmc), "count"),
        "rounds": (statistics.median(x for u in units for x in u.rounds), "count"),
        "precision_at_k": (statistics.fmean(x for u in units for x in u.precision), "ratio"),
        "ndcg_at_k": (statistics.fmean(x for u in units for x in u.ndcg), "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "sla_attainment": (met / len(latencies), "ratio"),
    }
    detail = {
        "units": len(units),
        "queries": attempted,
        "latency_samples": len(latencies),
        "query_tail_percentile": tail_pct,
        "query_tail_samples": tail_n,
        "sla_limit_s": sla_s,
        "tmc_mean": statistics.fmean(tmc),
        "failed_ratio": (attempted - completed) / attempted,
    }
    return metrics, detail


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import layers
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    workload = workloads.WORKLOADS[args.workload]
    ctx = workloads.Context(seed=args.seed, seconds=args.seconds)
    tracer = layers.Tracer() if args.trace else None

    if tracer is not None:
        layers.install(tracer)
    setup_started = time.perf_counter_ns()
    setup_s = []
    for _ in range(SETUPS):
        started = time.perf_counter()
        ctx.inputs = workload.setup(ctx)
        setup_s.append(time.perf_counter() - started)
    setup_window = (setup_started, time.perf_counter_ns())

    if tracer is None:
        units = run_units(workload.unit, ctx, args.seconds)
        checks = [c for u in units for c in u.checks]
        checks += workload.final_checks(ctx, units, None)
        metrics, detail = end_to_end(units, setup_s, workload.sla_s)
    else:
        # The untraced pass, then its traced replay (same unit indices,
        # same inputs): the ratio of the two is the tracing overhead.
        tracer.uninstall()
        reference = run_units(workload.unit, ctx, args.seconds)
        layers.install(tracer)
        ctx.tracer = tracer
        traced_started = time.perf_counter_ns()
        units = run_units(workload.traced_unit, ctx, args.seconds)
        traced_window = (traced_started, time.perf_counter_ns())
        tracer.uninstall()
        ctx.tracer = None
        checks = [c for u in [*reference, *units] for c in u.checks]
        checks += workload.final_checks(ctx, units, reference)
        checks += workloads.answers_check(tracer)
        metrics, detail = layers.per_layer(
            tracer, reference, units, setup_window, traced_window, SETUPS)
        os.makedirs(os.path.join(workloads.STATE_ROOT, "spans"), exist_ok=True)
        # One file per workload, overwritten: a traced run can hold 10^5-10^6 spans.
        spans_path = os.path.join(workloads.STATE_ROOT, "spans", f"{args.workload}.jsonl")
        tracer.dump(spans_path)
        detail["spans_file"] = spans_path

    bad = [c for c in checks if not c[1]]
    detail.update({
        "workload": args.workload,
        "trace": args.trace,
        "loop": workload.loop,
        "host": host_fingerprint(args.seed),
        "checks_run": len(checks),
        "checks_failed": [f"{name}: {text}" for name, _, text in bad[:20]],
    })
    result = {
        "correct": not bad,
        "attempted": sum(u.attempted for u in units),
        "failed": sum(u.failed for u in units),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    os.makedirs(os.path.join(workloads.STATE_ROOT, "results"), exist_ok=True)
    result_path = os.path.join(
        workloads.STATE_ROOT, "results",
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w", encoding="utf-8") as sink:
        json.dump({"detail": detail, "result": result}, sink, indent=1)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if not bad else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
