#!/usr/bin/env python
"""Bench-trend gate: fail CI when a suite's headline metric regresses.

``scripts/bench_perf.py`` appends one JSONL line per suite execution to
``BENCH_history.jsonl``.  This script compares the newest entry of a
suite against earlier entries from the **same fingerprint** (host
platform, python version, cpu count, quick flag, workload) and exits
non-zero when the headline metric regressed beyond the allowed ratio.

The gated metrics are **load-invariant ratios**, not raw wall seconds:
shared CI runners (and shared bench hosts generally) drift 1.5-2x in
sustained CPU speed between runs, which no tolerance short of useless
can absorb.  Ratios of quantities measured inside one run — the
apply suite's per-round tax in kernel units, the bdp suite's scorer
speedup over the scalar reference — cancel the host's speed
and expose only genuine code regressions.

Noise handling: the newest reading is compared against the *best* of
the trailing ``--window`` same-fingerprint entries, not just the single
previous one — a single bad historical run cannot mask a real
regression, and a single lucky outlier ages out of the window.  First
runs on a new fingerprint pass with a note (nothing to compare
against).

Usage (CI)::

    python scripts/bench_perf.py --quick
    python scripts/check_bench_trend.py --suite apply_path
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_HISTORY = _ROOT / "BENCH_history.jsonl"

#: Headline metric per suite: dotted path into the history record plus
#: the direction a *regression* moves it.  Only load-invariant ratios
#: are gated (see module docstring); suites mapped to ``None`` have no
#: such figure and the gate refuses them.
METRICS = {
    "apply_path": {
        "path": ("profile", "per_round_over_kernel"),
        "higher_is_worse": True,
        "label": "per-round tax (kernel units)",
    },
    "bdp": {
        "path": ("scorer_speedup",),
        "higher_is_worse": False,
        "label": "vectorized scorer speedup",
    },
    "service": {
        "path": ("overhead_ratio_service_vs_standalone",),
        "higher_is_worse": True,
        "label": "service per-query overhead ratio",
    },
    "group_engine": None,
    "fault_overhead": None,
    "parallel_runner": None,
}


def _fingerprint(record: dict) -> tuple:
    # Workload and quick flag belong in the fingerprint: a full-size run
    # on the same host is not comparable to a --quick one, so mixing
    # them would fake regressions (or hide real ones behind a faster
    # quick baseline).
    host = record.get("host", {})
    return (
        host.get("platform"),
        host.get("python"),
        host.get("cpu_count"),
        record.get("quick"),
        record.get("workload"),
    )


def _metric(record: dict, path: tuple) -> float | None:
    value = record
    for key in path:
        if not isinstance(value, dict):
            return None
        value = value.get(key)
    return float(value) if isinstance(value, (int, float)) else None


def _load(path: pathlib.Path, suite: str) -> list[dict]:
    entries = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue  # a torn line must not break the gate
        if record.get("benchmark") == suite:
            entries.append(record)
    return entries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--history", type=pathlib.Path, default=DEFAULT_HISTORY)
    parser.add_argument("--suite", default="apply_path",
                        choices=sorted(k for k, v in METRICS.items() if v))
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="allowed fractional regression vs the best "
                        "trailing same-fingerprint entry (default 0.25)")
    parser.add_argument("--window", type=int, default=5,
                        help="trailing same-fingerprint entries considered "
                        "(default 5)")
    args = parser.parse_args(argv)

    if not args.history.exists():
        print(f"trend gate: {args.history} missing — nothing to compare, "
              "passing")
        return 0
    entries = _load(args.history, args.suite)
    if not entries:
        print(f"trend gate: no {args.suite!r} entries in "
              f"{args.history.name} — passing")
        return 0

    spec = METRICS[args.suite]
    latest = entries[-1]
    latest_value = _metric(latest, spec["path"])
    if latest_value is None:
        print(f"trend gate: newest {args.suite} entry carries no metric — "
              "passing")
        return 0

    fingerprint = _fingerprint(latest)
    prior = [
        value
        for record in entries[:-1]
        if _fingerprint(record) == fingerprint
        and (value := _metric(record, spec["path"])) is not None
    ]
    if not prior:
        print(f"trend gate: first {args.suite} reading for fingerprint "
              f"{fingerprint} — baseline recorded, passing")
        return 0
    window = prior[-args.window:]
    if spec["higher_is_worse"]:
        baseline = min(window)
        ratio = latest_value / baseline if baseline else float("inf")
    else:
        baseline = max(window)
        ratio = baseline / latest_value if latest_value else float("inf")
    verdict = "ok" if ratio <= 1.0 + args.max_regression else "REGRESSION"
    print(
        f"trend gate [{args.suite}]: latest {spec['label']} "
        f"{latest_value:.4f} vs best of trailing {len(window)} "
        f"same-fingerprint entries {baseline:.4f} -> {ratio:.2f}x "
        f"({verdict}, limit {1.0 + args.max_regression:.2f}x)"
    )
    if verdict != "ok":
        print(
            "trend gate: the headline metric regressed beyond the allowed "
            "ratio; if the change is intended, say so in the PR and re-run "
            "the bench to refresh the history",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
