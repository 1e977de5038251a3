"""Run a workload over several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload catalog_spr --seeds 0 1 2 3 4

For every metric of the ``--trace 0`` result it prints the median of
the values and their spread: the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median, the statistic the benchmark's bounds are checked against.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as src:
        bench = json.load(src)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, check=False,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: exit {out.returncode} correct {result['correct']} "
              f"attempted {result['attempted']} failed {result['failed']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None else f" bound {bound} {'ok' if spread < bound / 3 else 'WIDE'}"
        print(f"{name:32s} median {median:14.6g} spread {spread:7.4f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
