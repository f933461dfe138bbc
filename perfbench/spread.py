"""Run the benchmark over several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload compare-fixed --seeds 1-10

Runs ``run.py`` once per seed, one after another, with BENCHMARK.json's
``run_seconds`` and ``--trace 0``, and prints for every end-to-end
metric the median over seeds and the interquartile distance as a share
of that median (``statistics.quantiles(values, n=4)``), next to the
metric's bound from BENCHMARK.json.  This is the steadiness rule a
benchmark change has to meet: every spread inside its bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from summary import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in parse_seeds(args.seeds):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        figures = " ".join(f"{name}={metric['value']:.5g}"
                           for name, metric in result["metrics"].items())
        print(f"seed {seed}: {time.perf_counter() - start:.1f} s "
              f"correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"{figures}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"{'metric':46s} {'median':>14s} {'spread':>8s} {'bound':>6s}")
    for name, series in values.items():
        median = statistics.median(series)
        spread = quartile_spread(series) if median and len(series) > 1 else 0.0
        print(f"{name:46s} {median:14.6g} {spread:8.4f} {bounds[name]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
