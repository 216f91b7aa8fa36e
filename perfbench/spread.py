"""Run workloads over several seeds and print each metric's run-to-run spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --seeds 1-10 --seconds 10 fanout-inproc fanout-tcp

For every workload and end-to-end metric this prints the median of the
per-seed values and the spread: the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median,
next to a third of the metric's bound from ``BENCHMARK.json``.  The runs go
one after another, never in parallel, so they do not disturb each other.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {completed.returncode}: "
                           f"{completed.stdout[-2000:]}{completed.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    worst = 0.0
    for workload in args.workloads:
        results = [run_once(workload, seed, seconds) for seed in _seeds(args.seeds)]
        if not all(r["correct"] for r in results):
            print(f"{workload}: a run failed its checks")
            return 1
        print(f"== {workload} ({len(results)} seeds)")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            s = spread(values)
            flag = "" if s < bound / 3 or name == "setup_s" else "  <-- above a third of bound"
            print(f"{name:22s} median {statistics.median(values):12.4f}  "
                  f"spread {s:6.3f}  bound/3 {bound / 3:6.3f}{flag}")
            if name != "setup_s":
                worst = max(worst, s / bound)
    print(f"worst spread / bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
