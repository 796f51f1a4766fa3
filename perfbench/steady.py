"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 perfbench/steady.py --seeds 1-10 [--workloads verify-sweep,...] [--out FILE]

For every workload and end-to-end metric this prints the median of the runs'
values and their spread: the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the median.
A spread above a third of the metric's bound in BENCHMARK.json is flagged
``WIDE``.  With --trace it also makes one traced run per workload, on the
first seed.  --out writes everything, with the environment block of the
first run, as JSON (perfbench/baseline.json is such a file).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, cwd=ROOT, timeout=600, check=True)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    summary: dict = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [one_run(workload, seed, spec["run_seconds"], 0) for seed in seeds]
        summary.setdefault("environment", runs[0][0]["environment"])
        entry: dict = {"end_to_end": {}, "attempted": sum(r["attempted"] for _, r in runs),
                       "failed": sum(r["failed"] for _, r in runs)}
        print(f"{workload}: {len(runs)} runs, {entry['failed']}/{entry['attempted']} failed")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for _, r in runs]
            unit = runs[0][1]["metrics"][name]["unit"]
            s = spread(values)
            flag = "WIDE" if name != "setup_s" and s > bound / 3 else "ok"
            print(f"  {name:<14} median {statistics.median(values):<10.5g} {unit:<4} "
                  f"spread {s:6.3f}  bound {bound}  {flag}  "
                  + " ".join(f"{v:.4g}" for v in values))
            entry["end_to_end"][name] = {"unit": unit, "median": statistics.median(values),
                                         "spread": s, "values": values}
        if args.trace:
            report, result = one_run(workload, seeds[0], spec["run_seconds"], 1)
            entry["per_layer"] = {name: m["value"] for name, m in result["metrics"].items()}
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
