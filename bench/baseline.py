"""Run every workload over seeds 1 to 10 and summarise the spread.

    python3 bench/baseline.py [--out FILE] [--note TEXT ...]

For each workload in BENCHMARK.json this runs `run.py --trace 0` once per
seed, one run at a time, and reports per end-to-end metric the median, the
quartiles and the spread: the distance between the first and third quartile
as a share of the median, set against the metric's bound.  It then makes one
traced run per workload, seed 1, for the per-layer numbers.  With --out it writes all
of it, with the machine's core count and Python version, as a JSON baseline
that later changes quote their before and after numbers against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_once(spec: dict, workload: str, seed: int, trace: int = 0) -> dict:
    argv = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(spec: dict, results: list[dict]) -> dict:
    metrics = {}
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        metrics[metric["name"]] = {
            "unit": metric["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": spread,
            "bound": metric["bound"],
            "steady": spread < metric["bound"] / 3,
            "values": values,
        }
    return {
        "runs": len(results),
        "correct_runs": sum(r["correct"] for r in results),
        "attempted": [r["attempted"] for r in results],
        "failed": [r["failed"] for r in results],
        "metrics": metrics,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--note", action="append", default=[], help="free text to record (repeatable)")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = {
        "machine": {
            "cores": os.cpu_count(),
            "cpu": cpu_model(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "notes": args.note,
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    for name in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in SEEDS:
            results.append(run_once(spec, name, seed))
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in results[-1]["metrics"].items()
            ) + f", failed {results[-1]['failed']}/{results[-1]['attempted']}", flush=True)
        summary["workloads"][name] = summarise(spec, results)
        traced = run_once(spec, name, SEEDS[0], trace=1)
        summary["workloads"][name]["per_layer"] = {
            "seed": SEEDS[0],
            "failed": traced["failed"],
            "attempted": traced["attempted"],
            "metrics": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for metric, stats in summary["workloads"][name]["metrics"].items():
            print(f"  {name} {metric}: median {stats['median']:.6g} {stats['unit']}, "
                  f"spread {stats['spread']:.2%} (bound {stats['bound']:.0%}, steady {stats['steady']})", flush=True)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=2) + "\n")


if __name__ == "__main__":
    main()
