"""Run every workload of BENCHMARK.json on seeds 1..10, print every metric
with its unit and its spread, and write perfbench/baseline.json (or FILE).

    python3 perfbench/baseline.py [--out FILE]

For each end-to-end metric the spread is the distance between the first
and third quartile of its per-seed values (statistics.quantiles, n=4) as a
share of their median; BENCHMARK.json's bound is the share by which a later
median may worsen. One traced run per workload gives the per-layer
baseline. The file also records the environment and the machine's noise
floor: a fixed pure-Python loop timed back to back.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = list(range(1, 11))


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def noise_floor(repeats: int = 8) -> dict:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(6_000_000):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return {"loop_s_min": min(times), "loop_s_median": statistics.median(times),
            "loop_s_max": max(times), "repeats": repeats}


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(HERE / "baseline.json"))
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    report = {
        "environment": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "commit": commit(),
            "seeds": SEEDS,
            "run_seconds": SPEC["run_seconds"],
            "noise_floor": noise_floor(),
        },
        "workloads": {},
    }
    ok = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        results = [run(workload, seed, 0) for seed in SEEDS]
        traced = run(workload, SEEDS[0], 1)
        entry = {
            "correct": all(r["correct"] for r in results) and traced["correct"],
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        ok = ok and entry["correct"]
        print(f"{workload}: correct {entry['correct']}, failed {entry['failed']} of {entry['attempted']}")
        for name, bound in bounds.items():
            s = spread([r["metrics"][name]["value"] for r in results])
            s["bound"] = bound
            entry["end_to_end"][name] = s
            print(f"  {name} = {s['median']:.6g} {units[name]}  spread {s['spread']:.3f} "
                  f"(bound {bound}, a third of it {bound / 3:.3f})")
        report["workloads"][workload] = entry
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
