"""permchar benchmark: one seeded workload for a fixed time, as repeated
fresh child processes, each of which runs the workload's pass cold and
then warm in a single closed loop (one caller, no threads, no jobs).

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics, the medians over the children;
setup_s also takes in SETUP_CHILDREN children that only set up.
Times are scaled to a reference machine speed measured during each pass
(see speed.py); the unscaled medians are printed beside them.
--trace 1 alternates untraced and traced children and prints the per-layer
metrics of the traced ones' cold passes (their warm passes are in the span
files under out/), plus the tracing overhead (traced minus untraced cold
run_s). A BENCHMARK.json per-layer metric that no traced child recorded is
printed as missing and left out of the result.
Every output is checked against an oracle; the last line of stdout is one
JSON object with "correct", "attempted", "failed" and "metrics". A child
that cannot run (for instance without the permchar sources beside this
directory) makes the run exit with status 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
OUT = HERE / "out"
CHILD_TIMEOUT_S = 150
MIN_CHILDREN = 3
# A set-up takes about 0.1 s, so a run's three or four measured children
# give too few of them for a steady median.
SETUP_CHILDREN = 8

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "warm_run_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def layer_units() -> dict:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


class ChildFailed(RuntimeError):
    pass


def run_child(workload: str, seed: int, mode: str) -> dict:
    """One child process in MODE "setup", "run" or "trace" (see child.py)."""
    spawned = time.monotonic()
    cmd = [sys.executable, str(CHILD), workload, str(seed), mode, repr(spawned)]
    if mode == "trace":
        OUT.mkdir(exist_ok=True)
        cmd.append(str(OUT / f"trace-{workload}-{seed}.json"))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"child timed out after {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"child exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["wall_s"] = time.monotonic() - spawned
    return result


def run_children(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Set-up-only children, for an untraced run, then measured children
    until the time is up: a new one starts while it would end by the
    deadline plus half a child. Untraced runs make at least MIN_CHILDREN;
    traced runs make untraced/traced pairs, at least one."""
    deadline = time.monotonic() + seconds
    setups = [] if trace else [run_child(workload, seed, "setup") for _ in range(SETUP_CHILDREN)]
    children = []
    while True:
        children.append(run_child(workload, seed, "run"))
        if trace:
            children.append(run_child(workload, seed, "trace"))
        step = statistics.median(c["wall_s"] for c in children) * (2 if trace else 1)
        enough = trace or len(children) >= MIN_CHILDREN
        if enough and time.monotonic() + step / 2 > deadline:
            return setups, children


def end_to_end(setups: list, children: list, raw: bool = False) -> dict:
    """Medians over the measured children, setup_s's over the set-up-only
    children too; with raw, of the unscaled values."""
    def pick(c):
        return c["raw"] if raw else c

    out = {name: statistics.median(pick(c)[name] for c in children)
           for name in END_TO_END if name in pick(children[0])}
    out["setup_s"] = statistics.median(pick(c)["setup_s"] for c in setups + children)
    return out


def per_layer(children: list, names: list) -> tuple:
    """Medians of the traced children's cold-pass layer metrics, by name;
    a name some traced child did not record is left out, as missing. Also
    whether every work count repeated exactly."""
    traced = [c for c in children if "layers" in c]
    plain = [c for c in children if "layers" not in c]
    out = {
        "trace.overhead_s": statistics.median(c["run_s"] for c in traced)
        - statistics.median(c["run_s"] for c in plain)
    }
    repeat = True
    for name in names:
        values = [c["layers"][name] for c in traced if name in c["layers"]]
        if name in out or len(values) < len(traced):
            continue
        out[name] = statistics.median(values)
        if not name.endswith("_s") and len(set(values)) > 1:
            repeat = False
    return out, repeat


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["sweep", "mathieu", "tables"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    trace = bool(args.trace)
    units = layer_units() if trace else {}

    try:
        setups, children = run_children(args.workload, args.seed, args.seconds, trace)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    correct = failed == 0 and all("op_tail_ms" in c for c in children)
    for c in children:
        kind = "traced" if "layers" in c else "child"
        raw = c["raw"]
        print(f"{kind}: speed factor {'/'.join(f'{f:.3f}' for f in c['speed_factor'])}; raw "
              f"setup_s {raw['setup_s']:.4f} run_s {raw['run_s']:.3f} warm_run_s {raw['warm_run_s']:.3f} "
              f"op_p50_ms {raw['op_p50_ms']:.2f} op_tail_ms {raw.get('op_tail_ms', float('nan')):.2f}; "
              f"wall {c['wall_s']:.2f} s")
        for line in c["failures"]:
            print(f"failure: {line}")

    if trace:
        values, repeat = per_layer(children, list(units))
        balance = max(c["op_balance_s"] for c in children if "layers" in c)
        missing = sorted({m for c in children for m in c.get("missing", [])})
        correct = correct and repeat and balance < 1e-6
        print(f"traced children: {sum('layers' in c for c in children)}; work counts repeat: {repeat}; "
              f"max |op self-time sum - op duration|: {balance:.3g} s")
        print(f"missing entry points: {', '.join(missing) or 'none'}")
        print(f"missing metrics: {', '.join(n for n in units if n not in values) or 'none'}")
        units = {name: unit for name, unit in units.items() if name in values}
    else:
        values = end_to_end(setups, children)
        units = END_TO_END
        raw = end_to_end(setups, children, raw=True)
        print("raw medians: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
        print("set-up-only children: " + ", ".join(
            f"setup_s {c['setup_s']:.4f} (raw {c['raw']['setup_s']:.4f})" for c in setups))
        tail_pcts = sorted({c["op_tail_pct"] for c in children if "op_tail_pct" in c})
        print(f"children: {len(children)}; cold-pass operations: {children[0]['op_count']}; "
              f"op_tail_ms percentile: p{'/'.join(map(str, tail_pcts))}; "
              f"fail_ratio: {failed}/{attempted}")

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
