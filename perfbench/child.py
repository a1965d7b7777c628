"""One measured child process: set up, run the workload's pass cold and then
warm, check every output, and print one JSON line of measurements.

Usage (normally started by run.py):
    python3 perfbench/child.py WORKLOAD SEED MODE SPAWN_TIME [TRACE_FILE]

MODE is "setup" (stop after set-up), "run" or "trace"; a traced child needs
TRACE_FILE, where it writes its spans.
SPAWN_TIME is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is system-wide). setup_s runs from then until the
permchar modules the workloads drive are imported and the seeded inputs
are made, so it holds interpreter start-up; the time spent in between on
the benchmark's own modules, its oracle file and its speed probes is left
out. Times are reported scaled to the reference speed of speed.py, and
unscaled under "raw": set-up by probes taken just before permchar is
imported, the cold and warm passes each by probes taken during the pass.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# speed-probe units timed for the set-up's speed factor, about 2 ms each
SETUP_PROBES = 5


def tail_percentile(n: int, beyond: int = 10):
    """The highest whole percentile p whose nearest-rank value has at least
    `beyond` of n samples above it, with that rank (1-based); None when
    n <= beyond."""
    if n <= beyond:
        return None
    p = 100 * (n - beyond) // n
    return p, -(-p * n // 100)


def find_failures(workload, cold: list, warm: list) -> list:
    """One line per failed operation: it raised, its report did not pass or
    its output differs from the oracle (cold pass), or it differs from the
    cold pass's output (warm pass)."""
    failures = []
    for op in cold:
        reason = op.error or workload.check(op)
        if reason:
            failures.append(f"cold {op.key}: {reason}")
    for c, w in zip(cold, warm):
        if w.error or (not c.error and workload.summary(c) != workload.summary(w)):
            failures.append(f"warm {w.key}: {w.error or 'output differs from the cold pass'}")
    for op in warm[len(cold):]:
        failures.append(f"warm {op.key}: not in the cold pass")
    return failures


def main(argv) -> int:
    workload_name, seed, mode, spawned = argv[0], int(argv[1]), argv[2], float(argv[3])
    trace = mode == "trace"
    trace_file = argv[4] if trace else None
    entered = time.monotonic()
    sys.path[:0] = [str(SRC), str(HERE)]
    import speed

    probe = speed.SpeedProbe()
    for _ in range(SETUP_PROBES):
        probe.sample()
    setup_factor = probe.factor(0)
    own_s = time.monotonic() - entered
    import permchar
    from permchar import classes, corpus, dixon, tableio, verify  # noqa: F401  what the workloads drive

    own_start = time.monotonic()
    if Path(permchar.__file__).resolve().parent != SRC / "permchar":
        raise ImportError(f"permchar imported from {permchar.__file__}, not from {SRC}")
    import spans
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    own_s += time.monotonic() - own_start
    inputs = workload.inputs(seed)
    raw_setup_s = time.monotonic() - spawned - own_s
    setup = {"setup_s": raw_setup_s * setup_factor, "raw": {"setup_s": raw_setup_s}}
    if mode == "setup":
        print(json.dumps(setup))
        return 0

    tracer = spans.Tracer()
    if trace:
        spans.install(tracer)

    def timed_pass(label):
        """The pass's wall time without its probes, and its speed factor."""
        first = len(probe.samples)
        probe.sample()
        tracer.label = label if trace else None
        start, spent = time.perf_counter(), probe.spent
        ops = workload.run_pass(inputs, seed, tracer, probe, label)
        elapsed = time.perf_counter() - start - (probe.spent - spent)
        tracer.label = None
        probe.sample()
        return ops, elapsed, probe.factor(first)

    cold, raw_run_s, cold_factor = timed_pass("cold")
    warm, raw_warm_run_s, warm_factor = timed_pass("warm")
    # before the oracle checks, which do work of their own
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = find_failures(workload, cold, warm)
    raw = dict(setup["raw"], run_s=raw_run_s, warm_run_s=raw_warm_run_s)
    result = dict(setup, run_s=raw_run_s * cold_factor, warm_run_s=raw_warm_run_s * warm_factor)
    # each operation is scaled by the speed measured around it
    tail = tail_percentile(len(cold))
    for out, latencies in ((raw, [op.latency for op in cold]),
                           (result, [op.latency * probe.local_factor(op.probe_at) for op in cold])):
        latencies.sort()
        out["op_p50_ms"] = 1000 * statistics.median(latencies)
        if tail:
            out["op_tail_ms"] = 1000 * latencies[tail[1] - 1]
    result.update(
        raw=raw,
        speed_factor=[setup_factor, cold_factor, warm_factor],
        op_count=len(cold),
        peak_rss_mb=peak_rss_mb,
        attempted=len(cold) + len(warm),
        failed=len(failures),
        failures=failures[:20],
    )
    if tail:
        result["op_tail_pct"] = tail[0]
    if trace:
        result["layers"] = tracer.layer_metrics("cold")
        result["missing"] = tracer.missing
        result["op_balance_s"] = tracer.op_balance()
        tracer.dump(trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
