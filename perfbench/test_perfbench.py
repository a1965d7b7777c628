"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench

The last test starts traced child processes and takes about a minute.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from workloads import Op, run_ops  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_children():
    # op [0, 10] > a [1, 4] > b [2, 3]; op > c [5, 9]
    t = spans.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    t.label = "cold"
    op = t.begin("op", op="cold:0")
    a = t.begin("group.core")
    b = t.begin("group.sylow_2")
    t.end(b)
    t.end(a)
    c = t.begin("group.core")
    t.end(c)
    t.end(op)
    assert t.self_times() == [10 - 3 - 4, 3 - 1, 1, 4]
    assert t.op_balance() == 0
    layers = t.layer_metrics("cold")
    assert layers["group.core.calls"] == 2 and layers["group.core.self_s"] == 2 + 4
    assert layers["group.sylow_2.self_s"] == 1 and layers["group.o_2prime.calls"] == 0
    assert t.layer_metrics("warm")["group.core.calls"] == 0


def test_covered_merges_overlaps_and_clips():
    assert spans.covered(0, 10, [(1, 4), (2, 6), (8, 12)]) == 7
    assert spans.covered(0, 10, []) == 0


def test_wrapper_records_only_within_a_pass():
    t = spans.Tracer()
    f = t.wrap("dixon.dixon_prime", lambda x: x + 1)
    assert f(1) == 2 and t.spans == []
    t.label = "warm"
    assert f(12) == 13
    assert [(s[0], s[5]) for s in t.spans] == [("dixon.dixon_prime", "warm")]
    assert t.layer_metrics("warm")["dixon.prime_max"] == 13
    assert t.layer_metrics("cold")["dixon.prime_max"] == 0


def test_missing_entry_point_is_reported_not_fatal(monkeypatch):
    import permchar.group  # noqa: F401

    monkeypatch.setattr(spans, "ENTRY_POINTS", [("group", "no_such_function"), ("nosuchmodule", "f")])
    t = spans.Tracer()
    spans.install(t)
    assert t.missing == ["group.no_such_function", "nosuchmodule.f"]


def test_missing_metric_is_left_out_not_zero():
    traced = {"layers": {"a.calls": 3}, "run_s": 2.0}
    plain = {"run_s": 1.5}
    values, repeat = run.per_layer([plain, traced], ["a.calls", "b.calls", "trace.overhead_s"])
    assert values == {"a.calls": 3, "trace.overhead_s": 0.5} and repeat
    t = spans.Tracer()
    t.missing = ["group.core", "tableio.find_representatives"]
    layers = t.layer_metrics("cold")
    assert "group.core.calls" not in layers and "tableio.samples_used" not in layers
    assert "group.sylow_2.calls" in layers


def test_benchmark_names_every_recorded_layer_metric():
    assert sorted(run.layer_units()) == sorted(spans.metric_names() + ["trace.overhead_s"])


@pytest.mark.parametrize(
    "n, expect",
    [(10, None), (11, (9, 1)), (29, (65, 19)), (38, (73, 28)), (200, (95, 190)), (1000, (99, 990))],
)
def test_tail_percentile_keeps_ten_beyond(n, expect):
    got = child.tail_percentile(n)
    assert got == expect
    if got:
        p, rank = got
        assert n - rank >= 10
        # one percentile higher would leave fewer than ten beyond
        assert n - -(-(p + 1) * n // 100) < 10


class FakeWorkload:
    @staticmethod
    def check(op):
        return None if op.value == "ok" else "wrong"

    @staticmethod
    def summary(op):
        return op.value


def test_failures_count_raised_wrong_and_divergent_ops():
    def boom():
        raise ValueError("x")

    cold = run_ops([("a", lambda: "ok"), ("b", boom), ("c", lambda: "bad"), ("d", lambda: "ok")],
                   spans.Tracer(), speed.SpeedProbe(), "cold")
    assert cold[1].error == "ValueError: x"
    warm = [Op("a", 0, "ok"), Op("b", 0, None, "ValueError: x"), Op("c", 0, "bad"), Op("d", 0, "changed")]
    failures = child.find_failures(FakeWorkload, cold, warm)
    assert failures == [
        "cold b: ValueError: x",
        "cold c: wrong",
        "warm b: ValueError: x",
        "warm d: output differs from the cold pass",
    ]


def test_speed_factor_is_mean_speed_over_reference():
    probe = speed.SpeedProbe()
    ref = speed.REFERENCE_UNIT_S
    probe.samples = [ref, ref, 4 * ref, 2 * ref]
    assert probe.factor(0) == pytest.approx((1 + 1 + 0.25 + 0.5) / 4)
    assert probe.factor(2) == pytest.approx((0.25 + 0.5) / 2)


@pytest.mark.slow
def test_traced_work_counts_repeat_for_a_seed():
    names = {
        "sweep": ["group.coset_action.calls", "charfun.decompose.calls", "classes.elements_enumerated"],
        "mathieu": ["group.coset_action.calls", "charfun.decompose.calls", "tableio.samples_used"],
    }
    for workload, counted in names.items():
        first, second = (run.run_child(workload, 5, "trace") for _ in range(2))
        for c in (first, second):
            assert c["failed"] == 0 and c["missing"] == []
            assert c["op_balance_s"] < 1e-6
        for name in counted:
            assert first["layers"][name] > 0
            assert first["layers"][name] == second["layers"][name], name
