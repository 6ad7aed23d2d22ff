"""Tests of the benchmark's own arithmetic: span self time, percentiles.

    python3 -m pytest perfbench -q
"""

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import ROOT, Installed, Tracer, _wrap  # noqa: E402
from summary import beyond, percentile, rank  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    t = Tracer(clock)
    t.enter("outer")  # 0
    clock.advance(1)
    t.enter("mid")  # 1
    clock.advance(2)
    t.enter("leaf")  # 3
    clock.advance(4)
    t.exit()  # leaf 3..7
    clock.advance(1)
    t.exit()  # mid 1..8
    t.enter("leaf")  # 8
    clock.advance(3)
    t.exit()  # leaf 8..11
    clock.advance(5)
    t.exit()  # outer 0..16
    assert t.spans[("leaf", "mid")] == [1, 4.0, 4.0]
    assert t.spans[("leaf", "outer")] == [1, 3.0, 3.0]
    assert t.spans[("mid", "outer")] == [1, 7.0, 3.0]
    assert t.spans[("outer", ROOT)] == [1, 16.0, 6.0]
    by = t.by_name()
    assert by["leaf"] == (2, 7.0, 7.0)
    # Self times partition the root span exactly.
    assert t.self_time() == 16.0


def test_recursive_span_total_counts_outermost_only():
    clock = FakeClock()
    t = Tracer(clock)
    t.enter("f")
    clock.advance(1)
    t.enter("f")
    clock.advance(2)
    t.exit()
    clock.advance(1)
    t.exit()
    calls, total, own = t.by_name()["f"]
    assert (calls, total, own) == (2, 4.0, 4.0)


def test_aggregation_keeps_one_entry_per_name_and_parent():
    clock = FakeClock()
    t = Tracer(clock)
    for _ in range(1000):
        t.enter("p")
        t.enter("c")
        clock.advance(1)
        t.exit()
        t.exit()
    assert len(t.spans) == 2
    assert t.spans[("c", "p")] == [1000, 1000.0, 1000.0]
    assert t.spans[("p", ROOT)][2] == 0.0


def test_wrapper_closes_span_on_exception_and_hooks_run_outside():
    clock = FakeClock()
    t = Tracer(clock)
    seen = []

    def boom():
        clock.advance(2)
        raise KeyError("x")

    wrapped = _wrap(t, "boom", boom, before=lambda a: seen.append(t.is_open("boom")))
    with pytest.raises(KeyError):
        wrapped()
    assert seen == [False]
    assert not t.is_open("boom")
    assert t.spans[("boom", ROOT)] == [1, 2.0, 2.0]


def test_installed_remove_restores_every_binding():
    a = types.SimpleNamespace()
    mod = types.ModuleType("m")
    mod.f = original = lambda: 1
    a.__dict__["g"] = original
    inst = Installed()
    inst.replace(mod, "f", lambda: 2)
    inst.replace(a, "g", lambda: 3)
    assert mod.f() == 2 and a.g() == 3
    inst.remove()
    assert mod.f is original and a.g is original


def test_percentile_rule_keeps_ten_samples_beyond():
    samples = list(range(1, 1001))
    assert rank(99, 1000) == 990
    assert beyond(99, 1000) == 10
    assert percentile(samples, 99) == 990
    assert percentile(samples, 50) == 500
    with pytest.raises(ValueError):
        percentile(samples[:999], 99)
    with pytest.raises(ValueError):
        percentile(samples[:19], 50)
    for n in (20, 100, 999, 1000, 5000):
        values = list(range(n))
        for q in (50, 90, 99):
            if beyond(q, n) >= 10:
                cut = percentile(values, q)
                assert sum(1 for x in values if x > cut) >= 10


def test_percentile_is_order_free():
    samples = [5, 1, 4, 2, 3] * 10
    assert percentile(samples, 50) == 3
    assert percentile(list(reversed(samples)), 50) == 3


def test_benchmark_json_matches_the_metrics_run_py_prints():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert layers == run.per_layer_units()
    assert len(layers) <= 128
