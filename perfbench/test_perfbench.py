"""Tests of the benchmark's own arithmetic.  Run with:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import calibration  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from tracing import Span, Tracer, function_stats, ratio, self_times  # noqa: E402
from workloads import BUILDERS, depth, derive_seed, gap_pct  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_nested_children():
    spans = [
        Span(0, None, "outer", "c", 0.0, 10.0),
        Span(1, 0, "mid", "c", 1.0, 6.0),
        Span(2, 1, "leaf", "c", 2.0, 3.0),
        Span(3, 1, "leaf", "c", 4.0, 5.5),
        Span(4, 0, "leaf", "c", 7.0, 9.0),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[1] == pytest.approx(5.0 - 1.0 - 1.5)
    assert own[2] == pytest.approx(1.0)
    assert own[4] == pytest.approx(2.0)
    stats = function_stats(spans, ["outer", "mid", "leaf", "unused"])
    assert stats["leaf"]["calls"] == 3
    assert stats["leaf"]["s"] == pytest.approx(1.0 + 1.5 + 2.0)
    assert stats["leaf"]["p50_ms"] == pytest.approx(1500.0)
    assert stats["unused"] == {"s": 0.0, "calls": 0, "counts": {}, "p50_ms": 0.0}


def test_self_time_counts_overlapping_children_once():
    spans = [Span(0, None, "p", None, 0.0, 4.0), Span(1, 0, "a", None, 1.0, 3.0), Span(2, 0, "b", None, 2.0, 5.0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_function_bound_under_two_names_is_wrapped_once():
    clock = FakeClock()

    def inner(x):
        clock.now += 1.0
        return x + 1

    home = types.ModuleType("home")
    other = types.ModuleType("other")
    home.inner = inner
    other.inner = inner
    other.alias = inner

    def outer(x):
        clock.now += 2.0
        return home.inner(x) * 2

    home.outer = outer
    tracer = Tracer(clock=clock)
    restore = tracer.install(
        {"home.inner": (inner, lambda a, k, r: {"items": a[0]}), "home.outer": (outer, None)}, [home, other]
    )
    assert home.inner is other.inner is other.alias
    tracer.cell = "cell-1"
    assert other.alias(3) == 4
    assert home.outer(5) == 12
    restore()
    assert home.inner is inner and other.alias is inner and home.outer is outer

    assert [s.name for s in tracer.spans] == ["home.inner", "home.outer", "home.inner"]
    assert {s.cell for s in tracer.spans} == {"cell-1"}
    assert tracer.spans[2].parent == tracer.spans[1].id
    stats = function_stats(tracer.spans, ["home.inner", "home.outer"])
    assert stats["home.inner"]["calls"] == 2
    assert stats["home.inner"]["counts"] == {"items": 8}
    assert stats["home.inner"]["s"] == pytest.approx(2.0)
    assert stats["home.outer"]["s"] == pytest.approx(2.0)


def test_install_rejects_the_same_function_twice():
    def f():
        return None

    with pytest.raises(ValueError):
        Tracer().install({"a.f": (f, None), "b.f": (f, None)}, [])


def test_gap_is_100_for_an_infeasible_result():
    assert gap_pct(None, 42.0) == 100.0
    assert gap_pct(40.0, 50.0) == pytest.approx(20.0)
    assert gap_pct(-60.0, -50.0) == pytest.approx(20.0)
    assert gap_pct(50.0, 50.0) == 0.0


def test_depth_of_a_scan_that_never_matched_is_p_max_plus_one():
    assert depth(None, 4) == 5
    assert depth(2, 4) == 2


def test_ratio_with_an_empty_base_is_zero():
    assert ratio(5.0, 0) == 0.0
    assert ratio(3.0, 4) == 0.75


def test_layer_ratios_use_their_bases():
    spans = [
        Span(0, None, "solvers.solve_dp", "c", 0.0, 2.0, {"splits": 4}),
        Span(1, None, "qaoa.scan_layers", "c", 2.0, 3.0, {"layers": 3, "matched": 0}),
        Span(2, None, "qaoa.scan_layers", "c", 3.0, 4.0, {"layers": 1, "matched": 1}),
    ]
    metrics = layers.layer_metrics(spans, export_bytes=0)
    assert metrics["solvers.solve_dp.ns_per_split"] == pytest.approx(0.5e9)
    assert metrics["qaoa.scan_layers.layers"] == 4
    assert metrics["qaoa.scan_layers.matched_share"] == pytest.approx(0.5)
    assert metrics["solvers.solve_qubo_sa.best_restart_share"] == 0.0


def test_derived_seeds_are_stable_and_distinct():
    assert derive_seed(3, "dp-abu-16") == derive_seed(3, "dp-abu-16")
    assert derive_seed(3, "dp-abu-16") != derive_seed(4, "dp-abu-16")
    assert 0 <= derive_seed(3, "x") < 2**31


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(BUILDERS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in layers.metric_units().items()
    }
    units = {name: unit for name, unit, _ in run.END_TO_END}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {name: units[name] for name in run.GATED}


def test_calibration_rescales_by_the_mean_reference_time():
    nominal = calibration.REFERENCE_S
    # the host ran the reference loop at half speed on average: the time halves
    assert calibration.calibrated(3.0, [2 * nominal, 1.5 * nominal, 2.5 * nominal]) == pytest.approx(1.5)
    assert calibration.calibrated(3.0, [nominal]) == pytest.approx(3.0)
    assert calibration.reference_loop() > 0.0
