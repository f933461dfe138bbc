"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from defects import inject  # noqa: E402
from layer_metrics import (command_metrics, epoch_seconds,  # noqa: E402
                           lstm_train_flops, trace_problems)
from measure import Children, ChildTimeout  # noqa: E402
from spans import Span, Tracer, covered, self_times, untraced_time  # noqa: E402
from summary import describe, percentile, quartile_spread, tail_percentile  # noqa: E402
from workloads import derive_seeds, split_counts  # noqa: E402


# --- percentile rule ---------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (1, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0),
    (99, 75.0), (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0),
    (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_percentile_matches_numpy_linear():
    rng = np.random.default_rng(3)
    data = list(rng.normal(size=57))
    for pct in (0, 10, 50, 90, 99, 100):
        assert percentile(data, pct) == pytest.approx(np.percentile(data, pct),
                                                      rel=1e-12)


def test_describe_reports_median_and_tail():
    values = list(range(1, 101))
    out = describe(values)
    assert out["n"] == 100
    assert out["median"] == 50.5
    assert out["tail_pct"] == 90.0
    assert out["tail"] == pytest.approx(90.1)
    assert describe([3.0, 1.0, 2.0]) == {"n": 3, "median": 2.0,
                                         "tail_pct": None, "tail": None}


def test_quartile_spread_is_iqr_over_median():
    values = [9.0, 10.0, 10.0, 10.0, 11.0, 10.0, 10.0, 12.0, 8.0, 10.0]
    # statistics.quantiles(n=4), exclusive method: q1 = 9.75, q3 = 10.25
    assert quartile_spread(values) == pytest.approx(0.05)


# --- self time ---------------------------------------------------------------

def _tree():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9]
    return [Span("root", 0.0, 10.0, None, 0), Span("a", 1.0, 4.0, 0, 0),
            Span("a1", 2.0, 3.0, 1, 0), Span("b", 5.0, 9.0, 0, 0)]


def test_self_time_subtracts_only_direct_children():
    assert self_times(_tree()) == [3.0, 2.0, 1.0, 4.0]


def test_self_times_plus_untraced_add_up_to_wall():
    spans = _tree() + [Span("late", 11.0, 11.5, None, 0)]
    untraced = untraced_time(spans, -1.0, 12.0)
    assert untraced == pytest.approx(2.5)
    assert sum(self_times(spans)) + untraced == pytest.approx(13.0)


def test_trace_problems_accepts_spans_inside_the_wall():
    assert trace_problems(_tree(), -0.1, 10.1, untraced_limit=0.5) == []


def test_trace_problems_flags_a_span_outside_the_wall():
    problems = trace_problems(_tree(), 1.0, 10.1, untraced_limit=0.5)
    assert len(problems) == 1 and "self times + untraced" in problems[0]


def test_trace_problems_flags_work_outside_every_span():
    problems = trace_problems(_tree(), -0.1, 12.0, untraced_limit=0.5)
    assert len(problems) == 1 and "exceeds a bare import" in problems[0]


def test_covered_merges_overlaps_and_clips():
    assert covered([(0, 2), (1, 3), (5, 6)], 0.5, 5.5) == pytest.approx(3.0)
    assert covered([], 0, 1) == 0.0


def test_tracer_nests_wrapped_calls():
    ticks = iter(range(100))
    tracer = Tracer(run=7, clock=lambda: float(next(ticks)))

    def inner():
        return 1

    def outer():
        return traced_inner() + traced_inner()

    traced_inner = tracer.wrap(inner, "inner")
    traced_outer = tracer.wrap(
        outer, lambda args, kwargs: "outer",
        on_exit=lambda span, args, kwargs, result: span.attrs.update(r=result))
    assert traced_outer() == 2
    names = [(s.name, s.parent, s.run) for s in tracer.spans]
    assert names == [("outer", None, 7), ("inner", 0, 7), ("inner", 0, 7)]
    assert tracer.spans[0].attrs == {"r": 2}
    assert self_times(tracer.spans) == [3.0, 1.0, 1.0]


def test_epoch_seconds_run_from_validation_to_validation():
    spans = [Span("nn.training.train", 0.0, 10.0, None, 0, {"model": "lstm"}),
             Span("nn.training.validation", 3.0, 4.0, 0, 0),
             Span("nn.training.validation", 8.0, 9.5, 0, 0)]
    assert epoch_seconds(spans, "lstm") == [4.0, 5.5]
    assert epoch_seconds(spans, "mlp") == []


def test_command_metrics_reports_zero_for_layers_not_run():
    spans = [Span("cli.main", 1.0, 2.0, None, 0)]
    values = command_metrics(spans, 0.0, 3.0)
    assert values["nn.layers.lstm.train_gflops"] == 0.0
    assert values["ingest.rows_kept_ratio"] == 0.0
    assert values["trace.untraced_s"] == pytest.approx(2.0)
    assert values["trace.self_sum_s"] == pytest.approx(1.0)


# --- LSTM operation count ------------------------------------------------------

def test_lstm_operation_count_by_hand():
    # One GEMM per step: [h, x] is 256 x 51, gate weights 51 x 200, so
    # 256 * 51 * 200 = 2,611,200 multiply-adds = 5,222,400 operations.
    # Forward does one per step, backward two (dW and d[h, x]):
    # 3 * 5,222,400 * 24 steps = 376,012,800.
    assert lstm_train_flops(batch=256, length=24, hidden=50, features=1) == 376_012_800


# --- workload inputs -----------------------------------------------------------

def test_seeds_are_derived_and_distinct():
    a, b = derive_seeds(1), derive_seeds(2)
    assert a == derive_seeds(1)
    assert a != b
    assert len(set(a.values())) == 3


def test_split_counts_match_compare_report():
    counts = split_counts(30 * 288, 0.8)
    assert counts["boundary"] == 6912
    assert counts["scored_targets"] == 1704
    assert counts["mlp_train"] == 6912 - 691
    assert counts["lstm_train"] == 6888 - 688


def _gridcast(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-c",
         "import sys; from gridcast.cli import main; sys.exit(main())", *args],
        cwd=cwd, env=env, capture_output=True, text=True, check=True).stdout


def test_injected_drops_match_gridcast_ingest(tmp_path):
    from gridcast.ingest import MeterCsvSpec, parse_meter_csv

    (tmp_path / "synth.json").write_text(json.dumps(
        {"synth.days": 3, "synth.solar": True, "synth.seed": 5}))
    _gridcast(["synth", "--config", "synth.json", "--out", "in"], tmp_path)
    rng = np.random.default_rng(11)
    injected = {kind: inject(tmp_path / "in" / f"{kind}.csv", kind, rng)
                for kind in ("grid", "solar")}
    assert injected["grid"].negative_watts == 0
    assert injected["solar"].negative_watts >= 1

    (tmp_path / "files.json").write_text(json.dumps({
        "source": "files", "files.grid": "in/grid.csv",
        "files.solar": "in/solar.csv", "files.weather_dir": "in/weather"}))
    printed = _gridcast(["ingest", "--config", "files.json", "--out", "m"],
                        tmp_path).splitlines()
    rows = 3 * 288
    assert printed[0] == f"grid rows {rows} dropped {injected['grid'].total}"
    assert printed[1] == f"solar rows {rows} dropped {injected['solar'].total}"
    assert printed[2] == f"merged rows {rows} grid-only 0 solar-only 0"
    assert printed[4] == f"frame rows {rows} dropped-no-weather 0"

    for kind, expected in injected.items():
        drops = parse_meter_csv(MeterCsvSpec(
            path=tmp_path / "in" / f"{kind}.csv", kind=kind)).drops
        assert (drops.bad_timestamps, drops.blank_watts, drops.negative_watts,
                drops.duplicates) == (expected.bad_timestamps,
                                      expected.blank_watts,
                                      expected.negative_watts,
                                      expected.duplicates)


def test_aggregate_reports_every_declared_per_layer_metric():
    from layer_metrics import aggregate

    spans = [Span("cli.import", 0.0, 0.2, None, 0),
             Span("cli.main", 0.3, 3.0, None, 0),
             Span("nn.training.train", 0.4, 2.0, 1, 0,
                  {"model": "lstm", "epochs": 2, "best_epoch": 1}),
             Span("nn.layers.lstm.forward_train", 0.5, 0.6, 2, 0,
                  {"batch": 256, "length": 24, "hidden": 50, "features": 1,
                   "rss_growth_kib": 0}),
             Span("nn.layers.lstm.backward", 0.6, 0.7, 2, 0),
             Span("nn.training.validation", 0.8, 0.9, 2, 0)]
    metrics = aggregate([(spans, 0.0, 3.1)], [3.0])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in declared} <= set(metrics)
    assert metrics["nn.layers.lstm.train_gflops"] == pytest.approx(
        376_012_800 / 0.2 / 1e9)
    assert metrics["nn.training.best_epoch_ratio"] == 0.5
    assert metrics["trace.overhead_s"] == pytest.approx(0.1)


# --- child measurement ---------------------------------------------------------

def test_children_measure_one_child(tmp_path):
    code = "import sys; sys.stdout.write('hi'); bytearray(64 << 20); sys.exit(3)"
    done = Children().run([sys.executable, "-c", code], cwd=tmp_path,
                          env=dict(os.environ), log_dir=tmp_path / "log",
                          timeout=30.0)
    assert (done.returncode, done.stdout) == (3, b"hi")
    assert done.peak_rss_mib >= 64
    assert 0 < done.cpu_s and 0 < done.wall_s < 30


def test_children_kill_a_child_past_its_timeout(tmp_path):
    code = "import time; time.sleep(30)"
    with pytest.raises(ChildTimeout):
        Children().run([sys.executable, "-c", code], cwd=tmp_path,
                       env=dict(os.environ), log_dir=tmp_path / "log",
                       timeout=0.5)
