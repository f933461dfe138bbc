"""Turn the spans of traced commands into the per-layer metrics.

Conventions:

* ``<name>_s`` is the summed duration of that layer's spans in one
  command, reported as the median over the traced commands.  Spans of
  one name never nest, so the sum is busy time, not double counted.
* ``<name>_ms.p50`` / ``.p90`` (and ``_us``) are percentiles of single
  calls pooled over all traced commands.  ``.p90`` needs at least 100
  calls to have ten beyond it (see ``summary.tail_percentile``).
* ``self_s`` is duration minus the time covered by child spans.
* A layer that does not run on a workload reports 0.

``nn.layers.lstm.train_gflops`` is computed, not counted by hardware:
the GEMM operations of the shapes seen (``lstm_train_flops``) divided by
the time spent in LSTM forward and backward.
"""
from __future__ import annotations

import statistics

from spans import Span, self_times, untraced_time
from summary import percentile


def lstm_train_flops(batch: int, length: int, hidden: int, features: int) -> int:
    """GEMM floating-point operations of one LSTM forward + backward.

    Per time step the forward pass multiplies [h, x] (B x (H+F)) by the
    stacked gate weights ((H+F) x 4H); the backward pass does the same
    size product twice (dW and d[h, x]).  A multiply-add counts as two
    operations; element-wise gate arithmetic is not counted.
    """
    per_gemm = 2 * batch * (hidden + features) * 4 * hidden
    return 3 * per_gemm * length


# Busy-time totals: metric -> span name.
_TOTALS = {
    "nn.layers.dense_s": "nn.layers.dense",
    "nn.layers.dropout_s": "nn.layers.dropout",
    "nn.optim.adam_s": "nn.optim.adam_step",
    "nn.losses.mse_s": "nn.losses.mse",
    "nn.training.validation_s": "nn.training.validation",
    "models.lstm_predict_s": "models.lstm_predict",
    "models.mlp_predict_s": "models.mlp_predict",
    "nn.serialize.save_model_s": "nn.serialize.save_model",
    "nn.serialize.load_model_s": "nn.serialize.load_model",
    "synth.generate_s": "synth.generate",
    "ingest.parse_meter_csv_s": "ingest.parse_meter_csv",
    "ingest.merge_solar_s": "ingest.merge_solar",
    "ingest.build_frame_s": "ingest.build_frame",
    "ingest.weather_s": "ingest.weather",
    "types.validate_s": "types.validate",
    "preprocess_s": "preprocess",
    "baselines.persistence_forecast_s": "baselines.persistence_forecast",
    "evaluate.stratify_by_season_s": "evaluate.stratify_by_season",
    "evaluate.diurnal_profile_s": "evaluate.diurnal_profile",
    "evaluate.correlation_matrix_s": "evaluate.correlation_matrix",
    "evaluate.write_s": "evaluate.write",
    "pipeline.run_experiment_s": "pipeline.run_experiment",
    "cli.import_s": "cli.import",
}

# Per-call percentiles: metric -> (span name, scale to the metric's unit, pct).
_PER_CALL = {
    "nn.layers.lstm.forward_train_ms.p50": ("nn.layers.lstm.forward_train", 1e3, 50),
    "nn.layers.lstm.forward_train_ms.p90": ("nn.layers.lstm.forward_train", 1e3, 90),
    "nn.layers.lstm.backward_ms.p50": ("nn.layers.lstm.backward", 1e3, 50),
    "nn.layers.lstm.backward_ms.p90": ("nn.layers.lstm.backward", 1e3, 90),
    "nn.layers.lstm.forward_eval_ms.p50": ("nn.layers.lstm.forward_eval", 1e3, 50),
    "nn.optim.adam_step_us.p50": ("nn.optim.adam_step", 1e6, 50),
}

# Self-time totals: metric -> span name.
_SELF = {
    "nn.training.self_s": "nn.training.train",
    "pipeline.run_experiment.self_s": "pipeline.run_experiment",
}


def _named(spans: list[Span], name: str) -> list[Span]:
    return [s for s in spans if s.name == name]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def epoch_seconds(spans: list[Span], model: str) -> list[float]:
    """Per-epoch seconds of one model's training, from its validation spans.

    An epoch runs from the end of the previous validation pass (or the
    start of train()) to the end of its own, so it covers the shuffle,
    every minibatch and the validation pass.
    """
    out = []
    for i, span in enumerate(spans):
        if span.name != "nn.training.train" or span.attrs.get("model") != model:
            continue
        mark = span.start
        for child in spans:
            if child.parent == i and child.name == "nn.training.validation":
                out.append(child.end - mark)
                mark = child.end
    return out


def command_metrics(spans: list[Span], start: float, end: float) -> dict:
    """Per-command values: totals, self times, counts and rates."""
    selfs = self_times(spans)
    out = {metric: sum(s.duration for s in _named(spans, name))
           for metric, name in _TOTALS.items()}
    for metric, name in _SELF.items():
        out[metric] = sum(t for s, t in zip(spans, selfs) if s.name == name)

    forward = _named(spans, "nn.layers.lstm.forward_train")
    backward = _named(spans, "nn.layers.lstm.backward")
    flops = sum(lstm_train_flops(s.attrs["batch"], s.attrs["length"],
                                 s.attrs["hidden"], s.attrs["features"])
                for s in forward)
    busy = sum(s.duration for s in forward + backward)
    out["nn.layers.lstm.train_gflops"] = _ratio(flops, busy) / 1e9
    out["nn.layers.lstm.train_batches"] = float(len(forward))
    evals = _named(spans, "nn.layers.lstm.forward_eval")
    out["nn.layers.lstm.forward_eval.rss_growth_mib"] = sum(
        s.attrs["rss_growth_kib"] for s in evals) / 1024.0

    trains = _named(spans, "nn.training.train")
    out["nn.training.best_epoch_ratio"] = _ratio(
        sum(s.attrs["best_epoch"] for s in trains),
        sum(s.attrs["epochs"] for s in trains))
    predicts = _named(spans, "models.lstm_predict")
    out["models.lstm_predict.windows_per_s"] = _ratio(
        sum(s.attrs["windows"] for s in predicts), out["models.lstm_predict_s"])

    parses = _named(spans, "ingest.parse_meter_csv")
    kept = sum(s.attrs["kept"] for s in parses)
    dropped = sum(s.attrs[k] for s in parses for k in
                  ("bad_timestamps", "blank_watts", "negative_watts", "duplicates"))
    out["ingest.parse_meter_csv.rows_per_s"] = _ratio(
        kept + dropped, out["ingest.parse_meter_csv_s"])
    out["ingest.parse_meter_csv.rss_growth_mib"] = sum(
        s.attrs["rss_growth_kib"] for s in parses) / 1024.0
    out["ingest.rows_kept_ratio"] = _ratio(kept, kept + dropped)

    out["trace.self_sum_s"] = sum(selfs)
    out["trace.untraced_s"] = untraced_time(spans, start, end)
    return out


def trace_problems(spans: list[Span], start: float, end: float,
                   untraced_limit: float) -> list[str]:
    """What is wrong with one traced command's accounting, if anything.

    The self times of all spans plus the untraced remainder must add up
    to the wall time, which fails if a span lies outside the command's
    [start, end].  The remainder holds only interpreter start-up and exit,
    so it must also stay below ``untraced_limit`` (the wall of a bare
    ``import gridcast.cli`` process started next to the traced one),
    which fails if work runs outside every span.
    """
    values = command_metrics(spans, start, end)
    untraced = values["trace.untraced_s"]
    problems = []
    total = values["trace.self_sum_s"] + untraced
    if abs(total - (end - start)) > 1e-6:
        problems.append(f"trace: self times + untraced = {total:.6f} s, "
                        f"wall = {end - start:.6f} s")
    if untraced > untraced_limit:
        problems.append(f"trace: untraced {untraced:.3f} s exceeds a bare "
                        f"import's wall of {untraced_limit:.3f} s")
    return problems


def aggregate(commands: list[tuple[list[Span], float, float]],
              untraced_walls: list[float]) -> dict:
    """Per-layer metrics over traced commands (spans, start, end)."""
    per_command = [command_metrics(spans, start, end)
                   for spans, start, end in commands]
    metrics = {name: statistics.median(c[name] for c in per_command)
               for name in per_command[0]}
    pooled = [s for spans, _, _ in commands for s in spans]
    for metric, (name, scale, pct) in _PER_CALL.items():
        calls = [s.duration * scale for s in _named(pooled, name)]
        metrics[metric] = percentile(calls, pct) if calls else 0.0
    for model in ("lstm", "mlp"):
        epochs = [t for spans, _, _ in commands for t in epoch_seconds(spans, model)]
        metrics[f"nn.training.epoch_s.{model}.p50"] = (
            statistics.median(epochs) if epochs else 0.0)
    traced_walls = [end - start for _, start, end in commands]
    metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                   - statistics.median(untraced_walls))
    return metrics
