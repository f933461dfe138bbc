"""Where the traced run hooks into gridcast.

Each probe replaces a public function or method at the place its caller
looks it up: ``pipeline`` and ``cli`` import names directly, so
``gridcast.pipeline.train`` is patched rather than
``gridcast.nn.training.train``.  Methods are patched on their class.
Nothing called once per row or per time step (``TimePoint.parse``,
``LSTM._step``) is wrapped, which keeps the overhead to a few thousand
spans per command.
"""
from __future__ import annotations

import resource

from spans import Tracer


def _max_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _with_rss(tracer: Tracer, fn, name, on_exit=None):
    """Wrap fn and record how far the call raised the peak RSS, in KiB."""
    inner = tracer.wrap(fn, name, on_exit)

    def measured(*args, **kwargs):
        before = _max_rss_kib()
        index = len(tracer.spans)
        result = inner(*args, **kwargs)
        tracer.spans[index].attrs["rss_growth_kib"] = _max_rss_kib() - before
        return result

    return measured


def install(tracer: Tracer) -> None:
    """Patch every probe into the already-imported gridcast modules."""
    import gridcast.cli as cli
    import gridcast.nn.layers as layers
    import gridcast.nn.optim as optim
    import gridcast.nn.training as training
    import gridcast.pipeline as pipeline
    import gridcast.types as types

    # nn.layers -----------------------------------------------------------
    def lstm_forward_name(args, kwargs):
        train = kwargs.get("train", args[2] if len(args) > 2 else False)
        return ("nn.layers.lstm.forward_train" if train
                else "nn.layers.lstm.forward_eval")

    def lstm_shape(span, args, kwargs, result):
        batch, length, _ = args[1].shape
        layer = args[0]
        span.attrs.update(batch=batch, length=length, hidden=layer.hidden,
                          features=layer.n_in)

    layers.LSTM.forward = _with_rss(tracer, layers.LSTM.forward,
                                    lstm_forward_name, lstm_shape)
    tracer.patch(layers.LSTM, "backward", "nn.layers.lstm.backward")
    for cls, label in ((layers.Dense, "dense"), (layers.Dropout, "dropout")):
        tracer.patch(cls, "forward", f"nn.layers.{label}")
        tracer.patch(cls, "backward", f"nn.layers.{label}")

    # nn.optim, nn.losses, nn.training -------------------------------------
    tracer.patch(optim.Adam, "step", "nn.optim.adam_step")
    tracer.patch(training, "mse_loss", "nn.losses.mse")
    # Inside train() predict_batches is only the per-epoch validation pass;
    # models.predict_batches is a separate binding and stays unwrapped.
    tracer.patch(training, "predict_batches", "nn.training.validation")

    def train_outcome(span, args, kwargs, history):
        model = args[0]
        span.attrs.update(
            model="lstm" if isinstance(model.layers[0], layers.LSTM) else "mlp",
            epochs=len(history.val_loss), best_epoch=history.best_epoch)

    tracer.patch(pipeline, "train", "nn.training.train", train_outcome)

    # models, nn.serialize --------------------------------------------------
    def window_count(span, args, kwargs, result):
        span.attrs["windows"] = int(len(result))

    for module in (pipeline, cli):
        tracer.patch(module, "lstm_predict", "models.lstm_predict", window_count)
        tracer.patch(module, "mlp_predict", "models.mlp_predict")
    tracer.patch(pipeline, "save_model", "nn.serialize.save_model")
    tracer.patch(cli, "load_model", "nn.serialize.load_model")

    # synth, ingest, types --------------------------------------------------
    def meter_rows(span, args, kwargs, parsed):
        span.attrs.update(kept=len(parsed.records),
                          bad_timestamps=parsed.drops.bad_timestamps,
                          blank_watts=parsed.drops.blank_watts,
                          negative_watts=parsed.drops.negative_watts,
                          duplicates=parsed.drops.duplicates)

    for module in (pipeline, cli):
        tracer.patch(module, "generate", "synth.generate")
        setattr(module, "parse_meter_csv", _with_rss(
            tracer, module.parse_meter_csv, "ingest.parse_meter_csv",
            meter_rows))
        tracer.patch(module, "merge_solar", "ingest.merge_solar")
        tracer.patch(module, "build_frame", "ingest.build_frame")
        tracer.patch(module, "load_weather_dir", "ingest.weather")
        tracer.patch(module, "interpolate_weather", "ingest.weather")
    tracer.patch(types.MergedFrame, "validate", "types.validate")

    # preprocess, baselines, evaluate ------------------------------------------
    for module, names in ((pipeline, ("fit_scaler", "transform",
                                      "feature_matrix", "make_windows")),
                          (cli, ("feature_matrix", "make_windows",
                                 "transform", "scaler_from_dict"))):
        for name in names:
            tracer.patch(module, name, "preprocess")
    for module in (pipeline, cli):
        tracer.patch(module, "persistence_forecast",
                     "baselines.persistence_forecast")
        tracer.patch(module, "compute_metrics", "evaluate.compute_metrics")
    for name in ("stratify_by_season", "diurnal_profile", "correlation_matrix"):
        tracer.patch(pipeline, name, f"evaluate.{name}")
    for name in ("write_report_json", "write_report_csv",
                 "write_correlation_csv", "write_diurnal_csv"):
        tracer.patch(pipeline, name, "evaluate.write")
    tracer.patch(cli, "write_report_csv", "evaluate.write")

    # pipeline --------------------------------------------------------------
    tracer.patch(cli, "run_experiment", "pipeline.run_experiment")
    for module in (pipeline, cli):
        tracer.patch(module, "load_frame", "pipeline.load_frame")
