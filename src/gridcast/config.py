"""Experiment configuration: a flat, fully-defaulted JSON key/value file.

Every key is optional; an empty object is a valid config describing the
default synthetic grid-only experiment.  Unknown keys are rejected so a
typo cannot silently fall back to a default.  Groups are spelled with
dotted prefixes ("synth.days", "train.patience") but the document stays
one level deep, so configs diff line by line.

Keys and defaults:

    source             "synth" | "files"                 "synth"
    seed               experiment seed (training init)    0
    out_dir            artifact directory                 "gridcast-out"
    split_ratio        chronological train fraction       0.8
    window_length      history slots per window           24
    models             roster list                        all four
    synth.*            every SynthConfig field            see synth module
    files.meter        plain meter CSV path               -
    files.grid         net-grid meter CSV path            -
    files.solar        solar generation CSV path          -
    files.weather_dir  directory of YYYYMM.csv files      -
    train.batch_size                                      256
    train.max_epochs                                      200
    train.patience     early-stopping patience            10
    train.learning_rate                                   0.001
    train.validation_fraction  tail of train for val      0.1

With source "files", files.weather_dir is required together with either
files.meter alone or files.grid + files.solar.
"""
from __future__ import annotations

import dataclasses
import datetime as dt
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from gridcast.errors import InvalidConfigError
from gridcast.nn.training import TrainConfig
from gridcast.synth import SynthConfig

MODEL_NAMES = ("naive", "seasonal-naive", "mlp", "lstm")
SOURCES = ("synth", "files")


@dataclass(frozen=True)
class FileSource:
    weather_dir: str
    meter: str | None = None
    grid: str | None = None
    solar: str | None = None

    def __post_init__(self):
        plain = self.meter is not None
        paired = self.grid is not None and self.solar is not None
        if plain == paired or (self.grid is None) != (self.solar is None):
            raise InvalidConfigError(
                "file source needs either files.meter or both "
                "files.grid and files.solar")


@dataclass(frozen=True)
class ExperimentConfig:
    source: str = "synth"
    synth: SynthConfig = field(default_factory=SynthConfig)
    files: FileSource | None = None
    split_ratio: float = 0.8
    window_length: int = 24
    models: tuple[str, ...] = MODEL_NAMES
    train: TrainConfig = field(default_factory=TrainConfig)
    seed: int = 0
    out_dir: str = "gridcast-out"

    def __post_init__(self):
        if self.source not in SOURCES:
            raise InvalidConfigError(
                f"source must be one of {SOURCES}, got {self.source!r}")
        if self.source == "files" and self.files is None:
            raise InvalidConfigError(
                "source is 'files' but no files.* keys were given")
        if self.source == "synth" and self.files is not None:
            raise InvalidConfigError(
                "files.* keys make no sense with source 'synth'")
        if not (0.0 < self.split_ratio < 1.0):
            raise InvalidConfigError("split_ratio must be in (0, 1)")
        if self.window_length < 1:
            raise InvalidConfigError("window_length must be at least 1")
        if not self.models:
            raise InvalidConfigError("models must not be empty")
        if len(set(self.models)) != len(self.models):
            raise InvalidConfigError("models contains duplicates")
        for name in self.models:
            if name not in MODEL_NAMES:
                raise InvalidConfigError(
                    f"unknown model {name!r}; choose from {MODEL_NAMES}")


def _synth_to_flat(synth: SynthConfig) -> dict:
    out = {}
    for f in dataclasses.fields(SynthConfig):
        value = getattr(synth, f.name)
        if isinstance(value, dt.date):
            value = value.isoformat()
        elif isinstance(value, tuple):
            value = list(value)
        out[f"synth.{f.name}"] = value
    return out


def to_flat_dict(config: ExperimentConfig) -> dict:
    """Render the fully-resolved config as the flat JSON mapping."""
    flat = {
        "source": config.source,
        "seed": config.seed,
        "out_dir": config.out_dir,
        "split_ratio": config.split_ratio,
        "window_length": config.window_length,
        "models": list(config.models),
    }
    flat.update(_synth_to_flat(config.synth))
    if config.files is not None:
        for f in dataclasses.fields(FileSource):
            value = getattr(config.files, f.name)
            if value is not None:
                flat[f"files.{f.name}"] = value
    for f in dataclasses.fields(TrainConfig):
        flat[f"train.{f.name}"] = getattr(config.train, f.name)
    return {key: flat[key] for key in sorted(flat)}


_SYNTH_FIELDS = {f.name: f for f in dataclasses.fields(SynthConfig)}
_TRAIN_FIELDS = {f.name for f in dataclasses.fields(TrainConfig)}
_FILE_FIELDS = {f.name for f in dataclasses.fields(FileSource)}
_TOP_KEYS = ("source", "seed", "out_dir", "split_ratio", "window_length",
             "models")


def _coerce_synth(name: str, value):
    if name == "start_date":
        if not isinstance(value, str):
            raise InvalidConfigError("synth.start_date must be 'YYYY-MM-DD'")
        try:
            return dt.date.fromisoformat(value)
        except ValueError as exc:
            raise InvalidConfigError(f"bad synth.start_date: {exc}") from exc
    if name in ("spike_magnitude_w", "spike_duration_slots"):
        if not (isinstance(value, list) and len(value) == 2):
            raise InvalidConfigError(f"synth.{name} must be a [low, high] pair")
        return tuple(value)
    return value


def from_flat_dict(data: dict) -> ExperimentConfig:
    """Build a config from the flat mapping, rejecting unknown keys."""
    if not isinstance(data, dict):
        raise InvalidConfigError("config must be a JSON object")
    top: dict = {}
    synth_kwargs: dict = {}
    train_kwargs: dict = {}
    file_kwargs: dict = {}
    for key, value in data.items():
        group, _, rest = key.partition(".")
        if key in _TOP_KEYS:
            top[key] = value
        elif group == "synth" and rest in _SYNTH_FIELDS:
            synth_kwargs[rest] = _coerce_synth(rest, value)
        elif group == "train" and rest in _TRAIN_FIELDS:
            train_kwargs[rest] = value
        elif group == "files" and rest in _FILE_FIELDS:
            file_kwargs[rest] = value
        else:
            raise InvalidConfigError(f"unknown config key: {key!r}")
    if "models" in top:
        if not isinstance(top["models"], list):
            raise InvalidConfigError("models must be a list of model names")
        top["models"] = tuple(top["models"])
    try:
        return ExperimentConfig(
            synth=SynthConfig(**synth_kwargs),
            files=FileSource(**file_kwargs) if file_kwargs else None,
            train=TrainConfig(**train_kwargs),
            **top,
        )
    except TypeError as exc:
        raise InvalidConfigError(str(exc)) from exc


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InvalidConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return from_flat_dict(data)


def save_config(config: ExperimentConfig, path: str | Path) -> None:
    text = json.dumps(to_flat_dict(config), indent=2, sort_keys=True)
    Path(path).write_text(text + "\n", encoding="utf-8")


def config_hash(config: ExperimentConfig) -> str:
    """Stable fingerprint of the resolved config (out_dir excluded)."""
    flat = to_flat_dict(config)
    flat.pop("out_dir", None)
    canonical = json.dumps(flat, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
