"""Experiment configuration: a flat, fully-defaulted JSON key/value file.

Every key is optional; an empty object is a valid config describing the
default synthetic grid-only experiment.  Unknown keys are rejected so a
typo cannot silently fall back to a default.  Groups are spelled with
dotted prefixes ("synth.days", "train.patience") but the document stays
one level deep, so configs diff line by line.  Each value must have
the JSON type of its key's default: an integer key takes an integer, a
float key any number, synth.solar true or false, and models a list of
strings; true and false are not numbers.

Keys and defaults:

    source             "synth" | "files"                 "synth"
    seed               experiment seed (training init)    0
    out_dir            artifact directory                 "gridcast-out"
    split_ratio        chronological train fraction       0.8
    models             roster list                        all four
    synth.seed         generator seed                     0
    synth.days         household length from 2023-03-01   200
    synth.solar        rooftop solar (true / false)       false
    files.meter        plain meter CSV path               -
    files.grid         net-grid meter CSV path            -
    files.solar        solar generation CSV path          -
    files.weather_dir  directory of YYYYMM.csv files      -
    train.max_epochs                                      200
    train.patience     early-stopping patience            10
    train.learning_rate                                   0.001

With source "files", files.weather_dir is required together with either
files.meter alone or files.grid + files.solar.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from gridcast.errors import InvalidConfigError
from gridcast.nn.training import TrainConfig
from gridcast.synth import SynthConfig
from gridcast.types import write_json

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
        if self.seed < 0:
            raise InvalidConfigError(f"seed must be non-negative, got {self.seed}")
        if not (0.0 < self.split_ratio < 1.0):
            raise InvalidConfigError("split_ratio must be in (0, 1)")
        if not self.models:
            raise InvalidConfigError("models must not be empty")
        if len(set(self.models)) != len(self.models):
            raise InvalidConfigError("models contains duplicates")
        for name in self.models:
            if name not in MODEL_NAMES:
                raise InvalidConfigError(
                    f"unknown model {name!r}; choose from {MODEL_NAMES}")


def to_flat_dict(config: ExperimentConfig) -> dict:
    """Render the fully-resolved config as the flat JSON mapping."""
    flat = {
        "source": config.source,
        "seed": config.seed,
        "out_dir": config.out_dir,
        "split_ratio": config.split_ratio,
        "models": list(config.models),
    }
    for group in ("synth", "files", "train"):
        record = getattr(config, group)
        if record is not None:
            for name, value in dataclasses.asdict(record).items():
                if value is not None:
                    flat[f"{group}.{name}"] = value
    return {key: flat[key] for key in sorted(flat)}


# Every key with a value of its type: the default, or "" for files.*.
_KEY_TYPES = {**to_flat_dict(ExperimentConfig()),
              **{f"files.{f.name}": "" for f in dataclasses.fields(FileSource)}}
_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number",
               str: "a string", list: "a list of strings"}


def _has_type(value, default) -> bool:
    """Whether a JSON value has the type of the key's default: a bool only
    for a bool, any other number for a float, strings in a list."""
    if isinstance(value, bool) != isinstance(default, bool):
        return False
    if isinstance(default, float):
        return isinstance(value, (int, float))
    if isinstance(default, list):
        return isinstance(value, list) and all(isinstance(v, str) for v in value)
    return isinstance(value, type(default))


def from_flat_dict(data: dict) -> ExperimentConfig:
    """Build a config from the flat mapping, rejecting unknown keys and
    values of the wrong type."""
    if not isinstance(data, dict):
        raise InvalidConfigError("config must be a JSON object")
    groups: dict = {"": {}, "synth": {}, "files": {}, "train": {}}
    for key, value in data.items():
        if key not in _KEY_TYPES:
            raise InvalidConfigError(f"unknown config key: {key!r}")
        default = _KEY_TYPES[key]
        if not _has_type(value, default):
            raise InvalidConfigError(
                f"{key} must be {_TYPE_NAMES[type(default)]}, "
                f"got {json.dumps(value)}")
        group, _, name = key.rpartition(".")
        groups[group][name] = tuple(value) if key == "models" else value
    files = groups["files"]
    try:
        return ExperimentConfig(
            synth=SynthConfig(**groups["synth"]),
            files=FileSource(**files) if files else None,
            train=TrainConfig(**groups["train"]),
            **groups[""],
        )
    except TypeError as exc:
        raise InvalidConfigError(str(exc)) from exc


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return from_flat_dict(data)


def save_config(config: ExperimentConfig, path: str | Path) -> None:
    write_json(path, to_flat_dict(config))


def config_hash(config: ExperimentConfig) -> str:
    """Stable fingerprint of the resolved config (out_dir excluded)."""
    flat = to_flat_dict(config)
    flat.pop("out_dir", None)
    canonical = json.dumps(flat, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
