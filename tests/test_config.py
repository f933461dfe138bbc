"""Tests for the flat JSON experiment config."""
import dataclasses
import json
import re
from pathlib import Path

import pytest

from gridcast import config as config_module
from gridcast.config import (
    MODEL_NAMES,
    ExperimentConfig,
    FileSource,
    config_hash,
    from_flat_dict,
    load_config,
    save_config,
    to_flat_dict,
)
from gridcast.errors import InvalidConfigError
from gridcast.nn.training import TrainConfig
from gridcast.synth import SynthConfig
from helpers import raises_exactly


def test_empty_object_is_the_default_config():
    assert from_flat_dict({}) == ExperimentConfig()


def test_defaults():
    config = ExperimentConfig()
    assert config.source == "synth"
    assert config.split_ratio == 0.8
    assert config.models == ("naive", "seasonal-naive", "mlp", "lstm")
    assert config.seed == 0
    assert config.train.patience == 10


def test_flat_round_trip():
    config = ExperimentConfig(
        seed=9,
        synth=SynthConfig(days=33, seed=4, solar=True),
        models=("lstm", "naive"),
        train=TrainConfig(max_epochs=7, learning_rate=0.01),
        split_ratio=0.75,
        out_dir="elsewhere",
    )
    assert from_flat_dict(to_flat_dict(config)) == config


def test_flat_dict_is_actually_flat_and_json_safe():
    flat = to_flat_dict(ExperimentConfig())
    for key, value in flat.items():
        assert isinstance(key, str)
        assert isinstance(value, (str, int, float, bool, list))
    json.dumps(flat)
    assert len(flat) == 11
    assert [key for key in flat if key.startswith("synth.")] == [
        "synth.days", "synth.seed", "synth.solar"]
    assert list(flat) == sorted(flat)


def test_unknown_keys_are_rejected():
    for bad in ({"synt.days": 5}, {"foo": 1}, {"train.momentum": 0.9},
                {"synth.day": 5}, {"files.metre": "x"},
                {"synth.noise_std_w": 110.0},
                {"synth.start_date": "2023-03-01"}):
        with pytest.raises(InvalidConfigError):
            from_flat_dict(bad)
    # Keys of settings that became constants, at their old defaults.
    for key, value in (("window_length", 24), ("train.batch_size", 256),
                       ("train.validation_fraction", 0.1)):
        with raises_exactly(InvalidConfigError, f"unknown config key: {key!r}"):
            from_flat_dict({key: value})


def test_top_level_must_be_an_object():
    with pytest.raises(InvalidConfigError):
        from_flat_dict([1, 2, 3])


def test_model_roster_validation():
    assert from_flat_dict({"models": ["naive"]}).models == ("naive",)
    with pytest.raises(InvalidConfigError):
        from_flat_dict({"models": []})
    with pytest.raises(InvalidConfigError):
        from_flat_dict({"models": ["naive", "naive"]})
    with pytest.raises(InvalidConfigError):
        from_flat_dict({"models": ["gru"]})
    with pytest.raises(InvalidConfigError):
        from_flat_dict({"models": "naive"})
    assert set(MODEL_NAMES) == {"naive", "seasonal-naive", "mlp", "lstm"}


def test_bounds_validation():
    with pytest.raises(InvalidConfigError):
        from_flat_dict({"split_ratio": 0.0})
    with pytest.raises(InvalidConfigError):
        from_flat_dict({"split_ratio": 1.0})
    with pytest.raises(InvalidConfigError):
        from_flat_dict({"source": "database"})
    with pytest.raises(InvalidConfigError):
        from_flat_dict({"train.max_epochs": 0})
    with pytest.raises(InvalidConfigError):
        from_flat_dict({"train.learning_rate": 0.0})
    with pytest.raises(InvalidConfigError):
        from_flat_dict({"synth.days": 1})


def test_file_source_combinations():
    good = from_flat_dict({"source": "files", "files.meter": "m.csv",
                           "files.weather_dir": "w"})
    assert good.files == FileSource(weather_dir="w", meter="m.csv")
    from_flat_dict({"source": "files", "files.grid": "g.csv",
                    "files.solar": "s.csv", "files.weather_dir": "w"})
    with pytest.raises(InvalidConfigError):
        from_flat_dict({"source": "files"})
    with pytest.raises(InvalidConfigError):
        from_flat_dict({"source": "files", "files.weather_dir": "w"})
    with pytest.raises(InvalidConfigError):
        from_flat_dict({"source": "files", "files.meter": "m.csv",
                        "files.grid": "g.csv", "files.solar": "s.csv",
                        "files.weather_dir": "w"})
    with pytest.raises(InvalidConfigError):
        from_flat_dict({"source": "files", "files.grid": "g.csv",
                        "files.weather_dir": "w"})
    # files keys without the files source are a contradiction
    with pytest.raises(InvalidConfigError):
        from_flat_dict({"files.meter": "m.csv", "files.weather_dir": "w"})


def test_values_must_have_their_keys_type():
    # An integer key takes an int, a float key any number, and no number
    # key takes true or false; test_synth checks the synth.* keys.
    config = from_flat_dict({"split_ratio": 0.5, "train.learning_rate": 1})
    assert config.train.learning_rate == 1
    for bad in ({"seed": "x"}, {"seed": True}, {"train.max_epochs": 2.5},
                {"train.patience": 2.5}, {"train.learning_rate": False},
                {"source": 1}, {"out_dir": None}, {"models": ["naive", 1]},
                {"files.meter": 3}):
        key = next(iter(bad))
        with pytest.raises(InvalidConfigError, match=rf"\A{re.escape(key)} must be "):
            from_flat_dict(bad)
    with raises_exactly(InvalidConfigError, "seed must be non-negative, got -3"):
        from_flat_dict({"seed": -3})


def test_readme_configuration_table_lists_every_key():
    keys = sorted(list(to_flat_dict(ExperimentConfig()))
                  + [f"files.{f.name}" for f in dataclasses.fields(FileSource)])
    assert len(keys) == 15
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Configuration")[1]
    section = section.split("\n## ")[0]
    in_readme = []
    for line in section.splitlines():
        if line.startswith("| `"):
            in_readme += re.findall(r"`([^`]+)`", line.split("|")[1])
    assert sorted(in_readme) == keys
    # The docstring's table: one indented key per line, after "Keys and defaults:".
    table = config_module.__doc__.split("Keys and defaults:")[1].split("\n\n")[1]
    assert sorted(line.split()[0] for line in table.splitlines()) == keys


def test_save_and_load_round_trip(tmp_path):
    config = from_flat_dict({"seed": 5, "synth.days": 12,
                             "models": ["mlp", "lstm"]})
    path = tmp_path / "config.json"
    save_config(config, path)
    assert load_config(path) == config
    raw = json.loads(path.read_text(encoding="utf-8"))
    assert raw["seed"] == 5 and raw["synth.days"] == 12


def test_load_config_failure_modes(tmp_path):
    with pytest.raises(InvalidConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(InvalidConfigError):
        load_config(bad)


def test_config_hash_ignores_out_dir_only():
    base = ExperimentConfig()
    assert config_hash(base) == config_hash(
        dataclasses.replace(base, out_dir="other"))
    assert config_hash(base) != config_hash(dataclasses.replace(base, seed=1))
    assert config_hash(base) != config_hash(
        dataclasses.replace(base, models=("naive",)))
    assert config_hash(base) != config_hash(
        dataclasses.replace(base, synth=SynthConfig(days=100)))
    assert len(config_hash(base)) == 64
    int(config_hash(base), 16)
