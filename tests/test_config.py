"""Tests for the flat JSON experiment config."""
import dataclasses
import datetime as dt
import json

import pytest

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


def test_empty_object_is_the_default_config():
    assert from_flat_dict({}) == ExperimentConfig()


def test_defaults():
    config = ExperimentConfig()
    assert config.source == "synth"
    assert config.split_ratio == 0.8
    assert config.window_length == 24
    assert config.models == ("naive", "seasonal-naive", "mlp", "lstm")
    assert config.seed == 0
    assert config.train.patience == 10


def test_flat_round_trip():
    config = ExperimentConfig(
        seed=9,
        synth=SynthConfig(days=33, seed=4, solar=True,
                          start_date=dt.date(2024, 1, 5)),
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
    assert flat["synth.start_date"] == "2023-03-01"
    assert flat["synth.spike_duration_slots"] == [12, 24]
    assert list(flat) == sorted(flat)


def test_unknown_keys_are_rejected():
    for bad in ({"synt.days": 5}, {"foo": 1}, {"train.momentum": 0.9},
                {"synth.day": 5}, {"files.metre": "x"}):
        with pytest.raises(InvalidConfigError):
            from_flat_dict(bad)


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
        from_flat_dict({"window_length": 0})
    with pytest.raises(InvalidConfigError):
        from_flat_dict({"source": "database"})
    with pytest.raises(InvalidConfigError):
        from_flat_dict({"train.batch_size": 0})
    with pytest.raises(InvalidConfigError):
        from_flat_dict({"train.validation_fraction": 1.0})
    with pytest.raises(InvalidConfigError):
        from_flat_dict({"train.learning_rate": 0.0})


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


def test_synth_field_coercion():
    config = from_flat_dict({"synth.start_date": "2022-07-01",
                             "synth.spike_magnitude_w": [100, 200]})
    assert config.synth.start_date == dt.date(2022, 7, 1)
    assert config.synth.spike_magnitude_w == (100, 200)
    with pytest.raises(InvalidConfigError):
        from_flat_dict({"synth.start_date": "July 1"})
    with pytest.raises(InvalidConfigError):
        from_flat_dict({"synth.start_date": 20220701})
    with pytest.raises(InvalidConfigError):
        from_flat_dict({"synth.spike_magnitude_w": [1, 2, 3]})
    # invalid synth values propagate the synth validation
    with pytest.raises(InvalidConfigError):
        from_flat_dict({"synth.days": 1})


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
