"""Model persistence.

Format: a .npz archive holding a JSON layer specification under "spec"
and the parameter arrays under "param_0", "param_1", ... in network
order. Arrays round-trip bit-exactly in their own dtype, and a loaded
network is rebuilt in that dtype, so it predicts exactly as the saved
one did. The production models are float32 (models.COMPUTE_DTYPE).
"""
from __future__ import annotations

import json
import zipfile
from pathlib import Path

import numpy as np

from gridcast.errors import CorruptArtifactError, ShapeError
from gridcast.nn.layers import LSTM, Dense, Dropout, Network
from gridcast.types import atomic_write


def save_model(model: Network, path: str | Path, metadata: dict | None = None) -> None:
    payload = {"layers": model.spec(), "metadata": metadata or {}}
    arrays = {f"param_{i}": p for i, p in enumerate(model.params())}
    with atomic_write(path, "wb") as handle:
        np.savez(handle, spec=np.array(json.dumps(payload)), **arrays)


def _build_layer(entry: dict, dtype: np.dtype):
    kind = entry["kind"]
    if kind == "dense":
        return Dense(entry["n_in"], entry["n_out"], entry["activation"],
                     dtype=dtype)
    if kind == "lstm" and entry["activation"] == "relu":
        return LSTM(entry["n_in"], entry["hidden"], dtype=dtype)
    if kind == "dropout":
        return Dropout(entry["rate"])
    raise ShapeError(f"unsupported layer in model file: {entry}")


def load_model(path: str | Path) -> tuple[Network, dict]:
    """Rebuild a saved network; returns (model, metadata).

    Raises CorruptArtifactError, naming the file, when it is not a model
    file in this format: truncated, not an archive, missing entries, or a
    layer gridcast does not build (an lstm whose activation is not relu).
    """
    try:
        with np.load(path, allow_pickle=False) as archive:
            payload = json.loads(str(archive["spec"]))
            dtype = archive["param_0"].dtype if "param_0" in archive else np.float64
            model = Network([_build_layer(e, dtype) for e in payload["layers"]])
            weights = [archive[f"param_{i}"] for i in range(len(model.params()))]
        model.set_weights(weights)
    except (zipfile.BadZipFile, EOFError, ValueError, KeyError, TypeError,
            ShapeError) as exc:
        raise CorruptArtifactError(f"cannot read model file {path}: {exc}") from exc
    return model, payload.get("metadata", {})
