"""Forecast metrics, seasonal stratification, and report assembly.

Every metric is in watts, and the report files say so in their units
field.  R-squared on a constant actual series is an explicit
ZeroVarianceError from r2(), and report cells store None for it rather
than NaN, so degenerate slices are visible instead of silently
poisoning downstream tables.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gridcast.errors import (
    CorruptArtifactError,
    SeriesTooShortError,
    ShapeError,
    ZeroVarianceError,
)
from gridcast.types import (
    SEASONS,
    SLOTS_PER_DAY,
    WEATHER_FIELDS,
    MergedFrame,
    Season,
    season_codes,
    write_csv,
    write_json,
)

METRIC_NAMES = ("rmse", "mae", "r2")
# The units field of every report cell and row; a reader rejects others.
UNITS = "watts"

# Column order of the correlation matrix: weather first, consumption last.
CORRELATION_COLUMNS = WEATHER_FIELDS + ("consumption_w",)


def _paired(pred, actual) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(pred, dtype=np.float64).ravel()
    a = np.asarray(actual, dtype=np.float64).ravel()
    if p.shape != a.shape:
        raise ShapeError(
            f"prediction length {p.shape[0]} != actual length {a.shape[0]}")
    if p.size == 0:
        raise ShapeError("no prediction/actual pairs")
    return p, a


def rmse(pred, actual) -> float:
    """Root mean squared error."""
    p, a = _paired(pred, actual)
    return float(np.sqrt(np.mean((p - a) ** 2)))


def mae(pred, actual) -> float:
    """Mean absolute error."""
    p, a = _paired(pred, actual)
    return float(np.mean(np.abs(p - a)))


def r2(pred, actual) -> float:
    """Coefficient of determination, 1 - SSE/SST.

    Zero for the exact mean predictor, negative when worse than it.
    Constant actuals make SST zero and raise rather than return NaN.
    """
    p, a = _paired(pred, actual)
    sst = float(np.sum((a - a.mean()) ** 2))
    if sst == 0.0:
        raise ZeroVarianceError(
            "actuals are constant; the mean-predictor reference is undefined")
    sse = float(np.sum((p - a) ** 2))
    return 1.0 - sse / sst


def pearson(x, y) -> float:
    """Product-moment correlation in [-1, 1]."""
    xv, yv = _paired(x, y)
    if xv.size < 2:
        raise ZeroVarianceError("correlation needs at least 2 samples")
    xm = xv - xv.mean()
    ym = yv - yv.mean()
    return _coefficient(np.sum(xm * ym), float(np.sum(xm * xm)),
                        float(np.sum(ym * ym)))


def _coefficient(sxy, sx: float, sy: float) -> float:
    """sxy / sqrt(sx * sy), clipped to [-1, 1], from the sums of products
    and of squares of two centred series."""
    if sx == 0.0 or sy == 0.0:
        raise ZeroVarianceError("correlation undefined for a constant input")
    r = float(sxy / np.sqrt(sx * sy))
    return float(np.clip(r, -1.0, 1.0))


@dataclass(frozen=True)
class MetricSet:
    """One slice's scores; r2 is None when the slice cannot define it."""

    rmse: float
    mae: float
    r2: float | None
    n: int


def compute_metrics(pred, actual) -> MetricSet:
    """Score one (prediction, actual) slice; r2 falls back to None."""
    p, a = _paired(pred, actual)
    try:
        r2_value = r2(p, a)
    except ZeroVarianceError:
        r2_value = None
    return MetricSet(rmse=rmse(p, a), mae=mae(p, a), r2=r2_value,
                     n=int(a.size))


def stratify_by_season(pred, actual, times) -> dict[Season, MetricSet]:
    """Partition pairs by the season of their slot index and score each.

    Empty strata are omitted; present strata always partition the input,
    so the per-season counts sum to the total pair count.
    """
    p, a = _paired(pred, actual)
    times = np.asarray(times, dtype=np.int64).ravel()
    if times.size != a.size:
        raise ShapeError(
            f"{a.size} pairs but {times.size} timestamps")
    codes = season_codes(times)
    out: dict[Season, MetricSet] = {}
    for code, season in enumerate(SEASONS):
        mask = codes == code
        if mask.any():
            out[season] = compute_metrics(p[mask], a[mask])
    return out


def diurnal_profile(frame: MergedFrame) -> dict[Season, np.ndarray]:
    """Per-season median day: one value per 5-minute slot.

    Returns a 288-long array per season present in the frame; slots a
    season never observes hold NaN.
    """
    keys = season_codes(frame.times) * SLOTS_PER_DAY + frame.times % SLOTS_PER_DAY
    # Grouped by (season, slot), and by value within a group.
    order = np.lexsort((frame.consumption, keys))
    keys, starts, counts = np.unique(keys[order], return_index=True,
                                     return_counts=True)
    ranked = frame.consumption[order]
    table = np.full((len(SEASONS), SLOTS_PER_DAY), np.nan)
    # The mean of the two middle values, as np.median takes it.
    table.flat[keys] = (ranked[starts + (counts - 1) // 2]
                        + ranked[starts + counts // 2]) / 2
    # keys are sorted, so each season present is met as one run of codes.
    return {SEASONS[code]: table[code]
            for code in dict.fromkeys((keys // SLOTS_PER_DAY).tolist())}


def correlation_matrix(frame: MergedFrame) -> np.ndarray:
    """7x7 correlation of the six weather fields and consumption.

    Each pair holds pearson() of its two columns, bit for bit. The
    diagonal is exactly 1; any pair involving a constant column is
    reported as NaN (missing) rather than raising, so one degenerate
    column cannot sink the whole matrix. A column is gathered when a
    pair needs it and centred in place, so at most two full-length
    columns are alive, never the seven stacked.
    """
    n = len(frame)
    if n < 2:
        raise SeriesTooShortError(f"need at least 2 rows, got {n}")
    # Rows per weather day: times increase and every row's date has a day.
    day_rows = np.diff(np.searchsorted(
        frame.times, frame.weather.dates * SLOTS_PER_DAY), append=n)

    def centred(k: int, factor: np.ndarray | None = None) -> np.ndarray:
        """Column k minus its mean, times ``factor`` if given: one new array."""
        column = (np.repeat(frame.weather.values[:, k], day_rows)
                  if k < len(WEATHER_FIELDS)
                  else np.array(frame.consumption, dtype=np.float64))
        column -= column.mean()
        if factor is not None:
            column *= factor
        return column

    k = len(CORRELATION_COLUMNS)
    squares = [float(np.sum(np.square(centred(j)))) for j in range(k)]
    out = np.eye(k)
    for i in range(k):
        xm = centred(i)
        for j in range(i + 1, k):
            try:
                c = _coefficient(np.sum(centred(j, factor=xm)),
                                 squares[i], squares[j])
            except ZeroVarianceError:
                c = np.nan
            out[i, j] = out[j, i] = c
    return out


@dataclass(frozen=True)
class ReportCell:
    """One scored (model, data slice) pair, e.g. ("lstm", "test/DJF")."""

    model: str
    subset: str
    metrics: MetricSet

    def to_dict(self) -> dict:
        """The cell as report.json and ``gridcast evaluate`` store it."""
        m = self.metrics
        return {"model": self.model, "slice": self.subset,
                "metrics": {"rmse": m.rmse, "mae": m.mae, "r2": m.r2,
                            "n": m.n, "units": UNITS}}

    @classmethod
    def from_dict(cls, item: dict) -> "ReportCell":
        m = item["metrics"]
        if m["units"] != UNITS:
            raise CorruptArtifactError(f"units must be {UNITS!r}, got {m['units']!r}")
        # A stored value has its JSON type; true and false are not numbers.
        # Python's json reads NaN and Infinity, which no score can be.
        for name, types in (("rmse", (int, float)), ("mae", (int, float)),
                            ("r2", (int, float, type(None))), ("n", (int,))):
            value = m[name]
            if (type(value) not in types or name == "n" and value < 1
                    or type(value) is float and not math.isfinite(value)):
                raise CorruptArtifactError(f"{name} cannot be {json.dumps(value)}")
        scores = {k: m[k] if m[k] is None else float(m[k]) for k in METRIC_NAMES}
        return cls(model=item["model"], subset=item["slice"],
                   metrics=MetricSet(**scores, n=m["n"]))


def write_report_json(metadata: dict, cells: list[ReportCell], path) -> None:
    """report.json: the run's provenance metadata and every cell."""
    write_json(path, {"metadata": metadata,
                      "cells": [c.to_dict() for c in cells]})


def read_report_json(path) -> list[ReportCell]:
    """The cells of a report written by write_report_json; raises
    CorruptArtifactError, naming the file, when it is not one."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        return [ReportCell.from_dict(item) for item in data["cells"]]
    except (ValueError, KeyError, TypeError, CorruptArtifactError) as exc:
        raise CorruptArtifactError(f"cannot read report {path}: {exc}") from exc


def report_rows(cells) -> list[list]:
    """The report.csv rows of ``cells``, one per metric."""
    return [[c.model, c.subset, name, getattr(c.metrics, name), c.metrics.n, UNITS]
            for c in cells for name in METRIC_NAMES]


def write_report_csv(cells: list[ReportCell], path) -> None:
    """Plot-ready long table: one row per model x slice x metric."""
    write_csv(path, ("model", "slice", "metric", "value", "n", "units"),
              report_rows(cells))


def write_correlation_csv(values: np.ndarray, path) -> None:
    """Square correlation table with a label header row and column."""
    values = np.asarray(values, dtype=np.float64)
    n = len(CORRELATION_COLUMNS)
    if values.shape != (n, n):
        raise ShapeError(f"matrix shape {values.shape} does not fit {n} labels")
    write_csv(path, ("",) + CORRELATION_COLUMNS,
              ([label, *row] for label, row in zip(CORRELATION_COLUMNS,
                                                   values.tolist())))


def write_diurnal_csv(profiles: dict[Season, np.ndarray], path) -> None:
    """Long table of per-season typical days: season, slot, value."""
    write_csv(path, ("season", "slot", "value"),
              ((season.value, slot, value) for season in Season
               if season in profiles
               for slot, value in enumerate(profiles[season].tolist())))
