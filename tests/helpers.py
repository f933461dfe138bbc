"""Small helpers that several test modules share."""
import datetime as dt
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gridcast.errors import ZeroVarianceError
from gridcast.evaluate import pearson, read_report_json
from gridcast.types import SLOTS_PER_DAY, MergedFrame, Weather, parse_timestamps

MILD_DAY = (21.0, 0.0, 15.0, 70.0, 20.0, 50.0)


def slot(date, hour: int = 0, minute: int = 0) -> int:
    """The slot index of a time on the 5-minute grid."""
    return date.toordinal() * SLOTS_PER_DAY + hour * 12 + minute // 5


def raises_exactly(cls, message: str):
    """pytest.raises for ``cls`` whose message is exactly ``message``."""
    return pytest.raises(cls, match=rf"\A{re.escape(message)}\Z")


def stored_metrics(run_dir, model: str):
    """The MetricSet of a model's whole-test-slice cell in the run's
    report.json, or None."""
    for cell in read_report_json(Path(run_dir) / "report.json"):
        if cell.model == model and cell.subset == "test":
            return cell.metrics
    return None


def read_predictions(run_dir, model: str):
    """(times, actual, predicted) of the run's predictions/<model>.csv:
    int64 slot indices and float64 watts. The file holds repr floats, so
    the watts keep the bits the run computed."""
    path = Path(run_dir) / "predictions" / f"{model}.csv"
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    assert header == "timestamp,actual,predicted"
    stamps, actual, predicted = zip(*(line.split(",") for line in lines))
    return (parse_timestamps(stamps),
            np.array([float(v) for v in actual]),
            np.array([float(v) for v in predicted]))


def frame_of(times, consumption, weather=MILD_DAY):
    """A MergedFrame of these rows whose weather table has one day for each
    date they touch: ``weather`` on every day, or, for a (D, 6) array, its
    row d on the d-th date."""
    times = np.asarray(times, dtype=np.int64)
    dates = np.unique(times // SLOTS_PER_DAY)
    values = np.broadcast_to(np.asarray(weather, dtype=np.float64), (len(dates), 6))
    return MergedFrame(times, np.asarray(consumption, dtype=np.float64),
                       Weather(dates, values.copy()))


def random_frame(n: int, seed: int = 0) -> MergedFrame:
    """n consecutive 5-minute readings from 2023-01-01 with random watts,
    each day with its own random weather."""
    rng = np.random.default_rng(seed)
    times = slot(dt.date(2023, 1, 1)) + np.arange(n)
    days = -(-n // SLOTS_PER_DAY)
    return frame_of(times, rng.uniform(0.0, 3000.0, n),
                    rng.uniform(0.0, 40.0, (days, 6)))


def stacked_correlation(columns) -> np.ndarray:
    """pearson() of each pair of columns of an (n, k) array, NaN where one
    is constant, 1 on the diagonal: the whole-array formula that
    correlation_matrix computes without stacking its columns."""
    x = np.asarray(columns, dtype=np.float64)
    k = x.shape[1]
    out = np.eye(k)
    for i in range(k):
        for j in range(i + 1, k):
            try:
                c = pearson(x[:, i], x[:, j])
            except ZeroVarianceError:
                c = np.nan
            out[i, j] = out[j, i] = c
    return out


def traced_peak(fn, *args):
    """fn(*args) and the peak bytes tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak
