"""Small helpers that several test modules share."""
import re

import numpy as np
import pytest

from gridcast.types import SLOTS_PER_DAY, MergedFrame, Weather

MILD_DAY = (21.0, 0.0, 15.0, 70.0, 20.0, 50.0)


def slot(date, hour: int = 0, minute: int = 0) -> int:
    """The slot index of a time on the 5-minute grid."""
    return date.toordinal() * SLOTS_PER_DAY + hour * 12 + minute // 5


def raises_exactly(cls, message: str):
    """pytest.raises for ``cls`` whose message is exactly ``message``."""
    return pytest.raises(cls, match=rf"\A{re.escape(message)}\Z")


def metrics_of(report, model: str):
    """The MetricSet of a model's whole-test-slice cell, or None."""
    for cell in report.cells:
        if cell.model == model and cell.subset == "test":
            return cell.metrics
    return None


def frame_of(times, consumption, weather=MILD_DAY):
    """A MergedFrame of these rows whose weather table has one day for each
    date they touch: ``weather`` on every day, or, for a (D, 6) array, its
    row d on the d-th date."""
    times = np.asarray(times, dtype=np.int64)
    dates = np.unique(times // SLOTS_PER_DAY)
    values = np.broadcast_to(np.asarray(weather, dtype=np.float64), (len(dates), 6))
    return MergedFrame(times, np.asarray(consumption, dtype=np.float64),
                       Weather(dates, values.copy()))
