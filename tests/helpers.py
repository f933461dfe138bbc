"""Small helpers that several test modules share."""
import re

import pytest


def raises_exactly(cls, message: str):
    """pytest.raises for ``cls`` whose message is exactly ``message``."""
    return pytest.raises(cls, match=rf"\A{re.escape(message)}\Z")


def metrics_of(report, model: str):
    """The MetricSet of a model's whole-test-slice cell, or None."""
    for cell in report.cells:
        if cell.model == model and cell.subset == "test":
            return cell.metrics
    return None
