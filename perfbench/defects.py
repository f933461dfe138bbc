"""Seeded meter-file defects for the files-baselines workload.

Every injected row is appended after the file's original rows, and every
one that carries a readable timestamp reuses a timestamp already in the
file.  No real reading is lost, so the merged frame keeps every original
row and ``gridcast ingest`` must report exactly the counts returned here.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Injected:
    """Rows appended to one meter file, by the drop counter they feed."""

    bad_timestamps: int = 0
    blank_watts: int = 0
    negative_watts: int = 0
    duplicates: int = 0

    @property
    def total(self) -> int:
        return (self.bad_timestamps + self.blank_watts
                + self.negative_watts + self.duplicates)


def _count(rng: np.random.Generator, rows: int) -> int:
    """Between 1 and about 0.5% of the file's rows."""
    return 1 + int(rng.integers(0, max(2, rows // 200)))


def _bad_timestamp(rng: np.random.Generator, date: str) -> str:
    choices = ("not-a-time", "2023-02-30 10:00", f"{date} 25:00",
               f"{date} 07:03", "")
    return choices[int(rng.integers(0, len(choices)))]


def inject(path: Path, kind: str, rng: np.random.Generator) -> Injected:
    """Append defect rows to a ``timestamp,watts`` meter file.

    ``kind`` is "grid" or "solar"; negative readings are defects only in
    a solar file, because net grid draw may be negative.
    """
    lines = path.read_text(encoding="utf-8").splitlines()
    stamps = [line.split(",", 1)[0] for line in lines[1:]]
    rows = len(stamps)

    def existing() -> str:
        return stamps[int(rng.integers(0, rows))]

    injected = Injected(
        bad_timestamps=_count(rng, rows),
        blank_watts=_count(rng, rows),
        negative_watts=_count(rng, rows) if kind == "solar" else 0,
        duplicates=_count(rng, rows),
    )
    extra = []
    for _ in range(injected.bad_timestamps):
        date = existing().split(" ", 1)[0]
        extra.append(f"{_bad_timestamp(rng, date)},{rng.uniform(0, 3000)!r}")
    for _ in range(injected.blank_watts):
        extra.append(f"{existing()},{('', 'nan', 'inf')[int(rng.integers(0, 3))]}")
    for _ in range(injected.negative_watts):
        extra.append(f"{existing()},{-rng.uniform(1, 500)!r}")
    for _ in range(injected.duplicates):
        extra.append(f"{existing()},{rng.uniform(0, 3000)!r}")
    order = rng.permutation(len(extra))
    with open(path, "a", encoding="utf-8", newline="") as handle:
        for i in order:
            handle.write(extra[int(i)] + "\n")
    return injected


def original_values(path: Path, rows: int) -> np.ndarray:
    """The watts column of a file's first ``rows`` data rows."""
    with open(path, encoding="utf-8") as handle:
        next(handle)
        return np.array([float(next(handle).split(",", 1)[1])
                         for _ in range(rows)])
