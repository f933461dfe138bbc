"""The columnar meter parser against a plain row-by-row reference.

The reference below reads a meter file the straightforward way: a
csv.DictReader, one strptime per row, one (date, hour, minute) time
point per kept row, a set of seen time points for duplicates and a sort
at the end. parse_meter_csv reads columns, parses timestamps as one
array and finds duplicates with np.unique; it must keep exactly the same
rows, with the same watts bits, and count exactly the same drops.
"""
import csv
import datetime as dt
import math

import numpy as np
import pytest

from gridcast.errors import MalformedTimestampError
from gridcast.ingest import MeterCsvSpec, parse_meter_csv
from gridcast.types import TIMESTAMP_FORMAT


def reference_parse(spec: MeterCsvSpec):
    """(times, watts, drops) of one meter file, one row at a time."""
    with open(spec.path, newline="", encoding="utf-8-sig") as handle:
        rows = list(csv.DictReader(handle))
    bad_ts = blank = negative = duplicates = 0
    seen = set()
    kept = []
    for row in rows:
        ts_text = (row.get(spec.timestamp_column) or "").strip()
        try:
            when = dt.datetime.strptime(ts_text, spec.timestamp_format)
        except ValueError:
            bad_ts += 1
            continue
        if when.minute % 5 != 0:
            bad_ts += 1
            continue
        point = (when.date(), when.hour, when.minute)
        watts_text = (row.get(spec.watts_column) or "").strip()
        try:
            watts = float(watts_text)
        except ValueError:
            blank += 1
            continue
        if not math.isfinite(watts):
            blank += 1
            continue
        if watts < 0 and spec.kind != "grid":
            negative += 1
            continue
        if point in seen:
            duplicates += 1
            continue
        seen.add(point)
        kept.append((point, watts))
    if bad_ts > len(rows) / 2:
        raise MalformedTimestampError("majority of timestamps unreadable")
    kept.sort(key=lambda pair: pair[0])
    times = [date.toordinal() * 288 + hour * 12 + minute // 5
             for (date, hour, minute), _ in kept]
    return times, [w for _, w in kept], (bad_ts, blank, negative, duplicates)


def _stamp(day: int, slot: int) -> str:
    when = dt.datetime(2023, 2, 26) + dt.timedelta(days=day, minutes=5 * slot)
    return when.strftime(TIMESTAMP_FORMAT)


def _clean_rows(rng, days=4):
    return [f"{_stamp(d, s)},{rng.uniform(0, 3000)!r}"
            for d in range(days) for s in range(288)]


def _shuffled_with_duplicates(rng):
    rows = _clean_rows(rng)
    rows += [f"{rows[int(i)].split(',')[0]},{rng.uniform(0, 3000)!r}"
             for i in rng.integers(0, len(rows), 40)]
    return [rows[int(i)] for i in rng.permutation(len(rows))]


# Every defect the benchmark injects, in a solar file where negative
# watts are defects too.
_DEFECTS = [
    "not-a-time,10.0", "2023-02-30 10:00,10.0", "2023-03-01 25:00,10.0",
    "2023-03-01 07:03,10.0", ",10.0", "2023-03-01 10:00,",
    "2023-03-01 10:05,nan", "2023-03-01 10:10,inf", "2023-03-01 10:15,-42.5",
]

# Texts that only strptime's own rules decide, and edge dates.
_EDGE_TIMESTAMPS = [
    "2023-3-1 0:5", "2023-03-01  10:20", "2023-03-01\t10:25",
    "٢٠٢٣-03-01 10:30", " 2023-03-01 10:35 ",
    "2024-02-29 00:00", "2023-02-29 00:00", "1900-02-29 00:00",
    "2000-02-29 00:00", "2023-03-01 24:00", "2023-03-01 23:60",
    "0000-01-01 00:00", "0001-01-01 00:00", "9999-12-31 23:55",
    "2023-13-01 00:00", "2023-00-10 00:00", "2023-03-00 00:00",
    "2023-03-32 00:00", "2023-03-01T10:40", "2023-03-01 10:45:00",
    "2023-03-01 1045", "20230301 10:50", "2023-03-01 10:5",
    "2023/03/01 10:55", "2023-03-01 10:5x", "2023-03-01 10:00 ",
]
_EDGE_WATTS = ["1_000", "+inf", "-inf", " 12 ", "1e3", "Infinity", "-0.0",
               "abc", "0x10", "١٢", "NaN", "5.", ".5"]


def _case(name: str, rng):
    """(file text, spec keywords) for one named case."""
    header = "timestamp,watts"
    kwargs = {"kind": "solar"}
    if name == "shuffled-duplicates":
        rows = _shuffled_with_duplicates(rng)
    elif name == "defects":
        rows = _clean_rows(rng, days=2) + _DEFECTS * 3
        rows = [rows[int(i)] for i in rng.permutation(len(rows))]
    elif name == "defects-grid":
        rows = _clean_rows(rng, days=2) + _DEFECTS
        kwargs = {"kind": "grid"}
    elif name == "edge-timestamps":
        rows = _clean_rows(rng, days=1) + [f"{t},7.0" for t in _EDGE_TIMESTAMPS]
    elif name == "edge-watts":
        rows = _clean_rows(rng, days=1) + [
            f"{_stamp(3, i)},{w}" for i, w in enumerate(_EDGE_WATTS)]
    elif name == "crlf-bom":
        text = "\ufeff" + "\r\n".join(
            [header] + _shuffled_with_duplicates(rng) + _DEFECTS) + "\r\n"
        return text, kwargs
    elif name == "short-rows":
        header = "timestamp,note,watts"
        rows = [f"{_stamp(0, s)},x,{s}.5" for s in range(200)]
        rows += [_stamp(0, 210), f"{_stamp(0, 211)},x", "", ",",
                 f"{_stamp(0, 212)},x,1.0,extra,cells", f"{_stamp(0, 213)}"]
    elif name == "repeated-header":
        header = "timestamp,watts,watts"
        rows = [f"{_stamp(0, s)},{-1.0 - s},{s % 7 - 2 if s % 11 else ''}"
                for s in range(200)]
    elif name == "custom-format":
        header = "power_w,when"
        rows = []
        for d in range(2):
            for s in range(288):
                when = dt.datetime(2024, 2, 28 + d, s // 12, s % 12 * 5)
                rows.append(f"{rng.uniform(0, 900)!r},{when:%d/%m/%Y %H:%M}")
        rows += ["1.0,2024-02-28 10:00", "2.0,29/02/2023 10:00",
                 "3.0,1/3/2024 0:05", "4.0,28/02/2024 10:03"]
        rows = [rows[int(i)] for i in rng.permutation(len(rows))]
        kwargs = {"kind": "plain", "timestamp_column": "when",
                  "watts_column": "power_w",
                  "timestamp_format": "%d/%m/%Y %H:%M"}
    elif name == "seconds-format":
        header = "t,w"
        rows = [f"2023-03-01 10:{m:02d}:{s:02d},{m}.25"
                for m in range(0, 60, 5) for s in (0, 30)]
        rows += ["2023-03-01 10:03:00,1.0", "2023-03-01 10:05,1.0"]
        kwargs = {"timestamp_column": "t", "watts_column": "w",
                  "timestamp_format": "%Y-%m-%d %H:%M:%S"}
    else:
        raise KeyError(name)
    return "\n".join([header] + rows) + "\n", kwargs


CASES = ["shuffled-duplicates", "defects", "defects-grid", "edge-timestamps",
         "edge-watts", "crlf-bom", "short-rows", "repeated-header",
         "custom-format", "seconds-format"]


@pytest.mark.parametrize("name", CASES)
def test_parser_equals_row_by_row_reference(tmp_path, name):
    text, kwargs = _case(name, np.random.default_rng(CASES.index(name)))
    path = tmp_path / "meter.csv"
    path.write_bytes(text.encode("utf-8"))
    spec = MeterCsvSpec(path, **kwargs)
    times, watts, drops = reference_parse(spec)
    parsed = parse_meter_csv(spec)
    assert parsed.records.times.dtype == np.int64
    assert parsed.records.times.tolist() == times
    assert (parsed.records.watts.view(np.int64).tolist()
            == np.array(watts, dtype=np.float64).view(np.int64).tolist())
    got = parsed.drops
    assert (got.bad_timestamps, got.blank_watts, got.negative_watts,
            got.duplicates) == drops
    assert times and sum(drops) > 0  # every case keeps and drops rows


def test_majority_bad_raises_like_the_reference(tmp_path):
    path = tmp_path / "meter.csv"
    path.write_text("timestamp,watts\n" + "".join(
        f"{t},1.0\n" for t in ["2023-03-01 00:00", "2023-03-01 00:03",
                               "2023-02-30 00:00", "2023-03-01 00:05",
                               "2023-03-01 25:00"]))
    spec = MeterCsvSpec(path)
    with pytest.raises(MalformedTimestampError):
        reference_parse(spec)
    with pytest.raises(MalformedTimestampError):
        parse_meter_csv(spec)
