"""Check that two gridcast source trees write the same bytes.

    python tools/same_bytes.py --base DIR --head DIR

Runs one fixed matrix of gridcast commands with each tree's ``src/`` on
PYTHONPATH, each tree in its own fresh working directory, with the same
relative paths. Then it compares every command's stdout and every file
the commands wrote, byte for byte. ``run.json`` records when a run was
made, so it is left out. Prints the paths that differ and exits 1 if any
do, or if any command fails; else prints how many files matched and
exits 0.

The matrix, on a 10-day household with a two-epoch training budget:
``synth`` of a grid and of a solar house; ``compare`` from ``synth`` and
from ``files`` (the plain meter, and grid + solar); ``train --model``
mlp and lstm; ``evaluate --model`` for each of the four models, from the
``compare`` run; and ``report`` of that run. One more ``compare`` runs a
40-day household for one epoch: its 9,216 train rows span three
``ROW_CHUNK`` blocks, where the 10-day house's 2,304 fit in one, so a
slip at a block edge shows. A last ``compare`` scores the two baselines
on a 40-day grid + solar house that the tool writes itself (see
write_crlf_house): CRLF files whose 11,521-row meter files span three
``ROW_CHUNK`` blocks and end in defect rows that only the csv module
reads, so both of the reader's paths, the seam between them and the
block edges of the predictions are compared.
"""
from __future__ import annotations

import argparse
import datetime as dt
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

SKIPPED = {"run.json"}

TRAIN = {"synth.days": 10, "synth.seed": 3, "train.max_epochs": 2,
         "train.patience": 1}
CONFIGS = {
    "synth.json": TRAIN,
    "solar.json": {**TRAIN, "synth.solar": True},
    "meter.json": {**TRAIN, "source": "files",
                   "files.meter": "grid-house/meter.csv",
                   "files.weather_dir": "grid-house/weather"},
    "grid-solar.json": {**TRAIN, "source": "files",
                        "files.grid": "solar-house/grid.csv",
                        "files.solar": "solar-house/solar.csv",
                        "files.weather_dir": "solar-house/weather"},
    "long.json": {"synth.days": 40, "synth.seed": 3, "train.max_epochs": 1,
                  "train.patience": 1},
    "crlf.json": {"source": "files", "files.grid": "crlf-house/grid.csv",
                  "files.solar": "crlf-house/solar.csv",
                  "files.weather_dir": "crlf-house/weather",
                  "models": ["naive", "seasonal-naive"], "split_ratio": 0.5},
}
MODELS = ("naive", "seasonal-naive", "mlp", "lstm")
COMMANDS = [
    ("synth-grid", ["synth", "--config", "synth.json", "--out", "grid-house"]),
    ("synth-solar", ["synth", "--config", "solar.json", "--out", "solar-house"]),
    ("compare-synth", ["compare", "--config", "synth.json",
                       "--out", "runs/compare-synth"]),
    ("compare-meter", ["compare", "--config", "meter.json",
                       "--out", "runs/compare-meter"]),
    ("compare-grid-solar", ["compare", "--config", "grid-solar.json",
                            "--out", "runs/compare-grid-solar"]),
    ("compare-long", ["compare", "--config", "long.json",
                      "--out", "runs/compare-long"]),
    *((f"train-{m}", ["train", "--model", m, "--config", "synth.json",
                      "--out", f"runs/train-{m}"]) for m in ("mlp", "lstm")),
    *((f"evaluate-{m}", ["evaluate", "--model", m, "--config", "synth.json",
                         "--run-dir", "runs/compare-synth",
                         "--out", "runs/evaluate"]) for m in MODELS),
    ("report", ["report", "--config", "synth.json",
                "--out", "runs/compare-synth"]),
    ("compare-crlf", ["compare", "--config", "crlf.json",
                      "--out", "runs/compare-crlf"]),
]

HOUSE_DAYS = 40
WEATHER_HEADER = ("date,max_temp_c,rainfall_mm,temp_9am_c,rh_9am_pct,"
                  "temp_3pm_c,rh_3pm_pct")


def write_crlf_house(root: Path) -> None:
    """Write a HOUSE_DAYS-day grid + solar house from 2023-03-01 under
    ``root``, the same bytes on every run: ``grid.csv``, ``solar.csv`` and
    ``weather/YYYYMM.csv``, each with CRLF line ends.

    Each meter file leaves out one reading of its last day and appends
    it at the end with quoted cells, after a row with a blank watts
    cell, so its last ROW_CHUNK block goes through the csv module.
    """
    rng = random.Random(27)
    start = dt.datetime(2023, 3, 1)
    stamps = [(start + dt.timedelta(minutes=5 * i)).strftime("%Y-%m-%d %H:%M")
              for i in range(HOUSE_DAYS * 288)]
    held_out = len(stamps) - 100
    (root / "weather").mkdir(parents=True)
    for name, low, high in (("grid", -900.0, 3000.0), ("solar", 0.0, 2500.0)):
        rows = [f"{t},{rng.uniform(low, high)!r}" for t in stamps]
        late = rows.pop(held_out).split(",")
        rows += [f"{stamps[7]},", '"{}","{}"'.format(*late)]
        (root / f"{name}.csv").write_bytes(
            "".join(f"{line}\r\n" for line in ["timestamp,watts", *rows])
            .encode("utf-8"))
    months = {}
    for day in range(HOUSE_DAYS):
        date = start.date() + dt.timedelta(days=day)
        cells = (rng.uniform(12, 38), rng.choice([0.0, rng.uniform(0, 20)]),
                 rng.uniform(8, 25), rng.uniform(30, 95), rng.uniform(12, 36),
                 rng.uniform(20, 90))
        months.setdefault(date.strftime("%Y%m"), []).append(
            ",".join([date.isoformat(), *map(repr, cells)]))
    for month, rows in months.items():
        (root / "weather" / f"{month}.csv").write_bytes(
            "".join(f"{line}\r\n" for line in [WEATHER_HEADER, *rows])
            .encode("utf-8"))


def run_matrix(tree: Path, work: Path) -> list[str]:
    """Run COMMANDS with ``tree``'s source in ``work``; each stdout lands
    in ``work/stdout/<name>.txt``. Returns one line per failed command."""
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("GRIDCAST_OUT", None)
    for name, payload in CONFIGS.items():
        (work / name).write_text(json.dumps(payload), encoding="utf-8")
    write_crlf_house(work / "crlf-house")
    (work / "stdout").mkdir()
    failures = []
    for name, argv in COMMANDS:
        done = subprocess.run([sys.executable, "-m", "gridcast.cli", *argv],
                              cwd=work, env=env, capture_output=True)
        (work / "stdout" / f"{name}.txt").write_bytes(done.stdout)
        if done.returncode != 0:
            failures.append(f"{tree}: {name} exited {done.returncode}: "
                            f"{done.stderr.decode(errors='replace').strip()}")
    return failures


def files_under(root: Path) -> set[str]:
    """Relative paths of the files under ``root``, SKIPPED names aside."""
    return {p.relative_to(root).as_posix() for p in root.rglob("*")
            if p.is_file() and p.name not in SKIPPED}


def differing_paths(base: Path, head: Path) -> list[str]:
    """Sorted relative paths of the files that differ in bytes between
    two directories or exist in only one, SKIPPED names aside."""
    base_files, head_files = files_under(base), files_under(head)
    return sorted(
        path for path in base_files | head_files
        if path not in base_files or path not in head_files
        or (base / path).read_bytes() != (head / path).read_bytes())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, type=Path,
                        help="source tree to compare against")
    parser.add_argument("--head", required=True, type=Path,
                        help="source tree under test")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as scratch:
        works = [Path(scratch) / side for side in ("base", "head")]
        failures = []
        for tree, work in zip((args.base, args.head), works):
            work.mkdir()
            failures += run_matrix(tree, work)
        differ = differing_paths(*works)
        compared = len(files_under(works[0]) | files_under(works[1]))
    for line in failures:
        print(f"failed: {line}")
    for path in differ:
        print(f"differs: {path}")
    if failures or differ:
        return 1
    print(f"{compared} files byte-identical ({len(COMMANDS)} commands; "
          f"{', '.join(sorted(SKIPPED))} not compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
