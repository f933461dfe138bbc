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
slip at a block edge shows.
"""
from __future__ import annotations

import argparse
import json
import os
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
]


def run_matrix(tree: Path, work: Path) -> list[str]:
    """Run COMMANDS with ``tree``'s source in ``work``; each stdout lands
    in ``work/stdout/<name>.txt``. Returns one line per failed command."""
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("GRIDCAST_OUT", None)
    for name, payload in CONFIGS.items():
        (work / name).write_text(json.dumps(payload), encoding="utf-8")
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
