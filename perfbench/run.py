"""gridcast benchmark: time real CLI commands from outside, one at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a gridcast source tree.  With ``--trace 0`` the run
sets the workload up three to nine times (``setup_s`` is the median), then
starts the timed command in a fresh process, one after another, until
``--seconds`` have passed, and reports the end-to-end metrics as medians
over those commands.  With ``--trace 1`` it sets up once, then
alternates a plain command, a bare ``import gridcast.cli`` and the same
command under ``traced_cli.py`` until ``--seconds`` have passed, and
reports the per-layer metrics.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it holds the details:
provenance, sample counts, tail percentiles and any failed checks.
Everything the run writes goes under ``.perfbench_work/`` and is removed
at the end.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import layer_metrics  # noqa: E402
import provenance  # noqa: E402
from measure import Children  # noqa: E402
from spans import load_spans  # noqa: E402
from summary import describe  # noqa: E402
from workloads import WORKLOADS, SetupError  # noqa: E402

# Set-up repeats until it has run at least three times and for at least
# SETUP_BUDGET_S, so a quick set-up gets more samples behind its median.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 9
SETUP_BUDGET_S = 3.0
MIN_COMMANDS = 3
# Stop starting commands after this long so the run ends inside 180 s.
BUDGET_S = 150.0
CHILD_TIMEOUT_S = 120.0
CLI = "import sys; from gridcast.cli import main; sys.exit(main())"
BARE_IMPORT = [sys.executable, "-c", "import gridcast.cli"]

E2E_SAMPLES = ("setup_s", "wall_s", "cpu_s", "peak_rss_mib", "items_per_s",
               "forecast_rmse_w")


class Bench:
    """One benchmark run: its scratch directory, children and clock."""

    def __init__(self, workload, seconds: float):
        self.workload = workload
        self.seconds = seconds
        self.started = time.perf_counter()
        self.work = ROOT / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
        self.children = Children()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        self.env["TMPDIR"] = str(self.work)
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def call(self, argv: list[str], log_dir: Path):
        timeout = min(CHILD_TIMEOUT_S, BUDGET_S + 20.0 - self.elapsed())
        return self.children.run(argv, cwd=self.work, env=self.env,
                                 log_dir=log_dir, timeout=timeout)

    def gridcast(self, args: list[str], log_dir: Path):
        """Run a set-up CLI command; any failure aborts the run."""
        finished = self.call([sys.executable, "-c", CLI, *args], log_dir)
        if finished.returncode != 0:
            raise SetupError(f"gridcast {args[0]} exited {finished.returncode}: "
                             f"{finished.stderr.decode(errors='replace')[-500:]}")
        return finished

    def setup(self, rep: int) -> tuple[Path, float]:
        dest = self.work / f"setup-{rep}"
        start = time.perf_counter()
        self.workload.setup(self.gridcast, dest)
        warm = self.call(BARE_IMPORT, dest / "import-log")
        if warm.returncode != 0:
            raise SetupError("import gridcast.cli failed: "
                             + warm.stderr.decode(errors="replace")[-500:])
        return dest, time.perf_counter() - start

    def keep_going(self, loop_start: float, done: int, minimum: int) -> bool:
        if self.elapsed() > BUDGET_S:
            return False
        return done < minimum or time.perf_counter() - loop_start < self.seconds

    def judge(self, dest: Path, out: Path, finished, reference: list):
        """Apply every output check to one command; None if any failed.

        ``reference`` holds the fingerprint of the run's first good
        command; every later one must match it byte for byte.
        """
        self.attempted += 1
        outcome = None
        if finished.returncode != 0:
            problems = [f"exit code {finished.returncode}: "
                        + finished.stderr.decode(errors="replace")[-300:]]
        else:
            try:
                outcome = self.workload.verify(dest, out, finished.stdout)
                problems = outcome.problems
            except (OSError, ValueError, KeyError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        if not problems:
            if not reference:
                reference.append(outcome.fingerprint)
            elif outcome.fingerprint != reference[0]:
                problems = ["output differs from the first command "
                            "with the same seed"]
        if problems:
            self.failed += 1
            self.problems.extend(f"{out.name}: {p}" for p in problems)
            return None
        return outcome

    def timed(self) -> dict:
        setups = [self.setup(rep) for rep in range(SETUP_MIN_REPEATS)]
        while (len(setups) < SETUP_MAX_REPEATS
               and sum(seconds for _, seconds in setups) < SETUP_BUDGET_S):
            setups.append(self.setup(len(setups)))
        prints = {self.workload.setup_fingerprint(dest) for dest, _ in setups}
        if len(prints) != 1:
            self.problems.append("repeated set-ups wrote different inputs")
        dest = setups[-1][0]
        samples = {name: [] for name in E2E_SAMPLES}
        samples["setup_s"] = [seconds for _, seconds in setups]
        reference: list[bytes] = []
        loop_start = time.perf_counter()
        i = 0
        while self.keep_going(loop_start, i, MIN_COMMANDS):
            out = self.work / f"cmd-{i}"
            argv = [sys.executable, "-c", CLI,
                    *self.workload.command(dest, out)]
            finished = self.call(argv, self.work / f"log-{i}")
            outcome = self.judge(dest, out, finished, reference)
            shutil.rmtree(out, ignore_errors=True)
            i += 1
            if outcome is None:
                continue
            samples["wall_s"].append(finished.wall_s)
            samples["cpu_s"].append(finished.cpu_s)
            samples["peak_rss_mib"].append(finished.peak_rss_mib)
            samples["items_per_s"].append(outcome.items / finished.wall_s)
            samples["forecast_rmse_w"].append(outcome.rmse)
        return samples

    def traced(self) -> tuple[dict, dict]:
        dest, _ = self.setup(0)
        reference: list[bytes] = []
        untraced, commands, bare_imports = [], [], []
        loop_start = time.perf_counter()
        i = 0
        # Plain and traced commands alternate, so drift in the machine's
        # speed lands on both sides of trace.overhead_s alike.
        while self.keep_going(loop_start, i, 1):
            out = self.work / f"plain-{i}"
            finished = self.call([sys.executable, "-c", CLI,
                                  *self.workload.command(dest, out)],
                                 self.work / f"plain-log-{i}")
            if self.judge(dest, out, finished, reference) is not None:
                untraced.append(finished.wall_s)
            shutil.rmtree(out, ignore_errors=True)
            # A bare import next to each traced command bounds its
            # untraced time under the machine's speed of the moment.
            bare = self.call(BARE_IMPORT, self.work / f"bare-log-{i}")
            out = self.work / f"traced-{i}"
            spans_path = self.work / f"spans-{i}.json"
            argv = [sys.executable, str(HERE / "traced_cli.py"),
                    str(spans_path), str(i), "--",
                    *self.workload.command(dest, out)]
            finished = self.call(argv, self.work / f"traced-log-{i}")
            outcome = self.judge(dest, out, finished, reference)
            shutil.rmtree(out, ignore_errors=True)
            i += 1
            if outcome is not None:
                commands.append((load_spans(spans_path), finished.start,
                                 finished.end))
                bare_imports.append(bare.wall_s)
        if not commands or not untraced:
            return {}, {}
        metrics = layer_metrics.aggregate(commands, untraced)
        self.check_trace(commands, bare_imports)
        counts = {name: len([s for spans, _, _ in commands for s in spans
                             if s.name == name])
                  for name in ("nn.layers.lstm.forward_train",
                               "nn.layers.lstm.backward",
                               "nn.layers.lstm.forward_eval",
                               "nn.optim.adam_step")}
        counts["traced_commands"] = len(commands)
        counts["untraced_commands"] = len(untraced)
        counts["bare_import_s_min"] = min(bare_imports)
        counts["untraced_s_max"] = max(layer_metrics.command_metrics(*c)[
            "trace.untraced_s"] for c in commands)
        return metrics, counts

    def check_trace(self, commands, bare_imports: list[float]) -> None:
        """Span accounting and ingest drop counts of every traced command."""
        for (spans, start, end), limit in zip(commands, bare_imports):
            self.problems.extend(layer_metrics.trace_problems(
                spans, start, end, limit))
            # files-baselines parses grid.csv, then solar.csv.
            injected = getattr(self.workload, "injected", {})
            expected = [[i.bad_timestamps, i.blank_watts, i.negative_watts,
                         i.duplicates] for i in injected.values()]
            seen = [[s.attrs[k] for k in ("bad_timestamps", "blank_watts",
                                          "negative_watts", "duplicates")]
                    for s in spans if s.name == "ingest.parse_meter_csv"]
            if seen != expected:
                self.problems.append(f"trace: ingest drop counts {seen}, "
                                     f"injected {expected}")

    def close(self) -> None:
        self.children.close()
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()  # only if no other run is using it
        except OSError:
            pass


def _stop_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gridcast" / "cli.py").is_file():
        print(f"perfbench: no gridcast source tree at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    signal.signal(signal.SIGTERM, _stop_on_sigterm)

    workload = WORKLOADS[args.workload](args.seed)
    bench = Bench(workload, args.seconds)
    bench.work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            values, counts = bench.traced()
            declared = spec["per_layer"]
            detail = {"span_counts": counts}
        else:
            samples = bench.timed()
            values = {name: statistics.median(v)
                      for name, v in samples.items() if v}
            declared = spec["end_to_end"]
            detail = {name: {**describe(v), "values": v}
                      for name, v in samples.items()}
    except SetupError as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.close()

    units = {metric["name"]: metric["unit"] for metric in declared}
    missing = [name for name in units if name not in values]
    if missing:
        print(f"perfbench: no successful command, missing {missing}; "
              f"problems: {bench.problems[:5]}", file=sys.stderr)
        return 1
    print(json.dumps({
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seeds": workload.seeds, "items_unit": workload.items_unit,
        "failed_ratio": bench.failed / max(1, bench.attempted),
        "problems": bench.problems, "samples": detail,
        "provenance": provenance.collect(ROOT)}))
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
