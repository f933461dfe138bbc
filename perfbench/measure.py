"""Run one child process and measure it from outside.

CPU time and peak RSS come from ``os.wait4`` on that child's pid, so they
belong to that process alone.  ``RUSAGE_CHILDREN`` would not do: its
``ru_maxrss`` is the maximum over every child reaped so far, so a large
set-up child hides a smaller timed one.
"""
from __future__ import annotations

import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Finished:
    returncode: int
    start: float      # perf_counter just before the child was started
    end: float        # perf_counter just after it was reaped
    cpu_s: float      # user + system CPU of the child, all its threads
    peak_rss_mib: float
    stdout: bytes
    stderr: bytes

    @property
    def wall_s(self) -> float:
        return self.end - self.start


class ChildTimeout(RuntimeError):
    pass


class Children:
    """Starts children one at a time and kills the one still running on close.

    Only the ``os.wait4`` in ``run`` (or ``close``) ever reaps the child:
    the timeout kills it with ``os.kill``, which does not wait, so the
    child's exit status and rusage always reach ``run``.
    """

    def __init__(self):
        self._pid: int | None = None
        self._timed_out = False

    def run(self, argv, *, cwd: Path, env: dict, log_dir: Path,
            timeout: float) -> Finished:
        log_dir.mkdir(parents=True, exist_ok=True)
        out_path, err_path = log_dir / "stdout", log_dir / "stderr"
        self._timed_out = False
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            self._pid = proc.pid
            timer = threading.Timer(timeout, self._kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                end = time.perf_counter()
                self._pid = None
            finally:
                timer.cancel()
                timer.join()
            # Tell Popen the child is reaped, so it never waits for it.
            proc.returncode = os.waitstatus_to_exitcode(status)
        if self._timed_out:
            raise ChildTimeout(f"{argv[:4]} ran past {timeout:.0f} s")
        return Finished(
            returncode=proc.returncode, start=start, end=end,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mib=usage.ru_maxrss / 1024.0,  # Linux reports KiB
            stdout=out_path.read_bytes(), stderr=err_path.read_bytes())

    def _kill(self) -> None:
        pid = self._pid
        if pid is None:
            return
        self._timed_out = True
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def close(self) -> None:
        pid, self._pid = self._pid, None
        if pid is None:
            return
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
