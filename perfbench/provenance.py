"""Where a result was measured: code version, interpreter, BLAS and CPU.

BLAS threads are left at the program's default.  The count reported is
the one a gridcast child would get: an explicit ``OPENBLAS_NUM_THREADS``
or ``OMP_NUM_THREADS``, otherwise what the OpenBLAS that numpy loaded
says about itself through ``ctypes``.
"""
from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path

_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads")


def git_commit(root: Path) -> str:
    """HEAD of a checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _loaded_openblas() -> str | None:
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            for line in maps:
                path = line.split()[-1]
                if "openblas" in os.path.basename(path):
                    return path
    except OSError:
        pass
    return None


def blas_threads() -> tuple[int | None, str]:
    """(thread count, where it came from)."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var):
            return int(os.environ[var]), var
    import numpy  # noqa: F401  (loads OpenBLAS into this process)

    path = _loaded_openblas()
    if path is None:
        return None, "no OpenBLAS loaded"
    lib = ctypes.CDLL(path)
    for symbol in _THREAD_SYMBOLS:
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_int
            return int(fn()), f"{symbol} in {os.path.basename(path)}"
    return None, f"no thread query symbol in {os.path.basename(path)}"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def collect(root: Path) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads, source = blas_threads()
    return {
        "git_commit": git_commit(root),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": threads, "threads_from": source},
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
    }
