"""BLAS thread choice: importing gridcast starts OpenBLAS on one thread
unless the caller set a count, and the artifacts do not depend on it.

Each check of the import runs in a fresh interpreter, because the thread
count binds when numpy is first imported; one more check asks the test
process itself, whose count tests/conftest.py chooses. The count is asked
of the OpenBLAS that numpy loaded, so a thread choice made too late to
bind fails here."""
import ctypes
import inspect
import json
import os
import subprocess
import sys

import pytest

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def openblas_threads():
    """Thread count of the OpenBLAS this process loaded, or None."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = sorted({line.split()[-1] for line in maps
                        if "openblas" in os.path.basename(line.split()[-1])})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads"):
            query = getattr(lib, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                return query()
    return None


# After `import gridcast`: the thread count of the loaded OpenBLAS (None if
# it cannot be asked) and the thread variables left in the environment.
PROBE = f"""
import ctypes, json, os
import gridcast

{inspect.getsource(openblas_threads)}
print(json.dumps({{"threads": openblas_threads(),
                  "env": {{k: os.environ.get(k) for k in {THREAD_VARS!r}}}}}))
"""


def _env(**chosen):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(chosen)
    return env


def _after_import(**chosen):
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("needs /proc/self/maps to find the loaded OpenBLAS")
    done = subprocess.run([sys.executable, "-c", PROBE], env=_env(**chosen),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    found = json.loads(done.stdout)
    if found["threads"] is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS that reports its threads")
    return found


def test_suite_runs_the_thread_count_users_get():
    # One thread, as importing gridcast chooses, unless the environment
    # names a count: tests/conftest.py makes the choice before numpy loads.
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("needs /proc/self/maps to find the loaded OpenBLAS")
    import numpy  # noqa: F401  (loads OpenBLAS, if no test did yet)
    threads = openblas_threads()
    if threads is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS that reports its threads")
    chosen = os.environ.get("OPENBLAS_NUM_THREADS",
                            os.environ.get("OMP_NUM_THREADS", "1"))
    assert threads == min(int(chosen), len(os.sched_getaffinity(0)))


def test_import_runs_openblas_on_one_thread_when_unset():
    found = _after_import()
    assert found["threads"] == 1
    # The variable lived only while numpy loaded.
    assert found["env"] == {v: None for v in THREAD_VARS}


@pytest.mark.parametrize("var", THREAD_VARS)
def test_import_keeps_an_explicit_count(var):
    found = _after_import(**{var: "2"})
    # OpenBLAS caps a requested count at the cores it may use.
    assert found["threads"] == min(2, len(os.sched_getaffinity(0)))
    expected = {v: None for v in THREAD_VARS}
    expected[var] = "2"
    assert found["env"] == expected


def _artifacts(out_dir):
    paths = [out_dir / "report.csv"]
    for sub in ("predictions", "models", "history"):
        paths += sorted((out_dir / sub).iterdir())
    return {str(p.relative_to(out_dir)): p.read_bytes() for p in paths}


def test_compare_artifacts_do_not_depend_on_thread_count(tmp_path):
    outputs = {}
    for threads in ("1", "2"):
        out_dir = tmp_path / f"threads-{threads}"
        config = tmp_path / f"config-{threads}.json"
        config.write_text(json.dumps({
            "synth.days": 8, "synth.seed": 3,
            "train.max_epochs": 2, "train.patience": 2,
            "out_dir": str(out_dir)}), encoding="utf-8")
        done = subprocess.run(
            [sys.executable, "-m", "gridcast.cli", "compare", "--config", str(config)],
            env=_env(OPENBLAS_NUM_THREADS=threads),
            capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        outputs[threads] = _artifacts(out_dir)
    one, two = outputs["1"], outputs["2"]
    for name in ("models/lstm.npz", "predictions/lstm.csv", "history/lstm.csv"):
        assert name in one
    assert one.keys() == two.keys()
    for name in one:
        assert one[name] == two[name], name
