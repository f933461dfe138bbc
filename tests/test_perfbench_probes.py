"""The benchmark's traced runs patch gridcast functions by name where
their callers look them up (perfbench/probes.py). Installing every probe
fails the moment one of those names is no longer bound."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_probe_finds_its_function():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    done = subprocess.run(
        [sys.executable, "-c",
         "import gridcast.cli, probes, spans; "
         "probes.install(spans.Tracer()); print('ok')"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"
