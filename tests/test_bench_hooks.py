"""The names the benchmark's tracer patches still resolve.

``bench/child.py`` wraps functions where the program looks them up, by
attribute name (``spe.cli.entropy_residual``, ``spe.scheme.stable_dt``, ...).
A rename breaks the traced benchmark run with an ``AttributeError``; this
test finds that in the unit suite.  It reads ``bench/`` and changes nothing
there.
"""

import subprocess
import sys
from pathlib import Path

from conftest import subprocess_env

CHILD = Path(__file__).resolve().parents[1] / "bench" / "child.py"


def test_tracer_and_run_recorder_install():
    code = (
        "import importlib.util, sys\n"
        "spec = importlib.util.spec_from_file_location('bench_child', sys.argv[1])\n"
        "child = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(child)\n"
        "child.install_tracer(child.Tracer())\n"
        "child.record_runs([], None)\n"
    )
    out = subprocess.run([sys.executable, "-c", code, str(CHILD)], env=subprocess_env(),
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
