"""The names the benchmark's tracer patches still resolve.

``bench/child.py`` wraps functions where the program looks them up, by
attribute name (``spe.cli.entropy_residual``, ``spe.scheme.stable_dt``, ...).
A rename breaks the traced benchmark run with an ``AttributeError``; this
test finds that in the unit suite.  It reads ``bench/`` and changes nothing
there.
"""

import os
import subprocess
import sys
from pathlib import Path

import spe

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
    # the subprocess imports this spe, wherever it was imported from
    path = [str(Path(spe.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run([sys.executable, "-c", code, str(CHILD)], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
