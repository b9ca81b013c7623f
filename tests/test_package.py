"""The package itself: ``spe/__init__.py`` imports nothing, so each module
is imported from where it is defined and pays only for what it uses."""

import os
import subprocess
import sys
from pathlib import Path

import spe


def test_error_types_import_without_numpy():
    code = "import sys\nimport spe.errors\nprint('numpy' in sys.modules)\n"
    # the subprocess imports this spe, wherever it was imported from
    path = [str(Path(spe.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
