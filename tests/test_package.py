"""The package itself: ``spe/__init__.py`` imports nothing, so each module
is imported from where it is defined and pays only for what it uses."""

import subprocess
import sys

from conftest import subprocess_env


def test_error_types_import_without_numpy():
    code = "import sys\nimport spe.errors\nprint('numpy' in sys.modules)\n"
    out = subprocess.run([sys.executable, "-c", code], env=subprocess_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
