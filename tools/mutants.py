"""Mutation check: each load-bearing detail of the kernel and of the entropy
quadrature has a test that fails without it.

Each entry of ``MUTANTS`` names a file, a text in it, the text that replaces
it and the pytest selection that must fail once it is replaced.  For each
entry, ``src/`` and ``tests/`` (with ``pyproject.toml``, which holds the
pytest settings) are copied to a temporary directory, the one edit is made
there and the selection runs against that copy; the working tree is never
edited.

Usage: python3 tools/mutants.py

One line per mutant: ``killed`` (its selection failed), ``survived`` (it
passed), or ``error`` (the old text is not in the file exactly once, or
pytest could not run the selection).  Exit status 0 when every mutant is
killed, 1 when one survived, 2 on an error.  A survivor stays in the list:
it marks a detail that no test checks.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCHEME = "src/spe/scheme.py"
ENTROPY = "src/spe/entropy.py"
#: (name, file, old text, new text, pytest selection)
MUTANTS = [
    ("factor-no-mod4-rounding", SCHEME,
     "k = min(m, k + (m - k) % 4)", "k = min(m, k)",
     ["tests/test_scheme.py::TestDptsv"]),
    ("factor-stops-at-one-repeat", SCHEME,
     "if d[k - 5] == p and d[k - 4] == p and d[k - 3] == p and d[k - 2] == p:",
     "if d[k - 2] == p:",
     ["tests/test_scheme.py::TestDptsv"]),
    ("dirichlet-not-reimposed-after-projection", SCHEME,
     "            new -= scratch\n            new[0] = g_new\n            new[-1] = 0.0\n",
     "            new -= scratch\n",
     ["tests/test_scheme.py::TestStep", "tests/test_scheme.py::TestKernelProperties"]),
    ("gauge-dropped", SCHEME,
     "np.subtract(P, _trapz(P, dx) / grid.length, out=scratch)",
     "np.subtract(P, 0.0, out=scratch)",
     ["tests/test_scheme.py::TestStep"]),
    ("primitive-finiteness-check-dropped", SCHEME,
     "        if not math.isfinite(P_new[-1]):\n            raise BlowUpError(t_new)\n",
     "",
     ["tests/test_scheme.py::TestBlowUpAtSource"]),
    ("dissipation-right-end-dropped", SCHEME,
     "(left * left + right * right)", "(left * left)",
     ["tests/test_scheme.py::TestGradientMeasurements"]),
    ("flux-difference-downwind", SCHEME,
     "out[0] = 0.0\n    np.subtract(flux[1:], flux[:-1], out=out[1:])",
     "out[-1] = 0.0\n    np.subtract(flux[1:], flux[:-1], out=out[:-1])",
     ["tests/test_scheme.py::TestKernelProperties::test_source_free_step_is_monotone"]),
    ("landing-without-tolerance", SCHEME,
     "LANDING_TOL = 1e-12", "LANDING_TOL = 0.0",
     ["tests/test_scheme.py::TestRun"]),
    ("support-box-not-widened", ENTROPY,
     "return slice(max(start - 1, 0), stop + 1)", "return slice(start, stop)",
     ["tests/test_entropy.py::TestSupportBoxQuadrature"]),
    ("signed-sums-count-ties-above", ENTROPY,
     'constants, side="right")', 'constants, side="left")',
     ["tests/test_entropy.py::TestSortedSums"]),
    ("signed-sums-lower-term-dropped", ENTROPY,
     "    return above - below\n", "    return above\n",
     ["tests/test_entropy.py::TestSortedSums"]),
    ("tolerance-drops-a-product", ENTROPY,
     "max(pt * px, dpt * px, pt * dpx)", "max(pt * px, dpt * px)",
     ["tests/test_entropy.py::TestSupportBoxQuadrature"]),
    ("worst-uses-argmin", "src/spe/diagnostics.py",
     "np.argmax(np.subtract(measured, bound))", "np.argmin(np.subtract(measured, bound))",
     ["tests/test_diagnostics.py::TestWorstCaseRule"]),
]


def check(file: str, old: str, new: str, selection: list) -> str:
    """'killed', 'survived' or 'error: <why>' for one mutant."""
    with tempfile.TemporaryDirectory(prefix="spe-mutant-") as tmp:
        copy = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", copy)
        target = copy / file
        text = target.read_text(encoding="utf-8")
        if text.count(old) != 1:
            return f"error: the old text occurs {text.count(old)} times in {file}"
        target.write_text(text.replace(old, new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *selection], cwd=copy, env=env, capture_output=True, text=True)
    # pytest exits 1 when a test failed; other codes mean it did not run
    if done.returncode == 0:
        return "survived"
    if done.returncode == 1:
        return "killed"
    tail = (done.stdout + done.stderr).strip().splitlines()[-1:]
    return f"error: pytest exited {done.returncode} {tail}"


def main() -> int:
    status = 0
    for name, file, old, new, selection in MUTANTS:
        outcome = check(file, old, new, selection)
        print(f"{outcome:10} {name}", flush=True)
        if outcome.startswith("error"):
            status = 2
        elif outcome == "survived":
            status = max(status, 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
