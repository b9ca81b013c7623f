"""Mutation check: each load-bearing detail of the kernel, of the entropy
quadrature, of the command line's output tree and of the scenario loader has
a test that fails without it.

Each entry of ``MUTANTS`` names a file, a text in it, the text that replaces
it and the pytest selection that must fail once it is replaced.  For each
entry, ``src/``, ``tests/``, ``bench/`` and ``README.md`` (which tests
read) and ``pyproject.toml`` (which holds the pytest settings) are copied to
a temporary directory, the one edit is made there and the selection runs
against that copy; the working tree is never edited.

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
CLI = "src/spe/cli.py"
SCENARIOS = "src/spe/scenarios.py"
#: (name, file, old text, new text, pytest selection)
MUTANTS = [
    ("factor-no-mod4-rounding", SCHEME,
     "k = min(m, k + (m - k) % 4)", "k = min(m, k)",
     ["tests/test_scheme.py::TestDptsv"]),
    # survives: it differs only on a build that rounds dpttrf's unrolled
    # copies differently, and no offline test can vary the build (see
    # _factor_diffusion's docstring)
    ("factor-stops-at-one-repeat", SCHEME,
     "if d[k - 5] == p and d[k - 4] == p and d[k - 3] == p and d[k - 2] == p:",
     "if d[k - 2] == p:",
     ["tests/test_scheme.py::TestDptsv"]),
    # a viscous run maps scipy's OpenBLAS beside numpy's, which exports the
    # same routines
    ("numpy-lapack-skipped", SCHEME,
     "    binding = _numpy_openblas()\n", "    binding = None\n",
     ["tests/test_scheme.py::TestDptsv::test_viscous_run_maps_one_openblas"]),
    # the projection moves u(L) off 0 by about 3e-33 times the mass
    ("weight-ends-not-zeroed", SCHEME,
     "        self.weight[[0, -1]] = 0.0\n", "",
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
    ("tiny-cell-admitted", SCHEME,
     "if self.eps > 0.0 and dx * dx == 0.0:", "if False:",
     ["tests/test_cli.py::TestErrors::test_cell_too_small_for_diffusion_is_an_input_error"]),
    ("landing-without-tolerance", SCHEME,
     "LANDING_TOL = 1e-12", "LANDING_TOL = 0.0",
     ["tests/test_scheme.py::TestRun"]),
    ("landing-cap-dropped", SCHEME,
     "dt = min(stable_dt(ws, config), target - ws.t)", "dt = stable_dt(ws, config)",
     ["tests/test_scheme.py::TestRun"]),
    ("snapshot-rows-one-late", SCHEME,
     "np.searchsorted(self.boundary_series[:, 0], self.times)",
     'np.searchsorted(self.boundary_series[:, 0], self.times, side="right")',
     ["tests/test_diagnostics.py::TestEnergyCheck::test_series_read_at_each_snapshot_step"]),
    ("support-box-not-widened", ENTROPY,
     "return slice(max(start - 1, 0), stop + 1)", "return slice(start, stop)",
     ["tests/test_entropy.py::TestSupportBoxQuadrature"]),
    ("signed-sums-count-ties-above", ENTROPY,
     'constants, side="right")', 'constants, side="left")',
     ["tests/test_entropy.py::TestSortedSums"]),
    ("signed-sums-lower-term-dropped", ENTROPY,
     "    return above - below\n", "    return above\n",
     ["tests/test_entropy.py::TestSortedSums"]),
    ("entropy-g-from-gradient-column", ENTROPY,
     "traj.boundary_series[traj.snapshot_rows, 1]",
     "traj.boundary_series[traj.snapshot_rows, 2]",
     ["tests/test_entropy.py::TestSupportBoxQuadrature::"
      "test_pulse_boundary_read_at_snapshot_rows"]),
    # the boundary-trace flux sgn(g - c)(trace^3 - c^3) loses its cube of c
    ("boundary-edge-with-c-for-c3", ENTROPY,
     "q.wt[pt.box] * (pt.value * px.at_zero), q.c3)",
     "q.wt[pt.box] * (pt.value * px.at_zero), q.c)",
     ["tests/test_entropy.py::TestSupportBoxQuadrature"]),
    ("tolerance-drops-a-product", ENTROPY,
     "max(pt.sup * px.sup, pt.sup_derivative * px.sup, pt.sup * px.sup_derivative)",
     "max(pt.sup * px.sup, pt.sup_derivative * px.sup)",
     ["tests/test_entropy.py::TestSupportBoxQuadrature"]),
    # a space profile equal to a time profile is looked up in the time table
    ("profile-tables-shared-by-the-axes", ENTROPY,
     "for p in {phi.px for phi in bumps}}",
     "for p in {phi.px for phi in bumps}} | on_t",
     ["tests/test_entropy.py::TestEntropyTable"]),
    # bumps that differ in px(0) share one boundary term
    ("boundary-term-keyed-without-px0", ENTROPY,
     "b, i = (phi.pt, px.at_zero), (phi.px, pt.at_zero)",
     "b, i = (phi.pt,), (phi.px, pt.at_zero)",
     ["tests/test_entropy.py::TestEntropyTable"]),
    ("worst-uses-argmin", "src/spe/diagnostics.py",
     "np.argmax(np.subtract(measured, bound))", "np.argmin(np.subtract(measured, bound))",
     ["tests/test_diagnostics.py::TestWorstCaseRule"]),
    ("failure-keeps-partial-tree", CLI,
     "                _remove_outputs(out, inputs)\n            if",
     "                pass\n            if",
     ["tests/test_cli.py::TestOutputTree::"
      "test_write_failure_leaves_no_file_of_either_run"]),
    # a failed write leaves its temporary file beside the outputs
    ("atomic-write-keeps-temp", CLI,
     "            os.unlink(tmp)\n", "            pass\n",
     ["tests/test_cli.py::TestOutputTree::test_failed_rename_leaves_no_temporary_file"]),
    ("files-keep-the-temporary-mode", CLI,
     "            os.fchmod(fh.fileno(), 0o666 & ~umask)\n", "",
     ["tests/test_cli.py::TestErrors::test_files_get_the_mode_of_a_plain_open"]),
    # a malformed command line writes its error over a scenario named error.json
    ("malformed-error-over-input", CLI,
     'if os.path.realpath(out / "error.json") not in inputs:',
     'if args is None or os.path.realpath(out / "error.json") not in inputs:',
     ["tests/test_cli.py::TestOutputTree::"
      "test_malformed_line_keeps_a_scenario_named_error_json"]),
    # a run into spe-out/<subcommand> under a regular file ends in [Errno 20]
    ("default-out-unchecked", CLI,
     "        if not _can_be_directory(str(out)):", "        if False:",
     ["tests/test_cli.py::TestErrors::test_default_out_under_a_file_exits_2_and_keeps_it"]),
    ("output-over-input-allowed", CLI,
     "        if clash:", "        if False:",
     ["tests/test_cli.py::TestOutputTree"]),
    # the source-free law is refused data of nonzero mean
    ("zero-mean-required-source-free", SCHEME,
     "    if not config.include_source:\n        return None\n", "",
     ["tests/test_scheme.py::TestRun::test_nonzero_mean_runs_source_free",
      "tests/test_scenarios.py::TestLoadScenario::test_nonzero_mean_file_loads_source_free"]),
    # invariants reports the sourced problem's estimates on a run that
    # solved the source-free law
    ("invariants-takes-source-free", CLI,
     "    if not spec.config.include_source:  # the estimates are the sourced problem's",
     "    if False:",
     ["tests/test_cli.py::TestSourceSwitch::test_invariants_refuses_source_free"]),
    # a boundary file headed g,t loads with its columns swapped
    ("header-names-unchecked", SCENARIOS,
     "        if found != names:", "        if False:",
     ["tests/test_scenarios.py::TestLoadScenario::"
      "test_data_files_are_read_by_their_header_names"]),
]


def check(file: str, old: str, new: str, selection: list) -> str:
    """'killed', 'survived' or 'error: <why>' for one mutant."""
    with tempfile.TemporaryDirectory(prefix="spe-mutant-") as tmp:
        copy = Path(tmp)
        for name in ("src", "tests", "bench"):
            shutil.copytree(ROOT / name, copy / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".work"))
        for name in ("pyproject.toml", "README.md"):
            shutil.copy2(ROOT / name, copy)
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
