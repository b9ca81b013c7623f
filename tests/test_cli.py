"""End-to-end subcommand tests on desk-size scenarios."""

import copy
import json
import math
import re
import shlex
import stat
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import shipped_document, subprocess_env
from spe import cli, scheme
from spe.cli import MAX_ENTROPY_ROWS, main
from spe.entropy import (
    entropy_residual,
    entropy_tolerance,
    extract_trace,
    make_bump_family,
)
from spe.fields import lp_norm
from spe.scenarios import (
    _PRESETS,
    _SCHEMA,
    builtin_scenario_path,
    load_scenario,
    parse_scenario,
    preset_boundary,
)
from spe.scheme import run


def tiny_scenario(tmp_path, **overrides):
    doc = {
        "name": "tiny",
        "grid": {"L": 10.0, "n": 128},
        "time": {"T": 0.2, "cfl_safety": 0.9, "snapshots": [0.1]},
        "epsilon": 0.01,
        "initial": {"preset": "bump-derivative",
                    "params": {"a": 1.0, "x0": 2.0, "sigma": 1.0}},
        "boundary": {"preset": "zero"},
    }
    doc.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


def read_json(path):
    return json.loads(path.read_text())


def _readme_section(pattern):
    """The first group of ``pattern`` in README.md (``re.S``)."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    return re.search(pattern, text, re.S)[1]


class TestSolve:
    def test_artifacts_and_determinism(self, tmp_path):
        scenario = tiny_scenario(tmp_path)
        out = tmp_path / "out"
        assert main(["solve", "--scenario", str(scenario), "--out", str(out)]) == 0
        files = sorted(p.name for p in out.iterdir())
        assert "boundary.csv" in files
        assert "run.json" in files
        snapshots = [f for f in files if f.startswith("snapshot_")]
        assert len(snapshots) == 3  # t = 0, 0.1, 0.2
        first_bytes = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(["solve", "--scenario", str(scenario), "--out", str(out)]) == 0
        for p in out.iterdir():
            assert p.read_bytes() == first_bytes[p.name]

    def test_snapshot_columns(self, tmp_path):
        scenario = tiny_scenario(tmp_path)
        out = tmp_path / "out"
        main(["solve", "--scenario", str(scenario), "--out", str(out)])
        header = (out / "snapshot_000.csv").read_text().splitlines()[0]
        assert header == "t,x,u,P"
        header = (out / "boundary.csv").read_text().splitlines()[0]
        assert header == "t,g,dudx0"

    def test_csv_values_round_trip_exactly(self, tmp_path):
        # every written value parses back with float() to the very value the
        # trajectory holds: shortest round-trip formatting, nothing rounded
        scenario = tiny_scenario(tmp_path, boundary={
            "preset": "pulse", "params": {"a": 0.3, "tau": 0.15}})
        out = tmp_path / "out"
        assert main(["solve", "--scenario", str(scenario), "--out", str(out)]) == 0
        spec = load_scenario(scenario)
        traj = run(spec.initial, spec.boundary, spec.config)

        def parsed(name):
            lines = (out / name).read_text().splitlines()[1:]
            return [[float(v) for v in line.split(",")] for line in lines]

        xs = spec.grid.nodes
        for k, snap in enumerate(traj.snapshots):
            want = [[snap.t, x, u, P]
                    for x, u, P in zip(xs, snap.u.values, snap.P.values)]
            assert parsed(f"snapshot_{k:03d}.csv") == want
        assert parsed("boundary.csv") == traj.boundary_series.tolist()

    def test_files_are_the_row_formula(self, tmp_path, s2_spec, s2_traj):
        # each file holds the repr of every float of its table, row by row;
        # the columns may be formatted in any order, the text is the same
        out = tmp_path / "out"
        scenario = builtin_scenario_path("s2")
        assert main(["solve", "--scenario", str(scenario), "--out", str(out)]) == 0

        def text(header, table):
            rows = [",".join(map(repr, row)) for row in table.tolist()]
            return "\n".join([header, *rows]) + "\n"

        xs = s2_spec.grid.nodes
        assert len(list(out.glob("snapshot_*.csv"))) == len(s2_traj.snapshots)
        for k, s in enumerate(s2_traj.snapshots):
            table = np.column_stack((np.full(len(xs), s.t), xs, s.u.values, s.P.values))
            written = (out / f"snapshot_{k:03d}.csv").read_bytes()
            assert written == text("t,x,u,P", table).encode()
        written = (out / "boundary.csv").read_bytes()
        assert written == text("t,g,dudx0", s2_traj.boundary_series).encode()

    def test_inviscid_without_scheme_key(self, tmp_path):
        # epsilon = 0 alone selects the inviscid scheme
        scenario = tiny_scenario(tmp_path, epsilon=0.0)
        out = tmp_path / "out"
        assert main(["solve", "--scenario", str(scenario), "--out", str(out)]) == 0

    def test_single_interior_node(self, tmp_path):
        # grid.n = 2: the diffusion solve has one unknown
        pulse = {"a": 0.5, "tau": 1.0}
        scenario = tiny_scenario(tmp_path, grid={"L": 10.0, "n": 2},
                                 boundary={"preset": "pulse", "params": pulse})
        out = tmp_path / "out"
        assert main(["solve", "--scenario", str(scenario), "--out", str(out)]) == 0
        g = preset_boundary("pulse", pulse)
        for k in range(3):
            rows = np.loadtxt(out / f"snapshot_{k:03d}.csv", delimiter=",", skiprows=1)
            assert rows.shape == (3, 4) and np.isfinite(rows).all()
            assert rows[0, 2] == g(rows[0, 0]) and rows[-1, 2] == 0.0

    def test_rerun_leaves_only_its_own_snapshots(self, tmp_path):
        # a shorter run into a used directory removes the earlier run's
        # snapshot_NNN.csv files, and no file that spe does not write
        out = tmp_path / "out"

        def solve(snapshots):
            scenario = tiny_scenario(tmp_path, time={"T": 0.2, "snapshots": snapshots})
            return main(["solve", "--scenario", str(scenario), "--out", str(out)])

        assert solve([0.05, 0.1, 0.15]) == 0
        (out / "snapshot_notes.csv").write_text("mine\n")
        (out / "notes.txt").write_text("mine\n")
        assert solve([0.1]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "boundary.csv", "notes.txt", "run.json", "snapshot_000.csv",
            "snapshot_001.csv", "snapshot_002.csv", "snapshot_notes.csv"]
        assert read_json(out / "run.json")["snapshot_times"] == [0.0, 0.1, 0.2]
        assert (out / "snapshot_notes.csv").read_text() == "mine\n"


def tree(directory):
    """Every file in ``directory`` by name, with its bytes."""
    return {p.name: p.read_bytes() for p in directory.iterdir()}


class TestOutputTree:
    """Whatever a directory held before, a command leaves in it only its
    own files of those spe writes, whether it completes or fails."""

    def test_failed_and_shorter_reruns_leave_one_runs_tree(self, tmp_path, s1_doc):
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        short = tmp_path / "s1-short.json"
        short.write_text(json.dumps(
            {**s1_doc, "time": {**s1_doc["time"], "snapshots": [0.5]}}))

        def solve(scenario, directory):
            return main(["solve", "--scenario", str(scenario), "--out", str(directory)])

        assert solve(builtin_scenario_path("s1"), out) == 0
        assert len(tree(out)) == 13
        assert main(["invariants", "--scenario", str(builtin_scenario_path("riemann")),
                     "--out", str(out)]) == 2
        assert list(tree(out)) == ["error.json"]
        assert solve(short, out) == 0
        assert solve(short, fresh) == 0
        assert tree(out) == tree(fresh)
        assert read_json(out / "run.json")["snapshot_times"] == [0.0, 0.5, 1.0]

    def test_write_failure_leaves_no_file_of_either_run(self, tmp_path, monkeypatch):
        out = tmp_path / "out"

        def solve(snapshots):
            scenario = tiny_scenario(tmp_path, time={"T": 0.2, "snapshots": snapshots})
            return main(["solve", "--scenario", str(scenario), "--out", str(out)])

        assert solve([0.05, 0.1, 0.15]) == 0
        (out / "notes.txt").write_text("mine\n")
        calls = []

        def fail_third(path, header, columns):
            calls.append(path.name)
            if len(calls) == 3:
                raise OSError(f"disk full writing {path.name}")
            return write_csv(path, header, columns)

        write_csv = cli.write_csv
        monkeypatch.setattr(cli, "write_csv", fail_third)
        assert solve([0.1]) == 2
        assert calls == ["snapshot_000.csv", "snapshot_001.csv", "snapshot_002.csv"]
        assert sorted(tree(out)) == ["error.json", "notes.txt"]
        assert read_json(out / "error.json") == {
            "error": "OSError", "message": "disk full writing snapshot_002.csv"}

    def test_failed_rename_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        # the first rename of a finished temporary file fails: it is removed,
        # and error.json (the next write) is renamed as usual
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("mine\n")
        calls = []

        def fail_first(src, dst):
            calls.append(Path(dst).name)
            if len(calls) == 1:
                raise OSError(f"cannot rename onto {Path(dst).name}")
            return rename(src, dst)

        rename = cli.os.replace
        monkeypatch.setattr(cli.os, "replace", fail_first)
        scenario = str(tiny_scenario(tmp_path))
        assert main(["solve", "--scenario", scenario, "--out", str(out)]) == 2
        assert calls == ["snapshot_000.csv", "error.json"]
        assert sorted(tree(out)) == ["error.json", "notes.txt"]
        assert not list(out.glob("*.tmp"))
        assert (out / "notes.txt").read_text() == "mine\n"
        assert read_json(out / "error.json") == {
            "error": "OSError", "message": "cannot rename onto snapshot_000.csv"}

    def test_invariants_after_solve_leaves_only_its_report(self, tmp_path):
        scenario = str(tiny_scenario(tmp_path))
        out = tmp_path / "out"
        assert main(["solve", "--scenario", scenario, "--out", str(out)]) == 0
        (out / "notes.txt").write_text("mine\n")
        assert main(["invariants", "--scenario", scenario, "--out", str(out)]) == 0
        assert sorted(tree(out)) == ["notes.txt", "report.json"]

    def test_directory_with_an_output_name_is_kept(self, tmp_path):
        out = tmp_path / "out"
        (out / "run.json").mkdir(parents=True)
        scenario = str(builtin_scenario_path("s1"))
        assert main(["scale", "--scenario", scenario, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["run.json", "scale.json"]
        assert (out / "run.json").is_dir()

    def test_symlink_loop_with_an_output_name_is_removed(self, tmp_path):
        # a link that resolves nowhere is no input, and is removed like a file
        out = tmp_path / "out"
        out.mkdir()
        (out / "run.json").symlink_to("run.json")
        scenario = str(builtin_scenario_path("s1"))
        assert main(["scale", "--scenario", scenario, "--out", str(out)]) == 0
        assert sorted(tree(out)) == ["scale.json"]

    @pytest.mark.parametrize("subcommand", sorted(cli._COMMANDS))
    def test_every_written_file_is_an_output_name(self, tmp_path, subcommand):
        # each file a subcommand writes is declared in its own _COMMANDS
        # entry, which the removal pattern includes
        scenario = tiny_scenario(tmp_path, physical={"k": 1.0, "c2": 1.0})
        out = tmp_path / "out"
        main([subcommand, "--scenario", str(scenario), "--out", str(out)])
        names = sorted(tree(out))
        assert names and "error.json" not in names
        assert cli._COMMANDS[subcommand][1] in names
        assert all(re.fullmatch(cli._written(subcommand), name) for name in names), names
        assert all(cli._OUTPUT_FILE.fullmatch(name) for name in names), names

    def test_inputs_with_output_names_are_kept(self, tmp_path, monkeypatch):
        # a scenario or data file in --out is read, not removed, whatever
        # its name: here the scenario is run.json and its boundary file an
        # earlier run's boundary.csv, both named relative to --out .
        monkeypatch.chdir(tmp_path)
        assert main(["solve", "--scenario", str(tiny_scenario(tmp_path)),
                     "--out", "."]) == 0
        boundary = (tmp_path / "boundary.csv").read_bytes()
        replay = {**read_json(tiny_scenario(tmp_path)), "boundary": {"file": "boundary.csv"}}
        (tmp_path / "scenario.json").unlink()
        (tmp_path / "run.json").write_text(json.dumps(replay))
        kept = tree(tmp_path)["run.json"]
        assert main(["invariants", "--scenario", "run.json", "--out", "."]) == 0
        assert sorted(tree(tmp_path)) == ["boundary.csv", "report.json", "run.json"]
        assert tree(tmp_path)["boundary.csv"] == boundary
        assert tree(tmp_path)["run.json"] == kept

    def test_failed_command_keeps_its_inputs(self, tmp_path):
        # the failure branch's removal keeps the inputs too: a scenario
        # named report.json that names out/boundary.csv and fails to load
        out = tmp_path / "out"
        assert main(["solve", "--scenario", str(tiny_scenario(tmp_path)),
                     "--out", str(out)]) == 0
        boundary = (out / "boundary.csv").read_bytes()
        scenario = out / "report.json"
        scenario.write_text(json.dumps({
            **read_json(tiny_scenario(tmp_path)), "epsilon": "BAD",
            "boundary": {"file": str(out / "boundary.csv")}}))
        kept = scenario.read_bytes()
        assert main(["solve", "--scenario", str(scenario), "--out", str(out)]) == 2
        assert sorted(tree(out)) == ["boundary.csv", "error.json", "report.json"]
        assert read_json(out / "error.json")["error"] == "DataValidationError"
        assert tree(out)["boundary.csv"] == boundary
        assert tree(out)["report.json"] == kept

    @pytest.mark.parametrize("subcommand, name", [
        ("invariants", "report.json"), ("solve", "run.json"), ("scale", "scale.json")])
    def test_scenario_with_an_output_name_is_refused(self, tmp_path, subcommand, name):
        # the command would replace its own scenario: it exits 2 before
        # anything runs, and the error names the input, which is kept
        out = tmp_path / "out"
        assert main(["solve", "--scenario", str(tiny_scenario(tmp_path)),
                     "--out", str(out)]) == 0
        scenario = out / name
        scenario.write_text(json.dumps({**read_json(tiny_scenario(tmp_path)),
                                        "physical": {"k": 1.0, "c2": 1.0}}))
        kept = scenario.read_bytes()
        for _ in range(2):
            assert main([subcommand, "--scenario", str(scenario), "--out", str(out)]) == 2
            assert sorted(tree(out)) == ["error.json", name]
            assert scenario.read_bytes() == kept
            err = read_json(out / "error.json")
            assert err["error"] == "DataValidationError"
            assert err["violations"] == [
                f"{out / name}: an input of the scenario, which {subcommand} would write over"]

    def test_boundary_file_with_an_output_name_is_refused(self, tmp_path, monkeypatch):
        # solve on a scenario that replays out/boundary.csv would write over
        # it; named relative to the working directory as well as to --out
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out"
        assert main(["solve", "--scenario", str(tiny_scenario(tmp_path)),
                     "--out", "out"]) == 0
        boundary = (out / "boundary.csv").read_bytes()
        replay = tiny_scenario(tmp_path, boundary={"file": "out/boundary.csv"})
        assert main(["solve", "--scenario", str(replay), "--out", str(out)]) == 2
        assert sorted(tree(out)) == ["boundary.csv", "error.json"]
        assert (out / "boundary.csv").read_bytes() == boundary
        assert read_json(out / "error.json")["violations"] == [
            f"{out / 'boundary.csv'}: an input of the scenario, which solve would write over"]
        # another command writes no boundary.csv, so it runs on the replay
        assert main(["invariants", "--scenario", str(replay), "--out", "out"]) == 0
        assert sorted(tree(out)) == ["boundary.csv", "report.json"]
        assert (out / "boundary.csv").read_bytes() == boundary

    def test_scenario_named_error_json_is_kept(self, tmp_path, capsys):
        # error.json is every command's output, so a scenario of that name
        # in --out is refused, and the error goes to stderr only
        out = tmp_path / "out"
        out.mkdir()
        scenario = out / "error.json"
        scenario.write_text(tiny_scenario(tmp_path).read_text())
        kept = scenario.read_bytes()
        capsys.readouterr()
        assert main(["solve", "--scenario", str(scenario), "--out", str(out)]) == 2
        assert tree(out) == {"error.json": kept}
        assert f"{scenario}: an input of the scenario" in capsys.readouterr().err

    @pytest.mark.parametrize("malformed", [["--bogus"], ["--delta", "nan"], ["--scenario"]],
                             ids=["unknown-option", "bad-value", "second-scenario-bare"])
    def test_malformed_line_keeps_a_scenario_named_error_json(self, tmp_path, capsys,
                                                             malformed):
        # the line does not parse, but its inputs are known all the same:
        # error.json is not written over the scenario, and the error goes to
        # stderr only
        out = tmp_path / "out"
        out.mkdir()
        scenario = out / "error.json"
        scenario.write_text(tiny_scenario(tmp_path).read_text())
        kept = scenario.read_bytes()
        capsys.readouterr()
        assert main(["invariants", "--scenario", str(scenario), "--out", str(out),
                     *malformed]) == 2
        assert tree(out) == {"error.json": kept}
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_malformed_command_line_removes_nothing(self, tmp_path):
        # a command line that does not parse removes nothing: its
        # error.json goes beside the earlier run, which stays
        out = tmp_path / "out"
        assert main(["solve", "--scenario", str(tiny_scenario(tmp_path)),
                     "--out", str(out)]) == 0
        earlier = tree(out)
        assert main(["solve", "--out", str(out), "--delta", "nan"]) == 2
        after = tree(out)
        assert after.pop("error.json") and after == earlier


class TestInvariants:
    def test_zero_scenario_all_snapshots_zero(self, tmp_path):
        scenario = tiny_scenario(
            tmp_path,
            initial={"preset": "bump-derivative",
                     "params": {"a": 0.0, "x0": 2.0, "sigma": 1.0}},
        )
        out = tmp_path / "out"
        assert main(["solve", "--scenario", str(scenario), "--out", str(out)]) == 0
        for snap in sorted(out.glob("snapshot_*.csv")):
            rows = np.loadtxt(snap, delimiter=",", skiprows=1)
            assert np.max(np.abs(rows[:, 2])) == 0.0

    def test_shipped_s1_all_checks_pass(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "invariants", "--scenario", str(builtin_scenario_path("s1")),
            "--out", str(out),
        ])
        assert code == 0
        report = read_json(out / "report.json")
        assert len(report) == 5
        assert all(r["verdict"] == "pass" for r in report)

    def test_report_schema_and_pass(self, tmp_path):
        scenario = tiny_scenario(tmp_path)
        out = tmp_path / "out"
        assert main(["invariants", "--scenario", str(scenario), "--out", str(out)]) == 0
        report = read_json(out / "report.json")
        assert [r["check"] for r in report] == [
            "zero-mean", "l2-balance", "energy-l4-p2", "p-sup-bound", "u-sup-barrier",
        ]
        for r in report:
            for key in ("check", "tag", "measured", "bound", "residual",
                        "tolerance", "verdict"):
                assert key in r
            assert r["verdict"] == "pass"


class TestEntropyCheck:
    def test_small_grid_table(self, tmp_path):
        scenario = tiny_scenario(tmp_path)
        out = tmp_path / "out"
        code = main([
            "entropy-check", "--scenario", str(scenario), "--out", str(out),
            "--constants", "3", "--bumps", "2,2",
        ])
        assert code == 0
        doc = read_json(out / "entropy.json")
        assert len(doc["rows"]) == 12
        assert all(row["verdict"] == "pass" for row in doc["rows"])

    def test_riemann_scenario_accepted(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "entropy-check", "--scenario", str(builtin_scenario_path("riemann")),
            "--out", str(out), "--constants", "3", "--bumps", "2,2",
        ])
        assert code == 0

    @pytest.mark.parametrize("subcommand", sorted(cli._COMMANDS))
    def test_sourced_riemann_exits_2_naming_source_enabled(self, tmp_path, subcommand):
        # the first sourced time step would project the datum's mass away,
        # so the entropy check would pass a run of other data
        doc = shipped_document("riemann")
        doc["source_enabled"] = True
        scenario = tmp_path / "riemann.json"
        scenario.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main([subcommand, "--scenario", str(scenario), "--out", str(out)]) == 2
        assert sorted(p.name for p in out.iterdir()) == ["error.json"]
        err = read_json(out / "error.json")
        assert err["error"] == "DataValidationError"
        assert "'source_enabled': false" in err["violations"][-1]

    def test_rows_match_per_pair_residuals(self, tmp_path, riemann_traj):
        # every constant of a bump is evaluated in one pass; the rows are
        # those of a per-pair loop, in its order: constant-major, then bump
        out = tmp_path / "out"
        code = main([
            "entropy-check", "--scenario", str(builtin_scenario_path("riemann")),
            "--out", str(out), "--constants", "5", "--bumps", "3,3",
        ])
        traj = riemann_traj
        trace = extract_trace(traj)
        sup_u = max(lp_norm(s.u, math.inf) for s in traj.snapshots)
        bumps = make_bump_family(
            (0.0, traj.config.final_time), (0.0, traj.config.grid.length), (3, 3)
        )
        expected = []
        for c in np.linspace(-sup_u, sup_u, 5):
            for bi, phi in enumerate(bumps):
                r = entropy_residual(traj, float(c), phi, trace)
                tol = entropy_tolerance(phi, traj)
                expected.append((float(c), bi, r, tol, "pass" if r >= -tol else "fail"))
        assert code == (0 if all(e[4] == "pass" for e in expected) else 1)
        rows = read_json(out / "entropy.json")["rows"]
        assert len(rows) == len(expected)
        for row, (c, bi, r, tol, verdict) in zip(rows, expected):
            assert list(row) == ["c", "bump", "residual", "tolerance", "verdict"]
            assert (row["c"], row["bump"], row["tolerance"], row["verdict"]) == (
                c, bi, tol, verdict)
            assert abs(row["residual"] - r) <= 1e-13 * abs(r)

    @pytest.mark.parametrize("argv", [
        ["--constants", "1000000000000"],
        ["--bumps", "1000000,1000000"],
        ["--constants", str(MAX_ENTROPY_ROWS // 9 + 1), "--bumps", "3,3"],
    ])
    def test_oversized_table_is_an_input_error(self, tmp_path, monkeypatch, argv):
        # rejected before the solve, so nothing the table needs is allocated
        def unreachable(*args, **kwargs):
            raise AssertionError("an oversized table got past the input check")

        monkeypatch.setattr(cli, "run", unreachable)
        monkeypatch.setattr(cli, "make_bump_family", unreachable)
        scenario = tiny_scenario(tmp_path)
        out = tmp_path / "out"
        code = main(["entropy-check", "--scenario", str(scenario), "--out", str(out),
                     *argv])
        assert code == 2
        assert not (out / "entropy.json").exists()
        err = read_json(out / "error.json")
        assert err["error"] == "ValueError"
        assert f"at most {MAX_ENTROPY_ROWS}" in err["message"]

    def test_zero_constants_is_an_input_error(self, tmp_path):
        # an empty (c, bump) table would pass vacuously
        scenario = tiny_scenario(tmp_path)
        out = tmp_path / "out"
        code = main([
            "entropy-check", "--scenario", str(scenario), "--out", str(out),
            "--constants", "0",
        ])
        assert code == 2
        assert not (out / "entropy.json").exists()
        err = read_json(out / "error.json")
        assert err["error"] == "ValueError"
        assert "--constants" in err["message"]

    @pytest.mark.parametrize("bumps", ["5", "2,0", "2,x", "1,2,3"])
    def test_malformed_bumps_is_an_input_error(self, tmp_path, bumps):
        scenario = tiny_scenario(tmp_path)
        out = tmp_path / "out"
        code = main([
            "entropy-check", "--scenario", str(scenario), "--out", str(out),
            "--bumps", bumps,
        ])
        assert code == 2
        err = read_json(out / "error.json")
        assert err["message"] == (
            f"argument --bumps: must be two positive integers kt,kx, got {bumps!r}")


class TestStability:
    def test_paired_run(self, tmp_path):
        scenario = tiny_scenario(tmp_path)
        out = tmp_path / "out"
        code = main(["stability", "--scenario", str(scenario), "--out", str(out)])
        assert code == 0
        doc = read_json(out / "stability.json")
        assert doc["verdict"] == "pass"
        assert doc["detail"]["constant"] > 1.0

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the gauge <P>, a domain average, and the diffusion carry "
                              "the perturbation into a window the cone R + Ct has not "
                              "reached, where the bound is 0")
    def test_window_short_of_the_perturbation(self, tmp_path):
        # s1's perturbation is supported on [L/4 - L/20, L/4 + L/20] = [2, 3],
        # and with C about 9.85 the cone 1 + Ct reaches x = 2 only after
        # t = 0.1; so the bound at t = 0.1 is 0, but u - v is already
        # about 4e-5 in L1 on the window (0, 1)
        out = tmp_path / "out"
        assert main(["stability", "--scenario", str(builtin_scenario_path("s1")),
                     "--stability-R", "1.0", "--out", str(out)]) == 0

    def test_constant_override(self, tmp_path):
        scenario = tiny_scenario(tmp_path)
        out = tmp_path / "out"
        code = main([
            "stability", "--scenario", str(scenario), "--out", str(out),
            "--stability-C", "25.0",
        ])
        assert code == 0
        doc = read_json(out / "stability.json")
        assert doc["detail"]["constant"] == 25.0

    def test_short_domain(self, tmp_path):
        # the perturbation scales with L, so it fits wherever the datum does
        scenario = tiny_scenario(
            tmp_path,
            grid={"L": 5.0, "n": 128},
            initial={"preset": "bump-derivative",
                     "params": {"a": 1.0, "x0": 1.2, "sigma": 1.0}},
        )
        out = tmp_path / "out"
        assert main(["solve", "--scenario", str(scenario), "--out", str(out)]) == 0
        assert main(["stability", "--scenario", str(scenario), "--out", str(out)]) == 0
        assert read_json(out / "stability.json")["verdict"] == "pass"

    @pytest.mark.parametrize("C", ["0", "-1", "inf", "nan"])
    def test_nonpositive_constant_is_an_input_error(self, tmp_path, capsys, C):
        # C = 0 must reach the check, not fall back to 3M^2+1; a non-finite
        # C is rejected before the runs, not read as a window of nan
        scenario = tiny_scenario(tmp_path)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([
                "stability", "--scenario", str(scenario), "--out", str(out),
                "--stability-C", C,
            ])
        assert code == 2
        assert not (out / "stability.json").exists()
        err = read_json(out / "error.json")
        assert err["error"] == "ValueError"
        assert "--stability-C" in err["message"]
        assert "stability constant" in err["message"]
        assert caught == []
        assert capsys.readouterr().err == f"error: {err['message']}\n"

    @pytest.mark.parametrize("delta", ["inf", "-inf", "nan"])
    def test_nonfinite_delta_is_an_input_error(self, tmp_path, capsys, delta):
        scenario = tiny_scenario(tmp_path)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([
                "stability", "--scenario", str(scenario), "--out", str(out),
                f"--delta={delta}",
            ])
        assert code == 2
        assert not (out / "stability.json").exists()
        err = read_json(out / "error.json")
        assert err == {"error": "ValueError",
                       "message": f"argument --delta: must be finite, got {delta!r}"}
        assert caught == []
        assert capsys.readouterr().err == f"error: {err['message']}\n"

    def test_overflowing_delta_is_an_input_error(self, tmp_path, monkeypatch, capsys):
        # the perturbation's L1 norm overflows: refused before either run,
        # with the option named and no numpy warning
        monkeypatch.setattr(cli, "run", _no_solve)
        scenario = tiny_scenario(tmp_path)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["stability", "--scenario", str(scenario), "--out", str(out),
                         "--delta", "1e308"])
        assert code == 2
        assert [p.name for p in out.iterdir()] == ["error.json"]
        err = read_json(out / "error.json")
        assert err == {"error": "ValueError", "message": "argument --delta: the "
                       "perturbation's L1 norm overflows, got 1e+308"}
        assert caught == []
        assert capsys.readouterr().err == f"error: {err['message']}\n"


class TestSweep:
    def test_small_sweep(self, tmp_path):
        scenario = tiny_scenario(tmp_path)
        out = tmp_path / "out"
        code = main([
            "sweep", "--scenario", str(scenario), "--out", str(out),
            "--epsilons", "3e-2,1e-2,3e-3",
        ])
        assert code == 0
        doc = read_json(out / "sweep.json")
        assert len(doc["detail"]["l1_differences"]) == 2

    def test_two_viscosities_is_an_input_error(self, tmp_path):
        # one L1 distance has nothing to be compared with: no vacuous pass
        scenario = tiny_scenario(tmp_path)
        out = tmp_path / "out"
        code = main([
            "sweep", "--scenario", str(scenario), "--out", str(out),
            "--epsilons", "1e-1,1e-2",
        ])
        assert code == 2
        assert not (out / "sweep.json").exists()
        assert "at least three" in read_json(out / "error.json")["message"]


class TestSourceSwitch:
    """``source_enabled`` decides which data a scenario takes and which
    checks run on it: the source-free law takes any mean and every command
    but ``invariants``, whose estimates are the sourced problem's."""

    @pytest.mark.parametrize("subcommand", ["solve", "stability", "sweep"])
    def test_source_free_riemann_runs(self, tmp_path, subcommand):
        out = tmp_path / "out"
        assert main([subcommand, "--scenario", str(builtin_scenario_path("riemann")),
                     "--out", str(out)]) == 0

    @pytest.mark.parametrize("name", ["riemann", "s1"])
    def test_invariants_refuses_source_free(self, tmp_path, name):
        scenario = tmp_path / f"{name}.json"
        scenario.write_text(json.dumps({**shipped_document(name), "source_enabled": False}))
        out = tmp_path / "out"
        assert main(["invariants", "--scenario", str(scenario), "--out", str(out)]) == 2
        assert sorted(p.name for p in out.iterdir()) == ["error.json"]
        err = read_json(out / "error.json")
        assert err["error"] == "DataValidationError"
        assert "'source_enabled': false" in err["violations"][-1]

    def test_nonzero_mean_file_datum_passes_entropy_check(self, tmp_path):
        # a step read from a file, not the riemann-test preset
        nodes = np.linspace(0.0, 10.0, 129)
        field_file = tmp_path / "step.csv"
        field_file.write_text("x,u\n" + "\n".join(
            f"{x!r},{1.0 if x < 0.5 else 0.0}" for x in nodes.tolist()))
        scenario = tiny_scenario(
            tmp_path, epsilon=0.0, source_enabled=False, initial={"file": str(field_file)},
            boundary={"preset": "constant", "params": {"a": 1.0}})
        assert load_scenario(scenario).initial.values.sum() == 7.0
        out = tmp_path / "out"
        assert main(["entropy-check", "--scenario", str(scenario), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["entropy.json"]


class TestStrictCompat:
    """``--strict-compat`` turns the mismatch u0(0) != g(0) into bad input
    for every subcommand, before anything is solved."""

    def mismatched(self, tmp_path):
        # the bump-derivative datum has u0(0) = 0
        return tiny_scenario(tmp_path, boundary={"preset": "constant",
                                                 "params": {"a": 0.5}})

    @pytest.mark.parametrize("subcommand", ["solve", "sweep", "scale"])
    def test_mismatch_is_an_input_error(self, tmp_path, monkeypatch, subcommand):
        def unreachable(*args, **kwargs):
            raise AssertionError("solved under a compatibility mismatch")

        monkeypatch.setattr(cli, "run", unreachable)
        monkeypatch.setattr(cli, "epsilon_sweep", unreachable)
        out = tmp_path / "out"
        code = main([subcommand, "--scenario", str(self.mismatched(tmp_path)),
                     "--out", str(out), "--strict-compat"])
        assert code == 2
        assert [p.name for p in out.iterdir()] == ["error.json"]
        err = read_json(out / "error.json")
        assert err["error"] == "DataValidationError"
        assert err["violations"] == [
            "initial/boundary compatibility mismatch: u0(0) = 0 but g(0) = 0.5"]

    def test_sweep_warns_without_the_flag(self, tmp_path):
        out = tmp_path / "out"
        with pytest.warns(UserWarning, match="compatibility mismatch"):
            code = main(["sweep", "--scenario", str(self.mismatched(tmp_path)),
                         "--out", str(out), "--epsilons", "3e-2,1e-2,3e-3"])
        assert code == 0
        assert (out / "sweep.json").exists()


class TestScale:
    def test_shipped_scenario_constants(self, tmp_path):
        out = tmp_path / "out"
        code = main(["scale", "--scenario", str(builtin_scenario_path("s1")),
                     "--out", str(out)])
        assert code == 0
        doc = read_json(out / "scale.json")
        assert doc["D1"] == -0.5
        assert doc["D2"] == 1.0
        assert doc["identity_product"] == pytest.approx(-1.0, abs=1e-15)

    def test_scenario_physical_block(self, tmp_path):
        scenario = tiny_scenario(tmp_path, physical={"k": 2.0, "c2": 1.0})
        out = tmp_path / "out"
        assert main(["scale", "--scenario", str(scenario), "--out", str(out)]) == 0
        doc = read_json(out / "scale.json")
        assert doc["D1"] == -1.0

    def test_missing_constants_error(self, tmp_path):
        scenario = tiny_scenario(tmp_path)
        out = tmp_path / "out"
        assert main(["scale", "--scenario", str(scenario), "--out", str(out)]) == 2
        assert read_json(out / "error.json")["violations"] == [
            "scale needs a 'physical' block in the scenario"]

    @pytest.mark.parametrize("key", ["k", "c2"])
    @pytest.mark.parametrize("value", ["0", "-0.0", "-1", "-1e-300",
                                       "NaN", "Infinity", "-Infinity", "1e400"])
    def test_bad_constant_rejected_at_load(self, tmp_path, monkeypatch, key, value):
        # the values of NOT_POSITIVE that a JSON number can spell; every
        # subcommand loads the scenario, so each rejects them before solving
        monkeypatch.setattr(cli, "run", _no_solve)
        monkeypatch.setattr(cli, "epsilon_sweep", _no_solve)
        physical = {"k": 1.0, "c2": 1.0, key: "BAD"}
        scenario = tiny_scenario(tmp_path, physical=physical)
        scenario.write_text(scenario.read_text().replace('"BAD"', value))
        for subcommand in SUBCOMMANDS:
            out = tmp_path / subcommand
            code = main([subcommand, "--scenario", str(scenario), "--out", str(out)])
            assert code == 2
            assert [p.name for p in out.iterdir()] == ["error.json"]
            err = read_json(out / "error.json")
            assert err["error"] == "DataValidationError"
            assert err["violations"] == [f"scenario {scenario}: 'physical.{key}' must "
                                         f"be positive and finite, got {json.loads(value)!r}"]

    @pytest.mark.parametrize("physical", [{"k": 1.0, "c2": 1e200},
                                          {"k": 1e-300, "c2": 1e300}])
    def test_overflowing_identity_is_a_failed_run(self, tmp_path, capsys, physical):
        # c2**2 overflows in a Python float: exit 2 and error.json, not a
        # traceback
        scenario = tiny_scenario(tmp_path, physical=physical)
        out = tmp_path / "out"
        assert main(["scale", "--scenario", str(scenario), "--out", str(out)]) == 2
        assert [p.name for p in out.iterdir()] == ["error.json"]
        err = read_json(out / "error.json")
        assert err["error"] == "OverflowError"
        assert capsys.readouterr().err == f"error: {err['message']}\n"
        assert err["message"] == (f"physical: k = {physical['k']!r} and c2 = "
                                  f"{physical['c2']!r} put a scaling constant "
                                  f"beyond the float range")

    def test_constant_beyond_the_float_range_is_an_input_error(self, tmp_path):
        # D1 = -k / (2 c2) is inf, which JSON cannot spell
        scenario = tiny_scenario(tmp_path, physical={"k": 1e154, "c2": 1e-160})
        out = tmp_path / "out"
        assert main(["scale", "--scenario", str(scenario), "--out", str(out)]) == 2
        assert [p.name for p in out.iterdir()] == ["error.json"]
        assert read_json(out / "error.json") == {
            "error": "ValueError", "message": "physical: k = 1e+154 and c2 = 1e-160 "
            "put a scaling constant beyond the float range"}


class TestErrors:
    def test_malformed_scenario(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "broken"}))
        out = tmp_path / "out"
        code = main(["solve", "--scenario", str(bad), "--out", str(out)])
        assert code == 2
        err = read_json(out / "error.json")
        assert err["error"] == "DataValidationError"
        assert err["violations"]

    @pytest.mark.parametrize("doc, count", [
        ([{"name": "tiny"}], 1),                             # top-level array
        ({"name": "tiny", "grid": {"n": 128}, "time": {"T": 0.2}, "epsilon": 0.01,
          "initial": {"preset": "bump-derivative"}, "boundary": {"preset": "zero"}}, 1),
        # a string "false" is truthy: it must not leave the source on, and
        # even a flag that has no effect is checked
        ({"name": "tiny", "grid": {"L": 10.0, "n": 128}, "time": {"T": 0.2},
          "epsilon": 0.01, "source_enabled": "false", "allow_nonconforming": "false",
          "initial": {"preset": "bump-derivative"}, "boundary": {"preset": "zero"}}, 2),
        # misspelled keys are reported, not replaced by their defaults
        ({"name": "tiny", "grid": {"L": 10.0, "n": 128},
          "time": {"T": 0.2, "snapshot": [0.1]}, "epsilon": 0.01, "source_enable": False,
          "initial": {"preset": "bump-derivative"}, "boundary": {"preset": "zero"}}, 2),
    ], ids=["top-level-array", "grid-without-L", "string-flags", "misspelled-keys"])
    def test_schema_violation_exits_2_with_error_json(self, tmp_path, doc, count):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["solve", "--scenario", str(bad), "--out", str(out)]) == 2
        err = read_json(out / "error.json")
        assert err["error"] == "DataValidationError"
        assert len(err["violations"]) == count

    def test_cell_too_small_for_diffusion_is_an_input_error(self, tmp_path):
        # dx * dx underflows to 0 for dx = 1e-302, so the diffusion step
        # could not form r = eps dt / dx^2; the grid is refused before a step
        scenario = tiny_scenario(
            tmp_path, grid={"L": 1e-300, "n": 100}, time={"T": 1e-300},
            initial={"preset": "sine-packet", "params": {"x0": 0, "w": 1e-301}})
        out = tmp_path / "out"
        assert main(["solve", "--scenario", str(scenario), "--out", str(out)]) == 2
        assert "grid cell dx" in read_json(out / "error.json")["message"]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_files_get_the_mode_of_a_plain_open(self, tmp_path, umask, mode):
        # the mode of a file opened for writing under the process umask, not
        # that of the temporary file each write is renamed from
        code = (
            "import os, sys\n"
            "os.umask(int(sys.argv[1]))\n"
            "from spe.cli import main\n"
            "main(['scale', '--scenario', sys.argv[2], '--out', sys.argv[4]])\n"
            "main(['invariants', '--scenario', sys.argv[3], '--out', sys.argv[4] + '-err'])\n"
        )
        out = tmp_path / "out"
        subprocess.run([sys.executable, "-c", code, str(umask),
                        str(builtin_scenario_path("s1")), str(builtin_scenario_path("riemann")),
                        str(out)], env=subprocess_env(), check=True, capture_output=True)
        for path in (out / "scale.json", tmp_path / "out-err" / "error.json"):
            assert stat.S_IMODE(path.stat().st_mode) == mode, path

    @pytest.mark.parametrize("subcommand, scenario, numpy_lapack, code, files", [
        ("entropy-check", "riemann", "hidden", 0, ["entropy.json"]),
        ("invariants", "s1", "hidden", 2, ["error.json"]),
        ("invariants", "s1", "exported", 0, ["report.json"]),
    ], ids=["inviscid-runs", "viscous-exits-2", "viscous-runs-on-numpy-openblas"])
    def test_without_scipy(self, tmp_path, subcommand, scenario, numpy_lapack, code, files):
        # only the diffusion solve (eps > 0) needs LAPACK, which numpy's
        # OpenBLAS exports or scipy provides; without either, a viscous run
        # is a failed run, not a traceback
        if numpy_lapack == "exported" and scheme._numpy_openblas() is None:
            pytest.skip("numpy exports no scipy_dpttrs_64_")
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import spe.scheme\n"
            "if sys.argv.pop(1) == 'hidden':\n"
            "    spe.scheme._numpy_openblas = lambda: None\n"
            "from spe.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        out = tmp_path / "out"
        done = subprocess.run(
            [sys.executable, "-c", script, numpy_lapack, subcommand, "--scenario",
             str(builtin_scenario_path(scenario)), "--out", str(out)],
            env=subprocess_env(), capture_output=True, text=True)
        assert done.returncode == code
        assert "Traceback" not in done.stderr
        assert sorted(path.name for path in out.iterdir()) == files
        if code == 2:
            err = read_json(out / "error.json")
            assert err["error"] == "ModuleNotFoundError"
            assert "scipy" in err["message"]
            assert done.stderr == f"error: {err['message']}\n"

    def test_viscous_explicit_scheme_is_an_input_error(self, tmp_path):
        # "explicit" is the inviscid scheme; with eps > 0 there is no
        # forward-Euler diffusion to fall back on
        scenario = tiny_scenario(tmp_path, scheme="explicit")
        out = tmp_path / "out"
        assert main(["solve", "--scenario", str(scenario), "--out", str(out)]) == 2
        assert not (out / "run.json").exists()
        err = read_json(out / "error.json")
        assert err["error"] == "ValueError"
        assert "does not fit eps = 0.01" in err["message"]

    @pytest.mark.parametrize("argv, message, default_out", [
        (["entropy-check", "--scenario", "s.json", "--constants", "abc"],
         "argument --constants: must be an integer >= 1, got 'abc'",
         "spe-out/entropy-check"),
        (["solve"], "the following arguments are required: --scenario",
         "spe-out/solve"),
        # the option's value is not the subcommand
        (["--scenario", "solve"], "the following arguments are required: subcommand",
         "spe-out"),
    ], ids=["non-integer-constants", "missing-scenario", "missing-subcommand"])
    def test_malformed_command_line(self, tmp_path, monkeypatch, capsys, argv, message,
                                    default_out):
        # argparse errors follow the contract too: exit 2 and error.json in
        # the named --out directory, or without one in spe-out/<subcommand>
        # when a subcommand is named and in spe-out/ when none is
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--out", "out"]) == 2
        err = read_json(tmp_path / "out" / "error.json")
        assert err["error"] == "ValueError"
        assert message in err["message"]
        assert message in capsys.readouterr().err
        assert main(argv) == 2
        assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*.json")) == [
            "out/error.json", f"{default_out}/error.json"]
        assert message in read_json(tmp_path / default_out / "error.json")["message"]

    @pytest.mark.parametrize("argv, directory", [
        (["--constants", "0", "sweep", "--scenario", "s.json"], "spe-out/sweep"),
        (["solve", "--s", "s.json"], "spe-out/solve"),  # an abbreviation
        (["--out", "o", "solve", "--delta", "nan"], "o"),
        (["--scenario", "solve", "--constants", "0"], "spe-out"),
        (["bogus", "solve", "--scenario", "s.json"], "spe-out"),
        (["solve", "--strict-compat", "--out", "o"], "o"),
        (["solve", "--ou", "o"], "spe-out/solve"),  # --ou is not --out
    ])
    def test_error_directory_of_malformed_command_line(self, tmp_path, monkeypatch,
                                                        argv, directory):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert [str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*.json")] == [
            f"{directory}/error.json"]

    @pytest.mark.parametrize("argv", [
        ["solve", "--scenario", "s.json", "--out", "o"],
        ["--scenario", "s.json", "--out", "o", "solve"],
        ["entropy-check", "--scenario", "s.json"],
        ["--scenario", "s.json", "sweep"],
        ["stability", "--out=o", "--scenario=s.json", "--delta", "-1"],
        ["scale", "--out=", "--scenario", "s.json"],
        ["invariants", "--out", "", "--scenario", "s.json"],
        ["--scenario", "solve", "invariants", "--strict-compat"],
        ["solve", "--out", "a", "--scenario", "a/b.json", "--out", "o/p",
         "--scenario", "s.json"],
    ], ids=["out-first", "out-last", "no-out-first", "no-out-last", "out-equals",
            "out-equals-empty", "out-empty", "scenario-named-solve", "repeated"])
    def test_preflight_reads_a_well_formed_line_as_the_parser(self, tmp_path, monkeypatch,
                                                              argv):
        # for a line that parses, the pre-flight's directory and inputs are
        # those of the parsed line
        monkeypatch.chdir(tmp_path)
        for name in ("s.json", "solve"):
            Path(name).write_text(json.dumps({"initial": {"file": "u0.csv"}}))
        Path("u0.csv").write_text("x,u\n")
        parser = cli.build_parser()
        args = parser.parse_args(argv)
        out, inputs = cli._preflight(parser, argv)
        assert out == (Path(args.out) if args.out else Path("spe-out") / args.subcommand)
        assert inputs == {str(tmp_path / args.scenario), str(tmp_path / "u0.csv")}

    def test_errors_of_one_subcommand_share_a_directory(self, tmp_path, monkeypatch):
        # without --out, a bad option value (found while parsing) and a
        # window beyond the domain (found by the subcommand) both write
        # spe-out/stability/error.json
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "run", _no_solve)
        scenario = str(builtin_scenario_path("s1"))
        for option, value in (("--delta", "nan"), ("--stability-R", "11")):
            assert main(["stability", "--scenario", scenario, option, value]) == 2
            assert [str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*.json")] == [
                "spe-out/stability/error.json"]
            message = read_json(tmp_path / "spe-out/stability/error.json")["message"]
            assert message.startswith(f"argument {option}: ")

    def test_deeply_nested_scenario_is_an_input_error(self, tmp_path):
        # deeper than the JSON reader's recursion allows: no traceback
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000)
        out = tmp_path / "out"
        assert main(["solve", "--scenario", str(deep), "--out", str(out)]) == 2
        err = read_json(out / "error.json")
        assert err["error"] == "DataValidationError"
        assert err["violations"] == [f"scenario {deep}: JSON nested too deeply to read"]

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert "usage: spe" in capsys.readouterr().out

    def test_overflowing_amplitude_is_a_blow_up(self, tmp_path):
        # max u^2 overflows before the first step: a typed blow-up at t = 0,
        # not a solver library's complaint about non-finite input
        scenario = tiny_scenario(
            tmp_path,
            initial={"preset": "bump-derivative",
                     "params": {"a": 1e200, "x0": 2.0, "sigma": 1.0}},
        )
        out = tmp_path / "out"
        assert main(["solve", "--scenario", str(scenario), "--out", str(out)]) == 2
        err = read_json(out / "error.json")
        assert err["error"] == "BlowUpError"
        assert err["time"] == 0.0

    @pytest.mark.parametrize("preset", ["bump-derivative", "sine-packet"])
    def test_overflowing_preset_amplitude_names_it(self, tmp_path, capsys, preset):
        # the datum or its L1 norm overflows: an input error naming a, and
        # only the error line on stderr
        scenario = tiny_scenario(
            tmp_path, initial={"preset": preset, "params": {"a": 1e308}})
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["invariants", "--scenario", str(scenario), "--out", str(out)])
        assert code == 2
        assert [p.name for p in out.iterdir()] == ["error.json"]
        err = read_json(out / "error.json")
        assert err["error"] == "ValueError"
        assert err["message"].startswith(f"initial preset {preset!r} with a = 1e+308, ")
        assert err["message"].endswith(": the L1 norm of the datum overflows")
        assert caught == []
        assert capsys.readouterr().err == f"error: {err['message']}\n"

    def test_memory_error_is_a_failed_run(self, tmp_path, monkeypatch):
        # a run too large for memory ends in exit 2 and error.json, not a
        # traceback; raised from a patched run, so nothing large is allocated
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "run", no_memory)
        out = tmp_path / "out"
        assert main(["solve", "--scenario", str(tiny_scenario(tmp_path)),
                     "--out", str(out)]) == 2
        assert read_json(out / "error.json")["error"] == "MemoryError"

    @pytest.mark.parametrize("T", [0, -1, math.nan])
    def test_nonpositive_final_time_is_an_input_error(self, tmp_path, capsys, T):
        scenario = tiny_scenario(tmp_path, time={"T": T})
        out = tmp_path / "out"
        assert main(["solve", "--scenario", str(scenario), "--out", str(out)]) == 2
        message = "final_time must be positive and finite"
        assert read_json(out / "error.json") == {"error": "ValueError", "message": message}
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_out_that_is_a_file_exits_2_and_keeps_it(self, tmp_path, monkeypatch, capsys):
        # an --out that cannot become a directory breaks its rule while the
        # command line parses, so nothing loads; error.json cannot be
        # written under a regular file, so the message goes to stderr only
        monkeypatch.setattr(cli, "load_scenario", _no_solve)
        file = tmp_path / "out"
        file.write_text("mine\n")
        scenario = str(builtin_scenario_path("s1"))
        for out in (str(file), str(file / "sub")):
            assert main(["scale", "--scenario", scenario, "--out", out]) == 2
            assert capsys.readouterr().err == (
                "error: argument --out: must be a directory or a new path whose "
                f"nearest existing ancestor is a directory, got {out!r}\n")
        assert tree(tmp_path) == {"out": b"mine\n"}

    @pytest.mark.parametrize("file", ["spe-out", "spe-out/sweep"])
    def test_default_out_under_a_file_exits_2_and_keeps_it(self, tmp_path, monkeypatch,
                                                           capsys, file):
        # without --out the default directory spe-out/<subcommand> keeps the
        # --out rule: the line fails before anything loads or is removed
        monkeypatch.setattr(cli, "load_scenario", _no_solve)
        monkeypatch.chdir(tmp_path)
        Path(file).parent.mkdir(exist_ok=True)
        Path(file).write_text("mine\n")
        scenario = str(builtin_scenario_path("s1"))
        assert main(["sweep", "--scenario", scenario]) == 2
        assert capsys.readouterr().err == (
            "error: argument --out: must be a directory or a new path whose nearest "
            "existing ancestor is a directory, got 'spe-out/sweep'\n")
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == [tmp_path / file]
        assert Path(file).read_bytes() == b"mine\n"
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--scenario", scenario, "--help"])
        assert excinfo.value.code == 0

    def test_out_with_a_nul_byte_breaks_its_rule(self, tmp_path, monkeypatch, capsys):
        # no path holds a NUL byte: the line is malformed, with or without a
        # second mistake, and writing its error.json fails without a traceback
        monkeypatch.chdir(tmp_path)
        scenario = str(builtin_scenario_path("s1"))
        for extra in ([], ["--bogus"]):
            assert main(["scale", "--scenario", scenario, "--out", "a\0b", *extra]) == 2
            assert capsys.readouterr().err.startswith("error: argument --out: must be ")
        assert list(tmp_path.iterdir()) == []

    def test_completed_command_removes_an_earlier_error(self, tmp_path):
        # error.json describes the last command into --out, not an earlier one
        out = tmp_path / "out"
        riemann = str(builtin_scenario_path("riemann"))
        assert main(["invariants", "--scenario", riemann, "--out", str(out)]) == 2
        assert read_json(out / "error.json")["error"] == "DataValidationError"
        assert main(["solve", "--scenario", str(tiny_scenario(tmp_path)),
                     "--out", str(out)]) == 0
        assert not (out / "error.json").exists()


# Strings cannot name a path outside the working directory, nor any file or
# directory in the repository.
FUZZ_TEXT = st.text(alphabet="abxyz019 -_", max_size=6)
#: awkward JSON numbers: zero, negative, not an integer, non-finite, beyond
#: any float; none is a finite value above 2.5, so no drawn final time,
#: viscosity or amplitude makes a run long
AWKWARD_NUMBERS = [0, -1, 0.5, 2.5, 1e-3, math.nan, math.inf, -math.inf, 10**400]
#: large finite numbers, for documents that are parsed but not run
LARGE_NUMBERS = [64.5, 2**63, 1e300]
#: replacement values for documents that are run: mostly awkward numbers
RUN_VALUES = [None, True, "", "ab", [], {}] + AWKWARD_NUMBERS
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | FUZZ_TEXT | st.sampled_from(AWKWARD_NUMBERS)
    | st.integers(-10**4, 10**4) | st.floats(-1e4, 1e4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(FUZZ_TEXT, inner, max_size=3),
    max_leaves=6,
)
DELETE = object()
#: every key of a scenario document as a path from the top, read from the
#: format's own tables, and one unknown key in each block and parameter set
SCENARIO_PATHS = [()] + [
    (block, key) if block else (key,)
    for block, keys in _SCHEMA.items() for key in [*keys, "unknown"]
] + [
    (block, "params", key)
    for block, presets in _PRESETS.items()
    for key in sorted(set().union(*presets.values(), ["unknown"]))
]
INITIAL_BLOCKS = [
    {"preset": "bump-derivative", "params": {"a": 1.0, "x0": 2.0, "sigma": 1.0}},
    {"preset": "sine-packet", "params": {"a": 0.5, "x0": 1.0, "w": 2.0, "m": 2}},
    {"preset": "riemann-test", "params": {"left": 1.0, "right": 0.0, "jump": 0.5}},
]
BOUNDARY_BLOCKS = [
    {"preset": "zero"},
    {"preset": "pulse", "params": {"a": 0.5, "tau": 1.0}},
    {"preset": "constant", "params": {"a": 0.0}},
]


@st.composite
def scenario_docs(draw, values, max_edits):
    """A valid tiny scenario (n <= 64, T <= 0.05) with one to ``max_edits``
    of its keys deleted or set to a drawn value; the empty path stands for
    the whole document."""
    initial = draw(st.sampled_from(INITIAL_BLOCKS))
    riemann = initial["preset"] == "riemann-test"
    T = draw(st.floats(0.005, 0.05))
    doc = {
        "name": "fuzz",
        "grid": {"L": 10.0, "n": draw(st.integers(8, 64))},
        "time": {"T": T, "cfl_safety": 0.9, "snapshots": [T / 2]},
        "epsilon": 0.0 if riemann else 0.01,
        "initial": copy.deepcopy(initial),
        "boundary": copy.deepcopy(draw(st.sampled_from(BOUNDARY_BLOCKS))),
        "physical": {"k": 1.0, "c2": 1.0},
    }
    if riemann:
        doc.update(source_enabled=False)
    edits = draw(st.lists(
        st.tuples(st.sampled_from(SCENARIO_PATHS), st.just(DELETE) | values),
        min_size=1, max_size=max_edits))
    for path, value in edits:
        if not path:
            return {} if value is DELETE else value
        holder = doc
        for key in path[:-1]:
            holder = holder.get(key) if isinstance(holder, dict) else None
        if not isinstance(holder, dict):
            continue
        if value is DELETE:
            holder.pop(path[-1], None)
        else:
            holder[path[-1]] = copy.deepcopy(value)
    return doc


@pytest.mark.filterwarnings("ignore")  # compatibility and overflow warnings
class TestInputContract:
    """Any scenario document either loads or is rejected as bad input."""

    @given(scenario_docs(
        st.sampled_from(AWKWARD_NUMBERS + LARGE_NUMBERS) | JSON_VALUES, max_edits=3))
    @settings(max_examples=300, deadline=None)
    def test_parse_scenario_raises_only_input_errors(self, doc):
        try:
            parse_scenario(doc)
        except (ValueError, OSError):
            pass  # the command line reports these with exit 2 and error.json

    @given(
        subcommand=st.sampled_from(
            ["solve", "invariants", "entropy-check", "stability", "sweep", "scale"]),
        doc=scenario_docs(st.sampled_from(RUN_VALUES), max_edits=2),
    )
    @settings(max_examples=50, deadline=None)
    def test_exit_codes_and_error_record(self, subcommand, doc):
        with tempfile.TemporaryDirectory() as tmp:
            scenario = Path(tmp) / "scenario.json"
            scenario.write_text(json.dumps(doc))
            out = Path(tmp) / "out"
            code = main([subcommand, "--scenario", str(scenario), "--out", str(out)])
            assert code in (0, 1, 2)
            if code == 2:
                assert (out / "error.json").exists()


SUBCOMMANDS = ["solve", "invariants", "entropy-check", "stability", "sweep", "scale"]
#: option values that spell no finite number
NOT_FINITE = ["", "abc", "nan", "inf", "-inf", "1e400", "-1e400"]
#: ... and those that spell one that is not positive
NOT_POSITIVE = NOT_FINITE + ["0", "-0.0", "-1", "-1e-300"]
#: each single-valued option with values its rule rejects
BAD_SCALARS = {
    "--delta": NOT_FINITE,
    "--stability-C": NOT_POSITIVE,
    "--stability-R": NOT_POSITIVE,
    "--constants": NOT_POSITIVE + ["2.5", "1e3", "3,3"],
}
VISCOSITIES = ["1", "0.3", "0.1", "0.03", "0.01"]


@st.composite
def bad_lists(draw, good, min_count, max_count, bad_items):
    """A comma-separated list of items from ``good``, in order, with the
    wrong count, one item replaced by one of ``bad_items``, or one item
    repeated."""
    kind = draw(st.sampled_from(["count", "item", "repeat"]))
    if kind == "count":
        count = draw(st.sampled_from(
            [k for k in range(len(good) + 1) if not min_count <= k <= max_count]))
        return ",".join(good[:count])
    items = good[:draw(st.integers(min_count, min(max_count, len(good))))]
    if kind == "item":
        items[draw(st.integers(0, len(items) - 1))] = draw(st.sampled_from(bad_items))
    else:
        at = draw(st.integers(0, len(items) - 2))
        items[at] = items[at + 1]
    return ",".join(items)


BAD_OPTION_VALUES = st.one_of(
    *(st.tuples(st.just(option), st.sampled_from(values))
      for option, values in BAD_SCALARS.items()),
    # two positive integers kt,kx; a repeated one is a valid tiling
    st.tuples(st.just("--bumps"),
              bad_lists(["3", "2", "1"], 2, 2, NOT_POSITIVE + ["2.5"])
              .filter(lambda text: text != "2,2")),
    # at least three finite positive viscosities, strictly decreasing
    st.tuples(st.just("--epsilons"), bad_lists(VISCOSITIES, 3, 5, NOT_POSITIVE)),
)


def _no_solve(*args, **kwargs):
    raise AssertionError("a bad option value got past the command line")


class TestOptionContract:
    """Any option value breaking its rule is a malformed command line."""

    @given(subcommand=st.sampled_from(SUBCOMMANDS), option_value=BAD_OPTION_VALUES)
    @settings(max_examples=150, deadline=None)
    def test_bad_value_rejected_before_the_scenario_loads(self, subcommand,
                                                          option_value):
        option, value = option_value
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(cli, "load_scenario", _no_solve), \
                mock.patch.object(cli, "run", _no_solve):
            out = Path(tmp) / "out"
            code = main([subcommand, "--scenario", str(builtin_scenario_path("s1")),
                         "--out", str(out), f"{option}={value}"])
            assert code == 2
            assert [p.name for p in out.iterdir()] == ["error.json"]
            err = read_json(out / "error.json")
            assert err["error"] == "ValueError"
            assert err["message"].startswith(f"argument {option}: must be ")
            assert err["message"].endswith(f", got {value!r}")

    @pytest.mark.parametrize("subcommand, option, value", [
        ("stability", "--stability-R", "nan"),
        ("stability", "--stability-R", "0"),
        ("stability", "--stability-R", "-1"),
        ("stability", "--stability-R", "11"),  # L + 1 on s1
        ("sweep", "--epsilons", "inf,1,0.1"),
        ("sweep", "--epsilons", "1e-1,1e-2"),
        ("stability", "--delta", "nan"),
        ("stability", "--stability-C", "0"),
        ("entropy-check", "--constants", "0"),
        ("entropy-check", "--bumps", "2,0"),
        # the constants are the scenario's; an option for one is unknown
        ("scale", "--k", "1.0"),
    ])
    def test_rejected_before_any_solve(self, tmp_path, monkeypatch, subcommand,
                                       option, value):
        monkeypatch.setattr(cli, "run", _no_solve)
        monkeypatch.setattr(cli, "epsilon_sweep", _no_solve)
        out = tmp_path / "out"
        code = main([subcommand, "--scenario", str(builtin_scenario_path("s1")),
                     "--out", str(out), f"{option}={value}"])
        assert code == 2
        assert [p.name for p in out.iterdir()] == ["error.json"]
        assert option in read_json(out / "error.json")["message"]

    def test_window_beyond_the_domain_names_it(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "run", _no_solve)
        out = tmp_path / "out"
        code = main(["stability", "--scenario", str(builtin_scenario_path("s1")),
                     "--out", str(out), "--stability-R", "11"])
        assert code == 2
        assert read_json(out / "error.json")["message"] == (
            "argument --stability-R: the window must be at most the domain "
            "length L = 10.0, got 11.0")

    def test_defaults_and_readme_values_parse(self):
        parser = cli.build_parser()
        defaults = parser.parse_args(["solve", "--scenario", "s.json"])
        assert defaults.epsilons == (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
        assert (defaults.constants, defaults.bumps) == (5, (3, 3))
        assert (defaults.delta, defaults.stability_R) == (1e-2, 4.0)
        block = _readme_section(r"## Command line.*?```sh\n(.*?)```")
        lines = [line for line in block.splitlines() if line.startswith("spe ")]
        assert lines
        for line in lines:
            parser.parse_args(shlex.split(line)[1:])


class TestReadmeTables:
    """README's scenario schema and command-line tables name what the code
    declares, no more and no less.  (CI runs its quickstart and its ``spe``
    lines.)"""

    def schema_section(self):
        return _readme_section(r"### Scenario schema\n(.*?)\n## ")

    def test_schema_example_parses(self):
        example = re.search(r"```json\n(.*?)```", self.schema_section(), re.S)[1]
        parse_scenario(json.loads(example), source="README scenario schema")

    def test_schema_table_matches_schema_and_presets(self):
        section = self.schema_section()
        keys = [f"{block + '.' if block else ''}{key}"
                for block, names in _SCHEMA.items() for key in names]
        assert [key for key in keys if f"`{key}`" not in section] == []
        rows = [line for line in section.splitlines() if line.startswith("|")]
        assert [(block, preset, sorted(params))
                for block, presets in _PRESETS.items()
                for preset, params in presets.items()
                if not any(f"{block} preset `{preset}`" in row
                           and all(f"`{name}`" in row for name in params)
                           for row in rows)] == []
        named = [m[1] for m in map(re.compile(r"\| `([^`]*)` \|").match, rows) if m]
        assert named
        assert [key for key in named if key not in keys] == []

    def test_command_line_table_matches_parser(self):
        section = _readme_section(r"## Command line\n(.*?)\n### ")
        declared = [option for action in cli.build_parser()._actions
                    for option in action.option_strings if option.startswith("--")]
        assert [option for option in declared if f"| `{option}` |" not in section] == []
        rows = re.findall(r"^\| `(--[^`]*)` \|", section, re.M)
        assert rows
        assert [option for option in rows if option not in declared] == []
