"""End-to-end subcommand tests on desk-size scenarios."""

import json

import numpy as np
import pytest

from spe.cli import main
from spe.scenarios import builtin_scenario_path, load_scenario
from spe.scheme import run


def tiny_scenario(tmp_path, **overrides):
    doc = {
        "name": "tiny",
        "grid": {"L": 10.0, "n": 128},
        "time": {"T": 0.2, "cfl_safety": 0.9, "snapshots": [0.1]},
        "epsilon": 0.01,
        "scheme": "imex",
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

    def test_nonconforming_rejected_outside_entropy(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "solve", "--scenario", str(builtin_scenario_path("riemann")),
            "--out", str(out),
        ])
        assert code == 2
        err = read_json(out / "error.json")
        assert "entropy-check" in err["message"]


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


class TestStability:
    def test_paired_run(self, tmp_path):
        scenario = tiny_scenario(tmp_path)
        out = tmp_path / "out"
        code = main(["stability", "--scenario", str(scenario), "--out", str(out)])
        assert code == 0
        doc = read_json(out / "stability.json")
        assert doc["verdict"] == "pass"
        assert doc["detail"]["constant"] > 1.0

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

    @pytest.mark.parametrize("C", ["0", "-1"])
    def test_nonpositive_constant_is_an_input_error(self, tmp_path, C):
        # C = 0 must reach the comparator's check, not fall back to 3M^2+1
        scenario = tiny_scenario(tmp_path)
        out = tmp_path / "out"
        code = main([
            "stability", "--scenario", str(scenario), "--out", str(out),
            "--stability-C", C,
        ])
        assert code == 2
        assert not (out / "stability.json").exists()
        err = read_json(out / "error.json")
        assert err["error"] == "ValueError"
        assert "stability constant" in err["message"]


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


class TestScale:
    def test_direct_constants(self, tmp_path):
        scenario = tiny_scenario(tmp_path)
        out = tmp_path / "out"
        code = main([
            "scale", "--scenario", str(scenario), "--out", str(out),
            "--k", "1.0", "--c2", "1.0",
        ])
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

    @pytest.mark.parametrize("doc", [
        [{"name": "tiny"}],                                  # top-level array
        {"name": "tiny", "grid": {"n": 128}, "time": {"T": 0.2}, "epsilon": 0.01,
         "initial": {"preset": "bump-derivative"}, "boundary": {"preset": "zero"}},
    ], ids=["top-level-array", "grid-without-L"])
    def test_schema_violation_exits_2_with_error_json(self, tmp_path, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["solve", "--scenario", str(bad), "--out", str(out)]) == 2
        err = read_json(out / "error.json")
        assert err["error"] == "DataValidationError"
        assert len(err["violations"]) == 1

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
