"""Preset construction, admissibility validation, and scenario loading."""

import math
import warnings

import numpy as np
import pytest

from conftest import shipped_document
from spe.errors import DataValidationError
from spe.fields import cumulative_primitive, lp_norm, make_uniform_grid, mean
from spe.scenarios import (
    builtin_scenario_path,
    parse_scenario,
    preset_boundary,
    preset_initial,
)

GRID = make_uniform_grid(10.0, 2000)


class TestPresetInitial:
    def test_bump_derivative_shape(self):
        u0 = preset_initial("bump-derivative", {"a": 1.0, "x0": 2.0, "sigma": 1.0}, GRID)
        assert abs(mean(u0)) <= 1e-14
        # analytic sup of the bump derivative: 96 / (25 sqrt 5)
        assert lp_norm(u0, math.inf) == pytest.approx(96 / (25 * math.sqrt(5)), abs=1e-3)
        P0 = cumulative_primitive(u0)
        assert float(np.max(P0.values)) == pytest.approx(1.0, abs=1e-3)

    def test_bump_support_rule(self):
        with pytest.raises(ValueError):
            preset_initial("bump-derivative", {"a": 1.0, "x0": 4.5, "sigma": 1.0}, GRID)
        with pytest.raises(ValueError):
            preset_initial("bump-derivative", {"a": 1.0, "x0": 0.5, "sigma": 1.0}, GRID)

    def test_sine_packet_zero_mean(self):
        u0 = preset_initial("sine-packet", {"a": 0.5, "x0": 1.0, "w": 2.0, "m": 2}, GRID)
        assert abs(mean(u0)) <= 1e-12
        assert lp_norm(u0, math.inf) <= 0.5 * (1 + 1e-6)

    def test_packet_support_rule(self):
        with pytest.raises(ValueError, match="packet support must stay inside"):
            preset_initial("sine-packet", {"a": 0.5, "x0": 4.0, "w": 2.0, "m": 2}, GRID)

    def test_riemann_step(self):
        u0 = preset_initial("riemann-test", {"left": 1.0, "right": 0.0, "jump": 0.5}, GRID)
        x = GRID.nodes
        assert np.all(u0.values[x < 0.5] == 1.0)
        assert np.all(u0.values[x >= 0.5] == 0.0)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset_initial("gaussian", {}, GRID)

    @pytest.mark.parametrize("preset, params", [
        ("bump-derivative", {"sigma": math.nan}),
        ("bump-derivative", {"x0": math.nan}),
        ("sine-packet", {"m": math.inf}),
        ("sine-packet", {"m": 2.5}),
    ])
    def test_nonfinite_or_fractional_parameters_rejected(self, preset, params):
        # every comparison with nan is false: checks are written so that it fails
        with pytest.raises(ValueError):
            preset_initial(preset, params, GRID)


class TestPresetBoundary:
    def test_zero(self):
        g = preset_boundary("zero", {})
        assert g(0.3) == 0.0
        assert g.sup_bound == 0.0

    def test_pulse_values(self):
        g = preset_boundary("pulse", {"a": 0.5, "tau": 1.0})
        assert g(0.5) == pytest.approx(0.5)
        assert g(2.0) == 0.0
        assert g.sup_bound == 0.5

    def test_constant(self):
        g = preset_boundary("constant", {"a": -0.25})
        assert g(1.7) == -0.25
        assert g.sup_bound == 0.25

    def test_unknown(self):
        with pytest.raises(ValueError):
            preset_boundary("ramp", {})

    def test_nan_duration_rejected(self):
        with pytest.raises(ValueError, match="tau"):
            preset_boundary("pulse", {"a": 0.5, "tau": math.nan})


class TestLoadScenario:
    def test_builtin_s1(self, s1_spec, s1_doc):
        assert s1_spec.name == "s1"
        assert s1_spec.grid.cell_count == 2000
        assert s1_spec.config.eps == 0.01
        assert "scheme" not in s1_doc  # the viscosity decides it
        assert s1_spec.conforming

    def test_round_trip(self, s1_spec, s1_doc):
        again = parse_scenario(s1_doc)
        assert again.name == s1_spec.name
        assert again.config == s1_spec.config
        assert np.array_equal(again.initial.values, s1_spec.initial.values)

    def test_riemann_flagged_nonconforming(self, riemann_spec):
        assert not riemann_spec.conforming
        assert riemann_spec.config.include_source is False

    @pytest.mark.parametrize("source", [{}, {"source_enabled": True}],
                             ids=["source-omitted", "source-true"])
    def test_consent_needs_the_source_off(self, source):
        # the sourced problem projects each time step to zero mean, so a
        # sourced run of the step datum would be a run of other data
        doc = {key: value for key, value in shipped_document("riemann").items()
               if key != "source_enabled"}
        with pytest.raises(DataValidationError) as excinfo:
            parse_scenario({**doc, **source})
        violations = excinfo.value.violations
        assert len(violations) == 2
        assert "nonzero mean" in violations[0]
        assert violations[1].endswith("'allow_nonconforming' needs 'source_enabled': false")

    def test_nonzero_mean_file_rejected(self, tmp_path):
        grid_doc = {"L": 1.0, "n": 8}
        nodes = np.linspace(0, 1, 9)
        csv = "x,u\n" + "\n".join(f"{x},1.0" for x in nodes)
        field_file = tmp_path / "ones.csv"
        field_file.write_text(csv)
        doc = {
            "name": "bad",
            "grid": grid_doc,
            "time": {"T": 1.0},
            "epsilon": 0.01,
            "initial": {"file": str(field_file)},
            "boundary": {"preset": "zero"},
        }
        with pytest.raises(DataValidationError, match="zero-mean"):
            parse_scenario(doc)

    def test_field_file_of_one_column_rejected(self, s1_doc, tmp_path):
        field_file = tmp_path / "u0.csv"
        field_file.write_text("x\n0.0\n0.5\n1.0\n")
        doc = {**s1_doc, "initial": {"file": str(field_file)}}
        with pytest.raises(DataValidationError, match="field file needs columns x,u"):
            parse_scenario(doc)

    @pytest.mark.parametrize("scale, accepted", [(1 + 9e-11, True), (1 + 9e-6, False)],
                             ids=["off-by-9e-10", "off-by-9e-5"])
    def test_field_file_nodes_within_absolute_1e9(self, s1_spec, s1_doc, tmp_path,
                                                 scale, accepted):
        # nodes off by up to 9e-5 (1.8% of a cell at n = 2000) are off the grid,
        # although numpy's default relative tolerance would take them
        xs = s1_spec.grid.nodes * scale
        field_file = tmp_path / "u0.csv"
        field_file.write_text("x,u\n" + "\n".join(
            f"{x!r},{u!r}" for x, u in zip(xs.tolist(), s1_spec.initial.values.tolist())))
        doc = {**s1_doc, "initial": {"file": str(field_file)}}
        if accepted:
            assert np.array_equal(parse_scenario(doc).initial.values, s1_spec.initial.values)
        else:
            with pytest.raises(DataValidationError, match="do not match the scenario grid"):
                parse_scenario(doc)

    def test_overflowing_file_datum_reports_l1(self, tmp_path):
        # the running primitive of a datum with infinite L1 norm overflows;
        # the violation is listed instead of a non-finite Field error, and
        # no numpy warning is printed
        nodes = np.linspace(0, 1, 9)
        field_file = tmp_path / "huge.csv"
        field_file.write_text("x,u\n" + "\n".join(f"{x},1e308" for x in nodes))
        doc = {
            "name": "huge",
            "grid": {"L": 1.0, "n": 8},
            "time": {"T": 1.0},
            "epsilon": 0.01,
            "initial": {"file": str(field_file)},
            "boundary": {"preset": "zero"},
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataValidationError) as excinfo:
                parse_scenario(doc)
        assert excinfo.value.violations == [
            "scenario <memory>: initial datum must be integrable (finite L1 norm)"]

    def test_overflowing_primitive_reports_violations(self, tmp_path):
        # ||u0||_1 is finite, but the running primitive adds u[0] + u[1]
        # before halving and overflows: both violations are listed, silently
        nodes = np.linspace(0, 1, 9)
        values = [1e308, 1e308] + [0.0] * 7
        field_file = tmp_path / "spike.csv"
        field_file.write_text(
            "x,u\n" + "\n".join(f"{x},{u}" for x, u in zip(nodes, values)))
        doc = {
            "name": "spike",
            "grid": {"L": 1.0, "n": 8},
            "time": {"T": 1.0},
            "epsilon": 0.01,
            "initial": {"file": str(field_file)},
            "boundary": {"preset": "zero"},
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataValidationError) as excinfo:
                parse_scenario(doc)
        violations = excinfo.value.violations
        assert len(violations) == 2
        assert "nonzero mean" in violations[0]
        assert violations[1] == (
            "scenario <memory>: initial primitive must be square integrable")

    def test_unbounded_file_boundary_rejected(self, s1_doc, tmp_path):
        boundary_file = tmp_path / "g.csv"
        boundary_file.write_text("t,g\n0.0,0.0\n1.0,inf\n")
        doc = {**s1_doc, "boundary": {"file": str(boundary_file)}}
        with pytest.raises(DataValidationError, match="essentially bounded"):
            parse_scenario(doc)

    def test_nan_boundary_value_names_the_file(self, s1_doc, tmp_path):
        # BoundaryData owns the bound rule; the loader adds where it was read
        boundary_file = tmp_path / "g.csv"
        boundary_file.write_text("t,g\n0,0\n0.5,nan\n1,0\n")
        doc = {**s1_doc, "boundary": {"file": str(boundary_file)}}
        with pytest.raises(DataValidationError) as excinfo:
            parse_scenario(doc)
        assert excinfo.value.violations == [
            f"{boundary_file}: boundary datum must be essentially bounded: "
            "sup bound nan not in [0, inf)"]

    def test_one_row_boundary_file_is_constant(self, s1_doc, tmp_path):
        boundary_file = tmp_path / "g.csv"
        boundary_file.write_text("t,g\n0.0,0.25\n")
        doc = {**s1_doc, "boundary": {"file": str(boundary_file)}}
        g = parse_scenario(doc).boundary
        assert (g(0.0), g(1.0), g.sup_bound) == (0.25, 0.25, 0.25)
        boundary_file.write_text("t,g\n")  # a header alone is no datum
        with pytest.warns(UserWarning, match="no data"):
            with pytest.raises(DataValidationError, match="needs columns t,g"):
                parse_scenario(doc)

    def test_data_files_are_read_by_their_header_names(self, s1_spec, s1_doc, tmp_path):
        # a boundary file headed g,t would load with its columns swapped,
        # g(0.05) = 0.25 where the file means 0.01
        boundary_file = tmp_path / "g.csv"
        boundary_file.write_text("g,t\n0,0\n0.1,0.5\n0.2,1\n")
        doc = {**s1_doc, "boundary": {"file": str(boundary_file)}}
        with pytest.raises(DataValidationError) as excinfo:
            parse_scenario(doc)
        assert excinfo.value.violations == [
            f"{boundary_file}: boundary file needs columns t,g, its header names 'g,t'"]
        # spaces around a name are stripped, and a third column is not read
        boundary_file.write_text(" t , g ,dudx0\n0,0,9\n0.5,0.1,9\n1,0.2,9\n")
        assert parse_scenario(doc).boundary(0.05) == pytest.approx(0.01)
        field_file = tmp_path / "u0.csv"
        field_file.write_text("u,x\n" + "\n".join(
            f"{u!r},{x!r}" for x, u in zip(s1_spec.grid.nodes.tolist(),
                                         s1_spec.initial.values.tolist())))
        doc = {**s1_doc, "initial": {"file": str(field_file)}}
        with pytest.raises(DataValidationError) as excinfo:
            parse_scenario(doc)
        assert excinfo.value.violations == [
            f"{field_file}: field file needs columns x,u, its header names 'u,x'"]

    @pytest.mark.parametrize("block, data, why", [
        ("boundary", b"t,g\n0,abc\n", "could not convert string 'abc'"),
        ("boundary", b"t,g\n0,0\n1,\xff\n", "can't decode byte 0xff"),
        ("initial", b"x,u\xff\n0,0\n", "can't decode byte 0xff"),
    ], ids=["boundary-not-a-number", "boundary-not-utf-8", "field-header-not-utf-8"])
    def test_unparsable_data_file_is_named(self, s1_doc, tmp_path, block, data, why):
        # with two data files, the message must say which one is bad
        data_file = tmp_path / "data.csv"
        data_file.write_bytes(data)
        kind = {"initial": "field", "boundary": "boundary"}[block]
        with pytest.raises(DataValidationError) as excinfo:
            parse_scenario({**s1_doc, block: {"file": str(data_file)}})
        [violation] = excinfo.value.violations
        assert violation.startswith(f"{data_file}: {kind} file cannot be parsed: ")
        assert why in violation

    @pytest.mark.parametrize("rows", [
        "1.0,0.0\n0.5,0.4\n0.0,0.0\n",
        "0.0,0.0\n0.05,0.3\n0.05,0.1\n0.2,0.0\n",
        "0.0,0.0\nnan,0.4\n0.2,0.0\n",
    ], ids=["decreasing", "repeated", "nan"])
    def test_boundary_file_times_must_increase(self, s1_doc, tmp_path, rows):
        # np.interp reads unordered or repeated times without complaint
        boundary_file = tmp_path / "g.csv"
        boundary_file.write_text("t,g\n" + rows)
        doc = {**s1_doc, "boundary": {"file": str(boundary_file)}}
        with pytest.raises(DataValidationError) as excinfo:
            parse_scenario(doc)
        assert excinfo.value.violations == [
            f"{boundary_file}: sample times t must be finite and strictly increasing"]

    def test_unbounded_boundary_rejected(self):
        doc = {
            "name": "bad-g",
            "grid": {"L": 10.0, "n": 64},
            "time": {"T": 1.0},
            "epsilon": 0.01,
            "initial": {"preset": "bump-derivative",
                        "params": {"a": 1.0, "x0": 2.0, "sigma": 1.0}},
            "boundary": {"preset": "constant", "params": {"a": 1e999}},
        }
        with pytest.raises(DataValidationError, match="bounded"):
            parse_scenario(doc)

    def test_missing_key_reported(self):
        with pytest.raises(DataValidationError, match="missing required key"):
            parse_scenario({"name": "x"})

    @pytest.mark.parametrize("change, match", [
        ({"grid": {"L": None, "n": 64}}, "'grid.L' must be a number"),
        ({"time": None}, "'time' must be a JSON object"),
        ({"time": {"T": 1.0, "snapshots": 0.5}}, "'time.snapshots' must be a list"),
        ({"epsilon": "0.01"}, "'epsilon' must be a number"),
        ({"boundary": {"preset": "pulse", "params": {"a": None}}},
         "'boundary.params' must be a JSON object of numbers"),
        ({"physical": {"k": 1.0}}, "missing required key 'physical.c2'"),
        ({"initial": {"file": 5}}, "'initial.file' must be a path string"),
        ({"grid": {"L": 10.0, "n": 64.5}}, "'grid.n' must be an integer"),
        ({"grid": {"L": 10.0, "n": 2**63}}, "'grid.n' must be an integer"),
        ({"grid": {"L": 10.0, "n": math.inf}}, "'grid.n' must be an integer"),
        ({"grid": {"L": 10**400, "n": 64}}, "'grid.L' must be a number"),
        ({"source_enabled": "false"}, "'source_enabled' must be true or false"),
        ({"allow_nonconforming": "false"}, "'allow_nonconforming' must be true or false"),
        # misspelled keys, presets and parameters are bad input, not defaults
        ({"source_enable": False}, "unknown key 'source_enable'"),
        ({"time": {"T": 1.0, "snapshot": [0.5]}}, "unknown key 'time.snapshot'"),
        ({"initial": {"preset": "bump-derivative", "params": {"sigm": 0.5}}},
         "'initial.params' has unknown parameter 'sigm'"),
        ({"boundary": {"preset": "constant", "params": {"a": 0.5, "tau": 1.0}}},
         "'boundary.params' has unknown parameter 'tau'"),
        ({"initial": {"preset": "bump-derivative", "file": "u0.csv"}},
         "'initial' needs exactly one of 'preset' and 'file'"),
        ({"epsilon": "0.01", "boundary": {"preset": "ramp"}},
         "'epsilon' must be a number.*; .*unknown boundary preset 'ramp'"),
    ])
    def test_schema_violations_reported(self, s1_doc, change, match):
        with pytest.raises(DataValidationError, match=match):
            parse_scenario({**s1_doc, **change})

    def test_nan_snapshot_time_rejected(self, s1_doc):
        # a nan snapshot would never be reached, and every later one skipped
        doc = {**s1_doc, "time": {"T": 1.0, "snapshots": [math.nan, 0.5]}}
        with pytest.raises(ValueError, match="snapshot times"):
            parse_scenario(doc)

    def test_builtin_paths_exist(self):
        for name in ("s1", "s2", "riemann"):
            assert builtin_scenario_path(name).exists()
