"""Config validation, command execution, emission, exit codes."""

import copy
import csv
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ibflow import cli, flow_engine
from ibflow.cli import (EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, ConfigError,
                        main, parse_config, run_command)
from ibflow.field_sampler import CovarianceFactorError, DriftField

from conftest import J1_FIRST_ZERO


SQUEEZE_PARAMS = {"R": 1.0, "delta": 0.1, "T1": 0.1, "T2": 0.2, "dt": 0.005,
                  "n_paths": 4, "n_boundary": 16}


def atom_config(command="covariance", params=None, seed=7, **model_extra):
    model = {"d": 2, "mu0": 0.0, "mu1": 1.0, "mu2": 0.0,
             "m_p": {"atoms": [[1.0, 1.0]], "density": []}}
    model.update(model_extra)
    return {"model": model, "command": command,
            "params": params if params is not None else {"s_max": 5.0},
            "seed": seed}


class TestParseConfig:
    def test_minimal_config_echoes_normalized_measures(self):
        cfg = parse_config(json.dumps(atom_config()))
        assert cfg.command == "covariance"
        assert cfg.seed == 7
        # atom weight rescaled so the measure carries mass d = 2
        assert cfg.echo["model"]["m_p"]["atoms"] == [[1.0, 2.0]]

    def test_weights_must_sum_to_one(self):
        doc = atom_config(mu1=0.5, mu2=0.6,
                          m_s={"atoms": [[1.0, 1.0]], "density": []})
        with pytest.raises(ConfigError, match="mu0\\+mu1\\+mu2 must equal 1"):
            parse_config(doc)

    def test_negative_atom_location_named(self):
        doc = atom_config()
        doc["model"]["m_p"]["atoms"] = [[-1.0, 1.0]]
        with pytest.raises(ConfigError, match="location.*> 0"):
            parse_config(doc)

    def test_unknown_field_rejected(self):
        doc = atom_config()
        doc["surprise"] = 1
        with pytest.raises(ConfigError, match="unknown field"):
            parse_config(doc)
        doc = atom_config()
        doc["params"]["wrong_knob"] = 2
        with pytest.raises(ConfigError, match="params.wrong_knob"):
            parse_config(doc)

    def test_seed_mandatory(self):
        doc = atom_config()
        del doc["seed"]
        with pytest.raises(ConfigError, match="seed"):
            parse_config(doc)
        doc = atom_config(seed=None)
        doc["seed"] = 1.5
        with pytest.raises(ConfigError, match="seed"):
            parse_config(doc)
        with pytest.raises(ConfigError, match="seed: must be >= 0"):
            parse_config(atom_config(seed=-1))

    def test_command_mismatch(self):
        with pytest.raises(ConfigError, match="config says"):
            parse_config(json.dumps(atom_config()), command="lyapunov")

    def test_unknown_command(self):
        with pytest.raises(ConfigError, match="unknown command"):
            parse_config(atom_config(command="frobnicate"))

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config("{nope")
        with pytest.raises(ConfigError, match="nested too deeply"):
            parse_config("[" * 100000 + "]" * 100000)

    def test_deeply_nested_values_named(self):
        # a message quoting a value deep enough to exhaust repr's
        # recursion must still come out as a config error
        deep = json.loads("[" * 900 + "1" + "]" * 900)
        doc = atom_config(command="squeeze", params=SQUEEZE_PARAMS,
                          drift={"kind": "custom_table",
                                 "axes": [[0.0, 1.0], [0.0, 1.0]],
                                 "values": deep})
        with pytest.raises(ConfigError, match="model.drift.values"):
            parse_config(doc)
        doc = atom_config(command=deep)
        with pytest.raises(ConfigError, match="unknown command"):
            parse_config(doc)
        doc = atom_config(seed=deep)
        with pytest.raises(ConfigError, match="seed"):
            parse_config(doc)
        doc = atom_config(params={"s_max": deep})
        with pytest.raises(ConfigError, match="params.s_max: must be a number"):
            parse_config(doc)

    def test_overflowing_measure_exit_2(self, tmp_path, capsys):
        doc = atom_config()
        doc["model"]["m_p"]["atoms"] = [[1e80, 1.0]]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["covariance", "--config", str(path),
                     "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "model.m_p: moment of order 8" in capsys.readouterr().err

    @pytest.mark.parametrize("atom,s_max", [(1.0, 1e160), (10.0, 1e308)])
    def test_overflowing_kernel_argument_exit_2(self, tmp_path, capsys, atom,
                                                s_max):
        # the quadrature squares s * node: past the float range it wrote
        # NaN columns, or failed while running without naming the field
        doc = atom_config(params={"s_max": s_max}, mu1=0.5, mu2=0.5,
                          m_s={"atoms": [[1.0, 1.0]], "density": []})
        doc["model"]["m_p"]["atoms"] = [[atom, 1.0]]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["covariance", "--config", str(path),
                     "--out", str(out)]) == EXIT_CONFIG
        assert "params.s_max: " in capsys.readouterr().err
        assert not out.exists()

    def test_physical_params_required(self):
        doc = atom_config(command="lyapunov", params={"T": 1.0})
        with pytest.raises(ConfigError, match="params.dt"):
            parse_config(doc)

    def test_numeric_ranges_checked(self):
        doc = atom_config(command="lyapunov",
                          params={"T": 1.0, "dt": 2.0, "n_pairs": 4})
        with pytest.raises(ConfigError, match="params.dt"):
            parse_config(doc)
        doc = atom_config(
            command="squeeze",
            params={"R": 1.0, "delta": 1.5, "T1": 0.1, "T2": 0.2,
                    "dt": 0.01, "n_paths": 2})
        with pytest.raises(ConfigError, match="delta"):
            parse_config(doc)

    @pytest.mark.parametrize("T,dt", [(1e12, 0.5), (1e3, 1e-5)])
    def test_step_count_capped(self, tmp_path, capsys, T, dt):
        # the step sizes and times are allocated before the first step: a
        # run of more than MAX_STEPS steps is refused while parsing
        doc = atom_config(command="lyapunov",
                          params={"T": T, "dt": dt, "n_pairs": 2})
        with pytest.raises(ConfigError, match="^params.dt: .* more than"):
            parse_config(doc)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["lyapunov", "--config", str(path),
                     "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "params.dt" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))
        doc["params"]["dt"] = T / cli.MAX_STEPS * 1.5
        assert parse_config(doc).params["dt"] == T / cli.MAX_STEPS * 1.5

    @pytest.mark.parametrize("field", ["n_boundary", "curve.n_vertices",
                                       "curve.positions", "x0"])
    def test_tracer_coordinates_capped(self, tmp_path, capsys, field):
        # a chunk's increment factor holds (N d)^2 doubles per path: a
        # tracer set of more than MAX_COORDS coordinates is refused while
        # parsing
        def doc_with(n):
            pts = [[0.01 * k, 0.0] for k in range(n)]
            if field == "n_boundary":
                return atom_config(command="squeeze",
                                   params=dict(SQUEEZE_PARAMS, n_boundary=n))
            if field == "x0":
                return atom_config(
                    command="track-control",
                    params={"rho": 1.0, "cs": [4.0], "T": 0.1, "dt": 0.05,
                            "n_paths": 2, "x0": pts})
            curve = ({"kind": "circle", "radius": 1.0, "n_vertices": n}
                     if field == "curve.n_vertices"
                     else {"kind": "points", "positions": pts})
            return atom_config(command="length-decay",
                               params={"T": 0.1, "dt": 0.05, "n_paths": 2,
                                       "curve": curve})

        limit = cli.MAX_COORDS // 2  # tracers in d = 2
        parse_config(doc_with(limit))
        doc = doc_with(limit + 1)
        with pytest.raises(ConfigError,
                           match=f"^params.{field}: must .*<= {limit}"):
            parse_config(doc)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main([doc["command"], "--config", str(path),
                     "--out", str(tmp_path)]) == EXIT_CONFIG
        assert f"params.{field}" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("field,limit,cheap", [
        ("squeeze:n_paths", cli.MAX_SERIES // 3, True),
        ("expand:n_paths", cli.MAX_SERIES // 3, True),
        ("length-decay:n_paths", cli.MAX_SERIES // 3, True),
        ("track-control:n_paths", cli.MAX_SERIES // 5, True),
        ("lyapunov:n_pairs", cli.MAX_SERIES, True),
        ("covariance:n_points", cli.MAX_POINTS, True),
        ("verify-identity:resolution", cli.MAX_RULE_NODES, True),
        ("verify-identity:resolution:d3", math.isqrt(cli.MAX_RULE_NODES),
         True),
        ("squeeze:model.drift.resolution", cli.MAX_DRIFT_NODES, False),
        ("squeeze:model.drift.resolution:d3",
         math.isqrt(cli.MAX_DRIFT_NODES), False),
    ])
    def test_run_size_capped(self, tmp_path, capsys, field, limit, cheap):
        # what a run allocates in proportion to these fields is bounded
        # while parsing, so an oversized run exits 2 before any output;
        # the sampling runs below take 2 steps at stride 1 (3 snapshots),
        # and track-control's two cs add 2 recorded values per path
        command, name, *dim = field.split(":")
        model = {"d": 3 if dim else 2, "mu0": 0.0, "mu1": 1.0, "mu2": 0.0,
                 "m_p": {"atoms": [[1.0, 1.0]], "density": []}}
        params = {
            "squeeze": dict(SQUEEZE_PARAMS, T2=0.2, dt=0.1, stride=1),
            "expand": dict(SQUEEZE_PARAMS, T2=0.2, dt=0.1, stride=1),
            "length-decay": {"T": 0.2, "dt": 0.1, "stride": 1, "n_paths": 2,
                             "curve": {"kind": "circle", "radius": 1.0,
                                       "n_vertices": 4}},
            "track-control": {"rho": 1.0, "cs": [4.0, 16.0], "T": 0.2,
                              "dt": 0.1, "stride": 1, "n_paths": 2,
                              "x0": [[0.5, 0.0]]},
            "lyapunov": {"T": 0.2, "dt": 0.1, "n_pairs": 2},
            "covariance": {"s_max": 1.0},
            "verify-identity": {"rhos": [1.0]},
        }[command]

        def doc_with(n):
            doc = {"model": copy.deepcopy(model), "command": command,
                   "params": dict(params), "seed": 1}
            if name == "model.drift.resolution":
                doc["model"]["drift"] = {"kind": "radial_rkhs", "rho": 1.0,
                                         "resolution": n}
            else:
                doc["params"][name] = n
            return doc

        where = name if name.startswith("model.") else f"params.{name}"
        if cheap:
            parse_config(doc_with(limit))
        doc = doc_with(limit + 1)
        with pytest.raises(ConfigError, match=f"^{where}: "):
            parse_config(doc)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main([command, "--config", str(path),
                     "--out", str(out)]) == EXIT_CONFIG
        assert where in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("T,dt,stride", [(0.2, 0.1, 1), (0.25, 0.1, 1),
                                             (0.3, 0.01, 7), (0.3, 0.01, 10),
                                             (0.05, 0.05, 3)])
    def test_snapshot_count_is_the_runs(self, T, dt, stride):
        # the series cap counts the snapshots a run will record
        model = parse_config(atom_config()).model
        rep = flow_engine.length_decay_experiment(
            model, flow_engine.PointCloud([[0.0, 0.0], [0.1, 0.0]]), T=T,
            dt=dt, n_paths=1, seed=1, snapshot_stride=stride)
        assert cli._snapshots(T, dt, stride) == rep.times.size

    @pytest.mark.parametrize("rho,code", [(250.0, EXIT_CONFIG),
                                          (199.99, EXIT_OK)])
    def test_check_condition_zero_search_bound(self, tmp_path, capsys, rho,
                                               code):
        # check_condition searches Bessel zeros up to a bound it cannot
        # pass; the validator computes that bound with the same function
        doc = atom_config(command="check-condition", params={"rho": rho})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["check-condition", "--config", str(path),
                     "--out", str(out), "--quiet"]) == code
        if code == EXIT_CONFIG:
            assert "params.rho" in capsys.readouterr().err
            assert not out.exists()
        else:
            report = json.loads((out / "check-condition_report.json")
                                .read_text())
            assert report["aggregate"]["zero_locations_checked"]

    def test_drift_spec_parsed(self):
        doc = atom_config(command="squeeze", params=SQUEEZE_PARAMS,
                          drift={"kind": "radial_rkhs", "rho": 1.0,
                                 "scale": 2.0, "resolution": 32})
        cfg = parse_config(doc)
        assert isinstance(cfg.drift, DriftField)
        assert cfg.echo["model"]["drift"] == {
            "kind": "radial_rkhs", "rho": 1.0, "scale": 2.0, "resolution": 32}
        # a radial drift naming no resolution echoes the one it ran with
        del doc["model"]["drift"]["resolution"]
        assert parse_config(doc).echo["model"]["drift"]["resolution"] == 256

    def test_drift_unknown_kind(self):
        doc = atom_config(command="squeeze", params=SQUEEZE_PARAMS,
                          drift={"kind": "warp"})
        with pytest.raises(ConfigError, match="model.drift.kind: must be one of"):
            parse_config(doc)

    @pytest.mark.parametrize("values,problem", [
        ([[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
         "strictly increasing"),
        ([[[0.0, 0.0]], [[0.0, 0.0]]], "table shape"),
    ])
    def test_drift_constructor_error_exit_2(self, tmp_path, capsys, values,
                                            problem):
        # what only the drift's constructor checks still exits 2 naming
        # model.drift, before any output
        doc = atom_config(command="squeeze", params=SQUEEZE_PARAMS,
                          drift={"kind": "custom_table",
                                 "axes": [[1.0, -1.0], [-1.0, 1.0]],
                                 "values": values})
        if problem == "table shape":
            doc["model"]["drift"]["axes"][0] = [-1.0, 1.0]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["squeeze", "--config", str(path),
                     "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "model.drift: " in err and problem in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["covariance", "check-condition",
                                         "verify-identity", "lyapunov",
                                         "track-control", "length-decay"])
    def test_drift_rejected_where_ignored(self, tmp_path, command, capsys):
        # only squeeze and expand apply model.drift; elsewhere it would be
        # echoed into the report without having run
        doc = atom_config(command=command,
                          drift={"kind": "linear",
                                 "matrix": [[-50.0, 0.0], [0.0, -50.0]]})
        with pytest.raises(ConfigError, match="model.drift: " + command):
            parse_config(doc)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main([command, "--config", str(path),
                     "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "model.drift" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_lyapunov_rejects_trivial_model(self, tmp_path, capsys):
        # a pure translation has no flow constants: rejected before any
        # pair runs, not after all of them
        doc = {"model": {"d": 2, "mu0": 1.0, "mu1": 0.0, "mu2": 0.0,
                         "allow_trivial": True},
               "command": "lyapunov",
               "params": {"T": 0.5, "dt": 0.01, "n_pairs": 4}, "seed": 1}
        with pytest.raises(ConfigError, match="^model: lyapunov"):
            parse_config(doc)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["lyapunov", "--config", str(path),
                     "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "model: lyapunov" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))


class TestRunCommands:
    def test_covariance_csv_schema_and_roundtrip(self, tmp_path):
        cfg = parse_config(atom_config(params={"s_max": 4.0, "n_points": 9}))
        code, files = run_command("covariance", cfg, out_dir=tmp_path, quiet=True)
        assert code == EXIT_OK
        csv_path = tmp_path / "covariance.csv"
        with open(csv_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["s", "B_L", "B_N", "B_PL", "B_PN", "B_SL", "B_SN"]
        assert len(rows) == 10
        # 17 significant digits: re-parsing and re-formatting is the identity
        for row in rows[1:]:
            for cell in row:
                assert cli._fmt(float(cell)) == cell

    def test_check_condition_zero_atom(self, tmp_path):
        doc = atom_config(command="check-condition", params={"rho": 1.0})
        doc["model"]["m_p"]["atoms"] = [[J1_FIRST_ZERO, 1.0]]
        cfg = parse_config(doc)
        code, files = run_command("check-condition", cfg, out_dir=tmp_path,
                                  quiet=True)
        assert code == EXIT_OK
        report = json.loads((tmp_path / "check-condition_report.json").read_text())
        assert report["aggregate"]["satisfied"] is False
        assert report["config"]["seed"] == 7

    def test_verify_identity_small(self, tmp_path):
        doc = atom_config(command="verify-identity",
                          params={"rhos": [0.5, 1.0], "resolution": 64})
        cfg = parse_config(doc)
        code, _ = run_command("verify-identity", cfg, out_dir=tmp_path, quiet=True)
        assert code == EXIT_OK
        report = json.loads((tmp_path / "verify-identity_report.json").read_text())
        assert report["aggregate"]["max_rel_gap"] < 1e-4

    def test_lyapunov_report_carries_analytics(self, tmp_path):
        doc = atom_config(command="lyapunov",
                          params={"T": 0.5, "dt": 0.01, "n_pairs": 4})
        cfg = parse_config(doc)
        code, _ = run_command("lyapunov", cfg, out_dir=tmp_path, quiet=True)
        assert code == EXIT_OK
        report = json.loads((tmp_path / "lyapunov_report.json").read_text())
        ag = report["aggregate"]
        assert ag["analytic_lambda"] == pytest.approx(-0.25)
        # two-point clouds: 4 x 4 increment covariances
        assert 1 <= ag["rank_min"] <= ag["rank_max"] <= 4
        assert 0.0 <= ag["dropped_trace_max"] < 1e-9
        rows = (tmp_path / "lyapunov.csv").read_text().strip().splitlines()
        assert rows[0] == "pair,estimate"
        assert len(rows) == 5

    def test_track_control_emits_slope(self, tmp_path, monkeypatch):
        doc = atom_config(
            command="track-control",
            params={"rho": 1.0, "cs": [4.0, 16.0], "T": 0.3, "dt": 0.01,
                    "n_paths": 4, "x0": [[0.5, 0.0]]})
        cfg = parse_config(doc)
        real, builds = cli.drift_radial_rkhs, []

        def counted(*args, **kwargs):
            builds.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "drift_radial_rkhs", counted)
        monkeypatch.setattr(flow_engine, "drift_radial_rkhs", counted)
        code, _ = run_command("track-control", cfg, out_dir=tmp_path, quiet=True)
        assert code == EXIT_OK
        assert len(builds) == 1  # one radial drift serves every c
        report = json.loads((tmp_path / "track-control_report.json").read_text())
        ag = report["aggregate"]
        assert "slope" in ag
        # one tracked point: its 2 x 2 increment covariance is the identity
        assert (ag["rank_min"], ag["rank_max"]) == (2, 2)
        assert ag["dropped_trace_max"] == 0.0

    def test_length_decay_circle_config(self, tmp_path):
        doc = atom_config(
            command="length-decay",
            params={"T": 0.2, "dt": 0.01, "n_paths": 2,
                    "curve": {"kind": "circle", "radius": 1.0, "n_vertices": 12}})
        cfg = parse_config(doc)
        code, _ = run_command("length-decay", cfg, out_dir=tmp_path, quiet=True)
        assert code == EXIT_OK
        rows = (tmp_path / "length-decay.csv").read_text().splitlines()
        assert rows[0] == "path,t,diam,length"

    def test_squeeze_rerun_bitwise_identical(self, tmp_path):
        doc = atom_config(
            command="squeeze",
            params={"R": 1.0, "delta": 0.1, "T1": 0.1, "T2": 0.2, "dt": 0.005,
                    "n_paths": 4, "n_boundary": 16},
            drift={"kind": "radial_rkhs", "rho": 1.0, "scale": 32.0,
                   "resolution": 64})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_command("squeeze", parse_config(doc), out_dir=out1, quiet=True)
        run_command("squeeze", parse_config(doc), out_dir=out2, quiet=True)
        assert ((out1 / "squeeze.csv").read_bytes()
                == (out2 / "squeeze.csv").read_bytes())
        rep1 = json.loads((out1 / "squeeze_report.json").read_text())
        rep2 = json.loads((out2 / "squeeze_report.json").read_text())
        rep1.pop("wall_clock"), rep2.pop("wall_clock")
        assert rep1 == rep2

    @pytest.mark.parametrize("command", ["squeeze", "expand"])
    def test_drift_kind_none_is_no_drift(self, tmp_path, command):
        # kind none runs, and reports, exactly as a model without a drift
        outs = []
        for drift in ({"kind": "none"}, None):
            doc = atom_config(command=command, params=SQUEEZE_PARAMS,
                              drift=drift)
            cfg = parse_config(doc)
            assert cfg.drift is None
            out = tmp_path / str(len(outs))
            run_command(command, cfg, out_dir=out, quiet=True)
            outs.append(out)
        a, b = outs
        assert ((a / f"{command}.csv").read_bytes()
                == (b / f"{command}.csv").read_bytes())
        rep_a, rep_b = (json.loads((o / f"{command}_report.json").read_text())
                        for o in outs)
        assert rep_a["aggregate"] == rep_b["aggregate"]
        assert "untilted" in rep_a["aggregate"]["note"]
        assert rep_a["config"]["model"]["drift"] == {"kind": "none"}

    @pytest.mark.parametrize("command,params", [
        ("lyapunov", {"T": 0.2, "dt": 0.01, "n_pairs": 3}),
        ("length-decay", {"T": 0.1, "dt": 0.01, "n_paths": 2,
                          "curve": {"kind": "circle", "radius": 1.0,
                                    "n_vertices": 8}}),
    ])
    def test_reports_are_rerunnable(self, tmp_path, command, params):
        # the embedded config echo parses and reproduces the same CSV
        doc = atom_config(command=command, params=params)
        run_command(command, parse_config(doc), out_dir=tmp_path / "a",
                    quiet=True)
        report = json.loads(
            (tmp_path / "a" / f"{command}_report.json").read_text())
        run_command(command, parse_config(report["config"]),
                    out_dir=tmp_path / "b",
                    quiet=True)
        assert ((tmp_path / "a" / f"{command}.csv").read_bytes()
                == (tmp_path / "b" / f"{command}.csv").read_bytes())


_MIXED_D2 = {"d": 2, "mu0": 0.2, "mu1": 0.5, "mu2": 0.3,
             "m_p": {"atoms": [[1.0, 1.0]], "density": [[0.5, 1.5, 0.4]]},
             "m_s": {"atoms": [[2.0, 0.7]], "density": []}}
_CONTRACT_CASES = {
    "covariance": ({"s_max": 80.0, "n_points": 9}, {"model": _MIXED_D2}),
    "covariance-trivial": ({"s_max": 2.0, "n_points": 5},
                           {"model": {"d": 2, "mu0": 1.0, "mu1": 0.0,
                                      "mu2": 0.0, "allow_trivial": True}}),
    "check-condition": ({"rho": 1.0}, {}),
    "verify-identity": ({"rhos": [0.5, 1.5], "resolution": 16},
                        {"model": _MIXED_D2}),
    "lyapunov": ({"T": 0.1, "dt": 0.05, "n_pairs": 3}, {}),
    "squeeze": (dict(SQUEEZE_PARAMS, n_paths=3, stride=3),
                {"drift": {"kind": "radial_rkhs", "rho": 1.0, "scale": 8.0,
                           "resolution": 32}}),
    "expand": (dict(SQUEEZE_PARAMS, n_paths=2, n_boundary=8),
               {"drift": {"kind": "custom_table",
                          "axes": [[-2.0, 2.0], [-2.0, 2.0]],
                          "values": [[[-1.0, -1.0], [-1.0, 1.0]],
                                     [[1.0, -1.0], [1.0, 1.0]]]}}),
    "track-control": ({"rho": 1.0, "cs": [4.0, 16.0], "T": 0.1, "dt": 0.05,
                       "n_paths": 2, "x0": [[0.5, 0.0], [0.0, 0.4]]}, {}),
    "length-decay": ({"T": 0.1, "dt": 0.05, "n_paths": 2,
                      "curve": {"kind": "circle", "radius": 0.3,
                                "n_vertices": 6}}, {}),
}


def _keys(node):
    """Every dict key anywhere in a parsed JSON document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield key
            yield from _keys(value)
    elif isinstance(node, list):
        for value in node:
            yield from _keys(value)


class TestReportContract:
    @pytest.mark.parametrize("case", sorted(_CONTRACT_CASES))
    def test_report_format_and_rerun(self, tmp_path, monkeypatch, case):
        # every command writes one report format; its config is the
        # validated document, which parses as read and reproduces the CSV
        command = case.split("-trivial")[0]
        params, extra = _CONTRACT_CASES[case]
        doc = atom_config(command=command, params=params)
        doc["model"] = extra.get("model", doc["model"])
        if "drift" in extra:
            doc["model"] = dict(doc["model"], drift=extra["drift"])
        results = []
        for name in ("squeeze_experiment", "length_decay_experiment"):
            def recorded(*args, _run=getattr(flow_engine, name), **kwargs):
                results.append(_run(*args, **kwargs))
                return results[-1]
            monkeypatch.setattr(flow_engine, name, recorded)
        run_command(command, parse_config(doc), out_dir=tmp_path / "a",
                    quiet=True)
        report = json.loads(
            (tmp_path / "a" / f"{command}_report.json").read_text())
        paths = ["paths"] if command in ("squeeze", "expand",
                                         "length-decay") else []
        assert list(report) == (["command", "config"] + paths
                                + ["aggregate", "wall_clock", "version"])
        assert report["command"] == command
        # the CSV carries every series; the report keeps only the per-path
        # rank numerics, in path order
        assert "times" not in set(_keys(report))
        if paths:
            (res,) = results
            numerics = report["paths"]
            assert list(numerics) == ["rank_min", "rank_max",
                                      "dropped_trace_max"]
            for values, want in zip(numerics.values(), res.numerics,
                                    strict=True):
                assert values == want.tolist()
                assert len(values) == params["n_paths"]
        if command in ("lyapunov", "squeeze", "expand", "track-control",
                       "length-decay"):
            ag = report["aggregate"]
            assert 1 <= ag["rank_min"] <= ag["rank_max"]
            assert 0.0 <= ag["dropped_trace_max"] < 1e-9
        cfg = parse_config(report["config"])
        assert cfg.echo == report["config"]
        run_command(command, cfg, out_dir=tmp_path / "b", quiet=True)
        assert ((tmp_path / "a" / f"{command}.csv").read_bytes()
                == (tmp_path / "b" / f"{command}.csv").read_bytes())


_JOBS_CASES = {
    "squeeze": (dict(SQUEEZE_PARAMS, T1=0.01, T2=0.02, dt=0.01, n_paths=65,
                     n_boundary=8, stride=1),
                {"kind": "radial_rkhs", "rho": 1.0, "scale": 8.0,
                 "resolution": 32}),
    "expand": (dict(SQUEEZE_PARAMS, T1=0.01, T2=0.03, dt=0.01, n_paths=66,
                    n_boundary=8), None),
    "lyapunov": ({"T": 0.03, "dt": 0.01, "n_pairs": 66}, None),
    "track-control": ({"rho": 1.0, "cs": [4.0, 16.0], "T": 0.02, "dt": 0.01,
                       "n_paths": 65, "x0": [[0.5, 0.0], [0.0, 0.4]],
                       "stride": 1}, None),
    "length-decay": ({"T": 0.02, "dt": 0.01, "n_paths": 67, "stride": 1,
                      "curve": {"kind": "circle", "radius": 0.3,
                                "n_vertices": 6}}, None),
}


class TestJobsInvariance:
    @pytest.mark.parametrize("command", sorted(_JOBS_CASES))
    def test_outputs_do_not_depend_on_jobs(self, tmp_path, command):
        # two chunks of paths, run by one worker and by two: every CSV byte
        # and every report field but wall_clock are the same
        params, drift = _JOBS_CASES[command]
        doc = atom_config(command=command, params=params)
        if drift is not None:
            doc["model"]["drift"] = drift
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        outputs = []
        for jobs in (1, 2):
            out = tmp_path / f"j{jobs}"
            assert main([command, "--config", str(path), "--out", str(out),
                         "--jobs", str(jobs), "--quiet"]) == EXIT_OK
            report = json.loads((out / f"{command}_report.json").read_text())
            del report["wall_clock"]
            outputs.append(((out / f"{command}.csv").read_bytes(), report))
        assert outputs[0] == outputs[1]


class TestMainExitCodes:
    def test_unknown_subcommand_usage_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "--config", "x.json"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert main(["covariance", "--config", str(tmp_path / "no.json")]) == 2

    def test_validation_error_exit_2(self, tmp_path, capsys):
        bad = atom_config(mu1=0.4)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["covariance", "--config", str(path)]) == EXIT_CONFIG
        assert "mu0+mu1+mu2" in capsys.readouterr().err

    def test_success_exit_0_and_summary(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(atom_config(params={"s_max": 2.0,
                                                       "n_points": 5})))
        assert main(["covariance", "--config", str(path),
                     "--out", str(tmp_path)]) == EXIT_OK
        assert "covariance:" in capsys.readouterr().out

    def test_quiet_suppresses_summary(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(atom_config(params={"s_max": 2.0,
                                                       "n_points": 5})))
        assert main(["covariance", "--config", str(path), "--out",
                     str(tmp_path), "--quiet"]) == EXIT_OK
        assert capsys.readouterr().out == ""

    def test_numeric_failure_exit_3(self, tmp_path, monkeypatch, capsys):
        def boom(cfg, jobs):
            raise CovarianceFactorError(3, 17, "is not finite")

        monkeypatch.setitem(cli._RUNNERS, "covariance", boom)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(atom_config(params={"s_max": 2.0})))
        assert main(["covariance", "--config", str(path)]) == EXIT_NUMERIC
        assert "path 3, step 17" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_overflowing_step_exit_3_names_path_and_step(self, tmp_path,
                                                         capsys, jobs):
        # a drift this steep carries every tracer past the largest double
        # in the first step; the second step's covariance rows are then
        # not finite, and the run stops at the first path
        doc = atom_config(command="squeeze",
                          params=dict(SQUEEZE_PARAMS, T1=1.0, T2=2.0, dt=1.0,
                                      n_paths=66, n_boundary=8),
                          drift={"kind": "linear",
                                 "matrix": [[1e308, 0.0], [0.0, 1e308]]})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main(["squeeze", "--config", str(path), "--out",
                         str(tmp_path), "--jobs", str(jobs)])
        assert code == EXIT_NUMERIC
        assert ("CovarianceFactorError: path 0, step 1: increment covariance "
                "is not finite") in capsys.readouterr().err

    def test_pair_collapse_exit_3_names_global_pair(self, tmp_path,
                                                     monkeypatch, capsys):
        # one Euler step of 70 pairs: with seed 6 the closest pair lies in
        # the second chunk (pairs 64-69), so a floor between the two
        # chunks' closest separations stops that pair alone
        doc = atom_config(command="lyapunov",
                          params={"T": 0.01, "dt": 0.01, "n_pairs": 70},
                          seed=6)
        model = parse_config(doc).model
        res = flow_engine.lyapunov_estimate(model, T=0.01, dt=0.01,
                                            n_pairs=70, seed=6)
        r = 1e-4 * np.exp(0.01 * np.array(res.pair_estimates))
        assert r[64:].min() < r[:64].min()
        pair = 64 + int(np.argmin(r[64:]))
        monkeypatch.setattr(flow_engine, "_COLLAPSE_FLOOR",
                            (r[64:].min() + r[:64].min()) / 2)
        for jobs in (1, 2):
            with pytest.raises(flow_engine.PairCollapseError) as exc:
                flow_engine.lyapunov_estimate(model, T=0.01, dt=0.01,
                                              n_pairs=70, seed=6, jobs=jobs)
            assert exc.value.pair_index == pair
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["lyapunov", "--config", str(path),
                     "--out", str(tmp_path)]) == EXIT_NUMERIC
        assert f"pair {pair} collapsed" in capsys.readouterr().err

    @pytest.mark.parametrize("exc", [ValueError("argument must be finite"),
                                     np.linalg.LinAlgError("singular"),
                                     FloatingPointError("overflow"),
                                     MemoryError("Unable to allocate")])
    def test_runtime_errors_exit_3_by_phase(self, tmp_path, monkeypatch,
                                            capsys, exc):
        # a ValueError raised while running is a runtime failure, not a
        # config error
        def boom(cfg, jobs):
            raise exc

        monkeypatch.setitem(cli._RUNNERS, "covariance", boom)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(atom_config(params={"s_max": 2.0})))
        assert main(["covariance", "--config", str(path)]) == EXIT_NUMERIC
        assert "runtime failure" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fuzzing main: any JSON document exits 0, 2 or 3 and never raises

_FIELDS = ["model", "command", "params", "output", "seed", "d", "mu0", "mu1",
           "mu2", "m_p", "m_s", "drift", "allow_trivial", "atoms", "density",
           "kind", "matrix", "rho", "scale", "resolution", "axes", "values",
           "s_max", "n_points", "tol", "rhos", "T", "dt", "n_pairs",
           "renorm_eps", "R", "delta", "T1", "T2", "n_paths", "n_boundary",
           "stride", "cs", "x0", "curve", "radius", "n_vertices", "center",
           "positions", "closed", "dir"]

# Magnitudes stay small (no tiny positive step, no huge count) so that an
# accepted config runs in well under a second; exit codes are the subject
_NUMBERS = st.one_of(
    st.sampled_from([0.25, 0.5, 1.0, 2.0, 3, 8]),
    st.integers(-3, 40), st.integers(-160, 160).map(lambda k: k / 8),
    st.sampled_from([-0.0, 1e300, -1e300, math.inf, -math.inf, math.nan]))
_WORDS = st.sampled_from(_FIELDS + list(cli.COMMANDS) + [
    "", "none", "linear", "radial_rkhs", "custom_table", "circle", "points"])
# deep enough that quoting one in a message would exhaust repr's recursion
_DEEP = st.integers(20, 500).map(lambda n: json.loads("[" * n + "]" * n))
_SCALARS = st.one_of(st.none(), st.booleans(), _NUMBERS, _WORDS,
                     st.text(max_size=3), _DEEP)
_JSON = st.recursive(
    _SCALARS,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.dictionaries(st.sampled_from(_FIELDS) | st.text(max_size=3), kids,
                        max_size=4)),
    max_leaves=10)

_ATOM = {"d": 2, "mu0": 0.0, "mu1": 1.0, "mu2": 0.0,
         "m_p": {"atoms": [[1.0, 1.0]], "density": []}}
_MIXED = {"d": 2, "mu0": 0.2, "mu1": 0.5, "mu2": 0.3,
          "m_p": {"atoms": [[1.0, 1.0]], "density": [[0.5, 1.5, 0.4]]},
          "m_s": {"atoms": [[2.0, 0.7]], "density": []}}
_TEMPLATES = [
    {"model": _MIXED, "command": "covariance",
     "params": {"s_max": 3.0, "n_points": 7}, "seed": 1},
    {"model": _ATOM, "command": "check-condition",
     "params": {"rho": 1.0, "tol": 1e-8}, "seed": 1},
    {"model": _MIXED, "command": "verify-identity",
     "params": {"rhos": [0.5], "resolution": 16}, "seed": 1},
    {"model": _ATOM, "command": "lyapunov",
     "params": {"T": 0.2, "dt": 0.05, "n_pairs": 2}, "seed": 1},
    {"model": dict(_ATOM, drift={"kind": "linear",
                                 "matrix": [[-1.0, 0.0], [0.0, -1.0]]}),
     "command": "squeeze",
     "params": {"R": 1.0, "delta": 0.1, "T1": 0.1, "T2": 0.2, "dt": 0.05,
                "n_paths": 2, "n_boundary": 8}, "seed": 1},
    {"model": dict(_ATOM, drift={"kind": "custom_table",
                                 "axes": [[0.0, 1.0], [0.0, 1.0]],
                                 "values": [[[0.0, 0.0], [0.0, 0.0]],
                                            [[0.0, 0.0], [0.0, 0.0]]]}),
     "command": "expand",
     "params": {"R": 1.0, "delta": 0.1, "T1": 0.1, "T2": 0.2, "dt": 0.05,
                "n_paths": 2, "n_boundary": 8}, "seed": 1},
    {"model": _ATOM, "command": "track-control",
     "params": {"rho": 1.0, "cs": [4.0], "T": 0.1, "dt": 0.05, "n_paths": 2,
                "x0": [[0.5, 0.0]]}, "seed": 1},
    {"model": _ATOM, "command": "length-decay",
     "params": {"T": 0.2, "dt": 0.05, "n_paths": 2,
                "curve": {"kind": "circle", "radius": 0.5, "n_vertices": 4}},
     "seed": 1},
    {"model": _ATOM, "command": "length-decay",
     "params": {"T": 0.2, "dt": 0.05, "n_paths": 2,
                "curve": {"kind": "points", "closed": True,
                          "positions": [[0.0, 0.0], [0.3, 0.1]]}},
     "seed": 1},
]


def _locations(node, prefix=()):
    """Every key path into a JSON document, containers first."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    yield prefix
    for key, child in items:
        yield prefix + (key,)
        yield from _locations(child, prefix + (key,))


@st.composite
def _mutated_configs(draw):
    """A valid config with up to three fields replaced, deleted or added;
    a number is often replaced by another number, so that many mutants
    pass validation and run."""
    doc = copy.deepcopy(draw(st.sampled_from(_TEMPLATES)))
    for _ in range(draw(st.integers(0, 3))):
        where = draw(st.sampled_from(sorted(set(_locations(doc)), key=repr)))
        if not where:
            return draw(_JSON)
        parent = doc
        for key in where[:-1]:
            parent = parent[key]
        old = parent[where[-1]]
        action = draw(st.sampled_from(["similar", "similar", "replace",
                                       "delete", "add"]))
        if action == "add" and isinstance(old, dict):
            old[draw(st.sampled_from(_FIELDS))] = draw(_JSON)
        elif action == "add" and isinstance(old, list):
            old.append(draw(_JSON))
        elif action == "delete":
            del parent[where[-1]]
        elif action == "similar" and isinstance(old, (int, float)):
            parent[where[-1]] = draw(_NUMBERS)
        elif action == "similar" and isinstance(old, str):
            parent[where[-1]] = draw(_WORDS)
        else:
            parent[where[-1]] = draw(_JSON)
    return doc


def _exit_code(doc, command) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return main([command, "--config", str(path),
                         "--out", str(Path(tmp) / "out"), "--quiet"])


class TestMainFuzz:
    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(doc=_mutated_configs(), command=st.sampled_from(cli.COMMANDS))
    def test_mutated_configs_exit_cleanly(self, doc, command):
        if isinstance(doc, dict) and doc.get("command") in cli.COMMANDS:
            command = doc["command"]
        assert _exit_code(doc, command) in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC)

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(doc=_JSON | st.text(max_size=12),
           command=st.sampled_from(cli.COMMANDS))
    def test_any_document_exits_cleanly(self, doc, command):
        assert _exit_code(doc, command) in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC)
