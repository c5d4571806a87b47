"""Config validation, command execution, emission, exit codes."""

import csv
import json

import numpy as np
import pytest

from ibflow import cli, flow_engine
from ibflow.cli import (EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, ConfigError,
                        main, parse_config, run_command)
from ibflow.field_sampler import CovarianceFactorError

from conftest import J1_FIRST_ZERO


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

    def test_drift_spec_parsed(self):
        doc = atom_config(drift={"kind": "radial_rkhs", "rho": 1.0,
                                 "scale": 2.0, "resolution": 32})
        cfg = parse_config(doc)
        assert cfg.drift is not None and cfg.drift.kind == "radial_rkhs"
        assert cfg.echo["model"]["drift"]["scale"] == 2.0

    def test_drift_unknown_kind(self):
        doc = atom_config(drift={"kind": "warp"})
        with pytest.raises(ConfigError, match="drift"):
            parse_config(doc)


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
        assert report["aggregate"]["analytic_lambda"] == pytest.approx(-0.25)
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
        assert "slope" in report["aggregate"]

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
        echoed = {k: v for k, v in report["config"].items()
                  if k in ("model", "command", "params", "output", "seed")}
        run_command(command, parse_config(echoed), out_dir=tmp_path / "b",
                    quiet=True)
        assert ((tmp_path / "a" / f"{command}.csv").read_bytes()
                == (tmp_path / "b" / f"{command}.csv").read_bytes())


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
        def boom(cfg, out_dir, jobs):
            raise CovarianceFactorError(3, 17, "is not finite")

        monkeypatch.setitem(cli._RUNNERS, "covariance", boom)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(atom_config(params={"s_max": 2.0})))
        assert main(["covariance", "--config", str(path)]) == EXIT_NUMERIC
        assert "path 3, step 17" in capsys.readouterr().err

    @pytest.mark.parametrize("exc", [ValueError("argument must be finite"),
                                     np.linalg.LinAlgError("singular"),
                                     FloatingPointError("overflow")])
    def test_runtime_errors_exit_3_by_phase(self, tmp_path, monkeypatch,
                                            capsys, exc):
        # a ValueError raised while running is a runtime failure, not a
        # config error
        def boom(cfg, out_dir, jobs):
            raise exc

        monkeypatch.setitem(cli._RUNNERS, "covariance", boom)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(atom_config(params={"s_max": 2.0})))
        assert main(["covariance", "--config", str(path)]) == EXIT_NUMERIC
        assert "runtime failure" in capsys.readouterr().err
