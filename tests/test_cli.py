import argparse
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from dpconic.cli import build_parser, main
from dpconic.experiments import APPS, ExperimentConfig
from dpconic.conic import build_simple_lp, program_from_json, program_to_json


@pytest.fixture()
def prog_file(tmp_path):
    path = tmp_path / "prog.json"
    path.write_text(program_to_json(build_simple_lp(1.0, 1.0, 2.0)))
    return path


class TestSolve:
    def test_solves_to_file(self, prog_file, tmp_path):
        out = tmp_path / "sol.json"
        rc = main(["solve", "--in", str(prog_file), "--out", str(out),
                   "--tol", "1e-8"])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["status"] == "Optimal"
        assert abs(doc["x"][0] - 1.0) < 1e-7

    def test_missing_file_is_validation_error(self, tmp_path):
        rc = main(["solve", "--in", str(tmp_path / "nope.json")])
        assert rc == 2

    @pytest.mark.parametrize("flag, value, message", [
        ("--tol", "0", "tol must be in (0, 1)"),
        ("--tol", "1.5", "tol must be in (0, 1)"),
        ("--max-iter", "0", "max_iter must be >= 1"),
    ])
    def test_bad_settings_are_validation_errors(self, prog_file, tmp_path, capsys,
                                                flag, value, message):
        out = tmp_path / "sol.json"
        rc = main(["solve", "--in", str(prog_file), "--out", str(out), flag, value])
        assert rc == 2 and not out.exists()
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_infeasible_program_exit_code(self, tmp_path):
        from dpconic.conic import ConeSpec, ConicProgram, nonneg

        bad = ConicProgram(np.array([[-1.0], [1.0]]), np.array([-2.0, 1.0]),
                           np.array([1.0]), ConeSpec([nonneg(2)]))
        path = tmp_path / "bad.json"
        path.write_text(program_to_json(bad))
        rc = main(["solve", "--in", str(path), "--out", str(tmp_path / "o.json")])
        assert rc == 3


class TestSensitivity:
    def test_sample_size_from_formula(self, tmp_path):
        out = tmp_path / "rep.json"
        rc = main(["sensitivity", "--app", "simple-lp", "--alpha", "0.5",
                   "--gamma", "0.1", "--beta", "0.1", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["S"] == 99
        assert 0 < doc["delta_p"] <= 0.5 + 1e-9

    def test_inf_alpha_accepted(self, tmp_path, capsys):
        # inf parses and reaches the estimate.  A pair whose shift is -inf
        # builds an invalid program: pair 0 fails, and so does pair 3, drawn
        # to replace it, which spends the failure budget of 3 samples
        out = tmp_path / "rep.json"
        rc = main(["sensitivity", "--app", "simple-lp", "--alpha", "inf",
                   "--gamma", "0.5", "--beta", "0.5", "--samples", "3",
                   "--out", str(out)])
        assert rc == 3 and not out.exists()
        assert "sample 3: invalid program: b has non-finite entries" in capsys.readouterr().err

    @pytest.mark.parametrize("app", sorted(APPS))
    def test_every_registered_app(self, tmp_path, app):
        out = tmp_path / "rep.json"
        # the ellipsoid reads alpha as its b-range fraction in (0, 1)
        alpha = "0.01" if app == "ellipsoid" else "1"
        rc = main(["sensitivity", "--app", app, "--alpha", alpha,
                   "--gamma", "0.5", "--beta", "0.5", "--samples", "3",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["p"] == APPS[app].p
        assert doc["S"] == 3
        # the alpha the adjacency read; the svm and cubic regression read none
        assert doc["alpha"] == (float("inf") if app in ("svm", "regression")
                                else float(alpha))

    def test_ellipsoid_alpha_outside_unit_interval_rejected(self, capsys):
        rc = main(["sensitivity", "--app", "ellipsoid", "--alpha", "1",
                   "--gamma", "0.5", "--beta", "0.5", "--samples", "3"])
        assert rc == 2
        assert "(0, 1)" in capsys.readouterr().err

    def test_zero_samples_rejected(self, tmp_path, capsys):
        # 0 is a sample count, not "unset": it reaches the sample-size check
        out = tmp_path / "rep.json"
        rc = main(["sensitivity", "--app", "simple-lp", "--alpha", "0.5",
                   "--gamma", "0.1", "--beta", "0.1", "--samples", "0",
                   "--out", str(out)])
        assert rc == 2 and not out.exists()
        assert "samples=0 below" in capsys.readouterr().err

    def test_bad_gamma_rejected(self):
        rc = main(["sensitivity", "--app", "simple-lp", "--alpha", "1",
                   "--gamma", "2.0", "--beta", "0.1"])
        assert rc == 2


class TestPrivatize:
    def test_emits_solvable_program(self, prog_file, tmp_path):
        out = tmp_path / "priv.json"
        rc = main(["privatize", "--in", str(prog_file), "--scale", "0.05",
                   "--eta", "0.05", "--out", str(out)])
        assert rc == 0
        prog = program_from_json(out.read_text())
        from dpconic.solver import solve

        sol = solve(prog)
        assert sol.status.value == "Optimal"
        # nominal solution backed off the private lower bound
        assert sol.x[0] > 1.05

    def test_seed_rejected(self, prog_file):
        # the rule program draws nothing: --seed is not an option
        with pytest.raises(SystemExit) as exc:
            main(["privatize", "--in", str(prog_file), "--scale", "0.05",
                  "--seed", "1"])
        assert exc.value.code == 2

    def test_beta_rejected(self, prog_file):
        # the vertex box has no confidence level: --beta is not an option
        with pytest.raises(SystemExit) as exc:
            main(["privatize", "--in", str(prog_file), "--scale", "0.05",
                  "--beta", "0.01"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("scale", ["inf", "nan", "0"])
    def test_scale_must_be_positive_and_finite(self, prog_file, tmp_path, capsys, scale):
        # the noise is rejected before any program is built from it
        out = tmp_path / "priv.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["privatize", "--in", str(prog_file), "--scale", scale,
                       "--out", str(out)])
        assert rc == 2 and not out.exists()
        assert "error: scale must be positive and finite" in capsys.readouterr().err


class TestProgramInput:
    """solve and privatize read --in through one reader: a file that cannot
    be read exits 2 with the reason, not a traceback."""

    @staticmethod
    def _run(command, path):
        extra = ["--scale", "0.05"] if command == "privatize" else []
        return main([command, "--in", str(path)] + extra)

    @pytest.mark.parametrize("command", ["solve", "privatize"])
    def test_missing_file(self, tmp_path, capsys, command):
        assert self._run(command, tmp_path / "nope.json") == 2
        assert "error: cannot read program:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "privatize"])
    def test_malformed_file(self, tmp_path, capsys, command):
        # a field missing, and a readable program whose b is one entry short
        doc = json.loads(program_to_json(build_simple_lp(1.0, 1.0, 2.0)))
        no_m = {key: v for key, v in doc.items() if key != "m"}
        short_b = dict(doc, b=doc["b"][:-1])
        for bad, reason in ((no_m, "'m'"), (short_b, "invalid program: b length 1 != m=2")):
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(bad))
            assert self._run(command, path) == 2
            assert f"error: cannot read program: {reason}" in capsys.readouterr().err


class TestExperiment:
    def _config(self, tmp_path, **kw):
        doc = {
            "app": "simple-lp",
            "strategies": ["output", "program"],
            "epsilon": 1.0,
            "alphas": [0.05],
            "eta": 0.05,
            "mc_samples": 2000,
            "seed": 3,
            "output_dir": str(tmp_path / "run"),
        }
        doc.update(kw)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        return path

    def test_runs_and_writes_reports(self, tmp_path):
        cfg = self._config(tmp_path)
        rc = main(["experiment", "--config", str(cfg)])
        assert rc == 0
        csv_text = (tmp_path / "run" / "results.csv").read_text().splitlines()
        assert csv_text[0].startswith("app,strategy,alpha,eps,eta,loss_mean")
        assert len(csv_text) == 3
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["config"]["app"] == "simple-lp"
        assert "version" in manifest

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = self._config(tmp_path)
        main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "results.csv").read_bytes() == \
            (tmp_path / "b" / "results.csv").read_bytes()

    def test_infeasibility_pattern(self, tmp_path):
        cfg = self._config(tmp_path, strategies=["output", "input", "program"],
                           mc_samples=5000)
        assert main(["experiment", "--config", str(cfg)]) == 0
        rows = (tmp_path / "run" / "results.csv").read_text().splitlines()[1:]
        rates = {r.split(",")[1]: float(r.split(",")[7]) for r in rows}
        assert 0.45 <= rates["output"] <= 0.55
        assert 0.45 <= rates["input"] <= 0.55
        assert rates["program"] <= 0.05 + 0.01

    def test_unexpected_error_is_not_infeasible(self, tmp_path, monkeypatch):
        from dpconic.apps import opf

        def broken(*args, **kwargs):
            raise KeyError("bug")

        monkeypatch.setattr(opf, "privatize_opf", broken)
        cfg = self._config(tmp_path, app="opf", strategies=["program"],
                           alphas=[1.0], mc_samples=10)
        assert main(["experiment", "--config", str(cfg)]) == 0
        rows = (tmp_path / "run" / "results.csv").read_text().splitlines()[1:]
        assert rows[0].split(",")[-1].startswith("error:KeyError")

    def test_bad_config_rejected(self, tmp_path):
        cfg = self._config(tmp_path, app="nonsense")
        assert main(["experiment", "--config", str(cfg)]) == 2

    def test_console_entry_point(self, prog_file, tmp_path):
        out = tmp_path / "sol.json"
        proc = subprocess.run(
            [sys.executable, "-m", "dpconic.cli", "solve", "--in",
             str(prog_file), "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(out.read_text())["status"] == "Optimal"


class TestAppRegistry:
    def test_app_choices_are_the_registry(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        app = next(a for a in sub.choices["sensitivity"]._actions if a.dest == "app")
        assert tuple(app.choices) == tuple(APPS)

    def test_config_accepts_the_registry(self):
        for app in APPS:
            # alpha 0.5 is inside the ellipsoid's (0, 1) b-range fractions
            assert ExperimentConfig(app=app, alphas=(0.5,)).app == app
        with pytest.raises(ValueError, match="unknown app"):
            ExperimentConfig(app="nonsense")

    def test_unknown_app_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["sensitivity", "--app", "nonsense", "--alpha", "1",
                  "--gamma", "0.5", "--beta", "0.5"])
        assert exc.value.code == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"app": "nonsense",
                                   "output_dir": str(tmp_path / "run")}))
        assert main(["experiment", "--config", str(cfg)]) == 2
