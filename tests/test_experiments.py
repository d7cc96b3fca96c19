"""run_experiment: one shared sensitivity estimate per alpha, one noise
calibration per point, serial points.

A counting stub stands in for ``experiments.estimate_sensitivity``, so the
Monte Carlo estimate (hundreds of solves) is not run.  Its delta_p is small
enough for every privatized program to stay feasible and depends on the seed,
so points that estimated on their own would disagree.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from dpconic import experiments, solver
from dpconic.apps.metrics import Study
from dpconic.conic import Status
from dpconic.dp import (NoiseSpec, Purpose, SensitivityReport, calibrate_gaussian,
                        calibrate_laplace, derive_seed, sample_noise)
from dpconic.experiments import APPS, ExperimentConfig, run_experiment


@pytest.fixture
def estimates(monkeypatch):
    """Record each estimate_sensitivity call as (alpha, seed, p)."""
    calls = []

    def stub(adjacency, p, samples, gamma, beta, seed, **_):
        calls.append((adjacency.alpha, seed, p))
        return SensitivityReport(p=p, alpha=adjacency.alpha, gamma=gamma, beta=beta,
                                 samples=samples,
                                 delta_p=0.04 * (1 + seed % 97 / 1000),
                                 failures=(seed % 5,))

    monkeypatch.setattr(experiments, "estimate_sensitivity", stub)
    return calls


def _config(tmp_path, app, **kw):
    doc = dict(app=app, strategies=("output", "program"), mc_samples=20, seed=4,
               output_dir=str(tmp_path / "run"))
    doc.update(kw)
    return ExperimentConfig(**doc)


def _alphas_config(tmp_path, app, alphas, **kw):
    """A config at several alphas: the regression runs on its wind data,
    which reads alpha as its value-range fraction; its default cubic data
    reads none and takes one alpha."""
    if app == "regression":
        kw["dataset"] = "wind"
    return _config(tmp_path, app, alphas=alphas, **kw)


def _manifest(cfg):
    return json.loads((Path(cfg.output_dir) / "manifest.json").read_text())


def _outputs(cfg):
    run_experiment(cfg)
    return {name: (Path(cfg.output_dir) / name).read_bytes()
            for name in ("results.csv", "manifest.json")}


# (app, alphas): the regression (wind) and the ellipsoid read alpha as a
# fraction in (0, 1)
CASES = [("regression", (0.01, 0.025)), ("ellipsoid", (0.01, 0.02))]


@pytest.mark.parametrize("app,alphas", CASES)
def test_one_estimate_per_alpha(tmp_path, estimates, app, alphas):
    cfg = _alphas_config(tmp_path, app, alphas)
    out = run_experiment(cfg)
    assert [r.status for r in out["results"]] == ["ok"] * 4
    assert [alpha for alpha, _, _ in estimates] == list(alphas)
    seeds = [seed for _, seed, _ in estimates]
    assert len(set(seeds)) == len(alphas)
    cal = _manifest(cfg)["calibrations"]
    assert [c["alpha"] for c in cal] == list(alphas)
    assert [c["seed"] for c in cal] == seeds
    for c in cal:
        assert set(c) == {"alpha", "p", "delta_p", "samples", "drawn", "seed", "failures"}
        assert c["failures"] == [c["seed"] % 5]
        assert c["drawn"] == c["samples"] + 1


@pytest.mark.parametrize("app,alphas", CASES)
def test_strategies_at_one_alpha_share_the_calibration(tmp_path, estimates, app,
                                                       alphas):
    cfg = _alphas_config(tmp_path, app, alphas)
    run_experiment(cfg)
    manifest = _manifest(cfg)
    for cal in manifest["calibrations"]:
        at_alpha = [pt for pt in manifest["points"] if pt["alpha"] == cal["alpha"]]
        assert {pt["strategy"] for pt in at_alpha} == {"output", "program"}
        assert all(pt["sensitivity"] == cal["delta_p"] for pt in at_alpha)
    deltas = [cal["delta_p"] for cal in manifest["calibrations"]]
    assert deltas[0] != deltas[1]


def test_calibration_seed_ignores_the_strategy_list(tmp_path, estimates):
    run_experiment(_config(tmp_path / "a", "ellipsoid", alphas=(0.01, 0.02)))
    both = list(estimates)
    estimates.clear()
    run_experiment(_config(tmp_path / "b", "ellipsoid", alphas=(0.01, 0.02),
                           strategies=("input", "program")))
    assert estimates == both


def test_calibration_seeds_are_not_point_seeds(tmp_path, estimates):
    # eight points, so a seed derived as point seed + a small offset would
    # land on a later point's seed
    cfg = _alphas_config(tmp_path, "regression", (0.01, 0.02, 0.03, 0.04))
    run_experiment(cfg)
    manifest = _manifest(cfg)
    point_seeds = {pt["seed"] for pt in manifest["points"]}
    cal_seeds = {cal["seed"] for cal in manifest["calibrations"]}
    assert len(point_seeds) == 8 and len(cal_seeds) == 4
    assert not point_seeds & cal_seeds


@pytest.mark.parametrize("app", ["svm", "regression", "ellipsoid"])
def test_input_only_makes_no_estimate(tmp_path, estimates, app):
    # the svm reads no alpha, so it runs one
    alphas = (0.5,) if app == "svm" else (0.5, 0.75)
    cfg = _alphas_config(tmp_path, app, alphas, strategies=("input",))
    out = run_experiment(cfg)
    assert [r.status for r in out["results"]] == ["unsupported"] * len(alphas)
    assert estimates == []
    assert _manifest(cfg)["calibrations"] == []


def test_ellipsoid_alpha_outside_unit_interval_rejected(tmp_path):
    # the ellipsoid reads alpha as its b-range fraction; 1 is not one
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        _config(tmp_path, "ellipsoid", alphas=(0.01, 1.0))


def test_manifest_records_the_draws_each_point_scored(tmp_path, estimates):
    # every point scores mc_samples released rows, the 500 a regression
    # point once was capped at among them
    cfg = _config(tmp_path, "regression", mc_samples=600)
    run_experiment(cfg)
    points = _manifest(cfg)["points"]
    assert [pt["draws"] for pt in points] == [600, 600]
    assert _manifest(cfg)["mc_samples"] == 600


def test_analytic_apps_make_no_estimate(tmp_path, estimates):
    cfg = _config(tmp_path, "simple-lp", alphas=(0.05, 0.1))
    run_experiment(cfg)
    assert estimates == []
    assert _manifest(cfg)["calibrations"] == []


def test_rerun_is_byte_identical(tmp_path, estimates):
    cfg = _config(tmp_path, "regression")
    assert _outputs(cfg) == _outputs(cfg)


def test_svm_output_point_solves_the_svm_once(tmp_path, estimates, monkeypatch):
    calls = []
    real = experiments.app_svm.solve_svm

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments.app_svm, "solve_svm", counting)
    cfg = _config(tmp_path, "svm", strategies=("input", "output"))
    out = run_experiment(cfg)
    assert [r.status for r in out["results"]] == ["unsupported", "ok"]
    # the study is built once per run, not once per point
    assert len(calls) == 1


def test_opf_points_and_cvar_sweep_share_the_default_network(tmp_path, monkeypatch):
    # a config that names no dataset: every program of the run, the CVaR
    # sweep's among them, is built on the one default network
    nets = []
    real = experiments.app_opf.build_opf

    def recording(net):
        nets.append(net.to_json())
        return real(net)

    monkeypatch.setattr(experiments.app_opf, "build_opf", recording)
    cfg = _config(tmp_path, "opf", strategies=("output",), cvar_q_grid=(0.1,))
    assert cfg.dataset is None
    out = run_experiment(cfg)
    assert [r.status for r in out["results"]] == ["ok"]
    default = experiments.app_opf.bundled_network(experiments.DEFAULT_OPF_NETWORK)
    assert len(nets) >= 2 and set(nets) == {default.to_json()}
    (q, mean, cvar, var), = out["sweep"]
    assert q == 0.1 and np.isfinite([mean, cvar, var]).all()


def test_cvar_sweep_reads_the_config_eta(tmp_path):
    cfg = _config(tmp_path, "opf", strategies=("output",), dataset="triangle3",
                  eta=0.05, cvar_q_grid=(0.1, 0.5))
    out = run_experiment(cfg)
    net = experiments.app_opf.bundled_network("triangle3")
    seed = derive_seed(cfg.seed, Purpose.SWEEP)
    base_cost = solver.solve(experiments.app_opf.build_opf(net)).objective
    want = experiments.cvar_q_sweep(net, (0, 2), 1.0, 1.0, cfg.cvar_q_grid,
                                    eta=0.05, seed=seed, samples=cfg.mc_samples,
                                    base_cost=base_cost)
    assert out["sweep"] == want
    # the sweep's default eta gives other rows, so the test tells them apart
    assert experiments.cvar_q_sweep(net, (0, 2), 1.0, 1.0, cfg.cvar_q_grid,
                                    seed=seed, samples=cfg.mc_samples,
                                    base_cost=base_cost) != want


def test_cvar_sweep_solves_its_grid_in_one_batch(monkeypatch):
    # one noise coordinate: every q is the rule program plus one variable and
    # two rows, a thin dense LP on the reduced KKT path
    calls, real = [], experiments.solve_batch

    def recording(programs, settings=None):
        calls.append((list(programs), settings))
        return real(programs, settings)

    monkeypatch.setattr(experiments, "solve_batch", recording)
    net = experiments.app_opf.bundled_network("cvar6")
    rows = experiments.cvar_q_sweep(net, (0, 2, 4), 1.0, 1.0, (0.05, 0.1, 0.2),
                                    base_cost=9400.0)
    (programs, settings), = calls
    assert settings.tol == 1e-7 and len(programs) == len(rows) == 3
    for program in programs:
        assert (program.n, program.m) == (13, 61)
        layout = solver._Layout([program])
        assert layout.kkt is None and layout.reduced


def test_cvar_sweep_dial_steps_on_cvar6_at_alpha_50(monkeypatch):
    # the risk dial moves: a tail of 0.5 or more keeps a rule with
    # g = c'X near 1.94, a tail of 0.3 or less the rule with g = 0; out of
    # sample the mean rises and the 0.95-CVaR falls across that step
    seen, real_privatize, real_batch = {}, experiments.privatize, experiments.solve_batch

    def privatize(*args, **kwargs):
        seen["pp"] = real_privatize(*args, **kwargs)
        return seen["pp"]

    def solve_batch(programs, settings=None):
        seen["solutions"] = real_batch(programs, settings)
        return seen["solutions"]

    monkeypatch.setattr(experiments, "privatize", privatize)
    monkeypatch.setattr(experiments, "solve_batch", solve_batch)
    net = experiments.app_opf.bundled_network("cvar6")
    grid = (0.99, 0.9, 0.7, 0.5, 0.3, 0.1, 0.01)
    base_cost = solver.solve(experiments.app_opf.build_opf(net)).objective
    rows = experiments.cvar_q_sweep(net, (0, 2, 4), 50.0, 1.0, grid, seed=3,
                                    base_cost=base_cost)
    pp = seen["pp"]
    g = [float(net.c @ pp.extract_rule(sol.x[: pp.program.n]).X[:, 0])
         for sol in seen["solutions"]]
    assert g[:4] == pytest.approx([1.94] * 4, abs=0.01)
    assert g[4:] == pytest.approx([0.0] * 3, abs=1e-4)
    means, cvars = [r[1] for r in rows], [r[2] for r in rows]
    assert means[:4] == pytest.approx([1655.5] * 4, abs=0.1)
    assert cvars[:4] == pytest.approx([1963.8] * 4, abs=0.1)
    assert means[4:] == pytest.approx([1765.4] * 3, abs=0.1)
    assert cvars[4:] == pytest.approx(means[4:], abs=1e-3)


def test_non_optimal_study_solve_reads_infeasible(tmp_path):
    # the privatized simple LP at alpha 0.5 has no feasible rule: the noise
    # box is wider than the unit box; the row says so, not "error:"
    cfg = _config(tmp_path, "simple-lp", strategies=("program",), alphas=(0.5,),
                  mc_samples=20, seed=1)
    out = run_experiment(cfg)
    assert [r.status for r in out["results"]] == [
        "infeasible:privatized simple LP returned PrimalInfeasible"]


def test_simple_lp_base_is_solved_once_per_run(tmp_path, monkeypatch):
    # the study solves the base LP; each program point solves only its
    # privatized LP
    calls = []
    real = solver.solve_batch

    def counting(programs, settings=None):
        calls.append(len(programs))
        return real(programs, settings)

    monkeypatch.setattr(solver, "solve_batch", counting)
    cfg = _config(tmp_path, "simple-lp", strategies=("program",),
                  alphas=(0.05, 0.1), seed=1)
    out = run_experiment(cfg)
    assert [r.status for r in out["results"]] == ["ok"] * 2
    assert calls == [1] * (1 + 2)


def test_opf_base_is_solved_once_per_run(tmp_path, monkeypatch):
    # the study's base solve serves the cost range's lower end and the
    # CVaR sweep
    base = experiments.app_opf.build_opf(experiments.app_opf.bundled_network("cvar6"))
    key = (base.A.tobytes(), base.b.tobytes(), base.c.tobytes())
    calls = []
    real = solver.solve_batch

    def counting(programs, settings=None):
        calls.extend(p for p in programs if isinstance(p.A, np.ndarray)
                     and (p.A.tobytes(), p.b.tobytes(), p.c.tobytes()) == key)
        return real(programs, settings)

    monkeypatch.setattr(solver, "solve_batch", counting)
    monkeypatch.setattr(experiments, "solve_batch", counting)
    cfg = _config(tmp_path, "opf", dataset="cvar6", strategies=("output",),
                  cvar_q_grid=(0.1,), mc_samples=20, seed=1)
    out = run_experiment(cfg)
    assert [r.status for r in out["results"]] == ["ok"]
    assert np.isfinite(out["sweep"][0][1:]).all()
    assert len(calls) == 1


def test_infeasible_opf_base_reads_infeasible(tmp_path, monkeypatch):
    # every unit at its minimum of 10 exceeds the demand of 1: the base OPF
    # has no optimum, and every point says so, input ones included
    net = experiments.app_opf.PowerNetwork(
        "over", (1.0, 2.0), (1.0, 0.0), (10.0, 10.0), (10.0, 10.0), (5.0,),
        np.array([[0.0, -1.0]]), lines=((0, 1),))
    path = tmp_path / "over.json"
    path.write_text(net.to_json())
    cfg = _config(tmp_path, "opf", dataset=str(path),
                  strategies=("input", "output", "program"))
    calls = []
    real = solver.solve_batch

    def counting(programs, settings=None):
        calls.extend(programs)
        return real(programs, settings)

    monkeypatch.setattr(solver, "solve_batch", counting)
    monkeypatch.setattr(experiments, "solve_batch", counting)
    out = run_experiment(cfg)
    assert [r.status for r in out["results"]] == [
        "infeasible:base OPF returned PrimalInfeasible"] * 3
    # the failed study build is kept: its one base solve serves every point
    assert len(calls) == 1


def _run_output_point(app, cfg, delta_p, k):
    """The noise the runner calibrates for an output point of app at
    sensitivity delta_p, on a stub study whose nominal has k entries."""
    widths = []

    def score(rows, pv):
        widths.append(rows.shape[1])
        return rows[:, 0], np.zeros(len(rows), dtype=bool)

    study = Study(nominal=np.zeros(k), privatize=None, score=score)
    res = experiments._run_point(APPS[app], cfg, "output", 1.0, 0, lambda: study,
                                 lambda: delta_p, None)
    assert res.status == "ok" and widths == [k]
    return res.extra["noise"]


def test_the_runner_calibrates_the_noise():
    # Laplace: Delta_1 / epsilon; Gaussian: sqrt(2 ln(1.25/delta)) Delta_2 / epsilon
    cfg = ExperimentConfig(app="svm", epsilon=2.0, mc_samples=10)
    assert _run_output_point("svm", cfg, 4.0, 3) == ["laplace", 2.0]
    cfg = ExperimentConfig(app="regression", delta=0.01, mc_samples=10)
    family, scale = _run_output_point("regression", cfg, 0.46, 1)
    assert family == "gaussian" and abs(scale - 1.4294552716424302) < 1e-12


def test_the_runner_calibrates_from_the_estimate(tmp_path, monkeypatch):
    def stub(adjacency, p, samples, gamma, beta, seed, **_):
        return SensitivityReport(p=p, alpha=adjacency.alpha, gamma=gamma, beta=beta,
                                 samples=samples, delta_p=0.43)

    monkeypatch.setattr(experiments, "estimate_sensitivity", stub)
    cfg = _config(tmp_path, "svm", strategies=("output",), epsilon=2.0)
    run_experiment(cfg)
    manifest = _manifest(cfg)
    (cal,) = manifest["calibrations"]
    assert cal["delta_p"] == 0.43 and cal["samples"] == 99
    (point,) = manifest["points"]
    assert point["sensitivity"] == 0.43 and point["noise"] == ["laplace", 0.215]


def test_a_gaussian_config_without_delta_runs_at_the_app_delta(tmp_path, estimates):
    # the Gaussian mechanism has no delta 0; a p = 2 config resolves it once
    with pytest.raises(ValueError):
        calibrate_gaussian(0.46, 1.0, 0.0)
    # the ellipsoid reads alpha as its b-range fraction
    assert ExperimentConfig(app="ellipsoid", alphas=(0.5,)).delta == 0.1
    cfg = _config(tmp_path, "regression", strategies=("output",))
    assert cfg.delta == 0.01
    run_experiment(cfg)
    manifest = _manifest(cfg)
    assert manifest["config"]["delta"] == 0.01
    (point,) = manifest["points"]
    want = calibrate_gaussian(point["sensitivity"], 1.0, 0.01, k=2)
    assert point["noise"] == ["gaussian", want.scale]


# (app, alphas) whose output and program points all read "ok"
SHARED = [("opf", (1.0, 3.0)), ("regression", (0.01, 0.025))]


@pytest.mark.parametrize("app,alphas", SHARED)
def test_output_and_program_points_record_one_noise(tmp_path, estimates, app, alphas):
    cfg = _alphas_config(tmp_path, app, alphas)
    out = run_experiment(cfg)
    assert [r.status for r in out["results"]] == ["ok"] * 4
    points = _manifest(cfg)["points"]
    for alpha in alphas:
        output, program = (pt["noise"] for pt in points if pt["alpha"] == alpha)
        assert output == program
    assert points[0]["noise"] != points[1]["noise"]


# per app a noise scale no config calibrates, small enough for a feasible rule
ODD_SCALES = {"simple-lp": 0.0123, "opf": 7.77, "svm": 1.234, "regression": 0.777,
              "ellipsoid": 0.0123}


@pytest.mark.parametrize("app", sorted(ODD_SCALES))
def test_study_privatize_takes_the_noise_it_is_handed(app):
    cfg = ExperimentConfig(app=app, alphas=(0.5,))
    study = APPS[app].study(cfg, APPS[app].data(None, 0))
    family = "laplace" if APPS[app].p == 1 else "gaussian"
    noise = NoiseSpec(family, len(study.nominal), ODD_SCALES[app])
    pv = study.privatize(noise, 5)
    assert pv.noise is noise


def test_every_app_has_one_sensitivity_source():
    for app in APPS.values():
        assert (app.estimate is None) != (app.bound is None)


def _run_input_point(app, cfg, alpha, seed):
    """(result, rows, losses, violated) of an input point of app on its
    default data, scored by its real study."""
    data = APPS[app].data(None, 0)
    real = APPS[app].study(cfg, data)
    seen = []

    def score(rows, pv):
        seen.append((rows, *real.score(rows, pv)))
        return seen[-1][1:]

    def no_sensitivity():
        raise AssertionError("an input point read the sensitivity")

    study = dataclasses.replace(real, score=score)
    res = experiments._run_point(APPS[app], cfg, "input", alpha, seed, lambda: study,
                                 no_sensitivity, APPS[app].adjacency(data, alpha))
    (seen,) = seen
    return (res, *seen)


def test_opf_input_rows_are_the_solo_solves_of_the_perturbed_networks():
    # at alpha 100 a few perturbed networks have no feasible dispatch, so
    # both kinds of row are checked
    cfg = ExperimentConfig(app="opf", strategies=("input",), alphas=(100.0,),
                           mc_samples=40)
    res, rows, _, _ = _run_input_point("opf", cfg, 100.0, 11)
    assert res.status == "ok" and rows.shape == (40, 1)
    net = APPS["opf"].data(None, 0)
    noise = calibrate_laplace(100.0, 1.0, k=net.n_nodes)
    want = []
    for zeta in sample_noise(noise, derive_seed(11, Purpose.INPUT), 40):
        sol = solver.solve(experiments.app_opf.build_opf(net.with_demand(net.d + zeta)))
        want.append(sol.objective if sol.status == Status.OPTIMAL else np.nan)
    assert rows[:, 0].tobytes() == np.array(want).tobytes()
    assert 0 < np.isnan(want).sum() < 40


def test_input_points_calibrate_at_alpha_and_read_no_sensitivity(tmp_path, monkeypatch):
    def boom(data, alpha):
        raise AssertionError("an input point read the sensitivity bound")

    monkeypatch.setitem(APPS, "opf", dataclasses.replace(APPS["opf"], bound=boom))
    cfg = _config(tmp_path, "opf", strategies=("input",), alphas=(1.0, 3.0),
                  epsilon=2.0)
    out = run_experiment(cfg)
    assert [r.status for r in out["results"]] == ["ok"] * 2
    assert [pt["noise"] for pt in _manifest(cfg)["points"]] == [
        ["laplace", 0.5], ["laplace", 1.5]]


def test_simple_lp_input_row_past_upper_reads_nan_and_violated():
    # Laplace(1) input noise moves lower = 1 to upper = 2 or past it on
    # about 18 % of the rows; that perturbed LP has no box to solve over
    cfg = ExperimentConfig(app="simple-lp", strategies=("input",), alphas=(1.0,),
                           mc_samples=200)
    res, rows, losses, violated = _run_input_point("simple-lp", cfg, 1.0, 5)
    lp = APPS["simple-lp"].data(None, 0)
    lowers = lp.lower + sample_noise(NoiseSpec("laplace", 1, 1.0),
                                     derive_seed(5, Purpose.INPUT), 200)[:, 0]
    past = lowers >= lp.upper
    assert 0 < past.sum() < 200
    assert np.isnan(rows[past, 0]).all() and violated[past].all()
    assert np.allclose(rows[~past, 0], lowers[~past], atol=1e-6)
    assert len(losses) == res.extra["draws"] == (~past).sum()
    assert res.status == "ok" and np.isfinite(res.loss_mean)
    assert res.extra["noise"] == ["laplace", 1.0]


def test_point_whose_score_keeps_no_row_reads_violation_rate_1(tmp_path):
    # at alpha 1e5 no perturbed network has a feasible dispatch: the score
    # drops every input row, so the point has no loss to average
    cfg = _config(tmp_path, "opf", strategies=("input",), alphas=(1e5,))
    res, = run_experiment(cfg)["results"]
    assert res.status == "ok" and res.infeasibility == 1.0
    assert res.loss_mean is None and res.loss_cvar is None
    assert res.extra["draws"] == 0
    row = (tmp_path / "run" / "results.csv").read_text().splitlines()[1]
    assert row.split(",")[5:] == ["", "", "1", "ok"]
