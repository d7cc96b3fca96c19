"""Batch experiment harness: three strategies, CSV + manifest reports.

One experiment = an application, a list of perturbation strategies and a
grid of adjacency values.  The points run one after another in the calling
thread.  Every (strategy, alpha) point runs with its own deterministic seed
stream, and every strategy at one alpha shares one noise calibration (for the
apps whose sensitivity is a Monte Carlo estimate, one estimate per alpha), so
a rerun with the same config file produces byte-identical artifacts.  Failed
points (e.g. an infeasible chance-constrained program at high privacy) become
rows with a status column instead of aborting the study.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .conic import Status
from .dp import (SensitivityReport, calibrate_gaussian, calibrate_laplace,
                 estimate_sensitivity, sample_noise)
from .ldr import (ConflictingConstraints, IndividualChance, VertexChance,
                  WeightedSumQuery, privatize)
from .risk import CVaRSpec, augment_with_cvar, cvar_empirical, var_empirical
from .solver import SolverSettings, solve
from .apps import ellipsoid as app_ellipsoid
from .apps import opf as app_opf
from .apps import regression as app_regression
from .apps import simple_lp as app_simple
from .apps import svm as app_svm
from .apps.metrics import evaluate_rule_metrics

APPS = ("simple-lp", "opf", "svm", "regression", "ellipsoid")
STRATEGIES = ("input", "output", "program")

# stream id of a point's Monte Carlo evaluation
_EVAL_STREAM = 11


@dataclass(frozen=True)
class ExperimentConfig:
    app: str
    strategies: tuple[str, ...] = ("output", "program")
    epsilon: float = 1.0
    delta: float = 0.0
    alphas: tuple[float, ...] = (1.0,)
    eta: float = 0.05
    method: str = "vertex"  # vertex | individual
    cvar_q_grid: tuple[float, ...] = ()
    mc_samples: int = 1000
    seed: int = 0
    dataset: str | None = None
    output_dir: str = "results"

    def __post_init__(self):
        if self.app not in APPS:
            raise ValueError(f"unknown app {self.app!r}; choose from {APPS}")
        bad = [s for s in self.strategies if s not in STRATEGIES]
        if bad:
            raise ValueError(f"unknown strategies {bad}")
        if self.epsilon <= 0 or not 0 < self.eta < 1:
            raise ValueError("need epsilon > 0 and eta in (0, 1)")
        if self.mc_samples < 1:
            raise ValueError("mc_samples must be >= 1")
        if self.dataset and not _is_bundled(self.dataset) and not Path(self.dataset).exists():
            raise ValueError(f"dataset file {self.dataset} does not exist")

    @staticmethod
    def from_json(text: str, **overrides) -> "ExperimentConfig":
        doc = json.loads(text)
        doc.update({k: v for k, v in overrides.items() if v is not None})
        for key in ("strategies", "alphas", "cvar_q_grid"):
            if key in doc and doc[key] is not None:
                doc[key] = tuple(doc[key])
        return ExperimentConfig(**doc)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=1, sort_keys=True)


def _is_bundled(name: str) -> bool:
    try:
        app_opf.bundled_network(name)
        return True
    except FileNotFoundError:
        return False


@dataclass
class PointResult:
    strategy: str
    alpha: float
    loss_mean: float | None
    loss_cvar: float | None
    infeasibility: float | None
    status: str
    extra: dict = field(default_factory=dict)


def _fmt(v) -> str:
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return ""
    return f"{v:.10g}"


def _point_seed(base: int, index: int) -> int:
    return (base * 1_000_003 + index) % (2**63)


# --- per-alpha noise calibration -----------------------------------------------
#
# svm, regression and ellipsoid calibrate their noise from a Monte Carlo
# sensitivity estimate; opf and simple-lp use analytic bounds and have none.


def _ellipsoid_instance():
    return app_ellipsoid.regular_polygon(5, radius=2.0)


def _svm_sensitivity(cfg, alpha, seed) -> SensitivityReport:
    train, _, _ = app_svm.synthetic_gaussian_classes(m=100, seed=cfg.seed)
    return estimate_sensitivity(app_svm.circle_law_adjacency(train), p=1,
                                samples=99, gamma=0.1, beta=0.1, seed=seed)


def _regression_sensitivity(cfg, alpha, seed) -> SensitivityReport:
    model = app_regression.synthetic_cubic_data(n=100, seed=cfg.seed)
    return estimate_sensitivity(app_regression.circle_law_adjacency(model), p=2,
                                samples=199, gamma=0.5, beta=0.1, seed=seed)


def _ellipsoid_sensitivity(cfg, alpha, seed) -> SensitivityReport:
    gamma_frac = alpha if 0 < alpha < 1 else 0.01
    adj = app_ellipsoid.b_range_adjacency(_ellipsoid_instance(), gamma_frac)
    return estimate_sensitivity(adj, p=2, samples=99, gamma=0.1, beta=0.1,
                                seed=seed)


_SENSITIVITY = {
    "svm": _svm_sensitivity,
    "regression": _regression_sensitivity,
    "ellipsoid": _ellipsoid_sensitivity,
}


def _calibration_seed(base: int, alpha_index: int) -> int:
    # negative indices keep every estimate's Philox keys apart from the
    # points' keys (index >= 0), which the evaluation streams also use
    return _point_seed(base, -1 - alpha_index)


# --- per-app runners ----------------------------------------------------------
#
# runner(cfg, strategy, alpha, seed, sensitivity): ``sensitivity()`` returns
# the SensitivityReport shared by every point at this alpha, estimated on the
# first call.


def _run_simple_lp(cfg, strategy, alpha, seed, sensitivity):
    study = app_simple.SimpleLpStudy()
    base = study.optimum()
    noise = calibrate_laplace(alpha, cfg.epsilon, k=1)
    S = cfg.mc_samples
    if strategy in ("output", "input"):
        # x* = lower, so the two strategies coincide on this program
        draws = sample_noise(noise, seed, S, _EVAL_STREAM).ravel()
        xs = study.lower + draws
        losses = study.c * xs - study.c * base.x[0]
        infeas = float(1.0 - study.in_box(xs).mean())
    else:
        rule, noise, base = app_simple.privatize_simple_lp(
            study, cfg.epsilon, alpha, cfg.eta, seed)
        draws = sample_noise(noise, seed, S, _EVAL_STREAM)
        xs = rule.evaluate_many(draws).ravel()
        losses = study.c * xs - study.c * base.x[0]
        infeas = float(1.0 - study.in_box(xs).mean())
    return PointResult(strategy, alpha, float(losses.mean()),
                       cvar_empirical(losses, 0.95), infeas, "ok")


def _run_opf(cfg, strategy, alpha, seed, sensitivity):
    net = app_opf.load_network(cfg.dataset or "triangle3")
    program = app_opf.build_opf(net)
    base = solve(program)
    if base.status != Status.OPTIMAL:
        return PointResult(strategy, alpha, None, None, None,
                           f"base:{base.status.value}")
    lo, hi = app_opf.opf_cost_range(net)
    S = cfg.mc_samples
    d1 = app_opf.opf_sensitivity_bound(net.c, alpha)
    if strategy == "output":
        noise = calibrate_laplace(d1, cfg.epsilon, k=1)
        draws = sample_noise(noise, seed, S, _EVAL_STREAM).ravel()
        released = base.objective + draws
        infeas = float(np.mean([
            not app_opf.released_cost_feasible(v, lo, hi) for v in released]))
        losses = draws
        return PointResult(strategy, alpha, float(losses.mean()),
                           cvar_empirical(losses, 0.95), infeas, "ok")
    if strategy == "input":
        costs, solved = app_opf.input_perturbation_costs(
            net, alpha, cfg.epsilon, S, seed)
        ok = solved & np.isfinite(costs)
        feasible = ok & (costs >= lo - 1e-7) & (costs <= hi + 1e-7)
        infeas = float(1.0 - feasible.mean())
        losses = costs[ok] - base.objective
        return PointResult(strategy, alpha, float(losses.mean()),
                           cvar_empirical(losses, 0.95), infeas, "ok")
    try:
        pv = app_opf.privatize_opf(net, cfg.epsilon, alpha, cfg.eta,
                                   method=cfg.method, seed=seed)
    except (app_opf.InfeasiblePrivatization, ConflictingConstraints) as exc:
        return PointResult(strategy, alpha, None, None, None,
                           f"infeasible:{exc}")
    m = evaluate_rule_metrics(pv.rule, program, base, pv.noise, S, seed,
                              stream=_EVAL_STREAM)
    return PointResult(strategy, alpha, m.mean_loss,
                       cvar_empirical(m.losses, 0.95), m.infeasibility_rate, "ok")


def _run_svm(cfg, strategy, alpha, seed, sensitivity):
    if strategy == "input":
        return PointResult(strategy, alpha, None, None, None, "unsupported")
    train, tx, ty = app_svm.synthetic_gaussian_classes(m=100, seed=cfg.seed)
    w, b, det_sol = app_svm.solve_svm(train)
    acc0 = app_svm.accuracy(w, b, tx, ty)
    rep = sensitivity()
    noise = calibrate_laplace(rep.delta_p, cfg.epsilon, k=train.n + 1)
    if strategy == "output":
        center_w, center_b = w, b
        hinge_slack = det_sol.x[2 + train.n:]
    else:
        try:
            pv = app_svm.privatize_svm(train, noise,
                                       IndividualChance(eta_bar=cfg.eta), seed=seed)
        except RuntimeError as exc:
            return PointResult(strategy, alpha, None, None, None,
                               f"infeasible:{exc}")
        center_w, center_b = pv.w_nominal, pv.b_nominal
        hinge_slack = pv.rule.xbar[train.n + 1:]
    reps = min(cfg.mc_samples, 200)
    drops, violations = [], []
    for s in range(reps):
        d = sample_noise(noise, seed, 1, stream=_EVAL_STREAM + s)[0]
        wr, br = center_w + d[:-1], center_b + d[-1]
        drops.append(acc0 - app_svm.accuracy(wr, br, tx, ty))
        margins = train.labels * (train.features @ wr - br) - 1 + hinge_slack
        violations.append(bool((margins < -1e-9).any()))
    drops = np.asarray(drops)
    return PointResult(strategy, alpha, float(drops.mean()),
                       cvar_empirical(drops, 0.95), float(np.mean(violations)),
                       "ok", extra={"sensitivity": rep.delta_p})


def _run_regression(cfg, strategy, alpha, seed, sensitivity):
    if strategy == "input":
        return PointResult(strategy, alpha, None, None, None, "unsupported")
    model = app_regression.synthetic_cubic_data(n=100, seed=cfg.seed)
    w_det, _ = app_regression.solve_regression(model)
    rep = sensitivity()
    delta = cfg.delta if cfg.delta > 0 else 0.01
    noise = calibrate_gaussian(rep.delta_p, cfg.epsilon, delta, k=model.basis.dim)
    if strategy == "output":
        center = w_det
    else:
        try:
            pv = app_regression.privatize_regression(model, noise, eta=cfg.eta,
                                                     seed=seed)
        except RuntimeError as exc:
            return PointResult(strategy, alpha, None, None, None,
                               f"infeasible:{exc}")
        center = pv.w_nominal
    S = min(cfg.mc_samples, 500)
    infeas = app_regression.monotonicity_violation_rate(model, center, noise,
                                                        S, seed, _EVAL_STREAM)
    base_loss = model.loss(w_det)
    draws = sample_noise(noise, seed, S, _EVAL_STREAM)
    losses = np.array([model.loss(center + d) for d in draws]) - base_loss
    return PointResult(strategy, alpha, float(losses.mean()),
                       cvar_empirical(losses, 0.95), infeas, "ok",
                       extra={"sensitivity": rep.delta_p})


def _run_ellipsoid(cfg, strategy, alpha, seed, sensitivity):
    if strategy == "input":
        return PointResult(strategy, alpha, None, None, None, "unsupported")
    inst = _ellipsoid_instance()
    z_det, Y_det, _, _ = app_ellipsoid.solve_ellipsoid(inst)
    vol_det = app_ellipsoid.ellipsoid_volume(Y_det)
    rep = sensitivity()
    delta = cfg.delta if cfg.delta > 0 else 0.1
    noise = calibrate_gaussian(rep.delta_p, cfg.epsilon, delta,
                               k=app_ellipsoid.RULE_DIM)
    if strategy == "output":
        center = app_ellipsoid.rule_vector(z_det, Y_det)
    else:
        try:
            pv = app_ellipsoid.privatize_ellipsoid(inst, noise, eta=cfg.eta,
                                                   seed=seed)
        except RuntimeError as exc:
            return PointResult(strategy, alpha, None, None, None,
                               f"infeasible:{exc}")
        center = pv.rule.xbar
    S = min(cfg.mc_samples, 500)
    outside, deficits = [], []
    for s in range(S):
        d = sample_noise(noise, seed, 1, stream=_EVAL_STREAM + s)[0]
        zr, Yr = app_ellipsoid.unpack_rule_vector(center + d)
        outside.append(not app_ellipsoid.contains_ellipsoid(inst, zr, Yr))
        deficits.append(vol_det - app_ellipsoid.ellipsoid_volume(Yr))
    deficits = np.asarray(deficits)
    return PointResult(strategy, alpha, float(deficits.mean()),
                       cvar_empirical(deficits, 0.95), float(np.mean(outside)),
                       "ok", extra={"sensitivity": rep.delta_p})


_RUNNERS = {
    "simple-lp": _run_simple_lp,
    "opf": _run_opf,
    "svm": _run_svm,
    "regression": _run_regression,
    "ellipsoid": _run_ellipsoid,
}


def cvar_q_sweep(
    net: "app_opf.PowerNetwork",
    subset,
    alpha: float,
    epsilon: float,
    q_grid,
    eta: float = 0.01,
    opt_samples: int = 300,
    seed: int = 0,
    report_level: float = 0.95,
):
    """Risk sweep of the private subset-generation query on one network.

    q_grid entries are tail fractions (the risk dial): each point
    optimizes the mean of the worst q share of losses; rows report the mean
    and the fixed-level CVaR of the optimization samples plus the VaR.
    Returns rows (q, mean, cvar, var).
    """
    program = app_opf.build_opf(net)
    base = solve(program)
    if base.status != Status.OPTIMAL:
        raise RuntimeError("base OPF unsolvable")
    wq = np.zeros(net.n_nodes)
    wq[list(subset)] = 1.0
    noise = calibrate_laplace(alpha, epsilon, k=1)
    pp = privatize(program, noise, WeightedSumQuery(wq), VertexChance(eta=eta),
                   seed=seed)
    rows = []
    for q_tail in q_grid:
        spec = CVaRSpec(q=1.0 - q_tail, samples=opt_samples, loss=tuple(net.c))
        aug, layout = augment_with_cvar(pp, spec, seed=seed + 1)
        sol = solve(aug, SolverSettings(tol=1e-7))
        if sol.status != Status.OPTIMAL:
            rows.append((q_tail, math.nan, math.nan, math.nan))
            continue
        rule = pp.extract_rule(sol.x[: pp.program.n])
        losses = rule.evaluate_many(layout["zetas"]) @ net.c - base.objective
        rows.append((q_tail, float(losses.mean()),
                     cvar_empirical(losses, report_level),
                     var_empirical(losses, report_level)))
    return rows


def run_experiment(config: ExperimentConfig) -> dict:
    """Execute all (strategy, alpha) points and write results.csv + manifest.json.

    Points run in order (strategies outer, alphas inner) in the calling
    thread.  Point ``i`` of that order has seed
    ``(config.seed * 1_000_003 + i) mod 2**63``.  For svm, regression and
    ellipsoid, every strategy at ``alphas[j]`` shares one sensitivity
    estimate with seed ``(config.seed * 1_000_003 - 1 - j) mod 2**63``: it
    depends only on ``config.seed`` and the alpha's position, never on the
    strategy list, and no point's seed equals it.  The estimate runs when the first point at that alpha
    needs it, so an "input" point (unsupported there) never pays for one,
    and it is recorded once under ``calibrations`` in the manifest.
    """
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    runner = _RUNNERS[config.app]
    reports: dict[int, SensitivityReport] = {}

    def shared_sensitivity(j):
        def get():
            if j not in reports:
                reports[j] = _SENSITIVITY[config.app](
                    config, config.alphas[j], _calibration_seed(config.seed, j))
            return reports[j]
        return get

    points = [(s, j) for s in config.strategies for j in range(len(config.alphas))]
    results = []
    for idx, (strategy, j) in enumerate(points):
        alpha = config.alphas[j]
        try:
            res = runner(config, strategy, alpha, _point_seed(config.seed, idx),
                         shared_sensitivity(j))
        except Exception as exc:  # noqa: BLE001 - recorded, not fatal
            res = PointResult(strategy, alpha, None, None, None,
                              f"error:{type(exc).__name__}:{exc}")
        results.append(res)

    csv_path = out / "results.csv"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["app", "strategy", "alpha", "eps", "eta",
                     "loss_mean", "loss_cvar", "infeasibility", "status"])
    for res in results:
        writer.writerow([
            config.app, res.strategy, _fmt(res.alpha), _fmt(config.epsilon),
            _fmt(config.eta), _fmt(res.loss_mean), _fmt(res.loss_cvar),
            _fmt(res.infeasibility), res.status,
        ])
    csv_path.write_text(buf.getvalue(), encoding="utf-8", newline="")

    sweep_rows = None
    if config.cvar_q_grid and config.app == "opf":
        net = app_opf.load_network(config.dataset or "cvar6")
        subset = tuple(range(0, net.n_nodes, 2))
        sweep_rows = cvar_q_sweep(net, subset, config.alphas[0], config.epsilon,
                                  config.cvar_q_grid, seed=config.seed)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["q", "mean", "cvar05", "var"])
        for q, mean, cv, var in sweep_rows:
            writer.writerow([_fmt(q), _fmt(mean), _fmt(cv), _fmt(var)])
        (out / "cvar.csv").write_text(buf.getvalue(), encoding="utf-8", newline="")

    manifest = {
        "config": json.loads(config.to_json()),
        "version": __version__,
        "points": [
            {"strategy": r.strategy, "alpha": r.alpha, "seed": _point_seed(config.seed, i),
             "status": r.status, **r.extra}
            for i, r in enumerate(results)
        ],
        "calibrations": [
            {"alpha": config.alphas[j], "p": rep.p, "delta_p": rep.delta_p,
             "samples": rep.samples, "seed": _calibration_seed(config.seed, j),
             "failures": list(rep.failures)}
            for j, rep in sorted(reports.items())
        ],
        "mc_samples": config.mc_samples,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True),
                                       encoding="utf-8")
    return {"results": results, "sweep": sweep_rows,
            "csv": str(csv_path), "manifest": str(out / "manifest.json")}
