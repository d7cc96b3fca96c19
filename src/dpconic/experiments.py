"""Batch experiment harness: three strategies, CSV + manifest reports.

One experiment = an application, a list of perturbation strategies and a
grid of adjacency values.  ``APPS`` is the one registry of applications:
for each it holds the sensitivity norm, the study's data, the adjacency
model, the Monte Carlo estimate settings and the point runner, and both
``run_experiment`` and the command line read it.  The svm, regression and
ellipsoid studies release a vector and share one runner: it draws all of a
point's released rows from one noise stream and hands them to the study's
score.

The points run one after another in the calling thread.  Every draw of a
run has its own seed in one ``dp.derive_seed`` tree under the config seed
(see ``run_experiment``), and every strategy at one alpha shares one noise
calibration (for the apps whose sensitivity is a Monte Carlo estimate, one
estimate per alpha), so a rerun with the same config file produces
byte-identical artifacts.  Failed points become rows with a status column
instead of aborting the study: a study solve that ends without an optimum
(``conic.NotOptimal``, e.g. an infeasible chance-constrained program at
high privacy) or a rule whose equality recourse conflicts with its query
(``ConflictingConstraints``) reads ``infeasible:<message>``, and any other
exception ``error:<type>:<message>``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .conic import ConicProgram, NotOptimal, Solution, Status, require_optimal
from .dp import (AdjacencyModel, NoiseSpec, Purpose, SensitivityReport,
                 calibrate_laplace, derive_seed, estimate_sensitivity, sample_noise)
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

STRATEGIES = ("input", "output", "program")

# the network of an opf config that names no dataset: its points, its
# adjacency and its CVaR sweep all read this one
DEFAULT_OPF_NETWORK = "triangle3"


@dataclass(frozen=True)
class ExperimentConfig:
    app: str
    strategies: tuple[str, ...] = ("output", "program")
    epsilon: float = 1.0
    delta: float = 0.0
    alphas: tuple[float, ...] = (1.0,)
    eta: float = 0.05
    cvar_q_grid: tuple[float, ...] = ()
    mc_samples: int = 1000
    seed: int = 0
    dataset: str | None = None
    output_dir: str = "results"

    def __post_init__(self):
        if self.app not in APPS:
            raise ValueError(f"unknown app {self.app!r}; choose from {tuple(APPS)}")
        bad = [s for s in self.strategies if s not in STRATEGIES]
        if bad or not self.strategies:
            raise ValueError(f"need strategies from {STRATEGIES}, got {self.strategies}")
        if not self.alphas:
            raise ValueError("alphas must not be empty")
        if self.epsilon <= 0 or not 0 < self.eta < 1 or not 0 <= self.delta < 1:
            raise ValueError("need epsilon > 0, eta in (0, 1) and delta in [0, 1)")
        if self.cvar_q_grid and self.app != "opf":
            raise ValueError("only an opf config runs a cvar_q_grid")
        if not all(0 < q < 1 for q in self.cvar_q_grid):
            raise ValueError(f"cvar_q_grid needs entries in (0, 1): {self.cvar_q_grid}")
        if self.mc_samples < 1:
            raise ValueError("mc_samples must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        # the app's data rejects a dataset it does not read, and its
        # adjacency an alpha it cannot read
        app = APPS[self.app]
        data = app.data(self.dataset, self.seed)
        for alpha in self.alphas:
            app.adjacency(data, alpha)

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


def _point(strategy, alpha, losses, violated, extra=None) -> PointResult:
    """An "ok" point: mean and 0.95-CVaR of the losses, share of violated
    draws; its manifest entry records how many losses it scored (``draws``)."""
    return PointResult(strategy, alpha, float(np.mean(losses)),
                       cvar_empirical(losses, 0.95), float(np.mean(violated)),
                       "ok", {"draws": len(losses), **(extra or {})})


# --- per-app data, studies and point runners -----------------------------------
#
# An app's data(dataset, seed) is the one reader of a config's dataset: it
# builds the data a run's adjacency models and study share, and raises
# ValueError on a dataset the app does not read.  study(cfg, data) builds
# what every point of a run shares: the base program and its solves.
# runner(cfg, strategy, alpha, seed, study, sensitivity): seed is the point's
# own; ``study()`` returns the run's study, built on the first call, and
# ``sensitivity()`` the SensitivityReport shared by every point at this
# alpha, estimated on the first call.


def _no_dataset(app: str, make: Callable[[int], object]):
    """The data entry of an app that reads no dataset: make(seed)."""
    def data(dataset, seed):
        if dataset is not None:
            raise ValueError(f"app {app!r} reads no dataset, got {dataset!r}")
        return make(seed)
    return data


def _opf_data(dataset, seed) -> "app_opf.PowerNetwork":
    """A bundled network's name or a network file; triangle3 by default."""
    name = dataset or DEFAULT_OPF_NETWORK
    try:
        return app_opf.load_network(name)
    except (OSError, KeyError) as exc:
        raise ValueError(f"dataset {name!r} is neither a bundled network nor "
                         f"a network file: {exc}") from None


@dataclass(frozen=True)
class _Regression:
    """A regression dataset and its adjacency law (model, alpha) -> AdjacencyModel."""

    model: "app_regression.RegressionModel"
    adjacency: Callable[..., AdjacencyModel]


def _regression_data(dataset, seed) -> _Regression:
    """``cubic`` (the default; circle-law universe, alpha unused) or ``wind``
    (alpha is the value-range fraction in (0, 1))."""
    if dataset in (None, "cubic"):
        return _Regression(app_regression.synthetic_cubic_data(n=100, seed=seed),
                           lambda model, alpha: app_regression.circle_law_adjacency(model))
    if dataset == "wind":
        speeds = np.linspace(0.5, 25.0, 40)
        model = app_regression.build_wind_curve_dataset(
            speeds, app_regression.synthetic_power_curve(speeds), 0.1, seed)
        return _Regression(model, app_regression.value_range_adjacency)
    raise ValueError(f"regression reads dataset 'cubic' or 'wind', got {dataset!r}")


def _run_simple_lp(cfg, strategy, alpha, seed, study, sensitivity):
    lp, base = study()   # the study is (SimpleLpStudy, its base solve)
    noise = calibrate_laplace(alpha, cfg.epsilon, k=1)
    draws = sample_noise(noise, derive_seed(seed, Purpose.EVAL), cfg.mc_samples)
    if strategy in ("output", "input"):
        # x* = lower, so the two strategies coincide on this program
        xs = lp.lower + draws.ravel()
    else:
        pv = app_simple.privatize_simple_lp(
            lp, cfg.epsilon, alpha, cfg.eta, derive_seed(seed, Purpose.PRIVATIZE))
        xs = pv.rule.evaluate_many(draws).ravel()
    return _point(strategy, alpha, lp.c * xs - lp.c * base.x[0], ~lp.in_box(xs))


@dataclass(frozen=True)
class _OpfStudy:
    """The config's network, its OPF program and base solve, and the cost
    range, which is None when the base solve is not Optimal."""

    net: "app_opf.PowerNetwork"
    program: ConicProgram
    base: Solution
    cost_range: tuple[float, float] | None


def _opf_study(cfg, net) -> _OpfStudy:
    program = app_opf.build_opf(net)
    base = solve(program)
    cost_range = (app_opf.opf_cost_range(net, base) if base.status == Status.OPTIMAL
                  else None)
    return _OpfStudy(net, program, base, cost_range)


def _run_opf(cfg, strategy, alpha, seed, study, sensitivity):
    st = study()
    net, program, base = st.net, st.program, st.base
    if base.status != Status.OPTIMAL:
        return PointResult(strategy, alpha, None, None, None,
                           f"base:{base.status.value}")
    lo, hi = st.cost_range
    S = cfg.mc_samples
    d1 = app_opf.opf_sensitivity_bound(net.c, alpha)
    if strategy == "output":
        noise = calibrate_laplace(d1, cfg.epsilon, k=1)
        draws = sample_noise(noise, derive_seed(seed, Purpose.EVAL), S).ravel()
        released = base.objective + draws
        return _point(strategy, alpha, draws, [
            not app_opf.released_cost_feasible(v, lo, hi) for v in released])
    if strategy == "input":
        costs, solved = app_opf.input_perturbation_costs(
            net, alpha, cfg.epsilon, S, derive_seed(seed, Purpose.INPUT))
        ok = solved & np.isfinite(costs)
        feasible = ok & (costs >= lo - 1e-7) & (costs <= hi + 1e-7)
        return _point(strategy, alpha, costs[ok] - base.objective, ~feasible)
    pv = app_opf.privatize_opf(net, cfg.epsilon, alpha, cfg.eta,
                               seed=derive_seed(seed, Purpose.PRIVATIZE))
    m = evaluate_rule_metrics(pv.rule, program, base, pv.noise, S,
                              derive_seed(seed, Purpose.EVAL))
    return _point(strategy, alpha, m.losses, ~m.feasible)


@dataclass(frozen=True)
class _VectorStudy:
    """A study that releases a vector: the first k entries of a nominal
    solution plus noise calibrated from the shared sensitivity estimate.

    ``nominal`` is the deterministic optimum ("output"); ``privatize(noise,
    seed)`` returns the privatized rule's xbar over the same variables
    ("program") and raises NotOptimal when that program has no optimum.
    ``score(rows, nominal)`` maps the (S, k) released rows to per-row
    (loss, violated).  ``delta`` is the Gaussian delta when the config
    leaves it at 0; at most ``draws`` rows are scored.
    """

    k: int
    delta: float
    nominal: np.ndarray
    privatize: Callable[[NoiseSpec, int], np.ndarray]
    score: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    draws: int


def _svm_study(cfg, data) -> _VectorStudy:
    train, tx, ty = data
    w, b, det_sol = app_svm.solve_svm(train)
    acc0 = app_svm.accuracy(w, b, tx, ty)
    chance = IndividualChance(eta_bar=cfg.eta)

    def score(rows, nominal):
        # accuracy drop of each released (w, b); a margin row is violated
        # when the nominal's hinge slack z no longer covers it
        drops = np.array([acc0 - app_svm.accuracy(r[:-1], r[-1], tx, ty)
                          for r in rows])
        margins = train.labels * (rows[:, :-1] @ train.features.T - rows[:, -1:])
        return drops, (margins - 1 + nominal[train.n + 1:] < -1e-9).any(axis=1)

    return _VectorStudy(
        k=train.n + 1, delta=0.0, nominal=det_sol.x[1:],  # (w, b, z), t dropped
        privatize=lambda noise, seed: app_svm.privatize_svm(
            train, noise, chance, seed=seed).rule.xbar,
        score=score, draws=200)


def _regression_study(cfg, data) -> _VectorStudy:
    model = data.model
    w_det, _ = app_regression.solve_regression(model)
    base_loss = model.loss(w_det)

    def score(rows, nominal):
        losses = np.array([model.loss(r) for r in rows]) - base_loss
        return losses, app_regression.monotonicity_violated(model, rows)

    return _VectorStudy(
        k=model.basis.dim, delta=0.01, nominal=w_det,
        privatize=lambda noise, seed: app_regression.privatize_regression(
            model, noise, eta=cfg.eta, seed=seed).rule.xbar,
        score=score, draws=500)


def _ellipsoid_study(cfg, inst) -> _VectorStudy:
    z_det, Y_det, _, _ = app_ellipsoid.solve_ellipsoid(inst)
    vol_det = app_ellipsoid.ellipsoid_volume(Y_det)

    def score(rows, nominal):
        zY = [app_ellipsoid.unpack_rule_vector(r) for r in rows]
        deficits = [vol_det - app_ellipsoid.ellipsoid_volume(Y) for _, Y in zY]
        outside = [not app_ellipsoid.contains_ellipsoid(inst, z, Y) for z, Y in zY]
        return np.array(deficits), np.array(outside)

    return _VectorStudy(
        k=app_ellipsoid.RULE_DIM, delta=0.1,
        nominal=app_ellipsoid.rule_vector(z_det, Y_det),
        privatize=lambda noise, seed: app_ellipsoid.privatize_ellipsoid(
            inst, noise, eta=cfg.eta, seed=seed).rule.xbar,
        score=score, draws=500)


def _run_vector(cfg, strategy, alpha, seed, study, sensitivity):
    """Point runner of the svm, regression and ellipsoid studies."""
    if strategy == "input":
        return PointResult(strategy, alpha, None, None, None, "unsupported")
    st = study()
    rep = sensitivity()
    delta = cfg.delta if cfg.delta > 0 else st.delta
    noise = rep.privacy_params(cfg.epsilon, delta).noise(st.k)
    nominal = (st.nominal if strategy == "output"
               else st.privatize(noise, derive_seed(seed, Purpose.PRIVATIZE)))
    draws = sample_noise(noise, derive_seed(seed, Purpose.EVAL),
                         min(cfg.mc_samples, st.draws))
    losses, violated = st.score(nominal[:st.k] + draws, nominal)
    return _point(strategy, alpha, losses, violated, {"sensitivity": rep.delta_p})


# --- the app registry ---------------------------------------------------------


@dataclass(frozen=True)
class App:
    """How the CLI and run_experiment estimate, calibrate and run one study.

    ``p`` is the sensitivity norm (1: Laplace noise, 2: Gaussian).
    ``data(dataset, seed)`` builds the study's data, and is the only reader
    of a config's dataset.  ``adjacency(data, alpha)`` builds the adjacency
    model the sensitivity is estimated on.  ``estimate`` is the experiment's
    (samples, gamma, beta), or None for the apps whose noise follows from
    an analytic bound.  ``study(cfg, data)`` builds what the points of one
    run share, once per run; ``run`` is the point runner.
    """

    p: int
    data: Callable[[str | None, int], object]
    adjacency: Callable[[object, float], AdjacencyModel]
    estimate: tuple[int, float, float] | None
    study: Callable[[ExperimentConfig, object], object]
    run: Callable[..., PointResult]


APPS: dict[str, App] = {
    "simple-lp": App(
        1, _no_dataset("simple-lp", lambda seed: app_simple.SimpleLpStudy()),
        app_simple.lower_bound_adjacency, None, lambda cfg, lp: (lp, lp.optimum()),
        _run_simple_lp),
    "opf": App(
        1, _opf_data, app_opf.demand_adjacency, None, _opf_study, _run_opf),
    "svm": App(
        1, _no_dataset("svm", lambda seed: app_svm.synthetic_gaussian_classes(
            m=100, seed=seed)),
        lambda data, alpha: app_svm.circle_law_adjacency(data[0]),
        (99, 0.1, 0.1), _svm_study, _run_vector),
    "regression": App(
        2, _regression_data, lambda data, alpha: data.adjacency(data.model, alpha),
        (199, 0.5, 0.1), _regression_study, _run_vector),
    # alpha is the fraction in (0, 1) each b_i ranges over
    "ellipsoid": App(
        2, _no_dataset("ellipsoid", lambda seed: app_ellipsoid.regular_polygon(
            5, radius=2.0)),
        app_ellipsoid.b_range_adjacency, (99, 0.1, 0.1), _ellipsoid_study, _run_vector),
}


def cvar_q_sweep(
    net: "app_opf.PowerNetwork",
    subset,
    alpha: float,
    epsilon: float,
    q_grid,
    eta: float = 0.01,
    seed: int = 0,
    base: Solution | None = None,
):
    """Risk sweep of the private subset-generation query on one network.

    q_grid entries are tail fractions (the risk dial): each point
    optimizes the mean of the worst q share of losses over 300 samples;
    rows report the mean, the 0.95-level CVaR and the VaR of those samples.
    The rule's privatization draws from derive_seed(seed, PRIVATIZE) and
    the samples from derive_seed(seed, CVAR); every q shares both.  base,
    when given, is the caller's solve of build_opf(net), which then is not
    solved again; NotOptimal is raised unless it is Optimal.  Returns rows
    (q, mean, cvar, var).
    """
    program = app_opf.build_opf(net)
    base = require_optimal(solve(program) if base is None else base, "base OPF")
    wq = np.zeros(net.n_nodes)
    wq[list(subset)] = 1.0
    noise = calibrate_laplace(alpha, epsilon, k=1)
    pp = privatize(program, noise, WeightedSumQuery(wq), VertexChance(eta=eta),
                   seed=derive_seed(seed, Purpose.PRIVATIZE))
    cvar_seed = derive_seed(seed, Purpose.CVAR)
    rows = []
    for q_tail in q_grid:
        spec = CVaRSpec(q=1.0 - q_tail, samples=300, loss=tuple(net.c))
        aug, layout = augment_with_cvar(pp, spec, seed=cvar_seed)
        sol = solve(aug, SolverSettings(tol=1e-7))
        if sol.status != Status.OPTIMAL:
            rows.append((q_tail, math.nan, math.nan, math.nan))
            continue
        rule = pp.extract_rule(sol.x[: pp.program.n])
        losses = rule.evaluate_many(layout["zetas"]) @ net.c - base.objective
        rows.append((q_tail, float(losses.mean()),
                     cvar_empirical(losses, 0.95),
                     var_empirical(losses, 0.95)))
    return rows


def run_experiment(config: ExperimentConfig) -> dict:
    """Execute all (strategy, alpha) points and write results.csv + manifest.json.

    Points run in order (strategies outer, alphas inner) in the calling
    thread.  Point ``i`` of that order has seed
    ``derive_seed(config.seed, POINT, i)``, which it splits between its
    privatization (``PRIVATIZE``), its Monte Carlo draws (``EVAL``) and
    its perturbed inputs (``INPUT``).  For svm, regression and
    ellipsoid, every strategy at ``alphas[j]`` shares one sensitivity
    estimate with seed ``derive_seed(config.seed, CALIBRATION, j)``: it
    depends only on ``config.seed`` and the alpha's position, never on the
    strategy list.  The estimate runs when the first point at that alpha
    needs it, so an "input" point (unsupported there) never pays for one,
    and it is recorded once under ``calibrations`` in the manifest.  An opf
    config's CVaR sweep has seed ``derive_seed(config.seed, SWEEP)``.
    """
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    app = APPS[config.app]
    data = app.data(config.dataset, config.seed)
    reports: dict[int, SensitivityReport] = {}
    built: list = []

    def study():
        if not built:
            built.append(app.study(config, data))
        return built[0]

    def shared_sensitivity(j):
        def get():
            if j not in reports:
                samples, gamma, beta = app.estimate
                adjacency = app.adjacency(data, config.alphas[j])
                reports[j] = estimate_sensitivity(
                    adjacency, app.p, samples, gamma, beta,
                    seed=derive_seed(config.seed, Purpose.CALIBRATION, j))
            return reports[j]
        return get

    points = [(s, j) for s in config.strategies for j in range(len(config.alphas))]
    results = []
    for idx, (strategy, j) in enumerate(points):
        alpha = config.alphas[j]
        try:
            res = app.run(config, strategy, alpha,
                          derive_seed(config.seed, Purpose.POINT, idx),
                          study, shared_sensitivity(j))
        except (NotOptimal, ConflictingConstraints) as exc:
            res = PointResult(strategy, alpha, None, None, None, f"infeasible:{exc}")
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
    if config.cvar_q_grid:
        subset = tuple(range(0, data.n_nodes, 2))
        sweep_rows = cvar_q_sweep(data, subset, config.alphas[0], config.epsilon,
                                  config.cvar_q_grid, eta=config.eta,
                                  seed=derive_seed(config.seed, Purpose.SWEEP),
                                  base=study().base)
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
            {"strategy": r.strategy, "alpha": r.alpha,
             "seed": derive_seed(config.seed, Purpose.POINT, i),
             "status": r.status, **r.extra}
            for i, r in enumerate(results)
        ],
        "calibrations": [
            {"alpha": config.alphas[j], "p": rep.p, "delta_p": rep.delta_p,
             "samples": rep.samples,
             "seed": derive_seed(config.seed, Purpose.CALIBRATION, j),
             "failures": list(rep.failures)}
            for j, rep in sorted(reports.items())
        ],
        "mc_samples": config.mc_samples,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True),
                                       encoding="utf-8")
    return {"results": results, "sweep": sweep_rows,
            "csv": str(csv_path), "manifest": str(out / "manifest.json")}
