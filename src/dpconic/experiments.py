"""Batch experiment harness: three strategies, CSV + manifest reports.

One experiment = an application, a list of perturbation strategies and a
grid of adjacency values.  ``APPS`` is the one registry of applications:
for each it holds the sensitivity norm, the study's data, the adjacency
model, its one sensitivity source (estimate settings or an analytic bound)
and the study builder, and ``run_experiment`` and the command line read it.
Every app's study is one ``apps.metrics.Study`` (built by its module's
``experiment_study``), and every point runs through one runner: it
calibrates the point's noise, draws its released rows, output, input or
program, and hands them to the study's ``score``.

The points run one after another in the calling thread.  Every draw of a
run has its own seed in one ``dp.derive_seed`` tree under the config seed
(see ``run_experiment``), and every strategy at one alpha shares the
runner's one noise calibration (for the apps whose sensitivity is a Monte
Carlo estimate, one estimate per alpha), so a rerun with the same config
file produces byte-identical artifacts.  Failed points become rows with a
status column instead of aborting the study: a study solve that ends
without an optimum (``conic.NotOptimal``, e.g. an infeasible
chance-constrained program at high privacy) or a rule whose equality
recourse conflicts with its query (``ConflictingConstraints``) reads
``infeasible:<message>``, and any other exception ``error:<type>:<message>``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .conic import NotOptimal, Status, require_optimal
from .dp import (AdjacencyModel, Purpose, SensitivityReport, calibrate_gaussian,
                 calibrate_laplace, derive_seed, estimate_sensitivity, sample_noise)
from .ldr import (ConflictingConstraints, VertexChance, WeightedSumQuery, privatize,
                  release_rows)
from .risk import CVaRSpec, augment_with_cvar_k1, cvar_empirical, var_empirical
from .solver import SolverSettings, solve, solve_batch
from .apps import ellipsoid as app_ellipsoid
from .apps import opf as app_opf
from .apps import regression as app_regression
from .apps import simple_lp as app_simple
from .apps import svm as app_svm
from .apps.metrics import Study

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
        app = APPS[self.app]
        bad = [s for s in self.strategies if s not in STRATEGIES]
        if bad or not self.strategies:
            raise ValueError(f"need strategies from {STRATEGIES}, got {self.strategies}")
        if not self.alphas:
            raise ValueError("alphas must not be empty")
        if (not 0 < self.epsilon < math.inf or not 0 < self.eta < 1
                or not 0 <= self.delta < 1):
            raise ValueError("need epsilon in (0, inf), eta in (0, 1) and delta in [0, 1)")
        if app.p == 1 and self.delta != 0:
            raise ValueError(f"app {self.app!r} calibrates Laplace noise, which has "
                             f"no delta; got delta {self.delta}")
        if app.p == 2 and self.delta == 0:   # the delta the noise uses is recorded
            object.__setattr__(self, "delta", app.delta)
        if self.cvar_q_grid and self.app != "opf":
            raise ValueError("only an opf config runs a cvar_q_grid")
        if not all(0 < q < 1 for q in self.cvar_q_grid):
            raise ValueError(f"cvar_q_grid needs entries in (0, 1): {self.cvar_q_grid}")
        # a bool is an Integral, yet True would run as seed 1
        for name, low in (("seed", 0), ("mc_samples", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        # the app's data rejects a dataset it does not read, and its
        # adjacency an alpha it cannot read; an analytic bound and an input
        # point calibrate the noise at alpha, so there it must be finite; an
        # adjacency that reads no alpha (alpha inf) would estimate one
        # sensitivity per alpha alike
        data = app.data(self.dataset, self.seed)
        for alpha in self.alphas:
            adjacency = app.adjacency(data, alpha)
            if alpha == math.inf and (app.bound or adjacency.private is not None):
                raise ValueError(f"app {self.app!r} calibrates its noise at alpha, "
                                 f"which must be finite; got {self.alphas}")
            if adjacency.alpha == math.inf and len(self.alphas) > 1:
                raise ValueError(f"app {self.app!r} ignores alpha here; give one "
                                 f"alpha, got {self.alphas}")

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


def _write_csv(path: Path, header, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    path.write_text(buf.getvalue(), encoding="utf-8", newline="")


# --- per-app data and the point runner ------------------------------------------
#
# An app's data(dataset, seed) builds the data a run's adjacency models and
# study share, and raises ValueError on a dataset the app does not read.


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


def _input_rows(adjacency: AdjacencyModel, noise, seed, count, width) -> np.ndarray:
    """Row s: the released value of the dataset rebuilt around its private
    vector plus row s of one draw at seed, all solved by one solve_batch;
    NaN where that raises a ValueError or RuntimeError (say, NotOptimal)."""
    rows, built = np.full((count, width), np.nan), []
    for s, zeta in enumerate(sample_noise(noise, seed, count)):
        try:
            dataset = adjacency.with_private(adjacency.private + zeta)
            built.append((s, dataset, adjacency.program(dataset)))
        except (ValueError, RuntimeError):
            pass
    solutions = solve_batch([program for *_, program in built], adjacency.settings)
    for (s, dataset, _), sol in zip(built, solutions):
        try:
            rows[s] = adjacency.released(dataset, sol)
        except (ValueError, RuntimeError):
            pass
    return rows


def _run_point(app, cfg, strategy, alpha, seed, study, sensitivity,
               adjacency) -> PointResult:
    """One point: calibrate, draw the strategy's released rows from the
    point's seed and score them through the run's study (``study()``, built
    on the first call).  One calibration gives the noise, Laplace(Delta_1 /
    epsilon) for p = 1 or the Gaussian mechanism at the config's delta for
    p = 2: at ``sensitivity()`` over the nominal, or for an input point at
    alpha over the private vector of ``adjacency`` ("unsupported" where it
    names none).  Output rows are the nominal plus raw draws from
    ``derive_seed(seed, EVAL)``, program rows the privatization's releases
    from the same key (its privatize gets ``derive_seed(seed, PRIVATIZE)``),
    input rows ``_input_rows`` at ``derive_seed(seed, INPUT)``.  An "ok"
    point reads the mean and 0.95-CVaR of the losses (none where the score
    keeps no row, say every input row without an optimum) and the share of
    violated rows, and records the losses it scored (``draws``) and its
    noise (``[family, scale]``).
    """
    st = study()
    if strategy == "input" and adjacency.private is None:
        return PointResult(strategy, alpha, None, None, None, "unsupported")
    delta_p, k = ((adjacency.alpha, len(adjacency.private)) if strategy == "input"
                  else (sensitivity(), len(st.nominal)))
    noise = (calibrate_laplace(delta_p, cfg.epsilon, k) if app.p == 1
             else calibrate_gaussian(delta_p, cfg.epsilon, cfg.delta, k))
    count, pv = cfg.mc_samples, None
    if strategy == "output":
        rows = release_rows(st.nominal, noise, derive_seed(seed, Purpose.EVAL), count)
    elif strategy == "input":
        rows = _input_rows(adjacency, noise, derive_seed(seed, Purpose.INPUT), count,
                           len(st.nominal))
    else:
        pv = st.privatize(noise, derive_seed(seed, Purpose.PRIVATIZE))
        rows = pv.releases(derive_seed(seed, Purpose.EVAL), count)
    losses, violated = st.score(rows, pv)
    extra = {"draws": len(losses), "noise": [noise.family, noise.scale]}
    if app.estimate and strategy != "input":
        extra["sensitivity"] = delta_p
    mean, tail = ((float(np.mean(losses)), cvar_empirical(losses, 0.95)) if len(losses)
                  else (None, None))
    return PointResult(strategy, alpha, mean, tail, float(np.mean(violated)), "ok", extra)


# --- the app registry ---------------------------------------------------------


@dataclass(frozen=True)
class App:
    """How the CLI and run_experiment estimate, calibrate and run one study.

    ``p`` is the sensitivity norm (1: Laplace noise, 2: Gaussian), and
    ``delta`` the Gaussian delta a p = 2 config that gives none runs at.
    ``data(dataset, seed)`` builds the study's data, and is the only reader
    of a config's dataset.  ``adjacency(data, alpha)`` builds the adjacency
    model the sensitivity is estimated on and input points perturb.  An
    app has exactly one source of its sensitivity: ``estimate``, the
    experiment's (samples, gamma, beta) of a Monte Carlo estimate, or
    ``bound(data, alpha)``, an analytic Delta_p.  ``study(cfg, data)``
    builds the Study the points of one run share, once per run.
    """

    p: int
    data: Callable[[str | None, int], object]
    adjacency: Callable[[object, float], AdjacencyModel]
    study: Callable[[ExperimentConfig, object], Study]
    estimate: tuple[int, float, float] | None = None
    bound: Callable[[object, float], float] | None = None
    delta: float = 0.0


APPS: dict[str, App] = {
    "simple-lp": App(
        1, _no_dataset("simple-lp", lambda seed: app_simple.SimpleLpStudy()),
        app_simple.lower_bound_adjacency, app_simple.experiment_study,
        bound=lambda data, alpha: alpha),
    "opf": App(1, _opf_data, app_opf.demand_adjacency, app_opf.experiment_study,
               bound=lambda data, alpha: app_opf.opf_sensitivity_bound(data.c, alpha)),
    "svm": App(
        1, _no_dataset("svm", lambda seed: app_svm.synthetic_gaussian_classes(
            m=100, seed=seed)),
        lambda data, alpha: app_svm.circle_law_adjacency(data[0]),
        app_svm.experiment_study, estimate=(99, 0.1, 0.1)),
    "regression": App(
        2, _regression_data, lambda data, alpha: data.adjacency(data.model, alpha),
        lambda cfg, data: app_regression.experiment_study(cfg, data.model),
        estimate=(199, 0.5, 0.1), delta=0.01),
    # alpha is the fraction in (0, 1) each b_i ranges over
    "ellipsoid": App(
        2, _no_dataset("ellipsoid", lambda seed: app_ellipsoid.regular_polygon(
            5, radius=2.0)),
        app_ellipsoid.b_range_adjacency, app_ellipsoid.experiment_study,
        estimate=(99, 0.1, 0.1), delta=0.1),
}


def cvar_q_sweep(
    net: "app_opf.PowerNetwork",
    subset,
    alpha: float,
    epsilon: float,
    q_grid,
    eta: float = 0.01,
    seed: int = 0,
    base_cost: float | None = None,
):
    """Risk sweep of the private subset-generation query on one network.

    q_grid entries are tail fractions (the risk dial): each point
    optimizes the mean of the worst q share of losses over 300 samples;
    rows report the mean, the 0.95-level CVaR and the VaR of those samples.
    The samples draw from derive_seed(seed, CVAR); every q shares them and
    the one rule program, which draws nothing.  The noise has one
    coordinate, so each q's program is augment_with_cvar_k1's (the rule
    program plus one variable and two rows, with augment_with_cvar's
    optimum over those samples), and one solve_batch at tol 1e-7 solves
    the whole grid.
    base_cost, when given, is the caller's optimal cost of build_opf(net),
    which then is not solved again; otherwise NotOptimal is raised unless
    that solve is Optimal.  Returns rows (q, mean, cvar, var).
    """
    program = app_opf.build_opf(net)
    if base_cost is None:
        base_cost = require_optimal(solve(program), "base OPF").objective
    wq = np.zeros(net.n_nodes)
    wq[list(subset)] = 1.0
    noise = calibrate_laplace(alpha, epsilon, k=1)
    pp = privatize(program, noise, WeightedSumQuery(wq), VertexChance(eta=eta))
    cvar_seed = derive_seed(seed, Purpose.CVAR)
    built = [augment_with_cvar_k1(pp, CVaRSpec(q=1.0 - q_tail, samples=300,
                                               loss=tuple(net.c)), seed=cvar_seed)
             for q_tail in q_grid]
    solutions = solve_batch([aug for aug, _ in built], SolverSettings(tol=1e-7))
    rows = []
    for q_tail, (_, layout), sol in zip(q_grid, built, solutions):
        if sol.status != Status.OPTIMAL:
            rows.append((q_tail, math.nan, math.nan, math.nan))
            continue
        rule = pp.extract_rule(sol.x[: pp.program.n])
        losses = rule.evaluate_many(layout["zetas"]) @ net.c - base_cost
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
    its input noise (``INPUT``).  For svm, regression and
    ellipsoid, every strategy at ``alphas[j]`` shares one sensitivity
    estimate with seed ``derive_seed(config.seed, CALIBRATION, j)``: it
    depends only on ``config.seed`` and the alpha's position, never on the
    strategy list.  The estimate runs when the first point at that alpha
    needs it, so an "input" point, which never reads it, never pays for one,
    and it is recorded once under ``calibrations`` in the manifest.  An opf
    config's CVaR sweep has seed ``derive_seed(config.seed, SWEEP)``.
    """
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    app = APPS[config.app]
    data = app.data(config.dataset, config.seed)
    adjacencies = [app.adjacency(data, alpha) for alpha in config.alphas]
    reports: dict[int, SensitivityReport] = {}
    built: list = []

    def study():
        # a build that raised is kept too: every point reads its exception
        if not built:
            try:
                built.append(app.study(config, data))
            except Exception as exc:  # noqa: BLE001 - raised again below
                built.append(exc)
        if isinstance(built[0], Exception):
            raise built[0]
        return built[0]

    def sensitivity(j):
        if app.bound:
            return app.bound(data, config.alphas[j])
        if j not in reports:
            samples, gamma, beta = app.estimate
            reports[j] = estimate_sensitivity(
                adjacencies[j], app.p, samples, gamma, beta,
                seed=derive_seed(config.seed, Purpose.CALIBRATION, j))
        return reports[j].delta_p

    points = [(s, j) for s in config.strategies for j in range(len(config.alphas))]
    results = []
    for idx, (strategy, j) in enumerate(points):
        alpha = config.alphas[j]
        try:
            res = _run_point(app, config, strategy, alpha,
                             derive_seed(config.seed, Purpose.POINT, idx),
                             study, lambda: sensitivity(j), adjacencies[j])
        except (NotOptimal, ConflictingConstraints) as exc:
            res = PointResult(strategy, alpha, None, None, None, f"infeasible:{exc}")
        except Exception as exc:  # noqa: BLE001 - recorded, not fatal
            res = PointResult(strategy, alpha, None, None, None,
                              f"error:{type(exc).__name__}:{exc}")
        results.append(res)

    csv_path = out / "results.csv"
    _write_csv(csv_path, ["app", "strategy", "alpha", "eps", "eta",
                          "loss_mean", "loss_cvar", "infeasibility", "status"],
               ([config.app, res.strategy, _fmt(res.alpha), _fmt(config.epsilon),
                 _fmt(config.eta), _fmt(res.loss_mean), _fmt(res.loss_cvar),
                 _fmt(res.infeasibility), res.status] for res in results))

    sweep_rows = None
    if config.cvar_q_grid:
        subset = tuple(range(0, data.n_nodes, 2))
        sweep_rows = cvar_q_sweep(data, subset, config.alphas[0], config.epsilon,
                                  config.cvar_q_grid, eta=config.eta,
                                  seed=derive_seed(config.seed, Purpose.SWEEP),
                                  base_cost=float(study().nominal[0]))
        _write_csv(out / "cvar.csv", ["q", "mean", "cvar05", "var"],
                   ([_fmt(v) for v in row] for row in sweep_rows))

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
             "samples": rep.samples, "drawn": rep.samples + len(rep.failures),
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
