"""The three benchmark workloads.

Each workload makes its inputs from the seed (``prepare``) and runs one
round of operations (``run_round``).  A run repeats the same round, so every
round of a run must give the same outputs bit for bit.  An operation that
fails (a non-Optimal status, a dropped sensitivity pair, an experiment point
whose status is not ``ok``) stays in the round and is counted as failed; it
is never re-seeded or dropped.  Checks of an operation's output run after the
round, outside its timing, through the ``check`` callable each operation
carries.

Why these three: each optimisable layer does most of its work in one
workload and little in another.

* ``privatize-large``: two calls on large transformed programs (the SVM
  and ellipsoid studies).  The dense KKT factor, per-block cone algebra and
  hand assembly do almost all the work; sensitivity and experiments do none.
* ``sensitivity-small``: ``estimate_sensitivity`` over five adjacency models
  whose programs have 1 to 6 variables, about 900 solves a round.
  Per-call solver overhead, the base-program builders and the ``dp`` loop
  do the work; factoring such tiny KKT systems costs almost nothing.
* ``experiment-mix``: ``run_experiment`` on two pinned configs.  Only this
  workload runs the orchestration, per-point sensitivity re-estimation, the
  input-perturbation loop, Monte Carlo evaluation and CVaR augmentation.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from dpconic import Status, dp, experiments, kkt_report
from dpconic.apps import ellipsoid, opf, simple_lp, svm
from dpconic.dp import (
    SolveFailure,
    calibrate_gaussian,
    calibrate_laplace,
    rng_stream,
    sample_noise,
)
from dpconic.experiments import ExperimentConfig
from dpconic.ldr import IndividualChance

# --- privatize-large: the SVM and ellipsoid studies at their own settings ----
# scripts/run_svm_study.py: data seed 7, m=100, epsilon 1, eta_bar 0.05; its
# estimate_sensitivity(p=1, S=99, gamma=beta=0.1, seed=8) gives this l1 value.
SVM_DATA_SEED = 7
SVM_DELTA_1 = 29.931647924673214
SVM_ETA_BAR = 0.05
# scripts/run_ellipsoid_study.py: pentagon of radius 2, gamma 0.01, delta 0.1,
# eta 0.10; its estimate_sensitivity(p=2, S=99, seed=12) gives this l2 value.
ELL_DELTA_2 = 0.04835506768211109
ELL_DELTA = 0.1
ELL_ETA = 0.10
EPSILON = 1.0

# largest kkt_report component accepted on a returned Optimal solution.  The
# SVM's gap term reaches ~1e-2 at the seed state (free recourse entries near
# 4e5); the ellipsoid's residuals sit near 3e-9.
RESIDUAL_BOUND = {"svm": 5e-2, "ellipsoid": 1e-6}
# per-workload bound on every Optimal solve the traced run sees
WORKLOAD_RESIDUAL_BOUND = {
    "privatize-large": 5e-2,
    "sensitivity-small": 1e-6,
    "experiment-mix": 1e-4,
}
RELEASE_STREAMS = 3

# --- sensitivity-small ------------------------------------------------------
# sensitivity_sample_size(0.2, 0.1): short rounds, so a run's median round
# rests on about four of them
SENS_SAMPLES = 49
SENS_GAMMA, SENS_BETA = 0.2, 0.1
SIMPLE_LP_ALPHA = 0.5
OPF_ALPHA = 1.0
OPF_NETWORKS = ("triangle3", "ring5", "cvar6")
ELL_GAMMA_FRAC = 0.01

# --- experiment-mix ----------------------------------------------------------
# mc_samples is 500: the OPF input-perturbation loop solves mc_samples
# programs per alpha, and two rounds of the set must fit a run of a minute.
EXP_MC_SAMPLES = 500


@dataclass
class Op:
    kind: str
    seconds: float
    attempted: int = 1
    failed: int = 0
    note: str = ""
    out: Any = None                     # compared bit for bit across rounds
    info: dict = field(default_factory=dict)
    check: Callable[[], list[str]] | None = None


def _median_seconds(rounds: list[list[Op]], kind: str) -> float:
    return statistics.median(op.seconds for ops in rounds for op in ops if op.kind == kind)


# --- privatize-large ----------------------------------------------------------


@dataclass
class PrivatizeLarge:
    seed: int
    svm_data: svm.LabeledPoints
    svm_noise: Any
    polygon: ellipsoid.EllipsoidInstance
    ell_noise: Any


def _prepare_privatize_large(seed: int, outdir: Path) -> PrivatizeLarge:
    data, _, _ = svm.synthetic_gaussian_classes(m=100, seed=SVM_DATA_SEED)
    return PrivatizeLarge(
        seed=seed,
        svm_data=data,
        svm_noise=calibrate_laplace(SVM_DELTA_1, EPSILON, k=data.n + 1),
        polygon=ellipsoid.regular_polygon(5, radius=2.0),
        ell_noise=calibrate_gaussian(ELL_DELTA_2, EPSILON, ELL_DELTA,
                                     k=ellipsoid.RULE_DIM),
    )


def _svm_released(pv, seed, stream):
    w, b = pv.release(seed, stream)
    return np.append(w, b)


def _ell_released(pv, seed, stream):
    return ellipsoid.rule_vector(*pv.release(seed, stream))


def _check_privatization(kind, pv, released, release_seed) -> list[str]:
    """Status, kkt_report residual, and the privacy contract: each release is
    the nominal query plus the raw sample_noise draw, bit for bit."""
    problems = []
    if pv.solution.status != Status.OPTIMAL:
        problems.append(f"{kind}: status {pv.solution.status.value}")
    worst = max(kkt_report(pv.program, pv.solution).values())
    if not worst <= RESIDUAL_BOUND[kind]:
        problems.append(f"{kind}: kkt_report residual {worst:.3g} above "
                        f"{RESIDUAL_BOUND[kind]:g}")
    k = pv.noise.k
    nominal = pv.rule.xbar[:k]
    for stream in range(RELEASE_STREAMS):
        draw = sample_noise(pv.noise, release_seed, 1, stream)[0]
        got = np.asarray(released(pv, release_seed, stream), dtype=float)
        if got.tobytes() != (nominal + draw).tobytes():
            problems.append(f"{kind}: release on stream {stream} is not "
                            "nominal + raw draw")
    return problems


def _privatize_op(kind, call, released, release_seed) -> Op:
    t0 = time.perf_counter()
    try:
        pv = call()
    except RuntimeError as exc:   # the apps raise it on a non-Optimal status
        return Op(kind, time.perf_counter() - t0, failed=1, note=str(exc))
    dt = time.perf_counter() - t0
    return Op(kind, dt,
              out=(pv.rule.xbar.tobytes(), pv.solution.iterations),
              info={"iterations": pv.solution.iterations,
                    "status": pv.solution.status.value},
              check=lambda: _check_privatization(kind, pv, released, release_seed))


def _headline_privatize_large(rounds, round_s):
    return {"svm_privatize_s": (_median_seconds(rounds, "svm"), "s/call"),
            "ellipsoid_privatize_s": (_median_seconds(rounds, "ellipsoid"), "s/call")}


def _round_privatize_large(st: PrivatizeLarge, index: int) -> list[Op]:
    release_seed = st.seed + 1
    return [
        _privatize_op(
            "svm",
            lambda: svm.privatize_svm(st.svm_data, st.svm_noise,
                                      IndividualChance(eta_bar=SVM_ETA_BAR),
                                      seed=st.seed),
            _svm_released, release_seed),
        _privatize_op(
            "ellipsoid",
            lambda: ellipsoid.privatize_ellipsoid(st.polygon, st.ell_noise,
                                                  eta=ELL_ETA, seed=st.seed),
            _ell_released, release_seed),
    ]


# --- sensitivity-small --------------------------------------------------------


@dataclass
class Family:
    label: str
    adjacency: Any
    p: int
    oracle: Callable[["Family", set], float] | None   # independent delta_p, or None
    seed: int = 0


@dataclass
class SensitivitySmall:
    seed: int
    families: list[Family]


def _pairs(fam: Family, dropped: set):
    """The adjacent pairs estimate_sensitivity drew, less the ones it dropped."""
    for s in range(SENS_SAMPLES):
        if s not in dropped:
            yield fam.adjacency.sample_pair(rng_stream(fam.seed, s))


def _simple_lp_oracle(fam: Family, dropped: set) -> float:
    # min c x on [lower, upper] with c > 0 sits at the lower bound
    return max(abs(a.lower - b.lower) for a, b in _pairs(fam, dropped))


def _highs_cost(net: opf.PowerNetwork) -> float:
    # imported here, so set-up and the timed rounds do not load the oracle
    from scipy.optimize import linprog

    Fd = net.F @ net.d
    res = linprog(net.c, A_ub=np.vstack([net.F, -net.F]),
                  b_ub=np.concatenate([net.fmax + Fd, net.fmax - Fd]),
                  A_eq=np.ones((1, net.n_nodes)), b_eq=[net.d.sum()],
                  bounds=list(zip(net.xmin, net.xmax)), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS: {res.message}")
    return float(res.fun)


def _opf_oracle(fam: Family, dropped: set) -> float:
    return max(abs(_highs_cost(a) - _highs_cost(b)) for a, b in _pairs(fam, dropped))


def _prepare_sensitivity_small(seed: int, outdir: Path) -> SensitivitySmall:
    fams = [Family("simple-lp",
                   simple_lp.lower_bound_adjacency(simple_lp.SimpleLpStudy(),
                                                   SIMPLE_LP_ALPHA),
                   1, _simple_lp_oracle)]
    fams += [Family(f"opf-{name}",
                    opf.demand_adjacency(opf.bundled_network(name), OPF_ALPHA),
                    1, _opf_oracle)
             for name in OPF_NETWORKS]
    fams.append(Family("ellipsoid",
                       ellipsoid.b_range_adjacency(ellipsoid.regular_polygon(5, 2.0),
                                                   ELL_GAMMA_FRAC),
                       2, None))
    for i, fam in enumerate(fams):
        fam.seed = seed * 16 + i
    return SensitivitySmall(seed, fams)


def _check_estimate(fam: Family, rep, with_oracle: bool) -> list[str]:
    if not (math.isfinite(rep.delta_p) and rep.delta_p > 0):
        return [f"{fam.label}: delta_p {rep.delta_p!r} not finite and positive"]
    if not (with_oracle and fam.oracle):
        return []
    try:
        ref = fam.oracle(fam, set(rep.failures))
    except RuntimeError as exc:
        return [f"{fam.label}: the oracle failed on a pair dpconic solved: {exc}"]
    if abs(rep.delta_p - ref) > 1e-6 * (1.0 + abs(ref)):
        return [f"{fam.label}: delta_p {rep.delta_p!r} but the independent "
                f"oracle gives {ref!r}"]
    return []


def _headline_sensitivity_small(rounds, round_s):
    return {"pairs_per_s": (sum(op.attempted for op in rounds[0]) / round_s, "pairs/s")}


def _round_sensitivity_small(st: SensitivitySmall, index: int) -> list[Op]:
    ops = []
    for fam in st.families:
        t0 = time.perf_counter()
        try:
            rep = dp.estimate_sensitivity(fam.adjacency, p=fam.p, samples=SENS_SAMPLES,
                                       gamma=SENS_GAMMA, beta=SENS_BETA, seed=fam.seed)
        except SolveFailure as exc:
            ops.append(Op(f"pairs:{fam.label}", time.perf_counter() - t0,
                          attempted=SENS_SAMPLES, failed=SENS_SAMPLES, note=str(exc)))
            continue
        dt = time.perf_counter() - t0
        ops.append(Op(f"pairs:{fam.label}", dt, attempted=SENS_SAMPLES,
                      failed=len(rep.failures), out=(rep.delta_p, rep.failures),
                      # the later rounds must equal the first bit for bit
                      check=lambda fam=fam, rep=rep: _check_estimate(fam, rep, index == 0)))
    return ops


# --- experiment-mix -----------------------------------------------------------


@dataclass
class ExperimentMix:
    seed: int
    configs: list[ExperimentConfig]


def _prepare_experiment_mix(seed: int, outdir: Path) -> ExperimentMix:
    # recorded with the rest of the environment
    os.environ["DP_CONIC_THREADS"] = str(len(os.sched_getaffinity(0)))
    base = outdir / f"experiment-mix-seed{seed}"
    configs = [
        ExperimentConfig(app="opf", dataset="cvar6",
                         strategies=("input", "output", "program"),
                         alphas=(1.0, 3.0), eta=0.01, mc_samples=EXP_MC_SAMPLES,
                         cvar_q_grid=(0.05, 0.1, 0.2), seed=seed,
                         output_dir=str(base / "opf")),
        ExperimentConfig(app="regression", strategies=("output", "program"),
                         alphas=(1.0,), mc_samples=EXP_MC_SAMPLES, seed=seed,
                         output_dir=str(base / "regression")),
    ]
    return ExperimentMix(seed, configs)


def _headline_experiment_mix(rounds, round_s):
    return {"experiment_s": (round_s, "s")}


def _check_experiment(cfg, results) -> list[str]:
    problems = []
    for r in results:
        if r.status == "ok" and not all(
                math.isfinite(v) for v in (r.loss_mean, r.loss_cvar, r.infeasibility)):
            problems.append(f"{cfg.app} {r.strategy} alpha={r.alpha}: "
                            "non-finite values on an ok point")
    return problems


def _round_experiment_mix(st: ExperimentMix, index: int) -> list[Op]:
    ops = []
    for cfg in st.configs:
        t0 = time.perf_counter()
        out = experiments.run_experiment(cfg)
        dt = time.perf_counter() - t0
        results, sweep = out["results"], out["sweep"] or []
        failed = sum(r.status != "ok" for r in results)
        failed += sum(not math.isfinite(row[1]) for row in sweep)
        files = sorted(Path(cfg.output_dir).glob("*.csv"))
        ops.append(Op(f"experiment:{cfg.app}", dt, attempted=len(results) + len(sweep),
                      failed=failed,
                      note="; ".join(r.status for r in results if r.status != "ok"),
                      out=[(f.name, f.read_bytes()) for f in files],
                      check=lambda cfg=cfg, results=results:
                          _check_experiment(cfg, results)))
    return ops


# --- registry -----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable[[int, Path], Any]
    run_round: Callable[[Any, int], list[Op]]
    # (untraced rounds' ops, median round seconds) -> {metric: (value, unit)}
    headline: Callable[[list[list[Op]], float], dict]
    # experiment-mix needs a repeat in every run to compare results.csv
    min_rounds: int = 1


WORKLOADS = {
    w.name: w for w in (
        Workload("privatize-large", _prepare_privatize_large, _round_privatize_large,
                 _headline_privatize_large),
        Workload("sensitivity-small", _prepare_sensitivity_small, _round_sensitivity_small,
                 _headline_sensitivity_small),
        Workload("experiment-mix", _prepare_experiment_mix, _round_experiment_mix,
                 _headline_experiment_mix, min_rounds=2),
    )
}
