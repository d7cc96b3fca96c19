"""Which dpconic functions the traced run wraps, and the per-layer metrics.

Module = layer.  The targets are the public functions each layer exposes;
the tracer patches them at every name a dpconic module binds them to.  The
dense KKT factor and solve callables are not named here: they are found by
looking for scipy/numpy linear-algebra callables bound in dpconic modules
(today ``lu_factor`` and ``lu_solve`` in ``dpconic.solver``), so a change of
factorization is measured without editing this file.
"""

from __future__ import annotations

import sys
from collections import defaultdict

import numpy as np

from tracer import Span, Target, self_times

# flop count of one factorization of an N x N matrix, as a multiple of N^3
FACTOR_FLOP_COEF = {"lu_factor": 2 / 3, "lu": 2 / 3, "getrf": 2 / 3,
                    "cho_factor": 1 / 3, "cholesky": 1 / 3, "ldl": 1 / 3,
                    "qr": 4 / 3}
_LINALG_MODULES = ("scipy.linalg", "numpy.linalg", "scipy.sparse.linalg")
STATUSES = ("Optimal", "MaxIter", "PrimalInfeasible", "DualInfeasible")
CONE_KINDS = ("Zero", "NonNeg", "SecondOrder", "RotatedSecondOrder")


def kkt_callables() -> tuple[list, list]:
    """(factor, solve) linear-algebra callables bound in loaded dpconic modules."""
    factor, solve = {}, {}
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "dpconic" or modname.startswith("dpconic.")):
            continue
        for value in vars(mod).values():
            if isinstance(value, type) or not callable(value):
                continue
            if not (getattr(value, "__module__", None) or "").startswith(_LINALG_MODULES):
                continue
            name = getattr(value, "__name__", "")
            if "factor" in name or name in FACTOR_FLOP_COEF:
                factor[id(value)] = value
            elif "solve" in name:
                solve[id(value)] = value
    return list(factor.values()), list(solve.values())


def program_shape(program) -> dict:
    """m, n, block counts by kind and by kind:dim, and today's KKT order n + m."""
    kinds = defaultdict(int)
    dims = defaultdict(int)
    for blk in program.cones.blocks:
        kinds[blk.kind.value] += 1
        dims[f"{blk.kind.value}:{blk.dim}"] += 1
    return {"m": int(program.m), "n": int(program.n), "blocks": dict(kinds),
            "block_dims": dict(sorted(dims.items())),
            "kkt_order": int(program.n + program.m)}


def targets(solves: list) -> list[Target]:
    """Wrap targets; every (program, Solution) that solve returns goes to
    ``solves`` so residuals can be checked after the timed rounds."""
    from dpconic import conic, dp, experiments, ldr, risk, solver
    from dpconic.apps import ellipsoid, metrics, opf, regression, simple_lp, svm

    def on_solve(args, kwargs, sol):
        solves.append((args[0] if args else kwargs["program"], sol))
        return {"status": sol.status.value, "iters": int(sol.iterations)}

    def on_factor(fn):
        coef = FACTOR_FLOP_COEF.get(fn.__name__, 2 / 3)

        def hook(args, kwargs, result):
            return {"n": int(np.shape(args[0] if args else kwargs["a"])[0]), "coef": coef}
        return hook

    def on_privatize(args, kwargs, result):
        # OpfPrivatization keeps the base program in .program and the
        # transformed one in .privatized.program
        privatized = getattr(result, "privatized", None)
        return program_shape(privatized.program if privatized else result.program)

    def on_estimate(args, kwargs, rep):
        return {"pairs": int(rep.samples), "failures": len(rep.failures)}

    def on_cvar(args, kwargs, result):
        base = args[0] if args else kwargs["privatized"]
        return {"rows": int(result[0].m - base.program.m)}

    def on_experiment(args, kwargs, out):
        res = out["results"]
        return {"points": len(res), "failed": sum(r.status != "ok" for r in res)}

    factor_fns, solve_fns = kkt_callables()
    out = [Target(solver.solve, "solver.solve", "solver", on_solve)]
    out += [Target(f, f"solver.kkt_factor:{f.__name__}", "solver", on_factor(f))
            for f in factor_fns]
    out += [Target(f, f"solver.kkt_solve:{f.__name__}", "solver") for f in solve_fns]
    out += [Target(f, f"apps.privatize:{f.__name__}", "apps", on_privatize)
            for f in (svm.privatize_svm, ellipsoid.privatize_ellipsoid,
                      opf.privatize_opf, regression.privatize_regression)]
    out += [Target(f, f"apps.build:{f.__name__}", "apps")
            for f in (opf.build_opf, ellipsoid.build_ellipsoid,
                      regression.build_monotone_regression, simple_lp.build_simple_lp)]
    out += [
        Target(ellipsoid.check_bounded, "apps.check_bounded", "apps"),
        Target(ldr.privatize, "ldr.privatize", "ldr"),
        Target(dp.estimate_sensitivity, "dp.estimate_sensitivity", "dp", on_estimate),
        Target(dp.sample_noise, "dp.sample_noise", "dp"),
        Target(metrics.evaluate_rule_metrics, "apps.metrics.evaluate_rule_metrics",
               "apps.metrics"),
        Target(conic.cone_membership, "conic.cone_membership", "conic"),
        Target(risk.augment_with_cvar, "risk.augment_with_cvar", "risk", on_cvar),
        Target(experiments.run_experiment, "experiments.run_experiment",
               "experiments", on_experiment),
        Target(experiments.cvar_q_sweep, "experiments.cvar_q_sweep", "experiments"),
    ]
    return out


def layer_metrics(spans: list[Span], rounds: int) -> dict[str, float]:
    """Per-layer metrics per traced round, from the spans of those rounds.

    Times summed over threads; counts divided by the number of rounds, which
    are identical repeats, so counts stay whole numbers.
    """
    selfs = self_times(spans)
    by_prefix = defaultdict(list)
    for s in spans:
        by_prefix[s.name.split(":")[0]].append(s)

    def dur(prefix):
        return sum(s.duration for s in by_prefix[prefix])

    def n(prefix):
        return len(by_prefix[prefix])

    def info_sum(prefix, key):
        return sum((s.info or {}).get(key, 0) for s in by_prefix[prefix])

    def layer_self(layer):
        return sum(selfs[s.id] for s in spans if s.layer == layer)

    solves = by_prefix["solver.solve"]
    factors = by_prefix["solver.kkt_factor"]
    statuses = defaultdict(int)
    for s in solves:
        statuses[(s.info or {}).get("status", "error")] += 1
    gflop = sum(s.info["coef"] * s.info["n"] ** 3 for s in factors) / 1e9
    factor_s = dur("solver.kkt_factor")
    calls = n("solver.solve")
    iters = info_sum("solver.solve", "iters")
    kinds = defaultdict(int)
    for s in by_prefix["apps.privatize"]:
        for kind, count in (s.info or {}).get("blocks", {}).items():
            kinds[kind] += count

    m = {
        "solver.calls": calls,
        "solver.iters": iters,
        "solver.iters_per_call": iters / calls if calls else 0.0,
        "solver.ms_per_call": 1e3 * dur("solver.solve") / calls if calls else 0.0,
        "solver.self_s": layer_self("solver"),
        "solver.kkt_factor_s": factor_s,
        "solver.kkt_factor_calls": n("solver.kkt_factor"),
        "solver.kkt_dim_max": max((s.info["n"] for s in factors), default=0),
        "solver.kkt_factor_gflop_computed": gflop,
        "solver.kkt_factor_gflops": gflop / factor_s if factor_s > 0 else 0.0,
        "solver.kkt_solve_s": dur("solver.kkt_solve"),
        "solver.kkt_solve_calls": n("solver.kkt_solve"),
        "solver.other_s": sum(selfs[s.id] for s in solves),
        "apps.assemble_s": sum(selfs[s.id] for s in by_prefix["apps.privatize"]),
        "apps.program_rows": info_sum("apps.privatize", "m"),
        "apps.program_cols": info_sum("apps.privatize", "n"),
        "apps.build_s": dur("apps.build"),
        "apps.build_calls": n("apps.build"),
        "apps.check_bounded_s": dur("apps.check_bounded"),
        "ldr.privatize_s": dur("ldr.privatize"),
        "ldr.privatize_calls": n("ldr.privatize"),
        "dp.estimate_sensitivity_s": dur("dp.estimate_sensitivity"),
        "dp.pairs": info_sum("dp.estimate_sensitivity", "pairs"),
        "dp.pair_failures": info_sum("dp.estimate_sensitivity", "failures"),
        "dp.self_s": layer_self("dp"),
        "dp.sample_noise_calls": n("dp.sample_noise"),
        "dp.sample_noise_s": dur("dp.sample_noise"),
        "apps.metrics.evaluate_s": dur("apps.metrics.evaluate_rule_metrics"),
        "conic.cone_membership_calls": n("conic.cone_membership"),
        "conic.cone_membership_s": dur("conic.cone_membership"),
        "risk.augment_with_cvar_s": dur("risk.augment_with_cvar"),
        "risk.cvar_rows": info_sum("risk.augment_with_cvar", "rows"),
        "experiments.run_s": dur("experiments.run_experiment"),
        "experiments.points": info_sum("experiments.run_experiment", "points"),
        "experiments.points_failed": info_sum("experiments.run_experiment", "failed"),
        "experiments.self_s": layer_self("experiments"),
        "experiments.sweep_s": dur("experiments.cvar_q_sweep"),
    }
    for status in STATUSES:
        m[f"solver.status.{status}"] = statuses[status]
    for kind in CONE_KINDS:
        m[f"apps.blocks.{kind}"] = kinds[kind]
    ratios = ("solver.iters_per_call", "solver.ms_per_call", "solver.kkt_dim_max",
              "solver.kkt_factor_gflops")
    return {k: (v if k in ratios else v / rounds) for k, v in m.items()}
