"""Command-line harness: solve / sensitivity / privatize / experiment.

Exit codes: 0 success, 2 validation error (bad inputs or config), 3 solver
failure (infeasible, unbounded, or non-convergent program).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .conic import Status, program_from_json, program_to_json
from .dp import NoiseSpec, estimate_sensitivity, sensitivity_sample_size
from .experiments import APPS, ExperimentConfig, run_experiment
from .ldr import IndividualChance, SelectQuery, VertexChance, WeightedSumQuery, privatize
from .solver import SolverSettings, solve

EXIT_OK, EXIT_VALIDATION, EXIT_SOLVER = 0, 2, 3


def _solution_doc(sol):
    return {
        "status": sol.status.value,
        "objective": None if math.isnan(sol.objective) else sol.objective,
        "x": [float(v) for v in np.atleast_1d(sol.x)],
        "y": [float(v) for v in np.atleast_1d(sol.y)],
        "residuals": {
            "primal": sol.residuals.primal,
            "dual": sol.residuals.dual,
            "gap": None if math.isnan(sol.residuals.gap) else sol.residuals.gap,
        },
        "iterations": sol.iterations,
    }


def _write(text: str, path: str | None):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text)


def _read_program(path: str):
    """The program in the JSON file at path, or None once the reason it
    cannot be read (an invalid program among them) is printed."""
    try:
        with open(path, encoding="utf-8") as fh:
            program = program_from_json(fh.read())
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: cannot read program: {exc}", file=sys.stderr)
        return None
    return program


def _cmd_solve(args) -> int:
    program = _read_program(args.infile)
    if program is None:
        return EXIT_VALIDATION
    try:
        settings = SolverSettings(tol=args.tol, max_iter=args.max_iter)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    sol = solve(program, settings)
    _write(json.dumps(_solution_doc(sol), indent=1), args.out)
    return EXIT_OK if sol.status == Status.OPTIMAL else EXIT_SOLVER


def _cmd_sensitivity(args) -> int:
    app = APPS[args.app]
    try:
        # the svm and regression data are drawn on seed 0; --seed seeds the pairs
        adjacency = app.adjacency(app.data(args.dataset, 0), args.alpha)
        samples = (sensitivity_sample_size(args.gamma, args.beta) if args.samples is None
                   else args.samples)
        report = estimate_sensitivity(adjacency, args.p or app.p, samples,
                                      args.gamma, args.beta, args.seed)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION if isinstance(exc, ValueError) else EXIT_SOLVER
    _write(report.to_json(), args.out)
    return EXIT_OK


def _cmd_privatize(args) -> int:
    program = _read_program(args.infile)
    if program is None:
        return EXIT_VALIDATION
    try:
        query = (SelectQuery(range(program.n)) if args.query == "identity"
                 else WeightedSumQuery(np.ones(program.n)))
        noise = NoiseSpec(args.family, query.k, args.scale)
        if args.method == "vertex":
            chance = VertexChance(eta=args.eta)
        else:
            chance = IndividualChance(eta=args.eta)
        pp = privatize(program, noise, query, chance)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    _write(program_to_json(pp.program), args.out)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    try:
        with open(args.config, encoding="utf-8") as fh:
            config = ExperimentConfig.from_json(
                fh.read(),
                seed=args.seed,
                output_dir=args.out,
                mc_samples=args.mc_samples,
            )
    except (OSError, ValueError, TypeError) as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        result = run_experiment(config)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    print(f"wrote {result['csv']} and {result['manifest']}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpconic",
        description="Differentially private conic optimization studies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a conic program from JSON")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=200)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("sensitivity", help="Monte Carlo sensitivity estimate")
    p.add_argument("--app", required=True, choices=tuple(APPS))
    p.add_argument("--alpha", type=float, required=True,
                   help="adjacency radius; inf for whole-universe adjacency "
                        "(ellipsoid: b-range fraction in (0, 1); regression "
                        "wind: value-range fraction in (0, 1); svm and "
                        "regression cubic: unused)")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--p", type=int, choices=(1, 2), default=None,
                   help="sensitivity norm; default: the app's (1 Laplace, 2 Gaussian)")
    p.add_argument("--samples", type=int, default=None,
                   help="override the sample-size rule")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dataset", default=None,
                   help="opf: bundled network or file; regression: cubic or wind")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sensitivity)

    p = sub.add_parser("privatize", help="emit the transformed program JSON")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--query", choices=("identity", "sum"), default="sum")
    p.add_argument("--family", choices=("laplace", "gaussian"), default="laplace")
    p.add_argument("--scale", type=float, required=True)
    p.add_argument("--eta", type=float, default=0.05)
    p.add_argument("--method", choices=("vertex", "individual"), default="vertex")
    p.set_defaults(func=_cmd_privatize)

    p = sub.add_parser("experiment", help="run a full study from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--mc-samples", type=int, default=None)
    p.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
