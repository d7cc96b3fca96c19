"""The one-variable box LP used as the running illustration of the strategies.

min c*x over [lower, upper] with the lower bound private: the optimum sits
at x* = lower (for c > 0), so output and input perturbation coincide and
land outside the box half of the time, while the rule counterpart backs the
nominal solution away from the bound by the width of the noise box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..conic import ConicProgram, build_simple_lp, require_optimal
from ..dp import AdjacencyModel, NoiseSpec, Purpose, derive_seed
from ..ldr import Privatization, VertexChance, WeightedSumQuery, privatize, release_rows
from ..solver import solve
from .metrics import Study


@dataclass(frozen=True)
class SimpleLpStudy:
    c: float = 1.0
    lower: float = 1.0
    upper: float = 2.0

    def program(self) -> ConicProgram:
        return build_simple_lp(self.c, self.lower, self.upper)

    def in_box(self, x) -> np.ndarray:
        x = np.atleast_1d(x)
        return (x >= self.lower) & (x <= self.upper)


def lower_bound_adjacency(study: SimpleLpStudy, alpha: float) -> AdjacencyModel:
    """Pairs (lower, lower + u), u uniform in [-alpha, alpha], alpha > 0; identity query."""
    if not alpha > 0:
        raise ValueError(f"simple-lp alpha must be positive, got {alpha}")

    def sample_pair(rng):
        shift = alpha * rng.uniform(-1.0, 1.0)
        lo2 = min(study.lower + shift, study.upper - 1e-9)
        return study, SimpleLpStudy(study.c, lo2, study.upper)

    def read(st, sol):
        return require_optimal(sol, "simple LP").x

    return AdjacencyModel(sample_pair=sample_pair, program=SimpleLpStudy.program,
                          read=read, alpha=alpha)


def privatize_simple_lp(
    study: SimpleLpStudy,
    noise: NoiseSpec,
    eta: float,
) -> Privatization:
    """Rule counterpart with the query 1 * x; the release is a 1-vector."""
    pp = privatize(study.program(), noise, WeightedSumQuery([1.0]), VertexChance(eta))
    return pp.solve(None, "privatized simple LP")


def experiment_study(cfg, lp: SimpleLpStudy) -> Study:
    """The experiment study (cfg: eta): a released x scores c x - c x* and
    is violated outside [lower, upper].  x* = lower, so an input row is an
    output row: both are drawn around lower."""
    base = solve(lp.program())
    nominal = np.array([lp.lower])

    def score(rows, pv):
        xs = rows[:, 0]
        return lp.c * xs - lp.c * base.x[0], ~lp.in_box(xs)

    return Study(
        nominal=nominal,
        privatize=lambda noise, seed: privatize_simple_lp(lp, noise, cfg.eta),
        score=score,
        input_rows=lambda alpha, noise, seed, count: release_rows(
            nominal, noise, derive_seed(seed, Purpose.EVAL), count))
