"""The one-variable box LP used as the running illustration of the strategies.

min c*x over [lower, upper] with the lower bound private: the optimum sits
at x* = lower (for c > 0), so output and input perturbation coincide and
land outside the box half of the time, while the rule counterpart backs the
nominal solution away from the bound by the width of the noise box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..conic import ConicProgram, Solution, build_simple_lp, require_optimal
from ..dp import AdjacencyModel, NoiseSpec, calibrate_laplace, sample_noise
from ..ldr import DecisionRule, Privatization, VertexChance, WeightedSumQuery, privatize
from ..solver import solve


@dataclass(frozen=True)
class SimpleLpStudy:
    c: float = 1.0
    lower: float = 1.0
    upper: float = 2.0

    def program(self) -> ConicProgram:
        return build_simple_lp(self.c, self.lower, self.upper)

    def optimum(self) -> Solution:
        return solve(self.program())

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
    epsilon: float,
    alpha: float,
    eta: float,
    seed: int,
) -> Privatization:
    """Rule counterpart with the query 1 * x; the release is a 1-vector."""
    noise = calibrate_laplace(alpha, epsilon, k=1)
    pp = privatize(study.program(), noise, WeightedSumQuery([1.0]), VertexChance(eta), seed)
    return pp.solve(None, "privatized simple LP")


def strategy_infeasibility(
    study: SimpleLpStudy,
    noise: NoiseSpec,
    samples: int,
    seed: int,
    rule: DecisionRule | None = None,
    stream: int = 0,
) -> float:
    """Fraction of draws leaving [lower, upper].

    With rule=None this scores output/input perturbation of x* = lower
    (the two coincide here); otherwise the realized rule values.
    """
    draws = sample_noise(noise, seed, samples, stream).ravel()
    if rule is None:
        xs = study.lower + draws
    else:
        xs = rule.evaluate_many(draws[:, None]).ravel()
    return float(1.0 - study.in_box(xs).mean())
