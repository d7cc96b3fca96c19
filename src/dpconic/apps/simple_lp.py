"""The one-variable box LP used as the running illustration of the strategies.

min c*x over [lower, upper] with the lower bound private: the optimum sits
at x* = lower (for c > 0), so output and input perturbation coincide and
land outside the box half of the time, while the rule counterpart backs the
nominal solution away from the bound by the width of the noise box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..conic import ConicProgram, Solution, Status, build_simple_lp
from ..dp import AdjacencyModel, NoiseSpec, calibrate_laplace, sample_noise
from ..ldr import DecisionRule, SumQuery, VertexChance, privatize
from ..solver import SolverSettings, solve


@dataclass(frozen=True)
class SimpleLpStudy:
    c: float = 1.0
    lower: float = 1.0
    upper: float = 2.0

    def program(self) -> ConicProgram:
        return build_simple_lp(self.c, self.lower, self.upper)

    def optimum(self, settings: SolverSettings | None = None) -> Solution:
        return solve(self.program(), settings)

    def in_box(self, x) -> np.ndarray:
        x = np.atleast_1d(x)
        return (x >= self.lower) & (x <= self.upper)


def lower_bound_adjacency(study: SimpleLpStudy, alpha: float,
                          settings: SolverSettings | None = None) -> AdjacencyModel:
    """Pairs (lower, lower + u) with u uniform in [-alpha, alpha], identity query."""

    def sample_pair(rng):
        shift = alpha * rng.uniform(-1.0, 1.0)
        lo2 = min(study.lower + shift, study.upper - 1e-9)
        return study, SimpleLpStudy(study.c, lo2, study.upper)

    def read(st, sol):
        if sol.status != Status.OPTIMAL:
            raise RuntimeError(f"simple LP returned {sol.status.value}")
        return sol.x

    return AdjacencyModel(sample_pair=sample_pair, program=SimpleLpStudy.program,
                          read=read, alpha=alpha, settings=settings)


def privatize_simple_lp(
    study: SimpleLpStudy,
    epsilon: float,
    alpha: float,
    eta: float,
    seed: int,
    beta: float = 0.01,
    settings: SolverSettings | None = None,
):
    """Rule counterpart with the (scalar) sum query; returns (rule, noise, base)."""
    noise = calibrate_laplace(alpha, epsilon, k=1)
    pp = privatize(study.program(), noise, SumQuery(), VertexChance(eta, beta), seed)
    sol = solve(pp.program, settings)
    if sol.status != Status.OPTIMAL:
        raise RuntimeError(f"privatized simple LP returned {sol.status.value}")
    return pp.extract_rule(sol), noise, study.optimum(settings)


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
