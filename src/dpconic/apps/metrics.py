"""Monte Carlo evaluation of decision rules against a base program."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..conic import ConicProgram, Solution, as_dense, cone_membership_rows
from ..dp import NoiseSpec, sample_noise
from ..ldr import DecisionRule


@dataclass(frozen=True)
class RuleMetrics:
    mean_loss: float
    infeasibility_rate: float
    losses: np.ndarray
    feasible: np.ndarray


def evaluate_rule_metrics(
    rule: DecisionRule,
    program: ConicProgram,
    base: Solution,
    noise: NoiseSpec,
    samples: int,
    seed: int,
    stream: int = 0,
    membership_tol: float = 1e-6,
    loss: np.ndarray | None = None,
) -> RuleMetrics:
    """Draw `samples` noise realizations and score the rule on the base program.

    infeasibility_rate counts draws whose realized solution leaves the base
    feasible region (cone membership of the slack at membership_tol); the
    loss column is l'(xbar + X zeta) - l'(x*) with l defaulting to the base
    objective.
    """
    lvec = np.asarray(loss if loss is not None else program.c, dtype=float).ravel()
    zetas = sample_noise(noise, seed, samples, stream)
    xs = rule.evaluate_many(zetas)
    base_value = float(lvec @ base.x)
    losses = xs @ lvec - base_value
    feasible = cone_membership_rows(program.b - xs @ as_dense(program.A).T, program.cones,
                                    membership_tol)
    return RuleMetrics(
        mean_loss=float(losses.mean()),
        infeasibility_rate=float(1.0 - feasible.mean()),
        losses=losses,
        feasible=feasible,
    )
