"""The study record every experiment point is scored through, and the rule
reader of the opf program score."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..conic import ConicProgram, Solution, as_dense, cone_membership_rows
from ..dp import NoiseSpec
from ..ldr import DecisionRule, Privatization


@dataclass(frozen=True)
class Study:
    """What every point of one experiment run shares, for one app.

    ``nominal`` is the query value at the non-private optimum x*: the output
    strategy's rows are it plus raw draws, and its length is the noise
    dimension k.  ``privatize(noise, seed)`` is the program strategy's
    Privatization; it raises NotOptimal when that program has no optimum.
    ``score(rows, pv)`` maps (S, k) released rows to per-row losses and
    violations; ``pv`` is the Privatization the rows came from, None for
    output and input rows (NaN where a perturbed dataset has no value).
    """

    nominal: np.ndarray
    privatize: Callable[[NoiseSpec, int], Privatization]
    score: Callable[[np.ndarray, Privatization | None], tuple[np.ndarray, np.ndarray]]


def evaluate_rule_metrics(
    rule: DecisionRule,
    program: ConicProgram,
    base: Solution,
    zetas: np.ndarray,
    membership_tol: float = 1e-6,
) -> tuple[np.ndarray, np.ndarray]:
    """(losses, feasible) of the rule at the noise points ``zetas`` (one per
    row) on the base program.

    A loss is c'(xbar + X zeta) - c'x*, with c the base objective; a point
    is feasible when its realized solution stays in the base feasible
    region (cone membership of the slack at membership_tol).
    """
    xs = rule.evaluate_many(zetas)
    losses = xs @ program.c - float(program.c @ base.x)
    return losses, cone_membership_rows(program.b - xs @ as_dense(program.A).T,
                                        program.cones, membership_tol)
