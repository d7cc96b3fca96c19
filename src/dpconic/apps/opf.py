"""DC optimal power flow: deterministic builder and the private cost query.

The network model is the PTDF formulation: generation x balances demand d
exactly, line flows are F(x - d).  The private quantity is a single demand
entry; the released query is the dispatch cost c'x.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from ..conic import (ConicProgram, ConeSpec, Solution, nonneg, read_only_copy,
                     replace_unchecked, require_optimal, zero)
from ..dp import AdjacencyModel, NoiseSpec
from ..ldr import Privatization, VertexChance, WeightedSumQuery, privatize
from ..solver import solve
from .metrics import Study, evaluate_rule_metrics

COST_TOL = 1e-7  # released_cost_feasible's slack around the cost range


@dataclass(frozen=True)
class PowerNetwork:
    name: str
    c: np.ndarray       # $/MWh
    d: np.ndarray       # MWh
    xmin: np.ndarray
    xmax: np.ndarray
    fmax: np.ndarray
    F: np.ndarray       # E x N power transfer distribution factors
    lines: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        for f in ("c", "d", "xmin", "xmax", "fmax", "F"):
            object.__setattr__(self, f, read_only_copy(getattr(self, f)))
        if np.any(self.xmin > self.xmax):
            raise ValueError("xmin must be <= xmax elementwise")
        self._check_demand()
        if not np.all(np.isfinite(self.F)):
            raise ValueError("PTDF matrix has non-finite rows")

    def _check_demand(self):
        if self.xmax.sum() < self.d.sum():
            raise ValueError("total capacity below total demand")

    @property
    def n_nodes(self) -> int:
        return self.c.shape[0]

    @property
    def n_lines(self) -> int:
        return self.F.shape[0]

    def with_demand(self, d: np.ndarray) -> "PowerNetwork":
        """This network at demand d, checked only for what demand can break."""
        new = replace_unchecked(self, d=read_only_copy(d))
        new._check_demand()
        return new

    @staticmethod
    def from_json(text: str) -> "PowerNetwork":
        doc = json.loads(text)
        return PowerNetwork(
            name=doc.get("name", "network"),
            c=doc["c"], d=doc["d"], xmin=doc["xmin"], xmax=doc["xmax"],
            fmax=doc["fmax"], F=doc["F"],
            lines=tuple(tuple(l) for l in doc.get("lines", [])),
        )

    def to_json(self) -> str:
        return json.dumps({
            "name": self.name,
            "nodes": self.n_nodes,
            "lines": [list(l) for l in self.lines],
            "c": self.c.tolist(), "d": self.d.tolist(),
            "xmin": self.xmin.tolist(), "xmax": self.xmax.tolist(),
            "fmax": self.fmax.tolist(), "F": self.F.tolist(),
        })


def bundled_network(name: str) -> PowerNetwork:
    """Load one of the shipped desk-scale networks (triangle3, ring5)."""
    text = resources.files("dpconic.data").joinpath(f"{name}.json").read_text()
    return PowerNetwork.from_json(text)


def load_network(path_or_name: str) -> PowerNetwork:
    try:
        return bundled_network(path_or_name)
    except FileNotFoundError:
        with open(path_or_name, encoding="utf-8") as fh:
            return PowerNetwork.from_json(fh.read())


def build_opf(net: PowerNetwork) -> ConicProgram:
    """min c'x s.t. 1'(x-d)=0, |F(x-d)| <= fmax, xmin <= x <= xmax.

    The balance row is a Zero-cone block (split exactly by the rule
    transformer); the 2E+2N inequality rows form one NonNeg block.
    """
    N, E = net.n_nodes, net.n_lines
    ones = np.ones((1, N))
    A = np.vstack([ones, net.F, -net.F, np.eye(N), -np.eye(N)])
    Fd = net.F @ net.d
    b = np.concatenate([
        [net.d.sum()],
        net.fmax + Fd,
        net.fmax - Fd,
        net.xmax,
        -net.xmin,
    ])
    names = tuple(f"x[{i}]" for i in range(N))
    return ConicProgram(A, b, net.c, ConeSpec([zero(1), nonneg(2 * E + 2 * N)]),
                        variable_names=names)


def opf_sensitivity_bound(c: np.ndarray, alpha: float) -> float:
    """max(c) * alpha: the cost swing of re-dispatching the priciest unit."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    return float(np.max(c) * alpha)


def opf_cost_range(net: PowerNetwork, base: Solution):
    """(min, max) dispatch cost over the feasible set; brackets query feasibility.

    base is the caller's solve of build_opf(net), and only the max is solved
    here.  Raises NotOptimal unless base and that solve are Optimal.
    """
    prog = build_opf(net)
    lo = require_optimal(base, "base OPF")
    flipped = ConicProgram(prog.A, prog.b, -prog.c, prog.cones)
    hi = require_optimal(solve(flipped), "max-cost OPF")
    return lo.objective, -hi.objective


def release_query(net: PowerNetwork) -> WeightedSumQuery:
    """The released dispatch cost c'x."""
    return WeightedSumQuery(net.c)


def demand_adjacency(net: PowerNetwork, alpha: float) -> AdjacencyModel:
    """Adjacent pairs differing in one demand entry by at most alpha.

    The shift is drawn uniformly in [-alpha, alpha] (direction and radius
    inside the ball, no rejection).  Nested in alpha for a fixed stream.
    It reads release_query, the cost c'x; the private vector is the demand d
    (l1 distance at most alpha).  Raises ValueError unless alpha > 0.
    """
    if not alpha > 0:
        raise ValueError(f"opf alpha must be positive, got {alpha}")
    cost = release_query(net)

    def sample_pair(rng):
        node = int(rng.integers(net.n_nodes))
        shift = alpha * rng.uniform(-1.0, 1.0)
        d2 = net.d.copy()
        d2[node] += shift
        return net, net.with_demand(d2)

    def read(dataset, sol):
        return cost.value(require_optimal(sol, "OPF solve").x)

    return AdjacencyModel(sample_pair=sample_pair, program=build_opf, read=read,
                          alpha=alpha, private=net.d, with_private=net.with_demand)


def privatize_opf(
    net: PowerNetwork,
    noise: NoiseSpec,
    eta: float,
) -> Privatization:
    """Solve the chance-constrained OPF counterpart for the cost query.

    The weighted-sum query c'X = 1 makes the cost release's random part
    data-independent; the balance equality is split exactly, and the
    chance constraints hold on the noise interval of mass 1 - eta
    (VertexChance).  Raises NotOptimal when the program cannot absorb it;
    the experiment harness records that as a row.  The release is the cost.
    """
    pp = privatize(build_opf(net), noise, release_query(net), VertexChance(eta=eta))
    return pp.solve(None, "chance-constrained OPF", unpack=lambda v: float(v[0]))


def released_cost_feasible(value, cost_lo: float, cost_hi: float):
    """Whether some feasible dispatch attains each released cost, within
    COST_TOL of [cost_lo, cost_hi] (elementwise on an array; a NaN cost is
    infeasible)."""
    return (cost_lo - COST_TOL <= value) & (value <= cost_hi + COST_TOL)


def experiment_study(cfg, net: PowerNetwork) -> Study:
    """The experiment study (cfg: eta); raises NotOptimal when the base OPF
    or its cost range has no optimum.  An output or input cost scores its
    gap to the base cost (over the finite rows; an input row is NaN where
    its perturbed OPF has no optimum) and is violated
    unless some feasible dispatch attains it; a program row is scored by
    the dispatch its rule assigns to that cost."""
    program = build_opf(net)
    base = require_optimal(solve(program), "base OPF")
    lo, hi = opf_cost_range(net, base)

    def score(rows, pv):
        if pv is not None:
            losses, feasible = evaluate_rule_metrics(pv.rule, program, base,
                                                     rows - pv.nominal)
            return losses, ~feasible
        costs = rows[:, 0]
        return (costs[np.isfinite(costs)] - base.objective,
                ~released_cost_feasible(costs, lo, hi))

    return Study(
        nominal=release_query(net).value(base.x),
        privatize=lambda noise, seed: privatize_opf(net, noise, cfg.eta),
        score=score)
