"""DC optimal power flow: deterministic builder and the private cost query.

The network model is the PTDF formulation: generation x balances demand d
exactly, line flows are F(x - d).  The private quantity is a single demand
entry; the released query is the dispatch cost c'x.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from ..conic import ConicProgram, ConeSpec, Solution, Status, nonneg, zero
from ..dp import AdjacencyModel, NoiseSpec, calibrate_laplace, sample_noise
from ..ldr import (
    DecisionRule,
    PrivatizedProgram,
    VertexChance,
    IndividualChance,
    WeightedSumQuery,
    privatize,
    release_query,
)
from ..solver import SolverSettings, solve, solve_batch


class InfeasiblePrivatization(RuntimeError):
    """The chance-constrained counterpart admits no solution at this privacy level."""


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
            object.__setattr__(self, f, np.asarray(getattr(self, f), dtype=float))
        if np.any(self.xmin > self.xmax):
            raise ValueError("xmin must be <= xmax elementwise")
        if self.xmax.sum() < self.d.sum():
            raise ValueError("total capacity below total demand")
        if not np.all(np.isfinite(self.F)):
            raise ValueError("PTDF matrix has non-finite rows")

    @property
    def n_nodes(self) -> int:
        return self.c.shape[0]

    @property
    def n_lines(self) -> int:
        return self.F.shape[0]

    def with_demand(self, d: np.ndarray) -> "PowerNetwork":
        return replace(self, d=np.asarray(d, dtype=float))

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


def opf_cost_range(net: PowerNetwork, settings: SolverSettings | None = None):
    """(min, max) dispatch cost over the feasible set; brackets query feasibility."""
    prog = build_opf(net)
    lo = solve(prog, settings)
    flipped = ConicProgram(prog.A, prog.b, -prog.c, prog.cones)
    hi = solve(flipped, settings)
    if lo.status != Status.OPTIMAL or hi.status != Status.OPTIMAL:
        raise RuntimeError(f"base OPF not solvable: {lo.status}, {hi.status}")
    return lo.objective, -hi.objective


def demand_adjacency(
    net: PowerNetwork,
    alpha: float,
    settings: SolverSettings | None = None,
) -> AdjacencyModel:
    """Adjacent pairs differing in one demand entry by at most alpha.

    The shift is drawn uniformly in [-alpha, alpha] (direction and radius
    inside the ball, no rejection).  Nested in alpha for a fixed stream.
    """
    c = net.c.copy()

    def sample_pair(rng):
        node = int(rng.integers(net.n_nodes))
        shift = alpha * rng.uniform(-1.0, 1.0)
        d2 = net.d.copy()
        d2[node] += shift
        return net, net.with_demand(d2)

    def read(dataset, sol):
        if sol.status != Status.OPTIMAL:
            raise InfeasiblePrivatization(f"OPF solve returned {sol.status.value}")
        return sol.x

    return AdjacencyModel(sample_pair=sample_pair, program=build_opf, read=read,
                          alpha=alpha, query=lambda x: np.array([float(c @ x)]),
                          settings=settings)


@dataclass
class OpfPrivatization:
    rule: DecisionRule
    noise: NoiseSpec
    query: WeightedSumQuery
    privatized: PrivatizedProgram
    solution: Solution
    base: Solution
    program: ConicProgram

    def release(self, seed: int, stream: int = 0) -> float:
        return float(release_query(self.rule, self.query, self.noise, seed, stream)[0])

    @property
    def nominal_cost(self) -> float:
        return float(self.query.nominal_value(self.rule.xbar)[0])


def privatize_opf(
    net: PowerNetwork,
    epsilon: float,
    alpha: float,
    eta: float,
    method: str = "vertex",
    seed: int = 0,
    beta: float = 0.01,
    delta_1: float | None = None,
    settings: SolverSettings | None = None,
) -> OpfPrivatization:
    """Solve the chance-constrained OPF counterpart for the cost query.

    The weighted-sum query c'X = 1 makes the cost release's random part
    data-independent; the balance equality is split exactly.  Raises
    InfeasiblePrivatization when the program cannot absorb the noise at
    the requested (alpha, eta); high-privacy settings can genuinely have
    no feasible rule, and the experiment harness records that as a row.
    """
    d1 = delta_1 if delta_1 is not None else opf_sensitivity_bound(net.c, alpha)
    noise = calibrate_laplace(d1, epsilon, k=1)
    query = WeightedSumQuery(net.c)
    if method == "vertex":
        chance = VertexChance(eta=eta, beta=beta)
    elif method == "individual":
        chance = IndividualChance(eta=eta)
    else:
        raise ValueError("method must be 'vertex' or 'individual'")
    program = build_opf(net)
    base = solve(program, settings)
    if base.status != Status.OPTIMAL:
        raise InfeasiblePrivatization(f"base OPF returned {base.status.value}")
    pp = privatize(program, noise, query, chance, seed)
    sol = solve(pp.program, settings)
    if sol.status != Status.OPTIMAL:
        raise InfeasiblePrivatization(
            f"chance-constrained OPF returned {sol.status.value} "
            f"(alpha={alpha}, eta={eta})"
        )
    rule = pp.extract_rule(sol)
    return OpfPrivatization(rule=rule, noise=noise, query=query, privatized=pp,
                            solution=sol, base=base, program=program)


def released_cost_feasible(value: float, cost_lo: float, cost_hi: float,
                           tol: float = 1e-7) -> bool:
    """A scalar cost release is feasible iff some feasible dispatch attains it."""
    return cost_lo - tol <= value <= cost_hi + tol


def input_perturbation_costs(
    net: PowerNetwork,
    alpha: float,
    epsilon: float,
    samples: int,
    seed: int,
    settings: SolverSettings | None = None,
):
    """Input-perturbation study: solve OPF on d + Lap(alpha/eps)^N per draw.

    Returns (costs, solved) arrays; entries with a non-optimal perturbed
    program are marked unsolved and count as infeasible releases.  The
    perturbed programs are solved together (solve_batch).
    """
    spec = calibrate_laplace(alpha, epsilon, k=net.n_nodes)
    programs = [build_opf(net.with_demand(net.d + sample_noise(spec, seed, 1, stream=s)[0]))
                for s in range(samples)]
    sols = solve_batch(programs, settings)
    solved = np.array([sol.status == Status.OPTIMAL for sol in sols], dtype=bool)
    costs = np.array([sol.objective if ok else np.nan for sol, ok in zip(sols, solved)],
                     dtype=float)
    return costs, solved
