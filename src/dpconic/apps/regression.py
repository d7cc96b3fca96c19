"""Monotone-constrained least squares and its privately released weights.

The fit is h(x) = w'phi(x) with ridge regularization and monotonicity
enforced through C w >= 0, where row i of C holds the basis derivatives at
a probe point u_i.  Under the identity-query rule (W = I) the expected
objective reduces to the deterministic one plus noise constants, so the
transformed program keeps the fit and ridge epigraphs at wbar and only the
monotonicity rows are tightened.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ..conic import (ConicProgram, ConeSpec, Solution, Status, nonneg,
                     permute_columns, rsoc)
from ..dp import AdjacencyModel, NoiseSpec, sample_noise
from ..ldr import DecisionRule, IdentityQuery, IndividualChance, privatize
from ..solver import SolverSettings, solve

# epigraph formulations with small ridge weights converge to ~1e-6 here
DEFAULT_SETTINGS = SolverSettings(tol=1e-6, max_iter=100)


@dataclass(frozen=True)
class BasisSpec:
    """Feature map phi: R -> R^dim with its analytic derivative."""

    dim: int
    phi: Callable[[float], np.ndarray]
    dphi: Callable[[float], np.ndarray]
    name: str = "basis"

    def design(self, xs: np.ndarray) -> np.ndarray:
        return np.vstack([self.phi(float(v)) for v in np.ravel(xs)])

    def derivative_rows(self, us: np.ndarray) -> np.ndarray:
        return np.vstack([self.dphi(float(v)) for v in np.ravel(us)])


def cubic_basis() -> BasisSpec:
    """phi(x) = (x, (x-5)^3/2); the synthetic monotone benchmark."""
    return BasisSpec(
        dim=2,
        phi=lambda x: np.array([x, 0.5 * (x - 5.0) ** 3]),
        dphi=lambda x: np.array([1.0, 1.5 * (x - 5.0) ** 2]),
        name="linear+cubic",
    )


def radial_basis(centers=(3.0, 7.0, 11.0, 15.0)) -> BasisSpec:
    """phi_i(x) = sqrt(1 + (mu_i - x)^2), the wind-curve feature map."""
    mus = np.asarray(centers, dtype=float)
    return BasisSpec(
        dim=len(mus),
        phi=lambda x: np.sqrt(1.0 + (mus - x) ** 2),
        dphi=lambda x: (x - mus) / np.sqrt(1.0 + (mus - x) ** 2),
        name="rbf",
    )


@dataclass(frozen=True)
class RegressionModel:
    x: np.ndarray
    y: np.ndarray
    basis: BasisSpec
    mono_points: np.ndarray
    ridge: float

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float).ravel())
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float).ravel())
        object.__setattr__(self, "mono_points",
                           np.asarray(self.mono_points, dtype=float).ravel())
        if self.x.shape != self.y.shape:
            raise ValueError("x and y lengths differ")
        C, C_fd = self.C, self._finite_difference_rows()
        if np.abs(C - C_fd).max() > 1e-6:
            raise ValueError("analytic derivative rows disagree with finite differences")

    @property
    def design(self) -> np.ndarray:
        return self.basis.design(self.x)

    @property
    def C(self) -> np.ndarray:
        return self.basis.derivative_rows(self.mono_points)

    def _finite_difference_rows(self, h: float = 1e-5) -> np.ndarray:
        return np.vstack([
            (self.basis.phi(float(u) + h) - self.basis.phi(float(u) - h)) / (2 * h)
            for u in self.mono_points
        ])

    def loss(self, w: np.ndarray) -> float:
        w = np.asarray(w, dtype=float)
        r = self.y - self.design @ w
        return float(r @ r + self.ridge * (w @ w))

    def with_data(self, x, y) -> "RegressionModel":
        return replace(self, x=np.asarray(x, dtype=float),
                       y=np.asarray(y, dtype=float))


def synthetic_cubic_data(n: int = 100, seed: int = 0, noise_var: float = 15.0,
                         ridge: float = 1e-2,
                         mono_points=(1.0, 9.0)) -> RegressionModel:
    """y = x + (x-5)^3/2 + N(0, noise_var), x ~ U(0, 10)."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 10.0, size=n)
    basis = cubic_basis()
    y = basis.design(x) @ np.ones(2) + rng.normal(0.0, math.sqrt(noise_var), size=n)
    return RegressionModel(x, y, basis, np.asarray(mono_points), ridge)


def synthetic_power_curve(speeds: np.ndarray, cut_in: float = 3.0,
                          rated: float = 12.0) -> np.ndarray:
    """Smooth normalized power curve on [0, 1] (logistic ramp between cut-in
    and rated speed); stands in for manufacturer curves at desk scale."""
    speeds = np.asarray(speeds, dtype=float)
    mid = 0.5 * (cut_in + rated)
    width = (rated - cut_in) / 8.0
    raw = 1.0 / (1.0 + np.exp(-(speeds - mid) / width))
    lo = 1.0 / (1.0 + np.exp(-(cut_in - mid) / width))
    hi = 1.0 / (1.0 + np.exp(-(rated - mid) / width))
    return np.clip((raw - lo) / (hi - lo), 0.0, 1.0)


def build_wind_curve_dataset(speeds, power, noise_sigma: float = 0.1,
                             seed: int = 0, n_mono: int = 10,
                             mono_range=(3.0, 10.0),
                             ridge: float = 1e-4) -> RegressionModel:
    """Perturb curve points with N(0, sigma), clamp to [0, 1], attach the
    4-center radial basis and random monotonicity probes in [3, 10] m/s."""
    rng = np.random.default_rng(seed)
    speeds = np.asarray(speeds, dtype=float)
    power = np.asarray(power, dtype=float)
    if noise_sigma > 0:
        power = power + rng.normal(0.0, noise_sigma, size=power.shape)
    power = np.clip(power, 0.0, 1.0)
    mono = rng.uniform(mono_range[0], mono_range[1], size=n_mono)
    return RegressionModel(speeds, power, radial_basis(), mono, ridge)


def build_monotone_regression(model: RegressionModel) -> ConicProgram:
    """Conic form of min |y - Phi w|^2 + ridge |w|^2 s.t. C w >= 0.

    Variables (u, v, w) with two rotated-SOC epigraphs (fit, ridge) and one
    NonNeg block of monotonicity rows.
    """
    Phi, C = model.design, model.C
    n_pts, mb = Phi.shape
    p = C.shape[0]
    nv = 2 + mb
    u_i, v_i, w_i = 0, 1, np.arange(2, nv)

    A1 = np.zeros((n_pts + 2, nv)); b1 = np.zeros(n_pts + 2)
    A1[0, u_i] = -1.0
    b1[1] = 0.5
    A1[2:, w_i] = Phi
    b1[2:] = model.y
    A2 = np.zeros((mb + 2, nv)); b2 = np.zeros(mb + 2)
    A2[0, v_i] = -1.0
    b2[1] = 0.5
    A2[2:, w_i] = -np.eye(mb)
    A3 = np.zeros((p, nv)); A3[:, w_i] = -C
    c = np.zeros(nv); c[u_i] = 1.0; c[v_i] = model.ridge
    names = ("u", "v") + tuple(f"w[{j}]" for j in range(mb))
    return ConicProgram(
        np.vstack([A1, A2, A3]),
        np.concatenate([b1, b2, np.zeros(p)]),
        c,
        ConeSpec([rsoc(n_pts + 2), rsoc(mb + 2), nonneg(p)]),
        variable_names=names,
    )


def _read_weights(model: RegressionModel, sol: Solution) -> np.ndarray:
    """The basis weights w of a solution; raises unless it is Optimal."""
    if sol.status != Status.OPTIMAL:
        raise RuntimeError(f"regression solve returned {sol.status.value}")
    return sol.x[2:]


def solve_regression(model: RegressionModel, settings: SolverSettings | None = None):
    sol = solve(build_monotone_regression(model), settings or DEFAULT_SETTINGS)
    return _read_weights(model, sol), sol


def circle_law_adjacency(
    model: RegressionModel,
    x_scale: float = 0.35,
    y_scale: float = 8.0,
    settings: SolverSettings | None = None,
) -> AdjacencyModel:
    """Whole-dataset universe: point i moves to (0.35 r cos t + x_i,
    8 r sin t + y_i) with r ~ U(0,1); all such datasets are adjacent."""

    def jitter(rng):
        n = model.x.shape[0]
        r = rng.uniform(0.0, 1.0, size=n)
        t = rng.uniform(0.0, 2.0 * math.pi, size=n)
        return model.with_data(model.x + x_scale * r * np.cos(t),
                               model.y + y_scale * r * np.sin(t))

    def sample_pair(rng):
        return jitter(rng), jitter(rng)

    return AdjacencyModel(sample_pair=sample_pair, program=build_monotone_regression,
                          read=_read_weights, alpha=math.inf,
                          settings=settings or DEFAULT_SETTINGS)


def value_range_adjacency(
    model: RegressionModel,
    frac: float,
    settings: SolverSettings | None = None,
) -> AdjacencyModel:
    """Universe where each response varies within +-frac of its value
    (the wind-curve setting); all such datasets are adjacent."""

    def jitter(rng):
        f = rng.uniform(-frac, frac, size=model.y.shape[0])
        return model.with_data(model.x, model.y * (1.0 + f))

    def sample_pair(rng):
        return jitter(rng), jitter(rng)

    return AdjacencyModel(sample_pair=sample_pair, program=build_monotone_regression,
                          read=_read_weights, alpha=math.inf,
                          settings=settings or DEFAULT_SETTINGS)


@dataclass
class RegressionPrivatization:
    rule: DecisionRule        # xbar = wbar, X = I
    noise: NoiseSpec
    model: RegressionModel
    solution: Solution
    program: ConicProgram
    objective_offset: float

    @property
    def w_nominal(self) -> np.ndarray:
        return self.rule.xbar

    def release(self, seed: int, stream: int = 0) -> np.ndarray:
        return self.w_nominal + sample_noise(self.noise, seed, 1, stream)[0]


def privatize_regression(
    model: RegressionModel,
    noise: NoiseSpec,
    eta: float,
    seed: int = 0,
    eta_bar=None,
    settings: SolverSettings | None = None,
) -> RegressionPrivatization:
    """Chance-constrained weights with Gaussian noise and the identity query.

    W = I makes the monotonicity rows' noise part constant, so each row
    tightens to C_i wbar >= z(eta_bar_i) sigma |C_i|; the Gaussian quantile
    is exact here.  The objective keeps its deterministic shape plus the
    constants sigma^2 (Tr Phi'Phi + ridge m_b), returned in
    objective_offset.
    """
    if noise.family != "gaussian":
        raise ValueError("regression release is calibrated for Gaussian noise")
    mb = model.basis.dim
    if noise.k != mb:
        raise ValueError(f"noise dim {noise.k}, expected {mb}")
    chance = IndividualChance(eta_bar=eta_bar, eta=eta, safety="gaussian")
    # columns (w, u, v): the fit and ridge epigraph variables go last
    program = permute_columns(build_monotone_regression(model),
                              np.r_[2 : 2 + mb, 0, 1])
    pp = privatize(program, noise, IdentityQuery(), chance, seed, epigraph_vars=2)
    sol = solve(pp.program, settings or DEFAULT_SETTINGS)
    if sol.status != Status.OPTIMAL:
        raise RuntimeError(f"privatized regression returned {sol.status.value}")
    var = noise.coordinate_variance
    Phi = model.design
    offset = var * float(np.trace(Phi.T @ Phi)) + model.ridge * var * mb
    return RegressionPrivatization(
        rule=pp.extract_rule(sol), noise=noise, model=model,
        solution=sol, program=pp.program, objective_offset=offset,
    )


def monotonicity_violation_rate(model: RegressionModel, w_center: np.ndarray,
                                noise: NoiseSpec, samples: int, seed: int,
                                stream: int = 0, tol: float = 1e-9) -> float:
    """Fraction of released weights w_center + zeta with some C row negative."""
    draws = sample_noise(noise, seed, samples, stream)
    return float(monotonicity_violated(model, w_center[None, :] + draws, tol).mean())


def monotonicity_violated(model: RegressionModel, ws: np.ndarray,
                          tol: float = 1e-9) -> np.ndarray:
    """Per row of ws, whether some derivative row C w is below -tol."""
    return (ws @ model.C.T < -tol).any(axis=1)


def expected_regression_loss(model: RegressionModel, w_center: np.ndarray,
                             noise: NoiseSpec, samples: int, seed: int,
                             stream: int = 0) -> float:
    """Monte Carlo E[loss(w_center + zeta)] on the model's own data."""
    draws = sample_noise(noise, seed, samples, stream)
    return float(np.mean([model.loss(w_center + d) for d in draws]))
