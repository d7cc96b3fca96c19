"""Monotone-constrained least squares and its privately released weights.

The fit is h(x) = w'phi(x) with ridge regularization and monotonicity
enforced through C w >= 0, where row i of C holds the basis derivatives at
a probe point u_i.  The fit |y - Phi w|^2 is one rotated-SOC epigraph
over the thin QR of Phi, with at most mb + 3 rows however many data points
there are, and the ridge is a second one.  Under the identity-query rule
(W = I) the expected objective reduces to the deterministic one plus noise
constants, which the solve leaves out, so the transformed program keeps
both epigraphs at wbar and only the monotonicity rows are tightened.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from ..conic import (ConicProgram, ConeSpec, nonneg, quadratic_epigraph, read_only_copy,
                     replace_unchecked, require_optimal)
from ..dp import AdjacencyModel, NoiseSpec
from ..ldr import IndividualChance, Privatization, SelectQuery, privatize
from ..solver import SolverSettings, solve
from .metrics import Study

# epigraph formulations with small ridge weights converge to ~1e-6 here
DEFAULT_SETTINGS = SolverSettings(tol=1e-6, max_iter=100)
CIRCLE_X, CIRCLE_Y = 0.35, 8.0  # circle_law_adjacency's semi-axes


@dataclass(frozen=True)
class BasisSpec:
    """Feature map phi: R -> R^dim with its analytic derivative.

    rows maps a 1-D array of points to their stacked phi rows at once, with
    the bytes that stacking phi per point gives.
    """

    dim: int
    phi: Callable[[float], np.ndarray]
    dphi: Callable[[float], np.ndarray]
    rows: Callable[[np.ndarray], np.ndarray]
    name: str = "basis"

    def design(self, xs: np.ndarray) -> np.ndarray:
        return self.rows(np.ravel(np.asarray(xs, dtype=float)))

    def derivative_rows(self, us: np.ndarray) -> np.ndarray:
        return np.vstack([self.dphi(float(v)) for v in np.ravel(us)])


def cubic_basis() -> BasisSpec:
    """phi(x) = (x, (x-5)^3/2); the synthetic monotone benchmark."""
    return BasisSpec(
        dim=2,
        phi=lambda x: np.array([x, 0.5 * (x - 5.0) ** 3]),
        dphi=lambda x: np.array([1.0, 1.5 * (x - 5.0) ** 2]),
        name="linear+cubic",
        # the cube in Python float math, as phi takes it: numpy's array
        # power can differ from C pow in the last bit
        rows=lambda xs: np.column_stack(
            [xs, 0.5 * np.array([(v - 5.0) ** 3 for v in xs.tolist()], dtype=float)]),
    )


def radial_basis(centers=(3.0, 7.0, 11.0, 15.0)) -> BasisSpec:
    """phi_i(x) = sqrt(1 + (mu_i - x)^2), the wind-curve feature map."""
    mus = np.asarray(centers, dtype=float)
    return BasisSpec(
        dim=len(mus),
        phi=lambda x: np.sqrt(1.0 + (mus - x) ** 2),
        dphi=lambda x: (x - mus) / np.sqrt(1.0 + (mus - x) ** 2),
        name="rbf",
        rows=lambda xs: np.sqrt(1.0 + (mus - xs[:, None]) ** 2),
    )


@dataclass(frozen=True)
class RegressionModel:
    x: np.ndarray
    y: np.ndarray
    basis: BasisSpec
    mono_points: np.ndarray
    ridge: float

    def __post_init__(self):
        for f in ("x", "y", "mono_points"):
            object.__setattr__(self, f, read_only_copy(np.ravel(getattr(self, f))))
        self._check_data()
        C, C_fd = self.C, self._finite_difference_rows()
        if np.abs(C - C_fd).max() > 1e-6:
            raise ValueError("analytic derivative rows disagree with finite differences")

    @cached_property
    def design(self) -> np.ndarray:
        """The feature rows phi(x_i), built once per model (read-only)."""
        design = self.basis.design(self.x)
        design.flags.writeable = False
        return design

    @cached_property
    def thin_qr(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(Q'y, R, rho) of the thin QR Phi = QR, with rho = |y - QQ'y|, so
        |y - Phi w|^2 = |Q'y - Rw|^2 + rho^2 for every w (read-only)."""
        Q, R = np.linalg.qr(self.design)
        qty = Q.T @ self.y
        rho = float(np.linalg.norm(self.y - Q @ qty))
        qty.flags.writeable = False
        R.flags.writeable = False
        return qty, R, rho

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

    def _check_data(self):
        if self.x.shape != self.y.shape:
            raise ValueError("x and y lengths differ")
        if self.x.size == 0:
            raise ValueError("a regression needs at least one data point")

    def with_data(self, x, y) -> "RegressionModel":
        """This model on data (x, y), checked only for what data can break."""
        new = replace_unchecked(self, x=read_only_copy(np.ravel(x)),
                                y=read_only_copy(np.ravel(y)))
        new._check_data()
        return new


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

    Variables (w, u, v): the released weights first, as release_query
    selects them, and the epigraph variables u and v last, as
    privatize_regression's epigraph columns.  The fit is one rotated-SOC block
    (u, H', s [Q'y - R w; rho]) over the thin QR Phi = QR, with
    rho = |y - QQ'y|: its squared norm is s^2 |y - Phi w|^2, so u weighted
    2 H' / s^2 is the fit, and the block has mb + 3 rows for any n >= mb.
    The ridge is the block (v, H, w) with v weighted 2 H ridge, and the
    monotonicity rows form one NonNeg block.
    """
    Phi, C = model.design, model.C
    n, mb = Phi.shape
    nv = mb + 2
    w_i, u_i, v_i = np.arange(mb), mb, mb + 1
    qty, R, rho = model.thin_qr
    # H = max(|y|, 1) on the ridge: w = 0 costs |y|^2, so v* <= H/2.  The
    # ridge's own bound |y|/sqrt(ridge) is not used: at ridge 1e-8 it gives
    # H near 3e5, and the solve of a noiseless line returned w = 0.990 where
    # the fit is exactly 1.
    H = max(float(np.linalg.norm(model.y)), 1.0)
    # The fit block's rows are scaled by s = sqrt(mb/n) and faced by
    # H' = max(rho, 1), the residual norm no w removes; the floor keeps an
    # exact fit (rho = 0) off the cone's apex.  Measured working range on
    # synthetic_cubic_data(n=100, seed=0), whose rho is 37.4: the
    # privatized regression at Delta_2 = 1, 2 and 3 returned Optimal for
    # every H' from 0.1 to 1e5 (kkt_report <= 1e-6 from H' = 3 to 100), and
    # at 0.03 one ended in MaxIter; the base fit stayed within 2e-5 of the
    # ridge oracle from 0.1 to 1e4 and drifted to 2e-2 at 1e5.  The
    # noiseless line (rho = 0, so H' = 1) is within 2e-6 of its fit at
    # H' = 1, 6e-4 at 39 and 0.3 at 1e4.  Two other rules were measured and
    # dropped: H' = |y| s moved the wind config's alpha-0.025 delta_p by
    # 1.5e-3 relative, and H' = max(rho s^2, 1) lost the base fit's
    # accuracy (2e-4 from the oracle) once y was scaled by 30.
    s = math.sqrt(mb / n)
    Hf = max(rho, 1.0)
    M = s * np.vstack([R, np.zeros((1, mb))])
    A1, b1, fit = quadratic_epigraph(nv, u_i, w_i, M, s * np.append(qty, rho), Hf)
    A2, b2, ridge = quadratic_epigraph(nv, v_i, w_i, -np.eye(mb), np.zeros(mb), H)
    A3 = np.zeros((C.shape[0], nv)); A3[:, w_i] = -C
    c = np.zeros(nv); c[u_i] = 2.0 * Hf / (s * s); c[v_i] = 2.0 * H * model.ridge
    names = tuple(f"w[{j}]" for j in range(mb)) + ("u", "v")
    return ConicProgram(
        np.vstack([A1, A2, A3]),
        np.concatenate([b1, b2, np.zeros(C.shape[0])]),
        c,
        ConeSpec([fit, ridge, nonneg(C.shape[0])]),
        variable_names=names,
    )


def release_query(model: RegressionModel) -> SelectQuery:
    """The released weights w: the first mb columns of
    build_monotone_regression."""
    return SelectQuery(range(model.basis.dim))


def _weights_read(model: RegressionModel):
    """The adjacency read of the model's datasets: release_query at an
    Optimal solution."""
    query = release_query(model)
    return lambda ds, sol: query.value(require_optimal(sol, "regression solve").x)


def solve_regression(model: RegressionModel):
    """Returns (w, solution) of the deterministic fit; raises unless the
    solve is Optimal."""
    sol = require_optimal(solve(build_monotone_regression(model), DEFAULT_SETTINGS),
                          "regression solve")
    return release_query(model).value(sol.x), sol


def circle_law_adjacency(model: RegressionModel) -> AdjacencyModel:
    """Whole-dataset universe: point i moves to (CIRCLE_X r cos t + x_i,
    CIRCLE_Y r sin t + y_i) with r ~ U(0,1); all such datasets are
    adjacent."""

    def jitter(rng):
        n = model.x.shape[0]
        r = rng.uniform(0.0, 1.0, size=n)
        t = rng.uniform(0.0, 2.0 * math.pi, size=n)
        return model.with_data(model.x + CIRCLE_X * r * np.cos(t),
                               model.y + CIRCLE_Y * r * np.sin(t))

    return AdjacencyModel(sample_pair=lambda rng: (jitter(rng), jitter(rng)),
                          program=build_monotone_regression, read=_weights_read(model),
                          alpha=math.inf, settings=DEFAULT_SETTINGS)


def value_range_adjacency(model: RegressionModel, frac: float) -> AdjacencyModel:
    """Universe where each response varies within +-frac of its value
    (the wind-curve setting); all such datasets are adjacent, and the
    model's alpha is frac.  frac must lie in (0, 1)."""
    if not 0 < frac < 1:
        raise ValueError(f"value-range fraction must lie in (0, 1), got {frac}")

    def jitter(rng):
        f = rng.uniform(-frac, frac, size=model.y.shape[0])
        return model.with_data(model.x, model.y * (1.0 + f))

    return AdjacencyModel(sample_pair=lambda rng: (jitter(rng), jitter(rng)),
                          program=build_monotone_regression, read=_weights_read(model),
                          alpha=frac, settings=DEFAULT_SETTINGS)


def privatize_regression(
    model: RegressionModel,
    noise: NoiseSpec,
    eta: float,
) -> Privatization:
    """Chance-constrained weights with Gaussian noise and the identity query.

    W = I makes the monotonicity rows' noise part constant, so each row
    tightens to C_i wbar >= z(eta_bar_i) sigma |C_i|; the Gaussian quantile
    is exact here.  The objective keeps its deterministic shape; the solve
    leaves out the constants sigma^2 (Tr Phi'Phi + ridge m_b) the noise
    adds.  The release is the weight vector.
    """
    if noise.family != "gaussian":
        raise ValueError("regression release is calibrated for Gaussian noise")
    pp = privatize(build_monotone_regression(model), noise, release_query(model),
                   IndividualChance(eta=eta), epigraph_vars=2)
    return pp.solve(DEFAULT_SETTINGS, "privatized regression")


def experiment_study(cfg, model: RegressionModel) -> Study:
    """The experiment study (cfg: eta): a released weight row scores its
    loss minus the non-private loss, and is violated when some derivative
    row C w is below -1e-9."""
    w_det, _ = solve_regression(model)
    base_loss = model.loss(w_det)

    def score(rows, pv):
        losses = np.array([model.loss(r) for r in rows]) - base_loss
        return losses, (rows @ model.C.T < -1e-9).any(axis=1)

    return Study(
        nominal=w_det,
        privatize=lambda noise, seed: privatize_regression(model, noise, eta=cfg.eta),
        score=score)
