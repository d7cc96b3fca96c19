import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dpconic.conic import ConeKind, Status
from dpconic.dp import Purpose, calibrate_gaussian, derive_seed, estimate_sensitivity
from dpconic.experiments import APPS, ExperimentConfig
from dpconic.ldr import release_rows
from dpconic.solver import SolverSettings, kkt_report
from dpconic.apps.regression import (
    DEFAULT_SETTINGS,
    BasisSpec,
    RegressionModel,
    build_monotone_regression,
    build_wind_curve_dataset,
    cubic_basis,
    experiment_study,
    privatize_regression,
    radial_basis,
    solve_regression,
    synthetic_cubic_data,
    synthetic_power_curve,
    circle_law_adjacency,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def linear_basis():
    return BasisSpec(dim=1, phi=lambda x: np.array([x]),
                     dphi=lambda x: np.array([1.0]), name="linear")


class TestModel:
    def test_c_matches_finite_differences(self):
        model = synthetic_cubic_data(n=30, seed=0)
        C = model.C
        h = 1e-5
        for i, u in enumerate(model.mono_points):
            fd = (model.basis.phi(u + h) - model.basis.phi(u - h)) / (2 * h)
            assert np.abs(C[i] - fd).max() < 1e-6

    def test_printed_derivative_values(self):
        # derivative of (x-5)^3/2 is 1.5 (x-5)^2: equals 24 at both 1 and 9
        C = cubic_basis().derivative_rows(np.array([1.0, 9.0]))
        assert np.allclose(C, [[1.0, 24.0], [1.0, 24.0]])

    def test_bad_derivative_rejected(self):
        bad = BasisSpec(dim=1, phi=lambda x: np.array([x * x]),
                        dphi=lambda x: np.array([1.0]))  # wrong away from x=0.5
        with pytest.raises(ValueError):
            RegressionModel(np.array([0.0, 1.0]), np.array([0.0, 1.0]), bad,
                            np.array([2.0]), 0.01)


    @pytest.mark.parametrize("basis", [cubic_basis(), radial_basis()],
                             ids=lambda b: b.name)
    def test_array_design_has_the_per_point_bytes(self, basis):
        rng = np.random.default_rng(0)
        xs = np.concatenate([rng.uniform(-5.0, 20.0, 2000), [5.0, 0.0, -0.0, 7.0]])
        per_point = np.vstack([basis.phi(float(v)) for v in xs])
        got = basis.design(xs)
        assert got.shape == per_point.shape
        assert got.tobytes() == per_point.tobytes()

    def test_design_built_once_per_model(self, monkeypatch):
        model = synthetic_cubic_data(n=30, seed=0)
        calls = []
        real = BasisSpec.design

        def counting(self, xs):
            calls.append(1)
            return real(self, xs)
        monkeypatch.setattr(BasisSpec, "design", counting)
        w = np.array([1.0, 1.0])
        losses = [model.loss(w) for _ in range(3)]
        assert len(calls) == 1 and losses[0] == losses[2]
        assert not model.design.flags.writeable
        other = model.with_data(model.x[:10], model.y[:10])
        assert other.design.shape == (10, 2) and len(calls) == 2


def _wind(seed, n=40):
    """The regression-wind dataset, on n speeds."""
    speeds = np.linspace(0.5, 25.0, n)
    return build_wind_curve_dataset(speeds, synthetic_power_curve(speeds), 0.1, seed)


def _ridge_oracle(model):
    Phi = model.design
    return np.linalg.solve(Phi.T @ Phi + model.ridge * np.eye(Phi.shape[1]),
                           Phi.T @ model.y)


class TestThinQrFit:
    """The fit block over the thin QR of Phi: (u, H', s [Q'y - R w; rho])."""

    @pytest.mark.parametrize("model", [synthetic_cubic_data(n=100, seed=2), _wind(2)],
                             ids=["cubic", "wind"])
    def test_block_prices_the_fit(self, model):
        # at the tightest u for the block, u's objective term is |y - Phi w|^2
        program = build_monotone_regression(model)
        k, mb = program.cones.blocks[0].dim, model.basis.dim
        rng = np.random.default_rng(5)
        for _ in range(20):
            # columns (w, u, v)
            x = np.concatenate([rng.normal(0.0, 3.0, mb), [0.0, 0.0]])
            rows = (program.b - program.A @ x)[:k]
            u = rows[2:] @ rows[2:] / (2.0 * rows[1])
            r = model.y - model.design @ x[:mb]
            assert program.c[mb] * u == pytest.approx(r @ r, rel=1e-10)

    @pytest.mark.parametrize("n", [30, 60, 100])
    def test_block_dims_do_not_grow_with_n(self, n):
        for model, k in ((synthetic_cubic_data(n=n, seed=1), 2), (_wind(1, n), 10)):
            mb = model.basis.dim
            program = build_monotone_regression(model)
            assert [(b.kind, b.dim) for b in program.cones.blocks] == [
                (ConeKind.RSOC, mb + 3), (ConeKind.RSOC, mb + 2), (ConeKind.NONNEG, k)]

    def test_fits_match_the_ridge_oracle(self):
        models = [synthetic_cubic_data(n=n, seed=s) for n in (60, 100) for s in range(6)]
        models += [_wind(s) for s in range(6)]
        checked = 0
        for model in models:
            w_oracle = _ridge_oracle(model)
            if (model.C @ w_oracle < 0).any():
                continue   # the monotonicity rows bind: not the ridge fit
            w, _ = solve_regression(model)
            assert np.abs(w - w_oracle).max() <= 5e-5
            checked += 1
        assert checked >= 12

    @pytest.mark.parametrize("name, j", [("regression-cubic", 0), ("regression-wind", 1)])
    def test_calibration_matches_an_accurate_estimate(self, name, j):
        # the config's delta_p at the solver's tol 1e-6 against the same
        # pairs solved to 1e-10
        cfg = json.loads((CONFIGS / f"{name}.json").read_text())
        app = APPS["regression"]
        data = app.data(cfg.get("dataset"), cfg["seed"])
        adj = app.adjacency(data, cfg.get("alphas", [1.0])[j])
        args = app.estimate + (derive_seed(cfg["seed"], Purpose.CALIBRATION, j),)
        got = estimate_sensitivity(adj, 2, *args)
        ref = estimate_sensitivity(
            replace(adj, settings=SolverSettings(tol=1e-10, max_iter=200)), 2, *args)
        assert got.failures == ref.failures == ()
        assert got.delta_p == pytest.approx(ref.delta_p, rel=2e-4)

    def test_fewer_points_than_weights(self):
        # one point and two weights: the ridge alone fixes the weights along
        # the null space of Phi, where a tol-1e-6 solve stays about 1e-4
        # loose; a fit block over all n rows lands 8e-5 from it here
        model = synthetic_cubic_data(n=1, seed=0)
        w, sol = solve_regression(model)
        assert sol.status == Status.OPTIMAL
        assert np.abs(w - _ridge_oracle(model)).max() <= 2e-4

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="at least one data point"):
            synthetic_cubic_data(n=0)


class TestBuildRegression:
    def test_noiseless_line(self):
        x = np.linspace(0, 10, 20)
        model = RegressionModel(x, x.copy(), linear_basis(), np.array([5.0]),
                                ridge=1e-8)
        w, sol = solve_regression(model)
        assert abs(w[0] - 1.0) < 1e-4
        assert model.loss(w) < 1e-4

    def test_synthetic_recovers_truth(self):
        model = synthetic_cubic_data(n=100, seed=3)
        w, _ = solve_regression(model)
        # unconstrained ridge oracle; the constraint is inactive at truth
        Phi = model.design
        w_oracle = np.linalg.solve(Phi.T @ Phi + model.ridge * np.eye(2),
                                   Phi.T @ model.y)
        assert np.allclose(w, w_oracle, atol=1e-4)
        assert np.abs(w - 1.0).max() < 0.25  # sampling error around (1, 1)

    def test_active_constraint_binds(self):
        # decreasing data with an increasing constraint: C w* = 0
        x = np.linspace(0, 10, 30)
        model = RegressionModel(x, -x, linear_basis(), np.array([5.0]), 1e-6)
        w, sol = solve_regression(model)
        assert abs(model.C @ w) < 1e-5
        # KKT: the monotonicity multiplier is active (last row of y)
        assert sol.y[-1] > 1e-3


class TestWindCurve:
    def test_rbf_center_value(self):
        basis = radial_basis()
        for i, mu in enumerate((3.0, 7.0, 11.0, 15.0)):
            assert basis.phi(mu)[i] == pytest.approx(1.0)

    def test_rbf_cross_value(self):
        assert radial_basis().phi(7.0)[0] == pytest.approx(math.sqrt(17.0))

    def test_sigma_zero_keeps_curve(self):
        speeds = np.linspace(0.0, 25.0, 30)
        curve = synthetic_power_curve(speeds)
        model = build_wind_curve_dataset(speeds, curve, noise_sigma=0.0, seed=1)
        assert np.array_equal(model.y, curve)

    def test_noise_clamped_to_unit_interval(self):
        speeds = np.linspace(0.0, 25.0, 50)
        curve = synthetic_power_curve(speeds)
        model = build_wind_curve_dataset(speeds, curve, noise_sigma=0.5, seed=2)
        assert model.y.min() >= 0.0 and model.y.max() <= 1.0

    def test_mono_points_in_range(self):
        speeds = np.linspace(0.0, 25.0, 50)
        model = build_wind_curve_dataset(speeds, synthetic_power_curve(speeds),
                                         seed=3)
        assert model.mono_points.min() >= 3.0
        assert model.mono_points.max() <= 10.0
        assert model.mono_points.size == 10

    def test_wind_fit_solves(self):
        speeds = np.linspace(0.5, 25.0, 40)
        model = build_wind_curve_dataset(speeds, synthetic_power_curve(speeds),
                                         seed=1)
        w, sol = solve_regression(model)
        assert sol.status == Status.OPTIMAL
        # fitted curve is monotone at the probe points
        assert np.all(model.C @ w >= -1e-7)


@pytest.fixture(scope="module")
def reg_setup():
    model = synthetic_cubic_data(n=60, seed=4)
    noise = calibrate_gaussian(0.4, 1.0, 0.01, k=2)
    pv = privatize_regression(model, noise, eta=0.03)
    return model, noise, pv


class TestPrivatizeRegression:

    def test_tightened_rows_hold(self, reg_setup):
        model, noise, pv = reg_setup
        from dpconic.ldr import safety_factor

        z = safety_factor(0.015, "gaussian")
        lhs = model.C @ pv.nominal
        rhs = z * noise.scale * np.linalg.norm(model.C, axis=1)
        # the absolute row violation the solve certifies
        floor = kkt_report(pv.program, pv.solution)["primal"] * (
            1.0 + np.linalg.norm(pv.program.b))
        assert np.all(lhs >= rhs - floor)

    def test_solution_passes_kkt_report(self, reg_setup):
        _, _, pv = reg_setup
        assert max(kkt_report(pv.program, pv.solution).values()) <= DEFAULT_SETTINGS.tol

    @pytest.mark.parametrize("delta_2", [1.0, 2.0, 3.0])
    def test_wide_noise_converges(self, delta_2):
        # with the epigraphs against a constant 1/2, Delta_2 = 2 and 3 ended
        # in MaxIter
        model = synthetic_cubic_data(n=100, seed=0)
        pv = privatize_regression(model, calibrate_gaussian(delta_2, 1.0, 0.01, k=2),
                                  eta=0.05)
        assert pv.solution.status == Status.OPTIMAL
        assert max(kkt_report(pv.program, pv.solution).values()) <= DEFAULT_SETTINGS.tol

    @staticmethod
    def _scores(reg_setup, samples, seed):
        """The study's (losses, violated) of the program's and the output's
        rows, both drawn from one (seed, stream 0)."""
        model, noise, pv = reg_setup
        study = experiment_study(ExperimentConfig(app="regression", eta=0.03), model)
        return (study.score(pv.releases(seed, samples), pv),
                study.score(release_rows(study.nominal, noise, seed, samples), None))

    def test_violation_rate_within_budget(self, reg_setup):
        (_, violated), _ = self._scores(reg_setup, 2000, 9)
        assert violated.mean() <= 0.03 + 3 * math.sqrt(0.03 * 0.97 / 2000)

    def test_output_violation_larger_on_matched_seeds(self, reg_setup):
        (_, v_prog), (_, v_out) = self._scores(reg_setup, 500, 9)
        assert v_out.mean() > v_prog.mean()

    def test_program_loss_at_least_output_loss(self, reg_setup):
        (l_prog, _), (l_out, _) = self._scores(reg_setup, 400, 10)
        assert l_prog.mean() >= l_out.mean()

    def test_laplace_noise_rejected(self, reg_setup):
        model, _, _ = reg_setup
        from dpconic.dp import calibrate_laplace

        with pytest.raises(ValueError):
            privatize_regression(model, calibrate_laplace(0.4, 1.0, k=2), eta=0.03)


class TestAdjacency:
    def test_scales_of_jitter(self):
        model = synthetic_cubic_data(n=40, seed=6)
        adj = circle_law_adjacency(model)
        rng = np.random.default_rng(1)
        d1, _ = adj.sample_pair(rng)
        assert np.abs(d1.x - model.x).max() <= 0.35 + 1e-12
        assert np.abs(d1.y - model.y).max() <= 8.0 + 1e-12

    def test_value_range_universe(self):
        from dpconic.apps.regression import value_range_adjacency

        speeds = np.linspace(0.5, 25.0, 30)
        model = build_wind_curve_dataset(speeds, synthetic_power_curve(speeds),
                                         seed=2)
        adj = value_range_adjacency(model, 0.025)
        rng = np.random.default_rng(3)
        d1, d2 = adj.sample_pair(rng)
        for d in (d1, d2):
            nz = model.y != 0
            assert np.abs(d.y[nz] / model.y[nz] - 1.0).max() <= 0.025 + 1e-12
            assert np.array_equal(d.x, model.x)
