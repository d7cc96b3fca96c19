import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpconic.dp import (
    AdjacencyModel,
    NoiseSpec,
    SensitivityReport,
    SolveFailure,
    calibrate_gaussian,
    calibrate_laplace,
    estimate_sensitivity,
    rng_stream,
    sample_noise,
    sensitivity_sample_size,
)
from dpconic import dp, solver
from dpconic.apps import ellipsoid, opf, regression, simple_lp, svm
from dpconic.conic import ConeSpec, ConicProgram, Status, build_simple_lp, nonneg
from dpconic.ldr import ConflictingConstraints
from dpconic.risk import cvar_empirical, var_empirical
from dpconic.solver import NumericalBreakdown, solve, stack_bytes
from dpconic.apps.simple_lp import SimpleLpStudy, lower_bound_adjacency


def _stub_program(d):
    """A small LP for dataset d (min x on [d, d + 1])."""
    return build_simple_lp(1.0, d, d + 1.0)


class TestNoiseSpec:
    def test_laplace_variance(self):
        spec = NoiseSpec("laplace", 1, 1.0)
        draws = sample_noise(spec, seed=1, count=10**6).ravel()
        se = draws.var() * math.sqrt(2.0 / len(draws))  # rough SE of variance
        assert abs(draws.var() - 2.0) < 3 * max(se, 5e-3)
        assert abs(draws.mean()) < 3 * draws.std() / math.sqrt(len(draws))

    def test_gaussian_covariance(self):
        spec = NoiseSpec("gaussian", 3, 2.0)
        draws = sample_noise(spec, seed=2, count=10**6)
        cov = np.cov(draws.T)
        assert np.allclose(cov, 4.0 * np.eye(3), atol=0.05)

    def test_reproducible(self):
        spec = NoiseSpec("laplace", 4, 0.3)
        assert np.array_equal(sample_noise(spec, 7, 100), sample_noise(spec, 7, 100))

    def test_streams_differ(self):
        spec = NoiseSpec("gaussian", 2, 1.0)
        a = sample_noise(spec, 7, 10, stream=0)
        b = sample_noise(spec, 7, 10, stream=1)
        assert not np.array_equal(a, b)

    def test_scale_proportionality(self):
        # same seed, different scales: draws exactly proportional
        a = sample_noise(NoiseSpec("laplace", 2, 1.0), 3, 50)
        b = sample_noise(NoiseSpec("laplace", 2, 2.5), 3, 50)
        assert np.allclose(b, 2.5 * a, rtol=0, atol=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec("cauchy", 1, 1.0)
        with pytest.raises(ValueError):
            NoiseSpec("laplace", 0, 1.0)
        with pytest.raises(ValueError):
            NoiseSpec("laplace", 1, 0.0)

    @pytest.mark.parametrize("k", [True, 2.0, 1.5])
    def test_dimension_must_be_an_integer(self, k):
        # True would draw one coordinate
        with pytest.raises(ValueError, match="noise dimension must be an integer"):
            NoiseSpec("laplace", k, 1.0)

    @pytest.mark.parametrize("scale", [math.inf, math.nan])
    def test_scale_must_be_finite(self, scale):
        with pytest.raises(ValueError, match="scale must be positive and finite"):
            NoiseSpec("gaussian", 1, scale)

    @pytest.mark.parametrize("family", ["laplace", "gaussian"])
    def test_half_width_holds_its_mass(self, family):
        # the closed forms, and the empirical mass of 10^6 draws in [-t, t]
        spec = NoiseSpec(family, 1, 0.4)
        closed = {"laplace": 0.4 * math.log(1 / 0.05), "gaussian": 0.4 * 1.959963984540054}
        t = spec.half_width(0.95)
        assert t == pytest.approx(closed[family], rel=1e-14)
        inside = float(np.mean(np.abs(sample_noise(spec, 5, 10**6)) <= t))
        assert abs(inside - 0.95) < 3 * math.sqrt(0.95 * 0.05 / 10**6)

    @pytest.mark.parametrize("family", ["laplace", "gaussian"])
    def test_cvar_matches_the_draws(self, family):
        # kappa against the sort-based CVaR of 10^6 draws, within 5 standard
        # errors: the CVaR's influence function is (zeta - VaR)^+ / tau
        spec = NoiseSpec(family, 1, 25.0)
        draws = sample_noise(spec, 6, 10**6).ravel()
        for tau in (0.99, 0.7, 0.5, 0.3, 0.05, 0.01):
            q = 1.0 - tau
            excess = np.maximum(draws - var_empirical(draws, q), 0.0)
            se = excess.std() / (tau * math.sqrt(draws.size))
            assert abs(spec.cvar(q) - cvar_empirical(draws, q)) < 5 * se, tau

    def test_laplace_cvar_branches_meet_at_half(self):
        spec = NoiseSpec("laplace", 1, 25.0)
        assert spec.cvar(0.5) == 25.0
        for q in (0.5 - 1e-9, 0.5 + 1e-9):
            assert spec.cvar(q) == pytest.approx(25.0, rel=1e-8)
        with pytest.raises(ValueError):
            spec.cvar(1.0)


class TestCalibration:
    def test_laplace_scale(self):
        assert calibrate_laplace(1.0, 1.0).scale == 1.0
        assert calibrate_laplace(21.8, 1.0).scale == 21.8
        assert calibrate_laplace(2.0, 4.0).scale == 0.5

    def test_gaussian_formula(self):
        # sqrt(2 ln 125) * 0.46, frozen from an extended-precision evaluation
        spec = calibrate_gaussian(0.46, 1.0, 0.01)
        assert abs(spec.scale - 1.4294552716424302) < 1e-12

    def test_gaussian_inverse(self):
        # delta chosen so 2 ln(1.25/delta) = 1 gives sigma = delta_2
        delta = 1.25 * math.exp(-0.5)
        assert abs(calibrate_gaussian(1.0, 1.0, delta).scale - 1.0) < 1e-12

    def test_gaussian_epsilon_homogeneity(self):
        lo = calibrate_gaussian(1.0, 1.0, 0.05).scale
        hi = calibrate_gaussian(1.0, 2.0, 0.05).scale
        assert abs(lo - 2 * hi) < 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            calibrate_laplace(0.0, 1.0)
        with pytest.raises(ValueError, match="scale must be positive and finite"):
            calibrate_laplace(math.inf, 1.0)
        with pytest.raises(ValueError):
            calibrate_gaussian(1.0, 1.0, 1.5)


class TestSampleSize:
    def test_paper_value(self):
        assert sensitivity_sample_size(0.1, 0.1) == 99

    def test_formula_value(self):
        assert sensitivity_sample_size(0.5, 0.1) == 19

    def test_domain(self):
        with pytest.raises(ValueError):
            sensitivity_sample_size(1.0, 0.1)
        with pytest.raises(ValueError):
            sensitivity_sample_size(0.1, 0.0)

    @settings(max_examples=50, deadline=None)
    @given(g=st.floats(0.01, 0.99), b=st.floats(0.01, 0.99))
    def test_at_least_formula(self, g, b):
        s = sensitivity_sample_size(g, b)
        assert s >= 1.0 / (g * b) - 1.0 - 1e-9


class TestEstimateSensitivity:
    def test_simple_lp_identity_query(self):
        # x* = lower, so the gap equals the lower-bound shift; sup -> alpha
        study = SimpleLpStudy()
        adj = lower_bound_adjacency(study, alpha=0.5)
        rep = estimate_sensitivity(adj, p=1, samples=400, gamma=0.1, beta=0.1, seed=3)
        assert rep.delta_p <= 0.5 + 1e-9
        assert rep.delta_p > 0.45

    def test_monotone_in_samples(self):
        study = SimpleLpStudy()
        adj = lower_bound_adjacency(study, alpha=0.3)
        small = estimate_sensitivity(adj, p=1, samples=99, gamma=0.1, beta=0.1, seed=5)
        big = estimate_sensitivity(adj, p=1, samples=300, gamma=0.1, beta=0.1, seed=5)
        assert big.delta_p >= small.delta_p  # same streams, superset of samples

    def test_monotone_in_alpha(self):
        study = SimpleLpStudy()
        vals = []
        for alpha in (0.1, 0.2, 0.4):
            adj = lower_bound_adjacency(study, alpha=alpha)
            vals.append(estimate_sensitivity(adj, p=1, samples=99, gamma=0.1,
                                             beta=0.1, seed=11).delta_p)
        assert vals[0] <= vals[1] <= vals[2]

    def test_identical_pair_gives_zero(self):
        adj = AdjacencyModel(
            sample_pair=lambda rng: (1.0, 1.0),
            program=_stub_program,
            read=lambda d, sol: np.array([d]),
            alpha=0.0,
        )
        rep = estimate_sensitivity(adj, p=1, samples=99, gamma=0.1, beta=0.1, seed=0)
        assert rep.delta_p == 0.0

    @staticmethod
    def _failing_adjacency(exc, failing=(3, 7)):
        """Pair s is (s, s + 0.5); solving dataset s raises exc for s in failing."""
        counter = iter(range(10**6))

        def sample_pair(rng):
            s = next(counter)
            return float(s), s + 0.5

        def read(d, sol):
            if d in failing:
                raise exc
            return np.array([d])

        return AdjacencyModel(sample_pair, _stub_program, read, alpha=0.5)

    @pytest.mark.parametrize("exc", [
        RuntimeError("solve returned MaxIter"), ValueError("polyhedron is empty"),
        np.linalg.LinAlgError("singular"), NumericalBreakdown("non-finite"),
        ConflictingConstraints("x <= 0 and x >= 1")])
    def test_solve_failures_are_dropped(self, exc):
        adj = self._failing_adjacency(exc)
        rep = estimate_sensitivity(adj, p=1, samples=99, gamma=0.1, beta=0.1,
                                   seed=0, max_failure_fraction=0.05)
        assert rep.failures == (3, 7)
        assert rep.delta_p == 0.5

    def test_failed_pairs_are_replaced(self):
        # pairs 3 and 7 fail, so pairs 99 and 100 are drawn in their place
        read = []
        adj = self._failing_adjacency(RuntimeError("solve returned MaxIter"))
        orig = adj.read
        adj = dataclasses.replace(adj, read=lambda d, sol: read.append(d) or orig(d, sol))
        rep = estimate_sensitivity(adj, p=1, samples=99, gamma=0.1, beta=0.1,
                                   seed=0, max_failure_fraction=0.05)
        assert (rep.samples, rep.failures) == (99, (3, 7))
        assert {d for d in read if d % 1 == 0} == set(map(float, range(101)))
        assert max(read) == 100.5

    def test_too_many_failures_raise_solve_failure(self):
        adj = self._failing_adjacency(RuntimeError("solve returned MaxIter"))
        with pytest.raises(SolveFailure):
            estimate_sensitivity(adj, p=1, samples=99, gamma=0.1, beta=0.1, seed=0)

    @pytest.mark.parametrize("exc", [KeyError("bug"), TypeError("bug"),
                                     ZeroDivisionError("bug")])
    def test_bugs_propagate(self, exc):
        adj = self._failing_adjacency(exc)
        with pytest.raises(type(exc)):
            estimate_sensitivity(adj, p=1, samples=99, gamma=0.1, beta=0.1,
                                 seed=0, max_failure_fraction=0.05)

    def test_sample_size_precondition(self):
        adj = AdjacencyModel(lambda rng: (1.0, 1.0), _stub_program,
                             lambda d, sol: np.array([d]), 0.0)
        with pytest.raises(ValueError):
            estimate_sensitivity(adj, p=1, samples=10, gamma=0.1, beta=0.1, seed=0)

    BASE = -1.0

    @staticmethod
    def _scripted_adjacency(script):
        """Pair s is the datasets (s, s + 0.5), or, if script names BASE, the
        star-shaped (BASE, s + 0.5) with one BASE object in every pair.
        script maps a dataset to what goes wrong with it: ("build", exc) and
        ("read", exc) raise exc from building its program or from reading its
        solution, "infeasible" builds a primal infeasible LP, "invalid" a
        program with a NaN, (None,) nothing."""
        counter = iter(range(10**6))
        base = TestEstimateSensitivity.BASE

        def sample_pair(rng):
            s = next(counter)
            return base if base in script else float(s), s + 0.5

        def program(d):
            what = script.get(d, (None,))
            if what[0] == "build":
                raise what[1]
            if what[0] == "infeasible":       # x >= d + 1 and x <= d
                return ConicProgram([[-1.0], [1.0]], [-(d + 1.0), d], [1.0],
                                    ConeSpec([nonneg(2)]))
            if what[0] == "invalid":
                return build_simple_lp(1.0, d, math.inf)
            return _stub_program(d)

        def read(d, sol):
            what = script.get(d, (None,))
            if what[0] == "read":
                raise what[1]
            if sol.status != Status.OPTIMAL:
                raise RuntimeError(f"stub LP returned {sol.status.value}")
            return sol.x

        return AdjacencyModel(sample_pair, program, read, alpha=0.5)

    @staticmethod
    def _serial_walk(adjacency, p, samples, seed, max_failure_fraction):
        """estimate_sensitivity as a serial walk that builds, solves and reads
        each dataset in turn: the reference for the batched estimate."""
        worst, failures = 0.0, []
        allowed = max(1, int(max_failure_fraction * samples))
        s = -1
        while s + 1 - len(failures) < samples:     # a failed pair is replaced
            s += 1
            d_a, d_b = adjacency.sample_pair(rng_stream(seed, s))
            try:
                q_a, q_b = (adjacency.released(d, solve(adjacency.program(d),
                                                        adjacency.settings))
                            for d in (d_a, d_b))
            except (RuntimeError, ValueError) as exc:
                failures.append(s)
                if len(failures) > allowed:
                    raise SolveFailure(s, str(exc)) from exc
                continue
            worst = max(worst, float(np.linalg.norm(q_a - q_b, ord=p)))
        return SensitivityReport(p=p, alpha=adjacency.alpha, gamma=0.1, beta=0.1,
                                 samples=samples, delta_p=worst,
                                 failures=tuple(failures))

    SCRIPTS = {
        "within-budget": ({3.0: ("build", RuntimeError("no program")),
                           7.5: ("read", ValueError("bad read")),
                           11.0: ("infeasible",), 20.5: ("invalid",)}, 0.05),
        "budget-spent-then-bug": ({3.0: ("build", RuntimeError("no program")),
                                   7.5: ("read", RuntimeError("bad read")),
                                   12.5: ("build", KeyError("bug"))}, 0.02),
        "bug-within-budget": ({3.0: ("read", ValueError("bad read")),
                               5.0: ("read", KeyError("bug"))}, 0.05),
        # a serial walk never builds the second dataset of pair 4
        "bug-behind-a-failure": ({4.0: ("read", RuntimeError("bad read")),
                                  4.5: ("build", TypeError("bug"))}, 0.05),
        "build-bug": ({2.5: ("build", ZeroDivisionError("bug"))}, 0.05),
        "sample-failures-over-budget": ({1.0: ("infeasible",), 2.5: ("infeasible",)},
                                        0.01),
        "star-within-budget": ({BASE: (None,), 3.5: ("build", RuntimeError("no program")),
                                7.5: ("read", ValueError("bad read")),
                                11.5: ("infeasible",)}, 0.05),
        "star-base-build-fails": ({BASE: ("build", RuntimeError("no program"))}, 0.05),
        "star-base-read-fails": ({BASE: ("read", ValueError("bad read"))}, 0.05),
    }

    @pytest.mark.parametrize("name", sorted(SCRIPTS))
    def test_matches_a_serial_walk(self, name):
        script, fraction = self.SCRIPTS[name]

        def outcome(estimate):
            try:
                return estimate(self._scripted_adjacency(script), 1, 99, 0, fraction)
            except Exception as exc:
                return type(exc), str(exc), getattr(exc, "sample_index", None)

        got = outcome(lambda adj, p, samples, seed, frac: estimate_sensitivity(
            adj, p=p, samples=samples, gamma=0.1, beta=0.1, seed=seed,
            max_failure_fraction=frac))
        assert got == outcome(self._serial_walk)
        if name == "budget-spent-then-bug":
            assert got == (SolveFailure, "sample 7: bad read", 7)
        if name.startswith("star-base"):     # every pair fails; the budget is 4
            assert got[0] is SolveFailure and got[2] == 4

    def test_solves_in_batches_within_the_working_set(self, monkeypatch):
        adj = lower_bound_adjacency(SimpleLpStudy(), alpha=0.5)
        ref = estimate_sensitivity(adj, p=1, samples=99, gamma=0.1, beta=0.1, seed=2)
        calls, real = [], dp.solve_batch

        def counting(programs, settings=None):
            calls.append(sum(stack_bytes(program) for program in programs))
            return real(programs, settings)

        def no_solve(*args, **kwargs):
            raise AssertionError("estimate_sensitivity called solve")
        monkeypatch.setattr(dp, "solve_batch", counting)
        monkeypatch.setattr(solver, "solve", no_solve)
        monkeypatch.setattr(simple_lp, "solve", no_solve)
        budget = 10 * stack_bytes(SimpleLpStudy().program())
        monkeypatch.setattr(dp, "KKT_BATCH_BYTES", budget)
        rep = estimate_sensitivity(adj, p=1, samples=99, gamma=0.1, beta=0.1, seed=2)
        assert rep == ref
        # 100 distinct programs (the shared base once), 10 per chunk
        assert len(calls) == 10 and max(calls) <= budget

    @pytest.mark.parametrize("adjacency", [
        lambda: opf.demand_adjacency(opf.bundled_network("cvar6"), 1.0),
        lambda: lower_bound_adjacency(SimpleLpStudy(), alpha=0.5),
    ], ids=["opf-cvar6", "simple-lp"])
    def test_star_base_is_solved_once(self, adjacency, monkeypatch):
        # every pair's first dataset is one base object: built and solved once
        adj = adjacency()
        built, solved, real = [], [], dp.solve_batch

        def counting(programs, settings=None):
            solved.append(len(programs))
            return real(programs, settings)
        monkeypatch.setattr(dp, "solve_batch", counting)
        counted = dataclasses.replace(
            adj, program=lambda d: built.append(d) or adj.program(d))
        rep = estimate_sensitivity(counted, p=1, samples=99, gamma=0.1, beta=0.1,
                                   seed=4)
        assert (len(built), sum(solved)) == (100, 100)
        fresh = dataclasses.replace(adj, sample_pair=lambda rng: tuple(
            copy.copy(d) for d in adj.sample_pair(rng)))
        ref = estimate_sensitivity(fresh, p=1, samples=99, gamma=0.1, beta=0.1,
                                   seed=4)
        assert rep == ref and rep.delta_p > 0
        assert sum(solved) == 100 + 198     # the copies are built and solved anew


class TestDatasetsAreReadOnly:
    """An app's datasets keep read-only copies of their arrays, so that one
    dataset object always means one program, as estimate_sensitivity's
    sharing of repeated datasets needs."""

    @staticmethod
    def _case(name):
        """(dataset, {field: the caller's array it was built from})."""
        if name == "opf":
            d = opf.bundled_network("cvar6").d + 1.0
            return opf.bundled_network("cvar6").with_demand(d), {"d": d}
        if name == "regression":
            model = regression.synthetic_cubic_data(n=20)
            x, y = model.x + 0.1, model.y * 1.1
            return model.with_data(x, y), {"x": x, "y": y}
        if name == "svm":
            features, labels = np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, -1.0])
            return (svm.LabeledPoints(features, labels, 1.0),
                    {"features": features, "labels": labels})
        b = np.full(4, 2.0)
        return ellipsoid.unit_square().with_b(b), {"b": b}

    @pytest.mark.parametrize("name", ["opf", "regression", "svm", "ellipsoid"])
    def test_arrays_are_read_only_copies(self, name):
        dataset, given = self._case(name)
        kept = {f: a.copy() for f, a in given.items()}
        arrays = [getattr(dataset, f.name) for f in dataclasses.fields(dataset)]
        arrays = [a for a in arrays if isinstance(a, np.ndarray)]
        assert len(arrays) >= len(given)
        for a in arrays:
            with pytest.raises(ValueError):
                a[...] = 0.0
        for f, a in given.items():
            assert np.array_equal(a, kept[f])
            a += 1.0                 # the caller's array stays writable
            assert np.array_equal(getattr(dataset, f), kept[f])

    def test_copies_equal_a_fresh_construction(self):
        # with_demand and with_data skip the checks the new data cannot
        # fail, and build nothing else differently
        net = opf.bundled_network("cvar6")
        d = net.d + 1.0
        model = regression.synthetic_cubic_data(n=20)
        model.design                 # a cached property the copy must not share
        x, y = model.x + 0.1, model.y * 1.1
        pairs = [(net.with_demand(d),
                  opf.PowerNetwork(net.name, net.c, d, net.xmin, net.xmax, net.fmax,
                                   net.F, net.lines)),
                 (model.with_data(x, y),
                  regression.RegressionModel(x, y, model.basis, model.mono_points,
                                             model.ridge))]
        for copied, fresh in pairs:
            for f in dataclasses.fields(fresh):
                a, b = getattr(copied, f.name), getattr(fresh, f.name)
                if isinstance(b, np.ndarray):
                    assert a.dtype == b.dtype and a.shape == b.shape
                    assert a.tobytes() == b.tobytes() and not a.flags.writeable
                else:
                    assert a == b
        copied, fresh = pairs[1]
        assert copied.design.tobytes() == fresh.design.tobytes()

    def test_copies_keep_the_checks_their_data_can_fail(self):
        net = opf.bundled_network("cvar6")
        with pytest.raises(ValueError, match="total capacity below total demand"):
            net.with_demand(net.d + net.xmax.sum())
        model = regression.synthetic_cubic_data(n=20)
        with pytest.raises(ValueError, match="lengths differ"):
            model.with_data(model.x, model.y[:-1])
        with pytest.raises(ValueError, match="at least one data point"):
            model.with_data([], [])

    def test_regression_fit_follows_its_own_data(self):
        # the cached thin QR stays the QR of the model's y after a caller's write
        model = regression.synthetic_cubic_data(n=20)
        y = model.y * 1.1
        shifted = model.with_data(model.x, y)
        qty, R, rho = shifted.thin_qr
        y += 5.0
        w = np.array([1.0, 2.0])
        fit = np.sum((qty - R @ w) ** 2) + rho**2 + shifted.ridge * (w @ w)
        assert shifted.loss(w) == pytest.approx(fit, rel=1e-9)


class TestBaselineStrategies:
    def test_simple_lp_output_infeasibility_half(self):
        # x* = lower: any negative draw leaves the box
        study = SimpleLpStudy()
        spec = NoiseSpec("laplace", 1, 0.05)
        draws = sample_noise(spec, 17, 20000).ravel()
        xs = study.lower + draws
        rate = 1.0 - study.in_box(xs).mean()
        assert abs(rate - 0.5) < 0.02
