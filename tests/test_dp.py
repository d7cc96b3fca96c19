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
from dpconic.apps import simple_lp
from dpconic.conic import ConeSpec, ConicProgram, Status, build_simple_lp, nonneg
from dpconic.ldr import ConflictingConstraints
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

    @pytest.mark.parametrize("family", ["laplace", "gaussian"])
    def test_half_width_holds_its_mass(self, family):
        # the closed forms, and the empirical mass of 10^6 draws in [-t, t]
        spec = NoiseSpec(family, 1, 0.4)
        closed = {"laplace": 0.4 * math.log(1 / 0.05), "gaussian": 0.4 * 1.959963984540054}
        t = spec.half_width(0.95)
        assert t == pytest.approx(closed[family], rel=1e-14)
        inside = float(np.mean(np.abs(sample_noise(spec, 5, 10**6)) <= t))
        assert abs(inside - 0.95) < 3 * math.sqrt(0.95 * 0.05 / 10**6)


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

    @staticmethod
    def _scripted_adjacency(script):
        """Pair s is the datasets (s, s + 0.5).  script maps a dataset to what
        goes wrong with it: ("build", exc) and ("read", exc) raise exc from
        building its program or from reading its solution, "infeasible"
        builds a primal infeasible LP, "invalid" a program with a NaN."""
        counter = iter(range(10**6))

        def sample_pair(rng):
            s = next(counter)
            return float(s), s + 0.5

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
        assert len(calls) == 20 and max(calls) <= budget


class TestBaselineStrategies:
    def test_simple_lp_output_infeasibility_half(self):
        # x* = lower: any negative draw leaves the box
        study = SimpleLpStudy()
        spec = NoiseSpec("laplace", 1, 0.05)
        draws = sample_noise(spec, 17, 20000).ravel()
        xs = study.lower + draws
        rate = 1.0 - study.in_box(xs).mean()
        assert abs(rate - 0.5) < 0.02
