import dataclasses
import math

import numpy as np
import pytest

from dpconic.conic import (
    ConeKind,
    ConeSpec,
    ConicProgram,
    Status,
    build_simple_lp,
    cone_membership,
    nonneg,
    rsoc,
    slack,
    soc,
    zero,
)
from dpconic import solver
from dpconic.apps import ellipsoid, opf, regression, svm
from dpconic.dp import calibrate_gaussian
from dpconic.solver import SolverSettings, kkt_report, solve

from conftest import random_feasible_program
from per_block_scaling import PerBlockScaling


class TestBasics:
    def test_simple_lp_hits_lower_bound(self):
        sol = solve(build_simple_lp(1.0, 1.0, 2.0))
        assert sol.status == Status.OPTIMAL
        assert abs(sol.x[0] - 1.0) < 1e-7

    def test_soc_projection(self):
        # min t s.t. (t, x - g) in SOC: unconstrained projection, t ~ 0
        g = np.array([0.3, -1.2])
        A = -np.eye(3)
        b = np.array([0.0, -g[0], -g[1]])
        prog = ConicProgram(A, b, np.array([1.0, 0.0, 0.0]), ConeSpec([soc(3)]))
        sol = solve(prog)
        assert sol.status == Status.OPTIMAL
        assert abs(sol.x[0]) < 1e-6
        assert np.allclose(sol.x[1:], g, atol=1e-6)

    def test_two_point_least_squares(self):
        # points (0,0), (1,1), basis phi(x) = x, ridge 0: w = (Phi'Phi)^-1 Phi'y
        Phi = np.array([[0.0], [1.0]])
        y = np.array([0.0, 1.0])
        w_oracle = np.linalg.solve(Phi.T @ Phi, Phi.T @ y)
        # epigraph form: min u s.t. |y - Phi w|^2 <= u
        A = np.zeros((4, 2))
        A[0, 0] = -1.0
        A[2:, 1] = Phi.ravel()
        b = np.array([0.0, 0.5, y[0], y[1]])
        prog = ConicProgram(A, b, np.array([1.0, 0.0]), ConeSpec([rsoc(4)]))
        sol = solve(prog)
        assert sol.status == Status.OPTIMAL
        assert abs(sol.x[1] - w_oracle[0]) < 1e-6

    def test_primal_infeasible(self):
        prog = ConicProgram(np.array([[-1.0], [1.0]]), np.array([-2.0, 1.0]),
                            np.array([1.0]), ConeSpec([nonneg(2)]))
        assert solve(prog).status == Status.PRIMAL_INFEASIBLE

    def test_dual_infeasible(self):
        prog = ConicProgram(np.array([[-1.0]]), np.zeros(1), np.array([-1.0]),
                            ConeSpec([nonneg(1)]))
        assert solve(prog).status == Status.DUAL_INFEASIBLE

    def test_equality_only_program(self):
        prog = ConicProgram(np.array([[1.0, 1.0]]), np.array([1.0]),
                            np.array([1.0, 1.0]), ConeSpec([zero(1)]))
        sol = solve(prog)
        assert sol.status == Status.OPTIMAL
        assert abs(sol.objective - 1.0) < 1e-8

    def test_optimal_solution_in_cone(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = random_feasible_program(rng)
            sol = solve(p)
            assert sol.status == Status.OPTIMAL
            assert cone_membership(slack(p, sol.x), p.cones, 10 * 1e-8)


class TestKktReport:
    def test_optimal_residuals_small(self):
        p = build_simple_lp(1.0, 1.0, 2.0)
        rep = kkt_report(p, solve(p))
        assert all(v <= 1e-7 for v in rep.values())

    def test_perturbed_solution_flagged(self):
        p = build_simple_lp(1.0, 1.0, 2.0)
        sol = solve(p)
        shifted = type(sol)(x=sol.x + 0.1, y=sol.y, status=sol.status,
                            objective=sol.objective, residuals=sol.residuals)
        rep = kkt_report(p, shifted)
        assert max(rep["primal"], rep["complementarity"]) > 1e-3

    def test_zero_program(self):
        p = ConicProgram(np.zeros((2, 2)), np.zeros(2), np.zeros(2),
                         ConeSpec([nonneg(2)]))
        sol = solve(p)
        rep = kkt_report(p, sol)
        assert all(v <= 1e-9 for v in rep.values())


class TestRandomInstances:
    def test_batch_to_kkt_tolerance(self):
        rng = np.random.default_rng(77)
        for _ in range(60):
            p = random_feasible_program(rng)
            sol = solve(p, SolverSettings(tol=1e-8))
            assert sol.status == Status.OPTIMAL
            assert max(kkt_report(p, sol).values()) <= 1e-6

    def test_self_duality_on_random_lps(self):
        # dual of min c'x s.t. b - Ax >= 0 is min b'y s.t. A'y + c = 0, y >= 0
        rng = np.random.default_rng(123)
        for _ in range(10):
            n, m = 6, 10
            A = rng.normal(size=(m, n))
            x0 = rng.normal(size=n)
            s0 = rng.uniform(0.5, 2.0, m)
            y0 = rng.uniform(0.5, 2.0, m)
            primal = ConicProgram(A, A @ x0 + s0, -A.T @ y0, ConeSpec([nonneg(m)]))
            psol = solve(primal)
            Ad = np.vstack([A.T, -np.eye(m)])
            bd = np.concatenate([-primal.c, np.zeros(m)])
            dual = ConicProgram(Ad, bd, primal.b, ConeSpec([zero(n), nonneg(m)]))
            dsol = solve(dual)
            assert psol.status == dsol.status == Status.OPTIMAL
            assert abs(psol.objective + dsol.objective) <= 1e-6 * (1 + abs(psol.objective))

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(9)
        p = random_feasible_program(rng)
        s1, s2 = solve(p), solve(p)
        assert np.array_equal(s1.x, s2.x)
        assert np.array_equal(s1.y, s2.y)
        assert s1.iterations == s2.iterations


class TestSettings:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverSettings(tol=2.0)
        with pytest.raises(ValueError):
            SolverSettings(max_iter=0)

    def test_invalid_program_rejected(self):
        p = ConicProgram(np.eye(2), np.ones(3), np.ones(2), ConeSpec([nonneg(2)]))
        with pytest.raises(ValueError):
            solve(p)


def _program(blocks, n=5, seed=0):
    rng = np.random.default_rng(seed)
    cones = ConeSpec(blocks)
    return ConicProgram(rng.normal(size=(cones.dim, n)), rng.normal(size=cones.dim),
                        rng.normal(size=n), cones)


def _interior(lay, rng):
    """A random interior point of the layout's cone (SOC frame)."""
    x = np.empty(lay.m_cone)
    x[: lay.l] = rng.uniform(0.5, 2.0, lay.l)
    for sl in lay.q_slices:
        u = rng.normal(size=sl.stop - sl.start)
        u[0] = np.linalg.norm(u[1:]) + rng.uniform(0.1, 2.0)
        x[sl] = u
    return x


def _same(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


LAYOUTS = {
    "soc-dims-1-2": [soc(1), nonneg(3), soc(2), soc(1)],
    "mixed-rsoc-soc": [rsoc(3), soc(4), nonneg(2), rsoc(5), soc(3), rsoc(2)],
    # the dim-3 and dim-4 groups are not one run of rows: gathered, not viewed
    "alternating-dims": [soc(3), soc(4)] * 4 + [soc(5)],
    "single-302": [soc(302)],
    "nonneg-only": [nonneg(6)],
    # the regression base: one block per dimension, so every dot is a slice dot
    "regression-base": [rsoc(102), rsoc(4), nonneg(2)],
}


class TestBatchedScaling:
    """solver._Scaling equals the per-block reference bit for bit."""

    @pytest.mark.parametrize("name", sorted(LAYOUTS))
    def test_every_method_bit_identical(self, name):
        lay = solver._Layout(_program(LAYOUTS[name]))
        rng = np.random.default_rng(3)
        ref, bat = PerBlockScaling(lay), solver._Scaling(lay)
        s, z = _interior(lay, rng), _interior(lay, rng)
        assert _same(ref.compute(s, z), bat.compute(s, z))
        for _ in range(6):
            x, y = rng.normal(size=lay.m_cone), rng.normal(size=lay.m_cone)
            B = rng.normal(size=(lay.m_cone, 7))
            for inverse in (False, True):
                assert _same(ref.apply(x, inverse), bat.apply(x, inverse))
                assert _same(ref.apply_matrix(B, inverse), bat.apply_matrix(B, inverse))
            assert _same(ref.jordan_prod(x, y), bat.jordan_prod(x, y))
            assert _same(ref.jordan_prod(ref.lam, ref.lam), bat.jordan_prod(bat.lam, bat.lam))
            assert _same(ref.jordan_div(x), bat.jordan_div(x))
            assert _same(ref.max_residual_step(x), bat.max_residual_step(x))
            assert _same(ref.max_step_to_boundary(x), bat.max_step_to_boundary(x))
            # a chain of NT updates from fresh interior iterates
            s_new, z_new = _interior(lay, rng), _interior(lay, rng)
            ref.update(s_new, z_new)
            bat.update(s_new, z_new)
            assert _same(ref.lam, bat.lam)

    @staticmethod
    def _assert_matches_reference(monkeypatch, program, settings, sol):
        with monkeypatch.context() as m:
            m.setattr(solver, "_Scaling", PerBlockScaling)
            ref = solve(program, settings)
        assert sol.x.tobytes() == ref.x.tobytes()
        assert sol.y.tobytes() == ref.y.tobytes()
        assert sol.iterations == ref.iterations
        assert sol.status == ref.status

    def test_whole_solves_on_acceptance_corpus(self, monkeypatch):
        rng = np.random.default_rng(20260809)
        settings = SolverSettings(tol=1e-8)
        for _ in range(50):
            program = random_feasible_program(rng)
            self._assert_matches_reference(monkeypatch, program, settings,
                                           solve(program, settings))

    def test_whole_solve_on_privatized_ellipsoid(self, monkeypatch):
        noise = calibrate_gaussian(0.05, 1.0, 0.1, k=ellipsoid.RULE_DIM)
        pv = ellipsoid.privatize_ellipsoid(ellipsoid.regular_polygon(5, 2.0), noise,
                                           eta=0.1, seed=1)
        assert len(solver._Layout(pv.program).q_dims) == 416
        self._assert_matches_reference(monkeypatch, pv.program, ellipsoid.DEFAULT_SETTINGS,
                                       pv.solution)

    def test_whole_solve_on_regression_base(self, monkeypatch):
        program = regression.build_monotone_regression(
            regression.synthetic_cubic_data(n=100))
        assert [(b.kind, b.dim) for b in program.cones.blocks] == [
            (ConeKind.RSOC, 102), (ConeKind.RSOC, 4), (ConeKind.NONNEG, 2)]
        sol = solve(program, regression.DEFAULT_SETTINGS)
        assert sol.status == Status.OPTIMAL
        self._assert_matches_reference(monkeypatch, program, regression.DEFAULT_SETTINGS,
                                       sol)


def ruiz_eight_rounds(lay, c):
    """_Equilibration's factors from all 8 Ruiz rounds, with no early exit."""
    M = np.vstack([lay.Aeq, lay.G])
    sizes = np.concatenate([np.ones(lay.p + lay.l, dtype=int),
                            np.array(lay.q_dims, dtype=int)])
    starts = np.cumsum(sizes) - sizes
    r, s = np.ones(M.shape[0]), np.ones(lay.n)
    for _ in range(8):
        Ms = (M * r[:, None]) * s[None, :]
        gmx = np.maximum.reduceat(np.abs(Ms).max(axis=1), starts)
        nz = gmx > 0
        f = np.ones(sizes.size)
        f[nz] = solver._pow2(1.0 / np.sqrt(gmx[nz]))
        r *= np.repeat(f, sizes)
        Ms = (M * r[:, None]) * s[None, :]
        cmx = np.abs(Ms).max(axis=0)
        nz = cmx > 0
        s[nz] *= solver._pow2(1.0 / np.sqrt(cmx[nz]))
    b_all = np.concatenate([lay.beq * r[:lay.p], lay.h * r[lay.p:]])
    g_b = float(solver._pow2(1.0 / max(1.0, np.abs(b_all).max(initial=0.0))))
    g_c = float(solver._pow2(1.0 / max(1.0, np.abs(c * s).max(initial=0.0))))
    return r, s, g_b, g_c


def _bundled_programs():
    svm_train, _, _ = svm.synthetic_gaussian_classes(m=100, seed=7)
    noise = calibrate_gaussian(0.05, 1.0, 0.1, k=ellipsoid.RULE_DIM)
    progs = [opf.build_opf(opf.bundled_network(name))
             for name in ("triangle3", "ring5", "cvar6")]
    progs += [build_simple_lp(1.0, 1.0, 2.0),
              ellipsoid.build_ellipsoid(ellipsoid.regular_polygon(5, 2.0)),
              regression.build_monotone_regression(regression.synthetic_cubic_data(n=30)),
              svm.build_svm(svm_train),
              ellipsoid.privatize_ellipsoid(ellipsoid.regular_polygon(5, 2.0), noise,
                                            eta=0.1, seed=1).program]
    return progs


class TestEquilibration:
    def _check(self, program):
        lay = solver._Layout(program)
        eq = solver._Equilibration(lay, program.c)
        r, s, g_b, g_c = ruiz_eight_rounds(lay, program.c)
        assert _same(np.concatenate([eq.r_eq, eq.r_cone]), r)
        assert _same(eq.s, s)
        assert (eq.g_b, eq.g_c) == (g_b, g_c)

    def test_equals_eight_rounds_on_acceptance_corpus(self):
        rng = np.random.default_rng(20260809)
        for _ in range(1000):
            self._check(random_feasible_program(rng))

    def test_equals_eight_rounds_on_bundled_programs(self):
        for program in _bundled_programs():
            self._check(program)


@pytest.fixture(params=["solver", "per-block"])
def scaling_class(request, monkeypatch):
    """The solver's _Scaling, or the per-block reference patched in its place,
    so that the breakdown paths are checked on both."""
    if request.param == "per-block":
        monkeypatch.setattr(solver, "_Scaling", PerBlockScaling)
    return solver._Scaling


class TestNumericalBreakdown:
    def test_non_finite_scaling_returns_max_iter(self, monkeypatch, scaling_class):
        cls = scaling_class
        orig, calls = cls.apply_matrix, []

        def poisoned(self, B, inverse=False):
            # the first factor uses the identity scaling; later ones get NaN
            calls.append(inverse)
            out = orig(self, B, inverse)
            return out if len(calls) == 1 else np.full_like(out, np.nan)
        monkeypatch.setattr(cls, "apply_matrix", poisoned)
        sol = solve(random_feasible_program(np.random.default_rng(4)))
        assert len(calls) == 2
        assert sol.status == Status.MAX_ITER

    @pytest.mark.parametrize("program", ["opf-cvar6", "pentagon-ellipsoid"])
    @pytest.mark.parametrize("poisoned_update", [1, 2, 4])
    def test_nan_after_update_returns_max_iter(self, monkeypatch, scaling_class, program,
                                               poisoned_update):
        cls = scaling_class
        orig, calls = cls.update, []

        def poisoned(self, s, z):
            orig(self, s, z)
            calls.append(1)
            if len(calls) == poisoned_update:
                self.lam[:] = np.nan
        monkeypatch.setattr(cls, "update", poisoned)
        prog = _NAMED_PROGRAMS[program]()
        sol = solve(prog, SolverSettings(tol=1e-7, max_iter=150))
        assert len(calls) == poisoned_update
        assert sol.status == Status.MAX_ITER
        assert np.isfinite(sol.x).all() and np.isfinite(sol.y).all()
        assert sol.iterations == poisoned_update

    @pytest.mark.usefixtures("scaling_class")
    def test_apex_optimum_ends_in_a_status(self):
        # min t s.t. t >= x^2: the optimum is the RSOC apex, where the dual's
        # J-norm reaches 0 and the NT scaling is undefined
        def program(c0):
            return ConicProgram(np.array([[0.0, -1.0], [0.0, 0.0], [-1.0, 0.0]]),
                                np.array([0.0, 0.5, 0.0]), np.array([c0, 1.0]),
                                ConeSpec([rsoc(3)]))
        with np.errstate(all="raise"):
            sol = solve(program(0.0))
        assert sol.status == Status.MAX_ITER
        assert sol.iterations == 28
        assert np.isfinite(sol.x).all() and np.isfinite(sol.y).all()
        sol = solve(program(0.3))
        assert sol.status == Status.OPTIMAL and sol.iterations == 7

    def test_nan_kkt_solve_returns_max_iter(self, monkeypatch):
        orig, calls = solver.lu_solve, []

        def poisoned(lu, rhs, **kw):
            calls.append(1)
            out = orig(lu, rhs, **kw)
            return np.full_like(out, np.nan) if len(calls) == 10 else out
        monkeypatch.setattr(solver, "lu_solve", poisoned)
        sol = solve(_NAMED_PROGRAMS["opf-cvar6"]())
        assert len(calls) == 10
        assert sol.status == Status.MAX_ITER
        assert np.isfinite(sol.x).all() and np.isfinite(sol.y).all()

    def test_kkt_report_non_finite_is_inf(self):
        p = random_feasible_program(np.random.default_rng(5))
        sol = solve(p)
        assert max(kkt_report(p, sol).values()) <= 1e-6
        bad_x = dataclasses.replace(sol, x=np.full(p.n, np.nan))
        rep = kkt_report(p, bad_x)
        assert rep["primal"] == rep["gap"] == rep["complementarity"] == math.inf
        assert rep["dual"] <= 1e-6
        bad_y = dataclasses.replace(sol, y=np.where(np.arange(p.m) == 0, np.inf, sol.y))
        rep = kkt_report(p, bad_y)
        assert rep["dual"] == rep["gap"] == rep["complementarity"] == math.inf
        assert rep["primal"] <= 1e-6


_NAMED_PROGRAMS = {
    "opf-cvar6": lambda: opf.build_opf(opf.bundled_network("cvar6")),
    "pentagon-ellipsoid": lambda: ellipsoid.build_ellipsoid(ellipsoid.regular_polygon(5, 2.0)),
}


def _highs(program):
    """scipy's HiGHS on a Zero/NonNeg program: (status, objective)."""
    from scipy.optimize import linprog

    eq = np.zeros(program.m, dtype=bool)
    for blk, start in program.cones.offsets():
        assert blk.kind in (ConeKind.ZERO, ConeKind.NONNEG)
        eq[start:start + blk.dim] = blk.kind == ConeKind.ZERO
    A, b = program.A, program.b
    res = linprog(program.c, A_ub=A[~eq], b_ub=b[~eq],
                  A_eq=A[eq] if eq.any() else None, b_eq=b[eq] if eq.any() else None,
                  bounds=(None, None), method="highs")
    return res.status, res.fun


def _random_lp(rng, kind):
    """Zero + NonNeg program that is feasible, infeasible or unbounded."""
    n, m, p = 6, 12, 2
    A = rng.normal(size=(m, n))
    Aeq = rng.normal(size=(p, n))
    x0 = rng.normal(size=n)
    y0 = rng.uniform(0.5, 2.0, m)
    if kind == "unbounded":
        # a recession direction d: A d <= 0, Aeq d = 0, c'd < 0
        d = rng.normal(size=n)
        A[A @ d > 0] *= -1.0
        Aeq -= np.outer(Aeq @ d, d) / (d @ d)
        c = rng.normal(size=n)
        c -= (c @ d + 1.0) * d / (d @ d)
    else:
        c = -A.T @ y0 - Aeq.T @ rng.normal(size=p)
    b = A @ x0 + rng.uniform(0.5, 2.0, m)
    if kind == "infeasible":
        # a'x <= a'x0 - 1 and a'x >= a'x0 + 1 (the dual stays feasible)
        a = rng.normal(size=n)
        A = np.vstack([A, a, -a])
        b = np.concatenate([b, [a @ x0 - 1.0, -(a @ x0) - 1.0]])
        c = -A.T @ np.concatenate([y0, [1.0, 1.0]]) - Aeq.T @ rng.normal(size=p)
    cones = ConeSpec([zero(p), nonneg(A.shape[0])])
    return ConicProgram(np.vstack([Aeq, A]), np.concatenate([Aeq @ x0, b]), c, cones)


class TestHighsDifferential:
    """Statuses and objectives match scipy's HiGHS on LPs."""

    EXPECTED = {0: Status.OPTIMAL, 2: Status.PRIMAL_INFEASIBLE, 3: Status.DUAL_INFEASIBLE}

    def _check(self, program):
        hs, hobj = _highs(program)
        sol = solve(program)
        assert sol.status == self.EXPECTED[hs]
        if hs == 0:
            assert abs(sol.objective - hobj) <= 1e-6 * max(1.0, abs(hobj))
        return hs

    @pytest.mark.parametrize("kind,status", [("feasible", 0), ("infeasible", 2),
                                             ("unbounded", 3)])
    @pytest.mark.parametrize("index", range(15))
    def test_random_lps(self, kind, status, index):
        rng = np.random.default_rng(31)
        for _ in range(index):
            _random_lp(rng, kind)
        assert self._check(_random_lp(rng, kind)) == status

    @pytest.mark.parametrize("name", ["triangle3", "ring5", "cvar6"])
    def test_bundled_opf(self, name):
        assert self._check(opf.build_opf(opf.bundled_network(name))) == 0

    def test_simple_lp(self):
        assert self._check(build_simple_lp(1.0, 1.0, 2.0)) == 0
