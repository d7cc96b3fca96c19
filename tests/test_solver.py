import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp

from dpconic.conic import (
    ConeKind,
    ConeSpec,
    ConicProgram,
    Status,
    as_dense,
    build_simple_lp,
    cone_membership,
    nonneg,
    quadratic_epigraph,
    rsoc,
    slack,
    soc,
    zero,
)
from dpconic import solver
from dpconic.apps import ellipsoid, opf, regression, simple_lp, svm
from dpconic.dp import (calibrate_gaussian, calibrate_laplace, derive_seed, rng_stream,
                        sample_noise)
from dpconic.ldr import (IndividualChance, VertexChance, WeightedSumQuery,
                         privatize)
from dpconic.solver import SolverSettings, kkt_report, solve, solve_batch

from conftest import random_feasible_program
from per_block_scaling import PerBlockScaling, PerBlockStack, pattern_to_dense


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

    def test_frozen_single_sample_cvar_lp(self):
        # the one-draw sample-CVaR epigraph (gamma, z) of the privatized
        # simple LP at q 0.9, its rule (xbar, X) frozen by the last two rows:
        # the optimum is the one loss xbar + X zeta.  At tol 1e-11 the solver
        # ends in MaxIter after 14 iterations at a kkt_report gap of 5.2e-10
        a = -0.1497866136776995
        zeta = 0.02857932414132275
        xbar = 1.1497866137686243
        A = np.array([[0.0, 1.0, 0.0, 0.0],
                      [1.0, a, 0.0, 0.0], [-1.0, -a, 0.0, 0.0],
                      [1.0, -a, 0.0, 0.0], [-1.0, a, 0.0, 0.0],
                      [0.0, 0.0, 0.0, -1.0],
                      [1.0, zeta, -1.0, -1.0],
                      [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        b = np.array([1.0, 2.0, -1.0, 2.0, -1.0, 0.0, 0.0, xbar, 1.0])
        c = np.array([0.0, 0.0, 1.0, 1.0 / ((1.0 - 0.9) * 1)])
        prog = ConicProgram(A, b, c, ConeSpec([zero(1), nonneg(2), nonneg(2), nonneg(1),
                                               nonneg(1), zero(2)]))
        assert (prog.n, prog.m) == (4, 9)
        sol = solve(prog, SolverSettings(tol=1e-11))
        assert abs(sol.objective - (xbar + zeta)) < 1e-8


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

    @pytest.mark.parametrize("max_iter", [2.5, True, 10.0])
    def test_max_iter_must_be_an_integer(self, max_iter):
        # a bool would run as 1 iteration; 2.5 got as far as the iteration
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            SolverSettings(max_iter=max_iter)

    def test_invalid_program_rejected(self):
        # an invalid program never reaches solve: its construction raises
        with pytest.raises(ValueError, match="^invalid program: b length 3 != m=2$"):
            ConicProgram(np.eye(2), np.ones(3), np.ones(2), ConeSpec([nonneg(2)]))


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
    """solver._Scaling equals the per-block reference bit for bit, on every
    program of a stack."""

    STACK = 3

    @pytest.mark.parametrize("name", sorted(LAYOUTS))
    def test_every_method_bit_identical(self, name):
        lay = solver._Layout([_program(LAYOUTS[name])] * self.STACK)
        rng = np.random.default_rng(3)
        refs, bat = [PerBlockScaling(lay) for _ in range(self.STACK)], solver._Scaling(lay)

        def stack(draw):
            return np.array([draw() for _ in range(self.STACK)])

        def check(method, *args, **kw):
            got = getattr(bat, method)(*args, **kw)
            for k, ref in enumerate(refs):
                assert _same(getattr(ref, method)(*(a[k] for a in args), **kw), got[k])

        s, z = stack(lambda: _interior(lay, rng)), stack(lambda: _interior(lay, rng))
        check("compute", s, z)
        for _ in range(6):
            x, y = rng.normal(size=(2, self.STACK, lay.m_cone))
            B = rng.normal(size=(self.STACK, lay.m_cone, 7))
            for inverse in (False, True):
                check("apply", x, inverse=inverse)
                check("apply_matrix", B, inverse=inverse)
            check("jordan_prod", x, y)
            check("jordan_prod", bat.lam, bat.lam)
            check("jordan_div", x)
            check("max_residual_step", x)
            check("max_step_to_boundary", x)
            # a chain of NT updates from fresh interior iterates
            s_new = stack(lambda: _interior(lay, rng))
            z_new = stack(lambda: _interior(lay, rng))
            bat.update(s_new, z_new)
            for k, ref in enumerate(refs):
                ref.update(s_new[k], z_new[k])
                assert _same(ref.lam, bat.lam[k])

    @staticmethod
    def _assert_matches_reference(monkeypatch, program, settings, sol):
        with monkeypatch.context() as m:
            m.setattr(solver, "_Scaling", PerBlockStack)
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
        assert len(solver._Layout([pv.program]).q_dims) == 416
        self._assert_matches_reference(monkeypatch, pv.program, ellipsoid.DEFAULT_SETTINGS,
                                       pv.solution)

    def test_whole_solve_on_regression_base(self, monkeypatch):
        # the regression base with its fit as one block over all 100 data
        # points (the builder's thin-QR block has 5 rows): a large RSOC
        # block beside small ones
        model = regression.synthetic_cubic_data(n=100)
        H = float(np.linalg.norm(model.y))
        w = np.arange(2, 4)
        A1, b1, fit = quadratic_epigraph(4, 0, w, model.design, model.y, H)
        A2, b2, ridge = quadratic_epigraph(4, 1, w, -np.eye(2), np.zeros(2), H)
        A3 = np.zeros((2, 4)); A3[:, w] = -model.C
        program = ConicProgram(np.vstack([A1, A2, A3]), np.concatenate([b1, b2, [0, 0]]),
                               np.array([2 * H, 2 * H * model.ridge, 0, 0]),
                               ConeSpec([fit, ridge, nonneg(2)]))
        assert [(b.kind, b.dim) for b in program.cones.blocks] == [
            (ConeKind.RSOC, 102), (ConeKind.RSOC, 4), (ConeKind.NONNEG, 2)]
        sol = solve(program, regression.DEFAULT_SETTINGS)
        assert sol.status == Status.OPTIMAL
        self._assert_matches_reference(monkeypatch, program, regression.DEFAULT_SETTINGS,
                                       sol)


def ruiz_eight_rounds(lay, c, i):
    """_Equilibration's factors for program i of the stack from all 8 Ruiz
    rounds, with no early exit."""
    G = lay.G if lay.kkt is None else pattern_to_dense(lay.G)
    M = np.vstack([lay.Aeq[i], G[i]])
    c = c[i]
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
    b_all = np.concatenate([lay.beq[i] * r[:lay.p], lay.h[i] * r[lay.p:]])
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
    """Each program of a stack gets the factors of eight Ruiz rounds of its
    own, whenever the stack stops."""

    def _check(self, programs):
        lay = solver._Layout(programs)
        c = np.array([program.c for program in programs])
        eq = solver._Equilibration(lay, c)
        for i in range(len(programs)):
            r, s, g_b, g_c = ruiz_eight_rounds(lay, c, i)
            assert _same(np.concatenate([eq.r_eq[i], eq.r_cone[i]]), r)
            assert _same(eq.s[i], s)
            assert (eq.g_b[i], eq.g_c[i]) == (g_b, g_c)

    def test_equals_eight_rounds_on_acceptance_corpus(self):
        rng = np.random.default_rng(20260809)
        for group in _by_shape(random_feasible_program(rng) for _ in range(1000)):
            self._check(group)

    def test_equals_eight_rounds_on_bundled_programs(self):
        # each with a copy whose rows are rescaled, which needs other factors
        for program in _bundled_programs():
            scale = np.linspace(0.3, 40.0, program.m)
            copy = ConicProgram(program.A * scale[:, None], program.b * scale,
                                program.c * 7.0, program.cones)
            self._check([program, copy])


def _by_shape(programs):
    """The programs grouped by shape (n and cone blocks), in first-seen order."""
    groups: dict = {}
    for program in programs:
        groups.setdefault((program.n, program.cones.blocks), []).append(program)
    return list(groups.values())


@pytest.fixture(params=["solver", "per-block"])
def scaling_class(request, monkeypatch):
    """The solver's _Scaling, or the per-block reference patched in its place,
    so that the breakdown paths are checked on both."""
    if request.param == "per-block":
        monkeypatch.setattr(solver, "_Scaling", PerBlockStack)
    return solver._Scaling


@pytest.fixture
def sparse_path(monkeypatch):
    """Every layout, however small, on the sparse KKT factor."""
    monkeypatch.setattr(solver, "_SPARSE_MIN_ORDER", 0)
    monkeypatch.setattr(solver, "_SPARSE_MAX_DENSITY", 1.0)


class _PoisonedLU:
    """A SuperLU factor whose solve gives NaN at the call-th solve."""

    def __init__(self, lu, calls, call):
        self.lu, self.calls, self.call = lu, calls, call

    def solve(self, rhs):
        self.calls.append(1)
        out = self.lu.solve(rhs)
        return np.full_like(out, np.nan) if len(self.calls) == self.call else out


def _poison_sparse(monkeypatch, what, call):
    """Make the call-th sparse factor raise SuperLU's singular-factor error
    (what="factor"), or the call-th sparse solve return NaN (what="solve");
    returns the list of calls made."""
    import scipy.sparse.linalg as sla

    orig, calls = sla.splu, []

    def poisoned(A, *args, **kw):
        lu = orig(A, *args, **kw)
        if what == "solve":
            return _PoisonedLU(lu, calls, call)
        calls.append(1)
        if len(calls) == call:
            raise RuntimeError("Factor is exactly singular")
        return lu
    monkeypatch.setattr(sla, "splu", poisoned)
    return calls


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
        # the regression base has an RSOC block, so it is factored as the full K
        program = _NAMED_PROGRAMS["regression-base"]()
        assert not solver._Layout([program]).reduced
        orig, calls = solver.dgetrs, []

        def poisoned(lu, piv, rhs, **kw):
            calls.append(1)
            out, info = orig(lu, piv, rhs, **kw)
            return (np.full_like(out, np.nan) if len(calls) == 10 else out), info
        monkeypatch.setattr(solver, "dgetrs", poisoned)
        sol = solve(program)
        assert len(calls) == 10
        assert sol.status == Status.MAX_ITER
        assert np.isfinite(sol.x).all() and np.isfinite(sol.y).all()

    def test_nan_reduced_solve_returns_max_iter(self, monkeypatch):
        program = _NAMED_PROGRAMS["opf-cvar6"]()
        assert solver._Layout([program]).reduced
        calls = _poison(monkeypatch, "gesv", 10)
        sol = solve(program)
        assert len(calls) == 10
        assert sol.status == Status.MAX_ITER
        assert np.isfinite(sol.x).all() and np.isfinite(sol.y).all()

    @pytest.mark.usefixtures("sparse_path")
    def test_nan_sparse_kkt_solve_returns_max_iter(self, monkeypatch):
        calls = _poison_sparse(monkeypatch, "solve", 10)
        sol = solve(_NAMED_PROGRAMS["opf-cvar6"]())
        assert len(calls) == 10
        assert sol.status == Status.MAX_ITER
        assert np.isfinite(sol.x).all() and np.isfinite(sol.y).all()

    @pytest.mark.usefixtures("sparse_path")
    @pytest.mark.parametrize("program", ["opf-cvar6", "pentagon-ellipsoid"])
    @pytest.mark.parametrize("poisoned_update", [1, 4])
    def test_nan_after_update_on_sparse_path(self, monkeypatch, program, poisoned_update):
        self.test_nan_after_update_returns_max_iter(monkeypatch, solver._Scaling, program,
                                                    poisoned_update)

    @pytest.mark.usefixtures("sparse_path")
    def test_singular_sparse_factor_returns_max_iter(self, monkeypatch):
        # the second factor is iteration 0's, after the starting point's
        calls = _poison_sparse(monkeypatch, "factor", 2)
        sol = solve(_NAMED_PROGRAMS["opf-cvar6"]())
        assert len(calls) == 2
        assert sol.status == Status.MAX_ITER and sol.iterations == 0
        assert np.isfinite(sol.x).all() and np.isfinite(sol.y).all()

    def test_superlu_singular_error_is_the_one_caught(self):
        # _SparseKKT.factor maps this RuntimeError, and only it, to a
        # singular factor
        from scipy.sparse import csc_matrix
        from scipy.sparse.linalg import splu

        with pytest.raises(RuntimeError, match="singular"):
            splu(csc_matrix(np.array([[1.0, 2.0], [2.0, 4.0]])))

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
    "regression-base": lambda: regression.build_monotone_regression(
        regression.synthetic_cubic_data(n=100)),
    "pentagon-ellipsoid": lambda: ellipsoid.build_ellipsoid(ellipsoid.regular_polygon(5, 2.0)),
}


def _highs(program):
    """scipy's HiGHS on a Zero/NonNeg program: (status, objective)."""
    from scipy.optimize import linprog

    eq = np.zeros(program.m, dtype=bool)
    for blk, start in program.cones.offsets():
        assert blk.kind in (ConeKind.ZERO, ConeKind.NONNEG)
        eq[start:start + blk.dim] = blk.kind == ConeKind.ZERO
    A, b, ub = program.A, program.b, ~eq
    res = linprog(program.c, A_ub=A[ub] if ub.any() else None, b_ub=b[ub] if ub.any() else None,
                  A_eq=A[eq] if eq.any() else None, b_eq=b[eq] if eq.any() else None,
                  bounds=(None, None), method="highs")
    return res.status, res.fun


def _zero_only_lp(rng, kind):
    """min c'x s.t. A x = b, with no cone row but Zero ones, that is
    feasible (c in A's row space), infeasible (a row repeated with another
    right-hand side) or unbounded (a generic c); n from 2 to 8."""
    n = int(rng.integers(2, 9))
    A = rng.normal(size=(int(rng.integers(1, n)), n))
    b = A @ rng.normal(size=n)
    if kind == "infeasible":
        w = rng.normal(size=A.shape[0])
        A, b = np.vstack([A, w @ A]), np.append(b, w @ b + 1.0)
    c = rng.normal(size=n) if kind == "unbounded" else A.T @ rng.normal(size=A.shape[0])
    return ConicProgram(A, b, c, ConeSpec([zero(A.shape[0])]))


def _assert_ray(program, sol):
    """sol is a certificate of the Zero-only LP: A'y = 0 with b'y < 0 for
    PrimalInfeasible, A x = 0 with c'x < 0 for DualInfeasible, each to 1e-6
    of the ray's norm."""
    if sol.status == Status.PRIMAL_INFEASIBLE:
        y = sol.y
        assert np.linalg.norm(program.A.T @ y) <= 1e-6 * np.linalg.norm(y)
        assert program.b @ y < 0
    else:
        assert sol.status == Status.DUAL_INFEASIBLE
        x = sol.x
        assert np.linalg.norm(program.A @ x) <= 1e-6 * np.linalg.norm(x)
        assert program.c @ x < 0


def _random_lp(rng, kind, n=6, m=12, p=2, band=None):
    """Zero + NonNeg program that is feasible, infeasible or unbounded.  With
    band set, row i of a k-row block (A, Aeq, the infeasible pair's a) holds
    `band` adjacent nonzeros from column i (n - band) // k on."""
    def rows(k):
        if band is None:
            return rng.normal(size=(k, n))
        R = np.zeros((k, n))
        for i in range(k):
            j = (i * (n - band)) // k
            R[i, j:j + band] = rng.normal(size=band)
        return R
    A = rows(m)
    Aeq = rows(p)
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
        a = rows(1)[0]
        A = np.vstack([A, a, -a])
        b = np.concatenate([b, [a @ x0 - 1.0, -(a @ x0) - 1.0]])
        c = -A.T @ np.concatenate([y0, [1.0, 1.0]]) - Aeq.T @ rng.normal(size=p)
    cones = ConeSpec([zero(p), nonneg(A.shape[0])])
    return ConicProgram(np.vstack([Aeq, A]), np.concatenate([Aeq @ x0, b]), c, cones)


def _sparse_lp(rng, kind):
    """A banded _random_lp, large and sparse enough for the sparse KKT
    factor; every instance of a kind has one nonzero pattern."""
    return _random_lp(rng, kind, n=200, m=400, p=4, band=4)


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
        program = _random_lp(rng, kind)
        # n 6 and 12 or more NonNeg rows: the reduced KKT form
        assert solver._Layout([program]).reduced
        assert self._check(program) == status

    @pytest.mark.parametrize("kind,status", [("feasible", 0), ("infeasible", 2),
                                             ("unbounded", 3)])
    @pytest.mark.parametrize("index", range(3))
    def test_sparse_lps(self, kind, status, index):
        rng = np.random.default_rng(41)
        for _ in range(index):
            _sparse_lp(rng, kind)
        program = _sparse_lp(rng, kind)
        assert solver._Layout([program]).kkt is not None
        assert self._check(program) == status

    @pytest.mark.parametrize("name", ["triangle3", "ring5", "cvar6"])
    def test_bundled_opf(self, name):
        assert self._check(opf.build_opf(opf.bundled_network(name))) == 0

    def test_simple_lp(self):
        assert self._check(build_simple_lp(1.0, 1.0, 2.0)) == 0

    @pytest.mark.parametrize("kind,status", [("feasible", 0), ("infeasible", 2),
                                             ("unbounded", 3)])
    @pytest.mark.parametrize("index", range(5))
    def test_zero_only_lps(self, kind, status, index):
        # Zero-only programs run the embedding's iteration like any other,
        # so an infeasible or unbounded one returns its certificate
        rng = np.random.default_rng(53)
        for _ in range(index):
            _zero_only_lp(rng, kind)
        program = _zero_only_lp(rng, kind)
        assert solver._Layout([program]).m_cone == 0
        assert self._check(program) == status
        if status:
            _assert_ray(program, solve(program))

    def test_zero_only_unbounded_ray(self):
        # min x1 s.t. x1 + x2 = 2: the direction (-1, 1) keeps the row and
        # lowers the cost without bound
        program = ConicProgram(np.array([[1.0, 1.0]]), np.array([2.0]),
                               np.array([1.0, 0.0]), ConeSpec([zero(1)]))
        sol = solve(program)
        assert sol.status == Status.DUAL_INFEASIBLE
        _assert_ray(program, sol)
        assert sol.x[0] < 0 < sol.x[1]


def _solution_bytes(sol):
    residuals = [sol.residuals.primal, sol.residuals.dual, sol.residuals.gap]
    return (sol.x.tobytes(), sol.y.tobytes(), sol.status, sol.iterations,
            np.array(residuals).tobytes())


def _apex(c0, b1=0.5):
    """min c0 x + t s.t. t >= x^2 / (2 b1): an RSOC(3) program whose optimum
    at c0 = 0 is the cone's apex."""
    return ConicProgram(np.array([[0.0, -1.0], [0.0, 0.0], [-1.0, 0.0]]),
                        np.array([0.0, b1, 0.0]), np.array([c0, 1.0]),
                        ConeSpec([rsoc(3)]))


def _adjacent_programs(adjacency, samples, seed):
    """The programs of estimate_sensitivity's first `samples` pairs."""
    out = []
    for s in range(samples):
        out.extend(adjacency.program(d) for d in adjacency.sample_pair(rng_stream(seed, s)))
    return out


def _poison(monkeypatch, name, call):
    """Make the call-th call of solver.<name> (dgetrf, dgetrs or the stacked
    gesv) return NaN in place of its (first) output; returns the list of
    calls made."""
    orig, calls = getattr(solver, name), []

    def poisoned(*args, **kw):
        calls.append(1)
        out = orig(*args, **kw)
        if len(calls) == call:
            if name == "gesv":
                return np.full_like(out, np.nan)
            out = (np.full_like(out[0], np.nan),) + tuple(out[1:])
        return out
    monkeypatch.setattr(solver, name, poisoned)
    return calls


def _record_full_k(monkeypatch):
    """Record, for each factor of the full K, the number of programs it
    factors; returns the list of those numbers."""
    orig, full = solver._kkt_matrices, []

    def recording(Aeq, Gs):
        if Gs.shape[1]:     # not the reduced form's constant part
            full.append(len(Aeq))
        return orig(Aeq, Gs)
    monkeypatch.setattr(solver, "_kkt_matrices", recording)
    return full


class TestSolveBatch:
    """solve_batch gives every program, bit for bit, what solve gives it alone."""

    @staticmethod
    def _check(programs, settings=None):
        batch = solve_batch(programs, settings)
        assert len(batch) == len(programs)
        for program, got in zip(programs, batch):
            assert _solution_bytes(got) == _solution_bytes(solve(program, settings))
        return batch

    def test_acceptance_corpus_grouped_by_shape(self):
        rng = np.random.default_rng(20260809)
        corpus = [random_feasible_program(rng) for _ in range(1000)]
        # about half the corpus shares its shape with another program
        assert sum(len(g) for g in _by_shape(corpus) if len(g) > 1) > 400
        batch = self._check(corpus, SolverSettings(tol=1e-8))
        assert sum(sol.iterations for sol in batch) == 5150
        assert all(sol.status == Status.OPTIMAL for sol in batch)

    @pytest.mark.parametrize("family", ["simple-lp", "opf-triangle3", "opf-ring5",
                                        "opf-cvar6", "ellipsoid"])
    def test_sensitivity_families(self, family):
        if family == "simple-lp":
            adj = simple_lp.lower_bound_adjacency(simple_lp.SimpleLpStudy(), 0.5)
        elif family == "ellipsoid":
            adj = ellipsoid.b_range_adjacency(ellipsoid.regular_polygon(5, 2.0), 0.01)
        else:
            adj = opf.demand_adjacency(opf.bundled_network(family[4:]), 1.0)
        self._check(_adjacent_programs(adj, 49, seed=3), adj.settings)

    def test_regression_base(self):
        model = regression.synthetic_cubic_data(n=100)
        adj = regression.circle_law_adjacency(model)
        programs = [regression.build_monotone_regression(model)]
        programs += _adjacent_programs(adj, 4, seed=4)
        self._check(programs, regression.DEFAULT_SETTINGS)

    def test_highs_lps_with_mixed_statuses(self):
        rng = np.random.default_rng(31)
        programs = [_random_lp(rng, kind) for _ in range(15)
                    for kind in ("feasible", "infeasible", "unbounded")]
        programs += [opf.build_opf(opf.bundled_network(name))
                     for name in ("triangle3", "ring5", "cvar6")]
        programs.append(build_simple_lp(1.0, 1.0, 2.0))
        batch = self._check(programs)
        # feasible and unbounded LPs share one shape, so one stack ends
        # Optimal and DualInfeasible programs at their own iterations
        assert {sol.status for sol in batch[:45]} == {
            Status.OPTIMAL, Status.PRIMAL_INFEASIBLE, Status.DUAL_INFEASIBLE}
        for program, sol in zip(programs, batch):
            assert sol.status == TestHighsDifferential.EXPECTED[_highs(program)[0]]

    def test_sub_batches_give_the_same_bytes(self, monkeypatch):
        adj = opf.demand_adjacency(opf.bundled_network("cvar6"), 1.0)
        programs = _adjacent_programs(adj, 10, seed=5)
        whole = solve_batch(programs)
        # three programs per sub-batch
        monkeypatch.setattr(solver, "KKT_BATCH_BYTES", 3 * solver.stack_bytes(programs[0]))
        parts = solve_batch(programs)
        assert [_solution_bytes(a) for a in whole] == [_solution_bytes(b) for b in parts]

    def test_nan_factor_ends_only_its_program(self, monkeypatch):
        # regression programs have an RSOC block: each is factored as the full K
        adj = regression.circle_law_adjacency(regression.synthetic_cubic_data(n=100))
        programs = _adjacent_programs(adj, 3, seed=6)
        assert not solver._Layout(programs).reduced
        clean = solve_batch(programs)
        # the first factor of every program is the starting point's; the
        # second of program 2 is its iteration-0 factor
        calls = _poison(monkeypatch, "dgetrf", len(programs) + 3)
        batch = solve_batch(programs)
        assert len(calls) > len(programs) + 3
        assert batch[2].status == Status.MAX_ITER and batch[2].iterations == 0
        assert np.isfinite(batch[2].x).all() and np.isfinite(batch[2].y).all()
        for i in (0, 1, 3, 4, 5):
            assert _solution_bytes(batch[i]) == _solution_bytes(clean[i])
        _poison(monkeypatch, "dgetrf", 2)
        assert _solution_bytes(solve(programs[2])) == _solution_bytes(batch[2])

    @pytest.mark.parametrize("fill", [np.nan, 0.0])
    def test_bad_reduced_factor_ends_only_its_program(self, monkeypatch, fill):
        # one program's reduced matrix turns NaN, or exactly singular (so the
        # stacked gesv raises LinAlgError), for all the solves of its factor
        programs = _adjacent_programs(
            opf.demand_adjacency(opf.bundled_network("cvar6"), 1.0), 3, seed=6)
        assert solver._Layout(programs).reduced
        clean = solve_batch(programs)
        orig, calls = solver.gesv, []

        def poison(row):
            def poisoned(M, r):
                calls.append(1)
                # the starting point's factor makes two solves; the third
                # solve is the first of iteration 0's factor
                if len(calls) == 3:
                    M[row] = fill
                return orig(M, r)
            monkeypatch.setattr(solver, "gesv", poisoned)
            calls.clear()

        poison(2)
        batch = solve_batch(programs)
        assert batch[2].status == Status.MAX_ITER and batch[2].iterations == 0
        assert np.isfinite(batch[2].x).all() and np.isfinite(batch[2].y).all()
        for i in (0, 1, 3, 4, 5):
            assert _solution_bytes(batch[i]) == _solution_bytes(clean[i])
        poison(0)
        assert _solution_bytes(solve(programs[2])) == _solution_bytes(batch[2])

    def test_zero_demand_opf_in_a_reduced_stack(self):
        # the zero-demand OPF's Gs'Gs overflows in its last iterations, long
        # after the others have left the stack, so those factors take the full K
        net = opf.bundled_network("cvar6")
        zero = opf.build_opf(net.with_demand(np.zeros(net.n_nodes)))
        programs = _adjacent_programs(opf.demand_adjacency(net, 1.0), 2, seed=8)
        programs.insert(2, zero)
        assert solver._Layout(programs).reduced
        with pytest.MonkeyPatch.context() as m:
            full = _record_full_k(m)
            batch = self._check(programs)
        assert full and min(full) == 1
        assert batch[2].status == Status.OPTIMAL
        assert all(sol.status == Status.OPTIMAL for sol in batch)

    def test_overflow_takes_only_its_program_to_the_full_k(self, monkeypatch):
        # one program's reduced matrices read inf, as if its Gs'Gs always
        # overflowed: each of its factors alone takes the full K
        programs = _adjacent_programs(
            opf.demand_adjacency(opf.bundled_network("cvar6"), 1.0), 3, seed=6)
        clean = solve_batch(programs)
        orig = solver._kkt_matrices

        def poison(row):
            def poisoned(Aeq, Gs):
                K = orig(Aeq, Gs)
                if not Gs.shape[1]:     # the reduced form's constant part
                    K[row, 0, 0] = np.inf
                return K
            monkeypatch.setattr(solver, "_kkt_matrices", poisoned)

        poison(2)
        full = _record_full_k(monkeypatch)
        batch = solve_batch(programs)
        assert set(full) == {1} and len(full) == batch[2].iterations + 1
        for i in (0, 1, 3, 4, 5):
            assert _solution_bytes(batch[i]) == _solution_bytes(clean[i])
        assert batch[2].status == Status.OPTIMAL
        poison(0)
        assert _solution_bytes(solve(programs[2])) == _solution_bytes(batch[2])

    @pytest.mark.parametrize("poisoned_update", [1, 2, 4])
    def test_nan_update_ends_only_its_program(self, monkeypatch, poisoned_update):
        programs = _adjacent_programs(
            ellipsoid.b_range_adjacency(ellipsoid.regular_polygon(5, 2.0), 0.01), 2, seed=7)
        settings = ellipsoid.DEFAULT_SETTINGS
        clean = solve_batch(programs, settings)
        orig, calls = solver._Scaling.update, []

        def poisoned(self, s, z):
            orig(self, s, z)
            calls.append(1)
            if len(calls) == poisoned_update:
                self.lam[0] = np.nan       # row 0 is program 0 while it runs
        monkeypatch.setattr(solver._Scaling, "update", poisoned)
        batch = solve_batch(programs, settings)
        assert batch[0].status == Status.MAX_ITER
        assert batch[0].iterations == poisoned_update
        assert np.isfinite(batch[0].x).all() and np.isfinite(batch[0].y).all()
        for i in range(1, len(programs)):
            assert _solution_bytes(batch[i]) == _solution_bytes(clean[i])
        calls.clear()
        assert _solution_bytes(solve(programs[0], settings)) == _solution_bytes(batch[0])

    def test_apex_program_in_a_batch(self):
        programs = [_apex(0.3), _apex(0.0), _apex(0.1, 2.0), _apex(-0.5, 0.25)]
        with np.errstate(all="raise"):
            batch = solve_batch(programs)
            singles = [solve(program) for program in programs]
        assert batch[1].status == Status.MAX_ITER and batch[1].iterations == 28
        assert np.isfinite(batch[1].x).all() and np.isfinite(batch[1].y).all()
        assert batch[0].status == Status.OPTIMAL and batch[0].iterations == 7
        assert [_solution_bytes(a) for a in batch] == [_solution_bytes(b) for b in singles]

    def test_sparse_path_stack(self, monkeypatch):
        rng = np.random.default_rng(43)
        programs = [_sparse_lp(rng, "feasible") for _ in range(3)]
        # the same shape with its columns permuted: another nonzero pattern,
        # which would change the others' sparse factors in a common stack
        perm = rng.permutation(programs[0].n)
        other = _sparse_lp(rng, "feasible")
        programs.insert(1, ConicProgram(other.A[:, perm], other.b, other.c[perm],
                                        other.cones))
        assert solver._Layout(programs[::2]).kkt is not None
        # room for all four in one sub-batch (the dense-matrix budget holds one)
        monkeypatch.setattr(solver, "KKT_BATCH_BYTES", 4 * solver.stack_bytes(programs[0]))
        orig, stacks = solver._solve_stack, []

        def recording(stack, settings):
            stacks.append(len(stack))
            return orig(stack, settings)
        monkeypatch.setattr(solver, "_solve_stack", recording)
        batch = self._check(programs)
        assert stacks[:2] == [3, 1]
        assert all(sol.status == Status.OPTIMAL for sol in batch)

    @pytest.mark.usefixtures("sparse_path")
    def test_singular_sparse_factor_ends_only_its_program(self, monkeypatch):
        programs = _adjacent_programs(
            opf.demand_adjacency(opf.bundled_network("cvar6"), 1.0), 3, seed=6)
        assert len({(p.A != 0).tobytes() for p in programs}) == 1   # one stack
        clean = solve_batch(programs)
        # as in test_nan_factor_ends_only_its_program: program 2's
        # iteration-0 factor
        calls = _poison_sparse(monkeypatch, "factor", len(programs) + 3)
        batch = solve_batch(programs)
        assert len(calls) > len(programs) + 3
        assert batch[2].status == Status.MAX_ITER and batch[2].iterations == 0
        assert np.isfinite(batch[2].x).all() and np.isfinite(batch[2].y).all()
        for i in (0, 1, 3, 4, 5):
            assert _solution_bytes(batch[i]) == _solution_bytes(clean[i])
        calls = _poison_sparse(monkeypatch, "factor", 2)
        assert _solution_bytes(solve(programs[2])) == _solution_bytes(batch[2])

    def test_empty_and_invalid_input(self):
        assert solve_batch([]) == []
        # no invalid program can be put in a batch: its construction raises
        with pytest.raises(ValueError, match="^invalid program: cone dims sum to 3 != m=2$"):
            ConicProgram(np.eye(2), np.ones(2), np.ones(2), ConeSpec([nonneg(3)]))


def _cvar6_epigraphs(seed):
    """The 300-draw sample-CVaR epigraph of the cvar6 OPF's rule for the sum
    over every other node (alpha 1, eta 0.01) at q 0.05, 0.1 and 0.2, the
    draws from stream 1 of seed: the privatization and the programs by q.
    Each appends gamma (free) and z_1..z_S >= 0 with z_s >= l'(xbar + X
    zeta_s) - gamma, and minimizes gamma + 1/(q S) sum z_s, an LP whose KKT
    matrix is large and sparse."""
    net = opf.bundled_network("cvar6")
    wq = np.zeros(net.n_nodes)
    wq[::2] = 1.0
    pp = privatize(opf.build_opf(net), calibrate_laplace(1.0, 1.0, k=1),
                   WeightedSumQuery(wq), VertexChance(eta=0.01))
    base, S = pp.program, 300
    G, h = pp.space.expand(np.asarray(net.c)[None], np.zeros(1),
                           sample_noise(pp.noise, seed, S, 1))
    minus_z = -sp.eye_array(S, format="csr")
    A = sp.bmat([
        [base.A, None, None],
        [None, sp.csr_array((S, 1)), minus_z],
        [sp.csr_array(G, shape=(S, base.n)), np.full((S, 1), -1.0), minus_z],
    ], format="csr")
    b = np.concatenate([base.b, np.zeros(S), h])
    cones = ConeSpec([(blk.kind.value, blk.dim) for blk in base.cones.blocks]
                     + [(ConeKind.NONNEG.value, S)] * 2)
    programs = {}
    for q in (0.05, 0.1, 0.2):
        level = 1.0 - q  # the weight is 1/((1 - level) S), rounded as it was built
        c = np.zeros(base.n + 1 + S)
        c[base.n] = 1.0
        c[base.n + 1:] = 1.0 / ((1.0 - level) * S)
        programs[q] = ConicProgram(A, b, c, cones)
    return pp, programs


def _sparse_corpus():
    """The study programs that take the sparse factor: the 300-draw CVaR
    epigraph at seed derive_seed(0, 6) under tol 1e-7 and the privatized
    ellipsoid, each with its settings."""
    _, programs = _cvar6_epigraphs(derive_seed(0, 6))
    out = {f"cvar-{q}": (aug, SolverSettings(tol=1e-7)) for q, aug in programs.items()}
    noise = calibrate_gaussian(0.05, 1.0, 0.1, k=ellipsoid.RULE_DIM)
    pv = ellipsoid.privatize_ellipsoid(ellipsoid.regular_polygon(5, 2.0), noise,
                                       eta=0.1, seed=1)
    out["ellipsoid"] = (pv.program, ellipsoid.DEFAULT_SETTINGS)
    return out


class TestSparseFactor:
    """The sparse factor against the dense one on the study programs."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return _sparse_corpus()

    @pytest.mark.parametrize("name", ["cvar-0.05", "cvar-0.1", "cvar-0.2", "ellipsoid"])
    def test_matches_dense_factor(self, monkeypatch, corpus, name):
        program, settings = corpus[name]
        lay = solver._Layout([program])
        assert lay.kkt is not None
        assert len(lay.kkt.indices) <= solver._SPARSE_MAX_DENSITY * lay.kkt.order ** 2
        sol = solve(program, settings)
        assert sol.status == Status.OPTIMAL
        assert max(kkt_report(program, sol).values()) <= 1e-6
        monkeypatch.setattr(solver, "_SPARSE_MIN_ORDER", 10**9)     # every layout dense
        assert solver._Layout([program]).kkt is None
        ref = solve(program, settings)
        assert ref.status == sol.status
        assert abs(sol.iterations - ref.iterations) <= 1
        scale = max(1.0, float(np.abs(ref.x).max()))
        assert np.abs(sol.x - ref.x).max() <= settings.tol * scale

    def test_small_and_dense_layouts_stay_dense(self):
        # 480 NonNeg rows over all of 40 columns: density about 0.14
        A = np.random.default_rng(0).normal(size=(480, 40))
        dense = ConicProgram(A, np.ones(480), np.zeros(40), ConeSpec([nonneg(480)]))
        lay = solver._Layout([dense])
        assert lay.n + lay.p + lay.m_cone >= solver._SPARSE_MIN_ORDER
        assert lay.kkt is None
        model = regression.synthetic_cubic_data(n=100)
        assert solver._Layout([regression.build_monotone_regression(model)]).kkt is None

    def test_import_leaves_sparse_linalg_unloaded(self):
        import subprocess
        import sys

        code = ("import sys, dpconic; "
                "print('scipy.sparse.linalg' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "False"


class TestReducedForm:
    """Which layouts _factor_kkt solves in the reduced (n + p) form: dense
    LPs with more cone rows than variables, read from the shape alone."""

    @staticmethod
    def _calls(monkeypatch):
        """Count the dgetrf and the gesv calls from now on: (dgetrf, gesv)."""
        return [_poison(monkeypatch, name, 0) for name in ("dgetrf", "gesv")]

    @pytest.mark.parametrize("program", [
        lambda: build_simple_lp(1.0, 1.0, 2.0),
        lambda: opf.build_opf(opf.bundled_network("cvar6")),
        lambda: _random_lp(np.random.default_rng(3), "feasible")])
    def test_thin_lps_route(self, monkeypatch, program):
        program = program()
        assert solver._Layout([program]).reduced
        getrf, gesv = self._calls(monkeypatch)
        assert solve(program).status == Status.OPTIMAL
        assert len(getrf) == 0 and len(gesv) > 0

    @pytest.mark.parametrize("program", [
        # n >= m_cone: 6 variables, 2 equalities and 4 NonNeg rows
        lambda: _random_lp(np.random.default_rng(3), "feasible", m=4),
        lambda: _NAMED_PROGRAMS["regression-base"](),
        lambda: _NAMED_PROGRAMS["pentagon-ellipsoid"](),
        lambda: random_feasible_program(np.random.default_rng(11))])
    def test_others_keep_the_full_k(self, monkeypatch, program):
        program = program()
        lay = solver._Layout([program])
        assert lay.kkt is None and not lay.reduced
        getrf, gesv = self._calls(monkeypatch)
        solve(program)
        assert len(getrf) > 0 and len(gesv) == 0

    def test_a_stack_with_an_soc_block_keeps_the_full_k(self):
        lp = _random_lp(np.random.default_rng(3), "feasible", n=3, m=9, p=1)
        with_soc = ConicProgram(lp.A, lp.b, lp.c, ConeSpec([zero(1), nonneg(6), soc(3)]))
        assert solver._Layout([lp]).reduced
        assert not solver._Layout([with_soc, with_soc]).reduced

    def test_sparse_layouts_do_not_route(self):
        program = _sparse_lp(np.random.default_rng(41), "feasible")
        lay = solver._Layout([program])
        assert lay.m_cone > lay.n and lay.kkt is not None and not lay.reduced


def _pattern_corpus():
    """The study programs on the sparse path: the study SVM, the privatized
    ellipsoid and the 300-draw CVaR epigraph of the cvar6 OPF at three q.  Each
    maps to (program, settings, solution, rule.xbar)."""
    data, _, _ = svm.synthetic_gaussian_classes(m=100, seed=7)
    pv = svm.privatize_svm(data, calibrate_laplace(29.931647924673214, 1.0, k=data.n + 1),
                           IndividualChance(eta_bar=0.05))
    out = {"svm": (pv.program, svm.PRIVATIZED_SETTINGS, pv.solution, pv.rule.xbar)}
    noise = calibrate_gaussian(0.05, 1.0, 0.1, k=ellipsoid.RULE_DIM)
    pe = ellipsoid.privatize_ellipsoid(ellipsoid.regular_polygon(5, 2.0), noise,
                                       eta=0.1, seed=1)
    out["ellipsoid"] = (pe.program, ellipsoid.DEFAULT_SETTINGS, pe.solution, pe.rule.xbar)
    pp, programs = _cvar6_epigraphs(1)
    settings = SolverSettings(tol=1e-7)
    for q, aug in programs.items():
        sol = solve(aug, settings)
        out[f"cvar-{q}"] = (aug, settings, sol, pp.extract_rule(sol.x[: pp.program.n]).xbar)
    return out


# what each program of _pattern_corpus gave when its layout held G densely:
# the iterations, the leading entries of rule.xbar (all of them but the
# SVM's, whose first three are the released (w, b)) and the norm of xbar
DENSE_G_REFERENCE = {
    "svm": (14, [-834.0790318206431, -728.1915617164296, -777.5336941913745],
            1369.3828348386266),
    "ellipsoid": (14, [0.0073234192155106, 0.1598671094362178, 1.1589749227633963,
                       -0.016411328272406225, 0.020097287856044026, 1.2743299884436945],
                  None),
    "cvar-0.05": (10, [250.00000019485296, 200.00000018894843, 147.69741549609017,
                       99.9999990308199, 2.3025852816706545, -1.9238220548765247e-07],
                  None),
    "cvar-0.1": (10, [250.00000001521406, 200.00000001343622, 147.69741480681927,
                      100.0000002331434, 2.30258494811592, -1.672886649534102e-08], None),
    "cvar-0.2": (10, [250.00000004269043, 200.00000003911077, 147.69741488607755,
                      100.00000011261864, 2.3025849688599385, -4.935726533710931e-08], None),
}


class TestPatternForm:
    """A sparse layout holds G in pattern form (solver._PatternG), and the
    solve on it is the solve on the dense G to the last bits."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return _pattern_corpus()

    @pytest.mark.parametrize("name", sorted(DENSE_G_REFERENCE))
    def test_layout_holds_no_dense_matrix(self, corpus, name):
        program = corpus[name][0]
        mn = program.m * program.n
        lay = solver._Layout([program])
        c = program.c[None, :]
        solver._Equilibration(lay, c).scale_layout(lay, c)
        assert isinstance(lay.G, solver._PatternG) and lay.kkt is not None
        held = [v for part in (lay, lay.G, lay.kkt) for v in vars(part).values()]
        held += [a for v in held if isinstance(v, (list, tuple)) for a in v]
        sizes = [np.asarray(v).size for v in held
                 if isinstance(v, np.ndarray) or np.isscalar(v)]
        assert max(sizes) < mn

    def test_holds_the_dense_layout(self, monkeypatch):
        # a stack of CSR and dense programs of one pattern with different
        # values, an empty NonNeg row and rotated blocks, as solve_batch
        # stacks them: the pattern form holds their values, and the
        # equilibration and the scaled G equal the dense ones
        rng = np.random.default_rng(0)
        cones = ConeSpec([zero(2), nonneg(4), rsoc(4), soc(3), nonneg(2), soc(3), rsoc(5)])
        shape = (cones.dim, 7)
        pattern = rng.random(shape) < 0.3
        pattern[3] = False

        def program(as_csr):
            A = np.where(pattern, rng.normal(size=shape), 0.0)
            return ConicProgram(sp.csr_array(A) if as_csr else A,
                                rng.normal(size=cones.dim), rng.normal(size=7), cones)
        programs = [program(True), program(False), program(True)]
        dense = [as_dense(p.A) for p in programs]
        assert all(np.array_equal(A != 0, pattern) for A in dense)
        assert not np.array_equal(dense[0], dense[2])
        monkeypatch.setattr(solver, "_SPARSE_MAX_DENSITY", 1.0)
        monkeypatch.setattr(solver, "_SPARSE_MIN_ORDER", 0)
        lay = solver._Layout(programs)
        monkeypatch.setattr(solver, "_SPARSE_MIN_ORDER", 10**9)
        ref = solver._Layout(programs)
        assert lay.kkt is not None and ref.kkt is None
        assert _same(pattern_to_dense(lay.G), ref.G) and _same(lay.Aeq, ref.Aeq)
        c = np.stack([p.c for p in programs])
        eq, eq_ref = solver._Equilibration(lay, c), solver._Equilibration(ref, c)
        for name in ("r_eq", "r_cone", "s", "g_b", "g_c"):
            assert _same(getattr(eq, name), getattr(eq_ref, name))
        eq.scale_layout(lay, c)
        eq_ref.scale_layout(ref, c)
        assert _same(pattern_to_dense(lay.G), ref.G)
        keep = np.array([2, 0])
        lay.take(keep)
        ref.take(keep)
        x, z = rng.normal(size=(2, 7)), rng.normal(size=(2, lay.m_cone))
        # G x and G' z sum in another order than gemv
        assert np.allclose(lay.Gx(x), ref.Gx(x), rtol=0, atol=1e-14)
        assert np.allclose(lay.Gtz(z), ref.Gtz(z), rtol=0, atol=1e-14)

    # ulps of its block's largest entry by which an SOC entry of W^{-1} G may
    # differ from the dense product.  The block product is one BLAS gemv per
    # block over the columns it has, and OpenBLAS's order of summation for a
    # column depends on where the column sits (its kernels take columns four
    # at a time), so the sub-block's columns may round otherwise than the
    # same columns of the dense G; on the cvar programs' SOC(3) blocks they
    # do, by up to 16.25 such ulps.
    SOC_ULPS = {"svm": 0, "ellipsoid": 0, "cvar-0.05": 32, "cvar-0.1": 32, "cvar-0.2": 32}

    @pytest.mark.parametrize("name", sorted(DENSE_G_REFERENCE))
    def test_inverse_scaling_matches_dense(self, monkeypatch, corpus, name):
        program, settings = corpus[name][:2]
        real, calls, seen = solver._factor_kkt, [], []

        def recording(lay, W):
            calls.append(1)
            if len(calls) == 8:      # a mid-solve scaling: iteration 6's
                seen.append((lay, W.apply_matrix(lay.G, inverse=True),
                             W.apply_matrix(pattern_to_dense(lay.G), inverse=True)))
            return real(lay, W)
        monkeypatch.setattr(solver, "_factor_kkt", recording)
        solve(program, settings)
        (lay, got, dense), = seen
        G = lay.G
        at = np.flatnonzero(G.real)
        rows = G.erow[at]
        mine, ref = got.vals[:, at], dense[:, rows, G.ecol[at]]
        nonneg = rows < lay.l
        assert _same(mine[:, nonneg], ref[:, nonneg])
        # each SOC entry against the largest entry of its block
        block = np.searchsorted([sl.start for sl in lay.q_slices], rows[~nonneg],
                                side="right") - 1
        top = np.zeros((len(ref), len(lay.q_slices)))
        for k, sl in enumerate(lay.q_slices):
            top[:, k] = np.abs(dense[:, sl]).max(axis=(1, 2))
        ulps = self.SOC_ULPS[name] * np.spacing(top[:, block])
        assert (np.abs(mine[:, ~nonneg] - ref[:, ~nonneg]) <= ulps).all()
        if not self.SOC_ULPS[name]:
            assert _same(mine, ref)
        assert not got.vals[:, ~G.real].any()
        dense[:, rows, G.ecol[at]] = 0.0
        assert not dense.any()          # the pattern holds every nonzero

    @pytest.mark.parametrize("name", sorted(DENSE_G_REFERENCE))
    def test_solve_keeps_the_dense_g_solve(self, corpus, name):
        _, _, sol, xbar = corpus[name]
        iters, lead, norm = DENSE_G_REFERENCE[name]
        assert sol.status == Status.OPTIMAL
        assert sol.iterations == iters
        scale = np.abs(lead).max()
        assert np.abs(xbar[: len(lead)] - lead).max() <= 1e-9 * scale
        if norm is not None:
            assert abs(np.linalg.norm(xbar) - norm) <= 1e-9 * norm


class TestCsrPrograms:
    """A CSR program is solved, reported and evaluated as its dense form."""

    @pytest.fixture(scope="class")
    def programs(self):
        noise = calibrate_gaussian(0.05, 1.0, 0.1, k=ellipsoid.RULE_DIM)
        ell = ellipsoid.privatize_ellipsoid(ellipsoid.regular_polygon(5, 2.0), noise,
                                            eta=0.1, seed=1)
        lp = privatize(build_simple_lp(1.0, 1.0, 2.0), calibrate_laplace(0.1, 1.0, k=1),
                       WeightedSumQuery([1.0]), VertexChance(eta=0.1))
        # the sparse factor and the dense one
        return {"ellipsoid": (ell.program, ellipsoid.DEFAULT_SETTINGS),
                "simple-lp": (lp.program, None)}

    @pytest.mark.parametrize("name", ["ellipsoid", "simple-lp"])
    def test_same_solution_bits(self, programs, name):
        program, settings = programs[name]
        assert program.A.format == "csr"
        dense = ConicProgram(program.A.toarray(), program.b, program.c, program.cones,
                             variable_names=program.variable_names)
        sol = solve(program, settings)
        assert sol.status == Status.OPTIMAL
        assert _solution_bytes(sol) == _solution_bytes(solve(dense, settings))
        for got in solve_batch([dense, program, dense], settings):
            assert _solution_bytes(got) == _solution_bytes(sol)
        assert kkt_report(program, sol) == pytest.approx(kkt_report(dense, sol),
                                                         rel=1e-9, abs=1e-15)

    def test_rule_metrics_read_the_dense_form(self, programs):
        from dpconic.apps.metrics import evaluate_rule_metrics
        from dpconic.dp import NoiseSpec, sample_noise
        from dpconic.ldr import DecisionRule

        program, settings = programs["ellipsoid"]
        base = solve(program, settings)
        # a rule that moves the optimum by about the tolerance: both outcomes occur
        X = 1e-7 * np.random.default_rng(3).normal(size=(program.n, 2))
        rule, noise = DecisionRule(base.x, X), NoiseSpec("gaussian", 2, 1.0)
        dense = ConicProgram(program.A.toarray(), program.b, program.c, program.cones)
        zetas = sample_noise(noise, 4, 200)
        (got_losses, got_feasible), (ref_losses, ref_feasible) = (
            evaluate_rule_metrics(rule, p, base, zetas) for p in (program, dense))
        assert 0 < ref_feasible.sum() < ref_feasible.size
        assert np.array_equal(got_feasible, ref_feasible)
        assert np.array_equal(got_losses, ref_losses)
