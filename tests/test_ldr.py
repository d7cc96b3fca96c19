import itertools
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from dpconic.conic import (
    ConeKind,
    ConeSpec,
    ConicProgram,
    Status,
    as_dense,
    build_simple_lp,
    cone_membership,
    nonneg,
    rsoc,
    slack,
    soc,
    zero,
)
from dpconic.dp import NoiseSpec, calibrate_laplace, sample_noise
from dpconic.ldr import (
    ConflictingConstraints,
    DecisionRule,
    IndividualChance,
    OBJ_STREAM,
    SelectQuery,
    VertexChance,
    WeightedSumQuery,
    hyperrectangle_vertices,
    privatize,
    reduce_quadratic_objective,
    release_query,
    safety_factor,
)
from dpconic.solver import solve


class TestHyperrectangle:
    def test_scalar(self):
        v = hyperrectangle_vertices([-2.0], [3.0])
        assert np.array_equal(v, [[-2.0], [3.0]])

    def test_two_dims(self):
        v = hyperrectangle_vertices([-1.0, 0.0], [1.0, 2.0])
        expected = {(-1.0, 0.0), (-1.0, 2.0), (1.0, 0.0), (1.0, 2.0)}
        assert {tuple(row) for row in v} == expected

    def test_single_sample_collapses(self):
        # a box of one point: lo = hi
        point = np.array([0.3, -0.7, 1.1])
        v = hyperrectangle_vertices(point, point)
        assert v.shape == (8, 3)
        assert np.allclose(v, v[0])

    def test_k_cap(self):
        with pytest.raises(ValueError):
            hyperrectangle_vertices(np.zeros(21), np.ones(21))

    def test_vertex_order(self):
        # all-lo first, coordinate 0 the most significant bit; the order
        # fixes the row order of every vertex program
        v = hyperrectangle_vertices([-1.0, 0.0, 5.0], [1.0, 2.0, 6.0])
        expected = [(lo0, lo1, lo2) for lo0 in (-1.0, 1.0) for lo1 in (0.0, 2.0)
                    for lo2 in (5.0, 6.0)]
        assert [tuple(row) for row in v] == expected

    @pytest.mark.parametrize("k", [1, 2, 5, 8])
    def test_matches_binary_counter_loop(self, k):
        lo, hi = np.sort(np.random.default_rng(k).normal(size=(2, k)), axis=0)
        ref = np.empty((2**k, k))
        for i in range(2**k):
            for j in range(k):
                ref[i, j] = hi[j] if (i >> (k - 1 - j)) & 1 else lo[j]
        assert np.array_equal(hyperrectangle_vertices(lo, hi), ref)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 30))
    def test_vertices_bound_samples(self, k, n):
        # the vertices span the box of any samples whose min and max they take
        rng = np.random.default_rng(k * 100 + n)
        samples = rng.normal(size=(n, k))
        v = hyperrectangle_vertices(samples.min(0), samples.max(0))
        assert v.shape == (2**k, k)
        assert np.array_equal(v.min(0), samples.min(0))
        assert np.array_equal(v.max(0), samples.max(0))


class TestQueryConstraint:
    """recourse(n): the (mask, values) of the entries of X a query pins, and
    the rows E vec(X) = r it adds."""

    def test_identity_pins(self):
        mask, values, E, r = SelectQuery(range(2)).recourse(2)
        assert mask.all() and np.array_equal(values, np.eye(2))
        assert E.shape == (0, 4) and r.shape == (0,)

    def test_sum_single_row(self):
        mask, values, E, r = WeightedSumQuery(np.ones(3)).recourse(3)
        assert mask.shape == (3, 1) and not mask.any() and not values.any()
        assert E.shape == (1, 3) and np.all(E == 1.0) and r[0] == 1.0

    def test_weighted_sum(self):
        w = np.array([2.0, 0.0, -1.0])
        _, _, E, r = WeightedSumQuery(w).recourse(3)
        assert np.array_equal(E.ravel(), w) and r[0] == 1.0

    def test_fixed_recourse_partial(self):
        # a selection of rows fixes those rows of X to I_k; the others stay free
        mask, values, E, r = SelectQuery([2, 0]).recourse(3)
        assert np.array_equal(mask, [[True, True], [False, False], [True, True]])
        assert np.array_equal(values, [[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]])
        assert E.shape == (0, 6)

    def test_k_mismatch(self):
        with pytest.raises(ValueError):
            WeightedSumQuery(np.ones(2)).recourse(3)
        with pytest.raises(ValueError):
            SelectQuery([0, 3]).recourse(3)
        for rows in ([], [1, 1]):
            with pytest.raises(ValueError):
                SelectQuery(rows)


def _zero_block(pp):
    """(A, b) of the transformed program's Zero block, A dense."""
    blk, rows = _rows_of_block(pp.program, 0)
    assert blk.kind == ConeKind.ZERO
    return as_dense(pp.program.A)[rows], pp.program.b[rows]


class TestSplitEqualities:
    """privatize splits an equality row a'x = b into a'xbar = b over xbar and
    a'X = 0 over X."""

    def test_balance_row(self):
        # 1'x = 5 under the weighted query w'X = 1: the Zero block holds
        # 1'xbar = 5, the recourse 1'X = 0 and the query row w'X = 1
        A = np.vstack([np.ones((1, 3)), -np.eye(3)])
        prog = ConicProgram(A, np.array([5.0, 0.0, 0.0, 0.0]), np.ones(3),
                            ConeSpec([zero(1), nonneg(3)]))
        w = np.array([1.0, 2.0, 4.0])
        pp = privatize(prog, calibrate_laplace(0.1, 1.0, k=1), WeightedSumQuery(w),
                       VertexChance(eta=0.1), seed=0)
        G, h = _zero_block(pp)
        X = [pp.space.X_idx[i, 0] for i in range(3)]
        assert np.array_equal(G[:, :3], [[1.0] * 3, [0.0] * 3, [0.0] * 3])
        assert np.array_equal(G[1:, X], [[1.0] * 3, w])
        assert np.array_equal(h, [5.0, 0.0, 1.0])

    def test_empty_system(self):
        # no equality row and every entry of X pinned: no Zero block at all
        pp = privatize(_box_program(), calibrate_laplace(0.1, 1.0, k=2),
                       SelectQuery(range(2)), VertexChance(eta=0.1), seed=0)
        assert ConeKind.ZERO not in [blk.kind for blk in pp.program.cones.blocks]

    def test_multi_k_layout(self):
        # x0 + 2 x1 - x2 = 0 with X[0:2] = I: the recourse row j is
        # e_j' (1, 2) - X[2][j] = 0, its pinned part moved to the right-hand side
        A = np.vstack([[1.0, 2.0, -1.0], -np.eye(3)])
        prog = ConicProgram(A, np.zeros(4), np.ones(3), ConeSpec([zero(1), nonneg(3)]))
        pp = privatize(prog, calibrate_laplace(0.1, 1.0, k=2), SelectQuery(range(2)),
                       VertexChance(eta=0.1), seed=0)
        G, h = _zero_block(pp)
        X = [pp.space.X_idx[2, j] for j in range(2)]
        assert G.shape[0] == 3
        assert np.array_equal(G[1:, X], -np.eye(2))
        assert np.array_equal(h, [0.0, -1.0, -2.0])


class TestSafetyFactor:
    def test_chebyshev_half(self):
        assert safety_factor(0.5, "chebyshev") == 1.0

    def test_gaussian_median(self):
        assert abs(safety_factor(0.5, "gaussian")) < 1e-12

    def test_gaussian_five_percent(self):
        assert abs(safety_factor(0.05, "gaussian") - 1.6449) < 1e-4

    def test_domain(self):
        with pytest.raises(ValueError):
            safety_factor(0.6, "chebyshev")
        with pytest.raises(ValueError):
            safety_factor(0.1, "uniform")

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.001, 0.5))
    def test_chebyshev_dominates_gaussian(self, eta):
        assert safety_factor(eta, "chebyshev") >= safety_factor(eta, "gaussian")


class TestQuadraticReduction:
    def test_identity_recourse(self):
        sigma2 = 0.49
        n = 4
        val = reduce_quadratic_objective(np.eye(n), sigma2 * np.eye(n))
        assert abs(val - n * sigma2) < 1e-12

    def test_zero_recourse(self):
        assert reduce_quadratic_objective(np.zeros((3, 2)), np.eye(2)) == 0.0

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(3, 2))
        F = rng.normal(size=(2, 2))
        cov = F @ F.T
        xbar = rng.normal(size=3)
        closed = xbar @ xbar + reduce_quadratic_objective(X, cov)
        S = 10**6
        zetas = rng.standard_normal((S, 2)) @ F.T
        vals = ((xbar[None, :] + zetas @ X.T) ** 2).sum(axis=1)
        se = vals.std() / math.sqrt(S)
        assert abs(vals.mean() - closed) < 3 * se


class TestIndividualRows:
    def test_zero_coefficient_is_plain_row(self):
        noise = NoiseSpec("gaussian", 1, 1.0)
        prog = ConicProgram(np.zeros((1, 2)), np.array([1.0]), np.ones(2),
                            ConeSpec([nonneg(1)]))
        pp = privatize(prog, noise, SelectQuery([0]),
                       IndividualChance(eta_bar=0.1), seed=0)
        assert pp.program.cones.blocks[0] == nonneg(1)
        assert pp.program.b[0] == 1.0  # untightened constant
        assert not as_dense(pp.program.A)[0].any()

    @pytest.mark.parametrize("family, kind", [("gaussian", "gaussian"),
                                              ("laplace", "chebyshev")])
    def test_factor_follows_the_noise_family(self, family, kind):
        # x <= 1 on the pinned release x = xbar + zeta tightens to
        # xbar <= 1 - z(eta_bar) * std(zeta), z the quantile for Gaussian
        # noise and the Chebyshev factor for Laplace noise
        noise = NoiseSpec(family, 1, 0.3)
        prog = ConicProgram(np.array([[1.0]]), np.array([1.0]), np.array([-1.0]),
                            ConeSpec([nonneg(1)]))
        pp = privatize(prog, noise, SelectQuery([0]),
                       IndividualChance(eta_bar=0.05), seed=0)
        std = math.sqrt(noise.coordinate_variance)
        assert pp.program.b[0] == pytest.approx(1.0 - safety_factor(0.05, kind) * std,
                                                rel=1e-12)

    def test_constant_coefficient_tightens_linearly(self):
        # a fixed numeric row over a free entry of X (X[1]): scalar noise
        # degenerates the SOC row to two NonNeg rows
        noise = NoiseSpec("laplace", 1, 2.0)
        prog = ConicProgram(np.array([[1.0, -1.0]]), np.array([3.0]), np.ones(2),
                            ConeSpec([nonneg(1)]))
        pp = privatize(prog, noise, SelectQuery([0]),
                       IndividualChance(eta_bar=0.5), seed=0)
        assert pp.program.cones.blocks[0] == nonneg(2)

    def test_gaussian_tightening_value(self):
        # regression-style row: C (wbar + zeta) >= 0 with Sigma = sigma^2 I
        # becomes C wbar >= z(eta) sigma |C|
        sigma, eta = 0.7, 0.05
        C = np.array([1.0, 24.0])
        z = safety_factor(eta, "gaussian")
        expect = z * sigma * np.linalg.norm(C)
        assert abs(expect - 1.6449 * sigma * np.linalg.norm(C)) < 1e-3


def _box_program():
    # 0 <= x <= 2 in two dimensions
    A = np.vstack([np.eye(2), -np.eye(2)])
    b = np.array([2.0, 2.0, 0.0, 0.0])
    return ConicProgram(A, b, np.array([1.0, 1.0]), ConeSpec([nonneg(4)]))


class TestPrivatize:
    def test_simple_lp_box_geometry(self):
        prog = build_simple_lp(1.0, 1.0, 2.0)
        noise = calibrate_laplace(0.05, 1.0, k=1)
        pp = privatize(prog, noise, WeightedSumQuery([1.0]), VertexChance(eta=0.05),
                       seed=42)
        sol = solve(pp.program)
        assert sol.status == Status.OPTIMAL
        rule = pp.extract_rule(sol)
        box_lo = pp.box_vertices.min()
        # nominal backs off the private bound by exactly the box radius
        assert abs(rule.xbar[0] - (1.0 - box_lo)) < 1e-6
        assert abs(rule.X[0, 0] - 1.0) < 1e-9

    def test_zero_noise_limit_recovers_deterministic(self):
        prog = build_simple_lp(1.0, 1.0, 2.0)
        noise = NoiseSpec("laplace", 1, 1e-12)
        pp = privatize(prog, noise, WeightedSumQuery([1.0]), VertexChance(eta=0.05),
                       seed=0)
        rule = pp.extract_rule(solve(pp.program))
        det = solve(prog)
        assert abs(rule.xbar[0] - det.x[0]) < 1e-5

    def test_vertex_soundness_interior_points(self):
        # feasible at all box vertices implies feasible inside the box
        prog = _box_program()
        noise = calibrate_laplace(0.1, 1.0, k=2)
        pp = privatize(prog, noise, SelectQuery(range(2)), VertexChance(eta=0.1), seed=2)
        rule = pp.extract_rule(solve(pp.program))
        lo = pp.box_vertices.min(axis=0)
        hi = pp.box_vertices.max(axis=0)
        rng = np.random.default_rng(4)
        interior = rng.uniform(lo, hi, size=(1000, 2))
        for zeta in interior:
            assert cone_membership(slack(prog, rule.evaluate(zeta)),
                                   prog.cones, 1e-8)

    def test_feasible_at_every_draw_in_the_box(self):
        prog = _box_program()
        noise = calibrate_laplace(0.08, 1.0, k=2)
        pp = privatize(prog, noise, SelectQuery(range(2)), VertexChance(eta=0.1), seed=6)
        rule = pp.extract_rule(solve(pp.program))
        draws = sample_noise(noise, 6, 10**4, stream=7)
        t = pp.box_vertices.max()
        inside = draws[(np.abs(draws) <= t).all(axis=1)]
        assert len(inside) > 8000   # the box holds 0.9 of the draws
        for zeta in inside:
            assert cone_membership(slack(prog, rule.evaluate(zeta)),
                                   prog.cones, 1e-8)

    @pytest.mark.parametrize("family", ["laplace", "gaussian"])
    def test_vertex_program_does_not_read_the_seed(self, family):
        # the box comes from the noise law, so only objective_samples read seed
        noise = NoiseSpec(family, 2, 0.1)
        p, q = (privatize(_box_program(), noise, SelectQuery(range(2)),
                          VertexChance(eta=0.05), seed=seed).program for seed in (0, 12345))
        assert as_dense(p.A).tobytes() == as_dense(q.A).tobytes()
        assert p.b.tobytes() == q.b.tobytes() and p.c.tobytes() == q.c.tobytes()

    def test_conflicting_constraints_detected(self):
        # equality requires 1'X = 0 while the sum query demands 1'X = 1
        A = np.vstack([np.ones((1, 2)), np.eye(2), -np.eye(2)])
        b = np.array([1.0, 2.0, 2.0, 0.0, 0.0])
        prog = ConicProgram(A, b, np.ones(2), ConeSpec([zero(1), nonneg(4)]))
        noise = calibrate_laplace(0.1, 1.0, k=1)
        with pytest.raises(ConflictingConstraints):
            privatize(prog, noise, WeightedSumQuery(np.ones(2)), VertexChance(eta=0.1),
                      seed=0)

    def test_identity_with_nonzero_equality_row_conflicts(self):
        A = np.vstack([np.array([[1.0, 0.0]]), np.eye(2), -np.eye(2)])
        b = np.array([1.0, 2.0, 2.0, 0.0, 0.0])
        prog = ConicProgram(A, b, np.ones(2), ConeSpec([zero(1), nonneg(4)]))
        noise = calibrate_laplace(0.1, 1.0, k=2)
        with pytest.raises(ConflictingConstraints):
            privatize(prog, noise, SelectQuery(range(2)), VertexChance(eta=0.1), seed=0)

    def test_weighted_query_with_balance_is_consistent(self):
        # 1'X = 0 and c'X = 1 coexist when c is not constant
        A = np.vstack([np.ones((1, 2)), np.eye(2), -np.eye(2)])
        b = np.array([1.0, 2.0, 2.0, 0.0, 0.0])
        prog = ConicProgram(A, b, np.array([1.0, 3.0]), ConeSpec([zero(1), nonneg(4)]))
        noise = calibrate_laplace(0.1, 1.0, k=1)
        pp = privatize(prog, noise, WeightedSumQuery(prog.c),
                       VertexChance(eta=0.1), seed=0)
        rule = pp.extract_rule(solve(pp.program))
        assert abs(prog.c @ rule.X[:, 0] - 1.0) < 1e-9
        assert abs(rule.X[:, 0].sum()) < 1e-9

    def test_equality_preserved_under_draws(self):
        A = np.vstack([np.ones((1, 2)), np.eye(2), -np.eye(2)])
        b = np.array([1.0, 2.0, 2.0, 0.0, 0.0])
        prog = ConicProgram(A, b, np.array([1.0, 3.0]), ConeSpec([zero(1), nonneg(4)]))
        noise = calibrate_laplace(0.05, 1.0, k=1)
        pp = privatize(prog, noise, WeightedSumQuery(prog.c),
                       VertexChance(eta=0.1), seed=1)
        rule = pp.extract_rule(solve(pp.program))
        draws = sample_noise(noise, 99, 10**4, stream=3)
        xs = rule.evaluate_many(draws)
        assert np.abs(xs.sum(axis=1) - 1.0).max() < 1e-8

    def test_individual_method_rejects_soc_blocks(self):
        from dpconic.conic import soc

        A = np.zeros((3, 2))
        A[0, 0] = -1.0
        prog = ConicProgram(A, np.array([0.0, 1.0, 1.0]), np.ones(2),
                            ConeSpec([soc(3)]))
        noise = calibrate_laplace(0.1, 1.0, k=1)
        with pytest.raises(ValueError):
            privatize(prog, noise, WeightedSumQuery(np.ones(2)), IndividualChance(eta=0.1),
                      seed=0)

    def test_unknown_chance_spec_rejected(self):
        noise = calibrate_laplace(0.1, 1.0, k=1)
        with pytest.raises(TypeError):
            privatize(build_simple_lp(1.0, 1.0, 2.0), noise, WeightedSumQuery([1.0]), 0.05,
                      seed=0)

    def test_vertex_blow_up_fails_before_sampling(self, monkeypatch):
        import dpconic.ldr as ldr

        def no_sampling(*args, **kwargs):
            raise AssertionError("sample_noise called")
        monkeypatch.setattr(ldr, "sample_noise", no_sampling)
        k = 16
        # box rows -1 <= x_i <= 1 plus the epigraph row of t >= sum(x)
        A = np.zeros((2 * k + 1, k + 1))
        A[:k, :k], A[k:2 * k, :k] = np.eye(k), -np.eye(k)
        A[2 * k, :k], A[2 * k, k] = 1.0, -1.0
        prog = ConicProgram(A, np.concatenate([np.ones(2 * k), [0.0]]),
                            np.concatenate([np.zeros(k), [1.0]]),
                            ConeSpec([nonneg(2 * k), nonneg(1)]))
        noise = calibrate_laplace(0.1, 1.0, k=k)
        with pytest.raises(ValueError) as err:
            privatize(prog, noise, SelectQuery(range(k)), VertexChance(eta=0.1), seed=0,
                      epigraph_vars=1, objective_samples=4)
        msg = str(err.value)
        assert "k=16" in msg and "65536" in msg and str(65536 * 2 * k) in msg

    def test_individual_chance_without_chance_rows(self):
        # min 0.3 x + t s.t. t >= x^2: the only block touches the epigraph
        # variable t, so no row is chance-constrained and the joint eta has
        # nothing to split
        A = np.array([[0.0, -1.0], [0.0, 0.0], [-1.0, 0.0]])
        prog = ConicProgram(A, np.array([0.0, 0.5, 0.0]), np.array([0.3, 1.0]),
                            ConeSpec([rsoc(3)]))
        assert IndividualChance(eta=0.1).row_levels(0).shape == (0,)
        pp = privatize(prog, calibrate_laplace(0.1, 1.0, k=1), SelectQuery([0]),
                       IndividualChance(eta=0.1), seed=0, epigraph_vars=1)
        assert pp.program.cones == ConeSpec([rsoc(3)])
        sol = solve(pp.program)
        assert sol.status == Status.OPTIMAL
        assert abs(pp.extract_rule(sol).xbar[0] + 0.15) < 1e-6

    def test_individual_chance_row_budget(self):
        levels = IndividualChance(eta=0.04).row_levels(4)
        assert np.allclose(levels, 0.01)
        assert levels.sum() <= 0.04 + 1e-12
        with pytest.raises(ValueError):
            IndividualChance(eta_bar=0.7).row_levels(1)


class TestReleaseQuery:
    def test_increment_is_raw_draw_any_dataset(self):
        noise = calibrate_laplace(0.5, 1.0, k=1)
        draw = sample_noise(noise, 12, 1)[0]
        for xbar in ([1.0], [42.0], [-3.5]):
            rule = DecisionRule(np.array(xbar), np.ones((1, 1)))
            rel = release_query(rule, WeightedSumQuery([1.0]), noise, seed=12)
            assert np.array_equal(rel, np.array([np.sum(xbar)]) + draw[0])

    def test_identity_release(self):
        noise = NoiseSpec("gaussian", 2, 0.3)
        rule = DecisionRule(np.array([1.0, 2.0]), np.eye(2))
        rel = release_query(rule, SelectQuery(range(2)), noise, seed=3)
        assert np.array_equal(rel, rule.xbar + sample_noise(noise, 3, 1)[0])

    def test_weighted_release(self):
        noise = NoiseSpec("laplace", 1, 0.2)
        w = np.array([2.0, -1.0])
        rule = DecisionRule(np.array([3.0, 1.0]), np.array([[0.5], [0.5]]))
        rel = release_query(rule, WeightedSumQuery(w), noise, seed=4)
        assert np.array_equal(rel, np.array([5.0]) + sample_noise(noise, 4, 1)[0][0])

    def test_fixed_recourse_release(self):
        # a selection releases its rows of xbar plus the draw; the recourse
        # X is never read, so NaN there does not reach the release
        noise = NoiseSpec("gaussian", 2, 0.1)
        rule = DecisionRule(np.array([1.0, 5.0, 3.0]), np.full((3, 2), np.nan))
        rel = release_query(rule, SelectQuery([2, 0]), noise, seed=5)
        assert np.array_equal(rel, np.array([3.0, 1.0]) + sample_noise(noise, 5, 1)[0])

    def test_same_seed_same_increment_across_datasets(self):
        noise = NoiseSpec("laplace", 1, 0.4)
        r1 = DecisionRule(np.array([1.0]), np.ones((1, 1)))
        r2 = DecisionRule(np.array([7.0]), np.ones((1, 1)))
        q = WeightedSumQuery([1.0])
        inc1 = release_query(r1, q, noise, 9) - q.value(r1.xbar)
        inc2 = release_query(r2, q, noise, 9) - q.value(r2.xbar)
        assert np.allclose(inc1, inc2, rtol=0, atol=1e-12)


def _epigraph_program(c_t=1.0):
    """min x1 + x2 + c_t t  s.t.  0 <= x <= 2 (chance block), |x|^2 <= t.

    t is the last column; the rotated-SOC block touches it, so it is the
    objective block.
    """
    A = np.zeros((8, 3))
    b = np.zeros(8)
    A[0:4, 0:2] = np.vstack([np.eye(2), -np.eye(2)])
    b[0:2] = 2.0
    A[4, 2] = -1.0
    b[5] = 0.5
    A[6:8, 0:2] = -np.eye(2)
    return ConicProgram(A, b, np.array([1.0, 1.0, c_t]),
                        ConeSpec([nonneg(4), rsoc(4)]))


def _rows_of_block(program, index):
    blk, start = list(program.cones.offsets())[index]
    return blk, slice(start, start + blk.dim)


class TestEpigraphVariables:
    def test_objective_block_at_xbar_is_base_rows(self):
        base = _epigraph_program()
        noise = calibrate_laplace(0.1, 1.0, k=1)
        for chance in (VertexChance(eta=0.1), IndividualChance(eta_bar=0.1)):
            # the sum query leaves X free, so the block really ignores X zeta
            pp = privatize(base, noise, WeightedSumQuery(np.ones(2)), chance, seed=3,
                           epigraph_vars=1)
            prog = pp.program
            t = prog.variable_names.index("t[0]")
            # the objective block is last
            blk, rows = _rows_of_block(prog, -1)
            assert blk == rsoc(4)
            A = as_dense(prog.A)[rows]
            # exact equality, not a tolerance (signed zeros aside)
            assert np.array_equal(A[:, pp.space.xbar_idx], base.A[4:8, :2])
            assert np.array_equal(A[:, t], base.A[4:8, 2])
            others = np.ones(prog.n, dtype=bool)
            others[list(pp.space.xbar_idx) + [t]] = False
            assert not A[:, others].any()
            assert prog.b[rows].tobytes() == base.b[4:8].tobytes()
            assert prog.c[t] == 1.0
            rule = pp.extract_rule(solve(prog))
            assert rule.xbar.shape == (2,)

    def test_objective_draws_from_obj_stream(self):
        base = _epigraph_program(c_t=3.0)
        noise = calibrate_laplace(0.1, 1.0, k=2)
        S = 5
        pp = privatize(base, noise, SelectQuery(range(2)), VertexChance(eta=0.1),
                       seed=4, epigraph_vars=1, objective_samples=S)
        prog = pp.program
        draws = sample_noise(noise, 4, S, stream=OBJ_STREAM)
        xbar = pp.space.xbar_idx
        n_chance = 2**2  # one NonNeg block per vertex
        for s in range(S):
            t_s = prog.variable_names.index(f"t[0][{s}]")
            assert prog.c[t_s] == 3.0 / S
            blk, rows = _rows_of_block(prog, n_chance + s)
            assert blk == rsoc(4)
            assert np.array_equal(as_dense(prog.A)[rows][:, xbar], base.A[4:8, :2])
            assert np.array_equal(as_dense(prog.A)[rows][:, t_s], base.A[4:8, 2])
            np.testing.assert_allclose(prog.b[rows],
                                       base.b[4:8] - base.A[4:8, :2] @ draws[s],
                                       rtol=0, atol=1e-15)
        assert prog.n == 2 + S

    def test_individual_chance_accepts_cone_objective_block(self):
        noise = calibrate_laplace(0.1, 1.0, k=2)
        pp = privatize(_epigraph_program(), noise, SelectQuery(range(2)),
                       IndividualChance(eta_bar=0.1), seed=0, epigraph_vars=1)
        sol = solve(pp.program)
        assert sol.status == Status.OPTIMAL
        assert [blk.kind for blk in pp.program.cones.blocks][-1] == ConeKind.RSOC


# --- the dict-row assembly, kept as the reference for the array expansion ------
#
# This is the row-at-a-time assembly that `privatize` used before it built its
# blocks from RuleSpace.expand: a builder of dict rows, the vertex/objective
# rows of one block at a noise point, and the per-row safety-factor blocks.


class _RefBuilder:
    def __init__(self):
        self.names, self.obj, self.blocks = [], [], []

    def add_var(self, name, obj=0.0):
        self.names.append(name)
        self.obj.append(float(obj))
        return len(self.names) - 1

    def add_block(self, kind, rows):
        if rows:
            self.blocks.append((kind, [(dict(r), float(c)) for r, c in rows]))

    def build(self):
        m = sum(len(rows) for _, rows in self.blocks)
        A, b, r = np.zeros((m, len(self.names))), np.zeros(m), 0
        for _, rows in self.blocks:
            for coefs, const in rows:
                b[r] = const
                for idx, coef in coefs.items():
                    A[r, idx] = -coef
                r += 1
        return ConicProgram(A, b, np.array(self.obj),
                            ConeSpec([(kind.value, len(rows)) for kind, rows in self.blocks]),
                            variable_names=tuple(self.names))


class _RefSpace:
    def __init__(self, builder, n, k, pin_mask, pin_values):
        self.n, self.k, self.pin_mask, self.pin_values = n, k, pin_mask, pin_values
        self.xbar_idx = [builder.add_var(f"xbar[{i}]") for i in range(n)]
        self.X_idx = -np.ones((n, k), dtype=int)
        self.free = [(i, j) for i in range(n) for j in range(k) if not pin_mask[i, j]]
        for i, j in self.free:
            self.X_idx[i, j] = builder.add_var(f"X[{i}][{j}]")

    def nominal_terms(self, a):
        return {self.xbar_idx[i]: -float(a[i]) for i in range(self.n) if a[i] != 0.0}

    def zeta_coef(self, a):
        out = []
        for j in range(self.k):
            terms, const = {}, 0.0
            for i in range(self.n):
                if a[i] == 0.0:
                    continue
                if self.pin_mask[i, j]:
                    const += float(a[i]) * float(self.pin_values[i, j])
                else:
                    terms[int(self.X_idx[i, j])] = float(a[i])
            out.append((terms, const))
        return out


def _ref_block_rows(space, A, A_epi, b, epi_idx, point=None):
    rows = []
    for a, a_epi, b0 in zip(A, A_epi, b):
        terms = space.nominal_terms(a)
        for e in np.flatnonzero(a_epi):
            terms[int(epi_idx[e])] = -float(a_epi[e])
        const = float(b0)
        if point is not None:
            for j, (tj, cj) in enumerate(space.zeta_coef(a)):
                const -= cj * point[j]
                for idx, coef in tj.items():
                    terms[idx] = terms.get(idx, 0.0) - coef * point[j]
        rows.append((terms, const))
    return rows


def _ref_chance_row_blocks(space, rows, noise, levels):
    f = math.sqrt(noise.coordinate_variance)
    kind = {"gaussian": "gaussian", "laplace": "chebyshev"}[noise.family]
    blocks = []
    for (a, b0), lvl in zip(rows, levels):
        z = safety_factor(float(lvl), kind)
        nominal = (space.nominal_terms(a), float(b0))
        coefs = space.zeta_coef(a)
        if not any(t for t, _ in coefs):
            norm = f * float(np.linalg.norm(np.array([c for _, c in coefs])))
            if norm == 0.0:
                blocks.append((ConeKind.NONNEG, [nominal]))
            else:
                blocks.append((ConeKind.NONNEG, [(nominal[0], nominal[1] - z * norm)]))
        elif space.k == 1:
            terms, c0 = coefs[0]
            lo, hi = dict(nominal[0]), dict(nominal[0])
            for idx, coef in terms.items():
                lo[idx] = lo.get(idx, 0.0) - z * f * coef
                hi[idx] = hi.get(idx, 0.0) + z * f * coef
            blocks.append((ConeKind.NONNEG, [(lo, nominal[1] - z * f * c0),
                                             (hi, nominal[1] + z * f * c0)]))
        else:
            soc_rows = [nominal]
            for terms, c0 in coefs:
                soc_rows.append(({i: z * f * t for i, t in terms.items()}, z * f * c0))
            blocks.append((ConeKind.SOC, soc_rows))
    return blocks


def _ref_query_constraint(query, n):
    """(k, pin mask, pin values, E, r) of the query, read off its fields: a
    SelectQuery pins its rows of X to I_k, a WeightedSumQuery adds w'X = 1."""
    if isinstance(query, SelectQuery):
        k = len(query.rows)
        mask, values = np.zeros((n, k), dtype=bool), np.zeros((n, k))
        for j, i in enumerate(query.rows):
            mask[i] = True
            values[i, j] = 1.0
        return k, mask, values, np.zeros((0, n * k)), np.zeros(0)
    return (1, np.zeros((n, 1), dtype=bool), np.zeros((n, 1)),
            np.array([query.weights]), np.ones(1))


def _ref_privatize(program, noise, query, chance, seed, epigraph_vars=0,
                   objective_samples=0):
    n = program.n - epigraph_vars
    k, pin_mask, pin_values, E_query, r_query = _ref_query_constraint(query, n)
    eq_A, eq_b, chance_blocks, objective_blocks = [], [], [], []
    for blk, start in program.cones.offsets():
        rows = slice(start, start + blk.dim)
        A_rule, A_epi, b = program.A[rows, :n], program.A[rows, n:], program.b[rows]
        if A_epi.any():
            objective_blocks.append((blk.kind, A_rule, A_epi, b))
        elif blk.kind == ConeKind.ZERO:
            eq_A.append(A_rule)
            eq_b.append(b)
        else:
            chance_blocks.append((blk.kind, A_rule, A_epi, b))
    builder = _RefBuilder()
    space = _RefSpace(builder, n, k, pin_mask, pin_values)
    for i in range(n):
        builder.obj[space.xbar_idx[i]] += float(program.c[i])
    obj_points = (sample_noise(noise, seed, objective_samples, stream=OBJ_STREAM)
                  if objective_samples else [None])
    epi_copies = [
        [builder.add_var(f"t[{e}]" + (f"[{s}]" if objective_samples else ""),
                         obj=float(program.c[n + e]) / len(obj_points))
         for e in range(epigraph_vars)]
        for s in range(len(obj_points))]
    A_E = np.vstack(eq_A) if eq_A else np.zeros((0, n))
    b_E = np.concatenate(eq_b) if eq_b else np.zeros(0)
    # the recourse A_E X = 0 over vec(X), row-major: row (r, j) is A_E[r] X[:, j]
    recourse = np.zeros((len(A_E) * k, n * k))
    for r in range(len(A_E)):
        for j in range(k):
            recourse[r * k + j, j::k] = A_E[r]
    X_eq = np.vstack([recourse, E_query])
    X_rhs = np.concatenate([np.zeros(len(A_E) * k), r_query])
    free_cols = [i * k + j for i, j in space.free]
    rhs_eff = X_rhs - X_eq @ np.where(pin_mask.ravel(), pin_values.ravel(), 0.0)
    zero_rows = [(space.nominal_terms(A_E[r]), float(b_E[r])) for r in range(len(A_E))]
    for r in range(X_eq.shape[0]):
        terms = {int(space.X_idx[i, j]): -float(X_eq[r, col])
                 for (i, j), col in zip(space.free, free_cols) if X_eq[r, col] != 0.0}
        if terms or rhs_eff[r] != 0.0:
            zero_rows.append((terms, float(rhs_eff[r])))
    builder.add_block(ConeKind.ZERO, zero_rows)
    if isinstance(chance, VertexChance):
        # the box [-t, t]^k, each coordinate of mass (1 - eta)^(1/k): its
        # lower end is the law's quantile at the tail (1 - p)/2
        p = (1 - chance.eta) ** (1 / k)
        law = scipy.stats.laplace if noise.family == "laplace" else scipy.stats.norm
        lo = float(law.ppf((1 - p) / 2, scale=noise.scale))
        for bits in itertools.product((0, 1), repeat=k):
            vert = [-lo if bit else lo for bit in bits]
            for kind, A_blk, A_epi, b_blk in chance_blocks:
                builder.add_block(kind, _ref_block_rows(space, A_blk, A_epi, b_blk, (), vert))
    else:
        flat = [row for _, A_blk, _, b_blk in chance_blocks for row in zip(A_blk, b_blk)]
        for kind, rows in _ref_chance_row_blocks(space, flat, noise,
                                                 chance.row_levels(len(flat))):
            builder.add_block(kind, rows)
    for point, epi_idx in zip(obj_points, epi_copies):
        for kind, A_blk, A_epi, b_blk in objective_blocks:
            builder.add_block(kind, _ref_block_rows(space, A_blk, A_epi, b_blk,
                                                    epi_idx, point))
    return builder.build()


def _random_case(seed, query_kind, chance_kind, k_pinned=2, equality=False,
                 epigraph_vars=0):
    """A random program over n rule coordinates (plus epigraph columns) and the
    query/chance that go with it.  Coefficients are sparse so that some rows
    miss every free entry of X."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 6) if query_kind != "pinned" else rng.integers(5, 8))
    if query_kind == "identity":
        query, k = SelectQuery(range(n)), n
    elif query_kind == "sum":
        query, k = WeightedSumQuery(np.ones(n)), 1
    elif query_kind == "weighted":
        query, k = WeightedSumQuery(rng.uniform(0.5, 2.0, n)), 1
    else:
        # k_pinned rows of X pinned to I, in no particular order; the other
        # rows free
        k = k_pinned
        query = SelectQuery(rng.permutation(n)[:k])

    def rows(m, dense=False):
        A = rng.normal(size=(m, n))
        if not dense:
            A[rng.random((m, n)) < 0.5] = 0.0
        return A

    blocks = []  # (cone, A over the rule, A over the epigraph columns, b)
    if equality:
        blocks.append((zero(1), rows(1, dense=True), None, rng.normal(size=1)))
    blocks.append((nonneg(4), rows(4), None, rng.uniform(1.0, 3.0, 4)))
    if chance_kind == "vertex":
        blocks.append((soc(3), rows(3), None, np.array([5.0, 0.3, -0.2])))
        blocks.append((rsoc(3), rows(3), None, np.array([2.0, 1.5, 0.1])))
    blocks.append((nonneg(2), rows(2), None, rng.uniform(1.0, 3.0, 2)))
    if epigraph_vars:
        # t_0 >= |x|^2-like rotated cone, and a linear row touching the last t
        A_r = np.zeros((n + 2, n))
        A_r[2:] = -np.eye(n)
        E_r = np.zeros((n + 2, epigraph_vars))
        E_r[0, 0] = -1.0
        b_r = np.zeros(n + 2)
        b_r[1] = 0.5
        blocks.append((rsoc(n + 2), A_r, E_r, b_r))
        E_l = np.zeros((1, epigraph_vars))
        E_l[0, -1] = -1.0
        blocks.append((nonneg(1), rows(1), E_l, rng.normal(size=1)))
    order = rng.permutation(len(blocks))
    A = np.vstack([np.hstack([blocks[i][1], blocks[i][2] if blocks[i][2] is not None
                              else np.zeros((blocks[i][1].shape[0], epigraph_vars))])
                   for i in order])
    b = np.concatenate([blocks[i][3] for i in order])
    c = rng.normal(size=n + epigraph_vars)
    program = ConicProgram(A, b, c, ConeSpec([blocks[i][0] for i in order]))
    if chance_kind == "vertex":
        chance = VertexChance(eta=0.2)
    else:
        chance = IndividualChance(eta=0.1)
    noise = NoiseSpec(str(rng.choice(["laplace", "gaussian"])), k, 0.3)
    return program, noise, query, chance


ORACLE_CASES = [
    # (query, chance, k of the pinned query, equality rows, epigraph vars,
    #  objective samples); each id ends in 1e-08, the weight of the recourse
    #  ridge privatize built before it was deleted, so the ids stay as recorded
    ("identity", "vertex", 0, False, 0, 0),
    ("identity", "individual", 0, False, 0, 0),
    ("sum", "vertex", 0, True, 0, 0),
    ("sum", "individual", 0, True, 0, 0),
    ("weighted", "vertex", 0, True, 1, 0),
    ("weighted", "individual", 0, True, 1, 3),
    ("pinned", "vertex", 1, True, 0, 0),
    ("pinned", "vertex", 3, True, 2, 4),
    ("pinned", "individual", 1, True, 1, 0),
    ("pinned", "individual", 2, True, 0, 0),
    ("pinned", "individual", 3, False, 2, 3),
    ("identity", "vertex", 0, False, 1, 3),
    ("identity", "individual", 0, False, 2, 0),
]


class TestExpansionMatchesDictRows:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("case", ORACLE_CASES,
                             ids=lambda c: "-".join(map(str, c + (1e-08,))))
    def test_same_program(self, case, seed):
        query_kind, chance_kind, k_pinned, equality, epi, obj_samples = case
        program, noise, query, chance = _random_case(seed, query_kind, chance_kind,
                                                     k_pinned, equality, epi)
        kw = dict(epigraph_vars=epi, objective_samples=obj_samples)
        got = privatize(program, noise, query, chance, seed, **kw).program
        ref = _ref_privatize(program, noise, query, chance, seed, **kw)
        assert np.array_equal(as_dense(got.A), ref.A)
        assert np.array_equal(got.b, ref.b)
        assert np.array_equal(got.c, ref.c)
        assert got.cones == ref.cones
        assert got.variable_names == ref.variable_names

    def test_rule_columns(self):
        program, noise, query, chance = _random_case(0, "pinned", "vertex", 3)
        pp = privatize(program, noise, query, chance, 0)
        names = pp.program.variable_names
        assert [names[i] for i in pp.space.xbar_idx] == [
            f"xbar[{i}]" for i in range(pp.space.n)]
        mask = np.zeros((pp.space.n, 3), dtype=bool)
        mask[list(query.rows)] = True
        free = [(i, j) for i in range(pp.space.n) for j in range(3) if not mask[i, j]]
        assert [names[pp.space.X_idx[i, j]] for i, j in free] == [
            f"X[{i}][{j}]" for i, j in free]
        assert list(pp.space.X_idx[mask]) == [-1] * int(mask.sum())
