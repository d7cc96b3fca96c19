import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import null_space

from dpconic.apps import ellipsoid, opf, regression
from dpconic.conic import (ConeKind, ConeSpec, ConicProgram, Status, as_dense,
                           build_simple_lp, slack)
from dpconic.dp import NoiseSpec, calibrate_laplace
from dpconic.dp import sample_noise
from dpconic.ldr import (
    DecisionRule,
    IndividualChance,
    SelectQuery,
    VertexChance,
    WeightedSumQuery,
    privatize,
)
from dpconic.risk import (
    CVaRSpec,
    augment_with_cvar,
    augment_with_cvar_k1,
    cvar_empirical,
    var_empirical,
)
from dpconic.solver import SolverSettings, solve
from dpconic.apps.metrics import evaluate_rule_metrics


def cvar_bruteforce(losses, q, grid=20001):
    """Independent oracle: minimize gamma + 1/((1-q)S) sum [l-gamma]+ on a grid."""
    losses = np.asarray(losses, dtype=float)
    lo, hi = losses.min() - 1.0, losses.max() + 1.0
    gammas = np.linspace(lo, hi, grid)
    S = losses.size
    vals = gammas + np.maximum(losses[None, :] - gammas[:, None], 0.0).sum(1) / (
        (1.0 - q) * S)
    return vals.min()


class TestCvarEmpirical:
    def test_worst_quarter_of_four(self):
        losses = np.array([1.0, 2.0, 3.0, 4.0])
        assert cvar_empirical(losses, 0.75) == 4.0
        assert abs(cvar_bruteforce(losses, 0.75) - 4.0) < 1e-3

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(3)
        losses = rng.normal(size=37)
        for q in (0.1, 0.5, 0.9, 0.95):
            assert abs(cvar_empirical(losses, q) - cvar_bruteforce(losses, q)) < 1e-3

    def test_small_q_tends_to_mean(self):
        losses = np.array([1.0, 5.0, 2.0, 8.0])
        assert abs(cvar_empirical(losses, 1e-9) - losses.mean()) < 1e-6

    def test_constant_losses(self):
        losses = np.full(10, 3.3)
        for q in (0.1, 0.5, 0.99):
            assert cvar_empirical(losses, q) == pytest.approx(3.3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cvar_empirical(np.array([]), 0.5)

    @settings(max_examples=60, deadline=None)
    @given(
        losses=st.lists(st.floats(-100, 100), min_size=1, max_size=40),
        q=st.floats(0.01, 0.99),
    )
    def test_dominates_mean(self, losses, q):
        losses = np.array(losses)
        assert cvar_empirical(losses, q) >= losses.mean() - 1e-9

    @settings(max_examples=60, deadline=None)
    @given(
        losses=st.lists(st.floats(-100, 100), min_size=2, max_size=40),
        q1=st.floats(0.01, 0.98),
        q2=st.floats(0.01, 0.98),
    )
    def test_nondecreasing_in_q(self, losses, q1, q2):
        lo, hi = sorted([q1, q2])
        losses = np.array(losses)
        assert cvar_empirical(losses, hi) >= cvar_empirical(losses, lo) - 1e-9

    def test_var_is_empirical_upper_quantile(self):
        # gamma* leaves at most a (1-q) fraction strictly above it and at
        # least that fraction weakly above: the empirical upper quantile
        rng = np.random.default_rng(11)
        losses = rng.normal(size=200)
        for q in (0.5, 0.9, 0.95):
            g = var_empirical(losses, q)
            assert np.mean(losses > g + 1e-12) <= (1.0 - q) + 1e-9
            assert np.mean(losses >= g - 1e-12) >= (1.0 - q) - 1e-9


class TestOptimalityLoss:
    """The loss column of evaluate_rule_metrics: the base objective's gap."""

    def test_deterministic_rule_zero_loss(self):
        prog = build_simple_lp(1.0, 1.0, 2.0)
        base = solve(prog)
        rule = DecisionRule(base.x, np.zeros((1, 1)))
        noise = NoiseSpec("laplace", 1, 0.3)
        losses, _ = evaluate_rule_metrics(rule, prog, base, sample_noise(noise, 0, 100))
        assert abs(losses.mean()) < 1e-9

    def test_nominal_suboptimality_floor(self):
        prog = build_simple_lp(1.0, 1.0, 2.0)
        base = solve(prog)
        rule = DecisionRule(np.array([1.4]), np.zeros((1, 1)))
        losses, _ = evaluate_rule_metrics(
            rule, prog, base, sample_noise(NoiseSpec("laplace", 1, 1e-14), 1, 50))
        assert losses.mean() == pytest.approx(0.4, abs=1e-6)

    def test_linear_loss_converges_to_nominal_gap(self):
        prog = build_simple_lp(1.0, 1.0, 2.0)
        base = solve(prog)
        rule = DecisionRule(np.array([1.3]), np.ones((1, 1)))
        noise = NoiseSpec("laplace", 1, 0.1)
        losses, _ = evaluate_rule_metrics(rule, prog, base, sample_noise(noise, 2, 10**6))
        se = losses.std() / np.sqrt(losses.size)
        assert abs(losses.mean() - (1.3 - base.x[0])) < 3 * se


def membership_loop(program, xs, tol):
    """Per sample and per block, the cone membership of the slack b - A x."""
    def inside(v, kind):
        if kind == ConeKind.ZERO:
            return bool(np.all(np.abs(v) <= tol))
        if kind == ConeKind.NONNEG:
            return bool(np.all(v >= -tol))
        if kind == ConeKind.SOC:
            return v[0] >= np.linalg.norm(v[1:]) - tol
        if v[0] < -tol or v[1] < -tol:
            return False
        return 2.0 * v[0] * v[1] >= float(v[2:] @ v[2:]) - tol

    return np.array([
        all(inside(slack(program, x)[start:start + blk.dim], blk.kind)
            for blk, start in program.cones.offsets())
        for x in xs])


_MEMBERSHIP_PROGRAMS = {
    "simple-lp": lambda: build_simple_lp(1.0, 1.0, 2.0),
    "opf-cvar6": lambda: opf.build_opf(opf.bundled_network("cvar6")),
    "ellipsoid": lambda: ellipsoid.build_ellipsoid(ellipsoid.regular_polygon(5, 2.0)),
    "regression": lambda: regression.build_monotone_regression(
        regression.synthetic_cubic_data(n=30)),
}


class TestFeasibleColumn:
    """evaluate_rule_metrics' feasible column against the per-sample loop."""

    @pytest.mark.parametrize("name", sorted(_MEMBERSHIP_PROGRAMS))
    def test_equals_per_sample_loop(self, name):
        prog = _MEMBERSHIP_PROGRAMS[name]()
        base = solve(prog)
        # a rule that keeps the Zero rows and moves the optimum by about the
        # tolerance, so that both outcomes occur
        rng = np.random.default_rng(4)
        eq = np.concatenate([np.full(blk.dim, blk.kind == ConeKind.ZERO)
                             for blk in prog.cones.blocks])
        basis = null_space(prog.A[eq]) if eq.any() else np.eye(prog.n)
        rule = DecisionRule(base.x, 3e-4 * basis @ rng.normal(size=(basis.shape[1], 3)))
        noise = NoiseSpec("gaussian", 3, 1.0)
        zetas = sample_noise(noise, 5, 2000)
        _, feasible = evaluate_rule_metrics(rule, prog, base, zetas, membership_tol=1e-3)
        xs = rule.evaluate_many(zetas)
        expected = membership_loop(prog, xs, 1e-3)
        assert 0 < expected.sum() < expected.size
        assert np.array_equal(feasible, expected)


class TestAugmentWithCvar:
    def _frozen_value(self, q, samples, seed_draws, xbar0=None):
        prog = build_simple_lp(1.0, 1.0, 2.0)
        noise = calibrate_laplace(0.05, 1.0, k=1)
        pp = privatize(prog, noise, WeightedSumQuery([1.0]), VertexChance(eta=0.05))
        sol0 = solve(pp.program)
        rule0 = pp.extract_rule(sol0)
        xb = float(rule0.xbar[0]) if xbar0 is None else xbar0
        X0 = float(rule0.X[0, 0])
        spec = CVaRSpec(q=q, samples=samples, loss=(1.0,))
        aug, layout = augment_with_cvar(pp, spec, seed=seed_draws)
        extra = np.zeros((2, aug.n))
        extra[0, pp.space.xbar_idx[0]] = 1.0
        extra[1, pp.space.X_idx[0, 0]] = 1.0
        A2 = np.vstack([as_dense(aug.A), extra])
        b2 = np.concatenate([aug.b, [xb, X0]])
        blocks = [(blk.kind.value, blk.dim) for blk in aug.cones.blocks]
        blocks.append((ConeKind.ZERO.value, 2))
        frozen = ConicProgram(A2, b2, aug.c, ConeSpec(blocks))
        sol = solve(frozen, SolverSettings(tol=1e-11))
        vals = xb + X0 * layout["zetas"][:, 0]
        return sol.objective, cvar_empirical(vals, q)

    def test_frozen_rule_matches_sort_oracle(self):
        lp_value, sort_value = self._frozen_value(q=0.8, samples=40, seed_draws=9)
        assert abs(lp_value - sort_value) < 1e-9

    def test_single_sample_any_q(self):
        for q in (0.2, 0.9):
            lp_value, sort_value = self._frozen_value(q=q, samples=1, seed_draws=5)
            assert abs(lp_value - sort_value) < 1e-8

    def test_loss_dimension_checked(self):
        prog = build_simple_lp(1.0, 1.0, 2.0)
        noise = calibrate_laplace(0.05, 1.0, k=1)
        pp = privatize(prog, noise, WeightedSumQuery([1.0]), VertexChance(eta=0.05))
        with pytest.raises(ValueError):
            augment_with_cvar(pp, CVaRSpec(q=0.5, samples=3, loss=(1.0, 2.0)), seed=0)

    def test_query_rows_untouched(self):
        prog = build_simple_lp(1.0, 1.0, 2.0)
        noise = calibrate_laplace(0.05, 1.0, k=1)
        pp = privatize(prog, noise, WeightedSumQuery([1.0]), VertexChance(eta=0.05))
        aug, _ = augment_with_cvar(pp, CVaRSpec(q=0.5, samples=7, loss=(1.0,)), seed=2)
        sol = solve(aug, SolverSettings(tol=1e-9))
        assert sol.status == Status.OPTIMAL
        rule = pp.extract_rule(sol.x[: pp.program.n])
        assert abs(rule.X[0, 0] - 1.0) < 1e-9  # sum-query constraint still holds


class TestCvarSpecValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            CVaRSpec(q=0.0, samples=5, loss=(1.0,))
        with pytest.raises(ValueError):
            CVaRSpec(q=0.5, samples=0, loss=(1.0,))


def _ref_augment(privatized, spec, seed, stream=1):
    """The loop over samples, rule coordinates and noise coordinates that
    built the CVaR rows before they came from RuleSpace.expand."""
    base, space, loss = privatized.program, privatized.space, spec.loss_vector
    zetas = sample_noise(privatized.noise, seed, spec.samples, stream)
    S, n0 = spec.samples, base.n
    z_idx = np.arange(n0 + 1, n0 + 1 + S)
    A_pos = np.zeros((S, n0 + 1 + S))
    A_pos[np.arange(S), z_idx] = -1.0
    A_epi, b_epi = np.zeros((S, n0 + 1 + S)), np.zeros(S)
    for s in range(S):
        A_epi[s, z_idx[s]] = -1.0
        A_epi[s, n0] = -1.0
        for i in range(space.n):
            if loss[i] == 0.0:
                continue
            A_epi[s, space.xbar_idx[i]] += loss[i]
            for j in range(space.k):
                contrib = loss[i] * zetas[s, j]
                if space.X_idx[i, j] < 0:  # pinned
                    b_epi[s] += contrib * space.pin_values[i, j]
                else:
                    A_epi[s, space.X_idx[i, j]] += contrib
    A = np.vstack([np.hstack([as_dense(base.A), np.zeros((base.m, 1 + S))]), A_pos, A_epi])
    b = np.concatenate([base.b, np.zeros(S), -b_epi])
    c = np.zeros(n0 + 1 + S)
    c[n0] = 1.0
    c[z_idx] = 1.0 / ((1.0 - spec.q) * S)
    blocks = [(blk.kind.value, blk.dim) for blk in base.cones.blocks]
    blocks += [(ConeKind.NONNEG.value, S)] * 2
    names = base.variable_names + ("gamma",) + tuple(f"z[{s}]" for s in range(S))
    return ConicProgram(A, b, c, ConeSpec(blocks), variable_names=names)


def _privatized(query_kind, seed):
    """A random box-like program, privatized under the named query."""
    rng = np.random.default_rng(seed)
    n = 4
    A = rng.normal(size=(6, n))
    A[rng.random(A.shape) < 0.3] = 0.0
    prog = ConicProgram(A, rng.uniform(1.0, 3.0, 6), rng.normal(size=n),
                        ConeSpec([("NonNeg", 6)]))
    if query_kind == "weighted":
        query, k = WeightedSumQuery(rng.uniform(0.5, 2.0, n)), 1
    elif query_kind == "identity":
        query, k = SelectQuery(range(n)), n
    else:
        # the SVM's structure: the first k rows of X pinned to I, the rest free
        query, k = SelectQuery(range(2)), 2
    noise = calibrate_laplace(0.2, 1.0, k=k)
    return privatize(prog, noise, query, IndividualChance(eta=0.1))


class TestAugmentMatchesLoop:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("query_kind", ["weighted", "identity", "identity-rows"])
    def test_same_program(self, query_kind, seed):
        pp = _privatized(query_kind, seed)
        loss = np.random.default_rng(seed + 10).normal(size=pp.space.n)
        loss[1] = 0.0
        spec = CVaRSpec(q=0.8, samples=13, loss=tuple(loss))
        got, layout = augment_with_cvar(pp, spec, seed=seed)
        ref = _ref_augment(pp, spec, seed)
        assert np.array_equal(as_dense(got.A), ref.A)
        assert np.array_equal(got.b, ref.b)
        assert np.array_equal(got.c, ref.c)
        assert got.cones == ref.cones
        assert got.variable_names == ref.variable_names
        assert list(layout["z"]) == list(range(pp.program.n + 1, got.n))


def _opf_k1(name, query):
    """The network's OPF privatized at alpha 25 for a k = 1 query, and its
    cost functional: the weighted sum over every other node (free X) or
    the output of node 0 (X[0] pinned at 1)."""
    net = opf.bundled_network(name)
    query = (WeightedSumQuery((np.arange(net.n_nodes) % 2 == 0) * 1.0) if query == "sum"
             else SelectQuery((0,)))
    pp = privatize(opf.build_opf(net), calibrate_laplace(25.0, 1.0, k=1), query,
                   VertexChance(eta=0.01))
    return pp, tuple(net.c)


class TestAugmentWithCvarK1:
    """The k = 1 form against augment_with_cvar and the sort-based CVaR."""

    @pytest.mark.parametrize("q, samples", [
        (0.01, 300), (0.3, 300), (0.8, 300), (0.99, 300),
        (0.3, 37)])   # (1 - q) S = 25.9: the tail weight is fractional
    @pytest.mark.parametrize("name, query", [("cvar6", "sum"), ("triangle3", "select")])
    def test_optimum_equals_the_sampled_epigraph(self, name, query, q, samples):
        pp, loss = _opf_k1(name, query)
        spec = CVaRSpec(q=q, samples=samples, loss=loss)
        sampled, drawn = augment_with_cvar(pp, spec, seed=5)
        two_row, layout = augment_with_cvar_k1(pp, spec, seed=5)
        assert (two_row.n, two_row.m) == (pp.program.n + 1, pp.program.m + 2)
        assert np.array_equal(layout["zetas"], drawn["zetas"])
        settings = SolverSettings(tol=1e-9)
        want, got = solve(sampled, settings), solve(two_row, settings)
        assert want.status == got.status == Status.OPTIMAL
        assert abs(got.objective - want.objective) <= 1e-8 * (1.0 + abs(want.objective))

    @pytest.mark.parametrize("g", [1.5, -0.7, 0.0])
    @pytest.mark.parametrize("query", ["sum", "select"])
    def test_frozen_rule_matches_sort_oracle(self, query, g):
        # the two new rows and the objective at a rule fixed by Zero rows:
        # min over t of a + t, t >= kp g, t >= -km g
        pp, loss = _opf_k1("triangle3", query)
        loss = np.asarray(loss)
        space = pp.space
        v = np.random.default_rng(2).normal(size=pp.program.n)
        # move the free entries of X along the loss so that l'X = g
        free = space.X_idx[space.free]
        lf = loss[space.free[0]]
        v[free] += (g - loss @ space.extract(v).X[:, 0]) * lf / (lf @ lf)
        rule = space.extract(v)
        assert loss @ rule.X[:, 0] == pytest.approx(g, abs=1e-12)
        spec = CVaRSpec(q=0.8, samples=41, loss=tuple(loss))
        aug, layout = augment_with_cvar_k1(pp, spec, seed=9)
        m0, n0 = pp.program.m, pp.program.n
        frozen = ConicProgram(
            np.vstack([as_dense(aug.A)[m0:], np.eye(n0, n0 + 1)]),
            np.concatenate([aug.b[m0:], v]), aug.c,
            ConeSpec([(ConeKind.NONNEG.value, 2), (ConeKind.ZERO.value, n0)]))
        sol = solve(frozen, SolverSettings(tol=1e-11))
        assert sol.status == Status.OPTIMAL
        sort_value = cvar_empirical(rule.evaluate_many(layout["zetas"]) @ loss, 0.8)
        assert abs(sol.objective - sort_value) <= 1e-9

    def test_more_than_one_noise_coordinate_rejected(self):
        pp = _privatized("identity", 0)
        assert pp.space.k == 4
        spec = CVaRSpec(q=0.5, samples=3, loss=(1.0,) * pp.space.n)
        with pytest.raises(ValueError, match=r"one noise coordinate, got k = 4; "
                                             r"augment_with_cvar takes any k"):
            augment_with_cvar_k1(pp, spec, seed=0)
