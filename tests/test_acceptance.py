"""Acceptance suite: every study-level guarantee, one pass/fail line each.

Monte Carlo assertions run at the stated tolerances with fixed seeds, so the
whole module is deterministic.  Study-level criteria assert qualitative
patterns (orderings, trends, bounds) rather than exact figures, which
depend on the data and noise draws.
"""

import math
import time

import numpy as np
import scipy.stats

from conftest import opf_noise, random_feasible_program

from dpconic.conic import (ConeKind, ConeSpec, ConicProgram, Status, as_dense,
                           build_simple_lp, nonneg)
from dpconic.dp import (
    NoiseSpec,
    calibrate_gaussian,
    calibrate_laplace,
    estimate_sensitivity,
    sample_noise,
    sensitivity_sample_size,
)
from dpconic.ldr import (
    DecisionRule,
    IndividualChance,
    SelectQuery,
    VertexChance,
    WeightedSumQuery,
    privatize,
    release_rows,
)
from dpconic.risk import augment_with_cvar
from dpconic.solver import SolverSettings, kkt_report, solve
from dpconic.apps import ellipsoid as app_ellipsoid
from dpconic.apps import opf as app_opf
from dpconic.apps import regression as app_regression
from dpconic.apps import simple_lp as app_simple
from dpconic.apps import svm as app_svm
from dpconic.apps.metrics import evaluate_rule_metrics
from dpconic.experiments import ExperimentConfig, _input_rows


def report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def binom_se(p: float, n: int) -> float:
    return math.sqrt(p * (1.0 - p) / n)


def test_01_solver_correctness():
    rng = np.random.default_rng(20260809)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        prog = random_feasible_program(rng)
        sol = solve(prog, SolverSettings(tol=1e-8))
        ok = sol.status == Status.OPTIMAL
        resid = max(kkt_report(prog, sol).values())
        worst = max(worst, resid)
        if not ok or resid > 1e-6:
            report(1, False, f"instance failed: {sol.status}, residual {resid:.2e}")
    elapsed = time.monotonic() - t0
    lp = solve(build_simple_lp(1.0, 1.0, 2.0))
    ok = worst <= 1e-6 and elapsed < 60.0 and abs(lp.x[0] - 1.0) < 1e-7
    report(1, ok, f"1000 instances worst KKT {worst:.2e}, {elapsed:.1f}s, "
                  f"simple LP gap {abs(lp.x[0] - 1.0):.2e}")


def test_02_simple_lp_infeasibility_pattern():
    lp = app_simple.SimpleLpStudy()
    study = app_simple.experiment_study(ExperimentConfig(app="simple-lp", eta=0.05), lp)
    noise = calibrate_laplace(0.05, 1.0, k=1)
    n = 10**4

    def rate(rows, pv=None):
        return float(study.score(rows, pv)[1].mean())

    rate_out = rate(release_rows(study.nominal, noise, 11, n, stream=1))
    # input coincides with output here (x* = lower); separate draws anyway
    rate_in = rate(release_rows(study.nominal, noise, 12, n, stream=2))
    pv = app_simple.privatize_simple_lp(lp, noise, 0.05)
    rate_prog = rate(pv.releases(14, n, stream=3), pv)
    bound = 0.05 + 3 * binom_se(0.05, n)
    ok = (abs(rate_out - 0.5) <= 0.03 and abs(rate_in - 0.5) <= 0.03
          and rate_prog <= bound)
    report(2, ok, f"output {rate_out:.3f}, input {rate_in:.3f} (target 0.50+-0.03); "
                  f"program {rate_prog:.4f} <= {bound:.4f}")


def test_03_data_independence_across_datasets():
    base = app_opf.bundled_network("triangle3")
    rng = np.random.default_rng(5)
    nets = [base.with_demand(base.d + rng.uniform(-5, 5, size=3)) for _ in range(10)]
    seed = 97
    worst = 0.0
    for query_name in ("sum", "weighted", "identity"):
        increments = []
        for net in nets:
            sol = solve(app_opf.build_opf(net))
            assert sol.status == Status.OPTIMAL
            if query_name == "weighted":
                # the full pipeline: rule from the chance-constrained program
                pv = app_opf.privatize_opf(net, opf_noise(net, 1.0), 0.05)
                rule, query, noise = pv.rule, pv.query, pv.noise
            elif query_name == "sum":
                query = WeightedSumQuery(np.ones(3))
                noise = calibrate_laplace(10.0, 1.0, k=1)
                X = np.full((3, 1), 1.0 / 3.0)  # satisfies 1'X = 1
                rule = DecisionRule(sol.x, X)
            else:
                query = SelectQuery(range(3))
                noise = calibrate_laplace(10.0, 1.0, k=3)
                rule = DecisionRule(sol.x, np.eye(3))
            nominal = query.value(rule.xbar)
            inc = release_rows(nominal, noise, seed, 1)[0] - nominal
            increments.append(inc)
        spread = max(
            float(np.abs(a - b).max()) for a in increments for b in increments)
        worst = max(worst, spread)
    ok = worst <= 1e-9
    report(3, ok, f"max increment spread across datasets {worst:.2e} <= 1e-9")


def test_04_sample_size_formulas():
    # the sensitivity sample size, and the joint mass of the vertex method's
    # box under the noise law's own CDF: exactly 1 - eta
    s_sens = sensitivity_sample_size(0.1, 0.1)
    errors = []
    for family, k, eta, law in (("laplace", 1, 0.05, scipy.stats.laplace),
                                ("gaussian", 6, 0.1, scipy.stats.norm)):
        A = np.vstack([np.eye(k), -np.eye(k)])
        prog = ConicProgram(A, np.full(2 * k, 2.0), np.ones(k), ConeSpec([nonneg(2 * k)]))
        pp = privatize(prog, NoiseSpec(family, k, 0.3), SelectQuery(range(k)),
                       VertexChance(eta=eta))
        lo, hi = pp.box_vertices.min(axis=0), pp.box_vertices.max(axis=0)
        mass = np.prod(law.cdf(hi, scale=0.3) - law.cdf(lo, scale=0.3))
        errors.append(abs(mass - (1.0 - eta)))
    ok = s_sens == 99 and max(errors) <= 1e-12
    report(4, ok, f"sensitivity S = {s_sens} (99), box mass - (1 - eta) = "
                  f"{errors[0]:.1e} (laplace, k=1), {errors[1]:.1e} (gaussian, k=6)")


def test_05_equality_split_balance():
    net = app_opf.bundled_network("triangle3")
    pv = app_opf.privatize_opf(net, opf_noise(net, 3.0), 0.01)
    draws = sample_noise(pv.noise, 314, 10**4, stream=4)
    xs = pv.rule.evaluate_many(draws)
    worst = float(np.abs(xs.sum(axis=1) - net.d.sum()).max())
    ok = worst <= 1e-8
    report(5, ok, f"max balance residual over 1e4 draws {worst:.2e} <= 1e-8")


def test_06_quadratic_reduction_monte_carlo():
    from dpconic.ldr import reduce_quadratic_objective

    rng = np.random.default_rng(606)
    S = 10**6
    failures = 0
    worst_z = 0.0
    for _ in range(20):
        n, k = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        X = rng.normal(size=(n, k))
        F = rng.normal(size=(k, k))
        cov = F @ F.T
        xbar = rng.normal(size=n)
        closed = float(xbar @ xbar) + reduce_quadratic_objective(X, cov)
        zetas = rng.standard_normal((S, k)) @ F.T
        vals = ((xbar[None, :] + zetas @ X.T) ** 2).sum(axis=1)
        se = vals.std() / math.sqrt(S)
        zscore = abs(vals.mean() - closed) / se
        worst_z = max(worst_z, zscore)
        if zscore > 3.0:
            failures += 1
    ok = failures == 0
    report(6, ok, f"20 random (X, Sigma): worst |z| = {worst_z:.2f} <= 3")


def test_07_safety_factor_calibration():
    # one active chance row at the optimum: max x s.t. Pr[x + zeta <= 1] >= 1 - eta
    eta_bar = 0.05
    sigma = 0.3
    prog = ConicProgram(np.array([[1.0]]), np.array([1.0]), np.array([-1.0]),
                        ConeSpec([nonneg(1)]))
    results = {}
    for kind, family, scale in (("gaussian", "gaussian", sigma),
                                ("chebyshev", "laplace", sigma)):
        noise = NoiseSpec(family, 1, scale)
        pp = privatize(prog, noise, SelectQuery([0]),
                       IndividualChance(eta_bar=eta_bar))
        sol = solve(pp.program)
        assert sol.status == Status.OPTIMAL
        xbar = pp.extract_rule(sol).xbar[0]
        zeta = sample_noise(noise, 777, 10**5, stream=1).ravel()
        results[kind] = float(np.mean(xbar + zeta > 1.0))
    se = binom_se(eta_bar, 10**5)
    ok_gauss = abs(results["gaussian"] - eta_bar) <= 3 * se
    ok_cheb = results["chebyshev"] <= eta_bar
    report(7, ok_gauss and ok_cheb,
           f"gaussian violation {results['gaussian']:.4f} in {eta_bar}+-{3*se:.4f}; "
           f"chebyshev violation {results['chebyshev']:.4f} <= {eta_bar}")


def test_08_cvar_equivalence_and_sweep():
    # (a) frozen rule: the exact CVaR term equals a + kappa |g| under the
    # noise law, kappa = NoiseSpec.cvar(q)
    prog = build_simple_lp(1.0, 1.0, 2.0)
    noise = calibrate_laplace(0.05, 1.0, k=1)
    pp = privatize(prog, noise, WeightedSumQuery([1.0]), VertexChance(eta=0.05))
    rule0 = pp.extract_rule(solve(pp.program))
    aug, _ = augment_with_cvar(pp, 0.8, (1.0,))
    extra = np.zeros((2, aug.n))
    extra[0, pp.space.xbar_idx[0]] = 1.0
    extra[1, pp.space.X_idx[0, 0]] = 1.0
    frozen = ConicProgram(
        np.vstack([as_dense(aug.A), extra]),
        np.concatenate([aug.b, [rule0.xbar[0], rule0.X[0, 0]]]),
        aug.c,
        ConeSpec([(b.kind.value, b.dim) for b in aug.cones.blocks]
                 + [(ConeKind.ZERO.value, 2)]),
    )
    lp_val = solve(frozen, SolverSettings(tol=1e-11)).objective
    exact_val = rule0.xbar[0] + noise.cvar(0.8) * abs(rule0.X[0, 0])
    eq_gap = abs(lp_val - exact_val)

    # (b) q sweep on the 6-node study network, scored out of sample: risk
    # column nonincreasing, mean nondecreasing, and the two columns meet at
    # small tails
    from dpconic.experiments import cvar_q_sweep

    net = app_opf.load_network("cvar6")
    rows = cvar_q_sweep(net, subset=(0, 2, 4), alpha=25.0, epsilon=1.0,
                        q_grid=(0.99, 0.9, 0.7, 0.5, 0.3, 0.1, 0.01), seed=3)
    means = [r[1] for r in rows]
    cvars = [r[2] for r in rows]
    tol = 1e-3 * max(abs(v) for v in cvars)
    mono_mean = all(b >= a - tol for a, b in zip(means, means[1:]))
    mono_cvar = all(b <= a + tol for a, b in zip(cvars, cvars[1:]))
    meet = abs(means[-1] - cvars[-1]) <= 0.01 * max(1.0, abs(cvars[-1]))
    ok = eq_gap <= 1e-9 and mono_mean and mono_cvar and meet
    report(8, ok, f"frozen-rule gap {eq_gap:.2e} <= 1e-9; sweep mean up "
                  f"{mono_mean}, cvar down {mono_cvar}, meet {meet}")


def test_09_opf_desk_scale():
    n_draws = 1000
    bound = 0.01 + 3 * binom_se(0.01, n_draws)
    details = []
    ok = True
    for name in ("triangle3", "ring5"):
        net = app_opf.bundled_network(name)
        prog = app_opf.build_opf(net)
        base = solve(prog)
        lo, hi = app_opf.opf_cost_range(net)
        losses = []
        for alpha in (1.0, 3.0, 10.0):
            pv = app_opf.privatize_opf(net, opf_noise(net, alpha), 0.01)
            rule_losses, feasible = evaluate_rule_metrics(
                pv.rule, prog, base, sample_noise(pv.noise, 44, n_draws, stream=6))
            losses.append(float(rule_losses.mean()))
            infeasibility = float(1.0 - feasible.mean())
            if infeasibility > bound:
                ok = False
                details.append(f"{name} alpha={alpha}: prog infeas "
                               f"{infeasibility:.4f} > {bound:.4f}")
        if not (losses[0] <= losses[1] <= losses[2]):
            ok = False
            details.append(f"{name}: losses not monotone {losses}")
        # output and input strategies around 50% infeasibility
        d1 = app_opf.opf_sensitivity_bound(net.c, 3.0)
        out_draws = base.objective + sample_noise(
            calibrate_laplace(d1, 1.0, k=1), 55, n_draws, stream=7).ravel()
        rate_out = float(1.0 - app_opf.released_cost_feasible(out_draws, lo, hi).mean())
        costs = _input_rows(app_opf.demand_adjacency(net, 3.0),
                            calibrate_laplace(3.0, 1.0, k=net.n_nodes), 66, n_draws, 1)[:, 0]
        rate_in = float(1.0 - app_opf.released_cost_feasible(costs, lo, hi).mean())
        if not (0.40 <= rate_out <= 0.60 and 0.40 <= rate_in <= 0.60):
            ok = False
            details.append(f"{name}: out {rate_out:.3f} / in {rate_in:.3f} "
                           "outside [0.40, 0.60]")
        details.append(f"{name}: losses {np.round(losses, 1).tolist()}, "
                       f"out {rate_out:.2f}, in {rate_in:.2f}")
    report(9, ok, "; ".join(details))


def test_10_svm_study():
    t0 = time.monotonic()
    train, tx, ty = app_svm.synthetic_gaussian_classes(m=100, seed=7)
    w_det, b_det, _ = app_svm.solve_svm(train)
    acc_det = app_svm.accuracy(w_det, b_det, tx, ty)
    adj = app_svm.circle_law_adjacency(train)
    rep = estimate_sensitivity(adj, p=1, samples=99, gamma=0.1, beta=0.1, seed=3)
    noise = calibrate_laplace(rep.delta_p, 1.0, k=3)
    pv = app_svm.privatize_svm(train, noise, IndividualChance(eta_bar=0.05))
    acc_out, acc_prog = [], []
    for s in range(100):
        d = sample_noise(noise, 1000, 1, stream=s)[0]
        acc_out.append(app_svm.accuracy(w_det + d[:2], b_det + d[2], tx, ty))
        wr, br = pv.release(1000, stream=s)
        acc_prog.append(app_svm.accuracy(wr, br, tx, ty))
    mean_out, mean_prog = float(np.mean(acc_out)), float(np.mean(acc_prog))
    ratio = float(np.linalg.norm(pv.nominal[0]) / np.linalg.norm(w_det))
    elapsed = time.monotonic() - t0
    ok = (mean_prog >= mean_out + 0.20 and mean_prog >= acc_det - 0.05
          and ratio >= 10.0 and elapsed < 600.0)
    report(10, ok, f"program {mean_prog:.3f} vs output {mean_out:.3f} "
                   f"(margin {mean_prog - mean_out:.3f} >= 0.20), "
                   f"non-private {acc_det:.3f}, |w| ratio {ratio:.1f} >= 10, "
                   f"{elapsed:.0f}s < 600s")


def test_11_regression_study():
    model = app_regression.synthetic_cubic_data(n=100, seed=3)
    w_det, _ = app_regression.solve_regression(model)
    adj = app_regression.circle_law_adjacency(model)
    rep = estimate_sensitivity(adj, p=2, samples=199, gamma=0.5, beta=0.1, seed=8)
    noise = calibrate_gaussian(rep.delta_p, 1.0, 0.01, k=2)
    eta = 0.03
    pv = app_regression.privatize_regression(model, noise, eta=eta)
    n_draws = 500
    study = app_regression.experiment_study(
        ExperimentConfig(app="regression", delta=0.01, eta=eta), model)
    assert np.array_equal(study.nominal, w_det)

    def mean_score(seed):
        # (mean loss gap, violation rate) of the program's and the output's rows
        prog = study.score(pv.releases(seed, n_draws), pv)
        out = study.score(release_rows(w_det, noise, seed, n_draws), None)
        return [(float(loss.mean()), float(bad.mean())) for loss, bad in (prog, out)]

    (_, v_prog), (_, v_out) = mean_score(42)
    (l_prog, _), (l_out, _) = mean_score(43)
    bound = eta + 3 * binom_se(eta, n_draws)
    ok = v_prog <= bound and v_out > v_prog and l_prog >= l_out
    report(11, ok, f"program violation {v_prog:.4f} <= {bound:.4f}; "
                   f"output violation {v_out:.4f} strictly larger; "
                   f"loss gap program {l_prog:.0f} >= output {l_out:.0f}")


def test_12_ellipsoid_study():
    # deterministic: the unit square admits the unit disk, checked against an
    # axis-aligned grid-search oracle for the best determinant
    square = app_ellipsoid.unit_square()
    z, Y, t, _ = app_ellipsoid.solve_ellipsoid(square)
    geom_ok = (np.abs(z).max() < 1e-5 and np.abs(Y - np.eye(2)).max() < 1e-5
               and abs(t - 1.0) < 1e-5)
    span = np.linspace(-0.5, 0.5, 41)
    radii = np.linspace(0.1, 1.2, 45)
    zz1, zz2, rr1, rr2 = np.meshgrid(span, span, radii, radii, indexing="ij")
    feas = np.ones(zz1.shape, dtype=bool)
    for i in range(square.m):
        a, bb = square.a[i], square.b[i]
        norm = np.sqrt((rr1 * a[0]) ** 2 + (rr2 * a[1]) ** 2)
        feas &= norm <= bb - (a[0] * zz1 + a[1] * zz2) + 1e-12
    det_oracle = float(np.max(np.where(feas, rr1 * rr2, -np.inf)))
    oracle_ok = math.sqrt(det_oracle) <= t + 1e-2

    inst = app_ellipsoid.regular_polygon(5, radius=2.0)
    z_det, Y_det, _, _ = app_ellipsoid.solve_ellipsoid(inst)
    vol_det = app_ellipsoid.ellipsoid_volume(Y_det)
    adj = app_ellipsoid.b_range_adjacency(inst, 0.01)
    rep = estimate_sensitivity(adj, p=2, samples=99, gamma=0.1, beta=0.1, seed=12)
    noise = calibrate_gaussian(rep.delta_p, 1.0, 0.1, k=6)
    pv = app_ellipsoid.privatize_ellipsoid(inst, noise, eta=0.10, seed=42)
    n_draws = 500
    inside, vols = [], []
    for s in range(n_draws):
        zr, Yr = pv.release(777, stream=s)
        inside.append(app_ellipsoid.contains_ellipsoid(inst, zr, Yr))
        vols.append(app_ellipsoid.ellipsoid_volume(Yr))
    freq = float(np.mean(inside))
    mean_vol = float(np.mean(vols))
    bound = 0.90 - 3 * binom_se(0.10, n_draws)
    ok = geom_ok and oracle_ok and freq >= bound and mean_vol <= vol_det
    report(12, ok, f"unit disk ok {geom_ok} (oracle det {det_oracle:.3f}); "
                   f"containment {freq:.3f} >= {bound:.3f}; "
                   f"mean vol {mean_vol:.2f} <= {vol_det:.2f}")


def test_13_sensitivity_oracle():
    alpha = 0.5
    study = app_simple.SimpleLpStudy()
    adj = app_simple.lower_bound_adjacency(study, alpha=alpha)
    rep = estimate_sensitivity(adj, p=1, samples=10**4, gamma=0.01, beta=0.1,
                               seed=13)
    rel_err = abs(rep.delta_p - alpha) / alpha
    net = app_opf.bundled_network("triangle3")
    adj2 = app_opf.demand_adjacency(net, 2.0)
    rep2 = estimate_sensitivity(adj2, p=1, samples=200, gamma=0.1, beta=0.1,
                                seed=14)
    bound = app_opf.opf_sensitivity_bound(net.c, 2.0)
    ok = rel_err <= 0.02 and rep2.delta_p <= bound + 1e-9
    report(13, ok, f"simple LP estimate {rep.delta_p:.4f} within "
                   f"{100 * rel_err:.2f}% of alpha={alpha}; "
                   f"OPF estimate {rep2.delta_p:.2f} <= bound {bound:.1f}")
