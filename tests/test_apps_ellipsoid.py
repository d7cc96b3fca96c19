import math

import numpy as np
import pytest

from dpconic import dp
from dpconic.conic import ConeKind, ConeSpec, ConicProgram, Status
from dpconic.dp import calibrate_gaussian, estimate_sensitivity
from dpconic.apps import ellipsoid
from dpconic.apps.ellipsoid import (
    DEFAULT_SETTINGS,
    EllipsoidInstance,
    b_range_adjacency,
    build_ellipsoid,
    check_bounded,
    contains_ellipsoid,
    ellipsoid_volume,
    privatize_ellipsoid,
    regular_polygon,
    rule_vector,
    solve_ellipsoid,
    unit_square,
    unpack_rule_vector,
)


def axis_aligned_grid_oracle(inst, grid=60):
    """Best axis-aligned ellipse (z, diag(r1, r2)) inside the polytope.

    Scores the whole (zx, zy, r1, r2) grid at once with the support-function
    rule of contains_ellipsoid (tol 1e-12); ties go to the first grid point.
    """
    span = np.linspace(-1.5, 1.5, grid)
    radii = np.linspace(0.05, 2.0, grid)
    zx, zy, r1, r2 = np.meshgrid(span, span, radii, radii, indexing="ij",
                                 sparse=True)
    inside = np.ones((grid,) * 4, dtype=bool)
    for (a1, a2), bi in zip(inst.a, inst.b):
        support = np.sqrt((r1 * a1) ** 2 + (r2 * a2) ** 2)
        inside &= support <= bi - (a1 * zx + a2 * zy) + 1e-12
    if not inside.any():
        return (None, -np.inf)
    det = np.where(inside, r1 * r2, -np.inf)
    i, j, p, q = np.unravel_index(np.argmax(det), det.shape)
    return ((np.array([span[i], span[j]]), np.diag([radii[p], radii[q]])),
            float(det[i, j, p, q]))


class TestDeterministic:
    def test_unit_square_gives_unit_disk(self):
        z, Y, t, sol = solve_ellipsoid(unit_square())
        assert sol.status == Status.OPTIMAL
        assert np.abs(z).max() < 1e-5
        assert np.abs(Y - np.eye(2)).max() < 1e-5
        assert abs(t - 1.0) < 1e-5
        # grid-search oracle agrees on the attainable determinant
        (_, det_oracle) = axis_aligned_grid_oracle(unit_square(), grid=40)
        assert math.sqrt(max(det_oracle, 0.0)) <= t + 1e-2

    def test_scaling_homogeneity(self):
        sq2 = unit_square().with_b(2.0 * np.ones(4))
        _, _, t, _ = solve_ellipsoid(sq2)
        assert abs(t - 2.0) < 1e-5

    def test_slab_rejected_unbounded(self):
        slab = EllipsoidInstance([[1.0, 0.0], [-1.0, 0.0]], [1.0, 1.0])
        with pytest.raises(ValueError):
            build_ellipsoid(slab)

    def test_det_hypograph_boundary(self):
        # at optimum t^2 = det Y for the symmetric solution
        z, Y, t, _ = solve_ellipsoid(regular_polygon(5, radius=2.0))
        assert abs(t * t - np.linalg.det(Y)) < 1e-6

    def test_support_function_containment(self):
        inst = unit_square()
        assert contains_ellipsoid(inst, np.zeros(2), 0.99 * np.eye(2))
        assert not contains_ellipsoid(inst, np.zeros(2), 1.01 * np.eye(2))
        # asymmetric Y uses |Y' a|, not |Y a|
        Y = np.array([[0.5, 0.9], [0.0, 0.5]])
        ok_support = all(
            np.linalg.norm(Y.T @ inst.a[i]) <= inst.b[i] + 1e-12
            for i in range(inst.m))
        assert contains_ellipsoid(inst, np.zeros(2), Y) == ok_support


class TestRuleVector:
    def test_pack_unpack_round_trip(self):
        z = np.array([0.3, -0.8])
        Y = np.array([[1.0, 0.2], [0.1, 2.0]])
        z2, Y2 = unpack_rule_vector(rule_vector(z, Y))
        assert np.array_equal(z, z2) and np.array_equal(Y, Y2)


@pytest.fixture(scope="module")
def ell_setup():
    inst = regular_polygon(5, radius=2.0)
    noise = calibrate_gaussian(0.05, 1.0, 0.1, k=6)
    pv = privatize_ellipsoid(inst, noise, eta=0.10, seed=8)
    return inst, noise, pv


class TestPrivatized:

    def test_solves(self, ell_setup):
        _, _, pv = ell_setup
        assert pv.solution.status == Status.OPTIMAL

    def test_nominal_shrinks(self, ell_setup):
        inst, _, pv = ell_setup
        _, Y_det, _, _ = solve_ellipsoid(inst)
        assert ellipsoid_volume(pv.nominal[1]) < ellipsoid_volume(Y_det)

    def test_containment_frequency(self, ell_setup):
        inst, noise, pv = ell_setup
        inside = []
        for s in range(300):
            zr, Yr = pv.release(99, stream=s)
            inside.append(contains_ellipsoid(inst, zr, Yr))
        freq = np.mean(inside)
        assert freq >= 0.9 - 3 * math.sqrt(0.1 * 0.9 / 300)

    def test_zero_noise_recovers_deterministic(self):
        inst = regular_polygon(4, radius=1.5)
        from dpconic.dp import NoiseSpec

        noise = NoiseSpec("gaussian", 6, 1e-9)
        pv = privatize_ellipsoid(inst, noise, eta=0.10, seed=1)
        z_det, Y_det, _, _ = solve_ellipsoid(inst)
        z, Y = pv.nominal
        assert np.abs(z - z_det).max() < 1e-3
        assert np.abs((Y + Y.T) / 2 - Y_det).max() < 1e-3

    def test_noise_dim_checked(self):
        with pytest.raises(ValueError):
            privatize_ellipsoid(unit_square(), calibrate_gaussian(0.1, 1.0, 0.1, k=2),
                                eta=0.1)


class TestAdjacency:
    def test_b_range(self):
        inst = regular_polygon(5, radius=2.0)
        adj = b_range_adjacency(inst, 0.025)
        rng = np.random.default_rng(2)
        d1, d2 = adj.sample_pair(rng)
        for d in (d1, d2):
            assert np.all(np.abs(d.b / inst.b - 1.0) <= 0.025 + 1e-12)


def four_lp_check_bounded(inst):
    """The LP test check_bounded replaced: min and max of each coordinate."""
    for j in range(2):
        for sign in (1.0, -1.0):
            c = np.zeros(2)
            c[j] = sign
            prog = ConicProgram(inst.a, inst.b, c,
                                ConeSpec([(ConeKind.NONNEG.value, inst.m)]))
            sol = ellipsoid.solve(prog, DEFAULT_SETTINGS)
            if sol.status == Status.DUAL_INFEASIBLE:
                raise ValueError("polyhedron is unbounded")
            if sol.status == Status.PRIMAL_INFEASIBLE:
                raise ValueError("polyhedron is empty")


def _verdict(check, inst):
    try:
        check(inst)
    except ValueError as exc:
        return str(exc)
    return "ok"


def _random_polygon(rng):
    m = int(rng.integers(3, 9))
    ang = rng.uniform(-math.pi, math.pi, m)
    a = np.column_stack([np.cos(ang), np.sin(ang)]) * rng.uniform(0.2, 3.0, m)[:, None]
    b = rng.uniform(0.1, 2.0, m)
    if rng.random() < 0.5:
        neg = rng.random(m) < 0.4
        b[neg] = -rng.uniform(0.05, 1.5, neg.sum())
    return EllipsoidInstance(a, b)


SQUARE_A = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]


class TestCheckBounded:
    def test_agrees_with_four_lp_check(self):
        rng = np.random.default_rng(20261018)
        seen = set()
        for _ in range(200):
            inst = _random_polygon(rng)
            verdict = _verdict(check_bounded, inst)
            assert verdict == _verdict(four_lp_check_bounded, inst), (inst.a, inst.b)
            seen.add((verdict, bool(np.any(inst.b < 0))))
        # every verdict occurs, and the nonnegative-b and the solved paths both run
        assert {v for v, _ in seen} == {"ok", "polyhedron is unbounded",
                                        "polyhedron is empty"}
        assert ("ok", True) in seen and ("ok", False) in seen

    @pytest.mark.parametrize("a,b,verdict", [
        # the slab's two normals leave two gaps of exactly pi
        ([[1.0, 0.0], [-1.0, 0.0]], [1.0, 1.0], "polyhedron is unbounded"),
        ([[0.6, 0.8]], [1.0], "polyhedron is unbounded"),
        ([[1.0, 0.0], [0.0, 1.0]], [1.0, 2.0], "polyhedron is unbounded"),
        # the ray {(t, 0) : t >= 0}, no interior
        ([[0.0, 1.0], [0.0, -1.0], [-1.0, 0.0]], [0.0, 0.0, 0.0],
         "polyhedron is unbounded"),
        (SQUARE_A + [[0.0, 0.0]], [1.0] * 4 + [-1.0], "polyhedron is empty"),
        (SQUARE_A + [[0.0, 0.0]], [1.0] * 4 + [0.0], "ok"),
        # x <= 1 and x >= 2
        (SQUARE_A, [1.0, -2.0, 1.0, 1.0], "polyhedron is empty"),
        # the square moved off the origin: nonempty with some b_i < 0
        (SQUARE_A, [3.0, -1.0, 1.0, 1.0], "ok"),
        ([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [0.0, 0.0, 1.0], "ok"),
    ], ids=["slab", "half-plane", "wedge", "ray", "zero-row-negative-b",
            "zero-row-zero-b", "empty-square", "shifted-square", "triangle"])
    def test_explicit_cases(self, a, b, verdict):
        inst = EllipsoidInstance(a, b)
        assert _verdict(check_bounded, inst) == verdict
        assert _verdict(four_lp_check_bounded, inst) == verdict

    @pytest.mark.parametrize("sides", [3, 4, 5, 8])
    @pytest.mark.parametrize("rotation", [0.0, 0.3, math.pi / 7, 2.0, -3.1])
    def test_regular_polygons_bounded(self, sides, rotation):
        check_bounded(regular_polygon(sides, 2.0, rotation))

    @pytest.mark.parametrize("rotation", [0.0, 0.3, 2.0])
    def test_two_gon_is_a_slab(self, rotation):
        with pytest.raises(ValueError, match="unbounded"):
            check_bounded(regular_polygon(2, 1.0, rotation))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            check_bounded(EllipsoidInstance(SQUARE_A, [1.0, np.nan, 1.0, 1.0]))


class TestSolveCount:
    @pytest.fixture
    def calls(self, monkeypatch):
        """One entry per program solved by the ellipsoid module's solve or by
        estimate_sensitivity's batched solve."""
        calls = []

        def counting(program, settings=None):
            calls.append(program.n)
            return real(program, settings)

        def counting_batch(programs, settings=None):
            calls.extend(program.n for program in programs)
            return real_batch(programs, settings)
        real, real_batch = ellipsoid.solve, dp.solve_batch
        monkeypatch.setattr(ellipsoid, "solve", counting)
        monkeypatch.setattr(dp, "solve_batch", counting_batch)
        return calls

    def test_solve_ellipsoid_solves_once(self, calls):
        solve_ellipsoid(regular_polygon(5, 2.0))
        assert len(calls) == 1

    def test_sensitivity_solves_two_per_pair(self, calls):
        adj = b_range_adjacency(regular_polygon(5, 2.0), 0.025)
        rep = estimate_sensitivity(adj, p=2, samples=19, gamma=0.2, beta=0.3, seed=4)
        assert rep.failures == () and len(calls) == 2 * 19
