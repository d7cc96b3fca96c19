"""Maximum-volume inscribed ellipsoid of a planar polytope, privately.

One program serves the study: build_ellipsoid, over the rule coordinates
(z1, z2, Y11, Y21, Y12, Y22) of a general 2x2 Y, then t.  The ellipse
{Y u + z : |u| <= 1} sits inside {x : a_i'x <= b_i} iff
|Y'a_i| <= b_i - a_i'z per row, for any Y.  The PSD row and the det
hypograph t^2 <= det(Ys) act on the symmetric part Ys.  Since
det(Ys) <= |det Y| for 2x2 Y, and the symmetric factor P of Y = PU
passes the same containment rows, the optimum is symmetric: the base solve
is the maximum-volume ellipse.  The private release perturbs the six rule
coordinates with a fixed identity recourse (the same program under
privatize), so released Y may be asymmetric: containment is always checked
with the exact support-function test and definiteness on the symmetric
part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..conic import (ConicProgram, ConeSpec, Status, nonneg, read_only_copy,
                     require_optimal, rsoc, soc)
from ..dp import AdjacencyModel, NoiseSpec, sample_noise
from ..ldr import Privatization, SelectQuery, VertexChance, privatize
from ..solver import SolverSettings, solve
from .metrics import Study

DEFAULT_SETTINGS = SolverSettings(tol=1e-7, max_iter=150)

_SQRT2 = math.sqrt(2.0)

# rule coordinate order: (z1, z2, Y11, Y21, Y12, Y22), the first columns of
# build_ellipsoid; the fixed recourse is the identity on these six
# coordinates, i.e. z += zeta[0:2], Y's first column += zeta[2:4] and second
# column += zeta[4:6].
RULE_DIM = 6

# an angular gap this close to pi counts as pi (see check_bounded)
_GAP_TOL = 1e-12

OBJ_STREAM = 0x0B5E  # the stream of privatize_ellipsoid's objective points
OBJ_SAMPLES = 32     # how many objective points it draws


@dataclass(frozen=True)
class EllipsoidInstance:
    a: np.ndarray  # (m, 2) row normals
    b: np.ndarray  # (m,)

    def __post_init__(self):
        object.__setattr__(self, "a", read_only_copy(self.a, ndmin=2))
        object.__setattr__(self, "b", read_only_copy(np.ravel(self.b)))
        if self.a.shape[1] != 2:
            raise ValueError("only planar (n=2) instances are supported")
        if self.a.shape[0] != self.b.shape[0]:
            raise ValueError("a and b row counts differ")

    @property
    def m(self) -> int:
        return self.a.shape[0]

    def with_b(self, b) -> "EllipsoidInstance":
        return EllipsoidInstance(self.a, b)


def unit_square() -> EllipsoidInstance:
    a = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    return EllipsoidInstance(a, np.ones(4))


def regular_polygon(sides: int = 5, radius: float = 2.0,
                    rotation: float = 0.3) -> EllipsoidInstance:
    ang = rotation + 2.0 * math.pi * np.arange(sides) / sides
    a = np.column_stack([np.cos(ang), np.sin(ang)])
    return EllipsoidInstance(a, radius * np.ones(sides))


def check_bounded(inst: EllipsoidInstance) -> None:
    """Reject an unbounded or empty polyhedron {x : a_i'x <= b_i}.

    Boundedness is read off the normals, with no solve.  A nonempty
    polyhedron is bounded iff its recession cone {d : A d <= 0} is {0}
    (Rockafellar, Convex Analysis, Thm 8.4).  A direction d != 0 with
    a_i'd <= 0 for every row exists iff all nonzero normals lie in one
    closed half-plane, i.e. iff the sorted angles atan2(a_i2, a_i1) of the
    nonzero rows leave a cyclic gap of at least pi between neighbours.  Zero
    rows bound no direction and are left out.  A gap within 1e-12 rad of
    pi counts as pi: atan2 is exact to about one ulp (4e-16 at pi), and a
    polygon whose gap falls short of pi by delta reaches out to about
    |b|/delta.  Since only the normals decide it, a set that is empty and
    has a nonzero recession direction reads as unbounded.

    Nonemptiness: b >= 0 puts x = 0 in the set, so the study instances
    (positive b, scaled by factors in (0, 2)) need no solve.  A zero row
    with b_i < 0 is empty outright.  Otherwise one phase-one LP decides:
    min t s.t. a_i'x - t <= b_i over the rows scaled to |a_i| = 1, which is
    bounded below because the normals leave no gap of pi.  Its optimum t*
    is the least uniform relaxation that makes the set nonempty (minus the
    radius of the largest inscribed disk when that is positive), and the
    set reads as empty when t* > 10 tol (1 + max_i |b_i|/|a_i|).  A solve
    that ends without Optimal decides nothing and the set is accepted.
    """
    a, b = inst.a, inst.b
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("polyhedron data must be finite")
    rows = np.any(a != 0.0, axis=1)
    angles = np.sort(np.arctan2(a[rows, 1], a[rows, 0]))
    gaps = np.diff(angles, append=angles[:1] + 2.0 * math.pi)
    if gaps.size == 0 or gaps.max() >= math.pi - _GAP_TOL:
        raise ValueError("polyhedron is unbounded")
    if np.all(b >= 0.0):
        return
    if np.any(b[~rows] < 0.0):
        raise ValueError("polyhedron is empty")
    norms = np.linalg.norm(a[rows], axis=1)
    a_unit, b_unit = a[rows] / norms[:, None], b[rows] / norms
    phase_one = ConicProgram(np.column_stack([a_unit, -np.ones(norms.size)]),
                             b_unit, np.array([0.0, 0.0, 1.0]),
                             ConeSpec([nonneg(norms.size)]))
    sol = solve(phase_one, DEFAULT_SETTINGS)
    margin = 10.0 * DEFAULT_SETTINGS.tol * (1.0 + np.abs(b_unit).max())
    if sol.status == Status.OPTIMAL and sol.x[2] > margin:
        raise ValueError("polyhedron is empty")


def build_ellipsoid(inst: EllipsoidInstance) -> ConicProgram:
    """max t over the rule coordinates (z1, z2, Y11, Y21, Y12, Y22), then t;
    raises ValueError unless the polyhedron is bounded and nonempty
    (check_bounded).

    Y may be asymmetric: containment is the exact |Y'a_i| <= b_i - a_i'z,
    while the PSD row (Ys11, Ys22, sqrt2 Ys12) and the det hypograph
    (Ys11, Ys22, sqrt2 t, sqrt2 Ys12) act on its symmetric part Ys.  t, the
    last column, is privatize_ellipsoid's epigraph column.
    """
    check_bounded(inst)
    m = inst.m
    A = np.zeros((3 * m + 7, RULE_DIM + 1))
    b = np.zeros(3 * m + 7)
    # containment SOC rows: (b_i - a'z, Y'a)
    A[0 : 3 * m : 3, 0:2] = inst.a
    b[0 : 3 * m : 3] = inst.b
    A[1 : 3 * m : 3, 2:4] = -inst.a
    A[2 : 3 * m : 3, 4:6] = -inst.a
    psd, det = 3 * m, 3 * m + 3
    for r in (psd, det):
        A[r, 2] = -1.0
        A[r + 1, 5] = -1.0
    A[psd + 2, 3:5] = -0.5 * _SQRT2
    A[det + 2, 6] = -_SQRT2
    A[det + 3, 3:5] = -0.5 * _SQRT2
    c = np.zeros(RULE_DIM + 1)
    c[-1] = -1.0
    names = ("z[0]", "z[1]", "Y[0][0]", "Y[1][0]", "Y[0][1]", "Y[1][1]", "t")
    return ConicProgram(A, b, c, ConeSpec([soc(3)] * m + [rsoc(3), rsoc(4)]),
                        variable_names=names)


def release_query(inst: EllipsoidInstance) -> SelectQuery:
    """The released (z, Y): the RULE_DIM rule coordinates, the first columns
    of build_ellipsoid."""
    return SelectQuery(range(RULE_DIM))


def solve_ellipsoid(inst: EllipsoidInstance):
    """Returns (z, Y, t, solution) for the deterministic instance; raises
    unless the solve is Optimal."""
    sol = require_optimal(solve(build_ellipsoid(inst), DEFAULT_SETTINGS), "ellipsoid solve")
    return (*unpack_rule_vector(release_query(inst).value(sol.x)), float(sol.x[RULE_DIM]), sol)


def rule_vector(z: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """(z1, z2, Y11, Y21, Y12, Y22): the rule coordinate order."""
    return np.array([z[0], z[1], Y[0, 0], Y[1, 0], Y[0, 1], Y[1, 1]])

def unpack_rule_vector(v: np.ndarray):
    z = np.array([v[0], v[1]])
    Y = np.array([[v[2], v[4]], [v[3], v[5]]])
    return z, Y


def contains_ellipsoid(inst: EllipsoidInstance, z: np.ndarray, Y: np.ndarray,
                       tol: float = 1e-9) -> bool:
    """Exact support-function containment |Y'a_i| <= b_i - a_i'z, any Y."""
    for i in range(inst.m):
        ai = inst.a[i]
        if np.linalg.norm(Y.T @ ai) > inst.b[i] - ai @ z + tol:
            return False
    return True


def ellipsoid_volume(Y: np.ndarray) -> float:
    return math.pi * abs(float(np.linalg.det(Y)))


def b_range_adjacency(inst: EllipsoidInstance, gamma_frac: float) -> AdjacencyModel:
    """Universe where each b_i ranges over [b_i(1-gamma), b_i(1+gamma)];
    all such instances are adjacent, and the model's alpha is gamma_frac.
    It reads release_query, the (z, Y) rule vector of the deterministic
    optimum.  gamma_frac must lie in (0, 1)."""
    if not 0 < gamma_frac < 1:
        raise ValueError(f"b-range fraction must lie in (0, 1), got {gamma_frac}")

    def jitter(rng):
        f = rng.uniform(-gamma_frac, gamma_frac, size=inst.m)
        return inst.with_b(inst.b * (1.0 + f))

    query = release_query(inst)

    def read(ins, sol):
        return query.value(require_optimal(sol, "ellipsoid solve").x)

    return AdjacencyModel(sample_pair=lambda rng: (jitter(rng), jitter(rng)),
                          program=build_ellipsoid, read=read, alpha=gamma_frac,
                          settings=DEFAULT_SETTINGS)


def privatize_ellipsoid(
    inst: EllipsoidInstance,
    noise: NoiseSpec,
    eta: float,
    seed: int = 0,
) -> Privatization:
    """Chance-constrained ellipse rule with the fixed identity recourse.

    Containment rows and the PSD row of the symmetric part are enforced on
    all 2^6 vertices of the noise box of mass 1 - eta; the objective
    maximizes a sample average of per-draw det hypograph variables (the
    expectation of det^(1/2) has no closed conic form) over OBJ_SAMPLES
    draws from OBJ_STREAM at seed, the one draw of any privatization.
    Releases (z, Y).
    """
    pp = privatize(build_ellipsoid(inst), noise, release_query(inst),
                   VertexChance(eta), epigraph_vars=1,
                   objective_points=sample_noise(noise, seed, OBJ_SAMPLES, OBJ_STREAM))
    return pp.solve(DEFAULT_SETTINGS, "privatized ellipsoid", unpack=unpack_rule_vector)


def experiment_study(cfg, inst: EllipsoidInstance) -> Study:
    """The experiment study (cfg: eta): a released (z, Y) scores its volume
    deficit against the non-private ellipse, and is violated when its
    ellipse leaves the polygon."""
    _, Y_det, _, det_sol = solve_ellipsoid(inst)
    vol_det = ellipsoid_volume(Y_det)

    def score(rows, pv):
        zY = [unpack_rule_vector(r) for r in rows]
        deficits = [vol_det - ellipsoid_volume(Y) for _, Y in zY]
        outside = [not contains_ellipsoid(inst, z, Y) for z, Y in zY]
        return np.array(deficits), np.array(outside)

    return Study(
        nominal=release_query(inst).value(det_sol.x),
        privatize=lambda noise, seed: privatize_ellipsoid(
            inst, noise, eta=cfg.eta, seed=seed),
        score=score)
