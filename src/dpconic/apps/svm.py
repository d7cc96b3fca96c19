"""Soft-margin SVM and its privately released hyperplane.

The deterministic program is the hinge-loss QP in conic form (a rotated-SOC
epigraph for the margin norm, scaled by the regularizer).  The private
release is the identity query on (w, b): the rule pins their recourse to
the identity while the slack recourse Z stays a free decision, and each
margin/slack row is tightened row-by-row with the Chebyshev safety factor
(the noise is Laplace).  The epigraph variable t of |w|^2 stays outside the
rule; its block is kept at wbar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..conic import (ConicProgram, ConeSpec, nonneg, quadratic_epigraph, read_only_copy,
                     require_optimal)
from ..dp import AdjacencyModel, NoiseSpec
from ..ldr import IndividualChance, Privatization, SelectQuery, privatize
from ..solver import SolverSettings, solve
from .metrics import Study

# weakly regularized margin programs hit their accuracy floor around 1e-7
DEFAULT_SETTINGS = SolverSettings(tol=1e-7, max_iter=200)
# the privatized program leaves the slack recourse Z free, and no term of its
# objective fixes Z, so its center is fixed only to the solve's accuracy: on
# the study data, at 1e-7 the center moved 8.9e-5 across epigraph scales H
# 50 to 5e4, at 1e-8 at most 1e-6; either tol takes 14 iterations there
# (privatize seeds 1-12)
PRIVATIZED_SETTINGS = SolverSettings(tol=1e-8, max_iter=200)


@dataclass(frozen=True)
class LabeledPoints:
    features: np.ndarray  # (m, n)
    labels: np.ndarray    # (m,) in {-1, +1}
    regularizer: float

    def __post_init__(self):
        object.__setattr__(self, "features", read_only_copy(self.features, ndmin=2))
        object.__setattr__(self, "labels", read_only_copy(np.ravel(self.labels)))
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels disagree on m")
        if self.features.shape[0] < 2:
            raise ValueError("need at least two points")
        if not set(np.unique(self.labels)) <= {-1.0, 1.0}:
            raise ValueError("labels must be -1 or +1")
        if len(np.unique(self.labels)) < 2:
            raise ValueError("both classes must be present")

    @property
    def m(self) -> int:
        return self.features.shape[0]

    @property
    def n(self) -> int:
        return self.features.shape[1]


def synthetic_gaussian_classes(
    m: int = 100,
    seed: int = 0,
    center_pos=(1.0, 1.0),
    center_neg=(3.0, 3.0),
    variance: float = 0.5,
    regularizer: float = 1e-5,
    test_points: int = 1000,
):
    """Two isotropic Gaussian blobs in equal proportion, min-max normalized.

    Returns (train, test_features, test_labels); the test set is normalized
    with the training extremes.
    """
    rng = np.random.default_rng(seed)
    half = m // 2
    sd = math.sqrt(variance)
    xp = rng.normal(center_pos, sd, size=(half, 2))
    xn = rng.normal(center_neg, sd, size=(m - half, 2))
    X = np.vstack([xp, xn])
    y = np.concatenate([np.ones(half), -np.ones(m - half)])
    lo, hi = X.min(axis=0), X.max(axis=0)
    Xn = (X - lo) / (hi - lo)

    tp = test_points // 2
    tx = np.vstack([
        rng.normal(center_pos, sd, size=(tp, 2)),
        rng.normal(center_neg, sd, size=(test_points - tp, 2)),
    ])
    ty = np.concatenate([np.ones(tp), -np.ones(test_points - tp)])
    txn = (tx - lo) / (hi - lo)
    return LabeledPoints(Xn, y, regularizer), txn, ty


def build_svm(data: LabeledPoints) -> ConicProgram:
    """Conic form of min lambda |w|^2 + (1/m) 1'z s.t. hinge rows.

    Variables (w, b, z, t): the released (w, b) first, as release_query
    selects them, and t, the epigraph variable of |w|^2, last, as
    privatize_svm's epigraph column.  |w|^2 <= 2 H t via a rotated-SOC block
    (t, H, w) with t weighted 2 H lambda, margin and slack rows in NonNeg
    blocks.
    """
    m, n = data.m, data.n
    nv = n + 1 + m + 1
    w_i, b_i, z_i, t_i = np.arange(n), n, np.arange(n + 1, n + 1 + m), nv - 1
    # H = 1/sqrt(lambda): the point (w, b, z) = (0, 0, 1) costs 1, so
    # lambda |w*|^2 <= 1 and t* = |w*|^2 / (2H) <= H/2.  Measured working
    # range: the base SVM converged for every H >= 5 and the privatized SVM
    # for every H from 50 to 5e4; the study's lambda = 1e-5 gives H = 316.
    # The constant 1/2 left t near 1e6 against it, and the privatized solve
    # lost its accuracy.
    H = 1.0 / math.sqrt(data.regularizer)

    rows = [quadratic_epigraph(nv, t_i, w_i, -np.eye(n), np.zeros(n), H)]
    # margin rows: y_i (w'x_i - b) - 1 + z_i >= 0
    Am = np.zeros((m, nv)); bm = -np.ones(m)
    for i in range(m):
        Am[i, w_i] = -data.labels[i] * data.features[i]
        Am[i, b_i] = data.labels[i]
        Am[i, z_i[i]] = -1.0
    rows.append((Am, bm, nonneg(m)))
    # slack rows: z >= 0
    Az = np.zeros((m, nv)); Az[np.arange(m), z_i] = -1.0
    rows.append((Az, np.zeros(m), nonneg(m)))

    A_all = np.vstack([r[0] for r in rows])
    b_all = np.concatenate([r[1] for r in rows])
    cones = ConeSpec([r[2] for r in rows])
    c = np.zeros(nv)
    c[t_i] = 2.0 * H * data.regularizer
    c[z_i] = 1.0 / m
    names = tuple(f"w[{j}]" for j in range(n)) + ("b",) + tuple(
        f"z[{i}]" for i in range(m)) + ("t",)
    return ConicProgram(A_all, b_all, c, cones, variable_names=names)


def release_query(data: LabeledPoints) -> SelectQuery:
    """The released (w, b): the first n + 1 columns of build_svm."""
    return SelectQuery(range(data.n + 1))


def _hyperplane(v: np.ndarray):
    """(w, b) of a released vector."""
    return v[:-1], float(v[-1])


def solve_svm(data: LabeledPoints):
    """Returns (w, b, solution) of the deterministic SVM; raises unless the
    solve is Optimal."""
    sol = require_optimal(solve(build_svm(data), DEFAULT_SETTINGS), "SVM solve")
    return (*_hyperplane(release_query(data).value(sol.x)), sol)


def classify(w: np.ndarray, b: float, x: np.ndarray) -> np.ndarray:
    """sign(w'x - b) with the tie sent to +1."""
    vals = np.atleast_2d(x) @ np.asarray(w, dtype=float) - b
    return np.where(vals >= 0.0, 1.0, -1.0)


def accuracy(w, b, X, y) -> float:
    return float(np.mean(classify(w, b, X) == np.asarray(y, dtype=float)))


def circle_law_adjacency(data: LabeledPoints, radius: float = 0.05) -> AdjacencyModel:
    """Whole-dataset universe: every point jitters inside a circle of the
    given radius (r sin t, r cos t with r ~ U(0, radius)); any two such
    datasets are adjacent (alpha = inf).  It reads release_query, the
    (w, b) of the optimum.
    """

    def jitter(rng):
        r = rng.uniform(0.0, radius, size=data.m)
        t = rng.uniform(0.0, 2.0 * math.pi, size=data.m)
        shift = np.column_stack([r * np.sin(t), r * np.cos(t)])
        return LabeledPoints(data.features + shift, data.labels, data.regularizer)

    query = release_query(data)

    def read(ds, sol):
        return query.value(require_optimal(sol, "SVM solve").x)

    return AdjacencyModel(sample_pair=lambda rng: (jitter(rng), jitter(rng)),
                          program=build_svm, read=read, alpha=math.inf,
                          settings=DEFAULT_SETTINGS)


def privatize_svm(
    data: LabeledPoints,
    noise: NoiseSpec,
    chance,
    seed: int = 0,
) -> Privatization:
    """Chance-constrained SVM rule with the identity query on (w, b).

    The recourse of (w, b) is pinned to the identity; the slack recourse Z
    is free.  The expected objective reduces to
    lambda(|wbar|^2 + n Var[zeta_1]) + (1/m) 1'zbar, and the solve leaves
    the constant out.  `chance` is an IndividualChance (per-point rows,
    the default study setting) or a VertexChance.  The release is (w, b).
    `seed` is read by nothing, since the rule program draws nothing; it is
    accepted because the benchmark's privatize-large workload still passes it.
    """
    pp = privatize(build_svm(data), noise, release_query(data), chance, epigraph_vars=1)
    return pp.solve(PRIVATIZED_SETTINGS, "privatized SVM", unpack=_hyperplane)


def experiment_study(cfg, data) -> Study:
    """The experiment study of (train, test x, test y) (cfg: eta): a
    released (w, b) scores its test-accuracy drop, and is violated when the
    hinge slack z of its center (the rule's, or x*'s) no longer covers some
    margin row."""
    train, tx, ty = data
    w, b, det_sol = solve_svm(train)
    acc0 = accuracy(w, b, tx, ty)
    slack = np.s_[train.n + 1 : train.n + 1 + train.m]   # z, in x* and in xbar
    chance = IndividualChance(eta_bar=cfg.eta)

    def score(rows, pv):
        z = (det_sol.x if pv is None else pv.rule.xbar)[slack]
        drops = np.array([acc0 - accuracy(r[:-1], r[-1], tx, ty) for r in rows])
        margins = train.labels * (rows[:, :-1] @ train.features.T - rows[:, -1:])
        return drops, (margins - 1 + z < -1e-9).any(axis=1)

    return Study(
        nominal=release_query(train).value(det_sol.x),
        privatize=lambda noise, seed: privatize_svm(train, noise, chance),
        score=score)
