"""Chance-constrained linear-decision-rule transformation of conic programs.

The randomized counterpart of min c'x s.t. b - Ax in K restricts the
solution to the rule x = xbar + X zeta, where zeta is the privacy noise.
`privatize` builds the tractable deterministic program over (xbar, free
entries of X), and it is the one place where chance rows are built: the
OPF, SVM, regression, ellipsoid and simple-LP studies all go through it.

  * equality (Zero-cone) rows split into the two exact systems
    b_E - A_E xbar = 0 and A_E X = 0;
  * inequality/cone rows either replicated on the 2^k vertices of the
    centred noise box that holds mass 1 - eta under the noise law (vertex
    method) or rewritten row-by-row as second-order-cone constraints with a
    safety factor (individual method);
  * the query's constraint on X: a selection xbar[rows] pins X[rows] = I, a
    weighted sum w'xbar adds w'X = 1; either makes the release's random part
    the raw draw, data-independent, so the release never reads X;
  * epigraph variables of the expected objective (the last columns of the
    input program) stay outside the rule; the blocks that touch them are
    kept at xbar or averaged over the caller's noise points.

`privatize` draws nothing: its program is a function of the noise law, and
randomness enters only when a query is released.  Each of these rows, and
the CVaR rows of `risk.augment_with_cvar`, is the affine map
b - A(xbar + X zeta) at some noise point: the vertex copies at the box
vertices, the objective copies at the given points, the safety-factor rows
from its value at zeta = 0 and its zeta coefficients.  One array expansion,
`RuleSpace.expand`, builds them all.

`PrivatizedProgram.solve` returns a `Privatization`, the record every study
releases through: its `releases` are the nominal query plus raw noise draws,
and its `release` is the first of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import scipy.sparse as sp
from scipy.special import ndtri

from .conic import ConeKind, ConeSpec, ConicProgram, Solution, require_optimal
from .dp import NoiseSpec, sample_noise
from .solver import SolverSettings, solve

# Most rows the vertex method may plan: 2^k copies of every chance-block row.
# A plan of 8192 rows has a KKT matrix of order at least 8192, whose
# solver.stack_bytes is at least 512 MB.  The solver factors it by SuperLU
# only when K is sparse enough; otherwise it falls back to a dense getrf of
# at least that order, each iteration.  A dense LU of order 1511 takes 80 ms
# on a 2-core Xeon with OpenBLAS; order 8192 is 160 times the flops, about
# 11 s per LU there, so a solve of 50-150 iterations would take 10-30 minutes.
_MAX_VERTEX_ROWS = 8192


class ConflictingConstraints(ValueError):
    """The equality recourse system contradicts the query constraint."""


# --- queries ------------------------------------------------------------------
#
# A query is a linear map of the rule's center: its release is value(xbar)
# plus one raw noise draw, and never reads X.  recourse(n) is the constraint
# on X that makes this exact, the query's value at X zeta being zeta: the
# (mask, values) of the entries of X it pins, then the rows E vec(X) = r it
# adds (vec row-major).


@dataclass(frozen=True)
class SelectQuery:
    """Release xbar[rows]; pins X[rows] = I_k (k = len(rows)), the other
    rows of X stay free."""

    rows: tuple[int, ...]

    def __init__(self, rows):
        rows = tuple(int(i) for i in rows)
        if not rows or len(set(rows)) != len(rows):
            raise ValueError("a selection needs distinct rows")
        object.__setattr__(self, "rows", rows)

    @property
    def k(self) -> int:
        return len(self.rows)

    def value(self, xbar: np.ndarray) -> np.ndarray:
        return xbar[list(self.rows)]

    def recourse(self, n: int):
        rows, k = list(self.rows), self.k
        if max(rows) >= n or min(rows) < 0:
            raise ValueError(f"selected rows {self.rows} outside a rule of {n} rows")
        mask, values = np.zeros((n, k), dtype=bool), np.zeros((n, k))
        mask[rows] = True
        values[rows, np.arange(k)] = 1.0
        return mask, values, np.zeros((0, n * k)), np.zeros(0)


@dataclass(frozen=True)
class WeightedSumQuery:
    """Release w'xbar; adds the equality w'X = 1 (k = 1)."""

    weights: tuple[float, ...]
    k = 1

    def __init__(self, weights):
        object.__setattr__(self, "weights", tuple(float(w) for w in np.ravel(weights)))

    def value(self, xbar: np.ndarray) -> np.ndarray:
        return np.array([float(np.asarray(self.weights) @ xbar)])

    def recourse(self, n: int):
        if len(self.weights) != n:
            raise ValueError(f"{len(self.weights)} weights for a rule of {n} rows")
        return (np.zeros((n, 1), dtype=bool), np.zeros((n, 1)),
                np.array([self.weights]), np.ones(1))


Query = SelectQuery | WeightedSumQuery


# --- decision rule ------------------------------------------------------------


@dataclass(frozen=True)
class DecisionRule:
    """The randomized map x(zeta) = xbar + X zeta."""

    xbar: np.ndarray
    X: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "xbar", np.asarray(self.xbar, dtype=float).ravel())
        object.__setattr__(self, "X", np.atleast_2d(np.asarray(self.X, dtype=float)))
        if self.X.shape[0] != self.xbar.shape[0]:
            raise ValueError("X row count must match xbar length")

    @property
    def k(self) -> int:
        return self.X.shape[1]

    def evaluate(self, zeta: np.ndarray) -> np.ndarray:
        return self.xbar + self.X @ np.asarray(zeta, dtype=float).ravel()

    def evaluate_many(self, zetas: np.ndarray) -> np.ndarray:
        return self.xbar[None, :] + np.asarray(zetas, dtype=float) @ self.X.T


def release_rows(center: np.ndarray, noise: NoiseSpec, seed: int, count: int,
                 stream: int = 0) -> np.ndarray:
    """(count, k) released rows: the query value ``center`` plus ``count``
    raw draws of one stream.  Row 0 is the count-1 draw's, for both noise
    families, so one release and a Monte Carlo batch share their first row."""
    return center + sample_noise(noise, seed, count, stream)


# --- chance specifications ----------------------------------------------------


@dataclass(frozen=True)
class VertexChance:
    """Joint guarantee via the 2^k vertices of the box [-t, t]^k whose
    coordinates each hold mass (1 - eta)^(1/k) of the noise law, so the box
    holds exactly 1 - eta.  Chance rows are affine in zeta: a rule feasible
    at the vertices is feasible on the box and violates with prob <= eta."""

    eta: float

    def __post_init__(self):
        if not 0 < self.eta < 1:
            raise ValueError("eta must be in (0, 1)")


@dataclass(frozen=True)
class IndividualChance:
    """Per-row guarantees via safety-factor tightening (linear rows only).

    Every chance row gets the tolerance eta_bar, or, when eta_bar is None,
    a joint eta split uniformly over the chance rows so 1'eta_bar <= eta.
    The safety factor follows the noise: the exact quantile for Gaussian
    noise, the distribution-free Chebyshev (Cantelli) factor for Laplace.
    """

    eta_bar: float | None = None
    eta: float | None = None

    def __post_init__(self):
        if self.eta_bar is None and self.eta is None:
            raise ValueError("need eta_bar or a joint eta to split")

    def row_levels(self, m_rows: int) -> np.ndarray:
        if self.eta_bar is None:
            # max() keeps a program without chance rows at an empty split
            levels = np.full(m_rows, self.eta / max(m_rows, 1))
        else:
            levels = np.full(m_rows, float(self.eta_bar))
        if np.any(levels <= 0) or np.any(levels > 0.5):
            raise ValueError("per-row tolerances must lie in (0, 0.5]")
        return levels


ChanceSpec = VertexChance | IndividualChance


def hyperrectangle_vertices(lo, hi) -> np.ndarray:
    """2^k vertices of the box [lo, hi], lo and hi k-vectors.

    Vertex order is a binary counter with coordinate 0 as the most
    significant bit (all-lo first, all-hi last).
    """
    lo, hi = np.atleast_1d(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    k = lo.size
    if k > 20:
        raise ValueError(
            f"k={k} implies {2**k} vertices; use the individual chance-row method"
        )
    bits = (np.arange(2**k)[:, None] >> np.arange(k - 1, -1, -1)) & 1
    return np.where(bits == 1, hi, lo)


def safety_factor(eta_bar: float, kind: str) -> float:
    """Row-tightening multiplier: distribution-free Chebyshev or exact Gaussian."""
    if not 0 < eta_bar <= 0.5:
        raise ValueError("eta_bar must be in (0, 0.5]")
    if kind == "chebyshev":
        return math.sqrt((1.0 - eta_bar) / eta_bar)
    if kind == "gaussian":
        return float(ndtri(1.0 - eta_bar))
    raise ValueError("kind must be 'chebyshev' or 'gaussian'")


def reduce_quadratic_objective(X: np.ndarray, cov: np.ndarray) -> float:
    """Constant part Tr[X cov X'] of E|xbar + X zeta|^2 = |xbar|^2 + Tr[X cov X']."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    return float(np.trace(X @ cov @ X.T))


# --- the rule's columns and the one expansion --------------------------------


class RuleSpace:
    """Columns of the rule x = xbar + X zeta in the transformed program.

    xbar comes first, then the free entries of X in row-major order; pinned
    entries of X are constants.  `expand` is the one place where a row
    a'x is turned into rows over these columns.
    """

    def __init__(self, n: int, k: int, pin_mask: np.ndarray, pin_values: np.ndarray):
        self.n, self.k = n, k
        self.pin_values = np.where(pin_mask, pin_values, 0.0)
        self.free = np.nonzero(~pin_mask)
        self.xbar_idx = np.arange(n)
        self.X_idx = np.full((n, k), -1)
        self.X_idx[self.free] = n + np.arange(self.free[0].size)
        self.ncols = n + self.free[0].size
        self.names = [f"xbar[{i}]" for i in range(n)] + [
            f"X[{i}][{j}]" for i, j in zip(*self.free)]

    def expand(self, A: np.ndarray, b: np.ndarray, points: np.ndarray):
        """Slack rows b - A (xbar + X zeta) of the block (A, b) at each noise point.

        points is (P, k).  Returns (G, h) with h - G v equal to those slacks
        over the rule columns v: P * m rows, grouped by point.  The pinned
        part of a'X goes into h one noise coordinate at a time.
        """
        A = np.asarray(A, dtype=float)
        points = np.asarray(points, dtype=float)
        rows, cols = self.free
        G = np.empty((points.shape[0], A.shape[0], self.ncols))
        G[:, :, : self.n] = A
        G[:, :, self.n:] = A[:, rows] * points[:, None, cols]
        pinned = np.zeros((A.shape[0], self.k))  # a'X over the pinned entries
        for i in np.flatnonzero(self.pin_values.any(axis=1)):
            pinned += A[:, i, None] * self.pin_values[i]
        h = np.broadcast_to(np.asarray(b, dtype=float), G.shape[:2])
        for j in range(self.k):
            h = h - pinned[:, j] * points[:, j, None]
        return G.reshape(-1, self.ncols), h.ravel()

    def extract(self, v: np.ndarray) -> DecisionRule:
        X = self.pin_values.copy()
        X[self.free] = v[self.X_idx[self.free]]
        return DecisionRule(v[self.xbar_idx], X)


def chance_row_blocks(space: RuleSpace, A: np.ndarray, b: np.ndarray,
                      noise: NoiseSpec, levels: np.ndarray):
    """Per-row safety-factor reformulation of the linear chance rows b - A x >= 0.

    Returns (G, h, blocks) over the rule columns.  A row whose zeta part has
    no free entry of X tightens its constant (one NonNeg row); otherwise
    it becomes two NonNeg rows when k = 1 and an SOC block when k > 1.
    """
    m, k = A.shape[0], space.k
    f = math.sqrt(noise.coordinate_variance)  # F = f I
    kind = "gaussian" if noise.family == "gaussian" else "chebyshev"
    z = np.array([safety_factor(float(lvl), kind) for lvl in levels])
    zf = z * f
    G0, h0 = space.expand(A, b, np.zeros((1, k)))
    # slack coefficient of zeta_j: the rows at the unit point e_j with b = 0,
    # less their xbar part
    Gz, hz = space.expand(A, np.zeros(m), np.eye(k))
    Gz, hz = Gz.reshape(k, m, space.ncols), hz.reshape(k, m)
    Gz[:, :, : space.n] = 0.0
    const = ~(A[:, space.free[0]] != 0.0).any(axis=1)  # no free entry in a'X
    dims = np.where(const, 1, 2 if k == 1 else k + 1)
    first = np.cumsum(dims) - dims
    G, h = np.empty((dims.sum(), space.ncols)), np.empty(dims.sum())
    norms = f * np.array([np.linalg.norm(c) for c in hz.T[const]])
    G[first[const]] = G0[const]
    h[first[const]] = h0[const] - z[const] * norms
    rows, r = ~const, first[~const]
    if k == 1:
        G[r] = G0[rows] + zf[rows, None] * Gz[0, rows]
        G[r + 1] = G0[rows] - zf[rows, None] * Gz[0, rows]
        h[r] = h0[rows] + zf[rows] * hz[0, rows]
        h[r + 1] = h0[rows] - zf[rows] * hz[0, rows]
    else:
        G[r], h[r] = G0[rows], h0[rows]
        for j in range(k):
            G[r + 1 + j] = -zf[rows, None] * Gz[j, rows]
            h[r + 1 + j] = -zf[rows] * hz[j, rows]
    blocks = [(ConeKind.SOC if d > 2 else ConeKind.NONNEG, int(d)) for d in dims]
    return G, h, blocks


# --- the transformer ----------------------------------------------------------


@dataclass
class PrivatizedProgram:
    """Transformed program plus the map back to the decision rule."""

    program: ConicProgram
    space: RuleSpace
    noise: NoiseSpec
    query: Query
    box_vertices: np.ndarray | None
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray

    def extract_rule(self, solution: Solution | np.ndarray) -> DecisionRule:
        v = solution.x if isinstance(solution, Solution) else np.asarray(solution)
        v = np.array(v, dtype=float).ravel()
        if self.eq_matrix.shape[0]:
            # exact projection onto the equality subspace (min-norm correction)
            resid = self.eq_matrix @ v - self.eq_rhs
            corr = np.linalg.lstsq(self.eq_matrix, resid, rcond=None)[0]
            v = v - corr
        return self.space.extract(v)

    def solve(self, settings: SolverSettings | None, what: str,
              unpack: Callable[[np.ndarray], Any] = np.asarray) -> "Privatization":
        """The Privatization of the transformed program's optimum, whose
        release maps the query vector through ``unpack``; raises NotOptimal
        ("<what> returned <status>") unless the solve is Optimal."""
        sol = require_optimal(solve(self.program, settings), what)
        return Privatization(self, self.extract_rule(sol), sol, unpack)


@dataclass(frozen=True)
class Privatization:
    """A solved privatized program and the one release path of every study.

    ``releases(seed, count, stream)`` are the nominal query plus ``count``
    raw ``sample_noise`` draws, so released minus nominal is
    data-independent; ``release(seed, stream)`` is its first row mapped
    through ``unpack`` to the app's value (the svm's (w, b), the
    ellipsoid's (z, Y), the opf's scalar cost).  The solve's objective
    leaves out the constant the noise adds to the expected objective.
    """

    privatized: PrivatizedProgram
    rule: DecisionRule
    solution: Solution
    unpack: Callable[[np.ndarray], Any]

    @property
    def program(self) -> ConicProgram:
        return self.privatized.program

    @property
    def noise(self) -> NoiseSpec:
        return self.privatized.noise

    @property
    def query(self) -> Query:
        return self.privatized.query

    @property
    def nominal(self):
        return self.unpack(self.query.value(self.rule.xbar))

    def releases(self, seed: int, count: int, stream: int = 0) -> np.ndarray:
        return release_rows(self.query.value(self.rule.xbar), self.noise, seed, count,
                            stream)

    def release(self, seed: int, stream: int = 0):
        return self.unpack(self.releases(seed, 1, stream)[0])


def privatize(
    program: ConicProgram,
    noise: NoiseSpec,
    query: Query,
    chance: ChanceSpec,
    *,
    epigraph_vars: int = 0,
    objective_points: np.ndarray | None = None,
) -> PrivatizedProgram:
    """Build the chance-constrained rule counterpart of a linear-objective program.

    Zero-cone rows are split exactly; all other rows are chance-constrained
    by the chosen method.  The expected linear objective reduces to c'xbar.

    The last `epigraph_vars` columns of the program are epigraph variables
    of the expected objective (such as t >= |w|^2); they are not part of
    the rule.  A block that touches one of them is an objective block, not
    a chance block.  By default an objective block is kept at xbar.  Given
    objective_points, an (S, k) array of noise points, it is built at each
    point instead, each with its own copy of the epigraph variables t[e][s]
    weighted c/S: a sample average of an expected objective with no closed
    conic form, at points the caller draws.  Nothing here is random: the
    vertex box comes from the noise law, so equal inputs give equal programs.

    The columns of the result are the rule's (RuleSpace), then the epigraph
    copies.  Its A is CSR.

    Raises ConflictingConstraints when the equality recourse system A_E X = 0
    cannot hold together with the query constraint.
    """
    if not isinstance(chance, (VertexChance, IndividualChance)):
        raise TypeError("chance must be VertexChance or IndividualChance")
    n = program.n - epigraph_vars
    k = query.k
    if noise.k != k:
        raise ValueError(f"noise dim {noise.k} inconsistent with query (k={k})")

    # sort rows into equality (Zero), chance and objective blocks
    eq_rows, chance_rows, obj_rows, chance_cones, obj_cones = [], [], [], [], []
    for blk, start in program.cones.offsets():
        rows = list(range(start, start + blk.dim))
        if program.A[rows, n:].any():
            obj_rows += rows
            obj_cones.append((blk.kind, blk.dim))
        elif blk.kind == ConeKind.ZERO:
            eq_rows += rows
        else:
            chance_rows += rows
            chance_cones.append((blk.kind, blk.dim))
    if isinstance(chance, VertexChance) and 2**k * len(chance_rows) > _MAX_VERTEX_ROWS:
        raise ValueError(
            f"vertex method: k={k} gives 2^k={2**k} copies of {len(chance_rows)} "
            f"chance rows, {2**k * len(chance_rows)} planned rows, above the "
            f"{_MAX_VERTEX_ROWS}-row cap (a KKT matrix of at least 512 MB); "
            "use IndividualChance"
        )

    pin_mask, pin_values, E_query, r_query = query.recourse(n)
    space = RuleSpace(n, k, pin_mask, pin_values)
    obj_points = (np.zeros((1, k)) if objective_points is None
                  else np.asarray(objective_points, dtype=float))
    if obj_points.ndim != 2 or obj_points.shape[1] != k or not len(obj_points):
        raise ValueError(f"objective_points must be (S >= 1, {k}), not {obj_points.shape}")
    S = len(obj_points)
    n_epi = S * epigraph_vars
    free = space.ncols - n
    N = space.ncols + n_epi
    names = space.names + [
        f"t[{e}]" + ("" if objective_points is None else f"[{s}]")
        for s in range(S) for e in range(epigraph_vars)]
    c = np.zeros(N)
    c[:n] = program.c[:n]
    c[space.ncols:] = np.tile(program.c[n:] / S, S)

    # the equality rows split exactly: b_E - A_E xbar = 0 over xbar, and the
    # X-equality system over vec(X) (row-major): the recourse A_E X = 0, then
    # the query's rows; the pinned entries of X move to the right-hand side
    A_E, b_E = program.A[eq_rows, :n], program.b[eq_rows]
    X_eq = np.vstack([np.kron(A_E, np.eye(k)), E_query])
    X_rhs = np.concatenate([np.zeros(len(eq_rows) * k), r_query])
    rhs_eff = X_rhs - X_eq @ space.pin_values.ravel()
    E_free = X_eq[:, space.free[0] * k + space.free[1]]
    if X_eq.shape[0]:
        if free:
            sol_ls, *_ = np.linalg.lstsq(E_free, rhs_eff, rcond=None)
            resid = float(np.linalg.norm(E_free @ sol_ls - rhs_eff))
        else:
            resid = float(np.linalg.norm(rhs_eff))
        if resid > 1e-8 * (1.0 + float(np.linalg.norm(X_rhs))):
            raise ConflictingConstraints(
                "equality recourse system A_E X = 0 is inconsistent with the "
                f"query constraint (residual {resid:.3e})"
            )

    # pieces (G, h, cone blocks) in row order; G spans the first G.shape[1] columns
    pieces = []
    # Zero block: nominal equalities, then the nonzero X equalities
    G_eq, h_eq = space.expand(A_E, b_E, np.zeros((1, k)))
    keep = E_free.any(axis=1) | (rhs_eff != 0.0)
    G_x = np.zeros((int(keep.sum()), space.ncols))
    G_x[:, n:] = E_free[keep]
    G_zero = np.vstack([G_eq, G_x])
    m_eq = len(G_zero)
    if m_eq:
        pieces.append((G_zero, np.concatenate([h_eq, rhs_eff[keep]]),
                       [(ConeKind.ZERO, m_eq)]))

    A_ch, b_ch = program.A[chance_rows, :n], program.b[chance_rows]
    box = None
    if isinstance(chance, VertexChance):
        t = noise.half_width((1.0 - chance.eta) ** (1.0 / k))
        box = hyperrectangle_vertices(np.full(k, -t), np.full(k, t))
        pieces.append((*space.expand(A_ch, b_ch, box), chance_cones * len(box)))
    else:
        for kind, _ in chance_cones:
            if kind != ConeKind.NONNEG:
                raise ValueError(
                    "individual chance rows require linear (NonNeg) blocks; "
                    f"found {kind.value}; use the vertex method"
                )
        levels = chance.row_levels(len(chance_rows))
        pieces.append(chance_row_blocks(space, A_ch, b_ch, noise, levels))

    # objective blocks, one copy per point, each with its own epigraph columns
    G_rule, h_obj = space.expand(program.A[obj_rows, :n], program.b[obj_rows], obj_points)
    G_obj = np.zeros((len(h_obj), N))
    G_obj[:, : space.ncols] = G_rule
    epi = G_obj[:, space.ncols:].reshape(S, len(obj_rows), S, epigraph_vars)
    epi[np.arange(S), :, np.arange(S), :] = program.A[obj_rows, n:]
    pieces.append((G_obj, h_obj, obj_cones * S))

    parts, b, blocks = [], [], []
    while pieces:  # each piece is freed once stored as CSR
        G, h, cones = pieces.pop(0)
        parts.append(sp.csr_array(G, shape=(len(h), N)))
        b.append(h)
        blocks += [(kind.value, dim) for kind, dim in cones]
    A = sp.vstack(parts, format="csr")
    transformed = ConicProgram(A, np.concatenate(b), c, ConeSpec(blocks),
                               variable_names=tuple(names))
    return PrivatizedProgram(
        program=transformed, space=space, noise=noise, query=query, box_vertices=box,
        eq_matrix=transformed.A[:m_eq].toarray(), eq_rhs=transformed.b[:m_eq],
    )
