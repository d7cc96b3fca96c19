"""Chance-constrained linear-decision-rule transformation of conic programs.

The randomized counterpart of min c'x s.t. b - Ax in K restricts the
solution to the rule x = xbar + X zeta, where zeta is the privacy noise.
`privatize` builds the tractable deterministic program over (xbar, free
entries of X), and it is the one place where chance rows are built: the
OPF, SVM, regression, ellipsoid and simple-LP studies all go through it.

  * equality (Zero-cone) rows split into the two exact systems
    b_E - A_E xbar = 0 and A_E X = 0;
  * inequality/cone rows either replicated on the 2^k vertices of the
    empirical noise box (vertex method) or rewritten row-by-row as
    second-order-cone constraints with a safety factor (individual method);
  * the query structure on X (identity, sum, weighted sum, fixed recourse)
    pinned or appended as equalities, which is what makes the released
    query's random part data-independent;
  * epigraph variables of the expected objective (the last columns of the
    input program) stay outside the rule; the blocks that touch them are
    kept at xbar or averaged over sampled noise points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.special import ndtri

from .conic import ConeKind, ConeSpec, ConicProgram, Solution
from .dp import NoiseSpec, sample_noise

# stream ids reserved for the draws of privatize(seed): the vertex box and
# the sample-average objective
BOX_STREAM = 0xB0C5
OBJ_STREAM = 0x0B5E

# Most rows the vertex method may plan: 2^k copies of every chance-block row.
# The solver factors a dense KKT matrix of at least that order each
# iteration.  The largest program in the corpus, the privatized SVM, has KKT
# order 1511: 18 MB, and 80 ms per LU on a 2-core Xeon with OpenBLAS.  Order
# 8192 is 5.4 times that: a 512 MB matrix and 160 times the flops, about 11 s
# per LU there, so a solve of 50-150 iterations would take 10-30 minutes.
_MAX_VERTEX_ROWS = 8192


class ConflictingConstraints(ValueError):
    """The equality recourse system contradicts the query constraint."""


# --- query constraints --------------------------------------------------------


@dataclass(frozen=True)
class IdentityQuery:
    """Release the whole solution vector; forces X = I (k = n)."""

    def noise_dim(self, n: int) -> int:
        return n

    def pins(self, n: int, k: int):
        return np.ones((n, k), dtype=bool), np.eye(n, k)

    def extra_equalities(self, n: int, k: int):
        return np.zeros((0, n * k)), np.zeros(0)

    def release_value(self, xbar, X, draw):
        return xbar + draw

    def nominal_value(self, xbar):
        return np.array(xbar, copy=True)


@dataclass(frozen=True)
class SumQuery:
    """Release 1'x; the single column of X must sum to one (k = 1)."""

    def noise_dim(self, n: int) -> int:
        return 1

    def pins(self, n: int, k: int):
        return np.zeros((n, k), dtype=bool), np.zeros((n, k))

    def extra_equalities(self, n: int, k: int):
        E = np.zeros((k, n * k))
        for j in range(k):
            E[j, j::k] = 1.0
        return E, np.ones(k)

    def release_value(self, xbar, X, draw):
        return np.array([float(np.sum(xbar)) + draw[0]])

    def nominal_value(self, xbar):
        return np.array([float(np.sum(xbar))])


@dataclass(frozen=True)
class WeightedSumQuery:
    """Release w'x; requires w'X = 1 (k = 1)."""

    weights: tuple[float, ...]

    def __init__(self, weights):
        object.__setattr__(self, "weights", tuple(float(w) for w in np.ravel(weights)))

    def noise_dim(self, n: int) -> int:
        return 1

    def pins(self, n: int, k: int):
        return np.zeros((n, k), dtype=bool), np.zeros((n, k))

    def extra_equalities(self, n: int, k: int):
        w = np.asarray(self.weights)
        E = np.zeros((k, n * k))
        for j in range(k):
            E[j, j::k] = w
        return E, np.ones(k)

    def release_value(self, xbar, X, draw):
        return np.array([float(np.asarray(self.weights) @ xbar) + draw[0]])

    def nominal_value(self, xbar):
        return np.array([float(np.asarray(self.weights) @ xbar)])


@dataclass(frozen=True)
class FixedRecourseQuery:
    """Pin listed entries of X to constants; unmasked entries stay free.

    With a full mask the rule's random part is the constant map X zeta,
    which is data-independent by construction.
    """

    values: tuple
    mask: tuple

    def __init__(self, values, mask=None):
        values = np.atleast_2d(np.asarray(values, dtype=float))
        if mask is None:
            mask = np.ones(values.shape, dtype=bool)
        mask = np.atleast_2d(np.asarray(mask, dtype=bool))
        if mask.shape != values.shape:
            raise ValueError("mask and values shapes differ")
        object.__setattr__(self, "values", tuple(map(tuple, values)))
        object.__setattr__(self, "mask", tuple(map(tuple, mask)))

    def _arrays(self):
        return np.array(self.mask, dtype=bool), np.array(self.values, dtype=float)

    def noise_dim(self, n: int) -> int:
        return len(self.values[0])

    def pins(self, n: int, k: int):
        mask, values = self._arrays()
        if mask.shape != (n, k):
            raise ValueError(f"recourse structure is {mask.shape}, expected {(n, k)}")
        return mask, np.where(mask, values, 0.0)

    def extra_equalities(self, n: int, k: int):
        return np.zeros((0, n * k)), np.zeros(0)

    def release_value(self, xbar, X, draw):
        return xbar + X @ draw

    def nominal_value(self, xbar):
        return np.array(xbar, copy=True)


QueryConstraint = IdentityQuery | SumQuery | WeightedSumQuery | FixedRecourseQuery


def apply_query_constraint(query: QueryConstraint, n: int, k: int):
    """All linear equalities the query imposes on vec(X) (row-major).

    Pinned entries appear as single-coefficient rows; sum-type queries as
    one dense row per noise coordinate.
    """
    if query.noise_dim(n) != k:
        raise ValueError(f"query implies k={query.noise_dim(n)}, got {k}")
    mask, values = query.pins(n, k)
    rows, rhs = [], []
    for i in range(n):
        for j in range(k):
            if mask[i, j]:
                e = np.zeros(n * k)
                e[i * k + j] = 1.0
                rows.append(e)
                rhs.append(values[i, j])
    E_extra, r_extra = query.extra_equalities(n, k)
    E = np.vstack([np.array(rows).reshape(-1, n * k), E_extra])
    return E, np.concatenate([np.array(rhs), r_extra])


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


def release_query(rule: DecisionRule, query: QueryConstraint, noise: NoiseSpec,
                  seed: int, stream: int = 0) -> np.ndarray:
    """Perturbed query answer; released minus nominal equals the raw draw."""
    draw = sample_noise(noise, seed, 1, stream)[0]
    return query.release_value(rule.xbar, rule.X, draw)


def nominal_query(rule: DecisionRule, query: QueryConstraint) -> np.ndarray:
    return query.nominal_value(rule.xbar)


# --- chance specifications ----------------------------------------------------


@dataclass(frozen=True)
class VertexChance:
    """Joint guarantee via the 2^k vertices of the empirical noise box."""

    eta: float
    beta: float = 0.01
    samples: int | None = None  # override of the sample-size rule

    def __post_init__(self):
        if not 0 < self.eta < 1:
            raise ValueError("eta must be in (0, 1)")
        if not 0 < self.beta < 1:
            raise ValueError("beta must be in (0, 1)")


@dataclass(frozen=True)
class IndividualChance:
    """Per-row guarantees via safety-factor tightening (linear rows only).

    eta_bar may be a scalar, a per-row vector, or None, in which case a
    joint eta is split uniformly over the chance rows so 1'eta_bar <= eta.
    """

    eta_bar: float | tuple[float, ...] | None = None
    eta: float | None = None
    safety: str = "chebyshev"  # "chebyshev" | "gaussian"

    def __post_init__(self):
        if self.safety not in ("chebyshev", "gaussian"):
            raise ValueError("safety must be 'chebyshev' or 'gaussian'")
        if self.eta_bar is None and self.eta is None:
            raise ValueError("need eta_bar or a joint eta to split")
        if isinstance(self.eta_bar, (tuple, list, np.ndarray)):
            object.__setattr__(self, "eta_bar", tuple(float(v) for v in self.eta_bar))

    def row_levels(self, m_rows: int) -> np.ndarray:
        if self.eta_bar is None:
            levels = np.full(m_rows, self.eta / m_rows)
        elif isinstance(self.eta_bar, tuple):
            levels = np.asarray(self.eta_bar, dtype=float)
            if levels.shape[0] != m_rows:
                raise ValueError(f"eta_bar has {levels.shape[0]} entries for {m_rows} rows")
        else:
            levels = np.full(m_rows, float(self.eta_bar))
        if np.any(levels <= 0) or np.any(levels > 0.5):
            raise ValueError("per-row tolerances must lie in (0, 0.5]")
        return levels


ChanceSpec = VertexChance | IndividualChance


def vertex_sample_size(eta: float, k: int, beta: float) -> int:
    """ceil((1/eta) e/(e-1) (2k - 1 + ln(1/beta)))."""
    if not (0 < eta < 1 and 0 < beta < 1):
        raise ValueError("eta and beta must be in (0, 1)")
    if k < 1:
        raise ValueError("k must be >= 1")
    e = math.e
    return int(math.ceil((1.0 / eta) * (e / (e - 1.0)) * (2 * k - 1 + math.log(1.0 / beta))))


def hyperrectangle_vertices(samples: np.ndarray) -> np.ndarray:
    """2^k vertices of the per-coordinate min/max box of the samples.

    Vertex order is a binary counter with coordinate 0 as the most
    significant bit (all-min first, all-max last).
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    k = samples.shape[1]
    if k > 20:
        raise ValueError(
            f"k={k} implies {2**k} vertices; use the individual chance-row method"
        )
    lo, hi = samples.min(axis=0), samples.max(axis=0)
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


@dataclass(frozen=True)
class EqualitySplit:
    """Case-4 split of equality rows under the rule.

    nominal: b_E - A_E xbar = 0 (matrix, rhs over xbar)
    recourse: A_E X = 0, expressed over vec(X) row-major (matrix, zero rhs)
    """

    nominal_matrix: np.ndarray
    nominal_rhs: np.ndarray
    recourse_matrix: np.ndarray
    recourse_rhs: np.ndarray


def split_equalities(A_E: np.ndarray, b_E: np.ndarray, k: int) -> EqualitySplit:
    A_E = np.atleast_2d(np.asarray(A_E, dtype=float))
    b_E = np.asarray(b_E, dtype=float).ravel()
    m_e, n = A_E.shape
    R = np.zeros((m_e * k, n * k))
    for r in range(m_e):
        for j in range(k):
            R[r * k + j, j::k] = A_E[r]
    return EqualitySplit(A_E.copy(), b_E.copy(), R, np.zeros(m_e * k))


# --- assembly helpers ---------------------------------------------------------


class ProgramBuilder:
    """Accumulates variables and cone blocks, then emits a ConicProgram.

    Rows are given as slack expressions: slack = const + sum coef_i * v_i,
    so the emitted standard form has b = const and A = -coefs.
    """

    def __init__(self):
        self.names: list[str] = []
        self.obj: list[float] = []
        self._blocks: list[tuple[ConeKind, list[tuple[dict, float]]]] = []
        self.offset = 0.0

    @property
    def nvars(self) -> int:
        return len(self.names)

    def add_var(self, name: str, obj: float = 0.0) -> int:
        self.names.append(name)
        self.obj.append(float(obj))
        return len(self.names) - 1

    def add_vars(self, names: Iterable[str], obj: float = 0.0) -> np.ndarray:
        return np.array([self.add_var(nm, obj) for nm in names], dtype=int)

    def add_objective(self, idx: int, coef: float):
        self.obj[idx] += float(coef)

    def add_block(self, kind: ConeKind, rows: Sequence[tuple[dict, float]]):
        if rows:
            self._blocks.append((kind, [(dict(r), float(c)) for r, c in rows]))

    def build(self) -> ConicProgram:
        n = self.nvars
        m = sum(len(rows) for _, rows in self._blocks)
        A = np.zeros((m, n))
        b = np.zeros(m)
        blocks = []
        r = 0
        for kind, rows in self._blocks:
            blocks.append((kind.value, len(rows)))
            for coefs, const in rows:
                b[r] = const
                for idx, coef in coefs.items():
                    A[r, idx] = -coef
                r += 1
        return ConicProgram(A, b, np.array(self.obj), ConeSpec(blocks),
                            variable_names=tuple(self.names))


class RuleSpace:
    """Index bookkeeping for (xbar, free entries of X) inside a builder."""

    def __init__(self, builder: ProgramBuilder, n: int, k: int,
                 pin_mask: np.ndarray, pin_values: np.ndarray):
        self.n, self.k = n, k
        self.pin_mask = pin_mask
        self.pin_values = pin_values
        self.xbar_idx = builder.add_vars(f"xbar[{i}]" for i in range(n))
        self.X_idx = -np.ones((n, k), dtype=int)
        for i in range(n):
            for j in range(k):
                if not pin_mask[i, j]:
                    self.X_idx[i, j] = builder.add_var(f"X[{i}][{j}]")

    @property
    def free_entries(self):
        return [(i, j) for i in range(self.n) for j in range(self.k)
                if not self.pin_mask[i, j]]

    def nominal_terms(self, a: np.ndarray) -> dict:
        """Coefficients of -a'xbar (the variable part of slack b0 - a'x)."""
        return {int(self.xbar_idx[i]): -float(a[i])
                for i in range(self.n) if a[i] != 0.0}

    def zeta_coef(self, a: np.ndarray):
        """Row vector a'X as k affine expressions: (terms_j, const_j)."""
        out = []
        for j in range(self.k):
            terms = {}
            const = 0.0
            for i in range(self.n):
                if a[i] == 0.0:
                    continue
                if self.pin_mask[i, j]:
                    const += float(a[i]) * float(self.pin_values[i, j])
                else:
                    terms[int(self.X_idx[i, j])] = float(a[i])
            out.append((terms, const))
        return out

    def extract(self, v: np.ndarray) -> DecisionRule:
        xbar = v[self.xbar_idx]
        X = np.array(self.pin_values, dtype=float)
        for i, j in self.free_entries:
            X[i, j] = v[self.X_idx[i, j]]
        return DecisionRule(xbar, X)


def chance_row_blocks(space: RuleSpace, rows, noise: NoiseSpec,
                      levels: np.ndarray, kind: str):
    """Per-row safety-factor reformulation of linear chance rows.

    rows: list of (a, b0) meaning Pr[b0 - a'(xbar + X zeta) >= 0] per row.
    Emits NonNeg rows when the zeta part is constant or scalar, SOC blocks
    otherwise; coefficients stay affine in (xbar, vec X).
    """
    f = math.sqrt(noise.coordinate_variance)  # F = f I
    blocks = []
    for (a, b0), lvl in zip(rows, levels):
        z = safety_factor(float(lvl), kind)
        nominal = (space.nominal_terms(a), float(b0))
        coefs = space.zeta_coef(a)
        has_free = any(t for t, _ in coefs)
        if not has_free:
            const = np.array([c for _, c in coefs])
            norm = f * float(np.linalg.norm(const))
            if norm == 0.0:
                blocks.append((ConeKind.NONNEG, [nominal]))
            else:
                terms, b0n = nominal
                blocks.append((ConeKind.NONNEG, [(terms, b0n - z * norm)]))
        elif space.k == 1:
            terms, c0 = coefs[0]
            lo = dict(nominal[0])
            hi = dict(nominal[0])
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


# --- the transformer ----------------------------------------------------------


@dataclass
class PrivatizedProgram:
    """Transformed program plus the map back to the decision rule."""

    program: ConicProgram
    space: RuleSpace
    noise: NoiseSpec
    query: QueryConstraint
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


def _block_rows(space: RuleSpace, A: np.ndarray, A_epi: np.ndarray, b: np.ndarray,
                epi_idx, point=None):
    """Slack rows b - A (xbar + X point) - A_epi t of one block.

    A holds the block's rule columns and A_epi its epigraph columns, whose
    variables t sit at builder indices epi_idx.  point=None keeps the block
    at xbar (zeta = 0).
    """
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


def privatize(
    program: ConicProgram,
    noise: NoiseSpec,
    query: QueryConstraint,
    chance: ChanceSpec,
    seed: int,
    recourse_ridge: float = 1e-8,
    epigraph_vars: int = 0,
    objective_samples: int = 0,
) -> PrivatizedProgram:
    """Build the chance-constrained rule counterpart of a linear-objective program.

    Zero-cone rows are split exactly; all other rows are chance-constrained
    by the chosen method.  The expected linear objective reduces to c'xbar.
    Ties in X (it never enters the expected objective) are broken toward
    minimal Frobenius norm through a small ridge epigraph, disabled by
    recourse_ridge=0.

    The last `epigraph_vars` columns of the program are epigraph variables
    of the expected objective (such as t >= |w|^2); they are not part of
    the rule.  A block that touches one of them is an objective block, not
    a chance block.  By default an objective block is kept at xbar.  With
    objective_samples=S > 0 it is built at S draws from OBJ_STREAM instead,
    each draw with its own copy of the epigraph variables weighted c/S: a
    sample average of an expected objective with no closed conic form.

    Raises ConflictingConstraints when the equality recourse system A_E X = 0
    cannot hold together with the query constraint.
    """
    if not isinstance(chance, (VertexChance, IndividualChance)):
        raise TypeError("chance must be VertexChance or IndividualChance")
    n = program.n - epigraph_vars
    k = query.noise_dim(n)
    if noise.k != k:
        raise ValueError(f"noise dim {noise.k} inconsistent with query (k={k})")

    # split rows into equality (Zero), chance and objective blocks
    eq_rows_A, eq_rows_b, chance_blocks, objective_blocks = [], [], [], []
    for blk, start in program.cones.offsets():
        rows = slice(start, start + blk.dim)
        A_rule, A_epi, b = program.A[rows, :n], program.A[rows, n:], program.b[rows]
        if A_epi.any():
            objective_blocks.append((blk.kind, A_rule, A_epi, b))
        elif blk.kind == ConeKind.ZERO:
            eq_rows_A.append(A_rule)
            eq_rows_b.append(b)
        else:
            chance_blocks.append((blk.kind, A_rule, A_epi, b))
    if isinstance(chance, VertexChance):
        chance_rows = sum(Ablk.shape[0] for _, Ablk, _, _ in chance_blocks)
        if 2**k * chance_rows > _MAX_VERTEX_ROWS:
            raise ValueError(
                f"vertex method: k={k} gives 2^k={2**k} copies of {chance_rows} "
                f"chance rows, {2**k * chance_rows} planned rows, above the "
                f"{_MAX_VERTEX_ROWS}-row cap of the dense KKT; use IndividualChance"
            )

    builder = ProgramBuilder()
    pin_mask, pin_values = query.pins(n, k)
    space = RuleSpace(builder, n, k, pin_mask, pin_values)
    for i in range(n):
        builder.add_objective(int(space.xbar_idx[i]), float(program.c[i]))
    obj_points = (sample_noise(noise, seed, objective_samples, stream=OBJ_STREAM)
                  if objective_samples else [None])
    epi_copies = [
        [builder.add_var(f"t[{e}]" + (f"[{s}]" if objective_samples else ""),
                         obj=float(program.c[n + e]) / len(obj_points))
         for e in range(epigraph_vars)]
        for s in range(len(obj_points))
    ]

    A_E = np.vstack(eq_rows_A) if eq_rows_A else np.zeros((0, n))
    b_E = np.concatenate(eq_rows_b) if eq_rows_b else np.zeros(0)
    split = split_equalities(A_E, b_E, k)

    # X-equality system over free entries: recourse split + query equalities
    E_query, r_query = query.extra_equalities(n, k)
    X_eq = np.vstack([split.recourse_matrix, E_query])
    X_rhs = np.concatenate([split.recourse_rhs, r_query])
    free = space.free_entries
    free_cols = [i * k + j for i, j in free]
    pin_flat = pin_values.ravel()
    pinned_contrib = X_eq @ np.where(pin_mask.ravel(), pin_flat, 0.0)
    rhs_eff = X_rhs - pinned_contrib
    E_free = X_eq[:, free_cols] if free_cols else np.zeros((X_eq.shape[0], 0))
    if X_eq.shape[0]:
        if free_cols:
            sol_ls, *_ = np.linalg.lstsq(E_free, rhs_eff, rcond=None)
            resid = float(np.linalg.norm(E_free @ sol_ls - rhs_eff))
        else:
            resid = float(np.linalg.norm(rhs_eff))
        if resid > 1e-8 * (1.0 + float(np.linalg.norm(X_rhs))):
            raise ConflictingConstraints(
                "equality recourse system A_E X = 0 is inconsistent with the "
                f"query constraint (residual {resid:.3e})"
            )

    # Zero block: nominal equalities, then X equalities over free entries
    zero_rows = []
    for r in range(A_E.shape[0]):
        zero_rows.append((space.nominal_terms(A_E[r]), float(b_E[r])))
    free_var_idx = np.array([space.X_idx[i, j] for i, j in free], dtype=int)
    for r in range(X_eq.shape[0]):
        row = X_eq[r]
        terms = {int(free_var_idx[c]): -float(row[free_cols[c]])
                 for c in range(len(free_cols)) if row[free_cols[c]] != 0.0}
        const = float(rhs_eff[r])
        if not terms and const == 0.0:
            continue
        zero_rows.append((terms, const))
    builder.add_block(ConeKind.ZERO, zero_rows)

    box = None
    if isinstance(chance, VertexChance):
        S = chance.samples or vertex_sample_size(chance.eta, k, chance.beta)
        draws = sample_noise(noise, seed, S, stream=BOX_STREAM)
        box = hyperrectangle_vertices(draws)
        for vert in box:
            for kind, Ablk, A_epi, bblk in chance_blocks:
                builder.add_block(kind, _block_rows(space, Ablk, A_epi, bblk,
                                                    (), vert))
    else:
        flat_rows = []
        for kind, Ablk, _, bblk in chance_blocks:
            if kind != ConeKind.NONNEG:
                raise ValueError(
                    "individual chance rows require linear (NonNeg) blocks; "
                    f"found {kind.value}; use the vertex method"
                )
            flat_rows.extend(zip(Ablk, bblk))
        levels = chance.row_levels(len(flat_rows))
        for kind, rows in chance_row_blocks(space, flat_rows, noise, levels,
                                            chance.safety):
            builder.add_block(kind, rows)

    for point, epi_idx in zip(obj_points, epi_copies):
        for kind, Ablk, A_epi, bblk in objective_blocks:
            builder.add_block(kind, _block_rows(space, Ablk, A_epi, bblk,
                                                epi_idx, point))

    if recourse_ridge > 0 and free:
        u = builder.add_var("ridge", obj=recourse_ridge)
        ridge_rows = [({u: 1.0}, 0.0), ({}, 0.5)]
        ridge_rows += [({int(space.X_idx[i, j]): 1.0}, 0.0) for i, j in free]
        builder.add_block(ConeKind.RSOC, ridge_rows)

    transformed = builder.build()

    # equality system over the transformed variables, for exact extraction
    eq_idx = [r for blk, start in transformed.cones.offsets()
              if blk.kind == ConeKind.ZERO
              for r in range(start, start + blk.dim)]
    eq_matrix = transformed.A[eq_idx] if eq_idx else np.zeros((0, transformed.n))
    eq_rhs = transformed.b[eq_idx] if eq_idx else np.zeros(0)

    return PrivatizedProgram(
        program=transformed, space=space, noise=noise, query=query,
        box_vertices=box, eq_matrix=eq_matrix, eq_rhs=eq_rhs,
    )
