"""Primal-dual interior-point solver for the standard-form conic program.

Homogeneous self-dual embedding with Nesterov-Todd scaling and a Mehrotra
predictor-corrector step, over Zero / NonNeg / SecondOrder cones
(RotatedSecondOrder rows are rotated to SecondOrder internally).  Zero-cone
rows are carried as equality constraints.  Each iteration LU-factors the
dense, unsquared (n+p+m) scaled KKT system (see _KKT) with static
quasi-definite regularization, and one step of iterative refinement on the
full Newton system absorbs the regularization.

_Scaling holds the NT scaling and the cone algebra (scaling update, W and
W^{-1} products, Jordan product and division, step to the boundary).  It
does the row-wise work once over all SOC rows and the block dot products as
one stacked matmul per distinct block dimension (a plain slice dot for a
dimension that holds one block).  numpy evaluates both with the same BLAS
dot (or gemv) call per block as a per-block ``u @ v``, and every other
operation is the same elementwise IEEE operation in the same order as a
per-block walk, so the iterates do not depend on how the blocks are grouped.

Everything is plain numpy, so identical inputs produce bit-identical
iterates on a given platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, lu_factor, lu_solve

from .conic import (
    ConeKind,
    ConicProgram,
    Residuals,
    Solution,
    Status,
    validate,
)

_SQRT2 = math.sqrt(2.0)
_STEP = 0.99          # fraction of the distance to the cone boundary
_EXPON = 3            # Mehrotra centering exponent
_PLUS_MINUS = np.array([[-1.0], [1.0]])
_TRACE = bool(__import__("os").environ.get("DPCONIC_TRACE"))
_REGULARIZATION = 1e-9    # static KKT diagonal perturbation
_REFINEMENT = 1           # iterative refinement steps per Newton solve
_INFEASIBILITY_THRESHOLD = 1e-8
# accept the best iterate once progress has stalled for _STALL_ITERS
# iterations within _STALL_GRACE times tol
_STALL_GRACE = 10.0
_STALL_ITERS = 6


class NumericalBreakdown(RuntimeError):
    """The iteration cannot go on: a singular or non-finite KKT system, or
    an SOC block of s or z with a zero J-norm, which the NT scaling divides
    by (an iterate on the cone's boundary, as at an apex optimum)."""


_ON_BOUNDARY = "iterate on the boundary of a second-order cone"


@dataclass(frozen=True)
class SolverSettings:
    tol: float = 1e-8
    max_iter: int = 200

    def __post_init__(self):
        if not (0 < self.tol < 1):
            raise ValueError("tol must be in (0, 1)")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


def _rotate(x):
    """Orthogonal involution mapping RSOC data to SOC data (and back)."""
    y = np.array(x, dtype=float, copy=True)
    u, v = y[0].copy(), y[1].copy()
    y[0] = (u + v) / _SQRT2
    y[1] = (u - v) / _SQRT2
    return y


class _Layout:
    """Permutes program rows into [equalities | nonneg | SOC blocks]."""

    def __init__(self, program: ConicProgram):
        eq_rows, l_rows, q_specs = [], [], []
        for blk, start in program.cones.offsets():
            rows = list(range(start, start + blk.dim))
            if blk.kind == ConeKind.ZERO:
                eq_rows.extend(rows)
            elif blk.kind == ConeKind.NONNEG:
                l_rows.extend(rows)
            else:
                q_specs.append((rows, blk.kind == ConeKind.RSOC))

        A, b = program.A, program.b
        self.n = program.n
        self.eq_rows = np.array(eq_rows, dtype=int)
        self.Aeq = A[self.eq_rows] if eq_rows else np.zeros((0, self.n))
        self.beq = b[self.eq_rows] if eq_rows else np.zeros(0)

        self.l = len(l_rows)
        G_parts = [A[l_rows]] if l_rows else [np.zeros((0, self.n))]
        h_parts = [b[l_rows]] if l_rows else [np.zeros(0)]
        cone_rows = list(l_rows)
        self.q_dims: list[int] = []
        self.q_rsoc: list[bool] = []
        for rows, is_rsoc in q_specs:
            Ablk, bblk = A[rows], b[rows]
            if is_rsoc:
                Ablk, bblk = _rotate(Ablk), _rotate(bblk)
            G_parts.append(Ablk)
            h_parts.append(bblk)
            cone_rows.extend(rows)
            self.q_dims.append(len(rows))
            self.q_rsoc.append(is_rsoc)
        self.G = np.vstack(G_parts)
        self.h = np.concatenate(h_parts)
        self.cone_rows = np.array(cone_rows, dtype=int)
        self.m_cone = self.G.shape[0]
        self.p = self.Aeq.shape[0]

        self.q_slices = []
        start = self.l
        for d in self.q_dims:
            self.q_slices.append(slice(start, start + d))
            start += d
        self.diag_dim = self.l + sum(self.q_dims)
        self.e = np.zeros(self.m_cone)
        self.e[: self.l] = 1.0
        for sl in self.q_slices:
            self.e[sl.start] = 1.0


def _pow2(v):
    """Round positive factors to powers of two so scaling is exact in fp."""
    return np.exp2(np.round(np.log2(v)))


class _Equilibration:
    """Block-aware Ruiz scaling of the layout, plus cost/rhs normalization.

    Rows in the same SOC block share one factor (cone membership is
    invariant under a common positive row scale); Zero and NonNeg rows
    scale individually.  Factors are powers of two.  A round that leaves
    every row and column factor at exactly 1 leaves r and s unchanged, so
    every later round would repeat it: the loop stops there.
    """

    def __init__(self, lay: _Layout, c: np.ndarray, rounds: int = 8):
        n = lay.n
        M = np.vstack([lay.Aeq, lay.G])
        p = lay.p
        # contiguous row groups: each eq row, each l row, each q block
        sizes = np.concatenate([np.ones(p + lay.l, dtype=int),
                                np.array(lay.q_dims, dtype=int)])
        starts = np.cumsum(sizes) - sizes
        r = np.ones(M.shape[0])
        s = np.ones(n)
        for _ in range(rounds):
            Ms = (M * r[:, None]) * s[None, :]
            gmx = np.maximum.reduceat(np.abs(Ms).max(axis=1), starts)
            nz = gmx > 0
            f = np.ones(sizes.size)
            f[nz] = _pow2(1.0 / np.sqrt(gmx[nz]))
            r *= np.repeat(f, sizes)
            Ms = (M * r[:, None]) * s[None, :]
            cmx = np.abs(Ms).max(axis=0)
            nz = cmx > 0
            g = _pow2(1.0 / np.sqrt(cmx[nz]))
            s[nz] *= g
            if (f == 1.0).all() and (g == 1.0).all():
                break
        self.r_eq, self.r_cone = r[:p], r[p:]
        self.s = s
        b_all = np.concatenate([lay.beq * self.r_eq, lay.h * self.r_cone])
        self.g_b = float(_pow2(1.0 / max(1.0, np.abs(b_all).max(initial=0.0))))
        c_s = c * s
        self.g_c = float(_pow2(1.0 / max(1.0, np.abs(c_s).max(initial=0.0))))

    def scale_layout(self, lay: _Layout, c: np.ndarray) -> np.ndarray:
        lay.Aeq = lay.Aeq * self.r_eq[:, None] * self.s[None, :]
        lay.beq = lay.beq * self.r_eq * self.g_b
        lay.G = lay.G * self.r_cone[:, None] * self.s[None, :]
        lay.h = lay.h * self.r_cone * self.g_b
        return c * self.s * self.g_c

    def unscale_x(self, x):
        return self.s * x / self.g_b

    def unscale_y_eq(self, y):
        return self.r_eq * y / self.g_c

    def unscale_z(self, z):
        return self.r_cone * z / self.g_c


class _Scaling:
    """Nesterov-Todd scaling W with W z = W^{-T} s = lambda (W symmetric).

    d scales the NonNeg rows.  v is one flat vector over the SOC rows and
    beta one entry per block, with W = beta (2 v v' - J) per SOC block.
    lam is the scaled point, which compute sets and update moves in place.
    Row-wise arithmetic runs once over all SOC rows; block dot products run
    per distinct block dimension (see _dot).  The result of every method is
    the one a walk over the blocks in Python float math and per-block
    ``u @ v`` gives, to the last bit; a reordered reduction would not be.
    """

    def __init__(self, lay: _Layout):
        self.lay = lay
        dims = np.array(lay.q_dims, dtype=int)
        heads = np.cumsum(dims) - dims
        self.heads = heads                              # relative to SOC rows
        self.blk = np.repeat(np.arange(dims.size), dims)  # block of each SOC row
        self.jsign = np.full(int(dims.sum()), -1.0)     # diagonal of J per row
        self.jsign[heads] = 1.0
        self.d = np.ones(lay.l)
        self.beta = np.ones(dims.size)
        self.v = (self.jsign > 0).astype(float)
        # (blocks, rows (nblk, dim), slice when the rows are one contiguous run)
        self.groups = []
        # _dot's work for first = 0 and 1: (block, slice) for a dimension
        # with one block, (blocks, row indices (nblk, dim - first)) otherwise
        self.dot_plan = ([], [])
        for dim in sorted(set(lay.q_dims)):
            blocks = np.flatnonzero(dims == dim)
            rows = heads[blocks, None] + np.arange(dim)
            run = rows[-1, -1] - rows[0, 0] + 1 == rows.size
            span = slice(rows[0, 0], rows[-1, -1] + 1) if run else None
            self.groups.append((blocks, rows, span))
            for first, plan in enumerate(self.dot_plan):
                if blocks.size == 1:
                    plan.append((int(blocks[0]), slice(span.start + first, span.stop)))
                else:
                    plan.append((blocks, rows[:, first:]))

    def _dot(self, u, w, first=0):
        """Per-block u_k[first:] @ w_k[first:] of two SOC-row vectors.

        A dimension with one block takes the plain slice dot, the others
        one stacked matmul; numpy makes the same BLAS dot call per block
        either way.
        """
        out = np.empty(self.beta.size)
        for k, r in self.dot_plan[first]:
            if type(r) is slice:
                out[k] = u[r].dot(w[r])
            else:
                out[k] = np.matmul(u[r][:, None, :], w[r][:, :, None]).ravel()
        return out

    def _jdot(self, u, w):
        h = self.heads
        return u[h] * w[h] - self._dot(u, w, 1)

    def _jnrm2(self, u):
        return np.sqrt(np.maximum(self._jdot(u, u), 0.0))

    def compute(self, s, z):
        lay, h, b = self.lay, self.heads, self.blk
        l = lay.l
        lam = self.lam = np.zeros(lay.m_cone)
        self.d = np.sqrt(s[:l] / z[:l])
        lam[:l] = np.sqrt(s[:l] * z[:l])
        if not self.groups:
            return lam
        sq, zq = s[l:], z[l:]
        aa, bb = self._jnrm2(sq), self._jnrm2(zq)
        if (aa <= 0.0).any() or (bb <= 0.0).any():
            raise NumericalBreakdown(_ON_BOUNDARY)
        self.beta = np.sqrt(aa / bb)
        cc = np.sqrt((self._dot(sq, zq) / (aa * bb) + 1.0) / 2.0)
        sa, zb = sq / aa[b], zq / bb[b]
        v = zb * self.jsign + sa
        v /= (2.0 * cc)[b]
        v[h] += 1.0
        v /= np.sqrt(2.0 * v[h])[b]
        self.v = v
        dd = 2.0 * cc + sa[h] + zb[h]
        lq = ((cc + zb[h]) / dd)[b] * sa + ((cc + sa[h]) / dd)[b] * zb
        lq[h] = cc
        lam[l:] = lq * np.sqrt(aa * bb)[b]
        self._lam_blocks()
        return lam

    def _lam_blocks(self):
        """The per-block head and J-norm^2 of lam, which every jordan_div
        and max_step_to_boundary reads."""
        lq = self.lam[self.lay.l:]
        self.lam_head = lq[self.heads]
        self.lam_det = self.lam_head * self.lam_head - self._dot(lq, lq, 1)

    def update(self, s_new, z_new):
        """NT update from new iterates expressed in the current scaling."""
        h, b, v, lam = self.heads, self.blk, self.v, self.lam
        l = self.lay.l
        ssq = np.sqrt(s_new[:l])
        zsq = np.sqrt(z_new[:l])
        self.d *= ssq / zsq
        lam[:l] = ssq * zsq
        if not self.groups:
            return
        st, zt = s_new[l:], z_new[l:]
        aa, bb = self._jnrm2(st), self._jnrm2(zt)
        if (aa <= 0.0).any() or (bb <= 0.0).any():
            raise NumericalBreakdown(_ON_BOUNDARY)
        sb, zb = st / aa[b], zt / bb[b]
        cc = np.sqrt((1.0 + self._dot(sb, zb)) / 2.0)
        c2 = 2.0 * cc
        vs = self._dot(v, sb)
        vz = self._jdot(v, zb)
        vq = (vs + vz) / c2
        vu = vs - vz
        wk0 = 2.0 * v[h] * vq - (sb[h] + zb[h]) / c2
        dd = (v[h] * vu - sb[h] / 2.0 + zb[h] / 2.0) / (wk0 + 1.0)
        lq = (
            (2.0 * (-dd * vq + 0.5 * vu))[b] * v
            + (0.5 * (1.0 - dd / cc))[b] * sb
            + (0.5 * (1.0 + dd / cc))[b] * zb
        )
        lq[h] = cc
        lam[l:] = lq * np.sqrt(aa * bb)[b]
        vn = (2.0 * vq)[b] * v
        vn -= (sb / c2[b]) * self.jsign
        vn -= zb / c2[b]
        vn[h] += 1.0
        vn /= np.sqrt(2.0 * vn[h])[b]
        self.v = vn
        self.beta = self.beta * np.sqrt(aa / bb)
        self._lam_blocks()

    def apply(self, x, inverse=False):
        """W x (or W^{-1} x)."""
        l, b, v, js = self.lay.l, self.blk, self.v, self.jsign
        out = np.empty(len(x))
        out[:l] = x[:l] / self.d if inverse else x[:l] * self.d
        if not self.groups:
            return out
        u = x[l:]
        if inverse:
            w = (2.0 * self._dot(v, u * js))[b] * v - u
            out[l:] = w * js / self.beta[b]
        else:
            w = (2.0 * self._dot(v, u))[b] * v
            out[l:] = self.beta[b] * (w - u * js)
        return out

    def apply_matrix(self, B, inverse=False):
        """Blockwise W (or W^{-1}) applied to the rows of a matrix.

        A group whose rows form one run is read and written through views,
        so no temporary of B's size is made.
        """
        l = self.lay.l
        out = np.empty(B.shape)
        if inverse:
            out[:l] = B[:l] / self.d[:, None]
        else:
            out[:l] = B[:l] * self.d[:, None]
        Bq, Oq = B[l:], out[l:]
        for blocks, rows, span in self.groups:
            shape = rows.shape + B.shape[1:]
            if span is None:
                Bg, Og = Bq[rows], np.empty(shape)
            else:
                Bg, Og = Bq[span].reshape(shape), Oq[span].reshape(shape)
            V = self.v[rows]
            beta = self.beta[blocks][:, None, None]
            # v @ (J blk) == (J v) @ blk: sign flips are exact
            T = np.matmul((V * self.jsign[rows] if inverse else V)[:, None, :], Bg)
            np.multiply(V[:, :, None], T, out=Og)
            Og *= 2.0
            if inverse:
                Og -= Bg
                Og[:, 1:] *= -1.0
                Og /= beta
            else:
                Og[:, 0] -= Bg[:, 0]
                Og[:, 1:] += Bg[:, 1:]
                Og *= beta
            if span is None:
                Oq[rows] = Og
        return out

    def jordan_prod(self, a, b):
        h, bl = self.heads, self.blk
        l = self.lay.l
        out = np.empty(self.lay.m_cone)
        out[:l] = a[:l] * b[:l]
        if not self.groups:
            return out
        aq, bq = a[l:], b[l:]
        oq = aq[h][bl] * bq + bq[h][bl] * aq
        oq[h] = self._dot(aq, bq)
        out[l:] = oq
        return out

    def jordan_div(self, x):
        """Solve lam o u = x for u."""
        h, b, lam = self.heads, self.blk, self.lam
        l = self.lay.l
        out = np.empty(self.lay.m_cone)
        out[:l] = x[:l] / lam[:l]
        if not self.groups:
            return out
        lq, xq, lh = lam[l:], x[l:], self.lam_head
        u0 = (lh * xq[h] - self._dot(lq, xq, 1)) / self.lam_det
        oq = (xq - u0[b] * lq) / lh[b]
        oq[h] = u0
        out[l:] = oq
        return out

    def max_residual_step(self, u):
        """min t with u + t*e in the cone."""
        l = self.lay.l
        uq = u[l:]
        t = float(np.max(np.sqrt(self._dot(uq, uq, 1)) - uq[self.heads], initial=-np.inf))
        if l:
            t = max(t, float(-u[:l].min()))
        return t

    def max_step_to_boundary(self, d):
        """sup {alpha >= 0 : lam + alpha d in cone}, for interior lam."""
        l, h, lam = self.lay.l, self.heads, self.lam
        alpha = np.inf
        neg = d[:l] < 0
        if neg.any():
            alpha = min(alpha, float((lam[:l][neg] / -d[:l][neg]).min()))
        if not self.groups:
            return alpha
        lq, dq = lam[l:], d[l:]
        lh, dh = self.lam_head, dq[h]
        # the roots of f0 + 2 f1 t + f2 t^2, the J-norm^2 of lam + t d
        f0 = self.lam_det
        f1 = lh * dh - self._dot(lq, dq, 1)
        f2 = dh * dh - self._dot(dq, dq, 1)
        lin = np.abs(f2) < 1e-300
        with np.errstate(all="ignore"):
            # (-f1 - sq) / f2 and (-f1 + sq) / f2, NaN where the disc is < 0
            roots = (_PLUS_MINUS * np.sqrt(f1 * f1 - f0 * f2) - f1) / f2
            if lin.any():
                roots[:, lin] = np.nan
                roots = np.append(roots, np.where(lin & (f1 < 0), -f0 / (2.0 * f1), np.nan))
            alpha = min(alpha, float(np.min(roots, where=roots > 0, initial=np.inf)))
            # fmin skips NaN like the per-block min(alpha, .)
            return min(alpha, float(np.fmin.reduce(lh / -dh, where=dh < 0, initial=np.inf)))


class _KKT:
    """LU factorization of the scaled 3x3 KKT system in unsquared form.

    With Gs = W^{-1} G and the scaled unknown zs = W uz, the system

        Aeq' uy + G' uz = bx,   Aeq ux = by,   G ux - W^2 uz = bz

    becomes [0 Aeq' Gs'; Aeq 0 0; Gs 0 -I] (ux, uy, zs) = (bx, by, W^{-1}bz),
    whose conditioning grows with cond(W) rather than cond(W)^2.
    solve(bx, by, bz) returns (ux, uy, zs = W uz).

    Static quasi-definite regularization (+reg / -reg on the diagonal); the
    outer iterative refinement absorbs the perturbation.
    """

    def __init__(self, lay: _Layout, reg: float):
        self.lay, self.reg = lay, reg
        n, p, mc = lay.n, lay.p, lay.m_cone
        N = n + p + mc
        self.K = np.zeros((N, N))
        self.K[:n, n : n + p] = lay.Aeq.T
        self.K[n : n + p, :n] = lay.Aeq
        idx = np.arange(N)
        self.K[idx[:n], idx[:n]] = reg
        self.K[idx[n : n + p], idx[n : n + p]] = -reg
        self.K[idx[n + p :], idx[n + p :]] = -1.0 - reg

    def factor(self, W: _Scaling):
        lay = self.lay
        n, p = lay.n, lay.p
        K = self.K
        Gs = W.apply_matrix(lay.G, inverse=True)
        # Gs is the only part of K that changes, so checking it stands in
        # for LAPACK's finiteness scan of all of K
        if not np.isfinite(Gs).all():
            raise NumericalBreakdown("non-finite scaled KKT block")
        K[: n, n + p :] = Gs.T
        K[n + p :, : n] = Gs
        try:
            lu = lu_factor(K, check_finite=False)
        except (LinAlgError, ValueError) as exc:
            raise NumericalBreakdown("KKT factorization failed") from exc

        def solve(bx, by, bz):
            rhs = np.concatenate([bx, by, W.apply(bz, inverse=True)])
            u = lu_solve(lu, rhs, check_finite=False)
            if not np.all(np.isfinite(u)):
                raise NumericalBreakdown("singular KKT system")
            return u[:n], u[n : n + p], u[n + p :]

        return solve


def solve(program: ConicProgram, settings: SolverSettings | None = None) -> Solution:
    """Solve a ConicProgram to the settings' tolerances.

    Statuses: Optimal (all residuals within tol), PrimalInfeasible /
    DualInfeasible (tau/kappa classification of the self-dual embedding;
    the normalized certificate lives in y resp. x, its residual in
    ``residuals``), MaxIter (non-convergence; best iterate returned).
    """
    settings = settings or SolverSettings()
    errs = validate(program)
    if errs:
        raise ValueError("invalid program: " + "; ".join(errs))
    lay = _Layout(program)
    if lay.m_cone == 0:
        return _solve_equality_only(program, lay, settings)

    eq_scale = _Equilibration(lay, program.c)
    c = eq_scale.scale_layout(lay, program.c)

    tol = settings.tol
    n, p, mc = lay.n, lay.p, lay.m_cone
    A, beq, G, h = lay.Aeq, lay.beq, lay.G, lay.h

    resx0 = max(1.0, float(np.linalg.norm(c)))
    resy0 = max(1.0, float(np.linalg.norm(beq)))
    resz0 = max(1.0, float(np.linalg.norm(h)))

    W = _Scaling(lay)
    kkt = _KKT(lay, _REGULARIZATION)

    # least-squares initial point (identity scaling), shifted into the cone
    f0 = kkt.factor(W)
    x, _, uz = f0(np.zeros(n), beq.copy(), h.copy())
    s = -uz
    ts = W.max_residual_step(s)
    if ts >= -1e-8 * max(1.0, float(np.linalg.norm(s))):
        s[lay.e > 0] += 1.0 + ts
    _, y, z = f0(-c, np.zeros(p), np.zeros(mc))
    tz = W.max_residual_step(z)
    if tz >= -1e-8 * max(1.0, float(np.linalg.norm(z))):
        z[lay.e > 0] += 1.0 + tz

    tau, kappa = 1.0, 1.0
    gap = float(s @ z)
    lam = np.zeros(mc)
    lam_g = 1.0
    dg = dgi = 1.0
    best = None

    def give_up(iters):
        """MaxIter with the best finite iterate."""
        if best is None:
            raise NumericalBreakdown("non-finite starting point")
        return _finish(program, lay, best[1], best[2], best[3], Status.MAX_ITER,
                       best[4], best[5], best[6], iters, eq_scale)

    # lowest pinfres/dinfres so far and the iteration of the latest new low
    pinf_low = dinf_low = math.inf
    inf_low_iter = 0

    for iters in range(settings.max_iter + 1):
        hrx = -(A.T @ y) - G.T @ z
        hresx = float(np.linalg.norm(hrx))
        rx = hrx - c * tau
        resx = float(np.linalg.norm(rx)) / tau
        hry = A @ x
        hresy = float(np.linalg.norm(hry))
        ry = hry - beq * tau
        resy = float(np.linalg.norm(ry)) / tau
        hrz = G @ x + s
        hresz = float(np.linalg.norm(hrz))
        rz = hrz - h * tau
        resz = float(np.linalg.norm(rz)) / tau
        cx, by, hz = float(c @ x), float(beq @ y), float(h @ z)
        rt = kappa + cx + by + hz

        pcost, dcost = cx / tau, -(by + hz) / tau
        if pcost < 0.0:
            relgap = gap / -pcost
        elif dcost > 0.0:
            relgap = gap / dcost
        else:
            relgap = None
        pres = max(resy / resy0, resz / resz0)
        dres = resx / resx0
        pinfres = hresx / resx0 / (-hz - by) if hz + by < 0 else None
        dinfres = max(hresy / resy0, hresz / resz0) / (-cx) if cx < 0 else None
        if _TRACE:
            print(f"it {iters:3d}: pcost {pcost: .6e} dcost {dcost: .6e} "
                  f"gap {gap:.1e} pres {pres:.1e} dres {dres:.1e} k/t {kappa/tau:.1e}")

        gap_merit = relgap if relgap is not None else gap
        merit = max(pres, dres, gap_merit)
        # max() keeps its first argument against a NaN, so a non-finite
        # iterate is caught here, before it could pass the tests below
        if not all(map(math.isfinite, (resx, resy, resz, rt, gap, merit))):
            return give_up(iters)
        if best is None or merit < best[0]:
            best = (merit, x / tau, y / tau, z / tau, pres, dres, gap_merit, iters)
        if pinfres is not None and pinfres < pinf_low:
            pinf_low, inf_low_iter = pinfres, iters
        if dinfres is not None and dinfres < dinf_low:
            dinf_low, inf_low_iter = dinfres, iters

        if merit <= tol:
            return _finish(program, lay, x / tau, y / tau, z / tau,
                           Status.OPTIMAL, pres, dres, gap_merit, iters,
                           eq_scale)
        if pinfres is not None and pinfres <= _INFEASIBILITY_THRESHOLD:
            scale = -hz - by
            return _finish(program, lay, np.full(n, np.nan), y / scale, z / scale,
                           Status.PRIMAL_INFEASIBLE, pinfres, pinfres, np.nan,
                           iters, eq_scale)
        if dinfres is not None and dinfres <= _INFEASIBILITY_THRESHOLD:
            return _finish(program, lay, x / -cx, np.full(p, np.nan),
                           np.full(mc, np.nan), Status.DUAL_INFEASIBLE,
                           dinfres, dinfres, np.nan, iters, eq_scale)

        # stall exits: accept a best iterate near tol, or give up on a
        # diverging merit unless an infeasibility certificate still improves
        stalled = iters - best[7] >= _STALL_ITERS
        certificate_stalled = iters - inf_low_iter >= _STALL_ITERS
        if iters == settings.max_iter or (stalled and (
            best[0] <= _STALL_GRACE * tol
            or (merit > 1e3 * best[0] and certificate_stalled)
        )):
            ok = best[0] <= _STALL_GRACE * tol
            status = Status.OPTIMAL if ok else Status.MAX_ITER
            return _finish(program, lay, best[1], best[2], best[3], status,
                           best[4], best[5], best[6], iters, eq_scale)

        if iters == 0:
            try:
                lam = W.compute(s, z)
            except NumericalBreakdown:
                return give_up(iters)
            dg = math.sqrt(kappa / tau)
            dgi = math.sqrt(tau / kappa)
            lam_g = math.sqrt(tau * kappa)

        lamsq = W.jordan_prod(lam, lam)
        mu = (float(lam @ lam) + lam_g**2) / (lay.diag_dim + 1)

        try:
            f3 = kkt.factor(W)
            x1, y1, z1 = f3(-c, beq.copy(), h.copy())
        except NumericalBreakdown:
            return give_up(iters)
        x1, y1, z1 = dgi * x1, dgi * y1, dgi * z1
        th = W.apply(h, inverse=True)
        z1_sq = 1.0 + float(z1 @ z1)

        def newton(bx, by_, bz, btau, bs, bkap):
            s1 = -W.jordan_div(bs)
            bz_eff = -(bz + W.apply(s1))
            ux, uy, uzt = f3(bx, -by_, bz_eff)
            bk2 = -bkap / lam_g
            bt2 = btau + bk2 / dgi
            dtau = dgi * (bt2 + float(c @ ux) + float(beq @ uy) + float(th @ uzt)) / z1_sq
            ux = ux + dtau * x1
            uy = uy + dtau * y1
            uzt = uzt + dtau * z1
            us = s1 - uzt
            dkap = bk2 - dtau
            return ux, uy, uzt, dtau, us, dkap

        def residual6(u, bx, by_, bz, btau, bs, bkap):
            ux, uy, uzt, dtau, us, dkap = u
            uz_true = W.apply(uzt, inverse=True)
            dtau_true = dtau * dgi
            vx = bx - (A.T @ uy) - G.T @ uz_true - c * dtau_true
            vy = by_ + A @ ux - beq * dtau_true
            vz = bz + G @ ux - h * dtau_true + W.apply(us)
            vtau = btau + dg * dkap + float(c @ ux) + float(beq @ uy) + float(h @ uz_true)
            vs = bs + W.jordan_prod(lam, uzt + us)
            vkap = bkap + lam_g * (dtau + dkap)
            return vx, vy, vz, vtau, vs, vkap

        def refined_newton(bx, by_, bz, btau, bs, bkap):
            u = newton(bx, by_, bz, btau, bs, bkap)
            for _ in range(_REFINEMENT):
                vx, vy, vz, vtau, vs, vkap = residual6(u, bx, by_, bz, btau, bs, bkap)
                du = newton(vx, vy, vz, vtau, vs, vkap)
                u = tuple(a + b for a, b in zip(u, du))
            return u

        sigma = 0.0
        corr = np.zeros(mc)
        corr_k = 0.0
        dx_ = dy_ = dzt = ds = None
        dtau = dkap = step = 0.0
        for phase in (0, 1):
            bs = lamsq.copy()
            bkap = lam_g**2
            if phase == 1:
                bs = bs + corr - sigma * mu * lay.e
                bkap = bkap + corr_k - sigma * mu
            fac = 1.0 - sigma
            try:
                u = refined_newton(fac * rx, fac * ry, fac * rz, fac * rt, bs, bkap)
            except NumericalBreakdown:
                return give_up(iters)
            dx_, dy_, dzt, dtau, ds, dkap = u
            if phase == 0:
                corr = W.jordan_prod(ds, dzt)
                corr_k = dtau * dkap
            alpha = min(
                W.max_step_to_boundary(ds),
                W.max_step_to_boundary(dzt),
            )
            if dtau < 0:
                alpha = min(alpha, lam_g / -dtau)
            if dkap < 0:
                alpha = min(alpha, lam_g / -dkap)
            if phase == 0:
                step = min(1.0, alpha)
                sigma = min(1.0, max(0.0, 1.0 - step)) ** _EXPON
            else:
                step = min(1.0, _STEP * alpha)

        x = x + step * dx_
        y = y + step * dy_
        s_new = lam + step * ds
        z_new = lam + step * dzt
        try:
            W.update(s_new, z_new)     # moves lam, which is W.lam, in place
        except NumericalBreakdown:
            # counted like a non-finite update, which the next pass catches
            return give_up(iters + 1)
        tau_f = 1.0 + step * dtau / lam_g
        kap_f = 1.0 + step * dkap / lam_g
        dg *= math.sqrt(kap_f) / math.sqrt(tau_f)
        dgi = 1.0 / dg
        lam_g *= math.sqrt(tau_f) * math.sqrt(kap_f)
        s = W.apply(lam)
        z = W.apply(lam, inverse=True)
        kappa, tau = lam_g * dg, lam_g * dgi
        gap = float(lam @ lam) / tau**2

    raise AssertionError("unreachable")


def _solve_equality_only(program, lay, settings):
    # no cone rows: minimize c'x subject to Aeq x = beq
    A, b, c = lay.Aeq, lay.beq, program.c
    x = np.linalg.lstsq(A, b, rcond=None)[0]
    if np.linalg.norm(A @ x - b) > settings.tol * (1 + np.linalg.norm(b)):
        return _finish(program, lay, np.full(lay.n, np.nan), np.zeros(lay.p),
                       np.zeros(0), Status.PRIMAL_INFEASIBLE, 0.0, 0.0, np.nan, 0)
    y = np.linalg.lstsq(A.T, -c, rcond=None)[0]
    if np.linalg.norm(A.T @ y + c) > settings.tol * (1 + np.linalg.norm(c)):
        return _finish(program, lay, x, np.full(lay.p, np.nan), np.zeros(0),
                       Status.DUAL_INFEASIBLE, 0.0, 0.0, np.nan, 0)
    return _finish(program, lay, x, y, np.zeros(0), Status.OPTIMAL, 0.0, 0.0, 0.0, 0)


def _finish(program, lay, x, y_eq, z, status, pres, dres, gap, iters,
            eq_scale=None):
    if eq_scale is not None:
        x = eq_scale.unscale_x(np.asarray(x, dtype=float))
        y_eq = eq_scale.unscale_y_eq(np.asarray(y_eq, dtype=float))
        z = eq_scale.unscale_z(np.asarray(z, dtype=float))
    y_full = np.zeros(program.m)
    if lay.p:
        y_full[lay.eq_rows] = y_eq
    z_back = np.array(z, copy=True)
    for sl, is_rsoc in zip(lay.q_slices, lay.q_rsoc):
        if is_rsoc:
            z_back[sl] = _rotate(z_back[sl])
    if z_back.size:
        y_full[lay.cone_rows] = z_back
    ok = status in (Status.OPTIMAL, Status.MAX_ITER)
    obj = float(program.c @ x) if ok else float("nan")
    return Solution(
        x=np.asarray(x, dtype=float),
        y=y_full,
        status=status,
        objective=obj,
        residuals=Residuals(primal=float(pres), dual=float(dres), gap=float(gap)),
        iterations=iters,
    )


def _cone_violation(program, v, dual=False):
    """Worst per-block distance-like violation of cone (or dual cone) membership."""
    worst = 0.0
    for blk, start in program.cones.offsets():
        u = v[start : start + blk.dim]
        if blk.kind == ConeKind.ZERO:
            # dual of {0} is everything
            if not dual and u.size:
                worst = max(worst, float(np.abs(u).max()))
        elif blk.kind == ConeKind.NONNEG:
            if u.size:
                worst = max(worst, float(np.maximum(-u, 0.0).max()))
        elif blk.kind == ConeKind.SOC:
            worst = max(worst, max(0.0, float(np.linalg.norm(u[1:]) - u[0])))
        else:
            r = _rotate(u)
            worst = max(worst, max(0.0, float(np.linalg.norm(r[1:]) - r[0])))
    return worst


def kkt_report(program: ConicProgram, sol: Solution) -> dict[str, float]:
    """Recompute optimality residuals from scratch, independent of the solver.

    primal: cone violation of b - Ax, scaled by 1 + |b|
    dual:   max of |c + A'y| / (1 + |c|) and the dual-cone violation of y
    gap:    |c'x + b'y| / (1 + |c'x|)
    complementarity: |(b - Ax)'y| / (1 + |c'x|)

    A component computed from a non-finite x, y or s reads inf.
    """
    x = np.asarray(sol.x, dtype=float).ravel()
    if x.shape[0] != program.n:
        raise ValueError("solution x has wrong length")
    y = np.asarray(sol.y, dtype=float).ravel()
    s = program.b - program.A @ x
    x_ok, y_ok, s_ok = (bool(np.isfinite(v).all()) for v in (x, y, s))
    bn = 1.0 + float(np.linalg.norm(program.b))
    cn = 1.0 + float(np.linalg.norm(program.c))
    cx = float(program.c @ x)
    inf = math.inf
    return {
        "primal": _cone_violation(program, s) / bn if s_ok else inf,
        "dual": max(
            float(np.linalg.norm(program.c + program.A.T @ y)) / cn,
            _cone_violation(program, y, dual=True) / cn,
        ) if y_ok else inf,
        "gap": abs(cx + float(program.b @ y)) / (1.0 + abs(cx)) if x_ok and y_ok else inf,
        "complementarity": abs(float(s @ y)) / (1.0 + abs(cx)) if s_ok and y_ok else inf,
    }
