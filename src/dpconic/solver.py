"""Primal-dual interior-point solver for the standard-form conic program.

Homogeneous self-dual embedding with Nesterov-Todd scaling and a Mehrotra
predictor-corrector step, over Zero / NonNeg / SecondOrder cones
(RotatedSecondOrder rows are rotated to SecondOrder internally).  Zero-cone
rows are carried as equality constraints.  Each iteration LU-factors the
dense, unsquared (n+p+m) scaled KKT system (see _KKT) with static
quasi-definite regularization, and iterative refinement on the full Newton
system (one step by default) absorbs the regularization.

The NT scaling and the cone algebra (scaling update, W and W^{-1}
products, Jordan product and division, step to the boundary) come in two
classes chosen by the number of SOC blocks.  _Scaling walks the blocks in
Python; _BatchedScaling, used from _BATCH_MIN_BLOCKS blocks on, does the
row-wise work once over all SOC rows and the block dot products as one
stacked matmul per distinct block dimension.  numpy evaluates that stacked
matmul with the same BLAS dot (or gemv) call per block as the per-block
``u @ v``, and every other operation is the same elementwise IEEE operation
in the same order, so both classes give the same iterates bit for bit.

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
_TRACE = bool(__import__("os").environ.get("DPCONIC_TRACE"))
# SOC block count from which solve uses _BatchedScaling.  Below it, Python
# float math per block costs less than numpy's per-call overhead: batched /
# per-block solve time measured 1.3-1.4 at 1-2 blocks, about 0.95 at 3 and
# 0.8-0.85 at 4 (OpenBLAS, 2-core x86-64).
_BATCH_MIN_BLOCKS = 4


class NumericalBreakdown(RuntimeError):
    """The iteration cannot go on: a singular or non-finite KKT system, or
    an SOC block of s or z with a zero J-norm, which the NT scaling divides
    by (an iterate on the cone's boundary, as at an apex optimum)."""


_ON_BOUNDARY = "iterate on the boundary of a second-order cone"


@dataclass(frozen=True)
class SolverSettings:
    tol: float = 1e-8
    max_iter: int = 200
    infeasibility_threshold: float = 1e-8
    regularization: float = 1e-9
    refinement: int = 1
    equilibrate: bool = True
    # accept the best iterate once progress stalls within this factor of tol
    stall_grace: float = 10.0
    stall_iters: int = 6

    def __post_init__(self):
        if not (0 < self.tol < 1):
            raise ValueError("tol must be in (0, 1)")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.infeasibility_threshold <= 0:
            raise ValueError("infeasibility_threshold must be positive")
        if self.stall_grace < 1:
            raise ValueError("stall_grace must be >= 1")


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


def _jdot(u, v):
    return u[0] * v[0] - u[1:] @ v[1:]


def _jnrm2(u):
    return math.sqrt(max(_jdot(u, u), 0.0))


class _Scaling:
    """Nesterov-Todd scaling W with W z = W^{-T} s = lambda (W symmetric)."""

    def __init__(self, lay: _Layout):
        self.lay = lay
        self.d = np.ones(lay.l)
        self.betas = [1.0] * len(lay.q_dims)
        self.vs = [np.eye(d, 1).ravel() for d in lay.q_dims]

    def compute(self, s, z):
        lay = self.lay
        lam = np.zeros(lay.m_cone)
        self.d = np.sqrt(s[: lay.l] / z[: lay.l])
        lam[: lay.l] = np.sqrt(s[: lay.l] * z[: lay.l])
        for k, sl in enumerate(lay.q_slices):
            sk, zk = s[sl], z[sl]
            aa, bb = _jnrm2(sk), _jnrm2(zk)
            if aa <= 0.0 or bb <= 0.0:
                raise NumericalBreakdown(_ON_BOUNDARY)
            self.betas[k] = math.sqrt(aa / bb)
            cc = math.sqrt((sk @ zk / (aa * bb) + 1.0) / 2.0)
            v = -zk / bb
            v[0] = -v[0]
            v += sk / aa
            v /= 2.0 * cc
            v[0] += 1.0
            v /= math.sqrt(2.0 * v[0])
            self.vs[k] = v
            dd = 2 * cc + sk[0] / aa + zk[0] / bb
            lam_k = np.empty(len(sk))
            lam_k[0] = cc
            lam_k[1:] = ((cc + zk[0] / bb) / dd) * (sk[1:] / aa) + (
                (cc + sk[0] / aa) / dd
            ) * (zk[1:] / bb)
            lam[sl] = lam_k * math.sqrt(aa * bb)
        return lam

    def update(self, lam, s_new, z_new):
        """NT update from new iterates expressed in the current scaling."""
        lay = self.lay
        ssq = np.sqrt(s_new[: lay.l])
        zsq = np.sqrt(z_new[: lay.l])
        self.d *= ssq / zsq
        lam[: lay.l] = ssq * zsq
        for k, sl in enumerate(lay.q_slices):
            v = self.vs[k]
            st, zt = s_new[sl], z_new[sl]
            aa, bb = _jnrm2(st), _jnrm2(zt)
            if aa <= 0.0 or bb <= 0.0:
                raise NumericalBreakdown(_ON_BOUNDARY)
            sb, zb = st / aa, zt / bb
            cc = math.sqrt((1.0 + sb @ zb) / 2.0)
            vs = v @ sb
            vz = _jdot(v, zb)
            vq = (vs + vz) / (2.0 * cc)
            vu = vs - vz
            wk0 = 2.0 * v[0] * vq - (sb[0] + zb[0]) / (2.0 * cc)
            dd = (v[0] * vu - sb[0] / 2.0 + zb[0] / 2.0) / (wk0 + 1.0)
            lam_k = np.empty(len(st))
            lam_k[0] = cc
            lam_k[1:] = (
                2.0 * (-dd * vq + 0.5 * vu) * v[1:]
                + 0.5 * (1.0 - dd / cc) * sb[1:]
                + 0.5 * (1.0 + dd / cc) * zb[1:]
            )
            lam[sl] = lam_k * math.sqrt(aa * bb)
            vn = 2.0 * vq * v
            vn[0] -= sb[0] / (2.0 * cc)
            vn[1:] += sb[1:] / (2.0 * cc)
            vn -= zb / (2.0 * cc)
            vn[0] += 1.0
            vn /= math.sqrt(2.0 * vn[0])
            self.vs[k] = vn
            self.betas[k] *= math.sqrt(aa / bb)

    def apply(self, x, inverse=False):
        """W x (or W^{-1} x); W = beta (2 v v' - J) per SOC block."""
        lay = self.lay
        out = np.array(x, dtype=float, copy=True)
        if inverse:
            out[: lay.l] = out[: lay.l] / self.d
        else:
            out[: lay.l] = out[: lay.l] * self.d
        for k, sl in enumerate(lay.q_slices):
            v, beta = self.vs[k], self.betas[k]
            u = out[sl]
            if inverse:
                ju = u.copy()
                ju[1:] = -ju[1:]
                w = 2.0 * (v @ ju) * v - u
                w[1:] = -w[1:]
                out[sl] = w / beta
            else:
                w = 2.0 * (v @ u) * v
                w[0] -= u[0]
                w[1:] += u[1:]
                out[sl] = beta * w
        return out

    def apply_matrix(self, B, inverse=False):
        """Blockwise W (or W^{-1}) applied to the rows of a matrix."""
        lay = self.lay
        out = np.array(B, dtype=float, copy=True)
        if inverse:
            out[: lay.l] = out[: lay.l] / self.d[:, None]
        else:
            out[: lay.l] = out[: lay.l] * self.d[:, None]
        for k, sl in enumerate(lay.q_slices):
            v, beta = self.vs[k], self.betas[k]
            blk = out[sl]
            if inverse:
                jb = blk.copy()
                jb[1:] = -jb[1:]
                w = 2.0 * np.outer(v, v @ jb) - blk
                w[1:] = -w[1:]
                out[sl] = w / beta
            else:
                w = 2.0 * np.outer(v, v @ blk)
                w[0] -= blk[0]
                w[1:] += blk[1:]
                out[sl] = beta * w
        return out

    def jordan_prod(self, a, b):
        lay = self.lay
        out = np.zeros(lay.m_cone)
        out[: lay.l] = a[: lay.l] * b[: lay.l]
        for sl in lay.q_slices:
            ak, bk = a[sl], b[sl]
            out[sl.start] = ak @ bk
            out[sl.start + 1 : sl.stop] = ak[0] * bk[1:] + bk[0] * ak[1:]
        return out

    def jordan_div(self, lam, x):
        """Solve lam o u = x for u."""
        lay = self.lay
        out = np.zeros(lay.m_cone)
        out[: lay.l] = x[: lay.l] / lam[: lay.l]
        for sl in lay.q_slices:
            lk, xk = lam[sl], x[sl]
            det = _jdot(lk, lk)
            u0 = (lk[0] * xk[0] - lk[1:] @ xk[1:]) / det
            out[sl.start] = u0
            out[sl.start + 1 : sl.stop] = (xk[1:] - u0 * lk[1:]) / lk[0]
        return out

    def max_residual_step(self, u):
        """min t with u + t*e in the cone."""
        lay = self.lay
        t = -np.inf
        if lay.l:
            t = max(t, float(-u[: lay.l].min()))
        for sl in lay.q_slices:
            t = max(t, float(np.linalg.norm(u[sl.start + 1 : sl.stop]) - u[sl.start]))
        return t

    def max_step_to_boundary(self, lam, d):
        """sup {alpha >= 0 : lam + alpha d in cone}, for interior lam."""
        lay = self.lay
        alpha = np.inf
        neg = d[: lay.l] < 0
        if np.any(neg):
            alpha = min(alpha, float((lam[: lay.l][neg] / -d[: lay.l][neg]).min()))
        for sl in lay.q_slices:
            lk, dk = lam[sl], d[sl]
            f0 = _jdot(lk, lk)
            f1 = lk[0] * dk[0] - lk[1:] @ dk[1:]
            f2 = _jdot(dk, dk)
            roots = []
            if abs(f2) < 1e-300:
                if f1 < 0:
                    roots.append(-f0 / (2.0 * f1))
            else:
                disc = f1 * f1 - f0 * f2
                if disc >= 0:
                    sq = math.sqrt(disc)
                    roots.extend([(-f1 - sq) / f2, (-f1 + sq) / f2])
            pos = [r for r in roots if r > 0]
            if pos:
                alpha = min(alpha, min(pos))
            if dk[0] < 0:
                alpha = min(alpha, lk[0] / -dk[0])
        return alpha


class _BatchedScaling:
    """_Scaling over all SOC blocks at once, bit for bit the same results.

    v is one flat vector over the SOC rows; beta and the per-block scalars
    are one entry per block.  Row-wise arithmetic runs once over all SOC
    rows, in the same order of operations as _Scaling.  Block dot products
    run per distinct block dimension as one stacked matmul, which numpy
    evaluates with the same BLAS dot per block as ``u @ v`` (and the same
    gemv per block as ``v @ blk`` in apply_matrix), so every iterate equals
    _Scaling's to the last bit; a reordered reduction would not.
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
        for dim in sorted(set(lay.q_dims)):
            blocks = np.flatnonzero(dims == dim)
            rows = heads[blocks, None] + np.arange(dim)
            run = rows[-1, -1] - rows[0, 0] + 1 == rows.size
            span = slice(rows[0, 0], rows[-1, -1] + 1) if run else None
            self.groups.append((blocks, rows, span))

    def _dot(self, u, w, first=0):
        """Per-block u_k[first:] @ w_k[first:] of two SOC-row vectors."""
        out = np.empty(self.beta.size)
        for blocks, rows, _ in self.groups:
            r = rows[:, first:]
            out[blocks] = np.matmul(u[r][:, None, :], w[r][:, :, None]).ravel()
        return out

    def _jdot(self, u, w):
        h = self.heads
        return u[h] * w[h] - self._dot(u, w, 1)

    def _jnrm2(self, u):
        return np.sqrt(np.maximum(self._jdot(u, u), 0.0))

    def compute(self, s, z):
        lay, h, b = self.lay, self.heads, self.blk
        l = lay.l
        lam = np.zeros(lay.m_cone)
        self.d = np.sqrt(s[:l] / z[:l])
        lam[:l] = np.sqrt(s[:l] * z[:l])
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
        return lam

    def update(self, lam, s_new, z_new):
        """NT update from new iterates expressed in the current scaling."""
        h, b, v = self.heads, self.blk, self.v
        l = self.lay.l
        ssq = np.sqrt(s_new[:l])
        zsq = np.sqrt(z_new[:l])
        self.d *= ssq / zsq
        lam[:l] = ssq * zsq
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

    def apply(self, x, inverse=False):
        """W x (or W^{-1} x); W = beta (2 v v' - J) per SOC block."""
        l, b, v, js = self.lay.l, self.blk, self.v, self.jsign
        out = np.empty(len(x))
        u = x[l:]
        if inverse:
            out[:l] = x[:l] / self.d
            w = (2.0 * self._dot(v, u * js))[b] * v - u
            out[l:] = w * js / self.beta[b]
        else:
            out[:l] = x[:l] * self.d
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
        aq, bq = a[l:], b[l:]
        oq = aq[h][bl] * bq + bq[h][bl] * aq
        oq[h] = self._dot(aq, bq)
        out[l:] = oq
        return out

    def jordan_div(self, lam, x):
        """Solve lam o u = x for u."""
        h, b = self.heads, self.blk
        l = self.lay.l
        out = np.empty(self.lay.m_cone)
        out[:l] = x[:l] / lam[:l]
        lq, xq = lam[l:], x[l:]
        u0 = self._jdot(lq, xq) / self._jdot(lq, lq)
        oq = (xq - u0[b] * lq) / lq[h][b]
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

    def max_step_to_boundary(self, lam, d):
        """sup {alpha >= 0 : lam + alpha d in cone}, for interior lam."""
        l, h = self.lay.l, self.heads
        alpha = np.inf
        neg = d[:l] < 0
        if np.any(neg):
            alpha = min(alpha, float((lam[:l][neg] / -d[:l][neg]).min()))
        lq, dq = lam[l:], d[l:]
        f0, f1, f2 = self._jdot(lq, lq), self._jdot(lq, dq), self._jdot(dq, dq)
        lin = np.abs(f2) < 1e-300
        with np.errstate(all="ignore"):
            disc = f1 * f1 - f0 * f2
            r0 = np.where(lin & (f1 < 0), -f0 / (2.0 * f1), np.nan)
            sq = np.sqrt(np.where(~lin & (disc >= 0), disc, np.nan))
            roots = np.concatenate([r0, (-f1 - sq) / f2, (-f1 + sq) / f2])
        pos = roots[roots > 0]
        if pos.size:
            alpha = min(alpha, float(pos.min()))
        neg = dq[h] < 0
        if np.any(neg):
            # fmin skips NaN like the per-block min(alpha, .)
            alpha = min(alpha, float(np.fmin.reduce(lq[h][neg] / -dq[h][neg])))
        return alpha


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

    def factor(self, W: _Scaling | _BatchedScaling):
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

    eq_scale = None
    c = program.c
    if settings.equilibrate:
        eq_scale = _Equilibration(lay, program.c)
        c = eq_scale.scale_layout(lay, program.c)

    tol = settings.tol
    n, p, mc = lay.n, lay.p, lay.m_cone
    A, beq, G, h = lay.Aeq, lay.beq, lay.G, lay.h

    resx0 = max(1.0, float(np.linalg.norm(c)))
    resy0 = max(1.0, float(np.linalg.norm(beq)))
    resz0 = max(1.0, float(np.linalg.norm(h)))

    scaling = _BatchedScaling if len(lay.q_dims) >= _BATCH_MIN_BLOCKS else _Scaling
    W = scaling(lay)
    kkt = _KKT(lay, settings.regularization)

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
        ithr = settings.infeasibility_threshold
        if pinfres is not None and pinfres <= ithr:
            scale = -hz - by
            return _finish(program, lay, np.full(n, np.nan), y / scale, z / scale,
                           Status.PRIMAL_INFEASIBLE, pinfres, pinfres, np.nan,
                           iters, eq_scale)
        if dinfres is not None and dinfres <= ithr:
            return _finish(program, lay, x / -cx, np.full(p, np.nan),
                           np.full(mc, np.nan), Status.DUAL_INFEASIBLE,
                           dinfres, dinfres, np.nan, iters, eq_scale)

        # stall exits: accept a best iterate near tol, or give up on a
        # diverging merit unless an infeasibility certificate still improves
        stalled = iters - best[7] >= settings.stall_iters
        certificate_stalled = iters - inf_low_iter >= settings.stall_iters
        if iters == settings.max_iter or (stalled and (
            best[0] <= settings.stall_grace * tol
            or (merit > 1e3 * best[0] and certificate_stalled)
        )):
            ok = best[0] <= settings.stall_grace * tol
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
            s1 = -W.jordan_div(lam, bs)
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
            for _ in range(settings.refinement):
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
                W.max_step_to_boundary(lam, ds),
                W.max_step_to_boundary(lam, dzt),
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
            W.update(lam, s_new, z_new)
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
