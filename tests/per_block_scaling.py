"""The per-block NT scaling: the reference for the solver's _Scaling.

PerBlockScaling scales one program: it walks the SOC blocks one at a time
in Python float math and plain ``u @ v`` dot products.
dpconic.solver._Scaling does the same arithmetic over all blocks, and all
programs of a stack, at once; tests/test_solver.py requires both to give
the same results bit for bit, method by method and over whole solves.
PerBlockStack runs one PerBlockScaling per program behind the solver's
stacked interface, so that tests can patch it in for _Scaling.
"""

import math

import numpy as np

from dpconic.solver import _ON_BOUNDARY, NumericalBreakdown


def _jdot(u, v):
    return u[0] * v[0] - u[1:] @ v[1:]


def _jnrm2(u):
    return math.sqrt(max(_jdot(u, u), 0.0))


class PerBlockScaling:
    """Nesterov-Todd scaling W with W z = W^{-T} s = lambda (W symmetric).

    lam is the scaled point, which compute sets and update moves in place.
    """

    def __init__(self, lay):
        self.lay = lay
        self.d = np.ones(lay.l)
        self.betas = [1.0] * len(lay.q_dims)
        self.vs = [np.eye(d, 1).ravel() for d in lay.q_dims]

    def compute(self, s, z):
        lay = self.lay
        lam = self.lam = np.zeros(lay.m_cone)
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

    def update(self, s_new, z_new):
        """NT update from new iterates expressed in the current scaling."""
        lay, lam = self.lay, self.lam
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

    def jordan_div(self, x):
        """Solve lam o u = x for u."""
        lay, lam = self.lay, self.lam
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

    def max_step_to_boundary(self, d):
        """sup {alpha >= 0 : lam + alpha d in cone}, for interior lam."""
        lay, lam = self.lay, self.lam
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


class PerBlockStack:
    """The stacked interface of solver._Scaling over one PerBlockScaling per
    program.  lam is one array whose rows the per-program scalings share."""

    def __init__(self, lay):
        self.lay = lay
        nb = lay.G.shape[0]
        self.refs = [PerBlockScaling(lay) for _ in range(nb)]
        self.lam = np.zeros((nb, lay.m_cone))
        self._share_lam()

    def _share_lam(self):
        for ref, row in zip(self.refs, self.lam):
            ref.lam = row

    def take(self, keep):
        self.refs = [self.refs[k] for k in keep]
        self.lam = self.lam[keep]
        self._share_lam()

    def _check_blocks(self, s, z):
        """NumericalBreakdown for the programs with a zero J-norm block,
        before any state changes, as the solver's _Scaling does."""
        bad = np.array([any(_jnrm2(si[sl]) <= 0.0 or _jnrm2(zi[sl]) <= 0.0
                            for sl in self.lay.q_slices) for si, zi in zip(s, z)])
        if bad.any():
            raise NumericalBreakdown(_ON_BOUNDARY, bad)

    def _rows(self, method, *stacks):
        return np.array([getattr(ref, method)(*args)
                         for ref, *args in zip(self.refs, *stacks)])

    def compute(self, s, z):
        self._check_blocks(s, z)
        self.lam = self._rows("compute", s, z).reshape(s.shape)
        self._share_lam()
        return self.lam

    def update(self, s_new, z_new):
        self._check_blocks(s_new, z_new)
        for ref, s, z in zip(self.refs, s_new, z_new):
            ref.update(s, z)

    def apply(self, x, inverse=False):
        return np.array([ref.apply(u, inverse) for ref, u in zip(self.refs, x)])

    def apply_matrix(self, B, inverse=False):
        return np.array([ref.apply_matrix(M, inverse) for ref, M in zip(self.refs, B)])

    def jordan_prod(self, a, b):
        return self._rows("jordan_prod", a, b)

    def jordan_div(self, x):
        return self._rows("jordan_div", x)

    def max_residual_step(self, u):
        return self._rows("max_residual_step", u)

    def max_step_to_boundary(self, d):
        return self._rows("max_step_to_boundary", d)
