"""Primal-dual interior-point solver for the standard-form conic program.

Homogeneous self-dual embedding with Nesterov-Todd scaling and a Mehrotra
predictor-corrector step, over Zero / NonNeg / SecondOrder cones
(RotatedSecondOrder rows are rotated to SecondOrder internally).  Zero-cone
rows are carried as equality constraints.  Each iteration factors the
scaled KKT system (see _factor_kkt) with static quasi-definite
regularization, and one step of iterative refinement on the full Newton
system absorbs the regularization.  A dense LP with more cone rows than
variables solves the reduced (n+p) normal equations by one stacked gesv;
any other program LU-factors the unsquared (n+p+m) system by LAPACK's
getrf, or by SuperLU for a large KKT matrix with few structural nonzeros
(_SparseKKT; the privatized SVM and ellipsoid).
A program's A may be dense or CSR.  A stack factored densely holds its cone
rows G densely; a stack factored sparsely holds G in pattern form
(_PatternG: CSR values for the NonNeg rows, a dense sub-block over the
touched columns for each SOC block) and never builds it densely, so every
step of its iteration costs what its nonzeros cost.

solve_batch runs one iteration over a stack of programs of one shape (the
same n and cone blocks; A, b and c differ).  Every array carries a leading
program axis, per-program scalars (tau, kappa, the step, the merit, the best
iterate, the stall counters) are length-B arrays, and a program leaves the
stack at its own exit.  solve is the one-program case.  Results do not
depend on how programs are batched:

* every reduction is, per program, the BLAS or LAPACK call a one-program
  stack makes: a row dot, gemv or gemm through stacked ``np.matmul``, a
  norm as the square root of that dot (what ``np.linalg.norm`` computes),
  LAPACK getrf/getrs (or SuperLU's factor and solve, or the stacked gesv
  of ``np.linalg.solve``) once per program;
* a program that may be factored sparsely is stacked only with programs of
  its nonzero pattern, so its sparse structure is the one it has alone;
* every other operation is the same elementwise IEEE operation in the same
  order, and the scalar rules keep Python float semantics (_pymin, _pymax,
  _pypow: how min and max treat a NaN, ``**`` through C pow).

_Scaling holds the NT scaling and the cone algebra (scaling update, W and
W^{-1} products, Jordan product and division, step to the boundary).  It
does the row-wise work once over all SOC rows and the block dot products as
one stacked matmul per distinct block dimension (a slice dot for a dimension
that holds one block), with the same BLAS dot (or gemv) call per block as a
per-block ``u @ v``, so the iterates do not depend on how the blocks are
grouped either.

Everything is plain numpy, LAPACK and SuperLU, so identical inputs produce
bit-identical iterates on a given platform.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from numpy.linalg import LinAlgError, solve as gesv
from scipy.linalg.lapack import dgetrf, dgetrs

from .conic import (
    ConeKind,
    ConicProgram,
    Residuals,
    Solution,
    Status,
    _row_dots as _dot,
    as_dense,
)

_SQRT2 = math.sqrt(2.0)
_STEP = 0.99          # fraction of the distance to the cone boundary
_EXPON = 3            # Mehrotra centering exponent
_PLUS_MINUS = np.array([[-1.0], [1.0]])
_REGULARIZATION = 1e-9    # static KKT diagonal perturbation
_REFINEMENT = 1           # iterative refinement steps per Newton solve
_INFEASIBILITY_THRESHOLD = 1e-8
# accept the best iterate once progress has stalled for _STALL_ITERS
# iterations within _STALL_GRACE times tol
_STALL_GRACE = 10.0
_STALL_ITERS = 6
# the working set of one solve_batch sub-batch, the stack_bytes of its
# programs, stays within this many bytes; estimate_sensitivity hands
# solve_batch no more than this at a time
KKT_BATCH_BYTES = 4 << 20
# a layout factors its KKT matrix K sparsely (_SparseKKT) when K has order
# N >= _SPARSE_MIN_ORDER and at most _SPARSE_MAX_DENSITY N^2 structural
# nonzeros, and densely (getrf) otherwise.  Measured per factor plus five
# solves on a 2-core Xeon, dense / sparse: the privatized ellipsoid (N 1318,
# density 0.009) 33.5 / 2.0 ms; a sample-CVaR epigraph of the cvar6 OPF
# (a test program) at 600, 300, 200 and 100 draws (N 1881, 981, 681, 381;
# density 0.006 to 0.029) 104 / 6.5, 22.8 / 6.1, 9.3 / 6.4 and 2.6 / 2.7
# ms; the SVM base (N 308, 0.014) 1.3 / 1.0 ms; the privatized SVM
# (N 1208, 0.0069) 33.7 / 3.1 ms.
# Below N = 500 a factor costs a few ms either way.  Unstructured sparse
# programs fill in under SuperLU's COLAMD ordering and go slower: random
# NonNeg LPs with N 1000 and density 0.009 took 28.5 / 115 ms.
_SPARSE_MIN_ORDER = 500
_SPARSE_MAX_DENSITY = 0.04


class NumericalBreakdown(RuntimeError):
    """The iteration cannot go on: a singular or non-finite KKT system, or
    an SOC block of s or z with a zero J-norm, which the NT scaling divides
    by (an iterate on the cone's boundary, as at an apex optimum).

    rows, when set, marks the programs of the stack that broke down; the
    solver ends only those."""

    def __init__(self, msg: str, rows: np.ndarray | None = None):
        super().__init__(msg)
        self.rows = rows


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


def stack_bytes(program: ConicProgram) -> int:
    """The bytes a program takes in a stack: its KKT matrix, of order n + m,
    and 4 KiB for its vectors, LAPACK handles and Solution, which is most of
    what a small program takes (the simple LP's KKT matrix is 72 bytes).
    The matrix is counted dense even where it is factored sparsely, so a
    program large enough for the sparse factor fills a sub-batch alone."""
    return 8 * (program.n + program.m) ** 2 + 4096


def _rotate(x, axis=0):
    """Orthogonal involution mapping RSOC data to SOC data (and back): the
    first two entries along axis."""
    out = np.array(x, dtype=float, copy=True)
    y = np.moveaxis(out, axis, 0)
    u, v = y[0].copy(), y[1].copy()
    y[0] = (u + v) / _SQRT2
    y[1] = (u - v) / _SQRT2
    return out


def _mv(M, v):
    """M_i @ v_i for each program i: one BLAS gemv per program."""
    return np.matmul(M, v[:, :, None])[:, :, 0]


def _norm(v):
    """np.linalg.norm of each row: the square root of its dot."""
    return np.sqrt(_dot(v, v))


def _pymax(a, b):
    """Python's max(a, b) entrywise: b only where b > a, so a NaN b loses."""
    return np.where(b > a, b, a)


def _pymin(a, b):
    """Python's min(a, b) entrywise: b only where b < a."""
    return np.where(b < a, b, a)


def _pypow(a, k):
    """a ** k entrywise in Python float math, which calls C pow."""
    return np.array([x**k for x in a.tolist()])


def _ratio(num, den):
    """num / -den where den < 0, inf elsewhere (and no division there); an
    overflow gives inf silently, as Python float division does."""
    with np.errstate(over="ignore"):
        return np.divide(num, -den, out=np.full(den.shape, np.inf), where=den < 0)


class _Layout:
    """Permutes the rows of same-shape programs into [equalities | nonneg |
    SOC blocks] and stacks their data along a leading program axis.

    Aeq is dense, (nb, p, n).  G, the cone rows, is held in one of two forms,
    fixed here with the KKT factor (see _PatternG.of): a dense (nb, m_cone, n)
    array when K is factored densely, and the pattern form (_PatternG) when
    it is factored sparsely.  A layout in pattern form never builds a dense
    G: its program's A may be CSR from end to end.
    """

    def __init__(self, programs):
        first = programs[0]
        eq_rows, l_rows, q_specs = [], [], []
        for blk, start in first.cones.offsets():
            rows = list(range(start, start + blk.dim))
            if blk.kind == ConeKind.ZERO:
                eq_rows.extend(rows)
            elif blk.kind == ConeKind.NONNEG:
                l_rows.extend(rows)
            else:
                q_specs.append((rows, blk.kind == ConeKind.RSOC))

        b = np.stack([p.b for p in programs])
        self.n = first.n
        self.eq_rows = np.array(eq_rows, dtype=int)
        self.l = len(l_rows)
        self.q_dims = [len(rows) for rows, _ in q_specs]
        self.q_rsoc = [is_rsoc for _, is_rsoc in q_specs]
        self.cone_rows = np.array(l_rows + [r for rows, _ in q_specs for r in rows],
                                  dtype=int)
        self.m_cone = self.cone_rows.size
        self.p = self.eq_rows.size

        def cone_part(X):
            # np.take keeps every stacked matrix C-ordered, so each program's
            # BLAS calls see the strides of a one-program stack (indexing
            # X[:, rows] would put the program axis innermost)
            parts = [np.take(X, np.array(l_rows, dtype=int), axis=1)]
            for rows, is_rsoc in q_specs:
                blk = np.take(X, rows, axis=1)
                parts.append(_rotate(blk, 1) if is_rsoc else blk)
            return np.concatenate(parts, axis=1)

        self.beq = np.take(b, self.eq_rows, axis=1)
        self.h = cone_part(b)

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

        pattern = None
        if self.n + first.m >= _SPARSE_MIN_ORDER:
            pattern = _PatternG.of(programs, self)
        if pattern is None:
            A = np.stack([as_dense(p.A) for p in programs])
            self.Aeq = np.take(A, self.eq_rows, axis=1)
            self.G = cone_part(A)
            self.kkt = None
        else:
            self.Aeq, self.G = pattern
            self.kkt = _SparseKKT(self)
        # _factor_kkt's reduced form, and its matrices' constant part once built
        self.reduced = self.kkt is None and not self.q_dims and self.m_cone > self.n
        self.template = None

    def take(self, keep):
        """Keep the programs whose stack rows are in keep (an index array)."""
        self.Aeq, self.beq = self.Aeq[keep], self.beq[keep]
        self.G, self.h = self.G[keep], self.h[keep]
        self.template = None

    def Gx(self, x):
        """G_i @ x_i for each program i."""
        return _mv(self.G, x) if self.kkt is None else self.G.mv(x)

    def Gtz(self, z):
        """G_i' @ z_i for each program i."""
        return _mv(self.G.transpose(0, 2, 1), z) if self.kkt is None else self.G.rmv(z)


def _entries(A):
    """(rows, cols, values) of the nonzeros of a dense or CSR A, row-major."""
    if sp.issparse(A):
        return np.repeat(np.arange(A.shape[0]), np.diff(A.indptr)), A.indices, A.data
    rows, cols = np.nonzero(A)
    return rows, cols, A[rows, cols]


class _PatternG:
    """The cone rows G of a sparse layout in pattern form: the stored values
    and where they sit.

    vals holds one row per program: the entries of the NonNeg rows in CSR
    order, then one dense sub-block per SOC dimension group (the groups of
    _Scaling, in ascending dimension), shaped (nblk, dim, kmax) over the
    columns each block touches and padded with zero entries, whose column
    reads 0.  erow and ecol give each stored entry's cone row and column,
    real marks the entries that are not padding.  The pattern is the
    nonzero pattern the stack's programs share (solve_batch stacks a
    program of this size only with programs of its pattern), an SOC block's
    union over its rows, which is the sparse K's pattern of Gs = W^{-1} G.

    Every operation runs on the stored values: row and column maxima for the
    equilibration, the scaled G, W^{-1} G (_Scaling.apply_matrix), G x and
    G' z.  Each derived G is a new vals over the same pattern.
    """

    @classmethod
    def of(cls, programs, lay):
        """(Aeq, G) of the layout's programs when their K is sparse enough
        for SuperLU (at most _SPARSE_MAX_DENSITY N^2 structural nonzeros),
        else None."""
        n, m, nb = lay.n, programs[0].m, len(programs)
        N = n + m
        rows, cols, _ = _entries(programs[0].A)
        values = np.stack([_entries(p.A)[2] for p in programs])

        # where each entry goes: an equality row, a NonNeg row or an SOC block
        eq_pos = np.full(m, -1)
        eq_pos[lay.eq_rows] = np.arange(lay.p)
        cone_pos = np.full(m, -1)
        cone_pos[lay.cone_rows] = np.arange(lay.m_cone)
        at_eq, cp = eq_pos[rows], cone_pos[rows]
        is_eq, is_l, is_q = at_eq >= 0, (cp >= 0) & (cp < lay.l), cp >= lay.l
        dims = np.array(lay.q_dims, dtype=int)
        heads = np.cumsum(dims) - dims
        qblk = np.repeat(np.arange(dims.size), dims)[cp[is_q] - lay.l]
        qrow = cp[is_q] - lay.l - heads[qblk]

        # the columns each SOC block touches, as sorted (block, column) keys;
        # K holds every one of them in each row of the block
        pair = np.unique(qblk * n + cols[is_q])
        pblk, pcol = np.divmod(pair, n)
        touched = np.bincount(pblk, minlength=dims.size)
        first = np.cumsum(touched) - touched
        pslot = np.arange(pair.size) - first[pblk]      # a pair's place in its block
        nl = int(np.count_nonzero(is_l))
        nnz = N + 2 * (int(np.count_nonzero(is_eq)) + nl + int(touched @ dims))
        if nnz > _SPARSE_MAX_DENSITY * N * N:
            return None

        Aeq = np.zeros((nb, lay.p, n))
        Aeq[:, at_eq[is_eq], cols[is_eq]] = values[:, is_eq]

        # each block's offset into vals, place in its group and kmax
        goff, gpos, gk = (np.zeros(dims.size, dtype=int) for _ in range(3))
        erow, ecol, real = [cp[is_l]], [cols[is_l]], [np.ones(nl, dtype=bool)]
        G = cls()
        G.shapes, off = [], nl
        for dim in sorted(set(lay.q_dims)):
            blocks = np.flatnonzero(dims == dim)
            kmax = int(touched[blocks].max())
            goff[blocks], gpos[blocks], gk[blocks] = off, np.arange(blocks.size), kmax
            gcols = np.zeros((blocks.size, kmax), dtype=int)
            mine = dims[pblk] == dim
            gcols[gpos[pblk[mine]], pslot[mine]] = pcol[mine]
            shape = (blocks.size, dim, kmax)
            grow = lay.l + heads[blocks, None] + np.arange(dim)
            erow.append(np.broadcast_to(grow[:, :, None], shape).ravel())
            ecol.append(np.broadcast_to(gcols[:, None, :], shape).ravel())
            real.append(np.broadcast_to(
                (np.arange(kmax) < touched[blocks, None])[:, None, :], shape).ravel())
            G.shapes.append((off, shape, blocks))
            off += blocks.size * dim * kmax
        G.vals = np.zeros((nb, off))
        G.vals[:, :nl] = values[:, is_l]
        slot = np.searchsorted(pair, qblk * n + cols[is_q]) - first[qblk]
        G.vals[:, goff[qblk] + (gpos[qblk] * dims[qblk] + qrow) * gk[qblk] + slot] = \
            values[:, is_q]
        rsoc = np.array(lay.q_rsoc, dtype=bool)
        for (_, _, blocks), Gg in zip(G.shapes, G.groups(G.vals)):
            rs = np.flatnonzero(rsoc[blocks])
            if rs.size:
                Gg[:, rs] = _rotate(Gg[:, rs], 2)

        G.erow, G.ecol, G.real = (np.concatenate(x) for x in (erow, ecol, real))
        G.m, G.n, G.l, G.nl, G.nq = lay.m_cone, n, lay.l, nl, dims.size
        G.lrow = G.erow[:nl]
        lcount = np.bincount(G.lrow, minlength=lay.l)
        G.lrows_nz = np.flatnonzero(lcount)
        G.lstart = (np.cumsum(lcount) - lcount)[G.lrows_nz]
        G.col_order = np.argsort(G.ecol, kind="stable")
        G.cols_nz, G.col_start = np.unique(G.ecol[G.col_order], return_index=True)
        return Aeq, G

    def like(self, vals):
        """A G with these values over the same pattern."""
        out = copy.copy(self)
        out.vals = vals
        return out

    def __getitem__(self, keep):
        return self.like(self.vals[keep])

    def groups(self, vals):
        """Views of the SOC groups of a stack of values, each (nb, nblk, dim,
        kmax)."""
        return [vals[:, off : off + math.prod(shape)].reshape(len(vals), *shape)
                for off, shape, _ in self.shapes]

    def scaled(self, r, s):
        """The values of diag(r) G diag(s), per program."""
        return (self.vals * np.take(r, self.erow, axis=1)) * np.take(s, self.ecol, axis=1)

    def row_max(self, absvals):
        """Per program, the largest of absvals in each NonNeg row and then in
        each SOC block: (nb, l + blocks)."""
        out = np.zeros((len(absvals), self.l + self.nq))
        if self.lrows_nz.size:
            out[:, self.lrows_nz] = np.maximum.reduceat(absvals[:, : self.nl],
                                                        self.lstart, axis=1)
        for (_, _, blocks), Ag in zip(self.shapes, self.groups(absvals)):
            out[:, self.l + blocks] = Ag.max(axis=(2, 3), initial=0.0)
        return out

    def col_max(self, absvals):
        """Per program, the largest of absvals in each column: (nb, n)."""
        out = np.zeros((len(absvals), self.n))
        if self.cols_nz.size:
            out[:, self.cols_nz] = np.maximum.reduceat(
                np.take(absvals, self.col_order, axis=1), self.col_start, axis=1)
        return out

    def mv(self, x):
        """G_i @ x_i for each program i."""
        return self._sum_into(self.erow, self.m, self.vals * np.take(x, self.ecol, axis=1))

    def rmv(self, z):
        """G_i' @ z_i for each program i."""
        return self._sum_into(self.ecol, self.n, self.vals * np.take(z, self.erow, axis=1))

    @staticmethod
    def _sum_into(at, size, w):
        """Per program i, the sums of w_i's entries at each index of at."""
        nb = len(w)
        idx = (np.arange(nb)[:, None] * size + at).ravel()
        return np.bincount(idx, weights=w.ravel(), minlength=nb * size).reshape(nb, size)


def _pow2(v):
    """Round positive factors to powers of two so scaling is exact in fp."""
    return np.exp2(np.round(np.log2(v)))


class _Equilibration:
    """Block-aware Ruiz scaling of the layout, plus cost/rhs normalization.

    Rows in the same SOC block share one factor (cone membership is
    invariant under a common positive row scale); Zero and NonNeg rows
    scale individually.  Factors are powers of two.  A round that leaves
    every row and column factor of a program at exactly 1 leaves its r and s
    unchanged, so every later round repeats it: the loop stops once that
    holds for every program.
    """

    def __init__(self, lay: _Layout, c: np.ndarray, rounds: int = 8):
        p = lay.p
        # contiguous row groups: each eq row, each l row, each q block
        sizes = np.concatenate([np.ones(p + lay.l, dtype=int),
                                np.array(lay.q_dims, dtype=int)])
        starts = np.cumsum(sizes) - sizes
        if lay.kkt is None:
            M = np.concatenate([lay.Aeq, lay.G], axis=1)

            def row_max(r, s):
                Ms = (M * r[:, :, None]) * s[:, None, :]
                return np.maximum.reduceat(np.abs(Ms).max(axis=2), starts, axis=1)

            def col_max(r, s):
                return np.abs((M * r[:, :, None]) * s[:, None, :]).max(axis=1)
        else:
            # the same maxima, taken over Aeq and G's stored values apart
            Aeq, G = lay.Aeq, lay.G

            def eq_abs(r, s):
                return np.abs((Aeq * r[:, :p, None]) * s[:, None, :])

            def row_max(r, s):
                return np.concatenate([eq_abs(r, s).max(axis=2),
                                       G.row_max(np.abs(G.scaled(r[:, p:], s)))], axis=1)

            def col_max(r, s):
                return np.maximum(eq_abs(r, s).max(axis=1, initial=0.0),
                                  G.col_max(np.abs(G.scaled(r[:, p:], s))))
        r = np.ones((len(c), p + lay.m_cone))
        s = np.ones(c.shape)
        for _ in range(rounds):
            gmx = row_max(r, s)
            nz = gmx > 0
            f = np.ones(gmx.shape)
            f[nz] = _pow2(1.0 / np.sqrt(gmx[nz]))
            r *= np.repeat(f, sizes, axis=1)
            cmx = col_max(r, s)
            nz = cmx > 0
            g = np.ones(cmx.shape)
            g[nz] = _pow2(1.0 / np.sqrt(cmx[nz]))
            s *= g
            if (f == 1.0).all() and (g == 1.0).all():
                break
        self.r_eq, self.r_cone = r[:, :p], r[:, p:]
        self.s = s
        b_all = np.concatenate([lay.beq * self.r_eq, lay.h * self.r_cone], axis=1)
        self.g_b = _pow2(1.0 / _pymax(1.0, np.abs(b_all).max(axis=1, initial=0.0)))
        self.g_c = _pow2(1.0 / _pymax(1.0, np.abs(c * s).max(axis=1, initial=0.0)))

    def scale_layout(self, lay: _Layout, c: np.ndarray) -> np.ndarray:
        g_b = self.g_b[:, None]
        lay.Aeq = lay.Aeq * self.r_eq[:, :, None] * self.s[:, None, :]
        lay.beq = lay.beq * self.r_eq * g_b
        if lay.kkt is None:
            lay.G = lay.G * self.r_cone[:, :, None] * self.s[:, None, :]
        else:
            lay.G = lay.G.like(lay.G.scaled(self.r_cone, self.s))
        lay.h = lay.h * self.r_cone * g_b
        return c * self.s * self.g_c[:, None]

    def unscale(self, i, x, y_eq, z):
        """Program i's (x, y_eq, z) in the units of its data."""
        return (self.s[i] * x / self.g_b[i], self.r_eq[i] * y_eq / self.g_c[i],
                self.r_cone[i] * z / self.g_c[i])


class _Scaling:
    """Nesterov-Todd scaling W with W z = W^{-T} s = lambda (W symmetric),
    for every program of the stack.

    d scales the NonNeg rows.  v holds one row per program over the SOC
    rows and beta one entry per program and block, with W = beta (2 v v' - J)
    per SOC block.  lam is the scaled point, which compute sets and update
    moves in place.  Row-wise arithmetic runs once over all SOC rows; block
    dot products run per distinct block dimension (see _blockdot).  The
    result of every method is, per program, the one a walk over the blocks
    in Python float math and per-block ``u @ v`` gives, to the last bit; a
    reordered reduction would not be.  compute and update check every block before
    they change any state, and raise NumericalBreakdown with the rows that
    reached the cone's boundary.
    """

    def __init__(self, lay: _Layout):
        self.lay = lay
        nb = len(lay.h)
        dims = np.array(lay.q_dims, dtype=int)
        heads = np.cumsum(dims) - dims
        self.heads = heads                              # relative to SOC rows
        self.blk = np.repeat(np.arange(dims.size), dims)  # block of each SOC row
        self.jsign = np.full(int(dims.sum()), -1.0)     # diagonal of J per row
        self.jsign[heads] = 1.0
        self.d = np.ones((nb, lay.l))
        self.beta = np.ones((nb, dims.size))
        self.v = np.tile((self.jsign > 0).astype(float), (nb, 1))
        self.lam = np.zeros((nb, lay.m_cone))
        self.lam_head = np.zeros((nb, dims.size))
        self.lam_det = np.zeros((nb, dims.size))
        # (blocks, rows (nblk, dim), slice when the rows are one contiguous run)
        self.groups = []
        # _blockdot's work for first = 0 and 1: (block, slice) for a
        # dimension with one block, (blocks, row indices (nblk, dim - first))
        # otherwise
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

    def take(self, keep):
        """Keep the programs whose stack rows are in keep (an index array)."""
        self.d, self.beta, self.v = self.d[keep], self.beta[keep], self.v[keep]
        self.lam = self.lam[keep]
        self.lam_head, self.lam_det = self.lam_head[keep], self.lam_det[keep]

    def _blockdot(self, u, w, first=0):
        """Per program and block, u_k[first:] @ w_k[first:] of two stacks of
        SOC-row vectors.

        A dimension with one block takes a slice dot, the others one stacked
        matmul over rows gathered in C order; numpy makes the same BLAS dot
        call, with unit strides, per block either way.
        """
        out = np.empty((u.shape[0], self.beta.shape[1]))
        for k, r in self.dot_plan[first]:
            if type(r) is slice:
                out[:, k] = np.matmul(u[:, None, r], w[:, r, None])[:, 0, 0]
            else:
                out[:, k] = np.matmul(np.take(u, r, axis=1)[:, :, None, :],
                                      np.take(w, r, axis=1)[:, :, :, None])[..., 0, 0]
        return out

    def _jdot(self, u, w):
        h = self.heads
        return u[:, h] * w[:, h] - self._blockdot(u, w, 1)

    def _jnrm2(self, u):
        return np.sqrt(np.maximum(self._jdot(u, u), 0.0))

    def _jnorms(self, sq, zq):
        """J-norms of the SOC blocks of s and z; raises NumericalBreakdown
        for the programs where one of them is 0."""
        aa, bb = self._jnrm2(sq), self._jnrm2(zq)
        bad = ((aa <= 0.0) | (bb <= 0.0)).any(axis=1)
        if bad.any():
            raise NumericalBreakdown(_ON_BOUNDARY, bad)
        return aa, bb

    def compute(self, s, z):
        lay, h, b = self.lay, self.heads, self.blk
        l = lay.l
        if self.groups:
            sq, zq = s[:, l:], z[:, l:]
            aa, bb = self._jnorms(sq, zq)
        lam = self.lam = np.zeros(s.shape)
        self.d = np.sqrt(s[:, :l] / z[:, :l])
        lam[:, :l] = np.sqrt(s[:, :l] * z[:, :l])
        if not self.groups:
            return lam
        self.beta = np.sqrt(aa / bb)
        cc = np.sqrt((self._blockdot(sq, zq) / (aa * bb) + 1.0) / 2.0)
        sa, zb = sq / aa[:, b], zq / bb[:, b]
        v = zb * self.jsign + sa
        v /= (2.0 * cc)[:, b]
        v[:, h] += 1.0
        v /= np.sqrt(2.0 * v[:, h])[:, b]
        self.v = v
        dd = 2.0 * cc + sa[:, h] + zb[:, h]
        lq = ((cc + zb[:, h]) / dd)[:, b] * sa + ((cc + sa[:, h]) / dd)[:, b] * zb
        lq[:, h] = cc
        lam[:, l:] = lq * np.sqrt(aa * bb)[:, b]
        self._lam_blocks()
        return lam

    def _lam_blocks(self):
        """The per-block head and J-norm^2 of lam, which every jordan_div
        and max_step_to_boundary reads."""
        lq = self.lam[:, self.lay.l:]
        self.lam_head = lq[:, self.heads]
        self.lam_det = self.lam_head * self.lam_head - self._blockdot(lq, lq, 1)

    def update(self, s_new, z_new):
        """NT update from new iterates expressed in the current scaling."""
        h, b, v, lam = self.heads, self.blk, self.v, self.lam
        l = self.lay.l
        if self.groups:
            st, zt = s_new[:, l:], z_new[:, l:]
            aa, bb = self._jnorms(st, zt)
        ssq = np.sqrt(s_new[:, :l])
        zsq = np.sqrt(z_new[:, :l])
        self.d *= ssq / zsq
        lam[:, :l] = ssq * zsq
        if not self.groups:
            return
        sb, zb = st / aa[:, b], zt / bb[:, b]
        cc = np.sqrt((1.0 + self._blockdot(sb, zb)) / 2.0)
        c2 = 2.0 * cc
        vs = self._blockdot(v, sb)
        vz = self._jdot(v, zb)
        vq = (vs + vz) / c2
        vu = vs - vz
        wk0 = 2.0 * v[:, h] * vq - (sb[:, h] + zb[:, h]) / c2
        dd = (v[:, h] * vu - sb[:, h] / 2.0 + zb[:, h] / 2.0) / (wk0 + 1.0)
        lq = (
            (2.0 * (-dd * vq + 0.5 * vu))[:, b] * v
            + (0.5 * (1.0 - dd / cc))[:, b] * sb
            + (0.5 * (1.0 + dd / cc))[:, b] * zb
        )
        lq[:, h] = cc
        lam[:, l:] = lq * np.sqrt(aa * bb)[:, b]
        vn = (2.0 * vq)[:, b] * v
        vn -= (sb / c2[:, b]) * self.jsign
        vn -= zb / c2[:, b]
        vn[:, h] += 1.0
        vn /= np.sqrt(2.0 * vn[:, h])[:, b]
        self.v = vn
        self.beta = self.beta * np.sqrt(aa / bb)
        self._lam_blocks()

    def apply(self, x, inverse=False):
        """W x (or W^{-1} x)."""
        l, b, v, js = self.lay.l, self.blk, self.v, self.jsign
        out = np.empty(x.shape)
        out[:, :l] = x[:, :l] / self.d if inverse else x[:, :l] * self.d
        if not self.groups:
            return out
        u = x[:, l:]
        if inverse:
            w = (2.0 * self._blockdot(v, u * js))[:, b] * v - u
            out[:, l:] = w * js / self.beta[:, b]
        else:
            w = (2.0 * self._blockdot(v, u))[:, b] * v
            out[:, l:] = self.beta[:, b] * (w - u * js)
        return out

    def apply_matrix(self, B, inverse=False):
        """Blockwise W (or W^{-1}) applied to the rows of a stack of matrices,
        or of a G in pattern form (a _PatternG, whose SOC groups hold only the
        columns their blocks touch; the result is a _PatternG).

        A group whose rows form one run is read and written through views,
        so no temporary of B's size is made.
        """
        l = self.lay.l
        if isinstance(B, _PatternG):
            out = np.empty(B.vals.shape)
            d = np.take(self.d, B.lrow, axis=1)
            Bl = B.vals[:, : B.nl]
            out[:, : B.nl] = Bl / d if inverse else Bl * d
            for (blocks, rows, _), Bg, Og in zip(self.groups, B.groups(B.vals),
                                                 B.groups(out)):
                self._apply_group(blocks, rows, Bg, Og, inverse)
            return B.like(out)
        out = np.empty(B.shape)
        if inverse:
            out[:, :l] = B[:, :l] / self.d[:, :, None]
        else:
            out[:, :l] = B[:, :l] * self.d[:, :, None]
        Bq, Oq = B[:, l:], out[:, l:]
        for blocks, rows, span in self.groups:
            shape = B.shape[:1] + rows.shape + B.shape[2:]
            if span is None:
                Bg, Og = np.take(Bq, rows, axis=1), np.empty(shape)
            else:
                Bg, Og = Bq[:, span].reshape(shape), Oq[:, span].reshape(shape)
            self._apply_group(blocks, rows, Bg, Og, inverse)
            if span is None:
                Oq[:, rows] = Og
        return out

    def _apply_group(self, blocks, rows, Bg, Og, inverse):
        """W (or W^{-1}) on one group's blocks of rows, Bg (nb, nblk, dim,
        columns), into Og."""
        V = np.take(self.v, rows, axis=1)
        beta = self.beta[:, blocks][:, :, None, None]
        # v @ (J blk) == (J v) @ blk: sign flips are exact
        T = np.matmul((V * self.jsign[rows] if inverse else V)[:, :, None, :], Bg)
        np.multiply(V[:, :, :, None], T, out=Og)
        Og *= 2.0
        if inverse:
            Og -= Bg
            Og[:, :, 1:] *= -1.0
            Og /= beta
        else:
            Og[:, :, 0] -= Bg[:, :, 0]
            Og[:, :, 1:] += Bg[:, :, 1:]
            Og *= beta

    def jordan_prod(self, a, b):
        h, bl = self.heads, self.blk
        l = self.lay.l
        out = np.empty(a.shape)
        out[:, :l] = a[:, :l] * b[:, :l]
        if not self.groups:
            return out
        aq, bq = a[:, l:], b[:, l:]
        oq = aq[:, h][:, bl] * bq + bq[:, h][:, bl] * aq
        oq[:, h] = self._blockdot(aq, bq)
        out[:, l:] = oq
        return out

    def jordan_div(self, x):
        """Solve lam o u = x for u."""
        h, b, lam = self.heads, self.blk, self.lam
        l = self.lay.l
        out = np.empty(x.shape)
        out[:, :l] = x[:, :l] / lam[:, :l]
        if not self.groups:
            return out
        lq, xq, lh = lam[:, l:], x[:, l:], self.lam_head
        u0 = (lh * xq[:, h] - self._blockdot(lq, xq, 1)) / self.lam_det
        oq = (xq - u0[:, b] * lq) / lh[:, b]
        oq[:, h] = u0
        out[:, l:] = oq
        return out

    def max_residual_step(self, u):
        """Per program, min t with u + t*e in the cone."""
        l = self.lay.l
        uq = u[:, l:]
        t = np.max(np.sqrt(self._blockdot(uq, uq, 1)) - uq[:, self.heads], axis=1,
                   initial=-np.inf)
        if l:
            t = _pymax(t, -u[:, :l].min(axis=1))
        return t

    def max_step_to_boundary(self, d):
        """Per program, sup {alpha >= 0 : lam + alpha d in cone}, for interior lam."""
        l, h, lam = self.lay.l, self.heads, self.lam
        alpha = np.full(d.shape[0], np.inf)
        if l:
            # an empty or NaN-holding ratio leaves alpha at inf, as min(inf, .)
            alpha = _pymin(alpha, _ratio(lam[:, :l], d[:, :l]).min(axis=1))
        if not self.groups:
            return alpha
        lq, dq = lam[:, l:], d[:, l:]
        lh, dh = self.lam_head, dq[:, h]
        # the roots of f0 + 2 f1 t + f2 t^2, the J-norm^2 of lam + t d
        f0 = self.lam_det
        f1 = lh * dh - self._blockdot(lq, dq, 1)
        f2 = dh * dh - self._blockdot(dq, dq, 1)
        lin = np.abs(f2) < 1e-300
        with np.errstate(all="ignore"):
            # (-f1 - sq) / f2 and (-f1 + sq) / f2, NaN where the disc is < 0;
            # where f2 is 0 the one root of the linear equation instead
            sq = np.sqrt(f1 * f1 - f0 * f2)[:, None]
            roots = (_PLUS_MINUS * sq - f1[:, None]) / f2[:, None]
            linear = np.where(lin & (f1 < 0), -f0 / (2.0 * f1), np.nan)
            roots = np.concatenate([np.where(lin[:, None], np.nan, roots),
                                    linear[:, None]], axis=1)
            alpha = _pymin(alpha, np.min(roots, axis=(1, 2), where=roots > 0, initial=np.inf))
            # fmin skips NaN like the per-block min(alpha, .)
            return _pymin(alpha, np.fmin.reduce(lh / -dh, axis=1, where=dh < 0,
                                                initial=np.inf))


class _SparseKKT:
    """The structure of a layout's scaled KKT matrix K, for SuperLU.

    The structural nonzeros of K are its diagonal, Aeq and Aeq', and Gs and
    Gs'.  A NonNeg row of Gs = W^{-1} G has the nonzeros of its row of G; W^{-1}
    mixes the rows of an SOC block, so each of the block's rows holds the
    columns that any row of the block touches: the real entries of the
    layout's _PatternG, which the stack shares.  indices and indptr hold it
    in CSC order, and perm takes the values [diagonal | Aeq | Gs's stored
    values] into that order: each entry of Aeq or Gs fills two places of K.
    Built once per layout, before any factor; take keeps it, since a subset
    of the stack shares the pattern.  _PatternG.of decides whether a layout
    is factored this way.
    """

    def __init__(self, lay: _Layout):
        n, p, G = lay.n, lay.p, lay.G
        N = self.order = n + p + lay.m_cone
        self.diag = np.concatenate([np.full(n, _REGULARIZATION),
                                    np.full(p, -_REGULARIZATION),
                                    np.full(lay.m_cone, -1.0 - _REGULARIZATION)])
        er, ec = np.nonzero((lay.Aeq != 0).any(axis=0))
        g_at = np.flatnonzero(G.real)
        gr, gc = G.erow[g_at], G.ecol[g_at]
        diag = np.arange(N)
        at_eq = N + er * n + ec           # into [diagonal | Aeq | Gs]
        at_g = N + p * n + g_at
        rows = np.concatenate([diag, n + er, ec, n + p + gr, gc])
        cols = np.concatenate([diag, ec, n + er, gc, n + p + gr])
        order = np.lexsort((rows, cols))
        self.indices = rows[order].astype(np.int32)
        self.indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(cols, minlength=N))]).astype(np.int32)
        self.perm = np.concatenate([diag, at_eq, at_eq, at_g, at_g])[order]

    def factor(self, Aeq: np.ndarray, Gs: _PatternG) -> list:
        """Per program, SuperLU's factor of its K, or None where SuperLU
        finds K exactly singular."""
        from scipy.sparse.linalg import splu

        nb, N = len(Aeq), self.order
        values = np.concatenate([np.broadcast_to(self.diag, (nb, N)),
                                 Aeq.reshape(nb, -1), Gs.vals], axis=1)
        factors = []
        for data in np.take(values, self.perm, axis=1):
            K = sp.csc_matrix((data, self.indices, self.indptr), shape=(N, N))
            try:
                lu = splu(K)
            except RuntimeError as exc:     # "Factor is exactly singular"
                if "singular" not in str(exc):
                    raise
                lu = None
            factors.append(lu)
        return factors


def _factor_kkt(lay: _Layout, W: _Scaling):
    """Factorizations of the scaled 3x3 KKT systems in unsquared form.

    With Gs = W^{-1} G and the scaled unknown zs = W uz, the system

        Aeq' uy + G' uz = bx,   Aeq ux = by,   G ux - W^2 uz = bz

    becomes [0 Aeq' Gs'; Aeq 0 0; Gs 0 -I] (ux, uy, zs) = (bx, by, W^{-1}bz),
    whose conditioning grows with cond(W) rather than cond(W)^2.  Returns
    solve(bx, by, bz) -> (ux, uy, zs = W uz), one row per program.

    Static quasi-definite regularization (+reg / -reg on the diagonal); the
    outer iterative refinement absorbs the perturbation.  The layout's shape,
    not a setting, picks the form (lay.kkt, see _PatternG.of; lay.reduced):

    * dense: K holds one matrix per program, each in Fortran order, so that
      LAPACK getrf factors it in place; getrs solves with it.  These are the
      calls, and the bytes, of scipy's lu_factor/lu_solve without their
      wrappers.
    * reduced, for a dense LP layout with more cone rows than variables:
      eliminating zs = (Gs ux - W^{-1}bz) / (1 + reg) from K
      leaves [reg I + Gs'Gs / (1 + reg), Aeq'; Aeq, -reg I] (ux, uy) =
      (bx + Gs' W^{-1}bz / (1 + reg), by), solved for the whole stack by one
      stacked gesv (numpy's linalg.solve) per solve.  A program whose
      Gs'Gs overflows takes the dense form for this factor instead.
    * sparse: SuperLU (scipy's splu, COLAMD ordering and partial pivoting)
      factors the same K, whose CSC values are gathered from Aeq and the
      stored values of Gs (pattern form, see _PatternG); no dense K or G is
      made.

    An exactly singular factor (getrf's info > 0, gesv's LinAlgError,
    splu's RuntimeError) or a non-finite solve raises NumericalBreakdown for
    its programs at the first solve.
    """
    n, p = lay.n, lay.p
    Gs = W.apply_matrix(lay.G, inverse=True)
    # Gs is the only part of K that changes, so checking it stands in
    # for a finiteness scan of all of K
    vals = Gs if lay.kkt is None else Gs.vals
    bad = ~np.isfinite(vals.reshape(len(vals), -1)).all(axis=1)
    if bad.any():
        raise NumericalBreakdown("non-finite scaled KKT block", bad)
    if lay.kkt is not None:
        lus = lay.kkt.factor(lay.Aeq, Gs)

        def backsolve(rhs, u):
            for i, lu in enumerate(lus):
                u[i] = np.nan if lu is None else lu.solve(rhs[i])
        parts = [backsolve]
    else:
        full, parts = np.arange(len(Gs)), []
        if lay.reduced:
            normal, full = _normal_backsolve(lay, Gs)
            parts.append(normal)
        if full.size:
            some = full.size < len(Gs)
            factors = [dgetrf(Ki, overwrite_a=True)[:2] for Ki in _kkt_matrices(
                lay.Aeq[full] if some else lay.Aeq, Gs[full] if some else Gs)]
            getrs = dgetrs

            def backsolve(rhs, u):
                for i, (lu, piv) in zip(full.tolist(), factors):
                    u[i] = getrs(lu, piv, rhs[i])[0]
            parts.append(backsolve)

    def solve(bx, by, bz):
        rhs = np.concatenate([bx, by, W.apply(bz, inverse=True)], axis=1)
        u = np.empty(rhs.shape)
        for backsolve in parts:
            backsolve(rhs, u)
        bad = ~np.isfinite(u).all(axis=1)
        if bad.any():
            raise NumericalBreakdown("singular KKT system", bad)
        return u[:, :n], u[:, n : n + p], u[:, n + p :]

    return solve


def _kkt_matrices(Aeq, Gs):
    """The regularized K of each program, each matrix in Fortran order."""
    nb, p, n = Aeq.shape
    N = n + p + Gs.shape[1]
    K = np.zeros((nb, N, N)).transpose(0, 2, 1)
    K[:, :n, n : n + p] = Aeq.transpose(0, 2, 1)
    K[:, n : n + p, :n] = Aeq
    K[:, :n, n + p :] = Gs.transpose(0, 2, 1)
    K[:, n + p :, :n] = Gs
    idx = np.arange(N)
    K[:, idx[:n], idx[:n]] = _REGULARIZATION
    K[:, idx[n : n + p], idx[n : n + p]] = -_REGULARIZATION
    K[:, idx[n + p :], idx[n + p :]] = -1.0 - _REGULARIZATION
    return K


def _normal_backsolve(lay, Gs):
    """(backsolve(rhs, u), full): the reduced form's solve, which writes its
    programs' rows of u, and the rows whose Gs'Gs overflows (see _factor_kkt)."""
    if lay.template is None:    # K without Gs, after the equilibration has scaled Aeq
        lay.template = _kkt_matrices(lay.Aeq, Gs[:, :0])
    M, n, p, reg1 = lay.template.copy(), lay.n, lay.p, 1.0 + _REGULARIZATION
    with np.errstate(over="ignore", invalid="ignore"):
        M[:, :n, :n] += np.matmul(Gs.transpose(0, 2, 1), Gs) / reg1
    ok = np.isfinite(M[:, :n, :n].reshape(len(M), -1)).all(axis=1)
    rows = np.flatnonzero(ok)
    M, Gs = M[rows], Gs[rows]
    GsT = Gs.transpose(0, 2, 1)

    def backsolve(rhs, u):
        r = rhs[rows]
        rz = r[:, n + p :]
        v = _gesv_rows(M, np.concatenate([r[:, :n] + _mv(GsT, rz) / reg1, r[:, n : n + p]],
                                          axis=1))
        u[rows] = np.concatenate([v, (_mv(Gs, v[:, :n]) - rz) / reg1], axis=1)

    return backsolve, np.flatnonzero(~ok)


def _gesv_rows(M, r):
    """M_i^{-1} r_i for each program i by one stacked gesv; NaN for the
    programs whose M is exactly singular, found one program at a time."""
    try:
        return gesv(M, r[:, :, None])[:, :, 0]
    except LinAlgError:
        if len(M) == 1:
            return np.full(r.shape, np.nan)
        return np.concatenate([_gesv_rows(M[i : i + 1], r[i : i + 1]) for i in range(len(M))])


class _Rows:
    """Per-program state of the stack: every attribute is an array with one
    row (or entry) per program."""

    def take(self, keep):
        for name, value in list(vars(self).items()):
            setattr(self, name, value[keep])


class _Newton:
    """One iteration's Newton system for every program of the stack: the
    factored KKT matrices and the solution of their tau column.

    step solves the full linearized system of the embedding, in (x, y, zt,
    tau, s, kappa), with _REFINEMENT steps of iterative refinement.
    """

    def __init__(self, lay: _Layout, W: _Scaling, st: _Rows):
        self.lay, self.W, self.st = lay, W, st
        self.kkt_solve = _factor_kkt(lay, W)
        x1, y1, z1 = self.kkt_solve(-st.c, lay.beq, lay.h)
        dgi = st.dgi[:, None]
        self.x1, self.y1, self.z1 = dgi * x1, dgi * y1, dgi * z1
        self.th = W.apply(lay.h, inverse=True)
        self.z1_sq = 1.0 + _dot(self.z1, self.z1)

    def step(self, bx, by, bz, btau, bs, bkap):
        u = self._direction(bx, by, bz, btau, bs, bkap)
        for _ in range(_REFINEMENT):
            du = self._direction(*self._residual(u, bx, by, bz, btau, bs, bkap))
            u = tuple(a + b for a, b in zip(u, du))
        return u

    def _direction(self, bx, by, bz, btau, bs, bkap):
        W, st, lay = self.W, self.st, self.lay
        s1 = -W.jordan_div(bs)
        bz_eff = -(bz + W.apply(s1))
        ux, uy, uzt = self.kkt_solve(bx, -by, bz_eff)
        bk2 = -bkap / st.lam_g
        bt2 = btau + bk2 / st.dgi
        dtau = st.dgi * (bt2 + _dot(st.c, ux) + _dot(lay.beq, uy)
                         + _dot(self.th, uzt)) / self.z1_sq
        d = dtau[:, None]
        ux = ux + d * self.x1
        uy = uy + d * self.y1
        uzt = uzt + d * self.z1
        us = s1 - uzt
        dkap = bk2 - dtau
        return ux, uy, uzt, dtau, us, dkap

    def _residual(self, u, bx, by, bz, btau, bs, bkap):
        W, st, lay = self.W, self.st, self.lay
        A, beq, h, c = lay.Aeq, lay.beq, lay.h, st.c
        ux, uy, uzt, dtau, us, dkap = u
        uz_true = W.apply(uzt, inverse=True)
        dtau_true = (dtau * st.dgi)[:, None]
        vx = bx - _mv(A.transpose(0, 2, 1), uy) - lay.Gtz(uz_true) - c * dtau_true
        vy = by + _mv(A, ux) - beq * dtau_true
        vz = bz + lay.Gx(ux) - h * dtau_true + W.apply(us)
        vtau = btau + st.dg * dkap + _dot(c, ux) + _dot(beq, uy) + _dot(h, uz_true)
        vs = bs + W.jordan_prod(W.lam, uzt + us)
        vkap = bkap + st.lam_g * (dtau + dkap)
        return vx, vy, vz, vtau, vs, vkap


def solve(program: ConicProgram, settings: SolverSettings | None = None) -> Solution:
    """Solve a ConicProgram to the settings' tolerances.

    Statuses: Optimal (all residuals within tol), PrimalInfeasible /
    DualInfeasible (tau/kappa classification of the self-dual embedding;
    the normalized certificate lives in y resp. x, its residual in
    ``residuals``), MaxIter (non-convergence; best iterate returned, NaN
    when not even the starting point was finite).  This is solve_batch on
    one program.
    """
    return solve_batch([program], settings)[0]


def solve_batch(programs, settings: SolverSettings | None = None) -> list[Solution]:
    """Solve every program, and return their Solutions in order.

    Programs of one shape (n and cone blocks) are solved together, in
    sub-batches whose stack_bytes fit in KKT_BATCH_BYTES; a list of mixed
    shapes is grouped by shape.  Each Solution equals, bit for bit, what
    solve gives for that program alone; an empty list gives [].

    A program whose KKT matrix is large enough to be factored sparsely
    (n + m >= _SPARSE_MIN_ORDER) is stacked only with programs of the same
    nonzero pattern of A, so the sparse structure is its own, as when it is
    solved alone.  A CSR program's stored pattern is its nonzero pattern
    (ConicProgram keeps it canonical).
    """
    programs = list(programs)
    settings = settings or SolverSettings()
    shapes: dict = {}
    for i, program in enumerate(programs):
        key = (program.n, program.cones.blocks)
        if program.n + program.m >= _SPARSE_MIN_ORDER:
            A = program.A
            key += ((A.indptr.tobytes(), A.indices.tobytes()) if sp.issparse(A)
                    else (A != 0).tobytes(),)
        shapes.setdefault(key, []).append(i)
    out: list = [None] * len(programs)
    for idx in shapes.values():
        size = max(1, KKT_BATCH_BYTES // stack_bytes(programs[idx[0]]))
        for start in range(0, len(idx), size):
            part = idx[start : start + size]
            for i, sol in zip(part, _solve_stack([programs[i] for i in part], settings)):
                out[i] = sol
    return out


def _solve_stack(programs, settings):
    """The embedding's iteration over programs of one shape."""
    lay = _Layout(programs)
    if lay.m_cone == 0:
        return [_solve_equality_only(program, lay, lay.Aeq[i], lay.beq[i], settings)
                for i, program in enumerate(programs)]
    c = np.stack([program.c for program in programs])
    eq_scale = _Equilibration(lay, c)
    st = _Rows()
    st.c = eq_scale.scale_layout(lay, c)
    st.index = np.arange(len(programs))     # the program of each stack row
    tol = settings.tol
    n, p, mc = lay.n, lay.p, lay.m_cone
    out: list = [None] * len(programs)

    W = _Scaling(lay)

    def finish(i, x, y_eq, z, status, pres, dres, gap, iters):
        j = int(st.index[i])
        out[j] = _finish(programs[j], lay, x, y_eq, z, status, pres, dres, gap, iters,
                         eq_scale, j)

    def give_up(i, iters):
        """MaxIter with the best finite iterate (NaN if there is none)."""
        if st.best_iter[i] < 0:
            finish(i, np.full(n, np.nan), np.full(p, np.nan), np.full(mc, np.nan),
                   Status.MAX_ITER, np.nan, np.nan, np.nan, iters)
        else:
            finish(i, st.best_x[i], st.best_y[i], st.best_z[i], Status.MAX_ITER,
                   st.best_pres[i], st.best_dres[i], st.best_gap[i], iters)

    def drop(done):
        """Take the finished rows (a mask) off the stack; True if none is left."""
        if done.all():
            return True
        if not done.any():
            return False
        keep = np.flatnonzero(~done)
        for part in (st, lay, W):
            part.take(keep)
        return False

    def broke_down(exc, iters):
        for i in np.flatnonzero(exc.rows):
            give_up(i, iters)
        return drop(exc.rows)

    st.resx0 = _pymax(1.0, _norm(st.c))
    st.resy0 = _pymax(1.0, _norm(lay.beq))
    st.resz0 = _pymax(1.0, _norm(lay.h))
    nb = len(programs)
    st.best_iter = np.full(nb, -1)
    for name, cols in (("best_x", n), ("best_y", p), ("best_z", mc)):
        setattr(st, name, np.zeros((nb, cols)))
    for name in ("best_merit", "best_pres", "best_dres", "best_gap",
                 "pinf_low", "dinf_low"):
        setattr(st, name, np.full(nb, np.inf))
    # iteration of the latest new low of pinfres or dinfres
    st.inf_low_iter = np.zeros(nb, dtype=int)

    while True:
        try:
            st.x, st.y, st.s, st.z = _starting_point(lay, W, st.c)
            break
        except NumericalBreakdown as exc:
            if broke_down(exc, 0):
                return out

    nb = len(st.c)
    st.tau, st.kappa = np.ones(nb), np.ones(nb)
    st.gap = _dot(st.s, st.z)
    st.lam_g, st.dg, st.dgi = np.ones(nb), np.ones(nb), np.ones(nb)

    for iters in range(settings.max_iter + 1):
        A, beq, h, c, x, y, z, tau = (lay.Aeq, lay.beq, lay.h, st.c,
                                      st.x, st.y, st.z, st.tau)
        tcol = tau[:, None]
        hrx = -_mv(A.transpose(0, 2, 1), y) - lay.Gtz(z)
        hresx = _norm(hrx)
        st.rx = hrx - c * tcol
        resx = _norm(st.rx) / tau
        hry = _mv(A, x)
        hresy = _norm(hry)
        st.ry = hry - beq * tcol
        resy = _norm(st.ry) / tau
        hrz = lay.Gx(x) + st.s
        hresz = _norm(hrz)
        st.rz = hrz - h * tcol
        resz = _norm(st.rz) / tau
        cx, by, hz = _dot(c, x), _dot(beq, y), _dot(h, z)
        st.rt = st.kappa + cx + by + hz

        # Python float division gives inf where these overflow, silently
        with np.errstate(over="ignore"):
            pcost, dcost = cx / tau, -(by + hz) / tau
            # the relative gap where pcost < 0 or else dcost > 0, the gap itself
            # where neither holds
            gap_merit = np.array(st.gap)
            rel_p = pcost < 0.0
            np.divide(st.gap, -pcost, out=gap_merit, where=rel_p)
            np.divide(st.gap, dcost, out=gap_merit, where=~rel_p & (dcost > 0.0))
            pres = _pymax(resy / st.resy0, resz / st.resz0)
            dres = resx / st.resx0
            # the certificates' residuals, where hz + by < 0 resp. cx < 0
            has_pinf, has_dinf = hz + by < 0, cx < 0
            pinfres = np.divide(hresx / st.resx0, -hz - by,
                                out=np.full(len(tau), np.inf), where=has_pinf)
            dinfres = np.divide(_pymax(hresy / st.resy0, hresz / st.resz0), -cx,
                                out=np.full(len(tau), np.inf), where=has_dinf)

        merit = _pymax(_pymax(pres, dres), gap_merit)
        # _pymax keeps its first argument against a NaN, so a non-finite
        # iterate is caught here, before it could pass the tests below
        bad = ~np.isfinite(np.array([resx, resy, resz, st.rt, st.gap, merit])).all(axis=0)
        better = ~bad & (merit < st.best_merit)
        if better.any():
            bt = tau[better, None]
            st.best_merit[better] = merit[better]
            st.best_x[better] = x[better] / bt
            st.best_y[better] = y[better] / bt
            st.best_z[better] = z[better] / bt
            st.best_pres[better] = pres[better]
            st.best_dres[better] = dres[better]
            st.best_gap[better] = gap_merit[better]
            st.best_iter[better] = iters
        for low, res, has in ((st.pinf_low, pinfres, has_pinf),
                              (st.dinf_low, dinfres, has_dinf)):
            new_low = ~bad & has & (res < low)
            low[new_low] = res[new_low]
            st.inf_low_iter[new_low] = iters

        optimal = ~bad & (merit <= tol)
        pinf = ~bad & ~optimal & has_pinf & (pinfres <= _INFEASIBILITY_THRESHOLD)
        dinf = (~bad & ~optimal & ~pinf & has_dinf
                & (dinfres <= _INFEASIBILITY_THRESHOLD))
        # stall exits: accept a best iterate near tol, or give up on a
        # diverging merit unless an infeasibility certificate still improves
        stalled = iters - st.best_iter >= _STALL_ITERS
        certificate_stalled = iters - st.inf_low_iter >= _STALL_ITERS
        near = st.best_merit <= _STALL_GRACE * tol
        stop = ~(bad | optimal | pinf | dinf) & (
            (iters == settings.max_iter)
            | (stalled & (near | ((merit > 1e3 * st.best_merit) & certificate_stalled))))
        done = bad | optimal | pinf | dinf | stop
        for i in np.flatnonzero(done):
            if bad[i]:
                give_up(i, iters)
            elif optimal[i]:
                finish(i, x[i] / tau[i], y[i] / tau[i], z[i] / tau[i], Status.OPTIMAL,
                       pres[i], dres[i], gap_merit[i], iters)
            elif pinf[i]:
                scale = -hz[i] - by[i]
                finish(i, np.full(n, np.nan), y[i] / scale, z[i] / scale,
                       Status.PRIMAL_INFEASIBLE, pinfres[i], pinfres[i], np.nan, iters)
            elif dinf[i]:
                finish(i, x[i] / -cx[i], np.full(p, np.nan), np.full(mc, np.nan),
                       Status.DUAL_INFEASIBLE, dinfres[i], dinfres[i], np.nan, iters)
            else:
                status = Status.OPTIMAL if near[i] else Status.MAX_ITER
                finish(i, st.best_x[i], st.best_y[i], st.best_z[i], status,
                       st.best_pres[i], st.best_dres[i], st.best_gap[i], iters)
        if drop(done):
            return out

        while True:
            try:
                step, dx, dy, dzt, dtau, ds, dkap = _predictor_corrector(lay, W, st, iters)
                break
            except NumericalBreakdown as exc:
                if broke_down(exc, iters):
                    return out
        col = step[:, None]
        st.x = st.x + col * dx
        st.y = st.y + col * dy
        st.s_new = W.lam + col * ds
        st.z_new = W.lam + col * dzt
        st.step, st.dtau, st.dkap = step, dtau, dkap
        while True:
            try:
                W.update(st.s_new, st.z_new)     # moves W.lam in place
                break
            except NumericalBreakdown as exc:
                # counted like a non-finite update, which the next pass catches
                if broke_down(exc, iters + 1):
                    return out
        tau_f = 1.0 + st.step * st.dtau / st.lam_g
        kap_f = 1.0 + st.step * st.dkap / st.lam_g
        del st.s_new, st.z_new, st.step, st.dtau, st.dkap
        st.dg = st.dg * (np.sqrt(kap_f) / np.sqrt(tau_f))
        st.dgi = 1.0 / st.dg
        st.lam_g = st.lam_g * (np.sqrt(tau_f) * np.sqrt(kap_f))
        st.s = W.apply(W.lam)
        st.z = W.apply(W.lam, inverse=True)
        st.kappa, st.tau = st.lam_g * st.dg, st.lam_g * st.dgi
        st.gap = _dot(W.lam, W.lam) / _pypow(st.tau, 2)

    raise AssertionError("unreachable")


def _starting_point(lay, W, c):
    """The least-squares point (x, y, s, z) under the identity scaling, with
    s and z shifted into the cone."""
    nb, n, p, mc = len(c), lay.n, lay.p, lay.m_cone
    kkt_solve = _factor_kkt(lay, W)
    x, _, uz = kkt_solve(np.zeros((nb, n)), lay.beq, lay.h)
    _, y, z = kkt_solve(-c, np.zeros((nb, p)), np.zeros((nb, mc)))
    s = -uz
    for u in (s, z):
        t = W.max_residual_step(u)
        shift = t >= -1e-8 * _pymax(1.0, _norm(u))
        sub = u[shift]
        sub[:, lay.e > 0] += (1.0 + t[shift])[:, None]
        u[shift] = sub
    return x, y, s, z


def _predictor_corrector(lay, W, st, iters):
    """The Mehrotra step of one iteration for every program of the stack:
    (step, dx, dy, dzt, dtau, ds, dkap).  Raises NumericalBreakdown, before
    it changes any state but the scaling computed at iteration 0, for the
    programs whose scaling or KKT system breaks down."""
    if iters == 0:
        W.compute(st.s, st.z)
        st.dg = np.sqrt(st.kappa / st.tau)
        st.dgi = np.sqrt(st.tau / st.kappa)
        st.lam_g = np.sqrt(st.tau * st.kappa)
    lam = W.lam
    lamsq = W.jordan_prod(lam, lam)
    lam_g2 = _pypow(st.lam_g, 2)
    mu = (_dot(lam, lam) + lam_g2) / (lay.diag_dim + 1)
    newton = _Newton(lay, W, st)

    nb = len(st.lam_g)
    sigma = np.zeros(nb)
    corr, corr_k = np.zeros(lam.shape), np.zeros(nb)
    for phase in (0, 1):
        bs, bkap = lamsq, lam_g2
        if phase == 1:
            sm = sigma * mu
            bs = bs + corr - sm[:, None] * lay.e
            bkap = bkap + corr_k - sm
        fac = 1.0 - sigma
        fcol = fac[:, None]
        dx, dy, dzt, dtau, ds, dkap = newton.step(fcol * st.rx, fcol * st.ry,
                                                  fcol * st.rz, fac * st.rt, bs, bkap)
        if phase == 0:
            corr = W.jordan_prod(ds, dzt)
            corr_k = dtau * dkap
        alpha = _pymin(W.max_step_to_boundary(ds), W.max_step_to_boundary(dzt))
        alpha = _pymin(alpha, _ratio(st.lam_g, dtau))
        alpha = _pymin(alpha, _ratio(st.lam_g, dkap))
        if phase == 0:
            step = _pymin(1.0, alpha)
            sigma = np.array([min(1.0, max(0.0, 1.0 - a)) ** _EXPON for a in step.tolist()])
        else:
            step = _pymin(1.0, _STEP * alpha)
    return step, dx, dy, dzt, dtau, ds, dkap


def _solve_equality_only(program, lay, A, b, settings):
    # no cone rows: minimize c'x subject to A x = b, the equality rows
    c = program.c
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
            eq_scale=None, row=0):
    if eq_scale is not None:
        x, y_eq, z = eq_scale.unscale(row, np.asarray(x, dtype=float),
                                      np.asarray(y_eq, dtype=float),
                                      np.asarray(z, dtype=float))
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
