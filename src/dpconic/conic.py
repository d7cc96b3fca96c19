"""Standard-form conic programs and cone membership oracles.

A program is the triple (A, b, c) with an ordered product-cone specification:

    minimize    c'x
    subject to  b - A x  in  K,

where K is a product of Zero, NonNeg, SecondOrder and RotatedSecondOrder
blocks, in the order listed.  Everything downstream (solver, decision-rule
transformer, applications) speaks this data model.

A is a dense array or a scipy.sparse CSR matrix.  The base builders emit
dense A: their programs are tiny, and thousands of them are built per
sensitivity estimate.  The transformed programs of `ldr.privatize`, and
their CVaR form from `risk.augment_with_cvar`, emit CSR, since most of their
entries are zero.
"""

from __future__ import annotations

import functools
import json
import numbers
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np
import scipy.sparse as sp


class ConeKind(str, Enum):
    ZERO = "Zero"
    NONNEG = "NonNeg"
    SOC = "SecondOrder"
    RSOC = "RotatedSecondOrder"


@dataclass(frozen=True)
class ConeBlock:
    kind: ConeKind
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"cone block dim must be >= 1, got {self.dim}")
        if self.kind == ConeKind.RSOC and self.dim < 2:
            raise ValueError("RotatedSecondOrder blocks need dim >= 2")


@functools.cache
def _cone_block(kind, dim) -> ConeBlock:
    """One shared ConeBlock per (kind, dim): a transformed program has
    thousands of blocks and few distinct ones."""
    return ConeBlock(ConeKind(kind), int(dim))


@dataclass(frozen=True)
class ConeSpec:
    """Ordered list of cone blocks; the order fixes row indexing for good."""

    blocks: tuple[ConeBlock, ...]

    def __init__(self, blocks):
        object.__setattr__(
            self,
            "blocks",
            tuple(b if isinstance(b, ConeBlock) else _cone_block(b[0], b[1])
                  for b in blocks),
        )

    @property
    def dim(self) -> int:
        return sum(b.dim for b in self.blocks)

    def offsets(self):
        """Yield (block, start_row) pairs in declaration order."""
        start = 0
        for b in self.blocks:
            yield b, start
            start += b.dim


def zero(dim: int) -> ConeBlock:
    return ConeBlock(ConeKind.ZERO, dim)


def nonneg(dim: int) -> ConeBlock:
    return ConeBlock(ConeKind.NONNEG, dim)


def soc(dim: int) -> ConeBlock:
    return ConeBlock(ConeKind.SOC, dim)


def rsoc(dim: int) -> ConeBlock:
    return ConeBlock(ConeKind.RSOC, dim)


def quadratic_epigraph(nv: int, t: int, cols, M: np.ndarray, y: np.ndarray, H: float):
    """Rows (A, b, cone) of the rotated-SOC block (t, H, y - M x[cols]) over nv
    variables: 2 H t >= |y - M x[cols]|^2.

    A term weight * |y - M x[cols]|^2 of the objective becomes the weight
    2 H * weight on t.  H changes the units of t, not the program.  With H
    the square root of a bound on |y - M x|^2 at the optimum, t stays within
    H/2 there and the block's entries are of one size; a constant 1/2 facing
    a large t leaves the solve ill-conditioned.
    """
    k = M.shape[0]
    A = np.zeros((k + 2, nv))
    b = np.zeros(k + 2)
    A[0, t] = -1.0
    b[1] = H
    A[2:, cols] = M
    b[2:] = y
    return A, b, rsoc(k + 2)


@dataclass(frozen=True)
class ConicProgram:
    """A, b and c are read-only copies: a dense A as a float array, a sparse
    one in canonical CSR form (sorted indices, no duplicate or stored zero),
    so its stored pattern is its nonzero pattern.  A program is valid by
    construction: ValueError("invalid program: ...") names every violation."""

    A: np.ndarray | sp.csr_array
    b: np.ndarray
    c: np.ndarray
    cones: ConeSpec
    variable_names: tuple[str, ...] | None = None

    def __post_init__(self):
        if sp.issparse(self.A):
            A = sp.csr_array(self.A, dtype=float, copy=True)
            A.sum_duplicates()
            A.eliminate_zeros()
            arrays = (A.data, A.indices, A.indptr)
        else:
            A = np.array(self.A, dtype=float, ndmin=2)
            arrays = (A,)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", np.array(self.b, dtype=float).ravel())
        object.__setattr__(self, "c", np.array(self.c, dtype=float).ravel())
        m, n = A.shape
        violations = [msg for bad, msg in (
            (self.b.shape != (m,), f"b length {self.b.shape[0]} != m={m}"),
            (self.c.shape != (n,), f"c length {self.c.shape[0]} != n={n}"),
            (self.cones.dim != m, f"cone dims sum to {self.cones.dim} != m={m}"),
            (not np.isfinite(arrays[0]).all(), "A has non-finite entries"),
            (not np.isfinite(self.b).all(), "b has non-finite entries"),
            (not np.isfinite(self.c).all(), "c has non-finite entries"),
            (self.variable_names is not None and len(self.variable_names) != n,
             "variable_names length != n"),
        ) if bad]
        if violations:
            raise ValueError("invalid program: " + "; ".join(violations))
        for a in arrays + (self.b, self.c):
            a.setflags(write=False)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True)
class Residuals:
    primal: float
    dual: float
    gap: float


class Status(str, Enum):
    OPTIMAL = "Optimal"
    PRIMAL_INFEASIBLE = "PrimalInfeasible"
    DUAL_INFEASIBLE = "DualInfeasible"
    MAX_ITER = "MaxIter"


@dataclass(frozen=True)
class Solution:
    x: np.ndarray
    y: np.ndarray
    status: Status
    objective: float
    residuals: Residuals
    iterations: int = 0


class NotOptimal(RuntimeError):
    """A study's solve ended without an optimum; ``status`` says how."""

    def __init__(self, message: str, status: Status):
        super().__init__(message)
        self.status = status


def require_optimal(sol: Solution, what: str) -> Solution:
    """sol when it is Optimal; else raise NotOptimal("<what> returned <status>")."""
    if sol.status != Status.OPTIMAL:
        raise NotOptimal(f"{what} returned {sol.status.value}", sol.status)
    return sol


def slack(program: ConicProgram, x: np.ndarray) -> np.ndarray:
    """b - Ax, the vector whose cone membership decides feasibility."""
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != program.n:
        raise ValueError(f"x has length {x.shape[0]}, expected {program.n}")
    return program.b - program.A @ x


def is_integer(value) -> bool:
    """Whether value is an integer; not a bool, which would run as 0 or 1."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def read_only_copy(a, ndmin: int = 0) -> np.ndarray:
    """A float copy of a that nothing can write to, as a dataset keeps its
    arrays: a later write to the caller's a leaves the copy as it was."""
    a = np.array(a, dtype=float, ndmin=ndmin)
    a.setflags(write=False)
    return a


def replace_unchecked(dataset, **changes):
    """dataclasses.replace without __post_init__ and cached properties: the
    caller checks what the changed fields can break."""
    new = object.__new__(type(dataset))
    vars(new).update({f.name: getattr(dataset, f.name) for f in fields(dataset)}, **changes)
    return new


def as_dense(A) -> np.ndarray:
    """A program's A as an array: A itself when dense, a new array when CSR."""
    return A.toarray() if sp.issparse(A) else A


def _row_dots(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """x @ y for each row pair of X and Y, with the BLAS dot a 1-D ``x @ y``
    makes."""
    return np.matmul(X[:, None, :], Y[:, :, None])[:, 0, 0]


def _block_membership(V: np.ndarray, kind: ConeKind, tol: float) -> np.ndarray:
    """Per row of V, whether it lies in the block's cone within tol."""
    if kind == ConeKind.ZERO:
        return (np.abs(V) <= tol).all(axis=1)
    if kind == ConeKind.NONNEG:
        return (V >= -tol).all(axis=1)
    if kind == ConeKind.SOC:
        return V[:, 0] >= np.sqrt(_row_dots(V[:, 1:], V[:, 1:])) - tol
    # RSOC: 2 v1 v2 >= ||v3..||^2 with v1, v2 >= 0
    return ((V[:, 0] >= -tol) & (V[:, 1] >= -tol)
            & (2.0 * V[:, 0] * V[:, 1] >= _row_dots(V[:, 2:], V[:, 2:]) - tol))


def cone_membership_rows(V: np.ndarray, cones: ConeSpec, tol: float = 0.0) -> np.ndarray:
    """For each row of the (S, m) matrix V: does every block satisfy its
    cone condition within tol."""
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or V.shape[1] != cones.dim:
        raise ValueError(f"rows of length {V.shape[-1]} != cone dim {cones.dim}")
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    inside = np.ones(V.shape[0], dtype=bool)
    for blk, start in cones.offsets():
        inside &= _block_membership(V[:, start : start + blk.dim], blk.kind, tol)
    return inside


def cone_membership(v: np.ndarray, cones: ConeSpec, tol: float = 0.0) -> bool:
    """True iff every block of v satisfies its cone condition within tol."""
    v = np.asarray(v, dtype=float).ravel()
    return bool(cone_membership_rows(v[None, :], cones, tol)[0])


def build_simple_lp(c: float, lower: float, upper: float) -> ConicProgram:
    """One-variable box LP:  min c*x  s.t.  lower <= x <= upper."""
    if not lower < upper:
        raise ValueError(f"need lower < upper, got [{lower}, {upper}]")
    A = np.array([[1.0], [-1.0]])
    b = np.array([float(upper), -float(lower)])
    return ConicProgram(A, b, np.array([float(c)]), ConeSpec([nonneg(2)]),
                        variable_names=("x",))


# --- JSON serialization -----------------------------------------------------
#
# {m, n, A (row-major), b, c, cones: [{kind, dim}]}; floats survive the round
# trip bit-exactly because json emits shortest-repr doubles.  A CSR program
# is written densely, in the same format, and reads back as a dense one.

def program_to_json(program: ConicProgram) -> str:
    doc = {
        "m": program.m,
        "n": program.n,
        "A": [float(v) for v in as_dense(program.A).ravel(order="C")],
        "b": [float(v) for v in program.b],
        "c": [float(v) for v in program.c],
        "cones": [{"kind": blk.kind.value, "dim": blk.dim} for blk in program.cones.blocks],
    }
    if program.variable_names is not None:
        doc["variable_names"] = list(program.variable_names)
    return json.dumps(doc)


def program_from_json(text: str) -> ConicProgram:
    doc = json.loads(text)
    m, n = int(doc["m"]), int(doc["n"])
    A = np.array(doc["A"], dtype=float).reshape(m, n)
    cones = ConeSpec([(blk["kind"], blk["dim"]) for blk in doc["cones"]])
    names = tuple(doc["variable_names"]) if "variable_names" in doc else None
    return ConicProgram(A, np.array(doc["b"]), np.array(doc["c"]), cones,
                        variable_names=names)
