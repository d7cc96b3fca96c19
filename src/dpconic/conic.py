"""Standard-form conic programs and cone membership oracles.

A program is the triple (A, b, c) with an ordered product-cone specification:

    minimize    c'x
    subject to  b - A x  in  K,

where K is a product of Zero, NonNeg, SecondOrder and RotatedSecondOrder
blocks, in the order listed.  Everything downstream (solver, decision-rule
transformer, applications) speaks this data model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np


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


@dataclass(frozen=True)
class ConeSpec:
    """Ordered list of cone blocks; the order fixes row indexing for good."""

    blocks: tuple[ConeBlock, ...]

    def __init__(self, blocks):
        object.__setattr__(
            self,
            "blocks",
            tuple(
                b if isinstance(b, ConeBlock) else ConeBlock(ConeKind(b[0]), int(b[1]))
                for b in blocks
            ),
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


@dataclass(frozen=True)
class ConicProgram:
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    cones: ConeSpec
    variable_names: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "A", np.atleast_2d(np.asarray(self.A, dtype=float)))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float).ravel())
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float).ravel())
        self.A.setflags(write=False)
        self.b.setflags(write=False)
        self.c.setflags(write=False)

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


def validate(program: ConicProgram) -> list[str]:
    """Return every dimension/finiteness violation; empty list means ok."""
    violations = []
    m, n = program.A.shape
    if program.b.shape != (m,):
        violations.append(f"b length {program.b.shape[0]} != m={m}")
    if program.c.shape != (n,):
        violations.append(f"c length {program.c.shape[0]} != n={n}")
    if program.cones.dim != m:
        violations.append(f"cone dims sum to {program.cones.dim} != m={m}")
    if not np.all(np.isfinite(program.A)):
        violations.append("A has non-finite entries")
    if not np.all(np.isfinite(program.b)):
        violations.append("b has non-finite entries")
    if not np.all(np.isfinite(program.c)):
        violations.append("c has non-finite entries")
    if program.variable_names is not None and len(program.variable_names) != n:
        violations.append("variable_names length != n")
    return violations


def require_valid(program: ConicProgram) -> None:
    """Raise ValueError naming every violation validate finds."""
    errs = validate(program)
    if errs:
        raise ValueError("invalid program: " + "; ".join(errs))


def slack(program: ConicProgram, x: np.ndarray) -> np.ndarray:
    """b - Ax, the vector whose cone membership decides feasibility."""
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != program.n:
        raise ValueError(f"x has length {x.shape[0]}, expected {program.n}")
    return program.b - program.A @ x


def permute_columns(program: ConicProgram, order) -> ConicProgram:
    """The same program over reordered variables: column j is old column order[j]."""
    order = np.asarray(order, dtype=int)
    names = program.variable_names
    return ConicProgram(program.A[:, order], program.b, program.c[order], program.cones,
                        variable_names=tuple(names[i] for i in order) if names else None)


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
# trip bit-exactly because json emits shortest-repr doubles.

def program_to_json(program: ConicProgram) -> str:
    doc = {
        "m": program.m,
        "n": program.n,
        "A": [float(v) for v in program.A.ravel(order="C")],
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
