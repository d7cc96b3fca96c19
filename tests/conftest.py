import numpy as np

from dpconic.apps.opf import opf_sensitivity_bound
from dpconic.conic import ConeKind, ConeSpec, ConicProgram, nonneg, rsoc, soc, zero
from dpconic.dp import calibrate_laplace


def opf_noise(net, alpha, epsilon=1.0):
    """An opf experiment point's noise: Laplace(max(c) alpha / epsilon), k = 1."""
    return calibrate_laplace(opf_sensitivity_bound(net.c, alpha), epsilon, k=1)


def random_feasible_program(rng, max_rows=30, max_n=30):
    """Primal/dual strictly feasible instance: b = A x0 + s0, c = -A' y0."""
    n = int(rng.integers(2, max_n + 1))
    blocks, rows = [], 0
    while rows < 4:
        kind = rng.choice(["l", "q", "r", "z"], p=[0.5, 0.25, 0.15, 0.1])
        if kind == "l":
            d = int(rng.integers(1, 8)); blocks.append(nonneg(d))
        elif kind == "q":
            d = int(rng.integers(2, 6)); blocks.append(soc(d))
        elif kind == "r":
            d = int(rng.integers(2, 6)); blocks.append(rsoc(d))
        else:
            d = int(rng.integers(1, 3)); blocks.append(zero(d))
        rows += d
        if rows >= max_rows:
            break
    cones = ConeSpec(blocks)
    m = cones.dim
    A = rng.normal(size=(m, n))
    x0 = rng.normal(size=n)
    s0, y0 = np.zeros(m), np.zeros(m)
    for blk, start in cones.offsets():
        d = blk.dim
        if blk.kind == ConeKind.NONNEG:
            s0[start:start + d] = rng.uniform(0.5, 2.0, d)
            y0[start:start + d] = rng.uniform(0.5, 2.0, d)
        elif blk.kind == ConeKind.SOC:
            for vec in (s0, y0):
                v = rng.normal(size=d)
                v[0] = np.linalg.norm(v[1:]) + rng.uniform(0.5, 2)
                vec[start:start + d] = v
        elif blk.kind == ConeKind.RSOC:
            for vec in (s0, y0):
                v = rng.normal(size=d)
                v[0], v[1] = rng.uniform(0.5, 2), rng.uniform(0.5, 2)
                if d > 2:
                    v[2:] *= 0.7 * np.sqrt(2 * v[0] * v[1]) / (np.linalg.norm(v[2:]) + 1.0)
                vec[start:start + d] = v
        else:
            y0[start:start + d] = rng.normal(size=d)
    return ConicProgram(A, A @ x0 + s0, -A.T @ y0, cones)
