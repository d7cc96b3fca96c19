import numpy as np
import pytest

from dpconic import solver
from dpconic.apps.opf import opf_sensitivity_bound
from dpconic.conic import (ConeKind, ConeSpec, ConicProgram, Status, nonneg, rsoc, soc,
                           zero)
from dpconic.dp import calibrate_laplace

# every Optimal the solver returns in a test passes the independent
# kkt_report with each component within AUDIT_BOUND times its tol
AUDIT_BOUND = 10.0
_audit_findings: list[str] = []


@pytest.fixture(scope="session", autouse=True)
def kkt_audit():
    """Wrap solver._solve_stack, which every solve and solve_batch goes
    through, so that each Optimal it returns is checked by kkt_report.

    The wrapper is installed once for the session, before any other fixture,
    and removed after the last test.  A test that monkeypatches _solve_stack
    saves the wrapper as the original and restores it when it ends, so its
    own replacement, if it calls that original, is audited too; one that
    does not call it is not.  Findings are charged to the test whose setup
    or call made them (pytest_runtest_call below)."""
    orig = solver._solve_stack

    def audited(programs, settings):
        sols = orig(programs, settings)
        for program, sol in zip(programs, sols):
            if sol.status != Status.OPTIMAL:
                continue
            report = solver.kkt_report(program, sol)
            worst = max(report, key=report.get)
            if report[worst] > AUDIT_BOUND * settings.tol:
                _audit_findings.append(
                    f"Optimal with kkt_report {worst} {report[worst]:.3g} > "
                    f"{AUDIT_BOUND:g} x tol {settings.tol:g} (n {program.n}, "
                    f"m {program.m}, {sol.iterations} iterations)")
        return sols

    with pytest.MonkeyPatch.context() as m:
        m.setattr(solver, "_solve_stack", audited)
        yield


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_setup(item):
    _audit_findings.clear()


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    result = yield
    if _audit_findings:
        found = list(_audit_findings)
        _audit_findings.clear()
        raise AssertionError("kkt_report audit: " + "; ".join(found[:5])
                             + (f" (and {len(found) - 5} more)" if len(found) > 5 else ""))
    return result


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
