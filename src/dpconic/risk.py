"""Empirical VaR/CVaR and the exact CVaR term of a transformed program.

The loss of a rule against the deterministic optimum is itself random; its
tail is measured by the conditional value-at-risk, the mean of its worst
(1-q) share.  `cvar_empirical` reads it off drawn losses after the fact,
as the optimum of

    min_gamma  gamma + 1/((1-q) S) sum_s [loss_s - gamma]^+.

Inside a transformed program no draws are needed: with one noise
coordinate the rule's loss is a + g zeta, whose CVaR under the noise's own
law is a + |g| NoiseSpec.cvar(q) (Rockafellar & Uryasev, J. Risk 2000), and
`augment_with_cvar` appends that term from one variable and two rows.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .conic import ConeKind, ConeSpec, ConicProgram
from .ldr import PrivatizedProgram


def _tail(losses: np.ndarray, q: float) -> tuple[np.ndarray, float, int]:
    """(losses sorted worst first, w = (1-q) S, j = ceil w): the worst (1-q)
    share is the first j - 1 losses and the share w - (j - 1) of loss j."""
    losses = np.asarray(losses, dtype=float).ravel()
    if losses.size == 0:
        raise ValueError("losses must be nonempty")
    if not 0 < q < 1:
        raise ValueError("q must be in (0, 1)")
    w = (1.0 - q) * losses.size
    return np.sort(losses)[::-1], w, int(np.ceil(w - 1e-12))


def var_empirical(losses: np.ndarray, q: float) -> float:
    """Empirical (1-q)-tail value-at-risk: the optimal gamma of the CVaR program."""
    ordered, _, j = _tail(losses, q)
    return float(ordered[min(j, ordered.size) - 1])


def cvar_empirical(losses: np.ndarray, q: float) -> float:
    """Average of the worst (1-q) fraction of losses, by sorting.

    Equals the optimum of min_gamma gamma + 1/((1-q)S) sum [loss-gamma]^+.
    """
    ordered, w, j = _tail(losses, q)
    partial = (w - (j - 1)) * ordered[min(j, ordered.size) - 1]
    return float((ordered[: j - 1].sum() + partial) / w)


def augment_with_cvar(
    privatized: PrivatizedProgram,
    q: float,
    loss,
) -> tuple[ConicProgram, dict]:
    """Replace a transformed program's objective by the CVaR at level q of
    the rule's loss l'(xbar + X zeta) under the noise law.

    With one noise coordinate the loss is a + g zeta, with a = l'xbar and
    g = l'X.  The law is symmetric, so the CVaR is a + kappa |g| with
    kappa = privatized.noise.cvar(q), the mean of the worst (1-q) share of
    one coordinate.  One new variable t with t >= kappa g and t >= -kappa g
    (two NonNeg rows) and the objective a + t give it.  The query
    constraints on X are untouched, which is what keeps the privacy
    guarantee intact.

    Returns the augmented program, whose A is CSR, and a layout dict with
    the index of t, its last column.  Raises ValueError unless the noise has
    one coordinate: a Laplace noise of more has no closed form.
    """
    base = privatized.program
    space = privatized.space
    loss = np.asarray(loss, dtype=float)
    if space.k != 1:
        raise ValueError(f"augment_with_cvar needs one noise coordinate, got "
                         f"k = {space.k}")
    if loss.shape != (space.n,):
        raise ValueError("loss functional must match the rule dimension")
    kappa = privatized.noise.cvar(q)

    n0 = base.n
    # at the points 0 and +-kappa, h_i - G_i v = -(a + zeta_i g) with h_0 = 0:
    # so G_0 v = a, and the slack h_i - (G_i - G_0) v + t is t - zeta_i g
    G, h = space.expand(loss[None], np.zeros(1), np.array([[0.0], [kappa], [-kappa]]))
    A = sp.bmat([
        [base.A, None],
        [sp.csr_array(G[1:] - G[0], shape=(2, n0)), np.full((2, 1), -1.0)],
    ], format="csr")
    b = np.concatenate([base.b, h[1:]])
    blocks = [(blk.kind.value, blk.dim) for blk in base.cones.blocks]
    blocks.append((ConeKind.NONNEG.value, 2))

    c = np.zeros(n0 + 1)
    c[: space.ncols] = G[0]
    c[n0] = 1.0

    names = tuple(base.variable_names or ()) or tuple(f"v[{i}]" for i in range(n0))
    augmented = ConicProgram(A, b, c, ConeSpec(blocks), variable_names=names + ("t",))
    return augmented, {"t": n0}
