"""Empirical VaR/CVaR and CVaR co-optimization.

The loss of a rule against the deterministic optimum is itself random; its
tail is controlled by minimizing the empirical conditional value-at-risk

    min_gamma  gamma + 1/((1-q) S) sum_s [loss_s - gamma]^+,

either after the fact (cvar_empirical) or inside the transformed program.
`augment_with_cvar` appends the epigraph variables (gamma, z_1..z_S) for
any noise dimension k.  With k = 1 the loss is affine in one scalar draw,
and `augment_with_cvar_k1` gives the same optimum over the same draws from
one variable and two rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .conic import ConeKind, ConeSpec, ConicProgram
from .dp import sample_noise
from .ldr import PrivatizedProgram

CVAR_STREAM = 1  # the stream of augment_with_cvar's samples


@dataclass(frozen=True)
class CVaRSpec:
    """Tail-averaging parameters: optimize the mean of the worst (1-q) share."""

    q: float
    samples: int
    loss: tuple[float, ...]  # linear loss functional over the rule variables

    def __post_init__(self):
        if not 0 < self.q < 1:
            raise ValueError("q must be in (0, 1)")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")

    @property
    def loss_vector(self) -> np.ndarray:
        return np.asarray(self.loss, dtype=float)


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
    spec: CVaRSpec,
    seed: int,
) -> tuple[ConicProgram, dict]:
    """Append the CVaR epigraph of the rule's loss to a transformed program.

    New variables gamma (free) and z_1..z_S >= 0 with
    z_s >= l'(xbar + X zeta_s) - gamma, the zeta_s drawn from CVAR_STREAM
    at seed; the objective becomes gamma + 1/((1-q)S) sum z_s.  The query
    constraints on X are untouched, which is what keeps the privacy
    guarantee intact.

    Returns the augmented program, whose A is CSR, and a layout dict with
    the new variable indices and the drawn samples.
    """
    base = privatized.program
    space = privatized.space
    loss = spec.loss_vector
    if loss.shape[0] != space.n:
        raise ValueError("loss functional must match the rule dimension")
    zetas = sample_noise(privatized.noise, seed, spec.samples, CVAR_STREAM)
    S = spec.samples

    n0 = base.n
    gamma_idx = n0
    z_idx = np.arange(n0 + 1, n0 + 1 + S)
    # rows z_s >= 0, then the slacks z_s + gamma - l'(xbar + X zeta_s) >= 0
    G, h = space.expand(loss[None], np.zeros(1), zetas)
    minus_z = -sp.eye_array(S, format="csr")
    A = sp.bmat([
        [base.A, None, None],
        [None, sp.csr_array((S, 1)), minus_z],
        [sp.csr_array(G, shape=(S, n0)), np.full((S, 1), -1.0), minus_z],
    ], format="csr")
    b = np.concatenate([base.b, np.zeros(S), h])
    blocks = [(blk.kind.value, blk.dim) for blk in base.cones.blocks]
    blocks += [(ConeKind.NONNEG.value, S)] * 2

    c = np.zeros(n0 + 1 + S)
    c[gamma_idx] = 1.0
    c[z_idx] = 1.0 / ((1.0 - spec.q) * S)

    names = tuple(base.variable_names or ()) or tuple(f"v[{i}]" for i in range(n0))
    names = names + ("gamma",) + tuple(f"z[{s}]" for s in range(S))
    augmented = ConicProgram(A, b, c, ConeSpec(blocks), variable_names=names)
    layout = {"gamma": gamma_idx, "z": z_idx, "zetas": zetas}
    return augmented, layout


def augment_with_cvar_k1(
    privatized: PrivatizedProgram,
    spec: CVaRSpec,
    seed: int,
) -> tuple[ConicProgram, dict]:
    """augment_with_cvar's optimum for one noise coordinate, from two rows.

    With k = 1 the rule's loss is a + g zeta, with a = l'xbar and g = l'X.
    By the translation invariance and positive homogeneity of the sample
    CVaR, its value at level q over the draws zeta_s is a + max(kp g, -km g),
    with kp = cvar_empirical(zeta, q) and km = cvar_empirical(-zeta, q)
    (kp + km >= 0, so the max is kp g for g >= 0 and -km g below).  That is
    the value of augment_with_cvar's S-row epigraph at every rule, the
    fractional (1-q) S weight included.  So one new variable t with
    t >= kp g and t >= -km g (two NonNeg rows) and the objective a + t give
    its optimum over the same draws (CVAR_STREAM at seed).  The query
    constraints on X are untouched.

    Returns the augmented program, whose A is CSR and whose last column is
    t, and a layout dict with the drawn samples.  Raises ValueError unless
    the noise has one coordinate; augment_with_cvar takes any k.
    """
    base = privatized.program
    space = privatized.space
    loss = spec.loss_vector
    if space.k != 1:
        raise ValueError(f"augment_with_cvar_k1 needs one noise coordinate, got "
                         f"k = {space.k}; augment_with_cvar takes any k")
    if loss.shape[0] != space.n:
        raise ValueError("loss functional must match the rule dimension")
    zetas = sample_noise(privatized.noise, seed, spec.samples, CVAR_STREAM)
    kp, km = cvar_empirical(zetas, spec.q), cvar_empirical(-zetas, spec.q)

    n0 = base.n
    # at the points 0, kp and -km, h_i - G_i v = -(a + zeta_i g) with h_0 = 0:
    # so G_0 v = a, and the slack h_i - (G_i - G_0) v + t is t - zeta_i g
    G, h = space.expand(loss[None], np.zeros(1), np.array([[0.0], [kp], [-km]]))
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
    return augmented, {"zetas": zetas}
