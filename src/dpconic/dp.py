"""Differential-privacy primitives.

Noise sampling and mechanism calibration (Laplace / Gaussian) and Monte
Carlo estimation of the worst-case query sensitivity over adjacent-dataset
pairs.

Randomness contract: every sampling routine is driven by a counter-based
Philox generator keyed by (seed, stream), so results are reproducible and
independent streams can run in parallel.  A seed belongs to the one call it
is handed to.  That call may draw any streams of it (``rng_stream(seed,
stream)``), and hands randomness to any other call only as a child seed
``derive_seed(seed, purpose, *index)``, never as its own seed or an offset
of it, so no two uses share a Philox key.  All noise is drawn in
standardized form and then multiplied by the scale, which makes draws for
two calibrations of the same family and seed exactly proportional (nested
adjacency balls stay nested, costs stay monotone in the noise scale).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Any, Callable

import numpy as np
from scipy.special import ndtri

from .conic import ConicProgram, Solution
from .solver import KKT_BATCH_BYTES, SolverSettings, solve_batch, stack_bytes


def rng_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator keyed by the 64-bit (seed, stream) pair."""
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
    )


class Purpose(IntEnum):
    """Every use a seed is split between: the first entry of a derive_seed path."""

    POINT = 0          # an experiment point (index: its place in run order)
    CALIBRATION = 1    # the sensitivity estimate of one alpha (index: its place)
    SWEEP = 2          # the CVaR risk sweep
    PRIVATIZE = 3      # a point's Study.privatize (read by the ellipsoid's objective)
    EVAL = 4           # a point's Monte Carlo draws
    INPUT = 5          # a point's input noise, added to the private vector


def derive_seed(seed: int, *path: int) -> int:
    """The 64-bit child seed of seed >= 0 for one use, path = (purpose, *index):
    a SeedSequence hash, so children of distinct (seed, path) are
    independent draws (equal with probability about 2^-64)."""
    ss = np.random.SeedSequence(seed, spawn_key=path)
    return int(ss.generate_state(1, np.uint64)[0])


# --- noise specification ------------------------------------------------------


@dataclass(frozen=True)
class NoiseSpec:
    """Zero-mean perturbation: iid Laplace(scale) or Gaussian(sigma) coordinates."""

    family: str  # "laplace" | "gaussian"
    k: int
    scale: float

    def __post_init__(self):
        if self.family not in ("laplace", "gaussian"):
            raise ValueError(f"unknown noise family {self.family!r}")
        if self.k < 1:
            raise ValueError("noise dimension must be >= 1")
        if not self.scale > 0:
            raise ValueError("scale must be positive")

    @property
    def coordinate_variance(self) -> float:
        return 2.0 * self.scale**2 if self.family == "laplace" else self.scale**2

    def half_width(self, p: float) -> float:
        """t with P[|zeta_j| <= t] = p: b ln(1/(1 - p)) for Laplace(b), sigma
        Phi^-1((1 + p)/2) for Gaussian(sigma), both read off the tail 1 - p."""
        tail = 1.0 - p
        if self.family == "laplace":
            return self.scale * -float(np.log(tail))
        return self.scale * -float(ndtri(tail / 2.0))

    def cvar(self, q: float) -> float:
        """kappa, the mean of the worst tau = 1 - q share of one coordinate:
        b (1 - ln(2 tau)) for Laplace(b) at tau <= 1/2 and b q (1 - ln(2 q)) / tau
        above, sigma phi(Phi^-1(q)) / tau for Gaussian(sigma), all read off the
        tail tau as half_width is."""
        if not 0 < q < 1:
            raise ValueError("q must be in (0, 1)")
        tau = 1.0 - q
        if self.family == "laplace":
            if tau <= 0.5:
                return self.scale * (1.0 - math.log(2.0 * tau))
            return self.scale * q * (1.0 - math.log(2.0 * q)) / tau
        z = float(ndtri(tau))
        return self.scale * math.exp(-0.5 * z * z) / (math.sqrt(2.0 * math.pi) * tau)


def sample_noise(spec: NoiseSpec, seed: int, count: int, stream: int = 0) -> np.ndarray:
    """count x k matrix of iid draws; identical for identical (seed, stream)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = rng_stream(seed, stream)
    if spec.family == "laplace":
        base = rng.laplace(0.0, 1.0, size=(count, spec.k))
    else:
        base = rng.standard_normal(size=(count, spec.k))
    return spec.scale * base


def calibrate_laplace(delta_1: float, epsilon: float, k: int = 1) -> NoiseSpec:
    """Laplace mechanism scale delta_1/epsilon for l1-sensitivity delta_1."""
    if delta_1 <= 0 or epsilon <= 0:
        raise ValueError("delta_1 and epsilon must be positive")
    return NoiseSpec("laplace", k, delta_1 / epsilon)


def _gaussian_factor(delta: float) -> float:
    """sqrt(2 ln(1.25/delta)): the Gaussian mechanism's sigma per unit of
    delta_2 / epsilon."""
    return math.sqrt(2.0 * math.log(1.25 / delta))


def calibrate_gaussian(delta_2: float, epsilon: float, delta: float, k: int = 1) -> NoiseSpec:
    """Gaussian mechanism sigma = sqrt(2 ln(1.25/delta)) * delta_2 / epsilon."""
    if delta_2 <= 0 or epsilon <= 0:
        raise ValueError("delta_2 and epsilon must be positive")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    return NoiseSpec("gaussian", k, _gaussian_factor(delta) * delta_2 / epsilon)


def sensitivity_sample_size(gamma: float, beta: float) -> int:
    """Minimum sample count ceil(1/(gamma*beta) - 1) for the (gamma, beta) bound."""
    if not (0 < gamma < 1 and 0 < beta < 1):
        raise ValueError("gamma and beta must be in (0, 1)")
    return int(math.ceil(1.0 / (gamma * beta) - 1.0))


# --- adjacency and sensitivity estimation -------------------------------------


@dataclass(frozen=True)
class AdjacencyModel:
    """Seedable generator of alpha-adjacent dataset pairs plus the released query.

    sample_pair(rng) must construct the pair directly inside the alpha ball
    (no rejection).  program(dataset) builds the dataset's conic program,
    which estimate_sensitivity solves under settings (None: the solver's
    defaults); read(dataset, solution) maps its solution to the released
    value(s) and raises on a status it cannot use.  alpha is the value the
    model was built at, inf for a model that reads none (a fixed universe
    whose datasets are all adjacent).

    private is the base dataset's private vector, which input noise moves,
    and with_private(v) that dataset rebuilt around v; both are set only
    where alpha bounds the mechanism-norm distance of adjacent ones.

    Datasets are immutable and program is a function of the dataset, so one
    dataset object always means one program: estimate_sensitivity builds and
    solves a dataset that sample_pair returns again (the same object) only
    once, such as the base of a star-shaped model whose pairs all hold it.
    """

    sample_pair: Callable[[np.random.Generator], tuple[Any, Any]]
    program: Callable[[Any], ConicProgram]
    read: Callable[[Any, Solution], np.ndarray]
    alpha: float
    settings: SolverSettings | None = None
    private: np.ndarray | None = None
    with_private: Callable[[np.ndarray], Any] | None = None

    def released(self, dataset, solution: Solution) -> np.ndarray:
        return np.atleast_1d(np.asarray(self.read(dataset, solution), dtype=float))


class SolveFailure(RuntimeError):
    def __init__(self, sample_index: int, msg: str):
        super().__init__(f"sample {sample_index}: {msg}")
        self.sample_index = sample_index


@dataclass(frozen=True)
class SensitivityReport:
    p: int
    alpha: float
    gamma: float
    beta: float
    samples: int     # the pairs solved; the failed pairs were drawn too
    delta_p: float
    failures: tuple[int, ...] = ()

    def to_json(self) -> str:
        return json.dumps(
            {
                "p": self.p,
                "alpha": self.alpha,
                "gamma": self.gamma,
                "beta": self.beta,
                "S": self.samples,
                "delta_p": self.delta_p,
                "failures": list(self.failures),
            }
        )


class _Entry:
    """One dataset of a sensitivity estimate: its program, or the exception
    building it raised, until that program is solved; then its Solution."""

    __slots__ = ("dataset", "outcome")

    def __init__(self, dataset, outcome):
        self.dataset, self.outcome = dataset, outcome


def _solved_pairs(adjacency: AdjacencyModel, pairs: range, seed: int):
    """Yield (s, outcome) for s in pairs, in order.  The outcome is, for
    each dataset of pair s that a serial walk would reach, (dataset, its
    Solution or the exception building its program raised), or the
    exception sample_pair raised.

    A dataset that sample_pair returns again (the same object, by `is`) in
    its pair or the next one shares its first draw's entry, so it is built
    and solved once, as the AdjacencyModel contract allows: a star-shaped
    model, whose pairs all hold one base dataset, solves that base once.
    Only those two pairs' entries are kept outside the open chunk.  Newly
    built programs go to the solver in chunks whose stack_bytes sum to at
    most KKT_BATCH_BYTES (a single larger pair goes alone).  Drawing stops
    at an exception from sample_pair, which no walk gets past."""
    chunk: list = []
    used = 0
    previous: list[_Entry] = []
    for s in pairs:
        try:
            d_a, d_b = adjacency.sample_pair(rng_stream(seed, s))
        except Exception as exc:     # raised again in sample order
            chunk.append((s, exc))
            break
        entries: list[_Entry] = []
        size = 0
        for dataset in (d_a, d_b):
            entry = next((e for e in entries + previous if e.dataset is dataset), None)
            if entry is None:
                try:
                    entry = _Entry(dataset, adjacency.program(dataset))
                except Exception as exc:     # raised again in sample order
                    entry = _Entry(dataset, exc)
                else:
                    size += stack_bytes(entry.outcome)
            entries.append(entry)
            if isinstance(entry.outcome, BaseException):
                break
        if chunk and used + size > KKT_BATCH_BYTES:
            yield from _solve_chunk(chunk, adjacency.settings)
            chunk, used = [], 0
        chunk.append((s, entries))
        used += size
        previous = entries
    yield from _solve_chunk(chunk, adjacency.settings)


def _solve_chunk(chunk, settings):
    unsolved = {id(e): e for _, entries in chunk if isinstance(entries, list)
                for e in entries if isinstance(e.outcome, ConicProgram)}
    programs = [e.outcome for e in unsolved.values()]
    for entry, solution in zip(unsolved.values(), solve_batch(programs, settings)):
        entry.outcome = solution
    for s, entries in chunk:
        if isinstance(entries, list):
            entries = [(e.dataset, e.outcome) for e in entries]
        yield s, entries


def _unwrap(outcome):
    if isinstance(outcome, BaseException):
        raise outcome
    return outcome


def estimate_sensitivity(
    adjacency: AdjacencyModel,
    p: int,
    samples: int,
    gamma: float,
    beta: float,
    seed: int,
    max_failure_fraction: float = 0.01,
) -> SensitivityReport:
    """Monte Carlo lower bound on the worst-case query sensitivity.

    Takes the max p-norm gap of the released queries over `samples` solved
    adjacent pairs.  The programs are built in sample order and solved
    together by solver.solve_batch; the results are then taken in sample
    order, so every outcome below is the one a serial walk of build, solve
    and read per dataset gives.  A dataset drawn again (the same object, in
    its pair or the next) is built and solved once and read again; that
    leaves every outcome as it was, since program is a function of the
    dataset and solve_batch gives each program the bytes of its solo solve.
    Pairs whose build, solve or read fails (a RuntimeError or ValueError:
    solver statuses, numerical breakdown, infeasible privatizations,
    LinAlgError) are dropped, reported and replaced by the pairs at the next
    stream indices, so that `samples` pairs solve, as the (gamma, beta)
    requirement counts them; but only up to max_failure_fraction of
    `samples` failures, beyond which a SolveFailure propagates.  Any other exception is a bug and propagates at
    its sample.
    """
    if p not in (1, 2):
        raise ValueError("p must be 1 or 2")
    if samples < sensitivity_sample_size(gamma, beta):
        raise ValueError(
            f"samples={samples} below the (gamma={gamma}, beta={beta}) "
            f"requirement {sensitivity_sample_size(gamma, beta)}"
        )
    worst = 0.0
    failures: list[int] = []
    allowed = max(1, int(max_failure_fraction * samples))
    drawn = 0
    while drawn - len(failures) < samples:
        pairs = range(drawn, drawn + samples - (drawn - len(failures)))
        drawn = pairs.stop
        for s, outcome in _solved_pairs(adjacency, pairs, seed):
            if isinstance(outcome, BaseException):
                raise outcome
            try:
                q_a, q_b = (adjacency.released(d, _unwrap(x)) for d, x in outcome)
            except (RuntimeError, ValueError) as exc:
                failures.append(s)
                if len(failures) > allowed:
                    raise SolveFailure(s, str(exc)) from exc
                continue
            gap = np.linalg.norm(q_a - q_b, ord=p)
            worst = max(worst, float(gap))
    return SensitivityReport(
        p=p, alpha=adjacency.alpha, gamma=gamma, beta=beta,
        samples=samples, delta_p=worst, failures=tuple(failures),
    )
