"""The one release path: every study's Privatization releases its nominal
query plus the raw sample_noise draws, bit for bit, one release or many;
every vertex-method study's program point keeps its chance level; each app
reads its base optimum and its privatization through one query; and the
privatized programs keep their bytes."""

import hashlib
import math
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import opf_noise
from dpconic import dp
from dpconic.dp import calibrate_gaussian, calibrate_laplace, sample_noise
from dpconic.experiments import APPS, ExperimentConfig
from dpconic.ldr import (DecisionRule, IndividualChance, Privatization, SelectQuery,
                         VertexChance, privatize)
from dpconic.solver import solve
from dpconic.apps import ellipsoid, opf, regression, simple_lp, svm

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _svm():
    train, _, _ = svm.synthetic_gaussian_classes(m=20, seed=2)
    return svm.privatize_svm(train, calibrate_laplace(2.0, 1.0, k=3),
                             IndividualChance(eta_bar=0.05))


def _regression():
    model = regression.synthetic_cubic_data(n=100, seed=0)
    return regression.privatize_regression(
        model, calibrate_gaussian(1.0, 1.0, 0.01, k=2), eta=0.05)


def _ellipsoid():
    return ellipsoid.privatize_ellipsoid(
        ellipsoid.regular_polygon(4, radius=1.5),
        calibrate_gaussian(0.05, 1.0, 0.1, k=6), eta=0.10, seed=1)


def _opf():
    net = opf.bundled_network("triangle3")
    return opf.privatize_opf(net, opf_noise(net, 1.0), 0.01)


def _simple_lp():
    return simple_lp.privatize_simple_lp(simple_lp.SimpleLpStudy(),
                                         calibrate_laplace(0.05, 1.0, k=1), 0.05)


# study -> (its privatization, the value its release takes from the query
# vector: the shapes callers unpack)
STUDIES = {
    "svm": (_svm, lambda v: (v[:2], v[2])),
    "regression": (_regression, lambda v: v),
    "ellipsoid": (_ellipsoid, ellipsoid.unpack_rule_vector),
    "opf": (_opf, lambda v: v[0]),
    "simple-lp": (_simple_lp, lambda v: v),
}


def test_privatize_draws_nothing(monkeypatch):
    # the rule program is fixed by the noise law: with every Philox stream
    # shut, each study still privatizes, and the ellipsoid too once its
    # objective points are drawn by the caller
    noise = calibrate_gaussian(0.05, 1.0, 0.1, k=ellipsoid.RULE_DIM)
    points = sample_noise(noise, 1, 8, ellipsoid.OBJ_STREAM)

    def shut(seed, stream=0):
        raise AssertionError(f"drew from ({seed}, {stream})")
    monkeypatch.setattr(dp, "rng_stream", shut)
    for name in ("opf", "simple-lp", "svm", "regression"):
        assert isinstance(STUDIES[name][0](), Privatization)
    pp = privatize(ellipsoid.build_ellipsoid(ellipsoid.regular_polygon(4, radius=1.5)),
                   noise, SelectQuery(range(ellipsoid.RULE_DIM)), VertexChance(0.1),
                   epigraph_vars=1, objective_points=points)
    assert pp.program.variable_names[-8:] == tuple(f"t[0][{s}]" for s in range(8))


def _bytes(value) -> bytes:
    parts = value if isinstance(value, tuple) else (value,)
    return np.hstack([np.ravel(np.asarray(p, dtype=float)) for p in parts]).tobytes()


@pytest.fixture(scope="module", params=sorted(STUDIES))
def study(request):
    make, unpack = STUDIES[request.param]
    return make(), unpack


def test_release_is_nominal_plus_raw_draw(study):
    pv, unpack = study
    assert isinstance(pv, Privatization)
    nominal = pv.query.value(pv.rule.xbar)
    assert nominal.shape == (pv.noise.k,)
    assert _bytes(pv.nominal) == _bytes(unpack(nominal))
    for stream in range(4):
        draw = sample_noise(pv.noise, 17, 1, stream)[0]
        assert _bytes(pv.release(17, stream)) == _bytes(unpack(nominal + draw))


def test_first_of_many_releases_is_the_release(study):
    # a Monte Carlo batch and a single release share their first row, for
    # the Laplace (svm, opf, simple-lp) and Gaussian (regression, ellipsoid)
    # draws alike
    pv, unpack = study
    nominal = pv.query.value(pv.rule.xbar)
    for stream in range(3):
        rows = pv.releases(12, 500, stream)
        assert rows.shape == (500, pv.noise.k)
        single = nominal + sample_noise(pv.noise, 12, 1, stream)[0]
        assert rows[0].tobytes() == single.tobytes()
        assert _bytes(pv.release(12, stream)) == _bytes(unpack(rows[0]))


def test_release_never_reads_the_recourse(study):
    # the query's constraint on X fixes the release's random part, so the
    # release reads only xbar: a rule whose X is all NaN releases the same bytes
    pv, unpack = study
    blind = replace(pv, rule=DecisionRule(pv.rule.xbar, np.full_like(pv.rule.X, np.nan)))
    nominal = pv.query.value(pv.rule.xbar)
    for stream in range(3):
        draw = sample_noise(pv.noise, 12, 1, stream)[0]
        assert _bytes(blind.release(12, stream)) == _bytes(unpack(nominal + draw))
        assert blind.releases(12, 50, stream).tobytes() == pv.releases(12, 50, stream).tobytes()


# program point -> (its study, its noise, its eta): each opf network at the
# largest alpha of its config, the simple LP and the ellipsoid
def _opf_point(name, alpha):
    net = opf.bundled_network(name)
    cfg = SimpleNamespace(epsilon=1.0, eta=0.01)
    return lambda: (opf.experiment_study(cfg, net), opf_noise(net, alpha), cfg.eta)


CHANCE_POINTS = {
    "opf-triangle3": _opf_point("triangle3", 10.0),
    "opf-ring5": _opf_point("ring5", 10.0),
    "opf-cvar6": _opf_point("cvar6", 25.0),
    "simple-lp": lambda: (simple_lp.experiment_study(SimpleNamespace(eta=0.05),
                                                     simple_lp.SimpleLpStudy()),
                          calibrate_laplace(0.1, 1.0, k=1), 0.05),
    "ellipsoid": lambda: (ellipsoid.experiment_study(SimpleNamespace(eta=0.1),
                                                     ellipsoid.regular_polygon(5, 2.0)),
                          calibrate_gaussian(0.05, 1.0, 0.1, k=ellipsoid.RULE_DIM), 0.1),
}


@pytest.mark.parametrize("name", sorted(CHANCE_POINTS))
def test_program_point_violates_at_most_eta(name):
    # the vertex box holds mass 1 - eta, so a program point's released rows
    # violate at most eta of the time, up to 3 binomial standard errors
    study, noise, eta = CHANCE_POINTS[name]()
    pv = study.privatize(noise, 5)
    draws = 20_000
    _, violated = study.score(pv.releases(11, draws), pv)
    assert violated.mean() <= eta + 3 * math.sqrt(eta * (1 - eta) / draws)


# config -> (its app module, the dataset its adjacency pairs perturb, of the
# app's data)
ONE_QUERY = {
    "svm": (svm, lambda data: data[0]),
    "regression-cubic": (regression, lambda data: data.model),
    "ellipsoid": (ellipsoid, lambda data: data),
    "opf-triangle3": (opf, lambda data: data),
}


@pytest.mark.parametrize("name", sorted(ONE_QUERY))
def test_one_query_per_app(name):
    # the study's nominal is the adjacency's read of the base optimum, to the
    # byte, and the program point releases the query the adjacency reads
    module, base_of = ONE_QUERY[name]
    cfg = ExperimentConfig.from_json((CONFIGS / f"{name}.json").read_text())
    app = APPS[cfg.app]
    data = app.data(cfg.dataset, cfg.seed)
    base, adjacency = base_of(data), app.adjacency(data, cfg.alphas[0])
    study, query = app.study(cfg, data), module.release_query(base)
    sol = solve(adjacency.program(base), adjacency.settings)
    released = adjacency.released(base, sol)
    assert study.nominal.dtype == released.dtype == query.value(sol.x).dtype
    assert study.nominal.tobytes() == released.tobytes() == query.value(sol.x).tobytes()
    k = query.k
    noise = (calibrate_laplace(0.01, 1.0, k) if app.p == 1
             else calibrate_gaussian(0.01, 1.0, 0.1, k))
    assert study.privatize(noise, 1).query == query


def _digest(program) -> str:
    """sha256 of a CSR program's (A.data, A.indices, A.indptr, b, c, cone
    blocks)."""
    h = hashlib.sha256()
    A = program.A
    for part in (A.data, A.indices.astype(np.int64), A.indptr.astype(np.int64),
                 program.b, program.c):
        h.update(np.ascontiguousarray(part).tobytes())
    h.update(repr([(blk.kind.value, blk.dim) for blk in program.cones.blocks]).encode())
    return h.hexdigest()


def _privatize_large_svm():
    data, _, _ = svm.synthetic_gaussian_classes(m=100, seed=7)
    return svm.privatize_svm(data, calibrate_laplace(29.931647924673214, 1.0, k=data.n + 1),
                             IndividualChance(eta_bar=0.05))


# privatized program -> (its privatization, the digest of its program, recorded
# when svm and regression permuted their base columns and the ellipsoid had a
# second program for its privatization)
PROGRAM_DIGESTS = {
    "svm": (_privatize_large_svm,
            "28944222215f4b82558adc70b9926e0af6d7bf290404250e58430c99a0589292"),
    "regression": (lambda: regression.privatize_regression(
        regression.synthetic_cubic_data(n=100, seed=0),
        calibrate_gaussian(1.0, 1.0, 0.01, k=2), eta=0.05),
        "b64d8c0e5c0a909a19bc581906b0388d648d1cd7edc04bcdb1144f4443d649f1"),
    "ellipsoid": (lambda: ellipsoid.privatize_ellipsoid(
        ellipsoid.regular_polygon(5, 2.0),
        calibrate_gaussian(0.05, 1.0, 0.1, k=ellipsoid.RULE_DIM), eta=0.1, seed=1),
        "9674be3088f4c4cfa5a7c7b1e9110553b7e55e51b126a19a0fc546aba149c5c1"),
}


@pytest.mark.parametrize("name", sorted(PROGRAM_DIGESTS))
def test_privatized_program_keeps_its_bytes(name):
    make, digest = PROGRAM_DIGESTS[name]
    assert _digest(make().program) == digest
