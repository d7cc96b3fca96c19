"""The one release path: every study's Privatization releases its nominal
query plus the raw sample_noise draws, bit for bit, one release or many;
and every vertex-method study's program point keeps its chance level."""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import opf_noise
from dpconic.dp import calibrate_gaussian, calibrate_laplace, sample_noise
from dpconic.ldr import DecisionRule, IndividualChance, Privatization
from dpconic.apps import ellipsoid, opf, regression, simple_lp, svm


def _svm():
    train, _, _ = svm.synthetic_gaussian_classes(m=20, seed=2)
    return svm.privatize_svm(train, calibrate_laplace(2.0, 1.0, k=3),
                             IndividualChance(eta_bar=0.05), seed=4)


def _regression():
    model = regression.synthetic_cubic_data(n=100, seed=0)
    return regression.privatize_regression(
        model, calibrate_gaussian(1.0, 1.0, 0.01, k=2), eta=0.05, seed=3)


def _ellipsoid():
    return ellipsoid.privatize_ellipsoid(
        ellipsoid.regular_polygon(4, radius=1.5),
        calibrate_gaussian(0.05, 1.0, 0.1, k=6), eta=0.10, seed=1, obj_samples=8)


def _opf():
    net = opf.bundled_network("triangle3")
    return opf.privatize_opf(net, opf_noise(net, 1.0), 0.01, seed=2)


def _simple_lp():
    return simple_lp.privatize_simple_lp(simple_lp.SimpleLpStudy(),
                                         calibrate_laplace(0.05, 1.0, k=1), 0.05, seed=13)


# study -> (its privatization, the value its release takes from the query
# vector: the shapes callers unpack)
STUDIES = {
    "svm": (_svm, lambda v: (v[:2], v[2])),
    "regression": (_regression, lambda v: v),
    "ellipsoid": (_ellipsoid, ellipsoid.unpack_rule_vector),
    "opf": (_opf, lambda v: v[0]),
    "simple-lp": (_simple_lp, lambda v: v),
}


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
