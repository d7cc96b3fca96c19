"""The benchmark harness under benchmarks/ runs on this package's API.

The harness reads the privatization records (``release``, ``solution``,
``program``, ``privatized``) and wraps the public functions named in
``layers.targets``; one round of each workload, with the checks the
benchmark runs after its timed rounds, keeps that contract in the suite.
"""

from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
SEED = 11


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    # experiment-mix's prepare sets it for the run; undone after the test
    monkeypatch.setenv("DP_CONIC_THREADS", "1")
    import layers
    import workloads

    return layers, workloads


def test_every_traced_target_resolves(harness):
    layers, _ = harness
    targets = layers.targets([])
    names = [t.name for t in targets]
    assert len(names) == len(set(names))
    assert all(callable(t.fn) for t in targets)
    assert {"apps.privatize:privatize_svm", "apps.privatize:privatize_ellipsoid",
            "apps.privatize:privatize_opf", "apps.privatize:privatize_regression",
            "apps.metrics.evaluate_rule_metrics", "ldr.privatize",
            "experiments.run_experiment", "experiments.cvar_q_sweep"} <= set(names)


@pytest.mark.parametrize("name", ["privatize-large", "sensitivity-small",
                                  "experiment-mix"])
def test_one_round_passes_its_checks(harness, tmp_path, name):
    _, workloads = harness
    wl = workloads.WORKLOADS[name]
    ops = wl.run_round(wl.prepare(SEED, tmp_path), 0)
    assert ops
    assert [(op.kind, op.note) for op in ops if op.failed] == []
    problems = [p for op in ops if op.check is not None for p in op.check()]
    assert problems == []
