"""The pinned study configs under configs/ run through the command line."""

import csv
import json
import math
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import pytest

from dpconic import dp
from dpconic.apps.opf import bundled_network
from dpconic.cli import main
from dpconic.dp import Purpose, derive_seed
from dpconic.experiments import ExperimentConfig, cvar_q_sweep

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# configs the tests run besides configs/*.json.  seed0-collision: at config
# seed 0, a rule that offset seeds by hand (point i at seed*1_000_003 + i,
# the CVaR samples at seed + 1) gave point 1's input draws and the sweep's
# CVaR samples the one Philox key (1, 1)
EXTRA = {
    "seed0-collision": {"app": "opf", "strategies": ["input", "output", "program"],
                        "alphas": [1.0, 3.0], "cvar_q_grid": [0.1], "seed": 0},
}

# each config's point statuses in run order (strategies outer, alphas inner)
STATUSES = {
    "opf-triangle3": ["ok"] * 9,
    "opf-ring5": ["ok"] * 9,
    # the alpha-25 program point's box holds mass 1 - eta under the noise
    # law, and the rule program absorbs it
    "cvar6-sweep": ["ok", "ok"],
    "svm": ["ok"] * 2,
    "regression-cubic": ["ok"] * 2,
    "regression-wind": ["ok"] * 4,
    "ellipsoid": ["ok"] * 4,
    "seed0-collision": ["ok"] * 6,
}


_DP_FILE = dp.rng_stream.__code__.co_filename


def _site():
    """file:line of the first frame outside dp.py."""
    frame = sys._getframe(2)
    while frame.f_code.co_filename == _DP_FILE:
        frame = frame.f_back
    return f"{Path(frame.f_code.co_filename).name}:{frame.f_lineno}"


@dataclass
class Run:
    out: Path
    # Philox key (seed, stream) -> the call sites that drew from it
    keys: dict


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """run(name) -> the Run of configs/<name>.json (or EXTRA[name]) at 20 MC
    samples, with every key dp.rng_stream was asked for."""
    done = {}

    def get(name):
        if name not in done:
            out = tmp_path_factory.mktemp(name)
            path = CONFIGS / f"{name}.json"
            if name in EXTRA:
                path = out / "config.json"
                path.write_text(json.dumps(EXTRA[name]))
            keys = defaultdict(set)
            real = dp.rng_stream

            def recording(seed, stream=0):
                keys[(int(seed), int(stream))].add(_site())
                return real(seed, stream)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(dp, "rng_stream", recording)
                assert main(["experiment", "--config", str(path), "--out",
                             str(out / "run"), "--mc-samples", "20"]) == 0
            done[name] = Run(out / "run", dict(keys))
        return done[name]

    return get


def test_every_config_is_pinned():
    names = [p.stem for p in CONFIGS.glob("*.json")] + list(EXTRA)
    assert sorted(names) == sorted(STATUSES)


@pytest.mark.parametrize("name", sorted(STATUSES))
def test_config_statuses(run, name):
    points = json.loads((run(name).out / "manifest.json").read_text())["points"]
    assert [pt["status"] for pt in points] == STATUSES[name]


@pytest.mark.parametrize("name", sorted(STATUSES))
def test_every_key_has_one_site(run, name):
    keys = run(name).keys
    assert keys
    shared = {key: sorted(sites) for key, sites in keys.items() if len(sites) > 1}
    assert shared == {}


def test_cvar6_sweep_rows(run):
    cfg = json.loads((CONFIGS / "cvar6-sweep.json").read_text())
    with open(run("cvar6-sweep").out / "cvar.csv", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    # the run scores the sweep on its --mc-samples 20 draws
    rows_want = cvar_q_sweep(bundled_network("cvar6"), (0, 2, 4), 25, 1,
                             cfg["cvar_q_grid"],
                             seed=derive_seed(cfg["seed"], Purpose.SWEEP), samples=20)
    assert rows[0] == ["q", "mean", "cvar05", "var"]
    assert rows[1:] == [[f"{v:.10g}" for v in row] for row in rows_want]


@pytest.mark.parametrize("doc", [
    {"app": "svm", "dataset": "triangle3"},
    {"app": "regression", "dataset": "nonsense"},
    {"app": "regression", "dataset": "wind", "alphas": [2.0]},
    {"app": "opf", "seed": -1},
    {"app": "opf", "alphas": [], "cvar_q_grid": [0.1]},
    {"app": "opf", "cvar_q_grid": [1.5]},
    {"app": "svm", "cvar_q_grid": [0.1]},
    {"app": "opf", "alphas": [-1.0]},
    {"app": "simple-lp", "alphas": [0.0]},
    {"app": "opf", "strategies": []},
    {"app": "ellipsoid", "alphas": [0.01], "delta": 1.0},
    {"app": "regression", "delta": -0.1},
    {"app": "opf", "seed": 1.5},
    {"app": "opf", "mc_samples": 20.5},
    {"app": "simple-lp", "seed": True},
    {"app": "svm", "delta": 0.5},
    {"app": "svm", "alphas": [1.0, 2.0]},
    {"app": "regression", "dataset": "cubic", "alphas": [1.0, 2.0]},
    {"app": "simple-lp", "epsilon": float("nan")},
    {"app": "simple-lp", "epsilon": float("inf")},
    {"app": "opf", "alphas": [float("inf")]},
    {"app": "simple-lp", "alphas": [float("inf")]},
], ids=["svm-reads-no-dataset", "unknown-regression-dataset", "wind-alpha-2",
        "negative-seed", "no-alphas", "cvar-q-above-1", "cvar-grid-on-svm",
        "negative-opf-alpha", "zero-simple-lp-alpha", "no-strategies", "delta-1", "negative-delta",
        "fractional-seed", "fractional-mc-samples", "bool-seed", "delta-on-laplace-app",
        "svm-second-alpha", "cubic-second-alpha", "nan-epsilon", "inf-epsilon",
        "inf-opf-alpha", "inf-simple-lp-alpha"])
def test_rejected_config_exits_2(tmp_path, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**doc, "output_dir": str(tmp_path / "run")}))
    assert main(["experiment", "--config", str(path)]) == 2
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("app", ["opf", "simple-lp"])
def test_infinite_alpha_rejected_where_noise_is_calibrated_at_alpha(app):
    # the analytic bound and the input noise would be infinite
    with pytest.raises(ValueError, match="calibrates its noise at alpha, which must be finite"):
        ExperimentConfig(app=app, alphas=(math.inf,))
    # an adjacency that reads no alpha still takes it
    assert ExperimentConfig(app="svm", alphas=(math.inf,)).alphas == (math.inf,)
