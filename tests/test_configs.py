"""The pinned study configs under configs/ run through the command line."""

import csv
import json
from pathlib import Path

import pytest

from dpconic.apps.opf import bundled_network
from dpconic.cli import main
from dpconic.experiments import cvar_q_sweep

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# each config's point statuses in run order (strategies outer, alphas inner)
STATUSES = {
    "opf-triangle3": ["ok"] * 9,
    "opf-ring5": ["ok"] * 9,
    # Lap(max c * 25) noise leaves the chance-constrained program no room
    "cvar6-sweep": ["ok", "infeasible:chance-constrained OPF returned "
                          "PrimalInfeasible (alpha=25.0, eta=0.01)"],
    "svm": ["ok"] * 2,
    "regression-cubic": ["ok"] * 2,
    "regression-wind": ["ok"] * 4,
    "ellipsoid": ["ok"] * 4,
}


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """run(name) -> the output directory of configs/<name>.json at 20 MC samples."""
    done = {}

    def get(name):
        if name not in done:
            out = tmp_path_factory.mktemp(name)
            assert main(["experiment", "--config", str(CONFIGS / f"{name}.json"),
                         "--out", str(out), "--mc-samples", "20"]) == 0
            done[name] = out
        return done[name]

    return get


def test_every_config_is_pinned():
    assert sorted(p.stem for p in CONFIGS.glob("*.json")) == sorted(STATUSES)


@pytest.mark.parametrize("name", sorted(STATUSES))
def test_config_statuses(run, name):
    points = json.loads((run(name) / "manifest.json").read_text())["points"]
    assert [pt["status"] for pt in points] == STATUSES[name]


def test_cvar6_sweep_rows(run):
    cfg = json.loads((CONFIGS / "cvar6-sweep.json").read_text())
    with open(run("cvar6-sweep") / "cvar.csv", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows_want = cvar_q_sweep(bundled_network("cvar6"), (0, 2, 4), 25, 1,
                             cfg["cvar_q_grid"], seed=3)
    assert rows[0] == ["q", "mean", "cvar05", "var"]
    assert rows[1:] == [[f"{v:.10g}" for v in row] for row in rows_want]


@pytest.mark.parametrize("doc", [
    {"app": "svm", "dataset": "triangle3"},
    {"app": "regression", "dataset": "nonsense"},
    {"app": "regression", "dataset": "wind", "alphas": [2.0]},
], ids=["svm-reads-no-dataset", "unknown-regression-dataset", "wind-alpha-2"])
def test_rejected_config_exits_2(tmp_path, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**doc, "output_dir": str(tmp_path / "run")}))
    assert main(["experiment", "--config", str(path)]) == 2
    assert not (tmp_path / "run").exists()
