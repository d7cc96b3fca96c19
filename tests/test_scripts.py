"""The study scripts import only names the package still has."""

import importlib.util
from pathlib import Path

import pytest

from dpconic.experiments import ExperimentConfig

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("path", sorted(SCRIPTS.glob("*.py")), ids=lambda p: p.name)
def test_script_loads(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # runs the imports; main() stays behind __main__
    assert callable(module.main)


def test_example_config_parses():
    text = (SCRIPTS / "example_config.json").read_text()
    cfg = ExperimentConfig.from_json(text)
    assert cfg.app == "opf" and cfg.strategies == ("input", "output", "program")
