"""Smoke runs of the command-line scripts under scripts/."""
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, argv", [
    ("stability_margin", ["--denom", "2", "--span", "1", "--dim", "1"]),
    ("slope_convergence", ["--config", "affine", "--theorem", "AM"]),
])
def test_script_main_returns_0(name, argv, capsys):
    assert load_script(name).main(argv) == 0
    assert capsys.readouterr().out
