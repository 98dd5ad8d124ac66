"""The benchmark tracer's hooks must name live kstab entry points.

perfbench/tracer.py wraps every name in ENTRY_POINTS on its
``kstab.<layer>`` module and every name in RAY_METHODS on ``Ray`` with a
plain getattr, so a renamed or deleted entry point breaks every traced
benchmark run at install time.  The tracer is loaded by path, unedited.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

from kstab.analysis import Ray

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("layer", sorted(tracer.ENTRY_POINTS))
def test_entry_points_resolve(layer):
    module = importlib.import_module(f"kstab.{layer}")
    missing = [name for name in tracer.ENTRY_POINTS[layer]
               if not hasattr(module, name)]
    assert not missing


def test_ray_methods_resolve():
    assert [m for m in tracer.RAY_METHODS if not hasattr(Ray, m)] == []
