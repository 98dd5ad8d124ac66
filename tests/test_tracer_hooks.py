"""The benchmark's hooks must name live kstab entry points.

perfbench/tracer.py wraps every name in ENTRY_POINTS on its
``kstab.<layer>`` module and every name in RAY_METHODS on ``Ray`` with a
plain getattr, so a renamed or deleted entry point breaks every traced
benchmark run at install time.  perfbench/workloads.py's _ErrorObserver
wraps each of its NAMES on ``kstab.cli`` the same way, so a name the CLI
no longer imports breaks every ray1d run at set-up.  Both files are
loaded by path, unedited.  One traced round of the exact workload and one
of ray1d check that the wrapped entry points are also reached.
"""
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import kstab.cli
from kstab.analysis import Ray

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")


@pytest.mark.parametrize("layer", sorted(tracer.ENTRY_POINTS))
def test_entry_points_resolve(layer):
    module = importlib.import_module(f"kstab.{layer}")
    missing = [name for name in tracer.ENTRY_POINTS[layer]
               if not hasattr(module, name)]
    assert not missing


def test_ray_methods_resolve():
    assert [m for m in tracer.RAY_METHODS if not hasattr(Ray, m)] == []


def test_error_observer_names_resolve_on_cli(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads.py imports gen
    observer = _load("workloads")._ErrorObserver
    assert [n for n in observer.NAMES if not hasattr(kstab.cli, n)] == []


def _traced_round(workload):
    """perfbench/run.py, one traced round of workload; it writes only
    under the git-ignored .perfbench/."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    return result["metrics"]


def test_traced_exact_round_records_mixed_volumes():
    """One traced exact round, about 1 s."""
    assert _traced_round("exact")["polytope.mixed_volume_s"]["value"] > 0


def test_traced_ray1d_round_times_the_point_probe():
    """One traced ray1d round, about 2 s.  Ray.point_derivative is a
    static method, called through the class, so the tracer's class-level
    wrap still times the POINT probe."""
    assert _traced_round("ray1d")["analysis.point_probe_s"]["value"] > 0
