"""The package surface: ``import kstab`` loads the exact layer only.

The numeric names of ``kstab.__all__`` come from their modules on first
access (the package's ``__getattr__``), so exact work through the
package never imports numpy.  A fresh interpreter shows it: pytest has
long since loaded every module here.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kstab

SRC = Path(__file__).resolve().parents[1] / "src"

EXACT_WORK = """\
import json, sys
from fractions import Fraction as F
import kstab
from kstab.polytope import corner_chop
base = corner_chop(kstab.box(2), (1, 1), F(1, 4))
cfg = kstab.normalize(kstab.make_config(base, [((1, 0), 0), ((0, 1), 0)]),
                      "min_zero")
report = kstab.invariant_report(cfg)
weights = [kstab.chow_weight(cfg, v) for v in base.vertices]
scan = kstab.scan_destabilizer(cfg)
blowup = kstab.blowup_expansion(cfg, (1, 0),
                                [F(1, k) for k in (8, 16, 32, 64)])
exact = {"numpy": "numpy" in sys.modules, "df": str(report.df),
         "best": str(scan.best.value), "max_weight": str(max(weights)),
         "matches": blowup.matches,
         "numeric": sorted(m for m in sys.modules
                           if m in ("kstab.analysis", "kstab.functionals",
                                    "kstab.slopes", "kstab.cli"))}
kstab.verify_theorem
exact["numpy_after_verify_theorem"] = "numpy" in sys.modules
print(json.dumps(exact))
"""


def test_exact_work_through_the_package_loads_no_numpy():
    """DF, Chow weights, the scan and Stoppa's expansion on the chopped
    square run with no numeric module loaded; the first read of a
    numeric name loads numpy."""
    done = subprocess.run([sys.executable, "-c", EXACT_WORK],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    exact = json.loads(done.stdout)
    assert exact == {"numpy": False, "df": "535/992", "best": "85/248",
                     "max_weight": "85/248", "matches": True, "numeric": [],
                     "numpy_after_verify_theorem": True}


def test_every_exported_name_is_its_modules_object():
    """kstab.verify_theorem is kstab.slopes.verify_theorem, and so on:
    the lazy names are the defining modules' objects, not copies."""
    assert kstab.verify_theorem is kstab.slopes.verify_theorem
    for name in kstab.__all__:
        obj = getattr(kstab, name)
        assert obj.__module__.startswith("kstab."), name
        assert obj is getattr(sys.modules[obj.__module__], name), name


def test_dir_lists_all_and_unknown_names_raise():
    assert set(kstab.__all__) <= set(dir(kstab))
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        kstab.nope  # noqa: B018
