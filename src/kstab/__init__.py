"""Exact toric K-stability invariants and their numerical slope checks.

Configurations are (polytope, convex PL function, shift) triples; the
algebraic side computes Donaldson-Futaki invariants, minimum norms and
Chow weights in exact rational arithmetic, while the analytic side runs
geodesic-ray quadrature and verifies that limit slopes of the energy
functionals reproduce the exact invariants.  Importing kstab loads the
exact side only; the analytic names load numpy when first read.
"""
import importlib

from .errors import KstabError, NumericalFailure, ValidationError
from .invariants import (
    blowup_expansion,
    calibration_constant,
    chow_weight,
    donaldson_futaki,
    invariant_report,
    minimum_norm,
    minimum_norm_mixed,
    scan_destabilizer,
    slope_mu,
    twisted_weights,
)
from .plconfig import ToricTestConfig, make_config, normalize, pl_fn
from .polytope import (
    Halfspace,
    Polytope,
    box,
    construct,
    integrate,
    interval,
    mixed_volume,
    unit_simplex,
    volume_data,
)

# the numeric names load their module, and numpy, on first access only
_NUMERIC = {
    "Ray": "analysis",
    "newton_transport": "analysis",
    "energy_report": "functionals",
    "l1_norm_path": "functionals",
    "mabuchi": "functionals",
    "Schedule": "slopes",
    "SlopeEstimate": "slopes",
    "estimate_limit_slope": "slopes",
    "estimate_limit_value": "slopes",
    "verify_theorem": "slopes",
}


def __getattr__(name):
    if name not in _NUMERIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_NUMERIC[name]}", __name__),
                   name)


def __dir__():
    return sorted(set(globals()) | set(_NUMERIC))


__version__ = "0.1.0"

__all__ = [
    "Halfspace",
    "KstabError",
    "NumericalFailure",
    "Polytope",
    "Ray",
    "Schedule",
    "SlopeEstimate",
    "ToricTestConfig",
    "ValidationError",
    "blowup_expansion",
    "box",
    "calibration_constant",
    "chow_weight",
    "construct",
    "donaldson_futaki",
    "energy_report",
    "estimate_limit_slope",
    "estimate_limit_value",
    "integrate",
    "interval",
    "invariant_report",
    "l1_norm_path",
    "mabuchi",
    "make_config",
    "minimum_norm",
    "minimum_norm_mixed",
    "mixed_volume",
    "newton_transport",
    "normalize",
    "pl_fn",
    "scan_destabilizer",
    "slope_mu",
    "twisted_weights",
    "unit_simplex",
    "verify_theorem",
    "volume_data",
]
