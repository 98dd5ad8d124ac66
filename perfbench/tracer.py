"""Per-layer spans recorded from outside the kstab package.

A layer is a kstab module.  ``Tracer.install`` replaces each listed
entry point by a timing wrapper in every kstab namespace that holds it
(the defining module, the package and every module that imported the
name), and wraps the ``Ray`` methods on the class.  Counts are taken in
the same wrappers, so they line up with the span boundaries.  Spans
stay in memory as (name, start, end, parent, nested, phase) rows until
``dump`` writes them out.
"""
from __future__ import annotations

import json
import math
import sys
import time
from collections import Counter, defaultdict

ENTRY_POINTS = {
    "polytope": ("construct", "volume_data", "integrate", "regions_of_max",
                 "minkowski_sum", "mixed_volume", "corner_chop"),
    "plconfig": ("make_config", "normalize", "pl_fn"),
    "invariants": ("invariant_report", "donaldson_futaki", "minimum_norm",
                   "minimum_norm_mixed", "chow_weight", "twisted_weights",
                   "blowup_expansion", "calibration_constant", "slope_mu"),
    "analysis": ("guillemin_potential", "build_grid", "bulk_grid",
                 "newton_transport", "ricci_reference",
                 "abreu_scalar_curvature"),
    "functionals": ("energy_report", "mabuchi", "adaptive_simpson",
                    "l1_norm_path"),
    "slopes": ("verify_theorem", "estimate_limit_slope",
               "estimate_limit_value", "scan_destabilizer"),
    "cli": ("run_scenario", "load_scenario", "emit_outputs"),
}
RAY_METHODS = ("__init__", "transport", "inverse_transport", "state",
               "point_derivative")

# per-layer metric name -> unit, in the order they are reported
METRICS = {
    "polytope.self_s": "s",
    "polytope.minkowski_sum_s": "s",
    "polytope.minkowski_sum_calls": "count",
    "polytope.mixed_volume_s": "s",
    "polytope.volume_data_hit_ratio": "ratio",
    "plconfig.self_s": "s",
    "plconfig.config_build_s": "s",
    "invariants.self_s": "s",
    "invariants.report_s": "s",
    "invariants.df_s": "s",
    "invariants.blowup_s": "s",
    "analysis.self_s": "s",
    "analysis.newton_fwd_s": "s",
    "analysis.newton_inv_s": "s",
    "analysis.newton_calls": "count",
    "analysis.newton_rows": "count",
    "analysis.ricci_s": "s",
    "analysis.ricci_rows": "count",
    "analysis.grid_build_s": "s",
    "analysis.grid_nodes": "count",
    "analysis.abreu_s": "s",
    "analysis.abreu_rows": "count",
    "analysis.point_probe_s": "s",
    "functionals.self_s": "s",
    "functionals.simpson_evals": "count",
    "functionals.simpson_s": "s",
    "functionals.energy_report_s": "s",
    "functionals.mabuchi_s": "s",
    "functionals.route_gap_over_tol_max": "ratio",
    "slopes.self_s": "s",
    "slopes.verdict_s": "s",
    "slopes.extrapolate_s": "s",
    "slopes.scan_s": "s",
    "slopes.err_over_residual_max": "ratio",
    "slopes.err_over_tol_max": "ratio",
    "cli.self_s": "s",
    "cli.parse_s": "s",
    "cli.emit_s": "s",
    "cli.bytes_written": "B",
    "bench.self_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
}

# metric -> span names whose outermost calls it sums
INCLUSIVE = {
    "polytope.minkowski_sum_s": ("polytope.minkowski_sum",),
    "polytope.mixed_volume_s": ("polytope.mixed_volume",),
    "invariants.report_s": ("invariants.invariant_report",),
    "invariants.df_s": ("invariants.donaldson_futaki",),
    "invariants.blowup_s": ("invariants.blowup_expansion",),
    "analysis.ricci_s": ("analysis.ricci_reference",),
    "analysis.grid_build_s": ("analysis.build_grid", "analysis.bulk_grid"),
    "analysis.abreu_s": ("analysis.abreu_scalar_curvature",),
    "analysis.point_probe_s": ("analysis.Ray.point_derivative",),
    "functionals.simpson_s": ("functionals.adaptive_simpson",),
    "functionals.energy_report_s": ("functionals.energy_report",),
    "functionals.mabuchi_s": ("functionals.mabuchi",),
    "slopes.verdict_s": ("slopes.verify_theorem",),
    "slopes.extrapolate_s": ("slopes.estimate_limit_slope",
                             "slopes.estimate_limit_value"),
    "slopes.scan_s": ("slopes.scan_destabilizer",),
    "cli.parse_s": ("cli.load_scenario",),
    "cli.emit_s": ("cli.emit_outputs",),
}

_NAME, _START, _END, _PARENT, _NESTED, _PHASE = range(6)


def _rows(args, kwargs, index, key):
    blob = args[index] if len(args) > index else kwargs[key]
    return len(blob)


class Tracer:
    """Span and counter recorder for one single-threaded benchmark run."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.maxima = defaultdict(float)
        self.phase = "setup"
        self._stack = []
        self._active = Counter()
        self._volume_data = None

    # -- recording ----------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        """Timing wrapper; ``before`` may rewrite args, ``after`` counts."""
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1,
                          active[name] > 0, self.phase])
            stack.append(idx)
            active[name] += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                active[name] -= 1
                stack.pop()
                spans[idx][_END] = clock()
            if after is not None:
                after(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        """Wrap every entry point in every kstab namespace that holds it."""
        import kstab.analysis
        import kstab.cli  # noqa: F401  (loads every layer module)
        namespaces = [m for n, m in sys.modules.items()
                      if n == "kstab" or n.startswith("kstab.")]
        hooks = self._hooks()
        for layer, names in ENTRY_POINTS.items():
            module = sys.modules[f"kstab.{layer}"]
            for attr in names:
                original = getattr(module, attr)
                before, after = hooks.get(f"{layer}.{attr}", (None, None))
                wrapped = self.wrap(f"{layer}.{attr}", original, before, after)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, key, wrapped)
        ray = kstab.analysis.Ray
        for attr in RAY_METHODS:
            setattr(ray, attr, self.wrap(f"analysis.Ray.{attr}",
                                         getattr(ray, attr)))
        self._volume_data = sys.modules["kstab.polytope"].volume_data \
            .__wrapped__

    def _hooks(self):
        counts, maxima = self.counts, self.maxima
        from kstab.functionals import ROUTE_TOL

        def newton(args, kwargs, out):
            counts["analysis.newton_calls"] += 1
            counts["analysis.newton_rows"] += _rows(args, kwargs, 1, "targets")

        def ricci(args, kwargs, out):
            counts["analysis.ricci_rows"] += _rows(args, kwargs, 1, "pts")

        def abreu(args, kwargs, out):
            counts["analysis.abreu_rows"] += _rows(args, kwargs, 1, "pts")

        def grid(args, kwargs, out):
            counts["analysis.grid_nodes"] += out.size

        def minkowski(args, kwargs, out):
            counts["polytope.minkowski_sum_calls"] += 1

        def simpson(args):
            f = args[0]

            def counted(x):
                counts["functionals.simpson_evals"] += 1
                return f(x)
            return (counted,) + tuple(args[1:])

        def mabuchi(args, kwargs, out):
            gap = abs(out.route_a - out.route_b) \
                / (ROUTE_TOL * (1.0 + abs(out.route_a)))
            key = "functionals.route_gap_over_tol_max"
            maxima[key] = max(maxima[key], gap)

        def emit(args, kwargs, out):
            counts["cli.bytes_written"] += sum(p.stat().st_size for p in out)

        return {
            "analysis.newton_transport": (None, newton),
            "analysis.ricci_reference": (None, ricci),
            "analysis.abreu_scalar_curvature": (None, abreu),
            "analysis.build_grid": (None, grid),
            "analysis.bulk_grid": (None, grid),
            "polytope.minkowski_sum": (None, minkowski),
            "functionals.adaptive_simpson": (simpson, None),
            "functionals.mabuchi": (None, mabuchi),
            "cli.emit_outputs": (None, emit),
        }

    # -- reporting ----------------------------------------------------------

    def span_cost(self, calls: int = 20000) -> float:
        """Measured seconds one span adds to a call, on this machine."""
        def noop():
            return None

        probe = Tracer()
        wrapped = probe.wrap("probe.noop", noop)
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            plain = time.perf_counter() - t0
            probe.spans.clear()
            t0 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            best = min(best, (time.perf_counter() - t0 - plain) / calls)
        return max(best, 0.0)

    def metrics(self, op_wall: float, accuracy: dict) -> dict:
        """Every per-layer metric; ``op_wall`` is the summed op time."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[_PARENT] >= 0:
                child[s[_PARENT]] += s[_END] - s[_START]
        out = dict.fromkeys(METRICS, 0.0)
        inclusive = Counter()
        covered = 0.0
        for i, s in enumerate(spans):
            dur = s[_END] - s[_START]
            if s[_PHASE] == "ops":
                out[f"{s[_NAME].split('.')[0]}.self_s"] += dur - child[i]
                if s[_PARENT] < 0:
                    covered += dur
                if not s[_NESTED]:
                    inclusive[s[_NAME]] += dur
            elif s[_NAME].startswith("plconfig.") and (
                    s[_PARENT] < 0 or
                    not spans[s[_PARENT]][_NAME].startswith("plconfig.")):
                out["plconfig.config_build_s"] += dur
            if s[_NAME] == "analysis.newton_transport" and s[_PHASE] == "ops":
                parent = spans[s[_PARENT]][_NAME] if s[_PARENT] >= 0 else ""
                side = "inv" if parent == "analysis.Ray.inverse_transport" \
                    else "fwd"
                out[f"analysis.newton_{side}_s"] += dur
        for metric, names in INCLUSIVE.items():
            out[metric] = float(sum(inclusive[n] for n in names))
        out.update(self.counts)
        out.update(self.maxima)
        out.update(accuracy)
        info = self._volume_data.cache_info()
        lookups = info.hits + info.misses
        out["polytope.volume_data_hit_ratio"] = info.hits / lookups \
            if lookups else 0.0
        out["bench.self_s"] = op_wall - covered
        out["trace.coverage"] = covered / op_wall if op_wall > 0 else 0.0
        cost = len(spans) * self.span_cost()
        out["trace.overhead_ratio"] = op_wall / max(op_wall - cost, 1e-12)
        out["trace.spans"] = len(spans)
        return {k: {"value": out[k], "unit": unit}
                for k, unit in METRICS.items()}

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start", "end", "parent",
                                   "nested", "phase"],
                       "spans": self.spans}, fh)
