"""Scenario-driven command line front end.

    kstab run <scenario.json> [--out DIR] [--tau-max N] [--seed N]
    kstab check-suite [--out DIR]

A scenario file (schema "kstab-scenario/1") names a polytope, a convex
piecewise-linear function, an optional twisting polytope, and a task
list.  Tasks run in order:

    invariants  exact Donaldson-Futaki / minimum-norm report
    slopes      limit-slope verdicts (AM, DF, MINNORM, JALPHA, POINT)
    stoppa      corner-chop expansion check at a vertex
    scan        destabilizing-point search over candidate points
    l1          exact L1 norm of the ray: its constant speed and path length

Exit codes: 0 all checks pass; 1 some verdict failed (report.json is
still written); 2 the scenario did not parse; 3 the scenario parsed but
is invalid; 4 a numerical routine failed; 5 an artifact could not be
written.  "Checks" are slope verdicts and stoppa matches; invariants,
scan and l1 tasks are informational.

Artifacts land under the output directory: report.json (rationals as
"p/q" strings, integers plain, next to a decimal convenience field),
one trace CSV and one self-contained SVG per slope verdict under
traces/.  Functional trace CSVs carry the full battery (tau, AM, I, J,
L_alpha, M, J_alpha, err_estimate) with nan for columns the verdict
did not need; POINT probes are not functional traces and get the minimal
(tau, value, err_estimate) layout.  Reruns on the same inputs are
byte-identical except for the timestamp field.

The --seed flag is recorded in the report for provenance; the pipeline
itself is deterministic.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import math
import sys
from dataclasses import asdict
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .errors import NumericalFailure, ValidationError
from .functionals import l1_norm_path
from .invariants import blowup_expansion, invariant_report, scan_destabilizer
from .plconfig import make_config, normalize
from .polytope import box, construct, interval, unit_simplex
from .slopes import POINT_SCHEDULE, Schedule, verify_theorem

SCENARIO_SCHEMA = "kstab-scenario/1"
REPORT_SCHEMA = "kstab-report/1"

EXIT_PASS = 0
EXIT_VERDICT_FAIL = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NUMERIC = 4
EXIT_IO = 5

TRACE_COLUMNS = ("tau", "AM", "I", "J", "L_alpha", "M", "J_alpha",
                 "err_estimate")
POINT_COLUMNS = ("tau", "value", "err_estimate")

_SCENARIO_KEYS = {"schema", "name", "polytope", "pl", "shift", "alpha",
                  "normalization", "tasks", "output_dir"}
_TASK_KEYS = {"invariants": {"kind"},
              "slopes": {"kind", "theorems", "vertex", "schedule"},
              "stoppa": {"kind", "vertex", "epsilons"},
              "scan": {"kind", "candidates"},
              "l1": {"kind", "schedule"}}
_SCHEDULE_KEYS = {"slopes": {"taus", "beta0", "tol"}, "l1": {"taus"}}


class _ParseFailure(Exception):
    """Scenario file is not JSON; message carries the byte offset."""


# ---------------------------------------------------------------------------
# scenario loading


def _rational(blob, what: str) -> Fraction:
    """An exact rational that float64 can also hold, neither overflowing
    nor rounding to 0: the numeric layers read every input as a float."""
    try:
        value = Fraction(str(blob))
        if value and not float(value):
            raise ValidationError(f"{what}: {blob!r} is too small for float64")
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"{what}: {blob!r} is not a rational") from exc
    except OverflowError as exc:
        raise ValidationError(
            f"{what}: {blob!r} is too large for float64") from exc
    return value


def _dimension(blob, what: str) -> int:
    """A box or simplex dimension, 1 to 4: vertex enumeration walks
    C(2d, d) facet subsets, so dimension 10 would run for minutes."""
    try:
        dim = int(blob)
        if isinstance(blob, bool) or isinstance(blob, float) and dim != blob:
            raise ValueError
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what}: {blob!r} is not an integer") from exc
    if not 1 <= dim <= 4:
        raise ValidationError(f"{what} must be 1 to 4, got {dim}")
    return dim


def _positive(blob, what: str) -> float:
    try:
        if isinstance(blob, bool):  # float(True) would read as 1.0
            raise ValueError
        x = float(blob)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what}: {blob!r} is not a number") from exc
    if not (math.isfinite(x) and x > 0.0):
        raise ValidationError(f"{what} must be finite and positive, "
                              f"got {blob!r}")
    return x


def _items(blob, what: str) -> list:
    if not isinstance(blob, list) or not blob:
        raise ValidationError(f"{what} must be a nonempty list")
    return blob


def _rational_point(blob, what: str) -> tuple:
    if not isinstance(blob, (list, tuple)) or not blob:
        raise ValidationError(f"{what} must be a nonempty coordinate list")
    return tuple(_rational(c, what) for c in blob)


def _parse_polytope(blob, what: str = "polytope"):
    if not isinstance(blob, dict):
        raise ValidationError(f"{what} must be an object")
    if "vertices" in blob:
        points = _items(blob["vertices"], f"{what} vertices")
        return construct(vertices=[_rational_point(v, what) for v in points])
    kind = blob.get("kind")
    if kind == "interval":
        return interval(_rational(blob.get("lo", 0), what),
                        _rational(blob.get("hi", 1), what))
    if kind == "box":
        return box(_dimension(blob.get("dim", 2), f"{what} dim"),
                   side=_rational(blob.get("side", 1), what))
    if kind == "simplex":
        return unit_simplex(_dimension(blob.get("dim", 2), f"{what} dim"))
    raise ValidationError(
        f"{what}: unknown kind {kind!r} (expected interval, box, simplex, "
        "or an explicit vertex list)")


def _parse_pieces(blob):
    pieces = []
    for row in _items(blob, "pl"):
        if not isinstance(row, (list, tuple)) or len(row) != 2:
            raise ValidationError(f"pl piece {row!r} is not a "
                                  "[gradient, offset] pair")
        grad, off = row
        pieces.append((_rational_point(grad, "pl gradient"),
                       _rational(off, "pl offset")))
    return pieces


def load_scenario(path: Path) -> dict:
    """Parse and structurally validate one scenario file."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise _ParseFailure(f"parse error: {path}: {exc}") from exc
    try:
        blob = json.loads(text)
    except json.JSONDecodeError as exc:
        byte = len(text[:exc.pos].encode("utf-8"))
        raise _ParseFailure(
            f"parse error: {path}: {exc.msg} at byte {byte} "
            f"(line {exc.lineno}, column {exc.colno})") from exc

    if not isinstance(blob, dict):
        raise ValidationError("scenario must be a JSON object")
    unknown = set(blob) - _SCENARIO_KEYS
    if unknown:
        raise ValidationError(f"unknown scenario keys: {sorted(unknown)}")
    if blob.get("schema") != SCENARIO_SCHEMA:
        raise ValidationError(
            f"scenario schema must be {SCENARIO_SCHEMA!r}, "
            f"got {blob.get('schema')!r}")
    if not isinstance(blob.get("name"), str) or not blob["name"]:
        raise ValidationError("scenario needs a nonempty string name")
    tasks = blob.get("tasks")
    if not isinstance(tasks, list) or not tasks:
        raise ValidationError("scenario needs a nonempty task list")
    for task in tasks:
        kind = task.get("kind") if isinstance(task, dict) else None
        if not isinstance(kind, str) or kind not in _TASK_KEYS:
            raise ValidationError(
                f"task {task!r} must set kind to one of {tuple(_TASK_KEYS)}")
        unknown = set(task) - _TASK_KEYS[kind]
        if "schedule" not in unknown and isinstance(task.get("schedule"), dict):
            unknown |= {f"schedule.{k}" for k in task["schedule"]
                        if k not in _SCHEDULE_KEYS[kind]}
        if unknown:
            raise ValidationError(f"unknown {kind} task keys: {sorted(unknown)}")
    return blob


def _build_config(blob):
    base = _parse_polytope(blob.get("polytope"))
    pieces = _parse_pieces(blob.get("pl"))
    shift = blob.get("shift", "auto")
    if shift != "auto":
        shift = _rational(shift, "shift")
    cfg = make_config(base, pieces, shift)
    alpha = None
    if blob.get("alpha") is not None:
        alpha = _parse_polytope(blob["alpha"], "alpha")
    return cfg, alpha


# ---------------------------------------------------------------------------
# report rendering


def _finite(x):
    x = float(x)
    return x if math.isfinite(x) else None


def _frac_json(q: Fraction) -> dict:
    """A rational for report.json: "p/q" (str of a Fraction, integers
    plain) and a decimal, null where q is beyond float64."""
    try:
        decimal = float(q)
    except OverflowError:
        decimal = None
    return {"exact": str(q), "decimal": decimal}


def _invariants_json(rep) -> dict:
    return {k: _frac_json(v) if isinstance(v, Fraction) else v
            for k, v in asdict(rep).items()}


def _verdict_json(v) -> dict:
    return {
        "theorem": v.theorem,
        **_frac_json(v.exact),
        "slope": v.slope,
        "residual": v.residual,
        "tol": v.tol,
        "pass": v.passed,
        "tier": v.tier,
        "normalization": v.normalization,
    }


def _schedule_from(task: dict, tau_max, point: bool) -> Schedule:
    base = POINT_SCHEDULE if point else Schedule()
    blob = task.get("schedule") or {}
    if not isinstance(blob, dict):
        raise ValidationError("schedule must be an object")
    taus = blob.get("taus", base.taus)
    if not isinstance(taus, (list, tuple)):
        raise ValidationError("schedule taus must be a list")
    taus = tuple(_positive(t, "schedule tau") for t in taus)
    if any(b <= a for a, b in zip(taus, taus[1:])):
        raise ValidationError(f"schedule taus {list(taus)} must be "
                              "strictly increasing")
    if not taus:
        raise ValidationError("schedule taus must be nonempty")
    if tau_max is not None:
        taus = tuple(t for t in taus if t <= float(tau_max))
        if not taus:
            raise ValidationError("--tau-max leaves no tau samples")
    return Schedule(
        taus=taus,
        beta0=_positive(blob.get("beta0", base.beta0), "schedule beta0"),
        tol=None if blob.get("tol") is None
        else _positive(blob["tol"], "schedule tol"))


# ---------------------------------------------------------------------------
# task runners


def _task_invariants(cfg, task, blob):
    mode = blob.get("normalization", "min_zero")
    report = invariant_report(normalize(cfg, mode))
    return {"kind": "invariants", "report": _invariants_json(report)}, None


def _task_slopes(cfg, task, alpha, tau_max):
    theorems = _items(task.get("theorems"), "slopes theorems")
    vertex = None
    if task.get("vertex") is not None:
        vertex = _rational_point(task["vertex"], "slopes vertex")
    verdicts = []
    for name in theorems:
        point = str(name).upper() == "POINT"
        schedule = _schedule_from(task, tau_max, point)
        verdicts.append(verify_theorem(cfg, name, schedule,
                                       alpha=alpha, vertex=vertex))
    entry = {"kind": "slopes",
             "verdicts": [_verdict_json(v) for v in verdicts],
             "pass": all(v.passed for v in verdicts)}
    return entry, verdicts


def _task_stoppa(cfg, task):
    vertex = _rational_point(task.get("vertex"), "stoppa vertex")
    eps = [_rational(e, "stoppa epsilon")
           for e in _items(task.get("epsilons"), "stoppa epsilons")]
    report = blowup_expansion(normalize(cfg, "min_zero"), vertex, eps)
    entry = {
        "kind": "stoppa",
        "vertex": [str(c) for c in vertex],
        "epsilons": [str(e) for e in report.epsilons],
        "df_values": [_frac_json(d) for d in report.df_values],
        "fitted_coefficient": _frac_json(report.fitted_coefficient),
        "reference_coefficient": _frac_json(report.reference_coefficient),
        "pass": report.matches,
    }
    return entry, None


def _task_scan(cfg, task):
    candidates = task.get("candidates", "vertices")
    if candidates != "vertices":
        candidates = [_rational_point(p, "scan candidate")
                      for p in _items(candidates, "scan candidates")]
    report = scan_destabilizer(cfg, candidates)

    def scored(c):  # every weight is exact; "exact" stays for REPORT_SCHEMA
        return {"point": [str(x) for x in c.point],
                "value": _frac_json(c.value), "exact": True}
    entry = {"kind": "scan", "destabilizing": report.destabilizing,
             "best": scored(report.best),
             "candidates": [scored(c) for c in report.candidates]}
    return entry, None


def _task_l1(cfg, task, tau_max):
    taus = _schedule_from(task, tau_max, point=False).taus
    rep = l1_norm_path(normalize(cfg, "average_zero"), taus)
    return {"kind": "l1", "exact": str(rep.limit),
            "limit": _finite(rep.limit), "length": _finite(rep.length),
            "trace": [[t, _finite(v)] for t, v in rep.trace]}, None


# ---------------------------------------------------------------------------
# artifact writers


def _csv_rows(verdict):
    if verdict.theorem == "POINT":
        yield POINT_COLUMNS
        for tau, value, err in verdict.trace:
            yield (repr(tau), repr(value), repr(err))
        return
    yield TRACE_COLUMNS
    battery = {row[0]: row[1:] for row in verdict.energies}
    for tau, value, err in verdict.trace:
        am, i_val, j_val, l_alpha = battery[tau]
        m_val = value if verdict.theorem == "DF" else float("nan")
        j_a = value if verdict.theorem == "JALPHA" else float("nan")
        yield (repr(tau), repr(am), repr(i_val), repr(j_val),
               repr(l_alpha), repr(m_val), repr(j_a), repr(err))


def _svg_plot(xs, ys, exact: float, title: str, y_label: str) -> str:
    width, height = 720.0, 440.0
    left, right, top, bottom = 74.0, 24.0, 42.0, 52.0
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys + [exact]), max(ys + [exact])
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    pad = 0.08 * (y_hi - y_lo) or max(1e-9, 0.1 * abs(y_hi) + 1e-3)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    floor, middle = height - bottom, (top + height - bottom) / 2

    def px(x):
        return left + (x - x_lo) / (x_hi - x_lo) * (width - left - right)

    def py(y):
        return floor - (y - y_lo) / (y_hi - y_lo) * (height - top - bottom)

    def line(x1, y1, x2, y2, style='stroke="black" stroke-width="1"'):
        parts.append(f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" '
                     f'y2="{y2:.1f}" {style}/>')

    def text(x, y, size, anchor, body, fill="", turn=""):
        parts.append(f'<text x="{x}" y="{y}" font-family="monospace" '
                     f'font-size="{size}"{fill} text-anchor="{anchor}"{turn}>'
                     f'{body}</text>')

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" '
        f'height="{height:g}" viewBox="0 0 {width:g} {height:g}">',
        f'<rect width="{width:g}" height="{height:g}" fill="white"/>',
    ]
    text(f"{width / 2:.1f}", "24", 15, "middle", title)
    line(left, floor, width - right, floor)
    line(left, top, left, floor)
    for k in range(5):
        xt = x_lo + k * (x_hi - x_lo) / 4.0
        yt = y_lo + k * (y_hi - y_lo) / 4.0
        line(px(xt), floor, px(xt), floor + 5)
        text(f"{px(xt):.1f}", f"{floor + 19:.1f}", 11, "middle", f"{xt:.4g}")
        line(left - 5, py(yt), left, py(yt))
        text(f"{left - 8:.1f}", f"{py(yt) + 4:.1f}", 11, "end", f"{yt:.4g}")
    text(f"{(left + width - right) / 2:.1f}", f"{height - 14:.1f}", 12,
         "middle", "tau")
    text("18", f"{middle:.1f}", 12, "middle", y_label,
         turn=f' transform="rotate(-90 18 {middle:.1f})"')
    line(left, py(exact), width - right, py(exact),
         'stroke="#b22222" stroke-width="1.2" stroke-dasharray="7,4"')
    text(f"{width - right:.1f}", f"{py(exact) - 6:.1f}", 11, "end",
         f"exact {exact:.6g}", fill=' fill="#b22222"')
    if len(xs) > 1:
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="#1f4e8c" stroke-width="1.6"/>')
    for x, y in zip(xs, ys):
        parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3.2" '
                     f'fill="#1f4e8c"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _verdict_svg(verdict, title: str) -> str:
    rows = verdict.trace
    if verdict.theorem == "POINT":
        xs, ys = [r[0] for r in rows], [r[1] for r in rows]
        label = "phi_dot at probe"
    else:
        xs = [0.5 * (a[0] + b[0]) for a, b in zip(rows, rows[1:])]
        ys = [(b[1] - a[1]) / (b[0] - a[0]) for a, b in zip(rows, rows[1:])]
        label = "windowed d/dtau"
    return _svg_plot(xs, ys, float(verdict.exact), title, label)


def emit_outputs(results: dict, out_dir: Path) -> list:
    """Write report.json plus one CSV and one SVG per slope verdict."""
    out_dir = Path(out_dir)
    written = []
    traces = out_dir / "traces"
    slope_tasks = [(i, e, a) for i, (e, a) in enumerate(results["entries"])
                   if a is not None]
    if slope_tasks:
        traces.mkdir(parents=True, exist_ok=True)
    else:
        out_dir.mkdir(parents=True, exist_ok=True)
    for index, entry, verdicts in slope_tasks:
        for verdict, blob in zip(verdicts, entry["verdicts"]):
            stem = f"{index:02d}_{verdict.theorem}"
            csv_path = traces / f"{stem}.csv"
            with csv_path.open("w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerows(_csv_rows(verdict))
            title = f"{results['name']}: {verdict.theorem} slope"
            svg_path = traces / f"{stem}.svg"
            svg_path.write_text(_verdict_svg(verdict, title),
                                encoding="utf-8")
            blob["trace_csv"] = f"traces/{stem}.csv"
            blob["plot_svg"] = f"traces/{stem}.svg"
            written.extend([csv_path, svg_path])

    report = {
        "schema": REPORT_SCHEMA,
        "name": results["name"],
        "timestamp": results["timestamp"],
        "seed": results["seed"],
        "options": results["options"],
        "pass": results["pass"],
        "tasks": [entry for entry, _ in results["entries"]],
    }
    report_path = out_dir / "report.json"
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    report_path.write_text(text + "\n", encoding="utf-8")
    written.append(report_path)
    return written


# ---------------------------------------------------------------------------
# drivers


def run_scenario(path, out_dir=None, tau_max=None, seed=None) -> int:
    """Execute one scenario file and write its artifacts.

    Returns the process exit code; diagnostics go to stderr and the
    per-task summary to stdout.
    """
    path = Path(path)
    try:
        blob = load_scenario(path)
        cfg, alpha = _build_config(blob)
    except _ParseFailure as exc:
        print(exc, file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"invalid scenario: {path}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    target = Path(out_dir) if out_dir is not None else Path(
        blob.get("output_dir") or Path.cwd() / f"{blob['name']}_out")

    entries = []
    try:
        for task in blob["tasks"]:
            kind = task["kind"]
            if kind == "invariants":
                entries.append(_task_invariants(cfg, task, blob))
            elif kind == "slopes":
                entries.append(_task_slopes(cfg, task, alpha, tau_max))
            elif kind == "stoppa":
                entries.append(_task_stoppa(cfg, task))
            elif kind == "scan":
                entries.append(_task_scan(cfg, task))
            else:
                entries.append(_task_l1(cfg, task, tau_max))
    except ValidationError as exc:
        print(f"invalid scenario: {path}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericalFailure, OverflowError) as exc:  # float(huge Fraction)
        print(f"numerical failure: {path}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    checks = [entry["pass"] for entry, _ in entries if "pass" in entry]
    all_pass = all(checks)
    results = {
        "name": blob["name"],
        "timestamp": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "seed": seed,
        "options": {"tau_max": tau_max},
        "pass": all_pass,
        "entries": entries,
    }
    try:
        emit_outputs(results, target)
    except OSError as exc:
        print(f"io error: could not write artifacts under {target}: {exc}",
              file=sys.stderr)
        return EXIT_IO

    for entry, _ in entries:
        tag = ""
        if "pass" in entry:
            tag = " [pass]" if entry["pass"] else " [FAIL]"
        print(f"{blob['name']}: {entry['kind']}{tag}")
    print(f"report: {target / 'report.json'}")
    return EXIT_PASS if all_pass else EXIT_VERDICT_FAIL


def bundled_scenarios() -> list:
    """Paths of the scenario files shipped inside the package."""
    root = resources.files("kstab") / "scenarios"
    return sorted(p for p in root.iterdir() if p.name.endswith(".json"))


def check_suite(out_dir=None) -> int:
    """Run every bundled scenario; exit 0 iff all of them pass."""
    root = Path(out_dir) if out_dir is not None else Path.cwd() / "kstab_suite"
    worst = EXIT_PASS
    for res in bundled_scenarios():
        with resources.as_file(res) as path:
            code = run_scenario(path, out_dir=root / path.stem)
        status = "pass" if code == EXIT_PASS else f"FAIL (exit {code})"
        print(f"suite {res.name}: {status}")
        worst = max(worst, code)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kstab",
        description="Toric K-stability invariants and slope verdicts.")
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run one scenario file")
    runp.add_argument("scenario", help="path to a kstab-scenario/1 JSON file")
    runp.add_argument("--out", default=None, help="output directory")
    runp.add_argument("--tau-max", type=float, default=None,
                      help="drop schedule samples beyond this tau")
    runp.add_argument("--seed", type=int, default=None,
                      help="recorded in the report for provenance")

    suitep = sub.add_parser("check-suite",
                            help="run the bundled acceptance scenarios")
    suitep.add_argument("--out", default=None, help="output root directory")

    args = parser.parse_args(argv)
    if args.command == "run":
        return run_scenario(args.scenario, out_dir=args.out,
                            tau_max=args.tau_max, seed=args.seed)
    return check_suite(out_dir=args.out)


if __name__ == "__main__":
    sys.exit(main())
