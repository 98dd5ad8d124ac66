"""End-to-end checks of the scenario runner and its artifacts."""

import contextlib
import json
import os
import signal
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest

import kstab
from kstab import slopes
from kstab.analysis import Ray
from kstab.cli import (EXIT_IO, EXIT_NUMERIC, EXIT_PARSE, EXIT_PASS,
                       EXIT_VALIDATION, EXIT_VERDICT_FAIL, bundled_scenarios,
                       check_suite,
                       emit_outputs, main, run_scenario)

KINK = {
    "schema": "kstab-scenario/1",
    "name": "kink-smoke",
    "polytope": {"kind": "interval", "lo": "0", "hi": "1"},
    "pl": [[["1"], "0"], [["-1"], "1"]],
    "tasks": [
        {"kind": "invariants"},
        {"kind": "slopes", "theorems": ["MINNORM"]},
        {"kind": "scan"},
    ],
}


def write_scenario(tmp_path, blob, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(blob))
    return path


def run_cli(*args):
    """python -m kstab.cli in a child that imports the same kstab as
    this test, installed or not."""
    src = str(Path(kstab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "kstab.cli", *args],
                          capture_output=True, text=True, env=env)


def _refuse_constant(name):
    raise ValueError(f"report.json holds the non-JSON constant {name}")


def read_report(out):
    """report.json parsed as strict JSON: NaN and Infinity are refused."""
    return json.loads((out / "report.json").read_text(),
                      parse_constant=_refuse_constant)


def test_kink_scenario_passes_and_writes_report(tmp_path, capsys):
    path = write_scenario(tmp_path, KINK)
    out = tmp_path / "out"
    assert run_scenario(path, out_dir=out) == EXIT_PASS
    report = read_report(out)
    assert report["schema"] == "kstab-report/1"
    assert report["pass"] is True
    kinds = [t["kind"] for t in report["tasks"]]
    assert kinds == ["invariants", "slopes", "scan"]
    assert report["tasks"][0]["report"]["df"]["exact"] == "1/2"
    verdict = report["tasks"][1]["verdicts"][0]
    assert verdict["pass"] is True
    assert verdict["exact"] == "1/4"
    assert report["tasks"][2]["destabilizing"] is True
    summary = capsys.readouterr().out
    assert "[pass]" in summary


def test_one_slope_task_yields_one_csv_and_one_svg(tmp_path):
    path = write_scenario(tmp_path, KINK)
    out = tmp_path / "out"
    run_scenario(path, out_dir=out)
    csvs = sorted(p.name for p in (out / "traces").glob("*.csv"))
    svgs = sorted(p.name for p in (out / "traces").glob("*.svg"))
    assert csvs == ["01_MINNORM.csv"]
    assert svgs == ["01_MINNORM.svg"]
    header = (out / "traces" / "01_MINNORM.csv").read_text().splitlines()[0]
    assert header == "tau,AM,I,J,L_alpha,M,J_alpha,err_estimate"
    svg = (out / "traces" / "01_MINNORM.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert "exact" in svg


def test_rerun_is_byte_identical_except_timestamp(tmp_path):
    path = write_scenario(tmp_path, KINK)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_scenario(path, out_dir=out_a)
    run_scenario(path, out_dir=out_b)
    strip = lambda p: [line for line in p.read_text().splitlines()
                       if '"timestamp"' not in line]
    assert strip(out_a / "report.json") == strip(out_b / "report.json")
    for name in ("01_MINNORM.csv", "01_MINNORM.svg"):
        assert (out_a / "traces" / name).read_bytes() == \
            (out_b / "traces" / name).read_bytes()


def test_malformed_json_exits_2_with_byte_offset(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"schema": "kstab-scenario/1", "name": nope}')
    assert run_scenario(path, out_dir=tmp_path / "out") == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "at byte 39" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, reason", [
    ("a_directory", "Is a directory"),
    ("missing.json", "No such file or directory"),
])
def test_unreadable_scenario_exits_2(tmp_path, name, reason, capsys):
    (tmp_path / "a_directory").mkdir()
    path = tmp_path / name
    assert run_scenario(path, out_dir=tmp_path / "out") == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith(f"parse error: {path}: ") and reason in err
    assert not (tmp_path / "out").exists()


def test_unwritable_out_dir_exits_5(tmp_path, capsys):
    path = write_scenario(tmp_path, KINK)
    out = tmp_path / "a_file"
    out.write_text("")
    assert run_scenario(path, out_dir=out) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith(f"io error: could not write artifacts under {out}")
    assert "Traceback" not in err


def test_top_level_list_exits_3(tmp_path, capsys):
    path = write_scenario(tmp_path, [KINK])
    assert run_scenario(path, out_dir=tmp_path / "out") == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "invalid scenario" in err and "must be a JSON object" in err


@pytest.mark.parametrize("mutate", [
    lambda b: b.update(schema="kstab-scenario/9"),
    lambda b: b.update(tasks=[]),
    lambda b: b.update(tasks=[{"kind": "mystery"}]),
    lambda b: b.update(pl=[]),
    lambda b: b.pop("polytope"),
    lambda b: b.update(surprise=1),
    lambda b: b.update(tasks=[{"kind": ["slopes"]}]),
    lambda b: b["tasks"][0].update(schedule={"taus": [1, 2]}),
    lambda b: b["tasks"][1].update(theorem="DF"),
    lambda b: b["tasks"][1].update(schedule={"beta": 5}),
    lambda b: b["tasks"][2].update(vertex=["0"]),
    lambda b: b.update(tasks=[{"kind": "stoppa", "vertex": ["0"],
                               "epsilons": ["1/8", "1/4"], "tol": 1}]),
    lambda b: b.update(tasks=[{"kind": "l1", "theorems": ["DF"]}]),
    lambda b: b.update(tasks=[{"kind": "l1", "schedule": {"tau": [1]}}]),
    lambda b: b.update(polytope={"kind": "cube"}),
    lambda b: b.update(pl=[[[1]]]),
    lambda b: b.update(name=""),
    lambda b: b["tasks"][1].update(schedule=[1, 2]),
    lambda b: b.update(pl=[[["1/0"], "0"], [["-1"], "1"]]),
    lambda b: b.update(shift="1"),  # the kink's max g: ShiftTooSmall
    lambda b: b.update(shift="x"),
    lambda b: b["tasks"][1].update(vertex="1"),
])
def test_invalid_scenarios_exit_3(tmp_path, mutate, capsys):
    blob = json.loads(json.dumps(KINK))
    mutate(blob)
    path = write_scenario(tmp_path, blob)
    assert run_scenario(path, out_dir=tmp_path / "out") == EXIT_VALIDATION
    assert "invalid scenario" in capsys.readouterr().err


def test_a_numeric_shift_keeps_df_and_minimum_norm(tmp_path):
    """shift 3 on the kink keeps DF 1/2 and the minimum norm 1/4 of
    shift auto; AM's top coefficient grows by 2! vol P (3 - 2)."""
    reports = {}
    for shift in ("auto", "3"):
        blob = dict(KINK, shift=shift, tasks=[{"kind": "invariants"}])
        path = write_scenario(tmp_path, blob)
        out = tmp_path / shift
        assert run_scenario(path, out_dir=out) == EXIT_PASS
        reports[shift] = {key: value["exact"] for key, value in
                          read_report(out)["tasks"][0]["report"].items()
                          if key in ("df", "minimum_norm", "am_top")}
    assert reports["3"] == {"df": "1/2", "minimum_norm": "1/4",
                            "am_top": "9/2"}
    assert reports["auto"] == dict(reports["3"], am_top="5/2")


@pytest.mark.parametrize("task, named", [
    ({"kind": "slopes", "theorems": ["JALPHA"],
      "alpha": {"kind": "interval", "lo": "0", "hi": "2"}}, "'alpha'"),
    ({"kind": "slopes", "theorems": ["MINNORM"],
      "schedule": {"taus": [1, 2, 4, 8], "beta_0": 5}}, "'schedule.beta_0'"),
    ({"kind": "scan", "candidate": [["0"]]}, "'candidate'"),
])
def test_unknown_task_key_is_named(tmp_path, task, named, capsys):
    """A misplaced or misspelled task key exits 3 before any work and
    names the key, instead of being dropped."""
    blob = json.loads(json.dumps(KINK))
    blob["tasks"] = [task]
    path = write_scenario(tmp_path, blob)
    assert run_scenario(path, out_dir=tmp_path / "out") == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "unknown" in err and named in err


@pytest.mark.parametrize("mutate", [
    lambda b: b.update(polytope={"kind": "box", "dim": "two"}),
    lambda b: b["tasks"][1].update(schedule={"taus": ["a"]}),
    lambda b: b["tasks"][1].update(schedule={"taus": 4}),
    lambda b: b["tasks"][1].update(schedule={"taus": [1, 2, 2, 8]}),
    lambda b: b["tasks"][1].update(schedule={"taus": [-1, 2, 4, 8]}),
    lambda b: b["tasks"][1].update(schedule={"taus": [1, 2, 4, "inf"]}),
    lambda b: b["tasks"][1].update(schedule={"beta0": 0}),
    lambda b: b["tasks"][1].update(schedule={"beta0": "nan"}),
    lambda b: b["tasks"][1].update(schedule={"tol": "nan"}),
    lambda b: b["tasks"][1].update(schedule={"tol": -1e-3}),
    lambda b: b.update(polytope={"vertices": 5}),
    lambda b: b.update(tasks=[{"kind": "stoppa", "vertex": ["0"],
                               "epsilons": 5}]),
    lambda b: b.update(tasks=[{"kind": "scan", "candidates": 5}]),
])
def test_malformed_numbers_exit_3_without_traceback(tmp_path, mutate,
                                                    capsys):
    blob = json.loads(json.dumps(KINK))
    mutate(blob)
    path = write_scenario(tmp_path, blob)
    out = tmp_path / "out"
    assert run_scenario(path, out_dir=out) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "invalid scenario" in err and "Traceback" not in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("schedule", [
    {"taus": [True, 2, 4, 6, 8, 10, 12]},
    {"beta0": True},
    {"tol": True},
], ids=["taus", "beta0", "tol"])
def test_boolean_schedule_number_exits_3(tmp_path, schedule, capsys):
    """JSON true is not the number 1: a boolean tau, beta0 or tol is
    refused while the schedule is read, before any rung runs."""
    blob = json.loads(json.dumps(KINK))
    blob["tasks"][1]["schedule"] = schedule
    path = write_scenario(tmp_path, blob)
    assert run_scenario(path, out_dir=tmp_path / "out") == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "schedule" in err and "True" in err


def test_schedule_numbers_are_rationals_like_every_number(tmp_path, capsys):
    """beta0 "20" and tol "1/50", as strings, give the verdict and the
    trace CSV of the numbers 20 and 0.02."""
    runs = []
    for i, (beta0, tol) in enumerate([(20, 0.02), ("20", "1/50")]):
        blob = json.loads(json.dumps(KINK))
        blob["tasks"] = [{"kind": "slopes", "theorems": ["MINNORM"],
                          "schedule": {"beta0": beta0, "tol": tol}}]
        out = tmp_path / f"out{i}"
        path = write_scenario(tmp_path, blob)
        assert run_scenario(path, out_dir=out) == EXIT_PASS
        runs.append((read_report(out)["tasks"][0]["verdicts"],
                     (out / "traces" / "00_MINNORM.csv").read_bytes()))
    assert runs[0] == runs[1]
    assert runs[0][0][0]["tol"] == 0.02
    capsys.readouterr()


@pytest.mark.parametrize("point", [["2", "2"], ["1/2"]],
                         ids=["outside", "wrong-dimension"])
def test_scan_candidate_off_the_polytope_exits_3(tmp_path, point):
    path = write_scenario(tmp_path, {
        "schema": "kstab-scenario/1", "name": "square-scan",
        "polytope": {"kind": "box", "dim": 2},
        "pl": [[["1", "0"], "0"]],
        "tasks": [{"kind": "scan", "candidates": [["0", "0"], point]}]})
    out = tmp_path / "out"
    proc = run_cli("run", str(path), "--out", str(out))
    assert proc.returncode == EXIT_VALIDATION
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("invalid scenario")
    assert not (out / "report.json").exists()


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the block once seconds have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("kind", ["box", "simplex"])
@pytest.mark.parametrize("dim", [2.5, True, 0, 5, 10])
def test_polytope_dim_outside_one_to_four_exits_3_at_once(tmp_path, kind,
                                                          dim, capsys):
    """A non-integral, boolean or out-of-range dim is refused while the
    scenario is parsed; vertex enumeration of a box of dimension 10
    would otherwise run for minutes."""
    blob = json.loads(json.dumps(KINK))
    blob["polytope"] = {"kind": kind, "dim": dim}
    blob["tasks"] = [{"kind": "invariants"}]
    path = write_scenario(tmp_path, blob)
    start = time.perf_counter()
    with _deadline(1.0):
        code = run_scenario(path, out_dir=tmp_path / "out")
    assert code == EXIT_VALIDATION
    assert time.perf_counter() - start < 1.0
    assert "polytope dim" in capsys.readouterr().err


HUGE_TAU = [
    {"schema": "kstab-scenario/1", "name": "interval-huge-tau",
     "polytope": {"kind": "interval", "lo": "0", "hi": "1"},
     "pl": [[["1"], "0"]],
     "tasks": [{"kind": "slopes", "theorems": ["MINNORM"],
                "schedule": {"taus": [1, 2, 3, 4, 5, 1e308]}}]},
    {"schema": "kstab-scenario/1", "name": "square-huge-tau",
     "polytope": {"kind": "box", "dim": 2},
     "pl": [[["1", "0"], "0"]],
     "tasks": [{"kind": "slopes", "theorems": ["AM"],
                "schedule": {"taus": [1, 2, 3, 4, 5, 1e308]}}]},
]


@pytest.mark.parametrize("blob", HUGE_TAU)
def test_huge_finite_tau_exits_4_without_traceback(tmp_path, blob):
    """A finite tau too large for the grid depths ends in a numerical
    failure, not in an OverflowError from the depth schedules, nor in a
    numpy overflow warning from the transport.  Run as the console
    command, where a RuntimeWarning would only be printed."""
    path = write_scenario(tmp_path, blob)
    proc = run_cli("run", str(path), "--out", str(tmp_path / "out"))
    assert proc.returncode == EXIT_NUMERIC, proc.stderr
    assert "numerical failure" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_huge_finite_tau_is_refused_before_newton_in_process(tmp_path,
                                                             capsys):
    """In process, where the suite turns RuntimeWarnings into errors, the
    square's tau = 1e308 ends in a NewtonDivergence naming it before any
    Newton step overflows."""
    path = write_scenario(tmp_path, HUGE_TAU[1])
    assert run_scenario(path, out_dir=tmp_path / "out") == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "numerical failure" in err and "tau=1e+308" in err


def test_huge_finite_tau_is_refused_before_the_first_rung(tmp_path,
                                                          monkeypatch):
    """The schedule's largest tau is checked before any rung runs, so the
    square's rungs 1-5 transport nothing before tau = 1e308 is refused."""
    import kstab.analysis

    calls = []
    original = kstab.analysis.newton_transport

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return original(*args, **kwargs)

    monkeypatch.setattr(kstab.analysis, "newton_transport", counted)
    path = write_scenario(tmp_path, HUGE_TAU[1])
    assert run_scenario(path, out_dir=tmp_path / "out") == EXIT_NUMERIC
    assert calls == []


def test_an_overflowing_trace_exits_4_in_one_line(tmp_path):
    """An AM task on [0, 1e154] with g = x overflows its trace to nan:
    exit 4 and one stderr line, the typed NumericalFailure's message,
    with no numpy RuntimeWarning and its source line before it.  Run as
    the console command, where a RuntimeWarning would only be printed."""
    blob = {"schema": "kstab-scenario/1", "name": "interval-1e154",
            "polytope": {"kind": "interval", "lo": "0", "hi": "1e154"},
            "pl": [[["1"], "0"]],
            "tasks": [{"kind": "slopes", "theorems": ["AM"]}]}
    path = write_scenario(tmp_path, blob)
    proc = run_cli("run", str(path), "--out", str(tmp_path / "out"))
    assert proc.returncode == EXIT_NUMERIC, proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith("numerical failure") and "not finite" in line


def test_point_probe_on_a_facet_exits_4_without_warning(tmp_path):
    """At tau_max = 16 the square's probe at vertex (0, 1) rounds onto
    the facet x2 = 1: a numerical failure naming the vertex and tau_max,
    with no overflow warning from a transport that never runs."""
    blob = {"schema": "kstab-scenario/1", "name": "square-point-16",
            "polytope": {"kind": "box", "dim": 2},
            "pl": [[["1", "0"], "0"]],
            "tasks": [{"kind": "slopes", "theorems": ["POINT"],
                       "vertex": ["0", "1"],
                       "schedule": {"taus": [4, 8, 12, 16]}}]}
    path = write_scenario(tmp_path, blob)
    proc = run_cli("run", str(path), "--out", str(tmp_path / "out"))
    assert proc.returncode == EXIT_NUMERIC, proc.stderr
    assert "vertex (0, 1)" in proc.stderr and "tau_max=16" in proc.stderr
    assert "Warning" not in proc.stderr


@pytest.mark.parametrize("theorem,taus,message", [
    ("AM", [1, 2, 4], "need at least 6 samples, got 3"),
    ("AM", [1, 2, 3, 4, 5, 6], "need tau_max >= 8"),
    ("POINT", [1, 2, 3], "need at least 4 samples, got 3"),
], ids=["too-few", "tau-too-small", "point-too-few"])
def test_schedule_below_the_floor_exits_3_before_the_ladder(
        tmp_path, capsys, monkeypatch, theorem, taus, message):
    """A schedule the extrapolator would refuse is refused before any
    Ray is built or transported."""
    def no_ladder(*args, **kwargs):
        raise AssertionError("the ladder ran")

    monkeypatch.setattr(slopes, "Ray", no_ladder)
    path = write_scenario(tmp_path, {
        "schema": "kstab-scenario/1", "name": "square-short",
        "polytope": {"kind": "box", "dim": 2},
        "pl": [[["1", "0"], "0"]],
        "tasks": [{"kind": "slopes", "theorems": [theorem],
                   "vertex": ["0", "0"], "schedule": {"taus": taus}}]})
    assert run_scenario(path, out_dir=tmp_path / "out") == EXIT_VALIDATION
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("task", [
    {"kind": "invariants"},
    {"kind": "l1"},
    {"kind": "slopes", "theorems": ["POINT"], "vertex": ["1"]},
], ids=["invariants", "l1", "slopes"])
def test_rational_too_large_for_float64_exits_3(tmp_path, capsys, task):
    """1e400 is an exact rational that no float64 holds: refused at parse
    time, naming its field, not left to overflow in the task."""
    path = write_scenario(tmp_path, {
        "schema": "kstab-scenario/1", "name": "huge-gradient",
        "polytope": {"kind": "interval", "lo": "0", "hi": "1"},
        "pl": [[["1e400"], "0"]], "tasks": [task]})
    assert run_scenario(path, out_dir=tmp_path / "out") == EXIT_VALIDATION
    assert "pl gradient: '1e400' is too large for float64" \
        in capsys.readouterr().err


@pytest.mark.parametrize("hi,codes", [
    ("1e-400", {EXIT_VALIDATION}),
    ("1e-300", {EXIT_PASS, EXIT_VERDICT_FAIL}),
    ("1e-160", {EXIT_PASS, EXIT_VERDICT_FAIL}),
    ("1e200", {EXIT_NUMERIC}),
])
def test_interval_far_from_unit_scale_ends_cleanly(tmp_path, capsys,
                                                   recwarn, hi, codes):
    """An interval of length hi runs to a valid report (exit 0 or 1), or
    ends with exit 3 or 4 and one stderr line: no traceback and no
    numpy warning.  1e-400 rounds to 0 in float64 and is refused at
    parse time.  At 1e-300 and 1e-160 the verdicts run: the
    simplex-product frame takes its logs from exact numerators and
    denominators, where 2 * 2 / hi^2 leaves float64.  At 1e200 the
    integral of g leaves it, so the verdicts stop; an invariants task
    alone still exits 0 there."""
    path = write_scenario(tmp_path, {
        "schema": "kstab-scenario/1", "name": "far-scale",
        "polytope": {"kind": "interval", "lo": "0", "hi": hi},
        "pl": [[["1"], "0"]],
        "tasks": [{"kind": "invariants"},
                  {"kind": "slopes", "theorems": ["DF", "MINNORM", "AM"]},
                  {"kind": "scan"}, {"kind": "l1"}]})
    code = run_scenario(path, out_dir=tmp_path / "out")
    err = capsys.readouterr().err
    assert code in codes, err
    if code in (EXIT_PASS, EXIT_VERDICT_FAIL):
        assert err == ""
        assert read_report(tmp_path / "out")["name"] == "far-scale"
    else:
        assert code in (EXIT_VALIDATION, EXIT_NUMERIC)
        assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_exact_values_beyond_float64_keep_their_report(tmp_path, capsys):
    """On the interval [0, 1e200] the exact invariants leave float64: the
    report keeps every exact "p/q" string and writes a null decimal for
    each value too large for a float, with exit 0."""
    path = write_scenario(tmp_path, {
        "schema": "kstab-scenario/1", "name": "far-invariants",
        "polytope": {"kind": "interval", "lo": "0", "hi": "1e200"},
        "pl": [[["1"], "0"]], "tasks": [{"kind": "invariants"}]})
    assert run_scenario(path, out_dir=tmp_path / "out") == EXIT_PASS
    assert capsys.readouterr().err == ""
    report = read_report(tmp_path / "out")["tasks"][0]["report"]
    hi = 10 ** 200
    assert report["minimum_norm"] == {"exact": str(hi * hi // 2),
                                      "decimal": None}
    assert report["am_top"]["decimal"] is None
    assert report["slope_mu"] == {"exact": f"1/{hi // 2}", "decimal": 2e-200}
    assert report["df"] == {"exact": "0", "decimal": 0.0}


HIRZEBRUCH = {  # no simplex product; g = max(x1, x2)
    "schema": "kstab-scenario/1", "name": "hirzebruch",
    "polytope": {"vertices": [["0", "0"], ["2", "0"], ["1", "1"],
                              ["0", "1"]]},
    "pl": [[["1", "0"], "0"], [["0", "1"], "0"]],
}


def test_grid_verdict_off_a_simplex_product_exits_4(tmp_path, capsys,
                                                    monkeypatch):
    """A DF verdict on the Hirzebruch trapezoid is refused by its first
    Ray before any grid is built: exit 4, one stderr line naming the
    facet count, and no report."""
    built = []
    build_grid = kstab.analysis.build_grid
    monkeypatch.setattr(kstab.analysis, "build_grid",
                        lambda *args: built.append(args) or build_grid(*args))
    path = write_scenario(tmp_path, dict(HIRZEBRUCH, tasks=[
        {"kind": "slopes", "theorems": ["DF"]}]))
    assert run_scenario(path, out_dir=tmp_path / "out") == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert "simplex-product base" in err and "has 4 facets" in err
    assert built == []
    assert not (tmp_path / "out").exists()


def test_jalpha_off_a_simplex_product_alpha_exits_4(tmp_path, capsys):
    """A JALPHA verdict on the square twisted by the Hirzebruch trapezoid
    is refused before any grid is built: exit 4, one stderr line naming
    alpha's facet count, and no report."""
    path = write_scenario(tmp_path, {
        "schema": "kstab-scenario/1", "name": "square-hirzebruch-alpha",
        "polytope": {"kind": "box", "dim": 2}, "pl": [[["1", "0"], "0"]],
        "alpha": {"vertices": HIRZEBRUCH["polytope"]["vertices"]},
        "tasks": [{"kind": "slopes", "theorems": ["JALPHA"]}]})
    assert run_scenario(path, out_dir=tmp_path / "out") == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert "simplex-product alpha" in err and "has 4 facets" in err
    assert not (tmp_path / "out").exists()


def test_tasks_without_a_ray_run_off_a_simplex_product(tmp_path, capsys):
    """The same trapezoid keeps every task that builds no Ray: the exact
    invariants, the Stoppa expansion, the vertex scan, the l1 norm and a
    POINT verdict, whose slope passes against -10/9."""
    path = write_scenario(tmp_path, dict(HIRZEBRUCH, tasks=[
        {"kind": "invariants"},
        {"kind": "stoppa", "vertex": ["2", "0"],
         "epsilons": ["1/32", "1/16", "1/8", "1/4"]},
        {"kind": "scan"}, {"kind": "l1"},
        {"kind": "slopes", "theorems": ["POINT"], "vertex": ["2", "0"]}]))
    assert run_scenario(path, out_dir=tmp_path / "out") == EXIT_PASS
    assert capsys.readouterr().err == ""
    tasks = read_report(tmp_path / "out")["tasks"]
    assert [t["kind"] for t in tasks] == ["invariants", "stoppa", "scan",
                                         "l1", "slopes"]
    assert tasks[0]["report"]["df"]["exact"] == "10/9"
    point = tasks[4]["verdicts"][0]
    assert point["pass"] and point["exact"] == "-10/9"
    assert abs(point["slope"] + 10 / 9) < 1e-3


def test_report_refuses_non_finite_numbers(tmp_path):
    results = {"name": "nan-smoke", "timestamp": "t", "seed": None,
               "options": {}, "pass": True,
               "entries": [({"kind": "l1", "limit": float("nan")}, None)]}
    with pytest.raises(ValueError):
        emit_outputs(results, tmp_path)
    assert not (tmp_path / "report.json").exists()


def test_missing_vertex_for_point_exits_3(tmp_path, capsys):
    blob = json.loads(json.dumps(KINK))
    blob["tasks"] = [{"kind": "slopes", "theorems": ["POINT"]}]
    path = write_scenario(tmp_path, blob)
    assert run_scenario(path, out_dir=tmp_path / "out") == EXIT_VALIDATION
    capsys.readouterr()


def test_failed_verdict_exits_1_but_writes_report(tmp_path, capsys):
    blob = json.loads(json.dumps(KINK))
    blob["tasks"] = [{"kind": "slopes", "theorems": ["MINNORM"],
                      "schedule": {"tol": 1e-12}}]
    path = write_scenario(tmp_path, blob)
    out = tmp_path / "out"
    assert run_scenario(path, out_dir=out) == EXIT_VERDICT_FAIL
    report = read_report(out)
    assert report["pass"] is False
    assert report["tasks"][0]["verdicts"][0]["pass"] is False
    assert "[FAIL]" in capsys.readouterr().out


def test_tau_max_truncates_the_ladder(tmp_path, capsys):
    blob = json.loads(json.dumps(KINK))
    blob["tasks"] = [{"kind": "slopes", "theorems": ["MINNORM"],
                      "schedule": {"taus": [1, 2, 3, 4, 6, 8, 10, 12]}}]
    path = write_scenario(tmp_path, blob)
    out = tmp_path / "out"
    assert run_scenario(path, out_dir=out, tau_max=8.0) == EXIT_PASS
    rows = (out / "traces" / "00_MINNORM.csv").read_text().splitlines()
    taus = [float(r.split(",")[0]) for r in rows[1:]]
    assert max(taus) == 8.0
    # cutting below the estimator's floor is a validation error
    assert run_scenario(path, out_dir=out, tau_max=2.0) == EXIT_VALIDATION
    capsys.readouterr()


@pytest.mark.parametrize("tau_max", ["nan", "inf", "1e999", "0", "-1"])
def test_tau_max_not_finite_and_positive_exits_3_before_any_task(
        tmp_path, capsys, monkeypatch, tau_max):
    """A --tau-max that is not finite and positive is refused in one line
    before any task runs: no invariants report, no verdict and no
    report.json whose options could not be written as JSON."""
    def no_task(*args):
        raise AssertionError("a task ran")

    monkeypatch.setattr(kstab.cli, "_task_invariants", no_task)
    monkeypatch.setattr(kstab.cli, "_task_slopes", no_task)
    path = write_scenario(tmp_path, KINK)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out),
                 "--tau-max", tau_max]) == EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"invalid scenario: {path}: ")
    assert "--tau-max must be finite and positive" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("key,value,message", [
    ("output_dir", 5, "output_dir must be a string"),
    ("output_dir", ["a"], "output_dir must be a string"),
    ("output_dir", True, "output_dir must be a string"),
    ("output_dir", {}, "output_dir must be a string"),
    ("output_dir", "out\u0000dir", "output_dir holds a NUL character"),
    ("name", "\u0000", "name holds a NUL character"),
    ("name", "kink\u0000", "name holds a NUL character"),
])
def test_bad_output_dir_or_name_exits_3(tmp_path, capsys, monkeypatch, key,
                                        value, message):
    """An output_dir that is not a string, or a name or output_dir that
    no file system takes, is refused at load and named in one line."""
    monkeypatch.chdir(tmp_path)
    blob = dict(KINK, **{key: value})
    path = write_scenario(tmp_path, blob)
    assert main(["run", str(path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("invalid scenario: ")
    assert message in err[0]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]


@pytest.mark.parametrize("taus,tau_max,message", [
    ([], None, "schedule taus must be nonempty"),
    ([2, 4, 8], 1.0, "--tau-max leaves no tau samples"),
], ids=["empty-taus", "tau-max-empties"])
def test_empty_schedule_names_its_cause(tmp_path, capsys, taus, tau_max,
                                        message):
    """Only a --tau-max that emptied the ladder is blamed for it."""
    blob = json.loads(json.dumps(KINK))
    blob["tasks"] = [{"kind": "slopes", "theorems": ["MINNORM"],
                      "schedule": {"taus": taus}}]
    path = write_scenario(tmp_path, blob)
    assert run_scenario(path, out_dir=tmp_path / "out",
                        tau_max=tau_max) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert message in err
    assert ("--tau-max" in err) == (tau_max is not None)


def test_point_task_writes_minimal_csv(tmp_path, capsys):
    blob = {
        "schema": "kstab-scenario/1",
        "name": "point-smoke",
        "polytope": {"kind": "interval", "lo": "0", "hi": "1"},
        "pl": [[["1"], "0"]],
        "tasks": [{"kind": "slopes", "theorems": ["POINT"],
                   "vertex": ["1"]}],
    }
    path = write_scenario(tmp_path, blob)
    out = tmp_path / "out"
    assert run_scenario(path, out_dir=out) == EXIT_PASS
    rows = (out / "traces" / "00_POINT.csv").read_text().splitlines()
    assert rows[0] == "tau,value,err_estimate"
    report = read_report(out)
    assert report["tasks"][0]["verdicts"][0]["exact"] == "-1/2"
    capsys.readouterr()


def test_l1_task_reports_positive_speed(tmp_path, capsys):
    blob = json.loads(json.dumps(KINK))
    blob["tasks"] = [{"kind": "l1"}]
    path = write_scenario(tmp_path, blob)
    out = tmp_path / "out"
    assert run_scenario(path, out_dir=out) == EXIT_PASS
    entry = read_report(out)["tasks"][0]
    assert entry["exact"] == "1/8"
    assert entry["limit"] == 0.125
    assert entry["length"] == 0.125 * 11.0
    assert entry["trace"] == [[t, 0.125] for t in
                              (1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0)]
    capsys.readouterr()


def test_l1_task_runs_no_ray(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the l1 task ran the numeric route")

    monkeypatch.setattr(Ray, "__init__", refuse)
    monkeypatch.setattr(kstab.analysis, "newton_transport", refuse)
    blob = json.loads(json.dumps(KINK))
    blob["tasks"] = [{"kind": "l1", "schedule": {"taus": [1, 3]}}]
    path = write_scenario(tmp_path, blob)
    out = tmp_path / "out"
    assert run_scenario(path, out_dir=out) == EXIT_PASS
    entry = read_report(out)["tasks"][0]
    assert (entry["exact"], entry["length"]) == ("1/8", 0.25)
    capsys.readouterr()


@pytest.mark.parametrize("dim,exact", [(3, "243/256"), (4, "49152/15625")])
def test_l1_task_runs_past_the_grids(tmp_path, dim, exact, capsys):
    """The exact l1 task takes every box dimension the parser does."""
    unit = [["1" if i == j else "0" for j in range(dim)] for i in range(dim)]
    blob = {"schema": "kstab-scenario/1", "name": f"box{dim}-l1",
            "polytope": {"kind": "box", "dim": dim},
            "pl": [[row, "0"] for row in unit], "tasks": [{"kind": "l1"}]}
    path = write_scenario(tmp_path, blob)
    out = tmp_path / "out"
    assert run_scenario(path, out_dir=out) == EXIT_PASS
    assert read_report(out)["tasks"][0]["exact"] == exact
    capsys.readouterr()


@pytest.mark.parametrize("key,value", [("beta0", 10), ("tol", 0.01)])
def test_l1_schedule_takes_taus_only(tmp_path, key, value, capsys):
    blob = json.loads(json.dumps(KINK))
    blob["tasks"] = [{"kind": "l1", "schedule": {"taus": [1, 2], key: value}}]
    path = write_scenario(tmp_path, blob)
    assert run_scenario(path, out_dir=tmp_path / "out") == EXIT_VALIDATION
    assert f"schedule.{key}" in capsys.readouterr().err


def test_bundled_scenarios_are_discoverable():
    names = [p.name for p in bundled_scenarios()]
    assert "interval_kink.json" in names
    assert len(names) >= 3
    # every bundled file must parse against the scenario schema
    from kstab.cli import load_scenario
    for res in bundled_scenarios():
        with resources.as_file(res) as path:
            blob = load_scenario(path)
            assert blob["schema"] == "kstab-scenario/1"


def test_check_suite_passes(tmp_path, capsys):
    """Every bundled scenario runs and passes, the 2D PL square with
    max(x1, x2) among them."""
    assert check_suite(out_dir=tmp_path) == EXIT_PASS
    out = capsys.readouterr().out
    for res in bundled_scenarios():
        assert f"suite {res.name}: pass" in out
    assert "suite square_max.json: pass" in out


RATIONAL = {"exact", "decimal"}
VERDICT = {"theorem", "exact", "decimal", "slope", "residual", "tol", "pass",
           "tier", "normalization", "trace_csv", "plot_svg"}
ENTRY_KEYS = {
    "invariants": {"kind", "report"},
    "slopes": {"kind", "verdicts", "pass"},
    "stoppa": {"kind", "vertex", "epsilons", "df_values",
               "fitted_coefficient", "reference_coefficient", "pass"},
    "scan": {"kind", "destabilizing", "best", "candidates"},
    "l1": {"kind", "exact", "limit", "length", "trace"},
}


def test_report_key_sets_are_pinned(tmp_path, capsys):
    """report.json's keys at the top level and in each entry kind, from
    the bundled scenario that runs all five: a format change shows here."""
    res = next(r for r in bundled_scenarios()
               if r.name == "interval_affine.json")
    out = tmp_path / "out"
    with resources.as_file(res) as path:
        assert run_scenario(path, out_dir=out) == EXIT_PASS
    report = read_report(out)
    assert set(report) == {"schema", "name", "timestamp", "seed", "options",
                           "pass", "tasks"}
    assert set(report["options"]) == {"tau_max"}
    kinds = [t["kind"] for t in report["tasks"]]
    assert kinds == ["invariants", "slopes", "slopes", "stoppa", "scan", "l1"]
    for entry in report["tasks"]:
        assert set(entry) == ENTRY_KEYS[entry["kind"]]
    inv = report["tasks"][0]["report"]
    assert set(inv) == {"df", "minimum_norm", "slope_mu", "am_top",
                        "normalization_note", "provenance", "calibration"}
    for key in ("df", "minimum_norm", "slope_mu", "am_top", "calibration"):
        assert set(inv[key]) == RATIONAL
    assert set(inv["provenance"]) == {"df", "minimum_norm", "slope_mu",
                                      "am_top"}
    verdicts = [v for t in report["tasks"][1:3] for v in t["verdicts"]]
    assert [v["theorem"] for v in verdicts] == ["AM", "DF", "MINNORM",
                                                "JALPHA", "POINT"]
    for verdict in verdicts:
        assert set(verdict) == VERDICT
    stoppa = report["tasks"][3]
    for rational in stoppa["df_values"] + [stoppa["fitted_coefficient"],
                                           stoppa["reference_coefficient"]]:
        assert set(rational) == RATIONAL
    scan = report["tasks"][4]
    for scored in [scan["best"]] + scan["candidates"]:
        assert set(scored) == {"point", "value", "exact"}
        assert set(scored["value"]) == RATIONAL


def test_console_entry_point_matches_main(tmp_path):
    path = write_scenario(tmp_path, KINK)
    out = tmp_path / "out"
    proc = run_cli("run", str(path), "--out", str(out), "--seed", "7")
    assert proc.returncode == EXIT_PASS, proc.stderr
    report = read_report(out)
    assert report["seed"] == 7


def test_main_rejects_missing_subcommand():
    with pytest.raises(SystemExit):
        main([])
