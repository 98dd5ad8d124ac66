"""End-to-end checks of the scenario runner and its artifacts."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kstab
from kstab import slopes
from kstab.cli import (EXIT_NUMERIC, EXIT_PARSE, EXIT_PASS, EXIT_VALIDATION,
                       EXIT_VERDICT_FAIL, bundled_scenarios, emit_outputs,
                       main, run_scenario)

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
])
def test_invalid_scenarios_exit_3(tmp_path, mutate, capsys):
    blob = json.loads(json.dumps(KINK))
    mutate(blob)
    path = write_scenario(tmp_path, blob)
    assert run_scenario(path, out_dir=tmp_path / "out") == EXIT_VALIDATION
    assert "invalid scenario" in capsys.readouterr().err


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
    assert entry["limit"] > 0
    assert entry["length"] > 0
    assert len(entry["trace"]) == 7
    capsys.readouterr()


def test_bundled_scenarios_are_discoverable():
    names = [p.name for p in bundled_scenarios()]
    assert "interval_kink.json" in names
    assert len(names) >= 3
    # every bundled file must parse against the scenario schema
    from kstab.cli import load_scenario
    from importlib import resources
    for res in bundled_scenarios():
        with resources.as_file(res) as path:
            blob = load_scenario(path)
            assert blob["schema"] == "kstab-scenario/1"


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
