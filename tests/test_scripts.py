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


def test_bench_records_the_median_of_three_untraced_runs(monkeypatch):
    """Each number of the end-to-end entry is the median of three
    untraced runs, so one 2.4x outlier does not reach the file; the raw
    runs are kept next to it."""
    bench = load_script("bench")
    times = iter([3.80, 1.52, 1.61])
    calls = []

    def stub(workload, seed, seconds, trace):
        calls.append((workload, seed, seconds, trace))
        t = next(times)
        return {"correct": t < 3.0, "attempted": 2, "failed": 0,
                "metrics": {"time_per_ok_s": {"value": t, "unit": "s"},
                            "ok_ratio": {"value": 1.0, "unit": "ratio"}}}

    monkeypatch.setattr(bench, "bench_run", stub)
    entry = bench.median_run("ray2d", 1, 25.0)
    assert calls == [("ray2d", 1, 25.0, 0)] * 3
    assert entry["metrics"]["time_per_ok_s"] == {"value": 1.61, "unit": "s"}
    assert entry["metrics"]["ok_ratio"]["value"] == 1.0
    assert [r["metrics"]["time_per_ok_s"]["value"] for r in entry["runs"]] \
        == [3.80, 1.52, 1.61]
    assert entry["correct"] is False   # one run missed a check
    assert entry["attempted"] == 2 and entry["failed"] == 0


def test_bench_pl_memory_runs_each_verdict_in_a_fresh_process(monkeypatch):
    """pl_memory runs each PL DF verdict in its own process, with src/
    on the path, and records its wall time, pass flag and peak RSS."""
    bench = load_script("bench")
    calls = []

    class Done:
        returncode = 0
        stdout = "1.25 True 86016\n"
        stderr = ""

    def stub(cmd, cwd, env, capture_output, text):
        calls.append(cmd)
        assert env["PYTHONPATH"].startswith(str(bench.ROOT / "src"))
        return Done()

    monkeypatch.setattr(bench.subprocess, "run", stub)
    out = bench.pl_memory()
    assert list(out) == ["square_max_df", "square_4piece_df"]
    assert out["square_max_df"] == {"wall_s": 1.25, "pass": True,
                                    "peak_rss_mb": 84.0}
    assert len(calls) == 2
    for cmd, pieces in zip(calls, bench.PL_VERDICTS.values()):
        assert cmd[1] == "-c" and pieces in cmd[2]
        assert 'verify_theorem(cfg, "DF")' in cmd[2]
