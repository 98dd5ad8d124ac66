"""Smoke runs of the command-line scripts under scripts/."""
import importlib.util
import json
import re
import sys
import types
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


def test_verdict_sweep_pins_its_rows_and_counts(capsys):
    """verdict_sweep on seeds 8-9: seed 8 draws g on the 2 x 2 box, whose
    four verdicts each print the outcome, then |slope - exact|, residual
    and their ratio in columns of 10 (none after an error's class); seed
    9 draws a corner chop, which every verdict refuses; the counts per
    verdict close the output."""
    assert load_script("verdict_sweep").main(["--seeds", "8-9"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"{'verdict':<10} {'outcome':<18} {'|err|':>10} " \
        f"{'residual':>10} {'err/res':>10}"
    assert out[1] == ("seed 8: base (0, 0) (0, 2) (2, 0) (2, 2)  g "
                      "[-1, -1/2; -7/4] [-3/2, -1; -1/4]  max s_k 3/2")
    for line, name, outcome in zip(
            out[2:6], ("AM", "DF", "MINNORM", "JALPHA"),
            ("pass", "RouteMismatch", "pass", "FAIL")):
        assert line.startswith(f"  {name:<8} {outcome}")
        numbers = r"( {2}\d\.\d{3}e[+-]\d\d){2} [ \d.e+-]{10}"
        assert line == f"  {name:<8} {outcome}" if name == "DF" \
            else re.fullmatch(rf"  {name:<8} {outcome:<18}{numbers}", line)
    assert out[6] == ("seed 9: base (0, 0) (0, 1) (3/4, 1) (1, 0) (1, 3/4)  "
                      "g [1, 7/4; -1]  refused")
    assert out[7:] == ["1 simplex-product configs; 1 other bases refused, 0 not",
                       "AM: pass 1", "DF: RouteMismatch 1", "MINNORM: pass 1",
                       "JALPHA: FAIL 1"]


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


def test_bench_exact_memory_runs_the_exact_probe_in_a_fresh_process(
        monkeypatch):
    """exact_memory runs invariant_report and blowup_expansion on the
    chopped square in one fresh process, with src/ on the path, and
    records their wall times, the match flag, whether numpy was loaded
    and the peak RSS."""
    bench = load_script("bench")
    calls = []

    class Done:
        returncode = 0
        stdout = "0.0125 0.25 True False 21504\n"
        stderr = ""

    def stub(cmd, cwd, env, capture_output, text):
        calls.append(cmd)
        assert env["PYTHONPATH"].startswith(str(bench.ROOT / "src"))
        return Done()

    monkeypatch.setattr(bench.subprocess, "run", stub)
    assert bench.exact_memory() == {
        "report_s": 0.0125, "blowup_s": 0.25, "matches": True,
        "numpy_loaded": False, "peak_rss_mb": 21.0}
    assert len(calls) == 1 and calls[0][1:] == ["-c", bench.EXACT_PROBE]
    for call in ("import kstab\n", "corner_chop(kstab.box(2), (1, 1)",
                 "kstab.invariant_report(cfg)", "kstab.blowup_expansion(",
                 '"numpy" in sys.modules'):
        assert call in bench.EXACT_PROBE


def test_bench_takes_the_machine_facts_after_every_child(monkeypatch,
                                                        tmp_path):
    """main starts every child process (the runs, both memory probes and
    Tier-1) before machine_facts imports numpy into its own process,
    whose resident size would floor each later child's peak RSS."""
    bench = load_script("bench")
    (tmp_path / "BENCHMARK.json").write_bytes(
        (bench.ROOT / "BENCHMARK.json").read_bytes())
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    calls = []

    def stub(name, value):
        def call(*args):
            calls.append(name)
            return value
        return call

    for name in ("median_run", "bench_run", "pl_memory", "exact_memory",
                 "tier1", "src_lines"):
        monkeypatch.setattr(bench, name, stub(name, {}))
    fake_run = types.ModuleType("run")
    fake_run.machine_facts = stub("machine_facts", {"nproc": 2})
    monkeypatch.setitem(sys.modules, "run", fake_run)
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert bench.main(["--label", "t"]) == 0
    assert calls[-1] == "machine_facts" and calls.count("machine_facts") == 1
    out = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert list(out)[:4] == ["label", "seed", "seconds", "machine"]
    assert out["machine"] == {"nproc": 2}


def test_bench_pairs_takes_the_workloads_of_benchmark_json(capsys):
    """--workload accepts exactly the names of BENCHMARK.json's workloads;
    anything else exits 2 before any checkout."""
    pairs = load_script("bench_pairs")
    spec = json.loads((pairs.ROOT / "BENCHMARK.json").read_text("utf-8"))
    with pytest.raises(SystemExit) as exc:
        pairs.main(["HEAD", "--workload", "nope"])
    assert exc.value.code == 2
    choices = ", ".join(f"'{w['name']}'" for w in spec["workloads"])
    assert f"(choose from {choices})" in capsys.readouterr().err


def test_bench_pairs_alternates_the_sides_and_counts_wins(monkeypatch,
                                                          tmp_path, capsys):
    """bench_pairs extracts REF and HEAD into one temporary directory, runs
    perfbench/run.py untraced in each at the seed asked for (1 by
    default), the side going first alternating pair by pair, and prints
    each side's median and quartiles and HEAD's wins per end-to-end
    metric, then whether each resolves as a gain: better in 9 of 10
    pairs (here 4 of 4) and a median gap beyond REF's quartile spread;
    the temporary directory is gone after.  Then whether HEAD holds each
    metric within its bound: setup_s 40% worse (no), ok_ratio with a REF
    quartile spread beyond 1% (unresolved), the rest yes.  Last come the
    medians of each op's seconds per side, read from every run's result
    record."""
    pairs = load_script("bench_pairs")
    for seed_args, seed in (([], "1"), (["--seed", "7"], "7")):
        runs, archives = [], []
        # time_per_ok_s of each run, ref and head alternating per pair
        times = {"ref": iter([1.0, 1.2, 1.1, 0.9]),
                 "head": iter([0.8, 1.3, 0.7, 0.9])}
        # ok_ratio, equal within each pair
        ratios = {side: iter([1.0, 0.5, 1.0, 0.5]) for side in times}

        class Done:
            returncode = 0
            stderr = ""

            def __init__(self, stdout):
                self.stdout = stdout

        def stub(cmd, cwd=None, capture_output=False, text=False, input=None,
                 check=False):
            if cmd[0] == "git":
                archives.append(cmd[-1])
                return Done(b"tar of " + cmd[-1].encode())
            if cmd[0] == "tar":
                assert Path(cmd[-1]).parent.parent == tmp_path
                return Done(b"")
            assert cmd[1:] == ["perfbench/run.py", "--workload", "ray1d",
                               "--seed", seed, "--seconds", "25", "--trace", "0"]
            side = Path(cwd).name
            runs.append(side)
            t = next(times[side])
            record = Path(cwd) / ".perfbench" / "results"
            record.mkdir(parents=True, exist_ok=True)
            (record / f"ray1d-seed{seed}-trace0.json").write_text(json.dumps(
                {"op_seconds": [["kink-DF", t], ["kink-AM", 0.5 * t]]}))
            metrics = {"setup_s": 0.25 if side == "ref" else 0.35,
                       "time_per_ok_s": t, "ok_ratio": next(ratios[side]),
                       "peak_rss_mb": 34.0 if side == "ref" else 33.0}
            return Done("summary\n" + json.dumps({"metrics": {
                k: {"value": v, "unit": "s"} for k, v in metrics.items()}}))

        monkeypatch.setattr(pairs.subprocess, "run", stub)
        monkeypatch.setattr(pairs.tempfile, "tempdir", str(tmp_path))
        assert pairs.main(["a9f8f7a", "--workload", "ray1d", "--pairs", "4",
                           *seed_args]) == 0
        assert archives == ["a9f8f7a", "HEAD"]
        assert runs == ["ref", "head", "head", "ref"] * 2
        assert list(tmp_path.iterdir()) == []
        out = capsys.readouterr().out.splitlines()
        rows = {line.split()[0]: line for line in out}
        assert "1.05 [0.925, 1.175]" in rows["time_per_ok_s"]
        assert "0.85 [0.725, 1.2]" in rows["time_per_ok_s"]
        assert rows["time_per_ok_s"].endswith("2 of 4 (1 ties), median -19.0%")
        assert rows["peak_rss_mb"].endswith("4 of 4 (0 ties), median -2.9%")
        assert rows["ok_ratio"].endswith("0 of 4 (4 ties), median +0.0%")
        assert out[0].endswith(f"--seed {seed}")
        resolve = [line for line in out if line.startswith("resolve ")]
        assert [line.split()[1:3] for line in resolve] == [
            ["setup_s:", "no"], ["time_per_ok_s:", "no"], ["ok_ratio:", "no"],
            ["peak_rss_mb:", "yes"]]
        # time_per_ok_s: a 0.2 s median gap, but better in 2 of 4 pairs
        assert "better in 2 of 4, 4 needed; median gap +0.2," in resolve[1]
        # peak_rss_mb: better in 4 of 4 by 1 MB, REF's spread 0
        assert resolve[3].endswith("median gap +1, ref quartile spread 0)")
        holds = [line for line in out if line.startswith("hold ")]
        assert [line.split()[1:3] for line in holds] == [
            ["setup_s:", "no"], ["time_per_ok_s:", "yes"],
            ["ok_ratio:", "unresolved"], ["peak_rss_mb:", "yes"]]
        # setup_s: 0.35 against 0.25 s, beyond its 25% bound
        assert "median worse by +40.0%, bound 25%;" in holds[0]
        # time_per_ok_s: REF's spread 0.25 on a 1.05 median, within 25%
        assert holds[1].endswith("ref quartile spread 23.8% of its median)")
        # ok_ratio: no worse, but REF spreads over 0.5 on 0.75, bound 1%
        assert holds[2].endswith("bound 1%; ref quartile spread 66.7% of "
                                 "its median)")
        # per op, the median over every run's op_seconds on each side
        assert rows["kink-DF"].split()[1:] == ["1.05", "0.85", "-19.0%"]
        assert rows["kink-AM"].split()[1:] == ["0.525", "0.425", "-19.0%"]
        assert out[-3].split() == ["op", "ref", "median", "head", "median",
                                   "change"]
    # a REF spread beyond the bound resolves when every HEAD run beats
    # every REF run, in the metric's direction
    for lower, head in ((True, [0.5, 0.9]), (False, [3.5, 4.0])):
        assert pairs.hold("m", [1.0, 2.0, 3.0], head, lower,
                          0.1).split()[2] == "yes"
        assert pairs.hold("m", [1.0, 2.0, 3.0], head[::-1] + [2.0], lower,
                          0.1).split()[2] == "unresolved"
