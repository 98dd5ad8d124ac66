"""Run the benchmark workloads and the Tier-1 suite; write BENCH_<label>.json.

    python3 scripts/bench.py --label 2

From the repository root this runs ``perfbench/run.py`` on each workload
of BENCHMARK.json three times untraced, for the end-to-end metrics,
and once traced, for the per-layer ones, then the Tier-1 suite.  The
file records the machine facts; per workload the median of the three
untraced runs, each number taken on its own, next to their raw result
lines under ``runs``; the traced run's result line (correctness,
attempted and failed ops, every metric with its unit); the Tier-1 wall
time and summary; the ``pl_memory`` section, the wall time, peak RSS
and grid node count of two 2D PL DF verdicts (square max(x1, x2) and
the 4-piece square), each in a fresh process; the ``exact_memory``
section, the wall times and peak RSS of ``invariant_report`` and
``blowup_expansion`` on a chopped square in a fresh process, with
whether numpy was loaded; and ``wc -l
src/kstab/*.py``.  The machine facts are taken last, after every child
process: they import numpy here, and on Linux a child's peak RSS
(ru_maxrss) starts at its parent's resident size.  One slow run
among the three does not move the medians.  Each run uses seed 1 and the
``run_seconds`` of BENCHMARK.json.  Everything runs one after another
in one closed loop, so two files compare only when they come from the
same machine.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
UNTRACED_RUNS = 3
TIER1 = [sys.executable, "-m", "pytest", "-q",
         "--continue-on-collection-errors"]
# the pieces of g on the unit square for the pl_memory verdicts
PL_VERDICTS = {
    "square_max_df": "[((1, 0), 0), ((0, 1), 0)]",
    "square_4piece_df": "[((0, 0), 0), ((1, 0), F(-1, 2)), "
                        "((0, 1), F(-1, 2)), ((1, 1), -1)]",
}
PL_PROBE = """\
import resource, time
from fractions import Fraction as F
import kstab
import kstab.analysis as analysis
build_grid, nodes = analysis.build_grid, []
def counted(*args, **kwargs):
    grid = build_grid(*args, **kwargs)
    nodes.append(grid.size)
    return grid
analysis.build_grid = counted
cfg = kstab.normalize(kstab.make_config(kstab.box(2), {pieces}), "min_zero")
t0 = time.perf_counter()
passed = kstab.verify_theorem(cfg, "DF").passed
print(time.perf_counter() - t0, passed,
      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, sum(nodes))
"""
# max(x1, x2) on the unit square chopped at (1, 1), through `import kstab`
EXACT_PROBE = """\
import resource, sys, time
from fractions import Fraction as F
import kstab
from kstab.polytope import corner_chop
base = corner_chop(kstab.box(2), (1, 1), F(1, 4))
cfg = kstab.normalize(kstab.make_config(base, [((1, 0), 0), ((0, 1), 0)]),
                      "min_zero")
t0 = time.perf_counter()
kstab.invariant_report(cfg)
t1 = time.perf_counter()
rep = kstab.blowup_expansion(cfg, (1, 0), [F(1, k) for k in (8, 16, 32, 64)])
print(t1 - t0, time.perf_counter() - t1, rep.matches, "numpy" in sys.modules,
      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def bench_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n"
                         f"{done.stderr.strip()[-800:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def median_run(workload: str, seed: int, seconds: float) -> dict:
    """UNTRACED_RUNS untraced runs of workload: the median of each number
    of their result lines, ``correct`` only if every run was, and the
    raw result lines under ``runs``."""
    runs = [bench_run(workload, seed, seconds, 0)
            for _ in range(UNTRACED_RUNS)]

    def median(get):
        return statistics.median(get(r) for r in runs)

    metrics = {name: {"value": median(lambda r: r["metrics"][name]["value"]),
                      "unit": metric["unit"]}
               for name, metric in runs[0]["metrics"].items()}
    return {"correct": all(r["correct"] for r in runs),
            "attempted": median(lambda r: r["attempted"]),
            "failed": median(lambda r: r["failed"]),
            "metrics": metrics, "runs": runs}


def src_env() -> dict:
    """The environment with src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def fresh_probe(name: str, code: str) -> list:
    """The words code prints, run in a fresh process with src/ first on
    the path."""
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          env=src_env(), capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{name} exited {done.returncode}:\n"
                         f"{done.stderr.strip()[-800:]}")
    return done.stdout.split()


def pl_memory() -> dict:
    """Per PL_VERDICTS entry, its DF verdict in a fresh process: wall
    time of verify_theorem, whether it passed, the process's peak RSS
    (ru_maxrss, import included) and the node count of the grids the
    verdict built, so a grid that grows shows next to its memory."""
    out = {}
    for name, pieces in PL_VERDICTS.items():
        wall, passed, rss_kb, nodes = fresh_probe(
            f"pl_memory {name}", PL_PROBE.format(pieces=pieces))
        out[name] = {"wall_s": float(wall), "pass": passed == "True",
                     "peak_rss_mb": int(rss_kb) / 1024,
                     "grid_nodes": int(nodes)}
    return out


def exact_memory() -> dict:
    """EXACT_PROBE in a fresh process: wall times of invariant_report and
    blowup_expansion, whether the expansion matched, whether numpy was
    loaded, and the process's peak RSS (ru_maxrss, import included)."""
    report, blowup, matches, numpy, rss_kb = fresh_probe("exact_memory",
                                                         EXACT_PROBE)
    return {"report_s": float(report), "blowup_s": float(blowup),
            "matches": matches == "True", "numpy_loaded": numpy == "True",
            "peak_rss_mb": int(rss_kb) / 1024}


def tier1() -> dict:
    t0 = time.perf_counter()
    done = subprocess.run(TIER1, cwd=ROOT, env=src_env(), capture_output=True,
                          text=True)
    wall = time.perf_counter() - t0
    lines = done.stdout.strip().splitlines()
    return {"wall_s": wall, "exit_code": done.returncode,
            "summary": lines[-1] if lines else ""}


def src_lines() -> dict:
    """Lines per file of src/kstab/*.py, counted as wc -l counts them."""
    counts = {p.name: p.read_bytes().count(b"\n")
              for p in sorted((ROOT / "src" / "kstab").glob("*.py"))}
    counts["total"] = sum(counts.values())
    return counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    seconds = float(spec["run_seconds"])

    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import machine_facts

    out = {"label": args.label, "seed": SEED, "seconds": seconds,
           "machine": None, "end_to_end": {}, "per_layer": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        print(f"bench: {workload} x{UNTRACED_RUNS} untraced", file=sys.stderr)
        out["end_to_end"][workload] = median_run(workload, SEED, seconds)
        print(f"bench: {workload} traced", file=sys.stderr)
        out["per_layer"][workload] = bench_run(workload, SEED, seconds, 1)
    print("bench: pl_memory", file=sys.stderr)
    out["pl_memory"] = pl_memory()
    print("bench: exact_memory", file=sys.stderr)
    out["exact_memory"] = exact_memory()
    print("bench: tier-1", file=sys.stderr)
    out["tier1"] = tier1()
    out["src_lines"] = src_lines()
    # last: a child's ru_maxrss starts at this process's resident size,
    # and machine_facts imports numpy
    out["machine"] = machine_facts()

    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
