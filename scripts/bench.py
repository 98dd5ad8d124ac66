"""Run the benchmark workloads and the Tier-1 suite; write BENCH_<label>.json.

    python3 scripts/bench.py --label 2

From the repository root this runs ``perfbench/run.py`` on each workload
(exact, ray1d, ray2d) twice, untraced for the end-to-end metrics and
traced for the per-layer ones, then the Tier-1 suite.  The file records
the machine facts, each run's result line (correctness, attempted and
failed ops, every metric with its unit), the Tier-1 wall time and
summary, and ``wc -l src/kstab/*.py``.  Each run uses seed 1 and the
``run_seconds`` of BENCHMARK.json.  Everything runs one after another
in one closed loop, so two files compare only when they come from the
same machine.
"""
import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("exact", "ray1d", "ray2d")
SEED = 1
TIER1 = [sys.executable, "-m", "pytest", "-q",
         "--continue-on-collection-errors"]


def bench_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n"
                         f"{done.stderr.strip()[-800:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def tier1() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    done = subprocess.run(TIER1, cwd=ROOT, env=env, capture_output=True,
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
           "machine": machine_facts(), "end_to_end": {}, "per_layer": {}}
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            print(f"bench: {workload} trace={trace}", file=sys.stderr)
            out[key][workload] = bench_run(workload, SEED, seconds, trace)
    print("bench: tier-1", file=sys.stderr)
    out["tier1"] = tier1()
    out["src_lines"] = src_lines()

    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
