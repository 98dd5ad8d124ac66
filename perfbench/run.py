"""kstab benchmark: one seeded workload, closed loop, one client.

    python3 perfbench/run.py --workload {exact,ray1d,ray2d} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; kstab is imported from ``src/``.  The
workload runs whole rounds of ops, each op starting when the previous
one returned.  A run does S / round_s rounds (at least one), where
round_s is the workload's nominal round length, so every run does the
same amount of work whatever the machine's speed.  With ``--trace 0`` the last
stdout line carries the end-to-end metrics; with ``--trace 1`` the same
run records per-layer spans and reports the per-layer metrics instead.
Lines above it summarise the run and list every failed op.  Scratch
files go under ``.perfbench/`` and are removed at exit; the result
record and the span dump stay in ``.perfbench/results/``.
"""
import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
SETUP_SAMPLES = 3          # this process plus two fresh children
THREAD_VARS = ("KSTAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"setup_s": "s", "time_per_ok_s": "s", "ok_ratio": "ratio",
              "peak_rss_mb": "MB"}


class HarnessError(Exception):
    """The benchmark itself cannot produce a valid result."""


def machine_facts() -> dict:
    nproc = len(os.sched_getaffinity(0))
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    src_lines = sum(len(p.read_text("utf-8").splitlines())
                    for p in sorted((SRC / "kstab").rglob("*.py")))
    return {"nproc": nproc, "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "src_lines": src_lines,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def finite_max(values) -> float:
    values = [v for v in values if math.isfinite(v)]
    return max(values) if values else 0.0


def check_threads(nproc: int, trace: bool):
    """Threads stay at their defaults; more than nproc is refused."""
    for var in THREAD_VARS:
        raw = os.environ.get(var)
        if raw is None:
            continue
        try:
            count = int(raw)
        except ValueError:
            raise HarnessError(f"{var}={raw!r} is not a thread count")
        if count > nproc:
            raise HarnessError(f"{var}={count} exceeds nproc={nproc}")
        if trace and var == "KSTAB_THREADS" and count > 1:
            raise HarnessError("a traced run records spans on one thread; "
                               "unset KSTAB_THREADS or set it to 1")


def fresh_setup_seconds(args) -> float:
    """Set-up time of a fresh process, measured by that process."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", "0", "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    if done.returncode != 0:
        raise HarnessError(f"set-up child exited {done.returncode}: "
                           f"{done.stderr.strip()[-400:]}")
    return float(done.stdout.strip().splitlines()[-1])


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("exact", "ray1d", "ray2d"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run(args) -> dict:
    if not (SRC / "kstab" / "__init__.py").is_file():
        raise HarnessError(f"no kstab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    check_threads(len(os.sched_getaffinity(0)), bool(args.trace))

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    import kstab
    if Path(kstab.__file__).resolve().parent != SRC / "kstab":
        raise HarnessError(f"kstab imported from {kstab.__file__}")
    from workloads import WORKLOADS, Run

    workdir = SCRATCH / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        setup_s = time.perf_counter() - STARTED - workload.search_s
        if args.setup_only:
            return {"setup_only": setup_s}

        runner = Run(args.workload, tracer)
        rounds = max(1, int(args.seconds // workload.round_s))
        t0 = time.perf_counter()
        for _ in range(rounds):
            workload.run_round(runner)
        loop_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    facts = machine_facts()

    ok = runner.attempted - runner.failed
    if ok == 0:
        raise HarnessError("no op passed, so time per passing op is undefined")
    accuracy = {"slopes.err_over_tol_max": finite_max(runner.err_over_tol),
                "slopes.err_over_residual_max":
                    finite_max(runner.err_over_residual)}
    summary = {
        "time_per_ok_s": runner.op_wall / ok,
        "ok_ratio": ok / runner.attempted,
        "fail_ratio": runner.failed / runner.attempted,
        "err_over_tol_max": accuracy["slopes.err_over_tol_max"]
        if runner.err_over_tol else None,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is None:
        samples = [setup_s] + [fresh_setup_seconds(args)
                               for _ in range(SETUP_SAMPLES - 1)]
        summary["setup_s"] = statistics.median(samples)
        summary["setup_samples_s"] = samples
        metrics = {k: {"value": summary[k], "unit": u}
                   for k, u in END_TO_END.items()}
    else:
        metrics = tracer.metrics(runner.op_wall, accuracy)

    return {
        "result": {"correct": runner.silent == 0,
                   "attempted": runner.attempted, "failed": runner.failed,
                   "metrics": metrics},
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "rounds": rounds,
        "loop_s": loop_s, "op_wall_s": runner.op_wall, "summary": summary,
        "machine": facts, "inputs": workload.inputs, "ledger": runner.ledger,
        "op_seconds": runner.op_log,
        "tracer": tracer,
    }


def report(out: dict):
    """Write the result record and print the summary, result line last."""
    results = SCRATCH / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{out['workload']}-seed{out['seed']}-trace{out['trace']}"
    tracer = out.pop("tracer")
    if tracer is not None:
        tracer.dump(results / f"{stem}-spans.json")
    (results / f"{stem}.json").write_text(json.dumps(out, indent=1) + "\n",
                                          encoding="utf-8")
    res, summary = out["result"], out["summary"]
    machine = out["machine"]
    print(f"kstab bench: workload={out['workload']} seed={out['seed']} "
          f"trace={out['trace']} rounds={out['rounds']} "
          f"ops={res['attempted']} failed={res['failed']} "
          f"op_wall={out['op_wall_s']:.3f}s loop={out['loop_s']:.3f}s")
    print(f"machine: nproc={machine['nproc']} cpu={machine['cpu']!r} "
          f"python={machine['python']} numpy={machine['numpy']} "
          f"src_lines={machine['src_lines']} threads={machine['threads']}")
    for entry in out["ledger"]:
        print(f"ledger: {entry['workload']} {entry['op']} {entry['type']}: "
              f"{entry['message']}")
    units = dict(END_TO_END, fail_ratio="ratio", err_over_tol_max="ratio")
    for key, unit in units.items():
        if key in summary:
            value = summary[key]
            shown = "n/a (no reference slope)" if value is None \
                else f"{value:.6g} {unit}"
            print(f"  {key:<18} {shown}")
    if out["trace"]:
        for key, blob in res["metrics"].items():
            print(f"  {key:<36} {blob['value']:.6g} {blob['unit']}")
    print(json.dumps(res))


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        out = run(args)
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(repr(out["setup_only"]))
        return 0
    report(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
