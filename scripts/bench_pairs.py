"""Compare the benchmark at REF and at HEAD in alternating pairs of runs.

    python3 scripts/bench_pairs.py REF --workload ray1d --pairs 20 [--seed N]

From the repository root this extracts ``git archive`` checkouts of REF
and of HEAD (committed files only) into a temporary directory and runs
``perfbench/run.py --seed N`` (1 by default) untraced in each, for the
``run_seconds`` of BENCHMARK.json (25), PAIRS times, alternating which
side runs first.  Per end-to-end metric of BENCHMARK.json it prints the
median and the quartiles of each side and the number of pairs in which
HEAD was better, in the metric's direction (ties are counted apart),
then one line per metric saying whether HEAD's change resolves as a
gain: better in at least nine tenths of the pairs, ties counting for
neither, and a median gap in its favour wider than REF's quartile
spread; last, per op, the median of its seconds over the ``op_seconds``
of every run's result record on each side, which shows the op a move
comes from.  The runs write only into their checkouts, whose
``.perfbench/`` scratch goes with the temporary directory.
"""
import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("exact", "ray1d", "ray2d")


def checkout(rev: str, dest: Path) -> Path:
    """The committed tree of rev, extracted into dest."""
    done = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                          capture_output=True)
    if done.returncode != 0:
        raise SystemExit(f"git archive {rev} exited {done.returncode}:\n"
                         f"{done.stderr.decode(errors='replace')[-800:]}")
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=done.stdout,
                   check=True)
    return dest


def run_once(tree: Path, workload: str, seed: int, seconds) -> tuple:
    """End-to-end metric values of one untraced run in tree, and the
    (op, seconds) pairs of its result record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited "
                         f"{done.returncode}:\n{done.stderr.strip()[-800:]}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    record = tree / ".perfbench" / "results" / \
        f"{workload}-seed{seed}-trace0.json"
    ops = json.loads(record.read_text("utf-8"))["op_seconds"]
    return {name: m["value"] for name, m in line["metrics"].items()}, ops


def op_medians(ref_ops, head_ops) -> list:
    """Per op, in order of first appearance, the median of its seconds
    on each side and the change."""
    sides = [{}, {}]
    for side, ops in zip(sides, (ref_ops, head_ops)):
        for name, seconds in ops:
            side.setdefault(name, []).append(seconds)
    lines = [f"{'op':<24} {'ref median':>12} {'head median':>12}  change"]
    for name in dict.fromkeys([*sides[0], *sides[1]]):
        ref, head = (statistics.median(side[name]) if name in side
                     else float("nan") for side in sides)
        lines.append(f"{name:<24} {ref:>12.6g} {head:>12.6g}  "
                     f"{head / ref - 1.0:+.1%}")
    return lines


def quartiles(values) -> tuple:
    """(first quartile, median, third quartile) of values."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def resolution(name: str, ref, head, lower: bool, wins: int) -> str:
    """Whether HEAD's change on one metric resolves as a gain: better
    (wins) in at least nine tenths of the pairs and a median gap, in the
    metric's direction, wider than REF's quartile spread."""
    need = math.ceil(0.9 * len(ref))
    q1, med, q3 = quartiles(ref)
    gap = (med - statistics.median(head)) * (1 if lower else -1)
    ok = wins >= need and gap > q3 - q1
    return (f"resolve {name}: {'yes' if ok else 'no'} (better in {wins} of "
            f"{len(ref)}, {need} needed; median gap {gap:+.6g}, ref "
            f"quartile spread {q3 - q1:.6g})")


def summary(ref_runs, head_runs, end_to_end) -> list:
    """One line per end-to-end metric: each side's median and quartiles,
    then HEAD's wins and ties over the pairs; then a resolution line per
    metric."""
    lines = [f"{'metric':<14} {'ref median [q1, q3]':>34} "
             f"{'head median [q1, q3]':>34}  head better"]
    verdicts = []
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        ref = [r[name] for r in ref_runs]
        head = [r[name] for r in head_runs]
        sides = []
        for values in (ref, head):
            q1, med, q3 = quartiles(values)
            sides.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}]")
        wins = sum((h < r) if lower else (h > r) for r, h in zip(ref, head))
        ties = sum(h == r for r, h in zip(ref, head))
        change = (statistics.median(head) / statistics.median(ref) - 1.0) \
            if statistics.median(ref) else 0.0
        lines.append(f"{name:<14} {sides[0]:>34} {sides[1]:>34}  "
                     f"{wins} of {len(ref)} ({ties} ties), "
                     f"median {change:+.1%}")
        verdicts.append(resolution(name, ref, head, lower, wins))
    return lines + verdicts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("ref", help="the revision to compare HEAD with")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        ref = checkout(args.ref, Path(tmp) / "ref")
        head = checkout("HEAD", Path(tmp) / "head")
        ref_runs, head_runs, ref_ops, head_ops = [], [], [], []
        for i in range(args.pairs):
            order = ((ref, ref_runs, ref_ops), (head, head_runs, head_ops))
            for tree, runs, ops in order if i % 2 == 0 else order[::-1]:
                metrics, seconds = run_once(tree, args.workload, args.seed,
                                            spec["run_seconds"])
                runs.append(metrics)
                ops.extend(seconds)
            print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
    print(f"{args.workload}: {args.ref} (ref) vs HEAD, {args.pairs} "
          f"alternating pairs, --seconds {spec['run_seconds']} "
          f"--seed {args.seed}")
    print("\n".join(summary(ref_runs, head_runs, spec["end_to_end"])
                    + op_medians(ref_ops, head_ops)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
