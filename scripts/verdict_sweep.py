"""Seeded sweep of grid verdicts over random toric test configurations.

    python3 scripts/verdict_sweep.py --seeds 1-47

For each seed S from A to B this draws ``random_config(random.Random(S))``
from tests/gens.py, loaded by path (kstab itself must be importable, for
example with src/ on PYTHONPATH).  On a simplex-product base it runs the
AM, DF, MINNORM and JALPHA verdicts on the default schedule, JALPHA with
alpha the unit box of the base's dimension.  Per config it prints the
base, g's pieces [gradient; constant] and max s_k: s_k is the largest
-<a_i, nu_k> over the pieces a_i active somewhere on facet k (a vertex of
their cell lies on it), nu_k its outward normal, so s_k > 0 means that g
rises into P there.
Per verdict it prints the outcome (pass, FAIL or the error's class),
|slope - exact|, the residual and their ratio.  Every other base must
end in the Ray's NumericalFailure refusal of a base that is no simplex
product, in each verdict; the row reads ``refused``.  Last come the
counts per verdict.  The exit status is 1 if some base was not refused
as documented, else 0.
"""
import argparse
import importlib.util
import random
from collections import Counter
from pathlib import Path

from kstab.analysis import simplex_product
from kstab.errors import KstabError, NumericalFailure
from kstab.polytope import box
from kstab.slopes import verify_theorem

ROOT = Path(__file__).resolve().parent.parent
THEOREMS = ("AM", "DF", "MINNORM", "JALPHA")
REFUSAL = "needs a simplex-product base"


def load_gens():
    """tests/gens.py as a module, loaded by path."""
    spec = importlib.util.spec_from_file_location(
        "gens", ROOT / "tests" / "gens.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def max_slope_into(cfg):
    """max over facets k of s_k, the largest -<a_i, nu_k> over the pieces
    a_i whose cell has a vertex on facet k."""
    g = cfg.g
    return max(-sum(a * v for a, v in zip(piece.gradient, facet.normal))
               for facet in cfg.base.halfspaces
               for piece, cell in zip(g.pieces, g.regions())
               if any(facet.slack(v) == 0 for v in cell.vertices))


def describe(cfg) -> str:
    base = " ".join("(" + ", ".join(map(str, v)) + ")"
                    for v in cfg.base.vertices)
    pieces = " ".join(
        "[" + ", ".join(map(str, p.gradient)) + f"; {p.constant}]"
        for p in cfg.g.pieces)
    return f"base {base}  g {pieces}"


def verdict_row(cfg, theorem: str) -> tuple:
    """(outcome, |slope - exact|, residual, error) of one verdict: an
    error names its class and leaves the numbers None."""
    try:
        rep = verify_theorem(cfg, theorem, alpha=box(cfg.dim)
                             if theorem == "JALPHA" else None)
    except KstabError as exc:
        return type(exc).__name__, None, None, exc
    err = abs(rep.slope - float(rep.exact))
    return ("pass" if rep.passed else "FAIL"), err, rep.residual, None


def sweep(seeds) -> int:
    gens = load_gens()
    counts = {name: Counter() for name in THEOREMS}
    products = refused = unrefused = 0
    for seed in seeds:
        cfg = gens.random_config(random.Random(seed))
        head = f"seed {seed}: {describe(cfg)}"
        if simplex_product(cfg.base) is None:
            outcomes = [verdict_row(cfg, name) for name in THEOREMS]
            ok = all(isinstance(exc, NumericalFailure) and REFUSAL in str(exc)
                     for *_, exc in outcomes)
            refused += ok
            unrefused += not ok
            print(f"{head}  refused" if ok else f"{head}  NOT REFUSED: "
                  + ", ".join(o for o, *_ in outcomes))
            continue
        products += 1
        print(f"{head}  max s_k {max_slope_into(cfg)}")
        for name in THEOREMS:
            outcome, err, res, _ = verdict_row(cfg, name)
            counts[name][outcome] += 1
            numbers = "" if err is None else (
                f" {err:10.3e} {res:10.3e} "
                + (f"{err / res:10.3g}" if res else f"{'inf':>10}"))
            print(f"  {name:<8} {outcome:<18}{numbers}".rstrip())
    print(f"{products} simplex-product configs; {refused} other bases "
          f"refused, {unrefused} not")
    for name in THEOREMS:
        print(f"{name}: " + ", ".join(f"{k} {v}" for k, v in sorted(
            counts[name].items(), key=lambda kv: (kv[0] != "pass", kv[0]))))
    return 1 if unrefused else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, type=seed_range,
                    help="A-B: the seeds A to B, both included (or one A)")
    args = ap.parse_args(argv)
    print(f"{'verdict':<10} {'outcome':<18} {'|err|':>10} {'residual':>10} "
          f"{'err/res':>10}")
    return sweep(args.seeds)


if __name__ == "__main__":
    raise SystemExit(main())
