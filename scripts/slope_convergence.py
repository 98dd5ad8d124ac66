"""How fast the limit-slope estimator settles as the tau ladder grows.

Runs one verdict trace on a named configuration, then re-estimates the
limit slope from every prefix of the ladder and prints the error
against the exact invariant.  Short prefixes that fall under the
estimator's sample floor are reported as such rather than padded.

    python3 scripts/slope_convergence.py --config kink --theorem DF
    python3 scripts/slope_convergence.py --config square_max --theorem DF
"""
import argparse
from fractions import Fraction

from kstab import Schedule, estimate_limit_slope, make_config, verify_theorem
from kstab.errors import ValidationError
from kstab.polytope import box, interval

F = Fraction

CONFIGS = {
    "affine": lambda: make_config(interval(0, 1), [((F(1),), F(0))]),
    "kink": lambda: make_config(
        interval(0, 1), [((F(1),), F(0)), ((F(-1),), F(1))]),
    "square": lambda: make_config(box(2), [((F(1), F(0)), F(0))]),
    "square_max": lambda: make_config(
        box(2), [((F(1), F(0)), F(0)), ((F(0), F(1)), F(0))]),
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", choices=sorted(CONFIGS), default="kink")
    ap.add_argument("--theorem", default="DF",
                    choices=("AM", "DF", "MINNORM"))
    ap.add_argument("--taus", type=float, nargs="*",
                    help="override the tau ladder")
    args = ap.parse_args(argv)

    cfg = CONFIGS[args.config]()
    try:  # Schedule refuses a bad ladder, verify_theorem a short one
        schedule = Schedule(taus=tuple(args.taus)) if args.taus \
            else Schedule()
        rep = verify_theorem(cfg, args.theorem, schedule=schedule)
    except ValidationError as exc:
        ap.error(str(exc))
    exact = float(rep.exact)
    print(f"config={args.config} theorem={rep.theorem} tier={rep.tier} "
          f"exact={rep.exact} tol={rep.tol}")
    print(f"{'tau_max':>8} {'samples':>8} {'slope':>14} {'abs err':>12} model")
    for k in range(2, len(rep.trace) + 1):
        prefix = rep.trace[:k]
        try:
            est = estimate_limit_slope(prefix)
        except ValidationError as exc:
            print(f"{prefix[-1][0]:8.1f} {k:8d} {'-':>14} {'-':>12} "
                  f"(floor: {exc})")
            continue
        print(f"{est.tau_max:8.1f} {est.samples_used:8d} "
              f"{est.value:14.8f} {abs(est.value - exact):12.2e} {est.model}")
    print(f"verdict: {'pass' if rep.passed else 'FAIL'} "
          f"(residual {rep.residual:.2e})")
    return 0 if rep.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
