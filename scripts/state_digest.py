"""Digest of every RayState of the reference rays and seeded draws.

    python3 scripts/state_digest.py --seeds 1-47

The configurations are the reference rays (the interval with g = x,
max(x, 1 - x) and max(-3x, 3x - 3), the square and the unit simplex with
g = x1, and tests/gens.py's four PL_2D rays), then, for each seed S from
A to B, ``random_config(random.Random(S))`` from tests/gens.py when its
base is a simplex product (other bases are skipped: no Ray is built on
them).  Each is normalized to min g = 0, as the DF, MINNORM and JALPHA
verdicts read it, and runs one Ray.states pass on the default ladder,
then one with alpha the unit box of its dimension.  Per configuration
one line reads its label, the number of states and a sha256 over the
float-hex of every RayState field but the ray; a typed refusal adds its
class, digested too.  The last line digests all the lines before it, so
two trees give the same states, bit for bit, exactly when the lines
match.  kstab itself must be importable, for example with src/ on
PYTHONPATH, and verdict_sweep.py beside this script.
"""
import argparse
import dataclasses
import hashlib
import random

from kstab.analysis import Ray, RayState, simplex_product
from kstab.errors import KstabError
from kstab.plconfig import make_config, normalize
from kstab.polytope import box, unit_simplex
from kstab.slopes import Schedule
from verdict_sweep import load_gens, seed_range

FIELDS = [f.name for f in dataclasses.fields(RayState) if f.name != "ray"]


def configs(gens, seeds):
    """(label, config) of each reference ray, then of each seed's draw on
    a simplex-product base."""
    yield "interval-affine", gens.interval_config([((1,), 0)])
    yield "interval-kink", gens.interval_config([((1,), 0), ((-1,), 1)])
    yield "interval-steep", gens.interval_config([((-3,), 0), ((3,), -3)])
    yield "square-x1", make_config(box(2), [((1, 0), 0)])
    yield "simplex-x1", make_config(unit_simplex(2), [((1, 0), 0)])
    yield from gens.PL_2D.items()
    for seed in seeds:
        cfg = gens.random_config(random.Random(seed))
        if simplex_product(cfg.base) is not None:
            yield f"seed-{seed}", cfg


def digest_line(label: str, cfg) -> str:
    """label, the number of states and the sha256 of their fields, each
    typed refusal's class after them."""
    cfg = normalize(cfg, "min_zero")
    schedule = Schedule()
    top = schedule.taus[-1]
    rungs = [(t, schedule.beta(t)) for t in schedule.taus]
    sha, count, refusals = hashlib.sha256(), 0, []
    for alpha in (None, box(cfg.dim)):
        try:
            states = Ray(cfg, beta=schedule.beta(top), tau_max=top).states(
                rungs, alpha)
        except KstabError as exc:
            refusals.append(type(exc).__name__)
            sha.update(refusals[-1].encode())
            continue
        for state in states:
            values = (getattr(state, name) for name in FIELDS)
            sha.update(" ".join("None" if v is None else float(v).hex()
                                for v in values).encode() + b"\n")
        count += len(states)
    return " ".join([f"{label:<16} {count:3d} {sha.hexdigest()}",
                     *refusals])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, type=seed_range,
                    help="A-B: the seeds A to B, both included (or one A)")
    args = ap.parse_args(argv)
    lines = [digest_line(label, cfg)
             for label, cfg in configs(load_gens(), args.seeds)]
    print("\n".join(lines))
    print(f"{'all':<16} {len(lines):3d} "
          + hashlib.sha256("\n".join(lines).encode()).hexdigest())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
