"""Seeded input generator for the benchmark.

Everything here is a pure function of a ``random.Random`` stream, so the
same seed gives the same inputs.  The program under test only ever sees
what these functions return: polytopes and PL data for the exact
workload, scenario files for the 1D ray workload.

Rounds are stratified.  A round of the exact workload draws one
configuration for every (base, piece count) pair, and a round of the
1D ray workload draws one mild and one steep ray for every piece count.
A seed then changes the coefficients inside each stratum but never the
mix, and 2D exact strata are held at a fixed Cayley shape, which keeps
run-to-run spread down without leaving any stratum out.
"""
from __future__ import annotations

import random
from fractions import Fraction as F

BASES = ("interval", "square", "simplex", "chopped_square")
PIECE_COUNTS = (1, 2, 3)
QUARTERS = tuple(F(k, 4) for k in range(-8, 9))     # -2 .. 2 step 1/4
CURVATURES = (F(1, 2), F(1), F(3, 2), F(2))
CHOP_EPSILONS = (F(1, 100), F(1, 50), F(1, 25), F(1, 10))


def _base(kind: str, rng: random.Random):
    from kstab.polytope import box, corner_chop, interval, unit_simplex
    if kind == "interval":
        lo = F(rng.randrange(-2, 3))
        return interval(lo, lo + rng.randrange(1, 4))
    if kind == "square":
        return box(2)
    if kind == "simplex":
        return unit_simplex(2)
    return corner_chop(box(2), (1, 1), F(1, rng.randrange(2, 5)))


def line_pieces(lo, breaks, slopes, start):
    """Continuous PL pieces from ``lo`` on, with the given creases.

    ``slopes`` must increase strictly and ``breaks`` lie strictly inside,
    so every piece is the strict maximum between its two creases.
    """
    pieces = [((slopes[0],), start - slopes[0] * lo)]
    for b, s in zip(breaks, slopes[1:]):
        prev_grad, prev_const = pieces[-1]
        value = prev_grad[0] * b + prev_const
        pieces.append(((s,), value - s * b))
    return pieces


def _interval_pieces(base, k: int, rng: random.Random):
    lo, hi = base.vertices[0][0], base.vertices[-1][0]
    inner = [lo + F(j, 4) for j in range(1, int(4 * (hi - lo)))]
    breaks = sorted(rng.sample(inner, k - 1))
    slopes = sorted(rng.sample(QUARTERS, k))
    return line_pieces(lo, breaks, slopes, rng.choice(QUARTERS))


def _plane_pieces(base, k: int, rng: random.Random):
    """Tangent planes of a convex quadratic at k interior lattice points.

    Each plane is the strict maximum at its own touching point, so all
    k pieces are active on a full-dimensional region.
    """
    if k == 1:
        return [((rng.choice(QUARTERS), rng.choice(QUARTERS)),
                 rng.choice(QUARTERS))]
    grid = [(F(i, 4), F(j, 4)) for i in range(1, 8) for j in range(1, 8)]
    inside = [p for p in grid if base.contains(p, strict=True)]
    a = (rng.choice(CURVATURES), rng.choice(CURVATURES))
    b = (rng.choice(QUARTERS), rng.choice(QUARTERS))
    pieces = []
    for p in rng.sample(inside, k):
        grad = tuple(2 * a[i] * p[i] + b[i] for i in range(2))
        value = sum(a[i] * p[i] ** 2 + b[i] * p[i] for i in range(2))
        pieces.append((grad, value - grad[0] * p[0] - grad[1] * p[1]))
    return pieces


# Cayley edge directions per 2D (base, pieces) stratum.  The exact
# kernel's cost grows steeply with this count (it sets the facet count
# of the Minkowski sums), so each stratum is held at its common value.
EDGE_DIRECTIONS = {("square", 2): 8, ("square", 3): 10, ("simplex", 2): 9,
                   ("simplex", 3): 11, ("chopped_square", 2): 8,
                   ("chopped_square", 3): 10}


def edge_directions(poly) -> int:
    """Number of distinct edge directions of a polytope."""
    from kstab.polytope import primitivize
    seen = set()
    for i, j in poly.edges():
        step, _ = primitivize(tuple(a - b for a, b in
                                    zip(poly.vertices[i], poly.vertices[j])))
        seen.add(max(step, tuple(-c for c in step)))
    return len(seen)


def _stratum_draw(kind: str, k: int, rng: random.Random):
    """Draw (base, pieces) until the stratum's Cayley shape is met."""
    from kstab.plconfig import make_config
    target = EDGE_DIRECTIONS.get((kind, k))
    for _ in range(500):
        base = _base(kind, rng)
        make = _interval_pieces if base.dim == 1 else _plane_pieces
        pieces = make(base, k, rng)
        cfg = make_config(base, pieces)
        if target is None or edge_directions(cfg.cayley) == target:
            return base, pieces, cfg
    raise ValueError(f"no {kind} config with {k} pieces and {target} "
                     "Cayley edge directions")


def exact_round(rng: random.Random):
    """Input specs for one round: one per (base, piece count) stratum.

    Each spec holds a base, its PL pieces and a chop site.  Finding them
    builds and discards trial configurations; ``build_exact`` builds the
    accepted ones.
    """
    specs = []
    for kind in BASES:
        for k in PIECE_COUNTS:
            base, pieces, cfg = _stratum_draw(kind, k, rng)
            vertex, epsilons = _chop_site(cfg, rng)
            specs.append({"name": f"{kind}-{k}", "base": base,
                          "pieces": pieces, "vertex": vertex,
                          "epsilons": epsilons})
    return specs


def build_exact(spec: dict) -> dict:
    """The configuration of a spec in both normalizations, and its record."""
    from kstab.plconfig import make_config, normalize
    cfg = make_config(spec["base"], spec["pieces"])
    return dict(spec, cfg=cfg, min_zero=normalize(cfg, "min_zero"),
                average_zero=normalize(cfg, "average_zero"),
                record=describe(cfg))


def _chop_site(cfg, rng: random.Random):
    """A vertex whose deepest chop stays inside one linearity region of g.

    The blow-up expansion is a polynomial identity only while the
    chopped corner sits in a single region, so the chop depths are
    halved until some vertex qualifies.
    """
    from kstab.polytope import corner_chop
    regions = [r for r in cfg.g.regions() if r is not None]
    base = cfg.base
    for halvings in range(8):
        epsilons = tuple(e / 2 ** halvings for e in CHOP_EPSILONS)
        sites = []
        for v in base.vertices:
            cut = corner_chop(base, v, epsilons[-1])
            corner = [v] + [u for u in cut.vertices if u not in base.vertices]
            if any(all(r.contains(p) for p in corner) for r in regions):
                sites.append(v)
        if sites:
            return rng.choice(sites), epsilons
    raise ValueError("no vertex admits a chop inside one linearity region")


def describe(cfg) -> dict:
    """dim, facets, pieces and creases of one configuration."""
    regions = cfg.g.regions()
    if cfg.base.dim == 1:
        ends = {v[0] for v in cfg.base.vertices}
        creases = {v[0] for r in regions for v in r.vertices} - ends
    else:
        # an interior edge shared by two linearity regions is a crease
        edges = {}
        for r in regions:
            for e in r.edges():
                key = frozenset(r.vertices[i] for i in e)
                edges[key] = edges.get(key, 0) + 1
        creases = {key for key, n in edges.items() if n > 1}
    return {"dim": cfg.base.dim, "facets": len(cfg.base.halfspaces),
            "pieces": len(cfg.g.pieces), "creases": len(creases)}


def _steep_slopes(k: int, rng: random.Random):
    first = rng.choice((F(-3), F(-5, 2), F(-2)))
    last = rng.choice((F(2), F(5, 2), F(3)))
    middle = [q for q in QUARTERS if first < q < last]
    return [first] + sorted(rng.sample(middle, k - 2)) + [last]


def ray1d_round(rng: random.Random):
    """Seeded PL rays on [0, 1]: one mild and one steep per piece count.

    Mild rays keep every slope in [-1, 1]; steep rays start at slope
    -2 or below and end at 2 or above.  Creases sit on the 1/8 lattice.
    """
    rays = []
    for k in (2, 3):
        for kind in ("mild", "steep"):
            breaks = sorted(F(j, 8) for j in rng.sample(range(1, 8), k - 1))
            if kind == "mild":
                slopes = sorted(rng.sample(QUARTERS[4:13], k))
            else:
                slopes = _steep_slopes(k, rng)
            rays.append({"name": f"{kind}{k}",
                         "pieces": line_pieces(F(0), breaks, slopes, F(0))})
    return rays


def scenario(name: str, polytope: dict, pieces, task: dict,
             alpha: dict | None = None) -> dict:
    """A kstab-scenario/1 document with a single task."""
    blob = {
        "schema": "kstab-scenario/1",
        "name": name,
        "polytope": polytope,
        "pl": [[[str(c) for c in grad], str(const)] for grad, const in pieces],
        "tasks": [task],
    }
    if alpha is not None:
        blob["alpha"] = alpha
    return blob


UNIT_INTERVAL = {"kind": "interval", "lo": "0", "hi": "1"}
AFFINE = [((F(1),), F(0))]
KINK = [((F(1),), F(0)), ((F(-1),), F(1))]


def ray1d_reference():
    """The fixed 1D acceptance configurations, one task per scenario.

    Returns (op name, pieces, scenario) triples.  Reference ops never
    change with the seed, so their accuracy figures compare across runs.
    """
    def slopes(theorem, **extra):
        return dict(kind="slopes", theorems=[theorem], **extra)

    alpha = {"kind": "interval", "lo": "0", "hi": "2"}
    table = [
        ("affine-AM", AFFINE, slopes("AM"), None),
        ("affine-DF", AFFINE, slopes("DF"), None),
        ("affine-MINNORM", AFFINE, slopes("MINNORM"), None),
        ("affine-JALPHA", AFFINE, slopes("JALPHA"), alpha),
        ("affine-POINT0", AFFINE, slopes("POINT", vertex=["0"]), None),
        ("affine-POINT1", AFFINE, slopes("POINT", vertex=["1"]), None),
        ("affine-l1", AFFINE, {"kind": "l1"}, None),
        ("kink-DF", KINK, slopes("DF"), None),
        ("kink-MINNORM", KINK, slopes("MINNORM"), None),
    ]
    return [(name, pieces, scenario(name, UNIT_INTERVAL, pieces, task, alpha=a))
            for name, pieces, task, a in table]
