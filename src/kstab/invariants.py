"""Exact algebraic invariants of toric degenerations.

Two independent computation routes are kept alive throughout:

  * boundary route: invariants as integrals of g against the lattice
    boundary measure of P (plus bulk corrections);
  * intersection route: the same quantities as exact mixed volumes and
    boundary measures of the Cayley polytope Q, with the fibre-class
    contribution subtracted.  Every mixed volume has the form
    V(K, ..., K, L) and is evaluated by Minkowski's facet formula,
    (1/d) * sum over facets F of K of h_L(nu_F) * sigma(F).

The dimensional constant relating the two is n!, the factor between
Euclidean volumes and intersection numbers (L^n = n! vol P).  Every
Donaldson-Futaki evaluation compares the routes exactly; any
disagreement raises instead of silently picking a route.

On Q the DF reads n! * (a * vol Q - sum of sigma_F over the vertical
facets of Q), those with normal (nu, 0), where a = sigma(boundary P) /
vol P.  Only the vertical facets enter: a top facet over a cell of g
with primitive normal (k, k_t) has |k_t| * sigma_F = vol(cell), so the
top facets together with the bottom facet t = 0 carry no information
beyond vol P, whatever the denominators of the gradients of g.

The destabilizing-point scan is exact too: the limit of phi_dot at any
point of P has a closed form (fixed_point_weight), so the scan runs no
ray.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DimensionMismatch,
    DomainMismatch,
    InsufficientSamples,
    NonDelzant,
    NotNormalized,
    RouteMismatch,
)
from .plconfig import ToricTestConfig, normalize, restricted
from .polytope import (
    Polytope,
    corner_chop,
    embed_at_height,
    frac,
    integrate,
    mixed_volume,
    regions_of_max,
    solve_exact,
    vec,
    volume_data,
)


def _require_normalized(cfg: ToricTestConfig):
    if cfg.normalization not in ("min_zero", "average_zero"):
        raise NotNormalized(
            "normalize the configuration (min_zero or average_zero) first")


def slope_mu(base: Polytope) -> Fraction:
    """Ratio of the boundary sigma-measure to n times the volume.

    This is the slope of the underlying Kaehler manifold: 2 for the
    interval and the unit square, 3 for the standard simplex.
    """
    if not base.is_delzant:
        raise NonDelzant("slope is defined for Delzant polytopes")
    vd = volume_data(base)
    return vd.boundary_sigma_volume / (base.dim * vd.volume)


def _boundary_raw(cfg: ToricTestConfig) -> Fraction:
    """The un-calibrated boundary functional of g."""
    vd = volume_data(cfg.base)
    a = vd.boundary_sigma_volume / vd.volume
    return (integrate(cfg.base, cfg.g, region="boundary")
            - a * integrate(cfg.base, cfg.g))


def _intersection_df(cfg: ToricTestConfig) -> Fraction:
    """DF from exact data of the Cayley polytope Q alone.

    The vertical facet of Q over a facet E of P has sigma equal to the
    integral of the fibre length f = shift - g over E, and vol Q is its
    integral over P, so n! * (a * vol Q - sum of vertical sigma) is the
    boundary formula with the shift cancelling (a * vol P = sigma(dP)).
    """
    base_vd = volume_data(cfg.base)
    q_vd = volume_data(cfg.cayley)
    a = base_vd.boundary_sigma_volume / base_vd.volume
    vertical = sum(sigma for h, sigma in zip(cfg.cayley.halfspaces,
                                             q_vd.per_facet_sigma)
                   if h.normal[-1] == 0)
    return math.factorial(cfg.dim) * (a * q_vd.volume - vertical)


def calibration_constant(n: int) -> Fraction:
    """Dimensional constant matching the boundary and intersection
    routes: n!, the factor between Euclidean volume and the top
    intersection number."""
    return Fraction(math.factorial(n))


def donaldson_futaki(cfg: ToricTestConfig) -> Fraction:
    """Donaldson-Futaki invariant; nonnegative on semistable toric data.

    Both routes are evaluated and must agree exactly.
    """
    _require_normalized(cfg)
    cn = calibration_constant(cfg.dim)
    via_boundary = cn * _boundary_raw(cfg)
    via_cayley = _intersection_df(cfg)
    if via_boundary != via_cayley:
        raise RouteMismatch(
            f"boundary {via_boundary} != intersection {via_cayley}")
    return via_boundary


def minimum_norm(cfg: ToricTestConfig) -> Fraction:
    """Minimum norm as the exact bulk excess of g over its minimum.

    Slicing the Cayley polytope horizontally collapses its mixed volume
    with n copies of the flat base prism to a fibre-length integral,
    leaving n! * (integral of g - vol(P) * min g).  The mixed-volume
    route survives as minimum_norm_mixed and every invariant report
    re-checks the two agree exactly.

    Zero exactly when the configuration is trivial (g constant).
    """
    _require_normalized(cfg)
    n = cfg.dim
    vd = volume_data(cfg.base)
    gmin = cfg.g.min_over_domain()
    return math.factorial(n) * (integrate(cfg.base, cfg.g)
                                - gmin * vd.volume)


def minimum_norm_mixed(cfg: ToricTestConfig) -> Fraction:
    """Minimum norm via mixed volumes of (Q, horizontal base prism).

    V(Q, flat, ..., flat) comes from Minkowski's facet formula with the
    flat base as K: its two facets +-e_t carry sigma = vol(P), so the
    mixed volume is vol(P) times the height range of Q over n + 1.
    """
    _require_normalized(cfg)
    n = cfg.dim
    flat = embed_at_height(cfg.base)
    bodies = [cfg.cayley] + [flat] * n
    v_mixed = mixed_volume(bodies)
    q_vol = volume_data(cfg.cayley).volume
    return math.factorial(n + 1) * (v_mixed - q_vol / (n + 1))


def l1_norm(cfg: ToricTestConfig) -> Fraction:
    """n! * integral over P of |g - mean g|, exactly: twice n! times the
    integral of max(g - mean g, 0), each piece over its cell in the max
    of the pieces and the zero piece (a piece below zero has none)."""
    h = cfg.g.shifted(-cfg.g.average())
    pieces = [(p.gradient, p.constant) for p in h.pieces]
    cells = regions_of_max(cfg.base, pieces + [((0,) * cfg.dim, 0)])
    return 2 * math.factorial(cfg.dim) * sum(
        (integrate(c, p) for p, c in zip(pieces, cells) if c is not None),
        Fraction(0))


def fixed_point_weight(cfg: ToricTestConfig, p) -> Fraction:
    """Limit of minus phi_dot at the point p of P along the ray, in the
    average-zero normalization: min of g over the smallest face F of P
    holding p, minus the mean of g.  (The transported point minimizes
    u0 + tau * g_beta - <grad u0(p), .> on F, and (u0 + tau * g_beta) / tau
    tends to g.)  The minimum sits at a cell vertex of g on every facet
    tight at p; a vertex of P is its own F.  DomainMismatch for a point
    outside P or of the wrong dimension.
    """
    p = vec(p)
    if p in cfg.base.vertices:
        low = cfg.g(p)
    elif cfg.base.contains(p):
        tight = [h for h in cfg.base.halfspaces if h.slack(p) == 0]
        low = min(cfg.g(v) for cell in cfg.g.regions() for v in cell.vertices
                  if all(h.slack(v) == 0 for h in tight))
    else:
        raise DomainMismatch(
            f"point ({', '.join(map(str, p))}) lies outside the polytope")
    return low - cfg.g.average()


def chow_weight(cfg: ToricTestConfig, v) -> Fraction:
    """Height of g at a vertex above its mean value, the fixed-point
    weight there; NotAVertex elsewhere.  Positive at some vertex exactly
    when the configuration is nontrivial (the destabilizer dichotomy)."""
    cfg.base.vertex_index(v)
    return fixed_point_weight(cfg, v)


@dataclass(frozen=True)
class CandidateWeight:
    point: tuple
    value: Fraction


@dataclass(frozen=True)
class ScanReport:
    best: CandidateWeight
    destabilizing: bool
    candidates: tuple


def scan_destabilizer(cfg: ToricTestConfig,
                      candidates="vertices") -> ScanReport:
    """Largest fixed-point weight over candidate points: every point of
    P is scored exactly by fixed_point_weight (the Chow weight at a
    vertex); a candidate outside P raises DomainMismatch and an empty
    candidate list InsufficientSamples."""
    points = cfg.base.vertices if candidates == "vertices" else tuple(
        tuple(Fraction(c) for c in p) for p in candidates)
    if not points:
        raise InsufficientSamples("scan needs at least one candidate point")
    scored = [CandidateWeight(p, fixed_point_weight(cfg, p)) for p in points]
    best = max(scored, key=lambda c: c.value)
    return ScanReport(best=best, destabilizing=best.value > 0,
                      candidates=tuple(scored))


def twisted_weights(cfg: ToricTestConfig, p_alpha: Polytope):
    """(gamma, j_weight, twisted_df) for the auxiliary class given by p_alpha."""
    _require_normalized(cfg)
    n = cfg.dim
    if p_alpha.dim != n:
        raise DimensionMismatch("auxiliary polytope has wrong dimension")
    base_vol = volume_data(cfg.base).volume
    gamma = mixed_volume([p_alpha] + [cfg.base] * (n - 1)) / base_vol
    flat_alpha = embed_at_height(p_alpha)
    v_top = mixed_volume([cfg.cayley] * n + [flat_alpha])
    q_vol = volume_data(cfg.cayley).volume
    fact = math.factorial(n + 1)
    j_weight = fact * v_top - Fraction(n, n + 1) * gamma * fact * q_vol
    return gamma, j_weight, donaldson_futaki(cfg) + j_weight


@dataclass(frozen=True)
class InvariantReport:
    df: Fraction
    minimum_norm: Fraction
    slope_mu: Fraction
    am_top: Fraction
    normalization_note: str
    provenance: dict
    calibration: Fraction


def invariant_report(cfg: ToricTestConfig) -> InvariantReport:
    _require_normalized(cfg)
    n = cfg.dim
    df = donaldson_futaki(cfg)  # raises on route disagreement
    mn = minimum_norm(cfg)
    mn_mixed = minimum_norm_mixed(cfg)
    if mn != mn_mixed:
        raise RouteMismatch(
            f"minimum norm slicing {mn} != mixed volume {mn_mixed}")
    return InvariantReport(
        df=df,
        minimum_norm=mn,
        slope_mu=slope_mu(cfg.base),
        am_top=math.factorial(n + 1) * volume_data(cfg.cayley).volume,
        normalization_note=cfg.normalization,
        provenance={
            "df": "both_agree",
            "minimum_norm": "both_agree",
            "slope_mu": "boundary_formula",
            "am_top": "cayley_volume",
        },
        calibration=calibration_constant(n),
    )


# ---------------------------------------------------------------------------
# blowup expansion


@dataclass(frozen=True)
class BlowupReport:
    epsilons: tuple
    df_values: tuple
    fitted_coefficient: Fraction
    reference_coefficient: Fraction
    matches: bool


def blowup_expansion(cfg: ToricTestConfig, v, epsilons) -> BlowupReport:
    """DF of corner-chopped bases plus the order-(n-1) expansion coefficient.

    The product DF(eps) * Vol(P_eps) is a polynomial in eps of degree at
    most 2n (DF itself is only rational), so the deviation
    U(eps) = (DF(eps) - DF(0)) * Vol(P_eps) is interpolated exactly and
    the eps^(n-1) coefficient is read off and compared against the
    chopped vertex's Chow weight prediction.  Each chopped configuration
    is ``restricted``: its cells and its Cayley polytope Q_eps are cuts
    of cfg's, with no vertex enumeration per depth.
    """
    _require_normalized(cfg)
    n = cfg.dim
    eps = sorted({frac(e) for e in epsilons if frac(e) != 0})
    if any(e < 0 for e in eps):
        raise InsufficientSamples("chop depths must be positive")
    if len(eps) < 2 * n:
        raise InsufficientSamples(
            f"need at least {2 * n} distinct positive depths, got {len(eps)}")

    df0 = donaldson_futaki(cfg)
    base_vol = volume_data(cfg.base).volume
    dfs, deviations = [], []
    for e in eps:
        chopped = corner_chop(cfg.base, v, e)
        cfg_e = normalize(restricted(cfg, chopped), "min_zero")
        df_e = donaldson_futaki(cfg_e)
        dfs.append(df_e)
        deviations.append((df_e - df0) * volume_data(chopped).volume)

    nodes = [Fraction(0)] + list(eps)
    values = [Fraction(0)] + deviations
    rows = [[node ** k for k in range(len(nodes))] for node in nodes]
    coeffs = solve_exact(rows, values)
    fitted = coeffs[n - 1] / base_vol
    reference = -n * (n - 1) * chow_weight(cfg, v)
    return BlowupReport(
        epsilons=tuple(eps),
        df_values=tuple(dfs),
        fitted_coefficient=fitted,
        reference_coefficient=reference,
        matches=fitted == reference,
    )
