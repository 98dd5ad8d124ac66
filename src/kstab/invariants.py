"""Exact algebraic invariants of toric degenerations.

Two independent computation routes are kept alive throughout:

  * boundary route: invariants as integrals of g against the lattice
    boundary measure of P (plus bulk corrections);
  * intersection route: the same quantities as exact mixed volumes and
    boundary measures of the Cayley polytope Q, with the fibre-class
    contribution subtracted.

The dimensional constant relating the two is calibrated once per
dimension on a reference configuration, cached, and re-verified on
every Donaldson-Futaki evaluation; any disagreement raises instead of
silently picking a route.

The intersection route needs one subtlety: when g has non-integer
gradients the top facets of Q carry lattice multiplicities, so the
route is evaluated after a degree-d rescaling of the fibre direction
(d = lcm of the gradient denominators) and divided back by d.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import (
    DimensionMismatch,
    InsufficientSamples,
    NonDelzant,
    NotNormalized,
    RouteMismatch,
)
from .plconfig import ToricTestConfig, make_config, normalize
from .polytope import (
    Polytope,
    _solve_dense,
    box,
    corner_chop,
    embed_at_height,
    frac,
    frac_str,
    integrate,
    mixed_volume,
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


def _gradient_lcm(cfg: ToricTestConfig) -> int:
    d = 1
    for p in cfg.g.pieces:
        for c in p.gradient:
            d = math.lcm(d, Fraction(c).denominator)
    return d


def _intersection_df(cfg: ToricTestConfig) -> Fraction:
    """DF from exact data of the Cayley polytope.

    Rescales the fibre direction by d = lcm of gradient denominators so
    that every top facet of Q is reduced, evaluates the intersection
    formula there, and divides by d.
    """
    n = cfg.dim
    d = _gradient_lcm(cfg)
    work = cfg if d == 1 else make_config(cfg.base, cfg.g.scaled(d),
                                          cfg.shift * d)
    base_vd = volume_data(cfg.base)
    q_vd = volume_data(work.cayley)
    a = base_vd.boundary_sigma_volume / base_vd.volume
    fact = math.factorial(n)
    raw = a * fact * q_vd.volume \
        - fact * (q_vd.boundary_sigma_volume - 2 * base_vd.volume)
    return raw / d


@lru_cache(maxsize=None)
def calibration_constant(n: int) -> Fraction:
    """Dimensional constant matching the boundary and intersection routes.

    Calibrated on the unit n-cube with the roof function
    max(x1 - 1/2, 1/2 - x1), whose boundary functional is nonzero in
    every dimension.
    """
    e1 = tuple(1 if i == 0 else 0 for i in range(n))
    ne1 = tuple(-c for c in e1)
    cfg = normalize(make_config(box(n), [(e1, Fraction(-1, 2)),
                                         (ne1, Fraction(1, 2))]), "min_zero")
    b = _boundary_raw(cfg)
    i = _intersection_df(cfg)
    if b == 0:
        raise RouteMismatch("calibration reference has vanishing functional")
    return i / b


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

    Slicing the Cayley polytope horizontally collapses the polarization
    against n copies of the flat base prism to a fibre-length integral,
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
    """Minimum norm via mixed volumes of (Q, horizontal base prism)."""
    _require_normalized(cfg)
    n = cfg.dim
    flat = embed_at_height(cfg.base, 0)
    bodies = [cfg.cayley] + [flat] * n
    v_mixed = mixed_volume(bodies)
    q_vol = volume_data(cfg.cayley).volume
    return math.factorial(n + 1) * (v_mixed - q_vol / (n + 1))


def chow_weight(cfg: ToricTestConfig, v) -> Fraction:
    """Height of g at a vertex above its mean value.

    Positive at some vertex exactly when the configuration is
    nontrivial; see the destabilizing-vertex dichotomy tests.
    """
    i = cfg.base.vertex_index(v)
    vd = volume_data(cfg.base)
    avg = integrate(cfg.base, cfg.g) / vd.volume
    return cfg.g(cfg.base.vertices[i]) - avg


def twisted_weights(cfg: ToricTestConfig, p_alpha: Polytope):
    """(gamma, j_weight, twisted_df) for the auxiliary class given by p_alpha."""
    _require_normalized(cfg)
    n = cfg.dim
    if p_alpha.dim != n:
        raise DimensionMismatch("auxiliary polytope has wrong dimension")
    base_vol = volume_data(cfg.base).volume
    gamma = mixed_volume([p_alpha] + [cfg.base] * (n - 1)) / base_vol
    flat_alpha = embed_at_height(p_alpha, 0)
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

    def to_json(self) -> dict:
        def render(q):
            return {"exact": frac_str(q), "decimal": float(q)}
        return {
            "df": render(self.df),
            "minimum_norm": render(self.minimum_norm),
            "slope_mu": render(self.slope_mu),
            "am_top": render(self.am_top),
            "normalization_note": self.normalization_note,
            "provenance": dict(self.provenance),
            "calibration": render(self.calibration),
        }


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
            "am_top": "mixed_volume",
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
    chopped vertex's Chow weight prediction.
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
        g_e = cfg.g.restricted_to(chopped)
        cfg_e = normalize(make_config(chopped, g_e, cfg.shift), "min_zero")
        df_e = donaldson_futaki(cfg_e)
        dfs.append(df_e)
        deviations.append((df_e - df0) * volume_data(chopped).volume)

    nodes = [Fraction(0)] + list(eps)
    values = [Fraction(0)] + deviations
    rows = [[node ** k for k in range(len(nodes))] for node in nodes]
    coeffs = _solve_dense(rows, values)
    fitted = coeffs[n - 1] / base_vol
    reference = -n * (n - 1) * chow_weight(cfg, v)
    return BlowupReport(
        epsilons=tuple(eps),
        df_values=tuple(dfs),
        fitted_coefficient=fitted,
        reference_coefficient=reference,
        matches=fitted == reference,
    )
