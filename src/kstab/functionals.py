"""Energy functionals along degeneration rays.

Conventions.  With the wedge dictionary for invariant forms, an
integral of a function h against eta_1 ^ ... ^ eta_n equals
n! * integral over the moment polytope of h times the mixed
discriminant of the dual Hessians, in whichever moment coordinates the
measure is written.  Two coordinate systems are used on purpose:

  * reference coordinates for integrals against the fixed form (plain
    polytope measure at the grid nodes),
  * transported coordinates for integrals against the evolving form,
    where the pulled-back measure is again the plain one and every
    integrand is a bounded, slack-stable function.  This is what keeps
    entropy-type integrals accurate at large tau: in reference
    coordinates their mass concentrates in an exp(-2 tau) collar that
    float64 cannot resolve near facets with unit-scale offsets.

The Aubin functionals are wired so that the n = 1 identity I = 2J holds
exactly in floating point (I and J are assembled from the same sums),
and the Mabuchi functional is computed by two genuinely different
routes: an explicit formula at time tau (entropy + slope term - Ricci
energy, with the entropy coefficient matching the curvature
normalization in which mean S equals n times the slope), and a path
integral of the curvature pairing in s.  Disagreement beyond tolerance
raises RouteMismatch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import (Grid, Ray, RayState, ShiftedPotential,
                       _inv_small, _logdet_small, abreu_scalar_curvature,
                       bulk_grid, crease_ladder_depth, crease_points,
                       guillemin_potential, newton_transport, ricci_reference)
from .errors import MissingAlpha, NormalizationRequired, RouteMismatch
from .invariants import slope_mu
from .polytope import Polytope, volume_data

PATH_REL_TOL = 1e-7
ROUTE_TOL = 1e-4


# ---------------------------------------------------------------------------
# small mixed discriminants (dimensions 1 and 2)


def mixed_discriminant(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """MD(A, B) normalized so MD(A, A) = det A; batched over axis 0."""
    if a.shape[-1] == 1:
        return a[:, 0, 0] * b[:, 0, 0]
    return 0.5 * (a[:, 0, 0] * b[:, 1, 1] + a[:, 1, 1] * b[:, 0, 0]
                  - a[:, 0, 1] * b[:, 1, 0] - a[:, 1, 0] * b[:, 0, 1])


def adaptive_simpson(f, upper: float, rel: float = PATH_REL_TOL,
                     max_depth: int = 26, lower: float = 0.0):
    """Locally adaptive Simpson on [lower, upper].

    Returns (value, error_estimate) with the estimate accumulated from
    the per-panel refinement differences.  Local bisection matters
    here: path integrands along smoothed rays have an s-boundary-layer
    of width ~ 1/beta near s = 0 where the curvature first collapses
    onto the creases, and uniform refinement wastes hundreds of
    quadrature states on the smooth tail.
    """
    if upper == lower:
        return 0.0, 0.0
    cache: dict = {}

    def fv(x: float) -> float:
        if x not in cache:
            cache[x] = float(f(x))
        return cache[x]

    span = upper - lower
    pilot_nodes = np.linspace(lower, upper, 5)
    pilot = (span / 12.0) * (fv(pilot_nodes[0]) + 4.0 * fv(pilot_nodes[1])
                             + 2.0 * fv(pilot_nodes[2])
                             + 4.0 * fv(pilot_nodes[3]) + fv(pilot_nodes[4]))
    eps = rel * (abs(pilot) + 1e-9)

    def rec(a, b, fa, fm, fb, whole, tol, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = fv(lm), fv(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        delta = left + right - whole
        if depth <= 0 or abs(delta) <= 15.0 * tol:
            return left + right + delta / 15.0, abs(delta) / 15.0
        lv, le = rec(a, m, fa, flm, fm, left, 0.5 * tol, depth - 1)
        rv, re = rec(m, b, fm, frm, fb, right, 0.5 * tol, depth - 1)
        return lv + rv, le + re

    f0, fmid, f1 = fv(lower), fv(lower + 0.5 * span), fv(upper)
    whole = span / 6.0 * (f0 + 4.0 * fmid + f1)
    return rec(lower, upper, f0, fmid, f1, whole, eps, max_depth)


def _path_prefix(ray: Ray, key, integrand, tau: float):
    """Accumulated path integral over [0, tau], reusing shorter prefixes.

    Verdict ladders visit one ray at an ascending sequence of tau values
    and every path functional re-integrates from zero, which makes the
    ladder quadratically expensive in path length.  The per-ray cache
    keeps accumulated (tau, value, error) anchors per integrand key so
    only the new segment beyond the nearest anchor is integrated; the
    anchors double as forced panel boundaries at the ladder points.
    """
    anchors = ray.__dict__.setdefault("_path_cache", {}).setdefault(
        key, [(0.0, 0.0, 0.0)])
    lo, acc, err = max(row for row in anchors if row[0] <= tau)
    if lo == tau:
        return acc, err
    seg, seg_err = adaptive_simpson(integrand, tau, lower=lo)
    row = (tau, acc + seg, err + seg_err)
    anchors.append(row)
    anchors.sort(key=lambda r: r[0])
    return row[1], row[2]


# ---------------------------------------------------------------------------
# per-ray evaluation helpers


def _am_slope(ray: Ray) -> float:
    """d/ds of the Aubin-Mabuchi energy: constant along the ray."""
    n = ray.cfg.dim
    return -math.factorial(n + 1) * ray.grid.integrate(ray.g_vals)


def am_energy(ray: Ray, tau: float) -> float:
    return _am_slope(ray) * tau


def _transported_pieces(ray: Ray, tau: float):
    """phi, log volume ratio and G0 at inverse-transport points.

    Everything is indexed by the grid node in its role as transported
    coordinate; the plain node weights integrate these fields against
    the evolving volume form.
    """
    n = ray.cfg.dim
    pts = ray.grid.points
    x = ray.inverse_transport(tau)
    xi = ray.xi + tau * ray.g_grad
    h_tau = ray.hessian_at_nodes(tau)
    logdet_tau = _logdet_small(h_tau)
    h0_at_x = ray.u0.hessian(x)
    phi = ((pts * xi).sum(axis=1) - (ray.u0_vals + tau * ray.g_vals)) \
        - ((x * xi).sum(axis=1) - ray.u0.value(x))
    lvr = _logdet_small(h0_at_x) - logdet_tau
    mixed = None
    if n == 2:
        mixed = mixed_discriminant(_inv_small(h0_at_x), _inv_small(h_tau)) \
            * np.exp(logdet_tau)
    return phi, lvr, mixed


@dataclass(frozen=True)
class EnergyReport:
    tau: float
    am: float
    am_direct: float
    i_val: float
    j_val: float
    entropy: float
    l_alpha: float | None
    err_estimate: float


def energy_report(state: RayState, alpha: Polytope | None = None) -> EnergyReport:
    """Aubin energies of one ray state; l_alpha only when alpha is given.

    Endpoint values equal the integrated path forms by the fundamental
    theorem of calculus; evaluating at the endpoint in transported
    coordinates avoids stacking s-quadrature error and makes the n = 1
    identity I = 2J hold exactly in floating point (j_val is assembled
    as i_val / 2 there, which agrees with the defining combination to
    one rounding).  The am / am_direct discrepancy doubles as the
    path-vs-endpoint consistency estimate.
    """
    ray = state.ray
    n = ray.cfg.dim
    fact = math.factorial(n)
    tau = state.tau
    if tau == 0.0:
        l0 = None if alpha is None else 0.0
        return EnergyReport(tau=0.0, am=0.0, am_direct=0.0, i_val=0.0,
                            j_val=0.0, entropy=0.0, l_alpha=l0,
                            err_estimate=0.0)
    am = am_energy(ray, tau)

    phi_y, lvr_y, mixed = _transported_pieces(ray, tau)
    a_ref = fact * ray.grid.integrate(state.phi)        # against fixed form
    b_mov = fact * ray.grid.integrate(phi_y)            # against evolving form
    if n == 1:
        am_direct = a_ref + b_mov
    else:
        am_direct = a_ref + b_mov + fact * ray.grid.integrate(phi_y * mixed)
    i_val = a_ref - b_mov
    j_val = 0.5 * i_val if n == 1 else a_ref - am_direct / (n + 1)
    entropy = fact * ray.grid.integrate(lvr_y)

    l_alpha = None
    err = abs(am - am_direct)
    if alpha is not None:
        l_alpha, err_a = _l_alpha_path(ray, tau, alpha)
        err += err_a
    return EnergyReport(tau=tau, am=am, am_direct=am_direct, i_val=i_val,
                        j_val=j_val, entropy=entropy, l_alpha=l_alpha,
                        err_estimate=err)


def _phi_dot_pairing(ray: Ray, s: float, a_field: np.ndarray) -> float:
    """n * <phi_dot, a ^ w_s^(n-1)> at the grid nodes for the field a_field.

    In moment coordinates this is -n * n! * integral of
    g_beta * MD(a_field, G_s) * det H_s, with H_s the Hessian of u_s.
    """
    n = ray.cfg.dim
    h_s = ray.hessian_at_nodes(s)
    if n == 1:
        md = a_field[:, 0, 0]
        det = h_s[:, 0, 0]
    else:
        md = mixed_discriminant(a_field, _inv_small(h_s))
        det = np.exp(_logdet_small(h_s))
    return -n * math.factorial(n) * ray.grid.integrate(ray.g_vals * md * det)


def _l_alpha_path(ray: Ray, tau: float, alpha: Polytope):
    """Path integral of the alpha-pairing: d/ds L = n * <phi_dot, alpha ^ w^(n-1)>."""
    if alpha.dim != ray.cfg.dim:
        raise MissingAlpha(
            "twisting polytope has dimension "
            f"{alpha.dim}, expected {ray.cfg.dim}")
    u_alpha = guillemin_potential(alpha)
    vd = volume_data(alpha)
    warm = {"pts": None}

    def integrand(s: float) -> float:
        xi = ray.xi + s * ray.g_grad
        start = warm["pts"] if warm["pts"] is not None else \
            np.tile(np.array([[float(c) for c in vd.barycenter]]),
                    (ray.grid.size, 1))
        x_a = newton_transport(u_alpha, xi, start.copy())
        warm["pts"] = x_a
        return _phi_dot_pairing(ray, s, _inv_small(u_alpha.hessian(x_a)))

    key = ("l_alpha",) + tuple(tuple(v) for v in alpha.vertices)
    return _path_prefix(ray, key, integrand, tau)


def _l_ricci_path(ray: Ray, tau: float):
    """Path integral pairing phi_dot with the reference Ricci data."""
    def integrand(s: float) -> float:
        x = ray.inverse_transport(s)
        return _phi_dot_pairing(ray, s, ricci_reference(ray.u0, x))

    return _path_prefix(ray, "l_ricci", integrand, tau)


@dataclass(frozen=True)
class MabuchiReport:
    tau: float
    value: float
    route_a: float
    route_b: float
    entropy: float
    l_ricci: float
    err_estimate: float


def _curvature_grid(ray: Ray) -> Grid:
    if not hasattr(ray, "_bulk_grid"):
        ray._bulk_grid = bulk_grid(
            ray.cfg.base, creases=crease_points(ray.cfg.g),
            crease_depth=crease_ladder_depth(ray.smooth.beta, 1.0))
    return ray._bulk_grid


def mabuchi(state: RayState) -> MabuchiReport:
    """Mabuchi energy via the explicit formula, checked against the path.

    Route (a): (1/2) * entropy + n/(n+1) * mu * AM - L_Ricci, the
    half on the entropy paired with the halved Ricci convention in
    which the mean scalar curvature is n * mu.  Route (b): the path
    integral of -phi_dot * (S - n mu) against the evolving volume form.
    """
    ray = state.ray
    cfg = ray.cfg
    n = cfg.dim
    fact = math.factorial(n)
    tau = state.tau
    mu = float(slope_mu(cfg.base))

    _, lvr_y, _ = _transported_pieces(ray, tau)
    entropy = fact * ray.grid.integrate(lvr_y)
    l_ric, err_ric = _l_ricci_path(ray, tau)
    route_a = 0.5 * entropy + (n / (n + 1)) * mu * am_energy(ray, tau) - l_ric

    grid = _curvature_grid(ray)
    gvals = ray.smooth.value(grid.points)

    def integrand(s: float) -> float:
        pot = ShiftedPotential(ray.u0, ray.smooth, float(s))
        s_field = abreu_scalar_curvature(pot, grid.points)
        return fact * grid.integrate(gvals * (s_field - n * mu))

    route_b, err_b = _path_prefix(ray, "curvature_pairing", integrand, tau)
    err = err_ric + err_b
    if abs(route_a - route_b) > ROUTE_TOL * (1.0 + abs(route_a)):
        raise RouteMismatch(
            f"Mabuchi routes disagree at tau={tau}: explicit {route_a!r} "
            f"vs path {route_b!r}")
    return MabuchiReport(tau=tau, value=route_a, route_a=route_a,
                         route_b=route_b, entropy=entropy, l_ricci=l_ric,
                         err_estimate=err)


@dataclass(frozen=True)
class L1Report:
    limit: float
    length: float
    trace: tuple


def l1_norm_path(states: list[RayState]) -> L1Report:
    """Transfinite l1 data of a ray: extrapolated speed and path length.

    The l1 speed of a state is n! * integral of |phi_dot| against the
    evolving volume form, which in transported coordinates is the plain
    integral of |g_beta|.  Requires the average-zero normalization (the
    bookkeeping under which the top self-intersection vanishes).
    """
    if not states:
        raise NormalizationRequired("l1 path needs at least one state")
    cfg = states[0].ray.cfg
    if cfg.normalization != "average_zero":
        raise NormalizationRequired(
            "l1 norms are defined under the average-zero normalization")
    n = cfg.dim
    fact = math.factorial(n)
    trace = []
    for st in sorted(states, key=lambda s: s.tau):
        speed = fact * st.ray.grid.integrate(np.abs(st.ray.g_vals))
        trace.append((st.tau, speed))
    taus = np.array([t for t, _ in trace])
    speeds = np.array([v for _, v in trace])
    if len(trace) >= 3:
        design = np.column_stack([np.ones_like(taus), np.exp(-taus)])
        coef, *_ = np.linalg.lstsq(design, speeds, rcond=None)
        limit = float(coef[0])
    else:
        limit = float(speeds[-1])
    length = float(np.trapezoid(speeds, taus)) if len(trace) > 1 else 0.0
    return L1Report(limit=limit, length=length, trace=tuple(trace))
