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
exactly in floating point (I and J are assembled from the same sums).
The energies of a fixed form theta, the Ricci energy (theta = Ric0) and
the twisted energy L_alpha (theta = alpha), share one Chen-Tian endpoint
form, sum_j integral phi theta ^ omega0^j ^ omega_phi^(n-1-j), so no
path in s is integrated for them.  The Mabuchi functional is computed
by two genuinely different routes: an explicit formula at time tau
(entropy + slope term - Ricci energy, with the entropy coefficient
matching the curvature normalization in which mean S equals n times the
slope) and a path integral of the curvature pairing in s.  Disagreement
beyond tolerance raises RouteMismatch.
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
PATH_MAX_DEPTH = 26
ROUTE_TOL = 1e-4


# ---------------------------------------------------------------------------
# small mixed discriminants (dimensions 1 and 2)


def mixed_discriminant(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """MD(A, B) normalized so MD(A, A) = det A; batched over axis 0."""
    if a.shape[-1] == 1:
        return a[:, 0, 0] * b[:, 0, 0]
    return 0.5 * (a[:, 0, 0] * b[:, 1, 1] + a[:, 1, 1] * b[:, 0, 0]
                  - a[:, 0, 1] * b[:, 1, 0] - a[:, 1, 0] * b[:, 0, 1])


def _wedge(state: RayState, a_field: np.ndarray) -> np.ndarray:
    """MD(a, G_tau) * det H_tau, the density of a ^ omega_tau in the
    transported coordinates of a 2D state, for a dual-Hessian field a
    given at the inverse-transported points state.x."""
    return mixed_discriminant(a_field, state.g_tau) * state.det_tau


def adaptive_simpson(f, upper: float, lower: float = 0.0):
    """Locally adaptive Simpson on [lower, upper].

    Returns (value, error_estimate) with the estimate accumulated from
    the per-panel refinement differences.  The error budget is
    PATH_REL_TOL times the pilot value, halved at each bisection, and
    bisection stops after PATH_MAX_DEPTH levels.  Local bisection
    matters here: path integrands along smoothed rays have an
    s-boundary-layer of width ~ 1/beta near s = 0 where the curvature
    first collapses onto the creases, and uniform refinement wastes
    hundreds of quadrature states on the smooth tail.

    The recursive `rec` closes over itself; the cell is cleared on
    return so that the integrand (and the Ray it holds) is freed by
    reference counting rather than left in a cycle for the collector.
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
    eps = PATH_REL_TOL * (abs(pilot) + 1e-9)

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
    try:
        return rec(lower, upper, f0, fmid, f1, whole, eps, PATH_MAX_DEPTH)
    finally:
        del rec


def _path_prefix(ray: Ray, integrand, tau: float):
    """Accumulated path integral over [0, tau], reusing shorter prefixes.

    Verdict ladders visit one ray at an ascending sequence of tau values
    and the path functional re-integrates from zero, which makes the
    ladder quadratically expensive in path length.  The per-ray cache
    keeps accumulated (tau, value, error) anchors so only the new
    segment beyond the nearest anchor is integrated; the anchors double
    as forced panel boundaries at the ladder points.
    """
    anchors = ray.__dict__.setdefault("_path_anchors", [(0.0, 0.0, 0.0)])
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
    one rounding).  l_alpha is the Chen-Tian endpoint energy of the
    fixed form alpha (_fixed_form_energy, as for Ric0 in mabuchi).
    err_estimate is the am / am_direct discrepancy, the
    path-vs-endpoint consistency estimate.
    """
    ray = state.ray
    n = ray.cfg.dim
    fact = math.factorial(n)
    tau = state.tau
    am = am_energy(ray, tau)

    a_ref = fact * ray.grid.integrate(state.phi)        # against fixed form
    b_mov = fact * ray.grid.integrate(state.phi_y)      # against evolving form
    if n == 1:
        am_direct = a_ref + b_mov
    else:
        mixed = _wedge(state, _inv_small(state.h0_at_x))
        am_direct = a_ref + b_mov \
            + fact * ray.grid.integrate(state.phi_y * mixed)
    i_val = a_ref - b_mov
    j_val = 0.5 * i_val if n == 1 else a_ref - am_direct / (n + 1)
    entropy = fact * ray.grid.integrate(state.log_ratio)

    l_alpha = None if alpha is None else _fixed_form_energy(
        state, alpha, _alpha_field(ray, alpha))
    return EnergyReport(tau=tau, am=am, am_direct=am_direct, i_val=i_val,
                        j_val=j_val, entropy=entropy, l_alpha=l_alpha,
                        err_estimate=abs(am - am_direct))


def _fixed_form_energy(state: RayState, key, field) -> float:
    """Chen-Tian energy of a fixed form theta at the endpoint,

        E_theta(phi) = sum_{j=0}^{n-1} integral phi theta ^ omega0^j
                       ^ omega_phi^(n-1-j),

    whose s-derivative is n * <phi_dot, theta ^ omega_s^(n-1)>.
    field(tau, x) is theta's dual-Hessian field at the moment-dual point
    xi + tau * grad g of each node, where x are the reference points
    with that u0-gradient.  The j = n-1 term is n! * integral of
    phi * MD(theta, G0) * det H0 over the reference nodes (phi * theta
    * h0 for n = 1), its density cached per Ray under key (a name or
    alpha's polytope); for n = 2 the j = 0 term is n! * integral of
    phi * MD(theta, G_tau) * det H_tau over the transported nodes, read
    from the state's transported frame.
    """
    ray = state.ray
    n = ray.cfg.dim
    fact = math.factorial(n)
    densities = ray.__dict__.setdefault("_density0", {})
    if key not in densities:
        a = field(0.0, ray.grid.points)
        densities[key] = a[:, 0, 0] * ray.h0[:, 0, 0] if n == 1 \
            else mixed_discriminant(a, _inv_small(ray.h0)) \
            * np.exp(_logdet_small(ray.h0))
    energy = fact * ray.grid.integrate(state.phi * densities[key])
    if n == 2:
        energy += fact * ray.grid.integrate(
            state.phi_y * _wedge(state, field(state.tau, state.x)))
    return energy


def _alpha_field(ray: Ray, alpha: Polytope):
    """field(tau, x) of the alpha form for _fixed_form_energy: the
    inverse Hessian of alpha's Guillemin potential where its gradient is
    xi + tau * grad g, one Newton transport into alpha per call."""
    if alpha.dim != ray.cfg.dim:
        raise MissingAlpha(
            "twisting polytope has dimension "
            f"{alpha.dim}, expected {ray.cfg.dim}")
    u_alpha = guillemin_potential(alpha)
    bary = np.array([[float(c) for c in volume_data(alpha).barycenter]])

    def field(tau: float, _x: np.ndarray) -> np.ndarray:
        _, h_alpha = newton_transport(u_alpha, ray.xi + tau * ray.g_grad,
                                      np.tile(bary, (ray.grid.size, 1)))
        return _inv_small(h_alpha)
    return field


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

    Route (a): (1/2) * entropy + n/(n+1) * mu * AM - E_Ric, the half on
    the entropy paired with the halved Ricci convention in which the
    mean scalar curvature is n * mu.  E_Ric is the Chen-Tian endpoint
    energy of the fixed form Ric0 (_fixed_form_energy, as for alpha in
    energy_report); its transported term takes Ric0 at the inverse
    transport x that the entropy uses.  Route (b): the path integral of
    -phi_dot * (S - n mu) against the evolving volume form, on the bulk
    grid.  err_estimate is route (b)'s Simpson error plus the route gap,
    so it also reflects the error of route (a).
    """
    ray = state.ray
    cfg = ray.cfg
    n = cfg.dim
    fact = math.factorial(n)
    tau = state.tau
    mu = float(slope_mu(cfg.base))

    entropy = fact * ray.grid.integrate(state.log_ratio)
    l_ric = _fixed_form_energy(state, "ricci",
                               lambda _tau, x: ricci_reference(ray.u0, x))
    route_a = 0.5 * entropy + (n / (n + 1)) * mu * am_energy(ray, tau) - l_ric

    grid = _curvature_grid(ray)
    gvals = ray.smooth.value(grid.points)

    def integrand(s: float) -> float:
        pot = ShiftedPotential(ray.u0, ray.smooth, float(s))
        s_field = abreu_scalar_curvature(pot, grid.points)
        return fact * grid.integrate(gvals * (s_field - n * mu))

    route_b, err = _path_prefix(ray, integrand, tau)
    if abs(route_a - route_b) > ROUTE_TOL * (1.0 + abs(route_a)):
        raise RouteMismatch(
            f"Mabuchi routes disagree at tau={tau}: explicit {route_a!r} "
            f"vs path {route_b!r}")
    return MabuchiReport(tau=tau, value=route_a, route_a=route_a,
                         route_b=route_b, entropy=entropy, l_ricci=l_ric,
                         err_estimate=err + abs(route_a - route_b))


@dataclass(frozen=True)
class L1Report:
    limit: float
    length: float
    trace: tuple


def l1_norm_path(rungs: list[tuple[float, Ray]]) -> L1Report:
    """Transfinite l1 data of a ray: extrapolated speed and path length.

    rungs are the (tau, Ray) pairs of a ladder.  The l1 speed at tau is
    n! * integral of |phi_dot| against the evolving volume form, which
    in transported coordinates is the plain integral of |g_beta|, so no
    transport runs.  Requires the average-zero normalization (the
    bookkeeping under which the top self-intersection vanishes).
    """
    if not rungs:
        raise NormalizationRequired("l1 path needs at least one rung")
    cfg = rungs[0][1].cfg
    if cfg.normalization != "average_zero":
        raise NormalizationRequired(
            "l1 norms are defined under the average-zero normalization")
    fact = math.factorial(cfg.dim)
    trace = [(tau, fact * ray.grid.integrate(np.abs(ray.g_vals)))
             for tau, ray in sorted(rungs, key=lambda r: r[0])]
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
