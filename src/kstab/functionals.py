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
normalization in which mean S equals n times the slope, and the Ricci
energy in the Chen-Tian endpoint form
sum_j integral phi Ric0 ^ omega0^j ^ omega_phi^(n-1-j)), and a path
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
    try:
        return rec(lower, upper, f0, fmid, f1, whole, eps, max_depth)
    finally:
        del rec


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
    """x, D2u0 at x, phi, log volume ratio and the omega_tau wedge.

    x is the inverse transport of the grid nodes.  Everything is indexed
    by the grid node in its role as transported coordinate; the plain
    node weights integrate these fields against the evolving volume
    form.  The log volume ratio is log det D2u0(x) - log det H_tau.  For
    n = 2, wedge(a) is MD(a, G_tau) * det H_tau, the density of
    a ^ omega_tau for a dual-Hessian field a given at x; it is None for
    n = 1.
    """
    pts = ray.grid.points
    x = ray.inverse_transport(tau)
    h0_at_x = ray.u0.hessian(x)
    h_tau = ray.hessian_at_nodes(tau)
    logdet_tau = _logdet_small(h_tau)
    xi = ray.xi + tau * ray.g_grad
    phi = ((pts * xi).sum(axis=1) - (ray.u0_vals + tau * ray.g_vals)) \
        - ((x * xi).sum(axis=1) - ray.u0.value(x))
    wedge = None
    if ray.cfg.dim == 2:
        g_tau, det_tau = _inv_small(h_tau), np.exp(logdet_tau)

        def wedge(a_field: np.ndarray) -> np.ndarray:
            return mixed_discriminant(a_field, g_tau) * det_tau
    return x, h0_at_x, phi, _logdet_small(h0_at_x) - logdet_tau, wedge


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

    _, h0_at_x, phi_y, lvr_y, wedge = _transported_pieces(ray, tau)
    a_ref = fact * ray.grid.integrate(state.phi)        # against fixed form
    b_mov = fact * ray.grid.integrate(phi_y)            # against evolving form
    if n == 1:
        am_direct = a_ref + b_mov
    else:
        mixed = wedge(_inv_small(h0_at_x))
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
        x_a, h_a = newton_transport(u_alpha, xi, start.copy())
        warm["pts"] = x_a
        return _phi_dot_pairing(ray, s, _inv_small(h_a))

    key = ("l_alpha",) + tuple(tuple(v) for v in alpha.vertices)
    return _path_prefix(ray, key, integrand, tau)


def _ricci_density0(ray: Ray) -> np.ndarray:
    """Density of Ric0 ^ omega0^(n-1) at the grid nodes, in reference
    coordinates: MD(Ric0, G0) * det H0, which is Ric0 * h0 for n = 1."""
    if not hasattr(ray, "_ricci0"):
        ric0 = ricci_reference(ray.u0, ray.grid.points)
        ray._ricci0 = ric0[:, 0, 0] * ray.h0[:, 0, 0] if ray.cfg.dim == 1 \
            else mixed_discriminant(ric0, ray.g0) * np.exp(ray.logdet0)
    return ray._ricci0


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
    mean scalar curvature is n * mu.  E_Ric is the Chen-Tian Ricci
    energy at the endpoint,

        E_Ric(phi) = sum_{j=0}^{n-1} integral phi Ric0 ^ omega0^j
                     ^ omega_phi^(n-1-j),

    whose s-derivative is n * <phi_dot, Ric0 ^ omega_s^(n-1)>.  The
    j = n-1 term is n! * integral of phi * MD(Ric0, G0) * det H0 over
    the reference nodes (phi * Ric0 * h0 for n = 1); for n = 2 the j = 0
    term is n! * integral of phi * MD(Ric0(x), G_tau) * det H_tau over
    the transported nodes, at the inverse transport x that the entropy
    uses.  Route (b): the path integral of -phi_dot * (S - n mu)
    against the evolving volume form, on the bulk grid.  err_estimate
    is route (b)'s Simpson error plus the route gap, so it also reflects
    the error of route (a).
    """
    ray = state.ray
    cfg = ray.cfg
    n = cfg.dim
    fact = math.factorial(n)
    tau = state.tau
    mu = float(slope_mu(cfg.base))

    x, _, phi_y, lvr_y, wedge = _transported_pieces(ray, tau)
    entropy = fact * ray.grid.integrate(lvr_y)
    l_ric = fact * ray.grid.integrate(state.phi * _ricci_density0(ray))
    if n == 2:
        l_ric += fact * ray.grid.integrate(
            phi_y * wedge(ricci_reference(ray.u0, x)))
    route_a = 0.5 * entropy + (n / (n + 1)) * mu * am_energy(ray, tau) - l_ric

    grid = _curvature_grid(ray)
    gvals = ray.smooth.value(grid.points)

    def integrand(s: float) -> float:
        pot = ShiftedPotential(ray.u0, ray.smooth, float(s))
        s_field = abreu_scalar_curvature(pot, grid.points)
        return fact * grid.integrate(gvals * (s_field - n * mu))

    route_b, err = _path_prefix(ray, "curvature_pairing", integrand, tau)
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
