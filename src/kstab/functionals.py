"""Energy functionals along degeneration rays.

Conventions.  With the wedge dictionary for invariant forms, an
integral of a function h against eta_1 ^ ... ^ eta_n equals
n! * integral over the moment polytope of h times the mixed
discriminant of the dual Hessians, in whichever moment coordinates the
measure is written.  Every integral is taken in the transported
coordinates y of the ray state, where the pulled-back evolving form is
the plain measure and the fixed form is dx = e^(-log_ratio) dy, and
every integrand is bounded and slack-stable: in reference coordinates
the mass of entropy-type integrands concentrates in an exp(-2 tau)
collar that float64 cannot resolve near facets.

A ray state holds integrals, not fields: Ray.states sums every density
of every rung of a ladder, L_alpha too when an alpha is given, in one
pass over the grid's blocks, so the functionals here combine floats and
run no pass.

The Aubin functionals are wired so that the n = 1 identity I = 2J holds
exactly in floating point (I and J are assembled from the same sums).
The energies of a fixed form theta, the Ricci energy (theta = Ric0) and
the twisted energy L_alpha (theta = alpha), share one Chen-Tian endpoint
form, sum_j integral phi theta ^ omega0^j ^ omega_phi^(n-1-j), so no
path in s is integrated for them.  The Mabuchi functional is computed
by two genuinely different endpoint routes: the Chen-Tian formula
through the transport (entropy + slope term - Ricci energy, with the
entropy coefficient matching the curvature normalization in which mean
S equals n times the slope) and Donaldson's toric formula, which needs
no transport.  Disagreement beyond tolerance raises RouteMismatch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .analysis import RayState, crease_ladder_depth, line_grid
from .errors import NormalizationRequired, RouteMismatch
from .invariants import l1_norm, slope_mu
from .polytope import dot, volume_data

PATH_REL_TOL = 1e-7
PATH_MAX_DEPTH = 26
ROUTE_TOL = 1e-4


# ---------------------------------------------------------------------------
# path quadrature


def adaptive_simpson(f, upper: float, lower: float = 0.0):
    """Locally adaptive Simpson on [lower, upper].

    Returns (value, error_estimate) with the estimate accumulated from
    the per-panel refinement differences.  The error budget is
    PATH_REL_TOL times the pilot value, halved at each bisection, and
    bisection stops after PATH_MAX_DEPTH levels.  The recursive `rec`
    closes over itself; the cell is cleared on return so that the
    integrand is freed by reference counting, not left in a cycle.  No
    functional integrates a path in s any more: the tests use this as
    their path reference, and perfbench/tracer.py hooks it by name, so
    it stays here until that hook is retired.
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


# ---------------------------------------------------------------------------
# per-ray evaluation helpers


def am_energy(state: RayState) -> float:
    """Aubin-Mabuchi energy: its s-derivative is constant along the ray."""
    return -math.factorial(state.ray.cfg.dim + 1) * state.g_integral \
        * state.tau


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


def energy_report(state: RayState) -> EnergyReport:
    """Aubin energies of one ray state; l_alpha when the state has it.

    Endpoint values equal the integrated path forms by the fundamental
    theorem of calculus; evaluating at the endpoint in transported
    coordinates avoids stacking s-quadrature error and makes the n = 1
    identity I = 2J hold exactly in floating point (j_val is assembled
    as i_val / 2 there, which agrees with the defining combination to
    one rounding).  Every term is read from the state's integrals,
    l_alpha (the Chen-Tian endpoint energy of the fixed form alpha) too.
    err_estimate is the am / am_direct gap, a path-vs-endpoint check.
    """
    n, am = state.ray.cfg.dim, am_energy(state)
    # against the fixed form (dx = e^(-log_ratio) dy) and the evolving one
    a_ref, b_mov = state.a_ref, state.b_mov
    am_direct = a_ref + b_mov + state.mixed  # mixed is 0.0 for n = 1
    i_val = a_ref - b_mov
    j_val = 0.5 * i_val if n == 1 else a_ref - am_direct / (n + 1)
    return EnergyReport(tau=state.tau, am=am, am_direct=am_direct,
                        i_val=i_val, j_val=j_val, entropy=state.entropy,
                        l_alpha=state.l_alpha,
                        err_estimate=abs(am - am_direct))


@dataclass(frozen=True)
class MabuchiReport:
    tau: float
    value: float
    route_a: float
    route_b: float
    entropy: float
    l_ricci: float
    err_estimate: float


def _edge_rules(g, facet, ends, depth):
    """(start, step, rules at depth and depth - 2) of _facet_mean."""
    p, d = ends[0], [b - a for a, b in zip(*ends)]
    cuts = sorted({dot([x - a for x, a in zip(v, p)], d) / dot(d, d)
                   for cell in g.regions() for v in cell.vertices
                   if facet.slack(v) == 0})
    return (*(np.array(c, dtype=float) for c in (p, d)),
            [[line_grid(a, b, (None, None), k) for a, b in zip(cuts, cuts[1:])]
             for k in (depth, depth - 2)])


def _facet_mean(state: RayState, facet, ends):
    """Mean of the state's g_beta over the facet with vertices ends, and
    an error estimate: the vertex value in 1D; in 2D Gauss panels on the
    edge's [0, 1] parameter, cut at every cell vertex of g on it, each
    stretch graded toward both ends as a crease end of line_grid (corners
    too), and its change on the panels graded two crease levels less;
    the cuts and rules are built once per Ray and crease depth."""
    smooth = replace(state.ray.smooth, beta=state.beta)
    if len(ends) == 1:
        return float(smooth.value(np.array(ends, dtype=float))[0]), 0.0
    depth = crease_ladder_depth(smooth.beta, 1.0)
    tau_free, key = state.ray.route_b, (facet, depth)  # kept on the Ray
    start, step, rules = tau_free.get(key) or tau_free.setdefault(
        key, _edge_rules(state.ray.cfg.g, facet, ends, depth))
    fine, coarse = (
        sum(rule.integrate(smooth.value(start + rule.points * step))
            for rule in level) for level in rules)
    return fine, abs(fine - coarse)


def _route_b(state: RayState):
    """Route (b) of mabuchi at the state's tau and its error estimate:
    Donaldson's toric Mabuchi functional (Donaldson 2002, section 3),

        n! * [tau * L(g_beta) - 1/2 integral_P log det(I + tau H0^-1 D2g_beta)],
        L(f) = integral_dP f dsigma - a integral_P f,  a = sigma(dP) / vol P,

    the s-integral of n! * integral_P g_beta (S_s - n mu) in closed form.
    The log-det in this form tends to 0 where H0 blows up at the facets;
    a difference of two log-dets would cancel there; its integral is
    the state's log_det, as the integral of g_beta is its g_integral.  L
    sums sigma_F times _facet_mean over the facets, as does the estimate.
    """
    tau, base = state.tau, state.ray.cfg.base
    vd = volume_data(base)
    boundary = miss = 0.0
    for facet, fv, sigma in zip(base.halfspaces, base.facet_vertices,
                                vd.per_facet_sigma):
        mean, err = _facet_mean(state, facet, [base.vertices[i] for i in fv])
        boundary += float(sigma) * mean
        miss += float(sigma) * err
    l_g = boundary - float(vd.boundary_sigma_volume / vd.volume) \
        * state.g_integral
    fact = math.factorial(base.dim)
    return fact * (tau * l_g - 0.5 * state.log_det), fact * tau * miss


def mabuchi(state: RayState) -> MabuchiReport:
    """Mabuchi energy by two endpoint routes, checked against each other.

    Route (a), the Chen-Tian formula through the transport:
    (1/2) * entropy + n/(n+1) * mu * AM - E_Ric, the half on the entropy
    paired with the halved Ricci convention in which the mean scalar
    curvature is n * mu.  E_Ric, the state's, is the Chen-Tian endpoint
    energy of the fixed form Ric0 at the inverse transport x that the
    entropy uses (its pair weights, SimplexProduct).  Route (b), _route_b,
    shares with it the grid, u0, g_beta and the state's integral of
    log det(I + tau D2u0^-1 D2g_beta), which both weigh alike.
    err_estimate is the route gap plus route (b)'s edge-quadrature
    estimate (0 in 1D).
    """
    ray, tau = state.ray, state.tau
    n = ray.cfg.dim
    mu = ray.route_b.get("mu") or ray.route_b.setdefault(
        "mu", float(slope_mu(ray.cfg.base)))

    route_a = 0.5 * state.entropy + (n / (n + 1)) * mu * am_energy(state) \
        - state.l_ricci
    route_b, err = _route_b(state)
    # written with <=, which a NaN route fails
    if not abs(route_a - route_b) <= ROUTE_TOL * (1.0 + abs(route_a)):
        raise RouteMismatch(
            f"Mabuchi routes disagree at tau={tau}: Chen-Tian {route_a!r} "
            f"vs toric {route_b!r}")
    return MabuchiReport(tau=tau, value=route_a, route_a=route_a,
                         route_b=route_b, entropy=state.entropy,
                         l_ricci=state.l_ricci,
                         err_estimate=err + abs(route_a - route_b))


@dataclass(frozen=True)
class L1Report:
    limit: Fraction
    length: float
    trace: tuple


def l1_norm_path(cfg, taus) -> L1Report:
    """Transfinite l1 data of the ray over taus, in closed form: its l1
    speed, n! * integral |phi_dot| against the evolving volume form, is
    invariants.l1_norm at every tau.  cfg must be in the average-zero
    normalization (under which the top self-intersection vanishes)."""
    taus = sorted(float(t) for t in taus)
    if not taus:
        raise NormalizationRequired("l1 path needs at least one tau")
    if cfg.normalization != "average_zero":
        raise NormalizationRequired(
            "l1 norms are defined under the average-zero normalization")
    limit = l1_norm(cfg)
    return L1Report(limit=limit, length=float(limit) * (taus[-1] - taus[0]),
                    trace=tuple((t, limit) for t in taus))
