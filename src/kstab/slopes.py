"""Limit-slope extrapolation and theorem-level verdicts.

Energy traces converge to their algebraic limits like
``s(tau) = s_inf + transient``.  This module owns the extrapolation
(windowed differences cross-checked by an exponential-decay fit), the
per-theorem verification harness, and the destabilizing-point scan.
The scan runs no ray: the limit of phi_dot at any point of P has a
closed form (invariants.fixed_point_weight), so it is exact throughout.

Verdict conventions
-------------------
Each check runs in the normalization its exact side expects: DF,
MINNORM and JALPHA in ``min_zero``, POINT in ``average_zero``, AM in
whatever normalization the caller supplies (the shift enters the exact
slope, so it is reported rather than removed).  The smoothing schedule
couples beta to tau (beta = beta0 * tau) so the mollification bias of
piecewise-linear rays vanishes in the limit.  Every ladder, affine or
PL, runs on one Ray built for its largest tau, and one pass over that
Ray's grid forms every rung.

Fixed-point probes
------------------
The POINT check probes just inside a vertex, one 1-row forward solve
per tau and no grid.  A probe at relative depth delta sits on a plateau
of phi_dot until tau ~ -log(delta)/2, then drains toward the minimizing
vertex; on the plateau phi_dot equals minus the vertex height of g above
its mean.  The depth delta = exp(-2 (tau_max + 4)) follows the schedule
and keeps the plateau exit beyond the last sample at any tau_max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .analysis import Ray, SmoothedPL, alpha_frame, guillemin_potential
from .errors import (
    InconsistentInput,
    InsufficientSamples,
    MissingAlpha,
    NewtonDivergence,
    NonMonotoneTau,
    NotAVertex,
    NumericalFailure,
)
from .functionals import energy_report, mabuchi
from .invariants import (
    chow_weight,
    donaldson_futaki,
    fixed_point_weight,
    minimum_norm,
    twisted_weights,
)
from .plconfig import ToricTestConfig, normalize
from .polytope import Polytope, frac_json, integrate, volume_data

WINDOW = 4            # trailing intervals feeding the window estimate
MIN_SAMPLES = 6
MIN_TAU_MAX = 8.0
VALUE_MIN_SAMPLES = 4
VALUE_MIN_TAU = 4.0

THEOREMS = ("AM", "DF", "MINNORM", "JALPHA", "POINT")


# -- slope estimation ---------------------------------------------------------


@dataclass(frozen=True)
class SlopeEstimate:
    """Extrapolated tau -> infinity slope (or value) of a trace."""

    value: float
    model: str            # "window_diff" or "exp_fit"
    residual: float
    tau_max: float
    samples_used: int


def _check_taus(taus, min_samples: int, min_tau: float):
    """Refuse a tau ladder the extrapolator cannot use: fewer than
    min_samples taus, taus not strictly increasing, or a largest tau
    below min_tau.  verify_theorem checks its schedule, the estimators
    their traces."""
    if len(taus) < min_samples:
        raise InsufficientSamples(
            f"need at least {min_samples} samples, got {len(taus)}")
    if any(b <= a for a, b in zip(taus, taus[1:])):
        raise NonMonotoneTau("trace tau values must be strictly increasing")
    if taus[-1] < min_tau:
        raise InsufficientSamples(
            f"largest tau is {taus[-1]:g}; need tau_max >= {min_tau:g}")


def _unpack(trace, min_samples: int, min_tau: float):
    """(taus, values) of a trace of (tau, value, ...) rows, after
    _check_taus."""
    taus = [float(r[0]) for r in trace]
    _check_taus(taus, min_samples, min_tau)
    return np.array(taus), np.array([float(r[1]) for r in trace])


def _fit_limit(decay, ys, cross: float, k: int):
    """(value, model, residual) of the fit ys ~ s_inf + c * decay: s_inf
    with its gap to cross as the residual; with nothing to fit (decay
    underflowed) or a non-finite fit, cross itself with the spread of
    the last k ys.  The one limit fit behind both estimators."""
    fitted = math.nan
    if decay.max() >= 1e-280:
        basis = np.column_stack([np.ones_like(decay), decay])
        coeff, *_ = np.linalg.lstsq(basis, ys, rcond=None)
        fitted = float(coeff[0])
    if math.isfinite(fitted):
        return fitted, "exp_fit", abs(cross - fitted)
    return cross, "window_diff", float(np.ptp(ys[-k:]))


def estimate_limit_slope(trace) -> SlopeEstimate:
    """Limit slope of a trace of (tau, value, err) triples.

    The headline number comes from a least-squares fit of the interval
    slopes to s_inf + c exp(-tau), with the decay column averaged over
    each interval so the model is represented exactly on non-uniform
    ladders.  The slope over the last WINDOW intervals cross-checks it
    and their gap is the reported residual.
    """
    taus, values = _unpack(trace, MIN_SAMPLES, MIN_TAU_MAX)
    gaps = np.diff(taus)
    diffs = np.diff(values) / gaps
    k = min(WINDOW, len(diffs))
    window = float((values[-1] - values[-1 - k]) / (taus[-1] - taus[-1 - k]))
    # mean of exp(-tau) over each interval: exact for a + b tau + c e^-tau
    decay = (np.exp(-taus[:-1]) - np.exp(-taus[1:])) / gaps
    return SlopeEstimate(*_fit_limit(decay, diffs, window, k),
                         float(taus[-1]), len(taus))


def estimate_limit_value(trace) -> SlopeEstimate:
    """Limit of an already-differentiated trace (pointwise phi_dot).

    Fixed-point probes live on finite plateaus, so the ladder stops
    earlier than for integrated energies and the exponential fit acts
    on the values themselves; the last sample is the cross-check.
    """
    taus, values = _unpack(trace, VALUE_MIN_SAMPLES, VALUE_MIN_TAU)
    fit = _fit_limit(np.exp(-taus), values, float(values[-1]),
                    min(WINDOW, len(values) - 1))
    return SlopeEstimate(*fit, float(taus[-1]), len(taus))


# -- schedules and verdicts ---------------------------------------------------


@dataclass(frozen=True)
class Schedule:
    """Sampling plan: tau ladder, smoothing coupling, tolerance override."""

    taus: tuple = (1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0)
    beta0: float = 10.0
    tol: Optional[float] = None

    def beta(self, tau: float) -> float:
        return self.beta0 * float(tau)


POINT_SCHEDULE = Schedule(taus=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0))

_NORMALIZATION = {
    "DF": "min_zero",
    "MINNORM": "min_zero",
    "JALPHA": "min_zero",
    "POINT": "average_zero",
}


@dataclass(frozen=True)
class VerdictReport:
    """Outcome of one slope-theorem check.

    trace rows are (tau, value, err); energies rows are
    (tau, am, i_val, j_val, l_alpha) for the downstream sandwich audit
    and the trace CSV (l_alpha is nan outside JALPHA runs).
    """

    theorem: str
    exact: Fraction
    slope: float
    residual: float
    tol: float
    passed: bool
    tier: str
    normalization: str
    trace: tuple
    energies: tuple

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            **frac_json(self.exact),
            "slope": self.slope,
            "residual": self.residual,
            "tol": self.tol,
            "pass": self.passed,
            "tier": self.tier,
            "normalization": self.normalization,
        }


def _tier(cfg: ToricTestConfig) -> str:
    return "affine" if len(cfg.g.pieces) == 1 else "pl"


def _default_tol(theorem: str, tier: str) -> float:
    if tier == "pl":
        return 3e-2
    return 1e-3 if theorem in ("AM", "POINT") else 1e-2


def _exact_value(cfg, theorem, vertex) -> Fraction:
    n = cfg.base.dim
    if theorem == "AM":
        return -math.factorial(n + 1) * integrate(cfg.base, cfg.g)
    if theorem == "DF":
        return donaldson_futaki(cfg)
    if theorem == "MINNORM":
        return minimum_norm(cfg)
    # POINT: the fixed-point phi_dot settles at minus the vertex height
    return -chow_weight(cfg, vertex)


def ladder(cfg: ToricTestConfig, schedule: Schedule, fn,
           alpha: Optional[Polytope] = None) -> list:
    """fn(state) at each rung (tau, beta0 * tau) of the schedule, in
    schedule order, every state (with L_alpha when alpha is given) from
    one pass of Ray.states on one Ray built for the largest tau: smoothed
    at beta0 * tau_max, its grid graded for tau_max.  The Ray refuses a
    base that is not a simplex product before any grid, and Ray.states
    checks the reach of the largest tau before its pass; a NewtonDivergence
    there is re-raised with that tau, one in fn with its rung's tau."""
    taus = [float(t) for t in schedule.taus]
    top = max(taus)
    ray = Ray(cfg, beta=schedule.beta(top), tau_max=top)
    states = _at_tau(top, ray.states, [(t, schedule.beta(t)) for t in taus],
                     alpha)
    return [_at_tau(state.tau, fn, state) for state in states]


def _at_tau(tau: float, fn, *args):
    """fn(*args), a NewtonDivergence it raises re-raised with tau."""
    try:
        return fn(*args)
    except NewtonDivergence as exc:
        raise NewtonDivergence(f"tau={tau:g}: {exc}") from exc


def _energy_row(state, theorem, gamma):
    rep = energy_report(state)
    l_a = float("nan") if rep.l_alpha is None else float(rep.l_alpha)
    battery = (float(rep.am), rep.i_val, rep.j_val, l_a)
    if theorem == "AM":
        value = rep.am
    elif theorem == "MINNORM":
        value = rep.j_val
    elif theorem == "JALPHA":
        n = state.ray.cfg.base.dim
        value = rep.l_alpha - (n / (n + 1.0)) * gamma * rep.am
    else:  # DF
        mab = mabuchi(state)
        return (state.tau, mab.value, mab.err_estimate) + battery
    return (state.tau, float(value), rep.err_estimate) + battery


def _point_trace(cfg, vertex, schedule) -> tuple:
    """(tau, phi_dot, 0.0) per tau at the probe at depth delta inside the
    vertex, toward the barycenter, with no grid; NumericalFailure, before
    any solve, if the probe rounds onto a facet.  A NewtonDivergence of
    a probe solve is re-raised with its tau (_at_tau)."""
    i = cfg.base.vertex_index(vertex)
    vf = np.array([float(c) for c in cfg.base.vertices[i]])
    bary = np.array([float(c) for c in volume_data(cfg.base).barycenter])
    top = float(max(schedule.taus))
    probe = vf + math.exp(-2.0 * (top + 4.0)) * (bary - vf)
    u0 = guillemin_potential(cfg.base)
    if (probe @ u0.normals.T >= u0.offsets).any():  # a float slack of 0
        where = ", ".join(map(str, cfg.base.vertices[i]))
        raise NumericalFailure(
            f"POINT probe at vertex ({where}) rounds onto a facet at "
            f"tau_max={top:g}: its depth exp(-2 (tau_max + 4)) is below "
            "the float spacing there")
    return tuple((t, _at_tau(t, Ray.point_derivative, u0,
                             SmoothedPL.from_fn(cfg.g, schedule.beta(t)),
                             t, probe), 0.0)
                 for t in map(float, schedule.taus))


def verify_theorem(cfg: ToricTestConfig, theorem: str,
                   schedule: Optional[Schedule] = None,
                   alpha: Optional[Polytope] = None,
                   vertex=None) -> VerdictReport:
    """Check one limit-slope identity against its exact invariant.

    Builds the functional trace over the schedule, extrapolates, and
    passes iff |slope - exact| <= tol * (1 + |exact|).  The tolerance
    defaults by theorem and tier (affine rays are certified, PL rays
    are the looser experimental tier) and can be pinned on the
    schedule.  A schedule below the extrapolator's floor, and a JALPHA
    alpha that alpha_frame refuses, are refused before the ladder runs.
    """
    name = str(theorem).upper()
    if name not in THEOREMS:
        raise InconsistentInput(f"unknown theorem {theorem!r}")
    if name == "JALPHA" and alpha is None:
        raise MissingAlpha("JALPHA verdict needs a twisting polytope")
    if name == "POINT" and vertex is None:
        raise NotAVertex("POINT verdict needs a vertex")
    if schedule is None:
        schedule = POINT_SCHEDULE if name == "POINT" else Schedule()
    floor = (VALUE_MIN_SAMPLES, VALUE_MIN_TAU) if name == "POINT" \
        else (MIN_SAMPLES, MIN_TAU_MAX)
    _check_taus(schedule.taus, *floor)
    target = _NORMALIZATION.get(name)
    ncfg = normalize(cfg, target) if target else cfg
    tier = _tier(ncfg)
    tol = schedule.tol if schedule.tol is not None else _default_tol(name, tier)
    if name == "JALPHA":
        alpha_frame(alpha, ncfg.dim)
    # one twisted_weights call gives JALPHA its exact value and its gamma
    gamma, exact, _ = twisted_weights(ncfg, alpha) if name == "JALPHA" \
        else (0.0, _exact_value(ncfg, name, vertex), None)
    if name == "POINT":
        trace = _point_trace(ncfg, vertex, schedule)
        energies = ()
        est = estimate_limit_value(trace)
    else:
        # every energy integrates g over P in float64
        if integrate(ncfg.base, ncfg.g) > np.finfo(float).max:
            raise NumericalFailure(f"{name}: integral of g beyond float64")
        rows = ladder(ncfg, schedule,
                      lambda state: _energy_row(state, name, float(gamma)),
                      alpha if name == "JALPHA" else None)
        trace = tuple(r[:3] for r in rows)
        energies = tuple((r[0],) + r[3:] for r in rows)
        est = estimate_limit_slope(trace)
    if not (math.isfinite(est.value) and math.isfinite(est.residual)):
        raise NumericalFailure(
            f"{name} slope {est.value!r} (residual {est.residual!r}) is "
            "not finite")
    passed = abs(est.value - float(exact)) <= tol * (1.0 + abs(float(exact)))
    return VerdictReport(
        theorem=name, exact=exact, slope=est.value, residual=est.residual,
        tol=tol, passed=passed, tier=tier, trace=trace,
        normalization=target or cfg.normalization, energies=energies)


# -- destabilizer scan --------------------------------------------------------


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
