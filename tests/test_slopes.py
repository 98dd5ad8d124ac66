"""Slope extrapolation and theorem verdicts.

Synthetic traces pin the estimator contract; the verdict tests cross
the full pipeline (transport, quadrature, extrapolation, exact
invariants) on desk-scale configurations.
"""
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import kstab.slopes
from kstab.errors import (
    InconsistentInput,
    InsufficientSamples,
    MissingAlpha,
    NewtonDivergence,
    NonMonotoneTau,
    NotAVertex,
    NumericalFailure,
)
from kstab.invariants import minimum_norm
from kstab.plconfig import make_config, normalize
from kstab.polytope import interval, unit_simplex
from kstab.slopes import (
    Schedule,
    estimate_limit_slope,
    estimate_limit_value,
    ladder,
    scan_destabilizer,
    verify_theorem,
)
from gens import random_config

F = Fraction

AFFINE = make_config(interval(0, 1), [((1,), 0)])
KINK = make_config(interval(0, 1), [((1,), 0), ((-1,), 1)])

TAUS = (1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0)


# -- estimator on synthetic traces --------------------------------------------


def test_estimator_exact_on_linear_trace():
    est = estimate_limit_slope([(t, 3.0 * t + 7.0, 0.0) for t in TAUS])
    assert abs(est.value - 3.0) < 1e-12
    assert est.residual <= 1e-12
    assert est.samples_used == len(TAUS)
    assert est.tau_max == 12.0


def test_estimator_kills_decaying_transient():
    trace = [(t, 5.0 + 2.0 * math.exp(-t), 0.0) for t in np.arange(2.0, 13.0)]
    assert abs(estimate_limit_slope(trace).value) < 1e-6


def test_estimator_recovers_slope_under_large_transient():
    trace = [(t, 0.5 * t + 10.0 * math.exp(-t), 0.0) for t in TAUS]
    est = estimate_limit_slope(trace)
    assert abs(est.value - 0.5) < 1e-4
    assert est.model == "exp_fit"


def test_estimator_falls_back_when_decay_underflows():
    trace = [(t, 2.0 * t, 0.0) for t in np.arange(700.0, 707.0)]
    est = estimate_limit_slope(trace)
    assert est.model == "window_diff"
    assert abs(est.value - 2.0) < 1e-12


def test_estimator_preconditions():
    with pytest.raises(InsufficientSamples):
        estimate_limit_slope([(t, t, 0.0) for t in (1.0, 4.0, 8.0, 10.0, 12.0)])
    with pytest.raises(NonMonotoneTau):
        estimate_limit_slope([(t, t, 0.0)
                              for t in (1.0, 2.0, 2.0, 6.0, 8.0, 10.0)])
    with pytest.raises(InsufficientSamples):
        estimate_limit_slope([(t, t, 0.0)
                              for t in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)])


def test_value_estimator_on_plateau():
    trace = [(t, -0.5 + 7.5e-9 * math.exp(2.0 * t), 0.0)
             for t in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)]
    est = estimate_limit_value(trace)
    assert abs(est.value + 0.5) < 1e-3
    assert est.residual < 1e-2


def test_value_estimator_preconditions():
    with pytest.raises(InsufficientSamples):
        estimate_limit_value([(1.0, 0.0, 0.0), (2.0, 0.0, 0.0),
                              (3.0, 0.0, 0.0)])
    with pytest.raises(NonMonotoneTau):
        estimate_limit_value([(1.0, 0.0, 0.0), (1.0, 0.0, 0.0),
                              (2.0, 0.0, 0.0), (4.0, 0.0, 0.0)])
    with pytest.raises(InsufficientSamples):
        estimate_limit_value([(1.0, 0.0, 0.0), (2.0, 0.0, 0.0),
                              (2.5, 0.0, 0.0), (3.0, 0.0, 0.0)])


# -- theorem verdicts ----------------------------------------------------------


def test_am_verdict_interval_affine():
    rep = verify_theorem(AFFINE, "AM")
    assert rep.exact == F(-1)
    assert rep.passed
    assert abs(rep.slope + 1.0) <= 1e-3
    assert rep.tier == "affine"
    # the AM trace itself is linear through the origin
    for tau, value, _ in rep.trace:
        assert abs(value - rep.trace[-1][1] * tau / rep.trace[-1][0]) < 1e-8


def test_df_verdict_interval_affine_is_zero():
    rep = verify_theorem(AFFINE, "DF")
    assert rep.exact == 0
    assert abs(rep.slope) <= 1e-3
    assert rep.passed
    assert rep.normalization == "min_zero"


def test_minnorm_verdict_interval_affine():
    rep = verify_theorem(AFFINE, "MINNORM")
    assert rep.exact == F(1, 2)
    assert rep.passed
    assert abs(rep.slope - 0.5) <= 1e-2 * 1.5


def test_df_and_minnorm_verdicts_on_kink():
    df = verify_theorem(KINK, "DF")
    assert df.exact == F(1, 2) and df.tier == "pl" and df.passed
    mn = verify_theorem(KINK, "MINNORM")
    assert mn.exact == F(1, 4) and mn.passed
    # PL tier carries the looser tolerance
    assert df.tol == pytest.approx(3e-2)


def test_jalpha_verdict_interval():
    rep = verify_theorem(AFFINE, "JALPHA", alpha=interval(0, 2))
    assert rep.exact == F(1)
    assert rep.passed
    with pytest.raises(MissingAlpha):
        verify_theorem(AFFINE, "JALPHA")


def test_point_verdict_both_vertices():
    hi = verify_theorem(AFFINE, "POINT", vertex=(F(1),))
    lo = verify_theorem(AFFINE, "POINT", vertex=(F(0),))
    assert hi.exact == F(-1, 2) and lo.exact == F(1, 2)
    assert hi.passed and lo.passed
    assert abs(hi.slope - float(hi.exact)) <= 1e-3
    assert abs(lo.slope - float(lo.exact)) <= 1e-3
    assert hi.slope < 0.0 < lo.slope


def test_point_verdict_requires_vertex():
    with pytest.raises(NotAVertex):
        verify_theorem(AFFINE, "POINT")
    with pytest.raises(NotAVertex):
        verify_theorem(AFFINE, "POINT", vertex=(F(1, 2),))


def test_unknown_theorem_rejected():
    with pytest.raises(InconsistentInput):
        verify_theorem(AFFINE, "KE")


def test_non_finite_slope_is_a_numerical_failure():
    # beta0 = 0 makes the smoothed g a 0/0 at every node
    with np.errstate(all="ignore"), pytest.raises(NumericalFailure):
        verify_theorem(AFFINE, "AM", schedule=Schedule(beta0=0.0))


@pytest.mark.parametrize("cfg", [AFFINE, KINK], ids=["affine", "pl"])
def test_ladder_names_the_tau_of_a_newton_divergence(cfg):
    original = NewtonDivergence("Legendre inversion stalled at 1 node(s)")

    def fn(ray, tau):
        if tau == 2.0:
            raise original
        return tau

    with pytest.raises(NewtonDivergence) as err:
        ladder(normalize(cfg, "min_zero"), Schedule(), fn)
    assert str(err.value) == f"tau=2: {original}"
    assert err.value.__cause__ is original


def test_verdict_json_shape():
    rep = verify_theorem(AFFINE, "MINNORM")
    blob = rep.to_json()
    assert blob["exact"] == "1/2"
    assert blob["decimal"] == 0.5
    assert blob["pass"] is True
    assert set(blob) >= {"theorem", "exact", "slope", "residual", "tol",
                         "tier", "normalization"}


def test_verdict_json_renders_integers_plain():
    """An integer exact value reads as report.json renders every other
    rational: "0", not "0/1"."""
    blob = verify_theorem(AFFINE, "DF").to_json()
    assert blob["exact"] == "0"
    assert blob["decimal"] == 0.0


def test_doubling_tau_max_keeps_verdicts_passing():
    wide = Schedule(taus=(2.0, 4.0, 8.0, 12.0, 16.0, 20.0, 24.0))
    assert verify_theorem(AFFINE, "MINNORM", schedule=wide).passed
    assert verify_theorem(KINK, "MINNORM", schedule=wide).passed
    point_wide = Schedule(taus=(2.0, 4.0, 6.0, 8.0, 10.0, 12.0))
    assert verify_theorem(AFFINE, "POINT", vertex=(F(1),),
                          schedule=point_wide).passed


# -- destabilizer scan ---------------------------------------------------------


def test_scan_finds_kink_destabilizer():
    scan = scan_destabilizer(KINK)
    assert scan.destabilizing
    assert scan.best.exact and scan.best.value == F(1, 4)


def test_scan_constant_config_is_clean():
    scan = scan_destabilizer(make_config(interval(0, 1), [((0,), 1)]))
    assert not scan.destabilizing
    assert scan.best.value == 0


def test_scan_matches_minnorm_dichotomy():
    rng = random.Random(7)
    for _ in range(8):
        cfg = random_config(rng, normalized="min_zero")
        scan = scan_destabilizer(cfg)
        assert scan.destabilizing == (minimum_norm(cfg) > 0)


def test_scan_numeric_interior_candidate():
    scan = scan_destabilizer(AFFINE, candidates=[(F(1),), (F(1, 2),)])
    assert scan.best.exact and scan.best.point == (F(1),)
    numeric = [c for c in scan.candidates if not c.exact]
    assert len(numeric) == 1
    # interior orbit drains to the minimizing vertex: height of g there,
    # with the loose tolerance of the exploratory numeric route
    assert numeric[0].value == pytest.approx(-0.5, abs=2e-2)


def test_scan_refuses_short_schedule_before_any_ray(monkeypatch):
    """A probe schedule below the POINT floor is refused before the
    candidate loop builds a Ray for the non-vertex candidate."""
    def no_ray(*args, **kwargs):
        raise AssertionError("scan built a Ray")

    monkeypatch.setattr(kstab.slopes, "Ray", no_ray)
    with pytest.raises(InsufficientSamples, match="got 3"):
        scan_destabilizer(AFFINE, candidates=[(F(1, 2),)],
                          schedule=Schedule(taus=(1.0, 2.0, 3.0)))
