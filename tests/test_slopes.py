"""Slope extrapolation and theorem verdicts.

Synthetic traces pin the estimator contract; the verdict tests cross
the full pipeline (transport, quadrature, extrapolation, exact
invariants) on desk-scale configurations.
"""
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

import kstab.analysis
import kstab.slopes
from kstab.cli import _verdict_json
from kstab.errors import (
    DomainMismatch,
    InconsistentInput,
    InsufficientSamples,
    MissingAlpha,
    NewtonDivergence,
    NonDelzant,
    NonMonotoneTau,
    NotAVertex,
    NumericalFailure,
    ValidationError,
)
from kstab.functionals import mabuchi
from kstab.invariants import (chow_weight, minimum_norm, scan_destabilizer,
                               twisted_weights)
from kstab.plconfig import make_config
from kstab.polytope import box, construct, corner_chop, interval, unit_simplex
from kstab.slopes import (
    Schedule,
    estimate_limit_slope,
    estimate_limit_value,
    verify_theorem,
)
from gens import PL_2D, random_config, same_bits

F = Fraction

AFFINE = make_config(interval(0, 1), [((1,), 0)])
KINK = make_config(interval(0, 1), [((1,), 0), ((-1,), 1)])
SQUARE_X1 = make_config(box(2), [((1, 0), 0)])
SQUARE_MAX = make_config(box(2), [((1, 0), 0), ((0, 1), 0)])
SIMPLEX_X1 = make_config(unit_simplex(2), [((1, 0), 0)])
# no simplex products, g = max(x1, x2)
CHOPPED_MAX = make_config(corner_chop(box(2), (1, 1), F(1, 4)),
                          [((1, 0), 0), ((0, 1), 0)])
HIRZEBRUCH_MAX = make_config(
    construct(vertices=[(0, 0), (2, 0), (1, 1), (0, 1)]),
    [((1, 0), 0), ((0, 1), 0)])

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


def test_value_estimator_falls_back_when_decay_underflows():
    """Past tau ~ 644 exp(-tau) leaves nothing to fit: the last value is
    reported, with the spread of the last four as residual."""
    trace = [(t, 1.0 + 1e-3 * (t - 700.0), 0.0)
             for t in (700.0, 701.0, 702.0, 703.0, 704.0)]
    est = estimate_limit_value(trace)
    assert est.model == "window_diff"
    assert est.value == trace[-1][1]
    assert est.residual == pytest.approx(3e-3, rel=1e-9)


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


def test_2d_affine_verdicts_on_simplex_products():
    """The closed-form transport carries the 2D affine verdicts, with no
    RuntimeWarning (an error in this suite): the square DF slope is
    within 1e-8 of 0, and the simplex MINNORM and DF verdicts run every
    rung and pass.  Newton diverged at tau = 4 on the simplex."""
    square = verify_theorem(SQUARE_X1, "DF")
    assert square.passed and square.exact == 0
    assert abs(square.slope) <= 1e-8
    minnorm = verify_theorem(SIMPLEX_X1, "MINNORM")
    assert minnorm.passed and len(minnorm.trace) == len(TAUS)
    assert abs(minnorm.slope - float(minnorm.exact)) <= 2e-3
    df = verify_theorem(SIMPLEX_X1, "DF")
    assert df.passed and df.exact == 0 and len(df.trace) == len(TAUS)
    assert abs(df.slope) <= 1e-6


def test_jalpha_verdict_interval():
    rep = verify_theorem(AFFINE, "JALPHA", alpha=interval(0, 2))
    assert rep.exact == F(1)
    assert rep.passed
    with pytest.raises(MissingAlpha):
        verify_theorem(AFFINE, "JALPHA")


def test_jalpha_verdict_computes_twisted_weights_once(monkeypatch):
    """One twisted_weights call gives the exact value and gamma."""
    calls = []

    def counted(cfg, alpha):
        calls.append(alpha)
        return twisted_weights(cfg, alpha)

    monkeypatch.setattr(kstab.slopes, "twisted_weights", counted)
    assert verify_theorem(AFFINE, "JALPHA", alpha=interval(0, 2)).passed
    assert len(calls) == 1


def test_point_verdict_both_vertices():
    hi = verify_theorem(AFFINE, "POINT", vertex=(F(1),))
    lo = verify_theorem(AFFINE, "POINT", vertex=(F(0),))
    assert hi.exact == F(-1, 2) and lo.exact == F(1, 2)
    assert hi.passed and lo.passed
    assert abs(hi.slope - float(hi.exact)) <= 1e-3
    assert abs(lo.slope - float(lo.exact)) <= 1e-3
    assert hi.slope < 0.0 < lo.slope


@pytest.mark.parametrize("base,vertex,taus", [
    (interval(0, 1), (F(1),), tuple(range(1, 16))),
    (box(2), (0, 1), (4, 8, 12, 16)),
], ids=["interval-15", "square-16"])
def test_point_probe_on_a_facet_is_refused(monkeypatch, base, vertex, taus):
    """At these tau_max the probe depth exp(-2 (tau_max + 4)) rounds the
    probe onto a facet: refused before any Ray is built."""
    def refuse(*args, **kwargs):
        raise AssertionError("a Ray was built")

    monkeypatch.setattr(kstab.slopes, "Ray", refuse)
    cfg = make_config(base, [((1,) + (0,) * (base.dim - 1), 0)])
    schedule = Schedule(taus=tuple(float(t) for t in taus))
    with pytest.raises(NumericalFailure) as err:
        verify_theorem(cfg, "POINT", schedule=schedule, vertex=vertex)
    where = ", ".join(str(c) for c in vertex)
    assert f"vertex ({where})" in str(err.value)
    assert f"tau_max={taus[-1]}" in str(err.value)


def test_point_probe_keeps_its_slack_at_tau_max_14():
    schedule = Schedule(taus=tuple(float(t) for t in range(1, 15)))
    assert verify_theorem(AFFINE, "POINT", schedule=schedule,
                          vertex=(F(1),)).passed


@pytest.mark.parametrize("cfg, vertex, slope", [
    (AFFINE, (0,), 0.5000000000101334),
    (AFFINE, (1,), -0.4999502121964334),
    (KINK, (0,), -0.24994978203565127),
    (KINK, (1,), -0.24994978203396717),
    (SQUARE_MAX, (0, 1), -0.3332831153673943),
    (SIMPLEX_X1, (1, 0), -0.6666002862099114),
], ids=["affine-0", "affine-1", "kink-0", "kink-1", "square-max",
        "simplex-x1"])
def test_point_verdict_builds_no_grid(monkeypatch, cfg, vertex, slope):
    """A POINT rung is one 1-row forward solve from the probe: no grid
    and no Ray instance.  Each slope keeps the bits it had when every
    rung built a Ray and its grid."""
    def refuse(*args, **kwargs):
        raise AssertionError("a grid or a Ray was built")

    monkeypatch.setattr(kstab.analysis, "build_grid", refuse)
    monkeypatch.setattr(kstab.analysis.Ray, "__init__", refuse)
    rep = verify_theorem(cfg, "POINT", vertex=vertex)
    assert rep.passed
    assert rep.slope == slope


@pytest.mark.parametrize("theorem", ["AM", "DF", "MINNORM", "JALPHA"])
@pytest.mark.parametrize("cfg", [CHOPPED_MAX, HIRZEBRUCH_MAX],
                         ids=["chopped", "hirzebruch"])
def test_grid_verdict_off_a_simplex_product_builds_no_grid(monkeypatch, cfg,
                                                           theorem):
    """A corner chop and a Hirzebruch trapezoid get no grid verdict: the
    ladder's first Ray raises NumericalFailure before a grid is built."""
    def refuse(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(kstab.analysis, "build_grid", refuse)
    with pytest.raises(NumericalFailure, match="simplex-product base"):
        verify_theorem(cfg, theorem, alpha=box(2))


@pytest.mark.parametrize("alpha,error,match", [
    (CHOPPED_MAX.base, NumericalFailure,
     "simplex-product alpha .* has 5 facets"),
    (HIRZEBRUCH_MAX.base, NumericalFailure,
     "simplex-product alpha .* has 4 facets"),
    (construct(vertices=[(0, 0), (2, 0), (0, 1)]), NonDelzant, "not Delzant"),
], ids=["chopped", "hirzebruch", "non-delzant"])
@pytest.mark.parametrize("cfg", [SQUARE_X1, SIMPLEX_X1, SQUARE_MAX],
                         ids=["square-x1", "simplex-x1", "square-max"])
def test_jalpha_off_a_simplex_product_alpha_builds_no_grid(monkeypatch, cfg,
                                                           alpha, error,
                                                           match):
    """JALPHA refuses an alpha that is not a simplex product with
    NumericalFailure naming its facet count, and a non-Delzant alpha
    with NonDelzant, before any grid is built.  A Newton transport into
    a chop or a Hirzebruch trapezoid raised NewtonDivergence at tau = 2
    to 8 on every ray tried, after 0.9-3.6 s."""
    built = []

    def refuse(*args, **kwargs):
        built.append(args)
        raise AssertionError("a grid was built")

    monkeypatch.setattr(kstab.analysis, "build_grid", refuse)
    start = time.perf_counter()
    with pytest.raises(error, match=match):
        verify_theorem(cfg, "JALPHA", alpha=alpha)
    assert time.perf_counter() - start < 0.05
    assert built == []


@pytest.mark.parametrize("cfg, vertex, exact", [
    (CHOPPED_MAX, (F(3, 4), 1), F(-85, 248)),
    (HIRZEBRUCH_MAX, (2, 0), F(-10, 9)),
], ids=["chopped", "hirzebruch"])
def test_point_verdict_off_a_simplex_product_passes(cfg, vertex, exact):
    rep = verify_theorem(cfg, "POINT", vertex=vertex)
    assert rep.exact == exact
    assert rep.passed


def test_point_verdict_requires_vertex():
    with pytest.raises(NotAVertex):
        verify_theorem(AFFINE, "POINT")
    with pytest.raises(NotAVertex):
        verify_theorem(AFFINE, "POINT", vertex=(F(1, 2),))


def test_unknown_theorem_rejected():
    with pytest.raises(InconsistentInput):
        verify_theorem(AFFINE, "KE")


def test_non_finite_slope_is_a_numerical_failure():
    # on [0, 10**154] the integral of g = x fits float64, but the AM
    # trace overflows it: its slope is nan
    huge = make_config(interval(0, 10**154), [((1,), 0)])
    with np.errstate(all="ignore"), pytest.raises(NumericalFailure,
                                                  match="not finite"):
        verify_theorem(huge, "AM")


TAIL = (4.0, 6.0, 8.0, 10.0, 12.0)


@pytest.mark.parametrize("fields,error", [
    ({"beta0": 0.0}, InconsistentInput),
    ({"beta0": -10.0}, InconsistentInput),
    ({"beta0": math.nan}, InconsistentInput),
    ({"beta0": math.inf}, InconsistentInput),
    ({"tol": 0.0}, InconsistentInput),
    ({"tol": -1e-3}, InconsistentInput),
    ({"tol": math.nan}, InconsistentInput),
    ({"taus": ()}, InsufficientSamples),
    ({"taus": (1.0, 2.0, 2.0) + TAIL}, NonMonotoneTau),
    ({"taus": (-1.0, 2.0) + TAIL}, InconsistentInput),
    ({"taus": (1.0, 2.0) + TAIL + (math.inf,)}, InconsistentInput),
], ids=["beta0-0", "beta0-neg", "beta0-nan", "beta0-inf", "tol-0",
        "tol-neg", "tol-nan", "taus-empty", "taus-repeat", "taus-neg",
        "taus-inf"])
def test_a_bad_schedule_is_refused_when_built(monkeypatch, fields, error):
    """Schedule is the one check of a ladder, for the API as for kstab
    run: a beta0 or tol that is not finite and positive, and empty,
    unordered, non-positive or infinite taus raise a ValidationError
    subclass at Schedule(...), so no verdict builds a Ray on them (at
    beta0 = -10 the kink's AM slope read -0.5002 against -1.5)."""
    def refuse(*args, **kwargs):
        raise AssertionError("a Ray was built")

    monkeypatch.setattr(kstab.slopes, "Ray", refuse)
    with pytest.raises(error) as err:
        verify_theorem(KINK, "AM", Schedule(**fields))
    assert issubclass(err.type, ValidationError)
    assert err.type is error


@pytest.mark.parametrize("cfg,theorem", [(SQUARE_MAX, "DF"),
                                         (SQUARE_X1, "JALPHA")],
                         ids=["pl-df", "affine-jalpha"])
def test_a_verdict_builds_one_grid_and_one_block_pass(monkeypatch, cfg,
                                                       theorem):
    """A grid verdict builds one grid and forms the tau-free fields of
    each of its blocks once for the whole ladder: every rung, L_alpha
    included, reads them in the same pass, and no rung forms its fields
    twice: every _rung call is counted."""
    Ray = kstab.analysis.Ray
    grids, blocks, rungs = [], [], []
    build_grid, block, rung = kstab.analysis.build_grid, Ray._block, Ray._rung

    def counted_grid(*args, **kwargs):
        grids.append(build_grid(*args, **kwargs))
        return grids[-1]

    def counted_block(self, pts, pairing):
        blocks.append(pts)
        return block(self, pts, pairing)

    def counted_rung(self, b, tau, smooth):
        rungs.append(tau)
        return rung(self, b, tau, smooth)

    monkeypatch.setattr(kstab.analysis, "build_grid", counted_grid)
    monkeypatch.setattr(Ray, "_block", counted_block)
    monkeypatch.setattr(Ray, "_rung", counted_rung)
    assert verify_theorem(cfg, theorem, alpha=box(2)).passed
    [grid] = grids
    windows = [pts for pts, _ in grid.blocks()]
    assert len(blocks) == len(windows) > 1
    assert all(map(same_bits, blocks, windows))
    assert rungs == list(TAUS) * len(blocks)


def test_point_probe_stall_names_its_tau():
    """With g = 1000 x the probe inside the vertex 1 asks, at tau = 1, for
    a slack near e^-1980, below the float range: the stalled 1-row solve
    names its tau and blames no grid, since the probe builds none."""
    cfg = make_config(interval(0, 1), [((1000,), 0)])
    with pytest.raises(NewtonDivergence) as err:
        verify_theorem(cfg, "POINT", vertex=(1,))
    msg = str(err.value)
    assert msg.startswith("tau=1: Legendre inversion stalled"), msg
    assert "grid" not in msg
    assert isinstance(err.value.__cause__, NewtonDivergence)


def test_verdict_json_shape():
    rep = verify_theorem(AFFINE, "MINNORM")
    blob = _verdict_json(rep)
    assert blob["exact"] == "1/2"
    assert blob["decimal"] == 0.5
    assert blob["pass"] is True
    assert set(blob) >= {"theorem", "exact", "slope", "residual", "tol",
                         "tier", "normalization"}


def test_verdict_json_renders_integers_plain():
    """An integer exact value reads as report.json renders every other
    rational: "0", not "0/1"."""
    blob = _verdict_json(verify_theorem(AFFINE, "DF"))
    assert blob["exact"] == "0"
    assert blob["decimal"] == 0.0


def test_doubling_tau_max_keeps_verdicts_passing():
    wide = Schedule(taus=(2.0, 4.0, 8.0, 12.0, 16.0, 20.0, 24.0))
    assert verify_theorem(AFFINE, "MINNORM", schedule=wide).passed
    assert verify_theorem(KINK, "MINNORM", schedule=wide).passed
    point_wide = Schedule(taus=(2.0, 4.0, 6.0, 8.0, 10.0, 12.0))
    assert verify_theorem(AFFINE, "POINT", vertex=(F(1),),
                          schedule=point_wide).passed


@pytest.mark.parametrize("cfg", PL_2D.values(), ids=PL_2D.keys())
def test_2d_pl_verdicts_pass_with_the_routes_agreeing(monkeypatch, cfg):
    """On grids built on the cells of g, the two Mabuchi routes of every
    rung of a 2D PL DF ladder agree to 1e-5 (1 + |M|), and the DF and
    MINNORM verdicts pass.  A fan over P that ignored the creases left
    the routes 1e-2 apart at tau = 6 on the square with max(x1, x2), and
    the simplex MINNORM 8.8e-2 off its exact 1/2."""
    reports = []

    def recording(state):
        reports.append(mabuchi(state))
        return reports[-1]

    monkeypatch.setattr(kstab.slopes, "mabuchi", recording)
    df = verify_theorem(cfg, "DF")
    assert [r.tau for r in reports] == list(TAUS)
    for r in reports:
        assert abs(r.route_a - r.route_b) <= 1e-5 * (1.0 + abs(r.value))
    assert df.passed
    assert verify_theorem(cfg, "MINNORM").passed


# -- destabilizer scan ---------------------------------------------------------


def test_scan_finds_kink_destabilizer():
    scan = scan_destabilizer(KINK)
    assert scan.destabilizing
    assert isinstance(scan.best.value, Fraction)
    assert scan.best.value == F(1, 4)


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
    assert scan.best.point == (F(1),)
    # interior orbit drains to the minimizing vertex: height of g there
    assert scan.candidates[1].value == F(-1, 2)



@pytest.mark.parametrize("cfg, point, weight", [
    (AFFINE, (F(1, 2),), F(-1, 2)),
    (AFFINE, (F(7, 8),), F(-1, 2)),
    (KINK, (F(1, 2),), F(-1, 4)),
    (SQUARE_X1, (F(1, 2), 0), F(-1, 2)),
    (SQUARE_MAX, (F(1, 2), 0), F(-2, 3)),
    (SIMPLEX_X1, (F(1, 2), F(1, 2)), F(-1, 3)),
    (SIMPLEX_X1, (F(1, 4), F(1, 4)), F(-1, 3)),
], ids=["interval-mid", "interval-7/8", "kink-mid", "square-facet",
        "square-max-facet", "simplex-hypotenuse", "simplex-interior"])
def test_scan_scores_every_point_by_its_face_minimum(cfg, point, weight):
    """Off a vertex the weight is min of g on the smallest face holding
    the point, minus the mean of g: (1/2, 0) on the square sits on the
    facet x2 = 0, (1/2, 1/2) on the simplex on its hypotenuse."""
    scan = scan_destabilizer(cfg, candidates=[point])
    assert scan.best.value == weight
    assert isinstance(scan.best.value, Fraction)
    assert not scan.destabilizing


@pytest.mark.parametrize("point", [(2, 2), (F(1, 2),), (0, 0, 0)],
                         ids=["outside", "short", "long"])
def test_scan_refuses_a_point_off_the_polytope(point):
    with pytest.raises(DomainMismatch):
        scan_destabilizer(SQUARE_X1, candidates=[(0, 0), point])


def test_scan_runs_no_ray(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scan ran the numeric route")

    monkeypatch.setattr(kstab.slopes, "Ray", refuse)
    monkeypatch.setattr(kstab.analysis, "newton_transport", refuse)
    scan = scan_destabilizer(SQUARE_MAX, candidates=[
        (F(1, 2), F(1, 2)), (F(1, 2), 0), (1, F(1, 3)), (1, 1)])
    assert [c.value for c in scan.candidates] == [
        F(-2, 3), F(-2, 3), F(1, 3), F(1, 3)]
    assert scan.best.point == (1, F(1, 3)) and scan.destabilizing


def test_scan_refuses_an_empty_candidate_list():
    with pytest.raises(InsufficientSamples):
        scan_destabilizer(KINK, [])


def test_scan_vertex_weights_are_chow_weights():
    rng = random.Random(11)
    for _ in range(12):
        cfg = random_config(rng)
        scan = scan_destabilizer(cfg)
        assert [c.point for c in scan.candidates] == list(cfg.base.vertices)
        for c in scan.candidates:
            assert c.value == chow_weight(cfg, c.point)
            assert c.value == cfg.g(c.point) - cfg.g.average()