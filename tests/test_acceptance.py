"""Acceptance battery: twelve gates, one test (one pass/fail line) each.

Every gate pins its tolerance and runtime budget in the body.  Exact
oracles are Fractions obtained by an independent route (boundary
formula, mixed volumes, Chow weights); numeric gates go through the
public verdict API.  Criteria 4-6 feed the shared energy registry that
criterion 7 audits; running criterion 7 on its own rebuilds a
representative subset so each test stays runnable standalone.
"""
import math
import random
import time
from fractions import Fraction

import numpy as np

from gens import (flat, integral, nodes, random_config, random_fraction,
                  random_pl, scaled)
from kstab.analysis import (KAPPA, abreu_scalar_curvature, bulk_grid,
                            guillemin_potential)
from kstab.invariants import (
    blowup_expansion,
    calibration_constant,
    chow_weight,
    donaldson_futaki,
    invariant_report,
    minimum_norm,
    minimum_norm_mixed,
    scan_destabilizer,
    twisted_weights,
)
from kstab.plconfig import make_config, normalize
from kstab.polytope import box, integrate, interval, unit_simplex, volume_data
from kstab.slopes import verify_theorem

F = Fraction

INT_AFF = make_config(interval(0, 1), [((F(1),), F(0))])
INT_KINK = make_config(interval(0, 1), [((F(1),), F(0)), ((F(-1),), F(1))])
SQ_AFF = make_config(box(2), [((F(1), F(0)), F(0))])

# (dim, tau, i_val, j_val) rows accumulated by criteria 4-6 and audited
# by criterion 7.
ENERGY_ROWS = []


def _register(dim, verdict):
    for row in verdict.energies:
        ENERGY_ROWS.append((dim, row[0], row[2], row[3]))


def test_criterion_01_exact_df_regression():
    """Roof and hockey-stick rays share DF = C1/2, both invariant routes."""
    t0 = time.perf_counter()
    c1 = calibration_constant(1)
    assert c1 == 1
    roof = normalize(INT_KINK, "min_zero")
    hockey = normalize(
        make_config(interval(0, 1), [((F(0),), F(0)), ((F(2),), F(-1))]),
        "min_zero")
    assert donaldson_futaki(roof) == donaldson_futaki(hockey) == c1 / 2
    for cfg in (roof, hockey):
        rep = invariant_report(cfg)
        assert rep.provenance["df"] == "both_agree"
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_normalization_invariance():
    """DF and minimum norm ignore g -> g + c: the two normal forms of the
    shifted and unshifted data carry identical exact invariants."""
    t0 = time.perf_counter()
    rng = random.Random(20260815)
    bases = (interval(0, 1), box(2), unit_simplex(2))
    for k in range(100):
        base = bases[k % 3]
        g = random_pl(rng, base)
        c = random_fraction(rng)
        a = normalize(make_config(base, g), "min_zero")
        b = normalize(make_config(base, g.shifted(c)), "average_zero")
        assert donaldson_futaki(a) == donaldson_futaki(b)
        assert minimum_norm(a) == minimum_norm(b)
    assert time.perf_counter() - t0 < 10.0


def test_criterion_03_homogeneity_and_nonnegativity():
    t0 = time.perf_counter()
    rng = random.Random(3)
    for _ in range(24):
        cfg = random_config(rng, normalized="min_zero")
        df, mn = donaldson_futaki(cfg), minimum_norm(cfg)
        for d in (2, 3, 5):
            cfg_d = normalize(make_config(cfg.base, scaled(cfg.g, d)),
                              "min_zero")
            assert donaldson_futaki(cfg_d) == d * df
            assert minimum_norm(cfg_d) == d * mn
    for _ in range(100):
        cfg = random_config(rng, normalized="min_zero")
        mn = minimum_norm(cfg)
        assert mn >= 0
        assert (mn == 0) == cfg.trivial
    const = normalize(make_config(interval(0, 1), [((F(0),), F(3))]),
                      "min_zero")
    assert const.trivial and minimum_norm(const) == 0
    assert time.perf_counter() - t0 < 30.0


def test_criterion_04_am_slope():
    """AM slope matches -(n+1)! int g, which equals the (n+1)!-scaled
    volume of the mapping-cylinder body after the shift is removed; the
    trace itself is linear in tau to 1e-8."""
    t0 = time.perf_counter()
    for cfg in (INT_AFF, SQ_AFF):
        n = cfg.dim
        rep = verify_theorem(cfg, "AM")
        exact = -math.factorial(n + 1) * integrate(cfg.base, cfg.g)
        qvol = math.factorial(n + 1) * (
            volume_data(cfg.cayley).volume
            - cfg.shift * volume_data(cfg.base).volume)
        assert rep.exact == exact == qvol
        assert rep.passed and rep.tol == 1e-3
        assert abs(rep.slope - float(exact)) <= 1e-3 * (1 + abs(float(exact)))
        taus = np.array([r[0] for r in rep.trace])
        vals = np.array([r[1] for r in rep.trace])
        line = np.polyval(np.polyfit(taus, vals, 1), taus)
        assert np.max(np.abs(line - vals)) <= 1e-8
        _register(n, rep)
    assert time.perf_counter() - t0 < 60.0


def test_criterion_05_df_slope():
    t0 = time.perf_counter()
    a = verify_theorem(INT_AFF, "DF")
    assert a.tier == "affine" and a.exact == 0
    assert a.passed and abs(a.slope) <= 1e-3
    b = verify_theorem(INT_KINK, "DF")
    assert b.tier == "pl" and b.exact == F(1, 2)
    assert b.passed and b.tol == 3e-2
    assert abs(b.slope - 0.5) <= 3e-2 * 1.5
    c = verify_theorem(SQ_AFF, "DF")
    assert c.exact == 0
    assert c.passed and abs(c.slope) <= 1e-2
    for n, rep in ((1, a), (1, b), (2, c)):
        _register(n, rep)
    assert time.perf_counter() - t0 < 300.0


def test_criterion_06_minimum_norm_slope():
    """J-functional slope against the mixed-volume value of the norm."""
    t0 = time.perf_counter()
    for cfg, tol in ((INT_AFF, 1e-2), (INT_KINK, 3e-2), (SQ_AFF, 1e-2)):
        rep = verify_theorem(cfg, "MINNORM")
        exact = minimum_norm_mixed(normalize(cfg, "min_zero"))
        assert rep.exact == exact
        assert rep.passed and rep.tol == tol
        assert abs(rep.slope - float(exact)) <= tol * (1 + abs(float(exact)))
        _register(cfg.dim, rep)
    assert time.perf_counter() - t0 < 300.0


def test_criterion_07_ij_sandwich():
    """Every state evaluated by the slope gates keeps I, J >= 0 and
    J/n <= I - J <= n J (slack 1e-9)."""
    if not ENERGY_ROWS:
        _register(1, verify_theorem(INT_AFF, "AM"))
        _register(1, verify_theorem(INT_KINK, "DF"))
        _register(2, verify_theorem(SQ_AFF, "AM"))
    assert ENERGY_ROWS
    for n, _tau, i_val, j_val in ENERGY_ROWS:
        assert j_val >= -1e-9
        assert i_val >= -1e-9
        assert j_val / n - 1e-9 <= i_val - j_val <= n * j_val + 1e-9


def test_criterion_08_kempf_ness_point_identity():
    """The potential's limit velocity at each vertex is minus the Chow
    weight: +1/2 and -1/2 at the two ends of the interval with g = x."""
    t0 = time.perf_counter()
    lo = verify_theorem(INT_AFF, "POINT", vertex=(0,))
    hi = verify_theorem(INT_AFF, "POINT", vertex=(1,))
    assert lo.exact == F(1, 2) and hi.exact == -F(1, 2)
    assert lo.passed and hi.passed and lo.tol == hi.tol == 1e-3
    assert abs(lo.slope - 0.5) <= 1e-3 * 1.5
    assert abs(hi.slope + 0.5) <= 1e-3 * 1.5
    assert lo.slope > 0 > hi.slope
    assert time.perf_counter() - t0 < 60.0


def test_criterion_09_blowup_expansion():
    t0 = time.perf_counter()
    eps = (F(1, 100), F(1, 50), F(1, 25), F(1, 10))
    one = blowup_expansion(normalize(INT_KINK, "min_zero"), (1,), eps)
    assert one.fitted_coefficient == 0 == one.reference_coefficient
    assert one.matches
    tri = normalize(make_config(unit_simplex(2), [((F(1), F(0)), F(0))]),
                    "min_zero")
    two = blowup_expansion(tri, (1, 0), eps)
    assert two.fitted_coefficient == -2 * chow_weight(tri, (1, 0))
    assert two.fitted_coefficient == two.reference_coefficient
    assert two.matches
    assert time.perf_counter() - t0 < 10.0


def test_criterion_10_destabilizer_dichotomy():
    """A vertex of positive Chow weight exists iff the norm is positive."""
    t0 = time.perf_counter()
    rng = random.Random(10)
    for _ in range(50):
        cfg = random_config(rng, normalized="average_zero")
        maxw = max(chow_weight(cfg, v) for v in cfg.base.vertices)
        mn = minimum_norm(cfg)
        assert (maxw > 0) == (mn > 0)
        assert scan_destabilizer(cfg).destabilizing == (mn > 0)
    assert time.perf_counter() - t0 < 30.0


def test_criterion_11_twisted_slope():
    t0 = time.perf_counter()
    alpha = interval(0, 2)
    rep = verify_theorem(INT_AFF, "JALPHA", alpha=alpha)
    ncfg = normalize(INT_AFF, "min_zero")
    gamma, j_weight, twisted = twisted_weights(ncfg, alpha)
    assert gamma == 2 and j_weight == 1
    assert rep.exact == j_weight
    assert rep.passed and rep.tol == 1e-2
    assert abs(rep.slope - 1.0) <= 1e-2 * 2.0
    assert twisted == donaldson_futaki(ncfg) + j_weight
    assert time.perf_counter() - t0 < 120.0


def test_criterion_12_curvature_calibration():
    t0 = time.perf_counter()
    u0 = guillemin_potential(interval(0, 1))
    pts = np.linspace(0.05, 0.95, 19)[:, None]
    raw = abreu_scalar_curvature(u0, pts) / KAPPA
    assert np.max(np.abs(raw - 4.0)) < 1e-7
    for base, n_mu in ((interval(0, 1), 2.0), (box(2), 4.0),
                       (unit_simplex(2), 6.0)):
        grid = bulk_grid(flat(base))
        s_field = abreu_scalar_curvature(guillemin_potential(base),
                                         nodes(grid)[0])
        mean = integral(grid, s_field) / float(volume_data(base).volume)
        assert abs(mean - n_mu) <= 1e-6 * n_mu
    assert time.perf_counter() - t0 < 10.0
