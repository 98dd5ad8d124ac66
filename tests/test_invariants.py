"""Algebraic invariants against hand-computed and cross-checked oracles."""
import math
import random
from fractions import Fraction

import pytest

from kstab.errors import (
    ChopTooLarge,
    DimensionMismatch,
    InsufficientSamples,
    NonDelzant,
    NotAVertex,
    NotNormalized,
)
from kstab.invariants import (
    blowup_expansion,
    calibration_constant,
    chow_weight,
    donaldson_futaki,
    invariant_report,
    minimum_norm,
    minimum_norm_mixed,
    slope_mu,
    twisted_weights,
)
from kstab.plconfig import make_config, normalize, pl_fn
from kstab.polytope import (
    box,
    construct,
    integrate,
    interval,
    unit_simplex,
    volume_data,
)

from gens import random_config

F = Fraction


def cfg_interval(pieces, shift="auto", mode="min_zero"):
    return normalize(make_config(interval(0, 1), pieces, shift), mode)


# -- calibration and slope ----------------------------------------------------


def test_calibration_constants_are_factorials():
    assert calibration_constant(1) == 1
    assert calibration_constant(2) == 2
    assert calibration_constant(3) == 6


def test_slope_oracles():
    assert slope_mu(interval(0, 1)) == 2
    assert slope_mu(unit_simplex(2)) == 3
    assert slope_mu(box(2)) == 2


def test_slope_requires_delzant():
    skew = construct(vertices=[(0, 0), (1, 2), (2, 1)])
    with pytest.raises(NonDelzant):
        slope_mu(skew)


# -- Donaldson-Futaki ---------------------------------------------------------


def test_df_affine_vanishes():
    assert donaldson_futaki(cfg_interval([((1,), 0)])) == 0
    sq = normalize(make_config(box(2), [((1, 0), 0)]), "min_zero")
    assert donaldson_futaki(sq) == 0
    tri = normalize(make_config(unit_simplex(2), [((0, 1), F(1, 3))]), "min_zero")
    assert donaldson_futaki(tri) == 0


def test_df_interval_roof():
    cfg = cfg_interval([((1,), 0), ((-1,), 1)])
    assert donaldson_futaki(cfg) == F(1, 2)


def test_df_interval_hinge():
    cfg = cfg_interval([((0,), 0), ((2,), -1)])  # max(0, 2x - 1)
    assert donaldson_futaki(cfg) == F(1, 2)


def test_df_fractional_gradient():
    # max(x/2, 1 - x): hand integrals give 1/3; exercises the degree-2
    # fibre rescaling inside the intersection route
    cfg = cfg_interval([((F(1, 2),), 0), ((-1,), 1)])
    assert donaldson_futaki(cfg) == F(1, 3)


def test_df_requires_normalization():
    cfg = make_config(interval(0, 1), [((1,), 0)])
    with pytest.raises(NotNormalized):
        donaldson_futaki(cfg)


def test_df_normalization_invariance_randomized():
    rng = random.Random(20260815)
    for _ in range(25):
        cfg = random_config(rng)
        a = donaldson_futaki(normalize(cfg, "min_zero"))
        b = donaldson_futaki(normalize(cfg, "average_zero"))
        assert a == b
        # adding a constant to g and enlarging the shift changes nothing
        moved = make_config(cfg.base, cfg.g.shifted(F(7, 3)), cfg.shift + 5)
        assert donaldson_futaki(normalize(moved, "min_zero")) == a


# -- minimum norm -------------------------------------------------------------


def test_minimum_norm_oracles():
    assert minimum_norm(cfg_interval([((1,), 0)])) == F(1, 2)
    roof = cfg_interval([((1,), 0), ((-1,), 1)], mode="average_zero")
    assert minimum_norm(roof) == F(1, 4)


def test_minimum_norm_simplex():
    cfg = normalize(make_config(unit_simplex(2), [((1, 0), 0)]), "min_zero")
    assert minimum_norm(cfg) == F(1, 3)


def test_minimum_norm_routes_agree():
    # sliced bulk integral vs the mixed-volume polarization, exact
    rng = random.Random(77)
    for _ in range(12):
        cfg = random_config(rng, normalized="min_zero")
        assert minimum_norm(cfg) == minimum_norm_mixed(cfg)


def test_minimum_norm_gate_and_triviality():
    with pytest.raises(NotNormalized):
        minimum_norm(make_config(interval(0, 1), [((1,), 0)]))
    flat = cfg_interval([((0,), 5)])
    assert flat.trivial
    assert minimum_norm(flat) == 0


def test_homogeneity_exact():
    rng = random.Random(13)
    for _ in range(6):
        cfg = random_config(rng, normalized="min_zero")
        df1, mn1 = donaldson_futaki(cfg), minimum_norm(cfg)
        for d in (2, 3, 5):
            scaled = normalize(
                make_config(cfg.base, cfg.g.scaled(d)), "min_zero")
            assert donaldson_futaki(scaled) == d * df1
            assert minimum_norm(scaled) == d * mn1


# -- Chow weights -------------------------------------------------------------


def test_chow_interval_oracle():
    cfg = cfg_interval([((1,), 0)])
    assert chow_weight(cfg, (1,)) == F(1, 2)
    assert chow_weight(cfg, (0,)) == -F(1, 2)


def test_chow_constant_and_errors():
    flat = cfg_interval([((0,), 1)])
    assert chow_weight(flat, (0,)) == 0
    assert chow_weight(flat, (1,)) == 0
    with pytest.raises(NotAVertex):
        chow_weight(flat, (F(1, 2),))


def test_destabilizer_dichotomy_sample():
    rng = random.Random(5)
    for _ in range(15):
        cfg = random_config(rng, normalized="min_zero")
        best = max(chow_weight(cfg, v) for v in cfg.base.vertices)
        assert (best > 0) == (minimum_norm(cfg) > 0)


# -- twisted weights ----------------------------------------------------------


def test_twisted_interval_oracle():
    cfg = cfg_interval([((1,), 0)])
    gamma, j_weight, twisted = twisted_weights(cfg, interval(0, 2))
    assert gamma == 2
    assert j_weight == 1
    assert twisted == 1  # df vanishes for affine g


def test_twisted_self_class():
    cfg = cfg_interval([((1,), 0), ((-1,), 1)])
    gamma, _, twisted = twisted_weights(cfg, interval(0, 1))
    assert gamma == 1
    assert twisted == donaldson_futaki(cfg) + _


def test_twisted_trivial_and_mismatch():
    flat = cfg_interval([((0,), 0)])
    _, j_weight, _ = twisted_weights(flat, interval(0, 3))
    assert j_weight == 0
    with pytest.raises(DimensionMismatch):
        twisted_weights(flat, box(2))


def test_twisted_square():
    cfg = normalize(make_config(box(2), [((1, 0), 0)]), "min_zero")
    gamma, j_weight, twisted = twisted_weights(cfg, box(2, side=2))
    assert gamma == 2
    assert twisted == j_weight  # affine g again


# -- blowup expansion ---------------------------------------------------------


def test_blowup_interval_degenerate_factor():
    cfg = cfg_interval([((1,), 0)])
    rep = blowup_expansion(cfg, (1,), [F(1, 100), F(1, 50), F(1, 25), F(1, 10)])
    assert rep.reference_coefficient == 0
    assert rep.fitted_coefficient == 0
    assert rep.matches


def test_blowup_simplex_oracle():
    cfg = normalize(make_config(unit_simplex(2), [((1, 0), 0)]), "min_zero")
    eps = [F(1, 100), F(1, 50), F(1, 25), F(1, 10)]
    rep = blowup_expansion(cfg, (1, 0), eps)
    assert rep.reference_coefficient == -F(4, 3)  # -2 * Chow weight 2/3
    assert rep.fitted_coefficient == -F(4, 3)
    assert rep.matches
    # frozen exact value of the chopped invariant at the largest depth
    assert rep.df_values[-1] == -F(27, 275)


def test_blowup_guards():
    cfg = normalize(make_config(unit_simplex(2), [((1, 0), 0)]), "min_zero")
    with pytest.raises(InsufficientSamples):
        blowup_expansion(cfg, (1, 0), [F(1, 10)])
    with pytest.raises(ChopTooLarge):
        blowup_expansion(cfg, (1, 0), [F(1, 4), F(1, 3), F(1, 2), F(1)])


# -- report -------------------------------------------------------------------


def test_invariant_report():
    cfg = cfg_interval([((1,), 0), ((-1,), 1)])
    rep = invariant_report(cfg)
    assert rep.df == F(1, 2)
    assert rep.minimum_norm == F(1, 4)
    assert rep.slope_mu == 2
    assert rep.am_top == 2 * volume_data(cfg.cayley).volume
    assert rep.provenance["df"] == "both_agree"
    assert rep.calibration == 1
    blob = rep.to_json()
    assert blob["df"] == {"exact": "1/2", "decimal": 0.5}
