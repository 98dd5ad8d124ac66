"""Algebraic invariants against hand-computed and cross-checked oracles."""
import math
import random
from fractions import Fraction
from importlib import resources

import pytest

from kstab.cli import (_build_config, _invariants_json, bundled_scenarios,
                       load_scenario)
from kstab.errors import (
    ChopTooLarge,
    DegenerateInput,
    DimensionMismatch,
    DomainMismatch,
    InconsistentInput,
    InsufficientSamples,
    NonDelzant,
    NotAVertex,
    NotNormalized,
    RouteMismatch,
)
from kstab.invariants import (
    _intersection_df,
    blowup_expansion,
    calibration_constant,
    chow_weight,
    donaldson_futaki,
    fixed_point_weight,
    invariant_report,
    l1_norm,
    minimum_norm,
    minimum_norm_mixed,
    slope_mu,
    twisted_weights,
)
from kstab import plconfig, polytope
from kstab.plconfig import make_config, normalize
from kstab.polytope import (
    Halfspace,
    box,
    construct,
    integrate,
    interval,
    unit_simplex,
    volume_data,
)

from gens import random_config, scaled

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
    # max(x/2, 1 - x): hand integrals give 1/3; the top facet of Q over
    # the x/2 piece has primitive normal (1, 2), so sigma_F is half the
    # length of its cell
    cfg = cfg_interval([((F(1, 2),), 0), ((-1,), 1)])
    assert donaldson_futaki(cfg) == F(1, 3)


def _seeded_configs():
    return [random_config(random.Random(seed), "min_zero")
            for seed in range(40)]


def test_top_facets_of_cayley_carry_cell_volumes():
    """The top facet of Q over piece g_i has primitive normal (k, k_t) on
    the ray of (grad g_i, 1), and k_t * sigma_F is the volume of the cell
    where g_i is maximal; together they cover P."""
    for cfg in _seeded_configs():
        q = cfg.cayley
        sigma = dict(zip(q.halfspaces, volume_data(q).per_facet_sigma))
        top = {h.normal: (h.normal[-1], s) for h, s in sigma.items()
               if h.normal[-1] > 0}
        assert len(top) == len(cfg.g.pieces)
        for piece, cell in zip(cfg.g.pieces, cfg.g.regions()):
            normal = Halfspace.make(piece.gradient + (1,), 0).normal
            k_t, s = top[normal]
            assert k_t * s == volume_data(cell).volume
        assert sum(k_t * s for k_t, s in top.values()) \
            == volume_data(cfg.base).volume


def _rescaled_intersection_df(cfg):
    """The intersection route through a reduced Cayley polytope: rescale
    the fibre by d = lcm of the gradient denominators, so every top facet
    has normal (k, 1), count all of the boundary but the top and bottom
    facets (each of total sigma vol(P) there), and divide by d."""
    d = math.lcm(*(F(c).denominator for p in cfg.g.pieces
                   for c in p.gradient))
    work = make_config(cfg.base, scaled(cfg.g, d), cfg.shift * d)
    base_vd, q_vd = volume_data(cfg.base), volume_data(work.cayley)
    a = base_vd.boundary_sigma_volume / base_vd.volume
    side = q_vd.boundary_sigma_volume - 2 * base_vd.volume
    return math.factorial(cfg.dim) * (a * q_vd.volume - side) / d


def test_intersection_df_matches_rescaled_cayley():
    configs = _seeded_configs()
    assert any(_rescaled_intersection_df(c) != 0 for c in configs)
    for cfg in configs:
        assert _intersection_df(cfg) == _rescaled_intersection_df(cfg)


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
    # sliced bulk integral vs the mixed-volume facet formula, exact
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
            cfg_d = normalize(
                make_config(cfg.base, scaled(cfg.g, d)), "min_zero")
            assert donaldson_futaki(cfg_d) == d * df1
            assert minimum_norm(cfg_d) == d * mn1


# -- l1 norm ------------------------------------------------------------------


def _l1_by_splitting(cfg):
    """n! * integral |g - mean g| by a second exact route: each cell of
    g is cut at the zero set of its piece, and the piece is integrated
    on both sides with its sign."""
    h = normalize(cfg, "average_zero").g
    total = F(0)
    for piece, cell in zip(h.pieces, h.regions()):
        grad, const = piece.gradient, piece.constant
        if all(a == 0 for a in grad):
            total += abs(integrate(cell, (grad, const)))
            continue
        for sign in (1, -1):  # the side where sign * piece >= 0
            cut = Halfspace.make(tuple(-sign * a for a in grad), sign * const)
            try:
                side = construct(halfspaces=list(cell.halfspaces) + [cut])
            except (InconsistentInput, DegenerateInput):
                continue  # the piece keeps one sign on the cell
            total += sign * integrate(side, (grad, const))
    return math.factorial(cfg.dim) * total


def _bundled_configs():
    configs = []
    for res in bundled_scenarios():
        with resources.as_file(res) as path:
            configs.append(_build_config(load_scenario(path))[0])
    return configs


BOX3 = [make_config(box(3), pieces) for pieces in (
    [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0)],
    [((1, -1, 0), 0), ((-1, 0, 1), F(1, 2))],
    [((0, 0, 2), -1)],
)]


@pytest.mark.parametrize("dim", [1, 2])
def test_l1_norm_matches_cell_splitting_on_random_configs(dim):
    rng = random.Random(2100 + dim)
    seen = 0
    while seen < 10:
        cfg = random_config(rng)
        if cfg.dim == dim:
            assert l1_norm(cfg) == _l1_by_splitting(cfg)
            seen += 1


@pytest.mark.parametrize("cfg", _bundled_configs() + BOX3)
def test_l1_norm_matches_cell_splitting(cfg):
    assert l1_norm(cfg) == _l1_by_splitting(cfg)


@pytest.mark.parametrize("base,pieces,exact", [
    (interval(0, 1), [((1,), 0)], F(1, 4)),
    (interval(0, 1), [((1,), 0), ((-1,), 1)], F(1, 8)),
    (interval(0, 1), [((-3,), 0), ((3,), -3)], F(3, 8)),
    (box(2), [((1, 0), 0)], F(1, 2)),
    (box(2), [((1, 0), 0), ((0, 1), 0)], F(32, 81)),
    (unit_simplex(2), [((1, 0), 0)], F(16, 81)),
], ids=["interval-affine", "interval-kink", "interval-steep", "square-x1",
        "square-max", "simplex-x1"])
def test_l1_norm_oracles(base, pieces, exact):
    cfg = make_config(base, pieces)
    assert l1_norm(cfg) == exact
    for mode in ("min_zero", "average_zero"):
        assert l1_norm(normalize(cfg, mode)) == exact
    assert l1_norm(make_config(base, scaled(cfg.g, 3))) == 3 * exact


def test_l1_norm_vanishes_exactly_on_trivial_configs():
    assert l1_norm(cfg_interval([((0,), 5)])) == 0
    assert l1_norm(make_config(box(3), [((0, 0, 0), F(1, 3))])) == 0


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


def test_fixed_point_weight_is_face_minimum_minus_mean():
    """Inside P the face is P itself; on a facet of the square g = x1 + x2
    only that facet's minimum counts; outside P is refused."""
    rng = random.Random(13)
    for _ in range(10):
        cfg = random_config(rng)
        inside = volume_data(cfg.base).barycenter
        assert fixed_point_weight(cfg, inside) == \
            cfg.g.min_over_domain() - cfg.g.average()
    sq = make_config(box(2), [((1, 1), 0)])
    assert fixed_point_weight(sq, (1, F(1, 2))) == 0
    assert fixed_point_weight(sq, (F(1, 2), 0)) == -1
    with pytest.raises(DomainMismatch):
        fixed_point_weight(sq, (F(3, 2), 0))
    with pytest.raises(DomainMismatch):
        fixed_point_weight(sq, (0,))


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


def test_blowup_cube_second_order():
    """On the cube the eps^2 coefficient, -n(n-1) times the Chow weight,
    is not degenerate: g = max(x1, x2 + x3 - 1/2) has mean 45/64 and
    vanishes at the chopped origin."""
    cfg = normalize(make_config(box(3), [((1, 0, 0), 0),
                                         ((0, 1, 1), -F(1, 2))]), "min_zero")
    eps = [F(1, k) for k in range(100, 49, -10)]
    rep = blowup_expansion(cfg, (0, 0, 0), eps)
    assert rep.fitted_coefficient == rep.reference_coefficient == F(135, 32)
    assert rep.matches


@pytest.mark.parametrize("base, pieces, vertex", [
    (interval(0, 1), [((1,), 0), ((-1,), 1)], (1,)),
    (box(2), [((1, 0), 0), ((0, 1), 0)], (1, 1)),
])
def test_blowup_builds_no_polytope_by_construct(base, pieces, vertex,
                                                monkeypatch):
    """Each chop, its cells and its Cayley polytope are cuts of cfg's,
    so no chop enumerates vertices: with construct, the kernel's one
    vertex enumeration, refusing every call the report is the same."""
    cfg = normalize(make_config(base, pieces), "min_zero")
    eps = [F(1, 100), F(1, 50), F(1, 25), F(1, 10)]
    want = blowup_expansion(cfg, vertex, eps)

    def refuse(halfspaces=None, vertices=None):
        raise AssertionError("construct called")

    monkeypatch.setattr(polytope, "construct", refuse)
    monkeypatch.setattr(plconfig, "construct", refuse)
    assert blowup_expansion(cfg, vertex, eps) == want


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
    assert rep.provenance["am_top"] == "cayley_volume"
    assert rep.calibration == 1
    blob = _invariants_json(rep)
    assert blob["df"] == {"exact": "1/2", "decimal": 0.5}


def test_invariant_report_raises_when_norm_routes_disagree(monkeypatch):
    cfg = cfg_interval([((1,), 0), ((-1,), 1)])
    monkeypatch.setattr("kstab.invariants.minimum_norm_mixed",
                        lambda c: minimum_norm_mixed(c) + F(1, 7))
    with pytest.raises(RouteMismatch):
        invariant_report(cfg)
