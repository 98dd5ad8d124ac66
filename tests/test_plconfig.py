"""Config layer: validation, Cayley polytopes, normalization, smoothing."""
import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kstab.plconfig
import kstab.polytope
from kstab.analysis import SmoothedPL, bulk_grid
from kstab.errors import ChopTooLarge, DomainMismatch, NotConvex, ShiftTooSmall
from kstab.invariants import donaldson_futaki, minimum_norm
from kstab.plconfig import make_config, normalize, pl_fn, restricted
from kstab.polytope import (
    box,
    corner_chop,
    integrate,
    interval,
    regions_of_max,
    unit_simplex,
    volume_data,
)

from gens import random_config, scaled

F = Fraction


def test_trivial_config_square_cayley():
    cfg = make_config(interval(0, 1), [((0,), 0)], shift=1)
    assert cfg.trivial
    assert cfg.cayley.vertices == (
        (F(0), F(0)), (F(0), F(1)), (F(1), F(0)), (F(1), F(1)))


def test_affine_config_cayley():
    cfg = make_config(interval(0, 1), [((1,), 0)])
    assert cfg.shift == 2  # auto: max g + 1
    assert not cfg.trivial
    assert set(cfg.cayley.vertices) == {
        (F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(2))}


def test_roof_config_has_five_facets():
    cfg = make_config(interval(0, 1), [((1,), 0), ((-1,), 1)])
    assert len(cfg.cayley.halfspaces) == 5


def test_fractional_gradient_gets_integer_lift():
    cfg = make_config(interval(0, 1), [((F(1, 2),), 0)])
    tops = [h for h in cfg.cayley.halfspaces if h.normal[-1] > 0]
    assert tops[0].normal == (1, 2)  # x/2 + t <= c lifts to x + 2t <= 2c


def test_shift_too_small():
    with pytest.raises(ShiftTooSmall):
        make_config(interval(0, 1), [((1,), 0)], shift=F(1, 2))
    with pytest.raises(ShiftTooSmall):
        make_config(interval(0, 1), [((1,), 0)], shift=1)  # not strict


def test_redundant_piece_rejected():
    with pytest.raises(NotConvex):
        pl_fn(interval(0, 1), [((1,), 0), ((0,), F(-5))])
    with pytest.raises(NotConvex):
        pl_fn(interval(0, 1), [((1,), 0), ((1,), 0)])  # duplicate


def test_domain_mismatch():
    g = pl_fn(interval(0, 1), [((1,), 0)])
    with pytest.raises(DomainMismatch):
        make_config(interval(0, 2), g)
    with pytest.raises(DomainMismatch):
        pl_fn(box(2), [((1,), 0)])


def test_min_and_average():
    g = pl_fn(interval(0, 1), [((1,), 0), ((-1,), 1)])
    assert g.min_over_domain() == F(1, 2)
    assert g.max_over_domain() == 1
    assert g.average() == F(3, 4)


def test_mean_is_never_stale():
    """The mean is integrated once per function; shifted, scaled and
    replace build new functions that never carry the old one."""
    g = pl_fn(box(2), [((1, 0), 0), ((0, 1), F(1, 4))])
    mean = g.average()
    assert mean == integrate(g.domain, g) / volume_data(g.domain).volume
    assert g.shifted(1).average() == mean + 1
    assert scaled(g, 2).average() == 2 * mean
    assert replace(g, pieces=g.shifted(-mean).pieces).average() == 0
    assert g.average() == mean


@pytest.mark.parametrize("seed", range(40))
def test_min_reads_each_cell_with_its_own_piece(seed):
    g = random_config(random.Random(seed)).g
    assert g.min_over_domain() == min(
        g(v) for cell in g.regions() for v in cell.vertices)


def test_normalize_min_zero():
    cfg = make_config(interval(0, 1), [((1,), 5)])
    out = normalize(cfg, "min_zero")
    assert out.g.min_over_domain() == 0
    assert out.g.pieces[0].constant == 0
    assert out.cayley == cfg.cayley  # f = shift - g untouched
    assert out.shift == cfg.shift - 5


def test_normalize_average_zero():
    cfg = make_config(interval(0, 1), [((1,), 0), ((-1,), 1)])
    out = normalize(cfg, "average_zero")
    assert out.g.average() == 0
    assert out.g.pieces[0].constant == -F(3, 4)
    assert out.cayley == cfg.cayley


def test_normalize_idempotent():
    cfg = make_config(unit_simplex(2), [((1, 0), 0), ((0, 1), F(1, 3))])
    once = normalize(cfg, "min_zero")
    assert normalize(once, "min_zero") == once
    avg = normalize(cfg, "average_zero")
    assert normalize(avg, "average_zero") == avg


def test_scaling_scales_integrals():
    g = pl_fn(interval(0, 1), [((1,), 0), ((-1,), 1)])
    for d in (2, 3, 5):
        assert integrate(g.domain, scaled(g, d)) == d * integrate(g.domain, g)


def soft_max(g, x, beta):
    """The log-sum-exp mollification of g at the point x."""
    return float(SmoothedPL.from_fn(g, beta).value(
        np.array([[float(c) for c in x]]))[0])


def test_smooth_eval_single_piece_exact():
    g = pl_fn(interval(0, 1), [((1,), 0)])
    for beta in (0.5, 3.0, 50.0):
        assert soft_max(g, (F(1, 3),), beta) == pytest.approx(1 / 3, abs=1e-14)


def test_smooth_eval_tie_point():
    g = pl_fn(interval(0, 1), [((1,), 0), ((-1,), 1)])
    beta = 7.0
    got = soft_max(g, (F(1, 2),), beta)
    assert got == pytest.approx(0.5 + math.log(2) / beta, abs=1e-14)


@settings(max_examples=60, deadline=None)
@given(st.fractions(min_value=0, max_value=1, max_denominator=32),
       st.floats(min_value=0.2, max_value=200.0))
def test_smooth_eval_bounds(x, beta):
    g = pl_fn(interval(0, 1), [((1,), 0), ((-1,), 1), ((0,), F(3, 4))])
    exact = float(g((x,)))
    soft = soft_max(g, (x,), beta)
    assert soft >= exact - 1e-12
    assert soft - exact <= math.log(len(g.pieces)) / beta + 1e-12


def test_cayley_full_dimensional_and_bounded():
    cfg = make_config(unit_simplex(2), [((1, 0), 0), ((0, 1), 0), ((0, 0), F(1, 2))])
    vd = volume_data(cfg.cayley)
    assert cfg.cayley.dim == 3
    assert vd.volume > 0


# -- maximality cells ---------------------------------------------------------


def _fresh_cells(g):
    return tuple(regions_of_max(g.domain, [(p.gradient, p.constant)
                                           for p in g.pieces]))


def _chopped(base, rng):
    """base with one vertex chopped at the first depth that fits."""
    v = rng.choice(base.vertices)
    for k in range(2, 10):
        try:
            return corner_chop(base, v, F(1, 2 ** k))
        except ChopTooLarge:
            continue
    raise AssertionError(f"no chop fits at {v}")


@pytest.mark.parametrize("seed", range(40))
def test_cells_match_fresh_regions(seed):
    """Every way of deriving a PL function leaves it carrying exactly
    the cells a fresh regions_of_max computes."""
    rng = random.Random(seed)
    cfg = random_config(rng)
    g = cfg.g
    derived = [g, g.shifted(F(rng.randrange(-9, 10), 4)),
               scaled(g, F(rng.randrange(1, 9), rng.randrange(1, 5))),
               normalize(cfg, "min_zero").g,
               normalize(cfg, "average_zero").g,
               restricted(cfg, _chopped(cfg.base, rng)).g]
    for h in derived:
        assert h.regions() == _fresh_cells(h)
        assert all(cell is not None for cell in h.regions())


def test_cells_leave_equality_alone():
    g = pl_fn(interval(0, 1), [((1,), 0), ((-1,), 1)])
    assert g.shifted(1).shifted(-1) == g
    assert hash(scaled(scaled(g, 2), F(1, 2))) == hash(g)
    assert "cells" not in repr(g)


def test_exact_invariants_reuse_the_cells(monkeypatch):
    """Once a configuration is built, normalizing it, its exact
    invariants and its grids read the cells g carries."""
    cfgs = [make_config(interval(0, 1), [((-1,), 0), ((1,), -1)]),
            make_config(box(2), [((1, 0), 0), ((0, 1), 0), ((-1, -1), 1)]),
            make_config(unit_simplex(2), [((1, 0), 0), ((0, 1), F(1, 3))])]
    calls = []

    def counting(poly, pieces):
        calls.append(poly)
        return regions_of_max(poly, pieces)

    monkeypatch.setattr(kstab.polytope, "regions_of_max", counting)
    monkeypatch.setattr(kstab.plconfig, "regions_of_max", counting)
    for cfg in cfgs:
        bulk_grid(cfg.g)
        for mode in ("min_zero", "average_zero"):
            norm = normalize(cfg, mode)
            donaldson_futaki(norm)
            minimum_norm(norm)
    assert calls == []
