"""Exact-kernel tests: construction, measures, integration, mixed volumes."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kstab.errors import (
    ChopTooLarge,
    DegenerateInput,
    DomainMismatch,
    InconsistentInput,
    NonDelzantVertex,
    NotAVertex,
    SingularPolarizationSystem,
    UnboundedInput,
)
from kstab.polytope import (
    Halfspace,
    as_body,
    box,
    construct,
    corner_chop,
    embed_at_height,
    frac,
    integrate,
    interval,
    minkowski_sum,
    mixed_volume,
    point_body,
    regions_of_max,
    unit_simplex,
    volume_data,
)

F = Fraction


# -- construction and validation --------------------------------------------


def test_interval_basic():
    p = interval(0, 1)
    assert p.dim == 1
    assert p.vertices == ((F(0),), (F(1),))
    vd = volume_data(p)
    assert vd.volume == 1
    assert vd.boundary_sigma_volume == 2
    assert vd.barycenter == (F(1, 2),)


def test_square_measures():
    p = box(2)
    vd = volume_data(p)
    assert vd.volume == 1
    assert vd.boundary_sigma_volume == 4
    assert vd.barycenter == (F(1, 2), F(1, 2))
    assert set(vd.per_facet_sigma) == {F(1)}


def test_simplex_measures():
    p = unit_simplex(2)
    vd = volume_data(p)
    assert vd.volume == F(1, 2)
    # the diagonal facet has primitive normal (1, 1); its sigma-length is 1,
    # same as each leg, so the boundary measure totals 3
    assert vd.boundary_sigma_volume == 3
    assert vd.per_facet_sigma == (F(1), F(1), F(1))
    assert vd.barycenter == (F(1, 3), F(1, 3))


def test_cube_measures():
    vd = volume_data(box(3))
    assert vd.volume == 1
    assert vd.boundary_sigma_volume == 6


def test_tesseract_measures():
    # exercises the project-and-lift facet triangulation used for
    # four-dimensional Cayley polytopes
    vd = volume_data(box(4))
    assert vd.volume == 1
    assert vd.boundary_sigma_volume == 8


def test_redundant_halfspace_dropped():
    p = construct(halfspaces=[
        Halfspace((1,), F(1)), Halfspace((-1,), F(0)), Halfspace((1,), F(5)),
    ])
    assert len(p.halfspaces) == 2


def test_dual_consistency():
    for p in (interval(0, 3), box(2), unit_simplex(2), box(3)):
        q = construct(vertices=p.vertices)
        assert q.vertices == p.vertices
        assert q.halfspaces == p.halfspaces


def test_unbounded_rejected():
    with pytest.raises(UnboundedInput):
        construct(halfspaces=[Halfspace((1,), F(1))])
    with pytest.raises(UnboundedInput):
        construct(halfspaces=[
            Halfspace((-1, 0), F(0)), Halfspace((0, -1), F(0)),
            Halfspace((-1, -1), F(0)),
        ])


def test_infeasible_rejected():
    with pytest.raises(InconsistentInput):
        construct(halfspaces=[
            Halfspace((1,), F(0)), Halfspace((-1,), F(-1)),
            Halfspace((1,), F(-5)),
        ])


def test_degenerate_rejected():
    with pytest.raises(DegenerateInput):
        construct(halfspaces=[Halfspace((1,), F(0)), Halfspace((-1,), F(0)),
                              Halfspace((1,), F(1))])
    with pytest.raises(DegenerateInput):
        construct(vertices=[(0, 0), (1, 1), (2, 2)])


def test_halfspace_make_primitivizes():
    h = Halfspace.make((2, 4), 3)
    assert h.normal == (1, 2)
    assert h.offset == F(3, 2)


def test_frac_rejects_float():
    with pytest.raises(TypeError):
        frac(0.5)


def test_delzant_flags():
    assert box(2).is_delzant
    assert unit_simplex(2).is_delzant
    skew = construct(vertices=[(0, 0), (1, 2), (2, 1)])
    assert not skew.is_delzant


# -- integration -------------------------------------------------------------


def test_affine_integrals_interval():
    p = interval(0, 1)
    assert integrate(p, ((1,), 0)) == F(1, 2)
    assert integrate(p, ((1,), 0), region="boundary") == 1
    assert integrate(p, ((0,), 1), region="boundary") == 2


def test_affine_integrals_square():
    p = box(2)
    assert integrate(p, ((1, 0), 0)) == F(1, 2)
    # sigma-boundary: right edge contributes 1, left 0, top and bottom 1/2
    assert integrate(p, ((1, 0), 0), region="boundary") == 2


def test_pl_integral_interval():
    p = interval(0, 1)
    pieces = [((1,), 0), ((-1,), 1)]  # max(x, 1 - x)

    class PL:
        class _P:
            def __init__(self, g, c):
                self.gradient, self.constant = g, c
        pieces = [_P((1,), 0), _P((-1,), 1)]

    assert integrate(p, PL()) == F(3, 4)
    assert integrate(p, PL(), region="boundary") == 2


def test_regions_of_max():
    p = interval(0, 1)
    regions = regions_of_max(p, [((1,), F(0)), ((-1,), F(1)), ((0,), F(1, 4))])
    assert regions[0].vertices == ((F(1, 2),), (F(1),))
    assert regions[1].vertices == ((F(0),), (F(1, 2),))
    assert regions[2] is None  # constant 1/4 never wins


def test_pl_integral_square_crease():
    p = box(2)
    pieces = [((1, 0), F(0)), ((0, 1), F(0))]  # max(x, y)
    class PL:
        def __init__(self):
            class _P:
                def __init__(self, g, c):
                    self.gradient, self.constant = g, c
            self.pieces = [_P(*pc) for pc in pieces]
    # by symmetry: 2 * int_{x>y} x = 2 * 1/3 = 2/3... computed exactly:
    # int_0^1 int_0^1 max(x,y) = 2/3
    assert integrate(p, PL()) == F(2, 3)


def test_integrand_dimension_checked():
    with pytest.raises(DomainMismatch):
        integrate(box(2), ((1,), 0))


# -- Minkowski sums and mixed volumes ----------------------------------------


def test_minkowski_square_plus_simplex():
    s = minkowski_sum([(1, box(2)), (1, unit_simplex(2))])
    assert volume_data(s).volume == F(7, 2)


def test_minkowski_lower_dimensional():
    seg = embed_at_height(interval(0, 1), 0)
    assert minkowski_sum([(1, seg)]) is None


def test_mixed_volume_coincides_with_volume():
    assert mixed_volume([box(2), box(2)]) == 1
    assert mixed_volume([unit_simplex(2), unit_simplex(2)]) == F(1, 2)


def test_mixed_volume_square_pair():
    a, b = box(2), box(2, side=2)
    assert mixed_volume([a, b]) == 2


def test_mixed_volume_square_simplex():
    assert mixed_volume([box(2), unit_simplex(2)]) == 1


def test_mixed_volume_point_summand():
    assert mixed_volume([box(2), point_body((0, 0))]) == 0


def test_mixed_volume_multilinearity_3d():
    c1, c2 = box(3), box(3, side=2)
    assert mixed_volume([c1, c1, c2]) == 2
    assert mixed_volume([c1, c2, c2]) == 4


def test_mixed_volume_prism_sections():
    # vertical prism over the unit square and the square itself at height 0:
    # Vol(a*cube + b*flat) = a*(a+b)^2 gives V(Q,Q,L) = 2/3, V(Q,L,L) = 1/3
    cube = box(3)
    flat = embed_at_height(box(2), 0)
    assert mixed_volume([cube, cube, flat]) == F(2, 3)
    assert mixed_volume([cube, flat, flat]) == F(1, 3)
    assert mixed_volume([flat, flat, flat]) == 0


def test_mixed_volume_bad_grid():
    bodies = [box(2), box(2, side=2)]
    with pytest.raises(SingularPolarizationSystem):
        mixed_volume(bodies, grid=[(0,), (1,), (1,)])
    with pytest.raises(SingularPolarizationSystem):
        mixed_volume(bodies, grid=[(0,), (1,)])
    assert mixed_volume(bodies, grid=[(0,), (1,), (3,)]) == 2


def test_mixed_volume_body_count_checked():
    with pytest.raises(DomainMismatch):
        mixed_volume([box(2)])


# -- corner chops -------------------------------------------------------------


def test_chop_square_corner():
    p = corner_chop(box(2), (1, 1), F(1, 4))
    assert volume_data(p).volume == 1 - F(1, 32)
    assert (F(1), F(3, 4)) in p.vertices
    assert (F(3, 4), F(1)) in p.vertices
    assert p.is_delzant


def test_chop_simplex_volume():
    eps = F(1, 5)
    p = corner_chop(unit_simplex(2), (1, 0), eps)
    assert volume_data(p).volume == F(1, 2) - eps * eps / 2
    assert p.is_delzant


def test_chop_zero_is_noop():
    p = box(2)
    assert corner_chop(p, (1, 1), 0) == p


def test_chop_too_large():
    with pytest.raises(ChopTooLarge):
        corner_chop(unit_simplex(2), (1, 0), F(1))
    with pytest.raises(ChopTooLarge):
        corner_chop(box(2), (1, 1), F(-1, 2))


def test_chop_requires_vertex():
    with pytest.raises(NotAVertex):
        corner_chop(box(2), (F(1, 2), F(1, 2)), F(1, 10))


def test_chop_requires_delzant_vertex():
    skew = construct(vertices=[(0, 0), (1, 2), (2, 1)])
    with pytest.raises(NonDelzantVertex):
        corner_chop(skew, (0, 0), F(1, 10))


def test_chop_interval():
    p = corner_chop(interval(0, 1), (1,), F(1, 4))
    assert p.vertices == ((F(0),), (F(3, 4),))


# -- property tests -----------------------------------------------------------


coord = st.integers(min_value=-6, max_value=6)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(coord, coord), min_size=3, max_size=8))
def test_hull_properties(points):
    try:
        p = construct(vertices=points)
    except DegenerateInput:
        return
    vd = volume_data(p)
    assert vd.volume > 0
    for pt in points:
        assert p.contains((F(pt[0]), F(pt[1])))
    assert p.contains(vd.barycenter, strict=True)
    # dual consistency: rebuild from the halfspace description
    q = construct(halfspaces=p.halfspaces)
    assert q.vertices == p.vertices


@settings(max_examples=40, deadline=None)
@given(coord, st.integers(min_value=1, max_value=8))
def test_interval_volume(lo, width):
    p = interval(lo, lo + width)
    vd = volume_data(p)
    assert vd.volume == width
    assert vd.boundary_sigma_volume == 2
    assert vd.barycenter == (F(2 * lo + width, 2),)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=3), st.integers(min_value=1, max_value=4))
def test_affine_integral_matches_barycenter(axis_seed, side):
    # int_P <g, x> + c  ==  Vol(P) * (g . barycenter + c) for affine data
    p = box(2, side=side)
    g = ((axis_seed % 2) + 1, axis_seed - 1)
    c = F(axis_seed, 3)
    vd = volume_data(p)
    expected = vd.volume * (g[0] * vd.barycenter[0] + g[1] * vd.barycenter[1] + c)
    assert integrate(p, (g, c)) == expected
