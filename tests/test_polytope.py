"""Exact-kernel tests: construction, measures, integration, mixed volumes."""
import random
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
    UnboundedInput,
)
from kstab.plconfig import pl_fn
from kstab.polytope import (
    Halfspace,
    VBody,
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
    regions_of_max,
    unit_simplex,
    volume_data,
)

from gens import random_base, random_config

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
    # exercises the shadow measure of facets used for four-dimensional
    # Cayley polytopes
    vd = volume_data(box(4))
    assert vd.volume == 1
    assert vd.boundary_sigma_volume == 8


def _assert_facet_moments(p):
    """Divergence theorem for x and for x * x_j over p, facet by facet:
    n vol = sum offset_F sigma_F and
    (n + 1) vol barycenter = sum offset_F sigma_F centroid_F."""
    vd = volume_data(p)
    n = p.dim
    weights = [h.offset * s for h, s in zip(p.halfspaces, vd.per_facet_sigma)]
    assert n * vd.volume == sum(weights)
    for j in range(n):
        assert (n + 1) * vd.volume * vd.barycenter[j] == sum(
            w * c[j] for w, c in zip(weights, vd.facet_barycenters))
    for h, c in zip(p.halfspaces, vd.facet_barycenters):
        assert h.slack(c) == 0


@pytest.mark.parametrize("seed", range(40))
def test_facet_moments_of_random_bases(seed):
    cfg = random_config(random.Random(seed))
    for p in (cfg.base, cfg.cayley) + cfg.g.regions():
        _assert_facet_moments(p)


def test_facet_moments_in_three_and_four_dimensions():
    for p in (box(3), box(4), unit_simplex(3),
              corner_chop(box(3), (1, 1, 1), F(1, 3))):
        _assert_facet_moments(p)


def test_volume_data_cache_is_bounded():
    assert volume_data.cache_info().maxsize is not None


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


def _unit_normal(i, dim, sign=1):
    return tuple(sign if j == i else 0 for j in range(dim))


@pytest.mark.parametrize("dim", [3, 4])
def test_unbounded_along_a_diagonal(dim):
    """x >= 0, |x1 - xn| <= 1 and x2, ..., x(n-1) <= 1: the normals have
    rank n, but the set is unbounded along e1 + en."""
    hs = [Halfspace(_unit_normal(i, dim, -1), F(0)) for i in range(dim)]
    diag = tuple(1 if j == 0 else -1 if j == dim - 1 else 0
                 for j in range(dim))
    hs += [Halfspace(diag, F(1)), Halfspace(tuple(-c for c in diag), F(1))]
    hs += [Halfspace(_unit_normal(i, dim), F(1)) for i in range(1, dim - 1)]
    with pytest.raises(UnboundedInput):
        construct(halfspaces=hs)


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
    g = pl_fn(p, [((1,), 0), ((-1,), 1)])  # max(x, 1 - x)
    assert integrate(p, g) == F(3, 4)
    assert integrate(p, g, region="boundary") == 2


def test_regions_of_max():
    p = interval(0, 1)
    regions = regions_of_max(p, [((1,), F(0)), ((-1,), F(1)), ((0,), F(1, 4))])
    assert regions[0].vertices == ((F(1, 2),), (F(1),))
    assert regions[1].vertices == ((F(0),), (F(1, 2),))
    assert regions[2] is None  # constant 1/4 never wins


def test_pl_integral_square_crease():
    p = box(2)
    g = pl_fn(p, [((1, 0), F(0)), ((0, 1), F(0))])  # max(x, y)
    # by symmetry: 2 * int_{x>y} x = 2 * 1/3 = 2/3... computed exactly:
    # int_0^1 int_0^1 max(x,y) = 2/3
    assert integrate(p, g) == F(2, 3)


def test_integrand_dimension_checked():
    with pytest.raises(DomainMismatch):
        integrate(box(2), ((1,), 0))


def test_pl_integrand_domain_checked():
    g = pl_fn(interval(0, 1), [((1,), 0), ((-1,), 1)])
    with pytest.raises(DomainMismatch):
        integrate(interval(0, 2), g)


# -- Minkowski sums and mixed volumes ----------------------------------------


def test_minkowski_square_plus_simplex():
    s = minkowski_sum([(1, box(2)), (1, unit_simplex(2))])
    assert volume_data(s).volume == F(7, 2)


def test_minkowski_lower_dimensional():
    seg = embed_at_height(interval(0, 1))
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
    point = VBody(ambient=2, vertices=((F(0), F(0)),), edge_dirs=(),
                  facet_normals=(), plane_normals=())
    assert mixed_volume([box(2), point]) == 0
    assert mixed_volume([point, box(2)]) == 0


def test_mixed_volume_multilinearity_3d():
    c1, c2 = box(3), box(3, side=2)
    assert mixed_volume([c1, c1, c2]) == 2
    assert mixed_volume([c1, c2, c2]) == 4


def test_mixed_volume_prism_sections():
    # vertical prism over the unit square and the square itself at height 0:
    # Vol(a*cube + b*flat) = a*(a+b)^2 gives V(Q,Q,L) = 2/3, V(Q,L,L) = 1/3
    cube = box(3)
    flat = embed_at_height(box(2))
    assert mixed_volume([cube, cube, flat]) == F(2, 3)
    assert mixed_volume([cube, flat, flat]) == F(1, 3)
    assert mixed_volume([flat, flat, flat]) == 0
    # the flat body sees only the height range of the other body: 3 here
    slab = construct(vertices=[(x, y, t) for x in (0, 1) for y in (0, 1)
                               for t in (-1, 2)])
    assert mixed_volume([slab, flat, flat]) == 1


def test_mixed_volume_body_count_checked():
    with pytest.raises(DomainMismatch):
        mixed_volume([box(2)])


def test_mixed_volume_rejects_three_distinct_bodies():
    with pytest.raises(DomainMismatch):
        mixed_volume([box(3), box(3, side=2), unit_simplex(3)])


def _polarized(k_body, l_body, d):
    """Reference V(K[d-1], L) from exact volumes of K + tL at t = 0..d.

    vol(K + tL) = sum_i C(d, i) t^i V(K[d-i], L[i]), so V(K[d-1], L) is
    its t-derivative at 0 over d; for a polynomial of degree <= d that
    derivative is sum_k (-1)^(k-1) Delta^k / k over forward differences.
    """
    diffs = []
    for t in range(d + 1):
        body = minkowski_sum([(1, k_body), (t, l_body)])
        diffs.append(F(0) if body is None else volume_data(body).volume)
    deriv = F(0)
    for k in range(1, d + 1):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        deriv += (-1) ** (k - 1) * diffs[0] / k
    return deriv / d


def test_polarized_reference_on_known_pairs():
    assert _polarized(box(2), box(2, side=2), 2) == 2
    assert _polarized(box(3), embed_at_height(box(2)), 3) == F(2, 3)
    slab = construct(vertices=[(x, y, t) for x in (0, 1) for y in (0, 1)
                               for t in (-1, 2)])
    assert _polarized(embed_at_height(box(2)), slab, 3) == 1


@pytest.mark.parametrize("seed", range(6))
def test_mixed_volume_production_shapes_match_polarization(seed):
    """The three shapes the invariants use, on seeded configurations:
    V(Q, flat P, ..., flat P), V(alpha, P, ..., P) and
    V(Q, ..., Q, flat alpha), with Q the Cayley polytope."""
    rng = random.Random(seed)
    cfg = random_config(rng, normalized="min_zero")
    n = cfg.dim
    alpha = random_base(rng)
    while alpha.dim != n:
        alpha = random_base(rng)
    q, flat = cfg.cayley, embed_at_height(cfg.base)
    flat_alpha = embed_at_height(alpha)
    assert mixed_volume([q] + [flat] * n) == _polarized(flat, q, n + 1)
    assert mixed_volume([alpha] + [cfg.base] * (n - 1)) == (
        _polarized(cfg.base, alpha, n) if n > 1
        else volume_data(alpha).volume)
    assert mixed_volume([q] * n + [flat_alpha]) == _polarized(
        q, flat_alpha, n + 1)


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
