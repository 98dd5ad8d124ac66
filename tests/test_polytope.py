"""Exact-kernel tests: construction, measures, integration, mixed volumes."""
import itertools
import math
import random
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kstab.errors import (
    ChopTooLarge,
    DegenerateInput,
    DomainMismatch,
    InconsistentInput,
    InsufficientSamples,
    NonDelzantVertex,
    NotAVertex,
    NotConvex,
    UnboundedInput,
)
from kstab import plconfig, polytope
from kstab.invariants import blowup_expansion
from kstab.plconfig import make_config, normalize, pl_fn, restricted
from kstab.polytope import (
    Halfspace,
    Polytope,
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
    solve_exact,
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
    # facets triangulated in dimension 3, as for four-dimensional
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


# -- the integer enumeration against the Fraction reference -----------------


def _reference_row_reduce(rows):
    """Gauss-Jordan elimination in Fractions: (reduced rows, pivots)."""
    mat = [[F(x) for x in r] for r in rows]
    pivots = []
    for col in range(len(mat[0]) if mat else 0):
        top = len(pivots)
        piv = next((i for i in range(top, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[top], mat[piv] = mat[piv], mat[top]
        pv = mat[top][col]
        mat[top] = [x / pv for x in mat[top]]
        for i in range(len(mat)):
            if i != top and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[top])]
        pivots.append(col)
    return mat, pivots


def _reference_rank(rows):
    return len(_reference_row_reduce(rows)[1])


def _reference_affine_rank(points):
    return _reference_rank([tuple(a - b for a, b in zip(p, points[0]))
                            for p in points[1:]])


def _reference_unbounded(normals, dim):
    if _reference_rank(normals) < dim:
        return True
    for rows in itertools.combinations(normals, dim - 1):
        d = polytope._cofactor_normal(rows)
        signs = [polytope.dot(n, d) for n in normals]
        if any(d) and (max(signs) <= 0 or min(signs) >= 0):
            return True
    return False


def _reference_solve_square(rows, rhs):
    """Cramer's rule in Fractions; None when the system is singular."""
    d = polytope._det(rows)
    if d == 0:
        return None
    return tuple(F(polytope._det([r[:j] + (rhs[i],) + r[j + 1:]
                                  for i, r in enumerate(rows)])) / d
                 for j in range(len(rows)))


def _reference_construct(halfspaces):
    """Vertices by solving every dim-subset of the halfspaces in
    Fractions and testing each solution against every slack; the
    incidence by a second slack pass over every vertex."""
    best = {}
    for h in halfspaces:
        if h.normal not in best or h.offset < best[h.normal].offset:
            best[h.normal] = h
    hs = list(best.values())
    if not hs:
        raise UnboundedInput("empty")
    dim = len(hs[0].normal)
    if any(len(h.normal) != dim for h in hs):
        raise DomainMismatch("mixed dimension")
    if _reference_unbounded([h.normal for h in hs], dim):
        raise UnboundedInput("unbounded")
    verts = set()
    for idx in itertools.combinations(hs, dim):
        x = _reference_solve_square([h.normal for h in idx],
                                    [h.offset for h in idx])
        if x is not None and all(h.slack(x) >= 0 for h in hs):
            verts.add(x)
    if not verts:
        raise InconsistentInput("infeasible")
    vlist = sorted(verts)
    if _reference_affine_rank(vlist) < dim:
        raise DegenerateInput("lower-dimensional")
    kept = []
    for h in hs:
        tight = tuple(i for i, v in enumerate(vlist) if h.slack(v) == 0)
        if (len(tight) >= dim and _reference_affine_rank(
                [vlist[i] for i in tight]) == dim - 1):
            kept.append((h, tight))
    kept.sort(key=lambda pair: (pair[0].normal, pair[0].offset))
    return Polytope(dim=dim, halfspaces=tuple(h for h, _ in kept),
                    vertices=tuple(vlist),
                    facet_vertices=tuple(t for _, t in kept))


def _assert_matches_reference(halfspaces):
    """construct(halfspaces=...) equals the reference polytope, or
    raises an error of exactly the reference's type."""
    try:
        want = _reference_construct(halfspaces)
    except (UnboundedInput, InconsistentInput, DegenerateInput,
            DomainMismatch) as exc:
        with pytest.raises(Exception) as got:
            construct(halfspaces=halfspaces)
        assert type(got.value) is type(exc)
        return None
    assert construct(halfspaces=halfspaces) == want
    return want


@pytest.mark.parametrize("seed", range(40))
def test_construct_matches_reference_on_seeded_configs(seed, monkeypatch):
    """Every halfspace system built for a seeded configuration: its
    base and Cayley polytope, and per base vertex its chopped Cayley
    polytope.  The chops and the cells are cuts, checked against
    construct by test_clip_matches_construct_on_seeded_chops."""
    calls = []
    real = polytope.construct

    def recording(halfspaces=None, vertices=None):
        if halfspaces is not None:
            calls.append(tuple(halfspaces))
        return real(halfspaces=halfspaces, vertices=vertices)

    monkeypatch.setattr(polytope, "construct", recording)
    monkeypatch.setattr(plconfig, "construct", recording)
    cfg = random_config(random.Random(seed), normalized="min_zero")
    for v in cfg.base.vertices:
        try:
            chopped = corner_chop(cfg.base, v, F(1, 8))
        except ChopTooLarge:
            continue
        make_config(chopped, restricted(cfg, chopped).g, cfg.shift)
    monkeypatch.undo()
    assert any(len(hs[0].normal) == cfg.dim + 1 for hs in calls)
    for hs in calls:
        _assert_matches_reference(hs)


def _reference_facet_cycle(points, normal):
    """Cyclic order of a convex facet polygon by a Fraction comparator:
    every comparison recomputes the offsets from the centroid."""
    drop = max(range(len(normal)), key=lambda i: abs(normal[i]))
    flat = [tuple(p[i] for i in range(len(p)) if i != drop) for p in points]
    cx = sum(p[0] for p in flat) / len(flat)
    cy = sum(p[1] for p in flat) / len(flat)

    def half(p):
        dx, dy = p[0] - cx, p[1] - cy
        return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1

    def cmp(i, j):
        hi, hj = half(flat[i]), half(flat[j])
        if hi != hj:
            return -1 if hi < hj else 1
        ax, ay = flat[i][0] - cx, flat[i][1] - cy
        bx, by = flat[j][0] - cx, flat[j][1] - cy
        cross = ax * by - ay * bx
        if cross == 0:
            return 0
        return -1 if cross > 0 else 1

    return [points[i] for i in sorted(range(len(points)), key=cmp_to_key(cmp))]


def _reference_facet_measure(points, normal):
    """(sigma, centroid) of a flat facet: a Fraction fan of simplices up
    to dimension 3, polygons in _reference_facet_cycle order; above, the
    hull of the shadow that drops the coordinate i of the largest
    |normal_i|, with sigma = vol(shadow) / |normal_i|."""
    n = len(normal)
    if n > 3:
        i = max(range(n), key=lambda j: abs(normal[j]))
        vd = _reference_volume_data(polytope._construct_from_vertices(
            [p[:i] + p[i + 1:] for p in points]))
        c = vd.barycenter
        lift = (polytope.dot(normal, points[0])
                - polytope.dot(normal[:i] + normal[i + 1:], c)) / normal[i]
        return vd.volume / abs(normal[i]), c[:i] + (lift,) + c[i:]
    if n == 3:
        points = _reference_facet_cycle(points, normal)
    sigma, moment = F(0), [F(0)] * n
    for k in range(1, len(points) - n + 2):
        simplex = (points[0],) + tuple(points[k:k + n - 1])
        rows = [tuple(a - b for a, b in zip(p, simplex[0]))
                for p in simplex[1:]]
        m = F(abs(polytope._det(rows + [normal])),
              math.factorial(n - 1) * polytope.dot(normal, normal))
        sigma += m
        for j in range(n):
            moment[j] += m * sum(p[j] for p in simplex) / n
    return sigma, tuple(x / sigma for x in moment)


def _reference_volume_data(poly):
    """The Fraction fan that the integer pulling pass replaced: each
    facet measured by _reference_facet_measure, then the first vertex
    coned over every facet."""
    n, v0 = poly.dim, poly.vertices[0]
    vol, moment, sigmas, centroids = F(0), [F(0)] * n, [], []
    for h, fv in zip(poly.halfspaces, poly.facet_vertices):
        sigma, centroid = _reference_facet_measure(
            [poly.vertices[i] for i in fv], h.normal)
        sigmas.append(sigma)
        centroids.append(centroid)
        cone = h.slack(v0) * sigma / n
        vol += cone
        for j in range(n):
            moment[j] += cone * (v0[j] + n * centroid[j]) / (n + 1)
    return polytope.VolumeData(
        volume=vol, boundary_sigma_volume=sum(sigmas),
        barycenter=tuple(x / vol for x in moment),
        per_facet_sigma=tuple(sigmas), facet_barycenters=tuple(centroids))


@pytest.mark.parametrize("seed", range(40))
def test_volume_data_matches_reference_on_seeded_configs(seed):
    """The polytopes of test_construct_matches_reference_on_seeded_configs:
    base, cells and Cayley polytope, and per base vertex the chopped
    base, its cells and its chopped Cayley polytope."""
    cfg = random_config(random.Random(seed), normalized="min_zero")
    polys = [cfg.base, cfg.cayley, *cfg.g.regions()]
    for v in cfg.base.vertices:
        try:
            chopped = corner_chop(cfg.base, v, F(1, 8))
        except ChopTooLarge:
            continue
        cfg_e = make_config(chopped, restricted(cfg, chopped).g, cfg.shift)
        polys += [chopped, cfg_e.cayley, *cfg_e.g.regions()]
    for p in polys:
        assert volume_data(p) == _reference_volume_data(p)


def test_volume_data_matches_reference_in_three_and_four_dimensions():
    base = box(3)
    cayley = make_config(base, [((1, 0, 0), 0), ((0, 1, 1), F(-1, 2))]).cayley
    assert cayley.dim == 4
    for p in (box(3), box(4), unit_simplex(3),
              corner_chop(box(3), (1, 1, 1), F(1, 3)), cayley):
        assert volume_data(p) == _reference_volume_data(p)


def _chop_halfspace(poly, i, eps):
    """The cut of corner_chop at vertex i and depth eps, unchecked."""
    ks = poly.vertex_facets(i)
    w = tuple(sum(poly.halfspaces[k].normal[j] for k in ks)
              for j in range(poly.dim))
    return Halfspace(w, polytope.dot(w, poly.vertices[i]) - eps)


def _assert_clip_matches_construct(poly, h):
    """_clip(poly, h) is construct's polytope, or None where construct
    finds the cut empty or lower-dimensional."""
    try:
        want = construct(halfspaces=poly.halfspaces + (h,))
    except (InconsistentInput, DegenerateInput):
        assert polytope._clip(poly, h) is None
        return None
    assert polytope._clip(poly, h) == want
    return want


@pytest.mark.parametrize("seed", range(40))
def test_clip_matches_construct_on_seeded_chops(seed):
    """The cut at every Delzant vertex of a seeded base, at depths 1/8
    and 1/100, against the base and each maximality cell, whether or not
    the cut stays inside one corner; and each cell, a sequence of cuts,
    against construct on the base's and the separating halfspaces."""
    cfg = random_config(random.Random(seed))
    pieces = cfg.g.pieces
    for p, cell in zip(pieces, cfg.g.regions()):
        separators = tuple(Halfspace.make(
            tuple(a - b for a, b in zip(q.gradient, p.gradient)),
            p.constant - q.constant) for q in pieces if q is not p)
        assert cell == construct(halfspaces=cfg.base.halfspaces + separators)
    for i, v in enumerate(cfg.base.vertices):
        if not cfg.base.is_delzant_vertex(i):
            continue
        for eps in (F(1, 8), F(1, 100)):
            h = _chop_halfspace(cfg.base, i, eps)
            want = _assert_clip_matches_construct(cfg.base, h)
            try:
                chopped = corner_chop(cfg.base, v, eps)
            except ChopTooLarge:
                pass
            else:
                assert chopped == want
                _assert_restricted_cayley_is_make_configs(cfg, chopped)
            for cell in cfg.g.regions():
                _assert_clip_matches_construct(cell, h)


def _assert_restricted_cayley_is_make_configs(cfg, sub):
    """restricted cuts cfg's Cayley polytope to the one make_config
    builds from the restricted g, field for field."""
    cut = restricted(cfg, sub)
    assert cut.cayley == make_config(sub, cut.g, cfg.shift).cayley


@pytest.mark.parametrize("base, pieces, sub", [
    (box(3), [((1, 0, 0), 0), ((0, 1, 1), F(-1, 2))],
     corner_chop(box(3), (0, 0, 0), F(1, 100))),
    (box(3), [((1, 0, 0), 0), ((0, 1, 1), F(-1, 2))],
     corner_chop(box(3), (0, 0, 0), F(1, 3))),
    (box(2), [((1, 0), 0), ((0, 1), 0)],
     construct(halfspaces=box(2).halfspaces + (
         Halfspace((1, 0), F(1, 2)), Halfspace((1, 1), F(5, 4))))),
    (interval(0, 1), [((-1,), 0), ((1,), F(-3, 4))],
     corner_chop(interval(0, 1), (1,), F(5, 8))),
    (box(2), [((0, 0), 0), ((1, 1), F(-3, 2))],
     corner_chop(box(2), (1, 1), F(3, 4))),
])
def test_restricted_cayley_is_make_configs(base, pieces, sub):
    """The cube chopped at its origin (Q in dimension 4); the square cut
    by x1 <= 1/2, parallel to its facet x1 <= 1, and by x1 + x2 <= 5/4;
    and two chops that empty a cell and drop its piece."""
    _assert_restricted_cayley_is_make_configs(make_config(base, pieces), sub)


def test_clip_replaces_a_facet_of_the_same_normal():
    """The interval chop's cut has the normal of the facet it cuts."""
    p = interval(0, 1)
    h = Halfspace((1,), F(3, 4))
    assert _assert_clip_matches_construct(p, h).halfspaces == (
        Halfspace((-1,), F(0)), h)
    assert corner_chop(p, (1,), F(1, 4)) == polytope._clip(p, h)


def test_clip_edge_cases():
    """A cut that misses or only touches the polytope returns it; one
    through vertices keeps them on the new facet; one that leaves a face
    or nothing returns None."""
    square = box(2)
    for h in (Halfspace((1, 1), F(3)), Halfspace((1, 1), F(2)),
              Halfspace((1, 0), F(1))):
        assert polytope._clip(square, h) is square
        assert _assert_clip_matches_construct(square, h) == square
    assert _assert_clip_matches_construct(
        square, Halfspace((1, 1), F(1))) == unit_simplex(2)
    for h in (Halfspace((1, 1), F(0)), Halfspace((1, 1), F(-1))):
        assert _assert_clip_matches_construct(square, h) is None
    h = Halfspace((1, 1, 1), F(2))
    cut = _assert_clip_matches_construct(box(3), h)
    assert {cut.vertices[i] for i in cut.facet_vertices[
        cut.halfspaces.index(h)]} == {(F(1), F(1), F(0)), (F(1), F(0), F(1)),
                                      (F(0), F(1), F(1))}


@pytest.mark.parametrize("base, vertex, pieces, depths", [
    (interval(0, 1), (1,), [((-1,), 0), ((1,), F(-3, 4))],
     (F(5, 8), F(3, 4))),
    (box(2), (1, 1), [((0, 0), 0), ((1, 1), F(-3, 2))], (F(1, 2), F(3, 4))),
])
def test_restriction_drops_an_emptied_cell_as_regions_of_max(
        base, vertex, pieces, depths):
    """A chop that leaves a cell only a face of it, or nothing: the
    restriction drops that piece, exactly as regions_of_max does."""
    g = pl_fn(base, pieces)
    for eps in depths:
        sub = corner_chop(base, vertex, eps)
        fresh = regions_of_max(sub, [(p.gradient, p.constant)
                                     for p in g.pieces])
        assert fresh[1] is None
        g_sub = restricted(make_config(base, g), sub).g
        assert g_sub.pieces == g.pieces[:1]
        assert g_sub.regions() == (fresh[0],)


def test_restriction_outside_the_domain_rejected():
    cfg = make_config(interval(0, 1), [((1,), 0)])
    with pytest.raises(DomainMismatch):
        restricted(cfg, interval(0, 2))


SIMPLEX_X1 = make_config(unit_simplex(2), [((1, 0), 0)])


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: Halfspace((0, 0), F(1)), InconsistentInput, "nonzero"),
    (lambda: Halfspace((F(1, 2), 1), F(1)), InconsistentInput, "integer"),
    (lambda: Halfspace((2, 0), F(1)), InconsistentInput, "primitive"),
    (lambda: construct(), InconsistentInput, "halfspaces or vertices"),
    (lambda: construct(vertices=[]), InconsistentInput, "no vertices"),
    (lambda: construct(vertices=[(0, 0), (1, 0), (0, 1, 0)]),
     DomainMismatch, "mixed dimension"),
    (lambda: construct(vertices=[(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0),
                                 (0, 0, 1, 0), (0, 0, 0, 1)]),
     DomainMismatch, "up to dimension 3"),
    (lambda: integrate(box(2), ((1, 0), 0), region="edge"),
     InconsistentInput, "unknown region"),
    (lambda: mixed_volume([]), InconsistentInput, "empty list"),
    (lambda: mixed_volume([box(2), interval(0, 1)]),
     DomainMismatch, "mixed ambient dimension"),
    (lambda: minkowski_sum([(1, box(2)), (1, interval(0, 1))]),
     DomainMismatch, "mixed ambient dimension"),
    (lambda: polytope.primitivize((0, 0)), InconsistentInput, "zero vector"),
    (lambda: pl_fn(box(2), []), NotConvex, "at least one affine piece"),
    (lambda: normalize(SIMPLEX_X1, "max_zero"),
     DomainMismatch, "unknown normalization"),
    (lambda: blowup_expansion(normalize(SIMPLEX_X1), (1, 0),
                              [F(-1, 10), F(1, 100), F(1, 50), F(1, 25)]),
     InsufficientSamples, "must be positive"),
], ids=["zero-normal", "fractional-normal", "imprimitive-normal",
        "no-input", "no-vertices", "mixed-vertices", "hull-in-4d",
        "edge-region", "no-bodies", "mixed-bodies", "mixed-summands",
        "zero-vector", "no-pieces", "max-zero", "negative-depth"])
def test_kernel_refuses_bad_input(call, error, fragment):
    """Each refusal of the exact kernel that no other test reaches."""
    with pytest.raises(error, match=fragment):
        call()


@pytest.mark.parametrize("halfspaces", [
    [],
    [Halfspace((1,), F(1))],
    [Halfspace((-1, 0), F(0)), Halfspace((0, -1), F(0)),
     Halfspace((-1, -1), F(0))],
    [Halfspace((1,), F(1)), Halfspace((1, 0), F(1))],
    [Halfspace((1,), F(0)), Halfspace((-1,), F(-1)), Halfspace((1,), F(-5))],
    [Halfspace((1, 0), F(0)), Halfspace((-1, 0), F(-1)),
     Halfspace((0, 1), F(1)), Halfspace((0, -1), F(0))],
    [Halfspace((1,), F(0)), Halfspace((-1,), F(0)), Halfspace((1,), F(1))],
    [Halfspace((1, 1), F(1)), Halfspace((-1, -1), F(-1)),
     Halfspace((-1, 0), F(0)), Halfspace((0, -1), F(0))],
])
def test_construct_errors_match_reference(halfspaces):
    """Empty, unbounded, mixed-dimension, infeasible and
    lower-dimensional systems raise the reference's error type."""
    assert _assert_matches_reference(halfspaces) is None


def test_square_pyramid_apex_lies_on_four_facets():
    hs = [Halfspace((0, 0, -1), F(0)),
          Halfspace((-1, 0, 1), F(0)), Halfspace((0, -1, 1), F(0)),
          Halfspace((1, 0, 1), F(2)), Halfspace((0, 1, 1), F(2))]
    p = _assert_matches_reference(hs)
    apex = p.vertex_index((1, 1, 1))
    sides = {p.halfspaces[k].normal for k in p.vertex_facets(apex)}
    assert sides == {h.normal for h in hs[1:]}
    assert {h.normal: len(fv) for h, fv in zip(
        p.halfspaces, p.facet_vertices)}[(0, 0, -1)] == 4
    assert all(len(fv) == 3 for h, fv in zip(p.halfspaces, p.facet_vertices)
               if h.normal != (0, 0, -1))
    assert not p.is_delzant_vertex(apex)


def test_cayley_pieces_meeting_at_a_base_vertex():
    """g = max(x, y) on the unit square: both top facets of the Cayley
    polytope pass through the corners over (0, 0) and (1, 1), so those
    vertices lie on four facets of a three-dimensional polytope."""
    base = box(2)
    cfg = make_config(base, pl_fn(base, [((1, 0), 0), ((0, 1), 0)]), 3)
    hs = [Halfspace(h.normal + (0,), h.offset) for h in base.halfspaces]
    hs += [Halfspace((0, 0, -1), F(0)), Halfspace((1, 0, 1), F(3)),
           Halfspace((0, 1, 1), F(3))]
    assert _assert_matches_reference(hs) == cfg.cayley
    q = cfg.cayley
    for corner in ((0, 0, 3), (1, 1, 2)):
        assert len(q.vertex_facets(q.vertex_index(corner))) == 4
    assert _assert_matches_reference(q.halfspaces) == q


def _random_rational_rows(rng, nrows, ncols):
    def entry():
        if rng.random() < 0.3:
            return 0
        return F(rng.randrange(-9, 10), rng.randrange(1, 7))
    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    if nrows >= 2 and rng.random() < 0.5:
        a, b = F(rng.randrange(-3, 4), 2), F(rng.randrange(-3, 4), 3)
        rows.append([a * x + b * y for x, y in zip(rows[0], rows[1])])
    if rng.random() < 0.3:
        rows.append([0] * ncols)
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("seed", range(10))
def test_rank_and_solve_match_fraction_gauss_jordan(seed):
    """The fraction-free elimination against Fraction Gauss-Jordan on
    rational matrices with 1-4 columns, zero rows and dependent rows:
    the same pivots, rows proportional to the reduced ones, and the
    same solutions of square systems."""
    rng = random.Random(seed)
    for _ in range(40):
        rows = _random_rational_rows(rng, rng.randrange(0, 5),
                                     rng.randrange(1, 5))
        mat, pivots = polytope._row_reduce(rows)
        ref, ref_pivots = _reference_row_reduce(rows)
        assert pivots == ref_pivots
        assert polytope._rank(rows) == _reference_rank(rows)
        for row, ref_row, col in zip(mat, ref, pivots):
            assert [F(x, row[col]) for x in row] == ref_row
        n = rng.randrange(1, 5)
        square = _random_rational_rows(rng, n, n)[:n]
        rhs = [F(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(n)]
        ref, ref_pivots = _reference_row_reduce(
            [r + [b] for r, b in zip(square, rhs)])
        want = ([r[n] for r in ref] if ref_pivots == list(range(n))
                else None)
        assert solve_exact(square, rhs) == want


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


def test_mixed_volume_flat_segment_either_side():
    # segment second: the facets of the square; segment first: its two
    # facets +-e_t with sigma = vol(unit interval) = 1
    seg = embed_at_height(interval(0, 1))
    assert mixed_volume([box(2), seg]) == F(1, 2)
    assert mixed_volume([seg, box(2)]) == F(1, 2)


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
