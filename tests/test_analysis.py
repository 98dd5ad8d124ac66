"""Numerical substrate: potentials, grids, transport, curvature.

Closed-form oracles on the unit interval (Guillemin potential and the
affine ray through it) pin the heavy machinery; the float-wall cases
near facets are asserted at the accuracy float64 actually supports.
"""
import math
import re
from fractions import Fraction

import numpy as np
import pytest

import kstab.analysis as analysis
from kstab.analysis import (
    KAPPA,
    Ray,
    _BLOCK,
    ShiftedPotential,
    SmoothedPL,
    abreu_scalar_curvature,
    build_grid,
    bulk_grid,
    collar_depth_for,
    crease_ladder_depth,
    fan_grid,
    guillemin_potential,
    line_grid,
    newton_transport,
    _gauss_rule,
    _inv_small,
    ricci_reference,
    simplex_product,
)
from gens import (corner_coords, dual_fields, flat, integral,
                  interval_config, inverse_hessian, logdet_small,
                  mixed_discriminant, pair_field, rung_fields, shares)
from kstab.errors import (DomainMismatch, NewtonDivergence, NonDelzant,
                          NumericalFailure)
from kstab.plconfig import make_config, normalize, pl_fn
from kstab.polytope import (box, construct, corner_chop, interval,
                            unit_simplex, volume_data)
from kstab.slopes import Schedule, _energy_row, ladder


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


AFFINE = interval_config([((1,), 0)])          # g = x
KINK = interval_config([((1,), 0), ((-1,), 1)])  # g = max(x, 1-x)
STEEP = interval_config([((-3,), 0), ((3,), -3)])  # g = max(-3x, 3x - 3)
SQUARE = normalize(make_config(box(2), [((1, 0), 0)]), "min_zero")  # g = x1
SQUARE3 = normalize(make_config(box(2), [((1, 0), 0), ((0, 1), 0),
                                         ((-1, -1), 1)]), "min_zero")
# g = max(1/4 - x, 0, x - 5/8): cells [0, 1/4], [1/4, 5/8], [5/8, 1]
TWO_CREASES = pl_fn(interval(0, 1), [((-1,), Fraction(1, 4)), ((0,), 0),
                                     ((1,), Fraction(-5, 8))])


# -- Guillemin potential ------------------------------------------------------


def test_guillemin_interval_closed_form():
    u0 = guillemin_potential(interval(0, 1))
    pts = np.array([[0.5], [0.25], [1e-12]])
    vals = u0.value(pts)
    assert abs(vals[0] - (-math.log(2.0) / 2.0)) < 1e-14
    expected_quarter = 0.5 * (0.25 * math.log(0.25) + 0.75 * math.log(0.75))
    assert abs(vals[1] - expected_quarter) < 1e-14
    grad = u0.gradient(pts)
    assert abs(grad[0, 0]) < 1e-14
    assert abs(grad[1, 0] - 0.5 * math.log(1.0 / 3.0)) < 1e-14
    hess = u0.hessian(pts)
    assert abs(hess[0, 0, 0] - 2.0) < 1e-13
    assert abs(hess[1, 0, 0] - 8.0 / 3.0) < 1e-13
    # hessian blows up like 1/(2 ell) toward the facet
    assert hess[2, 0, 0] > 1e11


def test_guillemin_square_separates():
    u0 = guillemin_potential(box(2))
    p = np.array([[0.25, 0.5]])
    one_d = guillemin_potential(interval(0, 1))
    expected = one_d.value(np.array([[0.25]]))[0] \
        + one_d.value(np.array([[0.5]]))[0]
    assert abs(u0.value(p)[0] - expected) < 1e-14
    hess = u0.hessian(p)[0]
    assert abs(hess[0, 1]) < 1e-15
    assert abs(hess[0, 0] - 1.0 / (2 * 0.25 * 0.75)) < 1e-12
    # the slacks inverted in place read as the caller's slacks divided
    pts = np.random.default_rng(0).uniform(size=(997, 2))
    assert same_bits(u0.hessian(pts), u0.hessian(pts, u0.slacks(pts)))


def test_guillemin_rejects_non_delzant():
    bad = construct(vertices=[(0, 0), (2, 0), (0, 1)])
    with pytest.raises(NonDelzant):
        guillemin_potential(bad)


# -- smoothing ----------------------------------------------------------------


def test_smoothed_pl_bounds_and_exact_flag():
    g = KINK.g
    sm = SmoothedPL.from_fn(g, beta=25.0)
    assert not sm.exact
    pts = np.linspace(0.01, 0.99, 37)[:, None]
    exact_vals = np.max(
        [float(p.gradient[0]) * pts[:, 0] + float(p.constant)
         for p in g.pieces], axis=0)
    vals = sm.value(pts)
    assert np.all(vals >= exact_vals - 1e-14)
    assert np.all(vals <= exact_vals + math.log(2.0) / 25.0 + 1e-14)
    single = SmoothedPL.from_fn(AFFINE.g, beta=25.0)
    assert single.exact
    assert np.all(single.hessian(pts) == 0.0)


def softmax_reference(sm, pts):
    """value, weights and gradient of sm with numpy's axis=1 reductions."""
    vals = pts @ sm.grads.T + sm.consts[None, :]
    top = vals.max(axis=1, keepdims=True)
    e = np.exp(sm.beta * (vals - top))
    z = e.sum(axis=1, keepdims=True)
    w = e / z
    return top[:, 0] + np.log(z[:, 0]) / sm.beta, w, w @ sm.grads


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n_pieces", [1, 2, 3, 5])
@pytest.mark.parametrize("beta", [7.0, 2000.0])
def test_smoothed_pl_matches_axis_reference_bitwise(n_pieces, beta):
    rng = np.random.default_rng(n_pieces)
    sm = SmoothedPL(grads=rng.normal(size=(n_pieces, 2)),
                    consts=rng.normal(size=n_pieces), beta=beta)
    pts = rng.uniform(size=(997, 2))
    value, w, grad = softmax_reference(sm, pts)
    if n_pieces > 1 and beta > 1000.0:
        assert (w == 0.0).any()   # some weights underflow
    assert same_bits(sm.value(pts), value)
    assert same_bits(sm.gradient(pts), grad)
    # beta sum_{i<j} w_i w_j (a_i - a_j)(a_i - a_j)^T, whole arrays
    i, j = np.triu_indices(n_pieces, 1)
    v = sm.grads[i] - sm.grads[j]
    ref = ((w[:, i] * w[:, j]) * sm.beta) @ (
        v[:, :, None] * v[:, None, :]).reshape(-1, 4)
    ref = ref.reshape(-1, 2, 2)
    assert same_bits(sm.weights_hessian(w), ref)
    assert same_bits(sm.hessian(pts), np.zeros((len(pts), 2, 2))
                     if n_pieces == 1 else ref)
    # it is beta (E[a a^T] - E[a] E[a]^T) to the rounding of those terms
    outer = sm.grads[:, :, None] * sm.grads[:, None, :]
    sq = (w @ outer.reshape(-1, 4)).reshape(-1, 2, 2)
    mean = w @ sm.grads
    cov = sm.beta * (sq - mean[:, :, None] * mean[:, None, :])
    size = sm.beta * (w @ np.abs(outer).reshape(-1, 4)).reshape(-1, 2, 2)
    assert np.all(np.abs(ref - cov) <= 8 * np.finfo(float).eps * size)


def test_shifted_potential_is_affine_in_s():
    u0 = guillemin_potential(interval(0, 1))
    sm = SmoothedPL.from_fn(KINK.g, beta=30.0)
    pts = np.array([[0.3], [0.62]])
    for s in (0.5, 2.0):
        pot = ShiftedPotential(u0, sm, s)
        assert np.allclose(pot.value(pts),
                           u0.value(pts) + s * sm.value(pts), atol=1e-14)
        assert np.allclose(pot.hessian(pts),
                           u0.hessian(pts) + s * sm.hessian(pts), atol=1e-12)


# -- grids --------------------------------------------------------------------


def test_collar_depth_schedule():
    assert collar_depth_for(1.0) == 24
    assert collar_depth_for(8.0) == 44
    assert collar_depth_for(12.0) == 46  # capped at the float64 wall
    assert collar_depth_for(30.0) == 46
    assert collar_depth_for(1e308) == 46  # capped before ceil, no overflow


def test_crease_ladder_depth_tracks_schedule():
    assert crease_ladder_depth(10.0, 1.0) == 8
    assert crease_ladder_depth(120.0, 12.0) >= 9
    assert crease_ladder_depth(1e9, 1e9) == 22
    assert crease_ladder_depth(10.0, 1e308) == 22


@pytest.mark.parametrize("base", [interval(0, 1), interval(-2, 1),
                                  box(2), unit_simplex(2)])
def test_grid_weights_sum_to_volume(base):
    grid = build_grid(flat(base), depth=14)
    vol = float(volume_data(base).volume)
    assert abs(integral(grid, np.ones(grid.size)) - vol) < 1e-12 * vol
    # all nodes strictly interior
    u0 = guillemin_potential(base)
    assert u0.slacks(grid.points).min() > 0.0


def test_grid_integrates_polynomials():
    grid = build_grid(flat(interval(0, 1)), depth=12)
    x = grid.points[:, 0]
    assert abs(integral(grid, x ** 5) - 1.0 / 6.0) < 1e-13
    tri = build_grid(flat(unit_simplex(2)), depth=12)
    xy = tri.points[:, 0] * tri.points[:, 1]
    assert abs(integral(tri, xy) - 1.0 / 24.0) < 1e-10


def test_gauss_rule_is_cached_leggauss():
    """Rules and the panels mapped from them are built once, read-only."""
    for order in (4, 6, 8, 10, 12, 16):
        x, w = _gauss_rule(order)
        ref_x, ref_w = np.polynomial.legendre.leggauss(order)
        assert same_bits(x, ref_x) and same_bits(w, ref_w)
        assert _gauss_rule(order)[0] is x
        px, pw = analysis._gauss_panel(0.25, 0.5, order)
        assert analysis._gauss_panel(0.25, 0.5, order)[0] is px
        assert same_bits(px, 0.375 + 0.125 * x) and same_bits(pw, 0.125 * w)
        for arr in (x, w, px, pw):
            with pytest.raises(ValueError):
                arr[0] = 0.0


def test_grids_match_fresh_leggauss_panels(monkeypatch):
    def build():
        analysis._fan_rule.cache_clear()  # a cached rule reads no panel
        return [build_grid(TWO_CREASES, 46, crease_depth=22),
                fan_grid([box(2)], 34), fan_grid([unit_simplex(2)], 34)]

    def fresh_panel(a, b, order):
        x, w = np.polynomial.legendre.leggauss(order)
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        return mid + half * x, half * w

    cached = build()
    monkeypatch.setattr(analysis, "_gauss_panel", fresh_panel)
    for grid, ref in zip(cached, build()):
        assert same_bits(grid.points, ref.points)
        assert same_bits(grid.weights, ref.weights)


def test_transport_and_bulk_grid_node_counts():
    assert fan_grid([box(2)], 46).size == 181_440
    assert fan_grid([unit_simplex(2)], 46).size == 136_080
    assert bulk_grid(flat(box(2))).size == 26_560
    assert bulk_grid(flat(unit_simplex(2))).size == 19_920


def radial_panels(depth, inner_order=12, graded_order=4):
    """(a, b, radial order, along-edge depth) of each radial panel of a
    fan triangle: two inner panels, breaks at 1 - 2^-k for k <= 8, every
    second k beyond and depth, order 10 up to level depth - 10 and the
    graded order on the deepest ten levels, the along-edge depth coupled
    to the level k of the outer break.  Reference only."""
    levels = [k for k in range(1, depth + 1)
              if k <= 8 or k % 2 == 1 or k == depth]
    panels = [(0.0, 0.25, inner_order, 3), (0.25, 0.5, inner_order, 3)]
    for j, k in zip(levels, levels[1:]):
        order = 10 if k <= depth - 10 else graded_order
        panels.append((1.0 - 0.5 ** j, 1.0 - 0.5 ** k, order,
                       min(depth, k + 2)))
    panels.append((1.0 - 0.5 ** depth, 1.0, graded_order, depth))
    return panels


@pytest.mark.parametrize("depth", [8, 12, 20, 46])
@pytest.mark.parametrize("base", [box(2), unit_simplex(2)])
def test_fan_grid_couples_edge_depth_to_radial_level(base, depth):
    """Each radial panel of a facet triangle carries its radial Gauss
    order times the along-edge rule of depth min(depth, max(3, k + 2)),
    k the level of its outer break 1 - 2^-k; the two inner panels take
    depth 3 and the panel touching the facet the full depth.  Counted
    per panel from the slack of the first facet, which fixes the radial
    parameter t of every node."""
    grid = fan_grid([base], depth)
    h = base.halfspaces[0]
    normal = np.array([float(c) for c in h.normal])
    offset = float(h.offset)
    bary = np.array([float(c) for c in volume_data(base).barycenter])
    pts = grid.points[:grid.size // len(base.halfspaces)]
    t = 1.0 - (offset - pts @ normal) / (offset - bary @ normal)

    def edge_nodes(d):
        breaks = analysis._graded_breaks(d, d)
        return len(analysis._panel_nodes(breaks, (4, 12, 4))[0])

    panels = radial_panels(depth)
    if depth == 46:
        assert [p[2] for p in panels].count(10) == 21  # levels 2..8, 9..35
    for a, b, radial_order, edge_depth in panels:
        inside = np.count_nonzero((t > a) & (t < b))
        assert inside == radial_order * edge_nodes(edge_depth), (a, b)
    assert sum(radial_order * edge_nodes(d)
               for _, _, radial_order, d in panels) == len(pts)


def test_fan_grid_builds_only_the_edge_rules_it_reads(monkeypatch):
    """At depth 46 the radial panels read 27 along-edge depths (3, 4..10,
    the odd 11..45 and 46), and fan_grid builds each of those rules once
    and no other: every depth from 3 to 46 would be 44.  The rule is
    cached per depth: a second grid at that depth, on another base,
    builds none, and its read-only arrays are the first grid's."""
    calls = []

    def counted(breaks, orders):
        calls.append(len(breaks))
        return panel_nodes(breaks, orders)

    panel_nodes = analysis._panel_nodes
    monkeypatch.setattr(analysis, "_panel_nodes", counted)
    analysis._fan_rule.cache_clear()
    fan_grid([box(2)], 46)
    assert len(calls) == len({d for *_, d in radial_panels(46)}) == 27
    rule = analysis._fan_rule(46, 12, 4)
    fan_grid([unit_simplex(2)], 46)
    assert len(calls) == 27
    assert analysis._fan_rule(46, 12, 4) is rule
    for a in rule:
        with pytest.raises(ValueError):
            a[0] = 0.0


def tensor_fan_grid(cells, depth, inner_order=12, graded_order=4):
    """The fan grid of one cell before corner coupling: every radial
    panel takes the full along-edge breakpoints of `depth`.  Reference
    only."""
    base, = cells
    vd = volume_data(base)
    bary = np.array([float(c) for c in vd.barycenter])
    tx, tw = map(np.concatenate, zip(*(
        analysis._gauss_panel(a, b, order)
        for a, b, order, _ in radial_panels(depth, inner_order,
                                            graded_order))))
    s_breaks = analysis._graded_breaks(depth, depth)
    sx, sw = analysis._panel_nodes(s_breaks, (graded_order, inner_order,
                                              graded_order))
    pts_all, w_all = [], []
    for k, h in enumerate(base.halfspaces):
        vi, vj = sorted(base.facet_vertices[k])[:2]
        A = np.array([float(c) for c in base.vertices[vi]]) - bary
        B = np.array([float(c) for c in base.vertices[vj]]) - bary
        det = abs(A[0] * B[1] - A[1] * B[0])
        edge = (1 - sx)[:, None] * A[None, :] + sx[:, None] * B[None, :]
        pts = bary[None, None, :] + tx[:, None, None] * edge[None, :, :]
        wgt = (tw[:, None] * sw[None, :]) * tx[:, None] * det
        pts_all.append(pts.reshape(-1, 2))
        w_all.append(wgt.reshape(-1))
    return analysis.Grid(points=np.concatenate(pts_all),
                         weights=np.concatenate(w_all))


def test_coupled_grid_matches_tensor_grid_rows(monkeypatch):
    """The square affine DF rungs M(tau) at tau = 1, 2, 4 and the simplex
    MINNORM energy rows at tau = 1, 2 agree with the tensor grid's to
    1e-9."""
    square = normalize(make_config(box(2), [((1, 0), 0)]), "min_zero")
    simplex = normalize(make_config(unit_simplex(2), [((1, 0), 0)]),
                        "min_zero")
    cases = ((square, "DF", (1.0, 2.0, 4.0)), (simplex, "MINNORM", (1.0, 2.0)))

    def rows():
        out = []
        for cfg, theorem, taus in cases:
            out += ladder(cfg, Schedule(taus=taus), lambda state: _energy_row(
                state, theorem, None)[:6])
        return np.array(out)

    coupled = rows()
    monkeypatch.setattr(analysis, "fan_grid", tensor_fan_grid)
    tensor = rows()
    assert build_grid(flat(box(2)), 46).size == 402_432
    assert np.all(np.isfinite(coupled))
    assert np.max(np.abs(coupled - tensor)) < 1e-9


def test_crease_ladder_adds_panels():
    coarse = line_grid(Fraction(0), Fraction(1, 2), (10, None), 8)
    fine = line_grid(Fraction(0), Fraction(1, 2), (10, None), 14)
    assert fine.size > coarse.size
    assert abs(integral(fine, np.ones(fine.size)) - 0.5) < 1e-12


@pytest.mark.parametrize("crease_depth", [8, 14, 22])
def test_line_grid_cell_rule(crease_depth):
    """On the cells [0, 1/4], [1/4, 5/8] and [5/8, 1] of a two-crease g,
    an end on a facet of P grades to 2^-depth of its cell, with Gauss
    order 16 on the inner half and order 8 nearer the facet; a crease end
    grades until its last panel is at most 0.08 * 2^-crease_depth long,
    but not half that, with order 16 on every panel of its half."""
    grid = build_grid(TWO_CREASES, 20, crease_depth)
    x = grid.points[:, 0]
    assert abs(integral(grid, np.ones(grid.size)) - 1.0) < 1e-14
    width = 0.08 * 0.5 ** crease_depth
    for crease in (0.25, 0.625):
        gap = np.abs(x - crease).min()
        nearest = analysis._gauss_rule(16)[0][-1]  # outermost node, in [-1, 1]
        panel = 2.0 * gap / (1.0 - nearest)
        assert 0.5 * width < panel * (1 + 1e-9) <= width * (1 + 1e-9)
    cells = [(0.0, 0.25, (20, None)), (0.25, 0.625, (None, None)),
             (0.625, 1.0, (None, 20))]
    for lo, hi, depths in cells:
        inside = (x > lo) & (x < hi)
        cell = line_grid(Fraction(lo), Fraction(hi), depths, crease_depth)
        assert same_bits(np.sort(x[inside]), np.sort(cell.points[:, 0]))
        if depths[0] is not None:  # the facet at 0: 2^-20 of the cell
            assert 0.0 < x[inside].min() < 0.25 * 0.5 ** 20
            near = np.count_nonzero(x[inside] < 0.25 * 0.25)
            assert near % 8 == 0 and near % 16 != 0
    assert np.count_nonzero((x > 0.25) & (x < 0.625)) % 16 == 0


def test_one_cell_grid_is_the_grid_on_p():
    """A one-piece g has one cell, P: build_grid is line_grid or fan_grid
    on P itself, bit for bit."""
    for base in (interval(-2, 1), box(2)):
        grid = build_grid(flat(base), 20)
        ref = fan_grid([base], 20) if base.dim == 2 else line_grid(
            base.vertices[0][0], base.vertices[-1][0], (20, 20), 8)
        assert same_bits(grid.points, ref.points)
        assert same_bits(grid.weights, ref.weights)


@pytest.mark.parametrize("cfg", [SQUARE3, normalize(make_config(
    unit_simplex(2), [((1, 0), 0), ((0, 1), 0)]), "min_zero")],
    ids=["square3", "simplex-max"])
def test_polygon_grid_is_one_fan_per_cell(cfg):
    """In 2D the grid joins one fan per cell of g, every edge at the
    collar depth, and integrates the volume of each cell."""
    grid = build_grid(cfg.g, 20)
    cells = cfg.g.regions()
    fans = [fan_grid([cell], 20) for cell in cells]
    assert grid.size == sum(f.size for f in fans)
    assert same_bits(grid.points, np.concatenate([f.points for f in fans]))
    start = 0
    for cell, fan in zip(cells, fans):
        weights = grid.weights[start:start + fan.size]
        start += fan.size
        vol = float(volume_data(cell).volume)
        assert abs(weights.sum() - vol) < 1e-13


def test_rejects_unsupported_dimension():
    with pytest.raises(NonDelzant):
        build_grid(flat(box(3)), depth=8)


# -- Newton transport ---------------------------------------------------------


def test_forward_transport_matches_legendre_closed_form():
    ray = Ray(AFFINE, beta=10.0, tau_max=8.0)
    x = ray.grid.points[:, 0]
    for tau in (1.0, 8.0):
        moved = ray.transport(tau)[:, 0]
        q = math.exp(-2.0 * tau)
        exact = x * q / (1.0 - x + x * q)
        resolvable = np.minimum(exact, 1.0 - exact) > 1e-8
        assert np.max(np.abs(moved - exact)[resolvable]) < 1e-8


def test_transport_round_trip():
    ray = Ray(KINK, beta=40.0, tau_max=4.0)
    x = ray.grid.points[:, 0]
    bulk = np.abs(x - 0.5) < 0.4
    moved = ray.transport(4.0)
    back = newton_transport(ray.u0, ray.potential(4.0).gradient(moved),
                            moved.copy())
    assert np.max(np.abs(back[:, 0] - x)[bulk]) < 1e-9


def test_transport_2d_factorizes():
    cfg = normalize(make_config(box(2), [((1, 0), 0)]), "min_zero")
    ray = Ray(cfg, beta=10.0, tau_max=2.0)
    pts = ray.grid.points
    moved = ray.transport(2.0)
    q = math.exp(-4.0)
    exact_x = pts[:, 0] * q / (1.0 - pts[:, 0] + pts[:, 0] * q)
    ok = np.minimum.reduce([pts[:, 1], 1 - pts[:, 1],
                            exact_x, 1 - exact_x]) > 1e-8
    assert np.max(np.abs(moved[:, 1] - pts[:, 1])[ok]) < 1e-9
    assert np.max(np.abs(moved[:, 0] - exact_x)[ok]) < 1e-8
    # inverse: x = y / (q + y (1 - q)) along the moving axis, x = y across
    x_inv = corner_coords(ray.u0, ray.inverse_transport(2.0))
    exact_inv = pts[:, 0] / (q + pts[:, 0] * (1.0 - q))
    ok = np.minimum.reduce([pts[:, 1], 1 - pts[:, 1],
                            exact_inv, 1 - exact_inv]) > 1e-8
    assert np.max(np.abs(x_inv[:, 1] - pts[:, 1])[ok]) < 1e-8
    assert np.max(np.abs(x_inv[:, 0] - exact_inv)[ok]) < 1e-8


def test_check_reach_reads_no_grid():
    """check_reach refuses when tau * max |grad g| exceeds the reach of
    grad u0 at the slack floor, with no term from the grid: on [0, 1]
    with g = x the reach is 1 - log(1e-300) = 691.78.  Its refusal names
    the shift and the reach."""
    ray = Ray(AFFINE, beta=10.0, tau_max=4.0)
    ray.check_reach(691.7)
    with pytest.raises(NewtonDivergence, match="reach 691.8 "):
        ray.check_reach(691.8)
    ray = Ray(SQUARE, beta=10.0, tau_max=4.0)
    reach = 0.5 * (1.0 - math.log(analysis._SLACK_FLOOR)) \
        * float(np.abs(ray.u0.normals).sum(axis=0).max())
    grad = rung_fields(ray, 0.0, slice(None)).grad
    shift = 1e300 * float(np.abs(grad).max())
    ray.grid = None  # a pass over the grid would fail
    ray.check_reach(4.0)
    with pytest.raises(NewtonDivergence) as err:
        ray.check_reach(1e300)
    assert str(err.value) == (
        f"moment targets shift by tau * |grad g| = {shift:.3g}, "
        f"beyond the reach {reach:.4g} of grad u0 at the slack floor")


def test_newton_divergence_reports_node_count(monkeypatch):
    monkeypatch.setattr(analysis, "_NEWTON_MAX_ITER", 2)
    u0 = guillemin_potential(interval(0, 1))
    targets = np.full((5, 1), 30.0)
    targets[3] = 35.0
    start = np.full((5, 1), 0.5)
    with pytest.raises(NewtonDivergence) as err:
        newton_transport(u0, targets, start)
    msg = str(err.value)
    assert "stalled at 5 node(s)" in msg
    found = re.search(r"worst live residual (\S+) at node (\d+), z = \((\S+)\)",
                      msg)
    assert found, msg
    residual, node, z = float(found[1]), int(found[2]), float(found[3])
    # the row with the farther target is the worst, and the residual is
    # the one at the reported iterate
    assert node == 3
    at = u0.gradient(np.array([[z]]))[0, 0] - targets[node, 0]
    assert residual == pytest.approx(abs(at), rel=1e-3)


@pytest.mark.parametrize("p", [(0.5, 0.0), (1.0, 1.0), (2.0, 0.5)],
                         ids=["facet", "vertex", "outside"])
def test_point_derivative_refuses_a_point_off_the_interior(monkeypatch, p):
    """A point with a float slack of 0 or below is refused before Newton
    runs.  Solved anyway, (1/2, 0) on the average-zero square with
    g = max(x1, x2) read 0.166 at tau = 1, 2 and 6 against the limit 2/3
    of phi_dot there."""
    def refuse(*args, **kwargs):
        raise AssertionError("Newton ran")

    monkeypatch.setattr(analysis, "newton_transport", refuse)
    cfg = normalize(make_config(box(2), [((1, 0), 0), ((0, 1), 0)]),
                    "average_zero")
    u0 = guillemin_potential(cfg.base)
    for tau in (1.0, 2.0, 6.0):
        with pytest.raises(DomainMismatch, match="not strictly inside"):
            Ray.point_derivative(u0, SmoothedPL.from_fn(cfg.g, 10.0 * tau),
                                 tau, np.array(p))


def test_newton_rows_are_independent_of_order_and_blocks():
    """A row that settles takes zero steps while the others go on, so
    rows settling at different iterations keep their own results: a
    permuted input gives the permuted output bit for bit."""
    u0 = guillemin_potential(box(2))
    rng = np.random.default_rng(7)
    n = _BLOCK + 1500
    targets = rng.uniform(-2.0, 2.0, (n, 2))
    # a third of the coordinates ask for slacks of 2-115 float spacings
    # at the facet x_i = 1: those rows saturate on the float wall after
    # 7-80 iterations, the others converge within 10
    wall = rng.random((n, 2)) < 1.0 / 3.0
    targets[wall] = rng.uniform(16.0, 18.0, wall.sum())
    start = rng.uniform(0.2, 0.8, (n, 2))
    z = newton_transport(u0, targets, start)
    assert np.all((z > 0.0) & (z < 1.0))
    assert np.max(z[wall]) > 1.0 - 1e-15
    perm = rng.permutation(n)
    z_p = newton_transport(u0, targets[perm], start[perm])
    assert np.array_equal(z_p, z[perm])


def test_newton_rows_do_not_depend_on_batch_size():
    """One row solved alone is the same row, bit for bit, solved among
    9,000 with targets of every size: each row settles against its own
    tolerance, _NEWTON_TOL * (1 + its largest |target|).  Components lie
    in [-2, 2], at -18 (a slack of e^-36 at x_i = 0, which converges), at
    +18 (about two float spacings at x_i = 1, where the row saturates on
    the float wall) or on the wall, in [16, 18]."""
    u0 = guillemin_potential(box(2))
    rng = np.random.default_rng(11)
    n = 9000
    targets = rng.uniform(-2.0, 2.0, (n, 2))
    far = rng.random(n) < 0.5
    targets[far, 0] = rng.choice([-18.0, 18.0], far.sum())
    wall = rng.random(n) < 1.0 / 3.0
    targets[wall, 1] = rng.uniform(16.0, 18.0, wall.sum())
    swap = rng.random(n) < 0.5
    targets[swap] = targets[swap, ::-1]
    start = rng.uniform(0.2, 0.8, (n, 2))
    z = newton_transport(u0, targets, start)
    picks = np.arange(64)  # 6 of these differ under one tol per call
    on_wall = (targets[picks] > 15.0).sum(axis=1)
    assert {0, 1, 2} <= set(on_wall)  # converged, one axis and both saturate
    assert np.max(z[picks][targets[picks] > 15.0]) > 1.0 - 1e-15
    small = np.abs(targets[picks]).max(axis=1) <= 2.0
    assert 5 <= small.sum() < len(picks)  # rows far below the batch's max
    for row in picks:
        alone = newton_transport(u0, targets[row:row + 1], start[row:row + 1])
        assert same_bits(alone, z[row:row + 1]), row


@pytest.mark.parametrize("y_lo,y_hi", [(-2.0, 2.0), (18.0, 24.0)],
                         ids=["edge", "corner"])
def test_newton_never_lands_on_a_facet(y_lo, y_hi):
    """Targets 18-24 on x ask for slacks e^-37 to e^-49 at the facet
    x = 1, below the float spacing there.  Such a row saturates one float
    inside the facet, never on it: no slack reaches the clamp, so the
    Hessian stays finite and no overflow is raised (pytest turns the
    RuntimeWarning into an error)."""
    u0 = guillemin_potential(box(2))
    rng = np.random.default_rng(0)
    n = 4800
    targets = np.column_stack([rng.uniform(18.0, 24.0, n),
                               rng.uniform(y_lo, y_hi, n)])
    z = newton_transport(u0, targets, np.full((n, 2), 0.5))
    hess = u0.hessian(z)
    assert np.all(u0.slacks(z) > analysis._SLACK_FLOOR)
    assert np.all(np.isfinite(hess))
    assert np.abs(hess).max() < 1e300


# -- ray states ---------------------------------------------------------------


def _log_volume_ratio(ray, tau):
    """log(omega_phi^n / omega^n) at the reference nodes."""
    moved = ray.transport(tau)
    return logdet_small(ray.u0.hessian(ray.grid.points)) \
        - logdet_small(ray.potential(tau).hessian(moved))


def test_state_at_zero_is_identity():
    ray = Ray(KINK, beta=20.0, tau_max=2.0)
    st = rung_fields(ray, 0.0, slice(None))  # every node
    assert np.all(st.phi_y == 0.0)
    assert np.all(st.steps == 0.0) and np.all(st.log_ratio == 0.0)
    ell = ray.u0.slacks(ray.grid.points).T
    assert np.max(np.abs(st.shares * ray.frame.sums[:, None] / ell - 1)) \
        <= 4 * np.finfo(float).eps
    lvr = _log_volume_ratio(ray, 0.0)
    assert np.all(lvr == 0.0)
    mass = integral(ray.grid, np.exp(lvr))
    assert abs(mass / float(volume_data(KINK.base).volume) - 1.0) < 1e-12


def test_interval_h0_inverse_keeps_its_digits():
    """On [0, 1], D2u0^-1 = 2 x (1 - x).  rung_fields reads it as
    1 / D2u0: its log det is log1p(tau D2g_beta / D2u0) bit for bit, and
    on the off-centre steep ray every node where D2g_beta is nonzero has
    that ratio within 2 ulps of 2 x (1 - x) D2g_beta, exact in rationals
    from the float x, 1 - x and D2g_beta.  The closed form through the
    log-slacks reads nearly 4 ulps off there."""
    cfg = interval_config([((Fraction(-5, 2),), 0),
                           ((Fraction(5, 2),), Fraction(-5, 8))])
    ray = Ray(cfg, beta=120.0, tau_max=12.0)
    x = ray.grid.points[:, 0]
    hess = ray.smooth.hessian(ray.grid.points)[:, 0, 0]
    got = (1.0 / ray.u0.hessian(ray.grid.points)[:, 0, 0]) * hess
    log_det = rung_fields(ray, 12.0, slice(None)).log_det
    assert log_det.tobytes() == np.log1p(12.0 * got).tobytes()
    rows = np.flatnonzero(hess > 0)
    assert len(rows) > 100
    for i in rows:
        ref = 2 * Fraction(x[i]) * Fraction(1.0 - x[i]) * Fraction(hess[i])
        assert abs(Fraction(got[i]) / ref - 1) <= 2 * 2.0 ** -52


@pytest.mark.parametrize("cfg", [
    normalize(make_config(box(2), [((1, 0), 0), ((0, 1), 0)]), "min_zero"),
    normalize(make_config(unit_simplex(2), [((1, 0), 0), ((0, 1), 0)]),
              "min_zero"),
    SQUARE3,
], ids=["square-max", "simplex-max", "square3"])
@pytest.mark.parametrize("tau", [1.0, 12.0])
def test_trace_form_log_det_matches_the_matmul_form(cfg, tau):
    """log det(I + tau A D), A = D2u0^-1 and D = D2g_beta, read as
    log1p(tau tr(A D) + tau^2 det A det D) from entrywise products, meets
    the matmul form log1p(tau tr M + tau^2 det M), M = A @ D, to 4 ulps
    plus the rounding of the two det terms.  On max(x1, x2) both cancel:
    det D is 0 in exact arithmetic for two pieces, so at tau = 12 next
    to the crease (tau tr M near 400) each is rounding noise near 1e-11,
    and the matmul form written entrywise in another order moves by up
    to 60 ulps itself.  At tau = 1 the 4 ulps hold alone.  Dropping the
    det term misses the bound 47-fold on max(x1, x2) at tau = 12, and
    1e14-fold on the 3-piece square."""
    eps = np.finfo(float).eps
    ray = Ray(cfg, beta=10.0 * tau, tau_max=tau)
    for rows in ray.grid.blocks():
        got = rung_fields(ray, tau, rows).log_det
        pts = ray.grid.points[rows]
        a = pair_field(ray.frame, ray.frame.weights(
            ray.u0.slacks(pts).T / ray.frame.sums[:, None]))  # the rung's A
        d = ray.smooth.hessian(pts)
        m = a @ d
        x = tau * (m[:, 0, 0] + m[:, 1, 1]) + tau * tau * (
            m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0])
        ref = np.log1p(x)

        def size(h):
            return np.abs(h[:, 0, 0] * h[:, 1, 1]) \
                + np.abs(h[:, 0, 1] * h[:, 1, 0])
        det_a = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
        det_d = d[:, 0, 0] * d[:, 1, 1] - d[:, 0, 1] * d[:, 1, 0]
        noise = 4 * eps * tau * tau * (size(m) + np.abs(det_a) * size(d)
                                       + np.abs(det_d) * size(a))
        bound = 4 * eps * np.abs(ref) + (noise / (1.0 + x) if tau > 1 else 0)
        assert np.all(np.abs(got - ref) <= bound)


def test_det_of_the_pl_hessian_is_exactly_zero_for_two_pieces():
    """det D2g_beta, read from its rank-one pair terms as c^T M c (M the
    _pair_cross of the hessian_vectors), is 0.0 exactly at every node of
    the square with g = max(x1, x2), where it is 0 in exact arithmetic:
    the tau^2 det term of the PL log det is 0.0, and the rung's log det is
    log1p of its trace term alone, within 2 ulps of that trace read from
    the 2 x 2 matrices.  On the 3-piece square it is positive and meets
    the det of D2g_beta's entries to their rounding."""
    eps = np.finfo(float).eps
    square_max = normalize(make_config(box(2), [((1, 0), 0), ((0, 1), 0)]),
                           "min_zero")
    for cfg, two in ((square_max, True), (SQUARE3, False)):
        ray = Ray(cfg, beta=120.0, tau_max=12.0)
        sm = ray.smooth
        v = sm.hessian_vectors
        cross = analysis._pair_cross(v, v)
        for rows in ray.grid.blocks():
            pts = ray.grid.points[rows]
            c = sm.hessian_weights(sm._fields(pts)[2])
            det = analysis._pair_dot(c, cross @ c)
            d = sm.hessian(pts)
            if two:
                assert np.all(det == 0.0)
                a = pair_field(ray.frame, ray.frame.weights(
                    ray.u0.slacks(pts).T / ray.frame.sums[:, None]))
                trace = np.einsum("rij,rji->r", a, d)
                got = rung_fields(ray, 12.0, rows).log_det
                assert np.all(np.abs(got - np.log1p(12.0 * trace))
                              <= 2 * eps * np.abs(got))
            else:
                size = np.abs(d[:, 0, 0] * d[:, 1, 1]) + d[:, 0, 1] ** 2
                ref = d[:, 0, 0] * d[:, 1, 1] - d[:, 0, 1] * d[:, 1, 0]
                assert np.all(np.abs(det - ref) <= 4 * eps * size)
                assert det.max() > 0.0


@pytest.mark.parametrize("tau", [1.0, 4.0, 8.0])
def test_mass_ratio_is_one(tau):
    """Total mass of the transported volume form is conserved."""
    ray = Ray(KINK, beta=20.0, tau_max=8.0)
    mass = integral(ray.grid, np.exp(_log_volume_ratio(ray, tau)))
    assert abs(mass / float(volume_data(KINK.base).volume) - 1.0) < 1e-6


@pytest.mark.parametrize("cfg,beta,tau_max,tau,bound", [
    (KINK, 20.0, 8.0, 1.0, 1e-9),
    (KINK, 20.0, 8.0, 4.0, 1e-9),
    (KINK, 20.0, 8.0, 8.0, 1e-9),
    (SQUARE, 10.0, 2.0, 1.0, 2e-6),
    (SQUARE, 10.0, 2.0, 2.0, 2e-6),
], ids=["kink-1", "kink-4", "kink-8", "square-1", "square-2"])
def test_transported_mass_is_conserved(cfg, beta, tau_max, tau, bound):
    """exp(-log_ratio) is the Jacobian of the inverse transport, so its
    integral over the transported nodes is the volume of the polytope."""
    ray = Ray(cfg, beta=beta, tau_max=tau_max)
    st = rung_fields(ray, tau, slice(None))  # every node
    mass = integral(ray.grid, np.exp(-st.log_ratio))
    assert abs(mass / float(volume_data(cfg.base).volume) - 1.0) < bound


def test_phi_dot_bounded_by_g_range():
    ray = Ray(KINK, beta=20.0, tau_max=6.0)
    phi_dot = -ray.smooth.value(ray.transport(6.0))
    overshoot = math.log(2.0) / 20.0   # logsumexp excess at the kink
    assert phi_dot.max() <= 0.0 + 1e-12           # min g = 0 (min_zero)
    assert phi_dot.min() >= -0.5 - overshoot - 1e-12


def test_phi_convex_in_tau():
    """phi at a reference node, through the forward transport: the
    Legendre dual of u_tau minus that of u0 at its moment-dual point."""
    ray = Ray(AFFINE, beta=10.0, tau_max=3.0)
    idx = np.argmin(np.abs(ray.grid.points[:, 0] - 0.5))
    p, xi = ray.grid.points[idx], ray.u0.gradient(ray.grid.points)[idx]

    def phi(tau):
        moved = ray.transport(tau)[idx]
        return (moved @ xi - ray.potential(tau).value(moved[None])[0]) \
            - (p @ xi - ray.u0.value(ray.grid.points)[idx])

    phis = [phi(t) for t in (1.0, 2.0, 3.0)]
    assert phis[1] <= 0.5 * (phis[0] + phis[2]) + 1e-10


# -- inverse transport --------------------------------------------------------


def test_inverse_transport_inverts_forward():
    ray = Ray(AFFINE, beta=10.0, tau_max=4.0)
    x_inv = corner_coords(ray.u0, ray.inverse_transport(4.0))[:, 0]
    y = ray.grid.points[:, 0]
    q = math.exp(-8.0)
    # y = x q / (1 - x + x q)  <=>  x = y / (q + y (1 - q))
    exact = y / (q + y * (1.0 - q))
    resolvable = np.minimum(exact, 1.0 - exact) > 1e-8
    assert np.max(np.abs(x_inv - exact)[resolvable]) < 1e-8


@pytest.mark.parametrize("cfg", [KINK, STEEP], ids=["kink", "steep"])
@pytest.mark.parametrize("tau", [1.0, 4.0, 12.0])
def test_interval_slacks_match_newton(cfg, tau):
    """The closed-form slacks at x solve grad u0(x) = xi + tau * grad
    g_beta to 1e-8 relative wherever the slack is above 1e-8, against
    the solve in 50 digits: on [0, 1] the equation reads
    (1/2) log(x / (1 - x)) = t, so the slack of the facet with normal nu
    is 1 / (1 + e^(2 nu t)).  A float Newton solve of the same targets
    stops a few ulps of x short, 3e-8 relative at slack 1e-8, so it is
    no reference there; below 1e-8 the closed form keeps the digits."""
    mpmath = pytest.importorskip("mpmath")
    ray = Ray(cfg, beta=10.0 * tau, tau_max=tau)
    f = rung_fields(ray, tau, slice(None))  # every node
    got = f.shares.T * ray.frame.sums
    targets = (ray.u0.gradient(ray.grid.points) + tau * f.grad)[:, 0]
    with mpmath.workdps(50):
        ell = np.array([[float(1 / (1 + mpmath.exp(2 * nu * mpmath.mpf(t))))
                         for nu in ray.u0.normals[:, 0]] for t in targets])
    ok = ell > 1e-8
    assert ok.sum() > 0.5 * ok.size
    assert np.max(np.abs(got[ok] / ell[ok] - 1.0)) < 1e-8
    assert np.all(np.isfinite(np.log(got)))


def test_interval_log_slacks_on_an_offset_interval():
    """On [-1, 3] the slacks are x + 1 and 3 - x, in the facet order of
    the potential, wherever the gradient of u0 is taken."""
    u0 = guillemin_potential(interval(-1, 3))
    x = np.array([[-0.999], [0.0], [1.5], [2.75]])
    log_ell = simplex_product(interval(-1, 3)).log_slacks(u0.gradient(x))
    assert np.allclose(np.exp(log_ell), u0.slacks(x), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("cfg", [KINK, STEEP], ids=["kink", "steep"])
@pytest.mark.parametrize("tau", [1.0, 4.0, 12.0])
def test_interval_ricci_slack_form_matches_ricci_reference(cfg, tau):
    """Ric0 = 4 ell_a ell_b / span^2 on [0, 1], read from the log-slacks,
    is ricci_reference at x wherever x resolves its slacks (above 1e-6,
    where the float x costs 1e-10 relative)."""
    ray = Ray(cfg, beta=10.0 * tau, tau_max=tau)
    f = rung_fields(ray, tau, slice(None))  # every node
    ell = f.shares.T * ray.frame.sums
    form = 4.0 * ell[:, 0] * ell[:, 1]
    x = corner_coords(ray.u0, np.log(ell))
    ok = ray.u0.slacks(x).min(axis=1) > 1e-6
    ric = ricci_reference(ray.u0, x[ok])[:, 0, 0]
    assert np.max(np.abs(ric / form[ok] - 1.0)) < 1e-9


def test_inverse_transport_saturates_gracefully_at_float_wall():
    """Nodes mapping within one ulp of a facet stay finite and ordered."""
    ray = Ray(AFFINE, beta=10.0, tau_max=12.0)
    x_inv = corner_coords(ray.u0, ray.inverse_transport(12.0))[:, 0]
    assert np.all(np.isfinite(x_inv))
    assert np.all(x_inv <= 1.0)
    assert np.all(x_inv >= 0.0)
    y = ray.grid.points[:, 0]
    assert np.all(np.diff(x_inv[np.argsort(y)]) >= -1e-12)


# -- simplex-product frames ----------------------------------------------------


SHEARED = construct(vertices=[(0, 0), (1, 0), (1, 1)])     # Delzant triangle
RHOMB = construct(vertices=[(0, 0), (1, 0), (2, 1), (1, 1)])  # parallelogram
CHOPPED = corner_chop(box(2), (1, 1), Fraction(1, 4))
HIRZEBRUCH = construct(vertices=[(0, 0), (2, 0), (1, 1), (0, 1)])
# its primitive normals sum to 0, but the two left after dropping one
# have determinant 3: not Delzant
SKEW = construct(vertices=[(1, 1), (1, -1), (-5, 3)])
TRIANGLE = normalize(make_config(unit_simplex(2), [((1, 0), 0)]), "min_zero")


@pytest.mark.parametrize("base,sizes", [
    (interval(-1, 3), [2]),
    (box(2), [2, 2]),
    (unit_simplex(2), [3]),
    (SHEARED, [3]),
    (RHOMB, [2, 2]),
    (CHOPPED, None),
    (HIRZEBRUCH, None),
    (SKEW, None),
], ids=["interval", "box", "simplex", "sheared", "rhomb", "chopped",
        "hirzebruch", "skew"])
def test_simplex_product_blocks(base, sizes):
    """Blocks of zero-sum normals, found from the exact normals; a chopped
    square, a Hirzebruch trapezoid and a triangle whose normals sum to 0
    without a unimodular basis are no simplex products."""
    frame = simplex_product(base)
    if sizes is None:
        assert frame is None
        return
    assert sorted(len(b) for b in frame.blocks) == sorted(sizes)
    for block in frame.blocks:
        assert not guillemin_potential(base).normals[block].sum(axis=0).any()


def _interior_points(base, n, rng):
    verts = np.array([[float(c) for c in v] for v in base.vertices])
    return rng.dirichlet(np.full(len(verts), 0.3), n) @ verts


@pytest.mark.parametrize("base", [interval(-1, 3), box(2), unit_simplex(2),
                                  SHEARED, RHOMB],
                         ids=["interval", "box", "simplex", "sheared",
                              "rhomb"])
def test_product_frame_inverts_grad_u0(base):
    """At grad u0 of known points the frame gives back their slacks,
    D2u0^-1 and Ric0, where every slack is above 1e-6.  Each
    reference is held within its own rounding next to a slanted facet:
    eps cond(D2u0) for the inverted Hessian, about eps / slack^2 for
    ricci_reference."""
    u0 = guillemin_potential(base)
    frame = simplex_product(base)
    pts = _interior_points(base, 4000, np.random.default_rng(3))
    ell = u0.slacks(pts)
    keep = ell.min(axis=1) > 1e-6
    pts, ell = pts[keep], ell[keep]
    log_ell = frame.log_slacks(u0.gradient(pts))
    assert np.max(np.abs(np.exp(log_ell) / ell - 1.0)) < 1e-12
    hess = u0.hessian(pts)
    ref = _inv_small(hess)
    scale = np.abs(ref).max(axis=(1, 2))
    cond = np.abs(hess).max(axis=(1, 2)) * scale  # the adjugate loses eps cond
    err = np.abs(inverse_hessian(frame, log_ell) - ref).max(axis=(1, 2))
    assert np.all(err / scale < 1e-12 + 1e-14 * cond)
    ref = ricci_reference(u0, pts)
    scale = np.abs(ref).max(axis=(1, 2))
    err = np.abs(dual_fields(frame, log_ell)[1] - ref).max(axis=(1, 2))
    assert np.all(err / scale < 1e-12 + 1e-14 / ell.min(axis=1) ** 2)


@pytest.mark.parametrize("cfg", [SQUARE, TRIANGLE], ids=["square", "simplex"])
def test_product_state_matches_newton(cfg):
    """rung_fields in closed form against one Newton inverse transport:
    slacks, D2u0(x)^-1 and Ric0 (rebuilt from the rung's pair weights)
    and log_ratio (log det D2u0(x) - log det H_tau, H_tau = D2u0 at the
    nodes for g = x1) at every node whose Newton slacks are above 1e-6."""
    ray = Ray(cfg, beta=10.0, tau_max=1.0)
    f = rung_fields(ray, 1.0, slice(None))  # every node
    z = newton_transport(ray.u0, ray.u0.gradient(ray.grid.points) + f.grad,
                         ray.grid.points)
    h0_at_z = ray.u0.hessian(z)
    ell = ray.u0.slacks(z)
    ok = ell.min(axis=1) > 1e-6
    assert ok.mean() > 0.5
    assert np.max(np.abs((f.shares.T * ray.frame.sums)[ok] / ell[ok] - 1)) \
        < 1e-9
    g0_at_x = pair_field(ray.frame, f.weight)
    ricci = pair_field(ray.frame, ray.frame.ricci_scale[:, None] * f.weight)
    h_tau = ray.u0.hessian(ray.grid.points)
    ref = _inv_small(h0_at_z[ok])
    scale = np.abs(ref).max(axis=(1, 2))
    err = np.abs(g0_at_x[ok] - ref).max(axis=(1, 2))
    assert np.max(err / scale) < 1e-9
    log_ratio = logdet_small(h0_at_z) - logdet_small(h_tau)
    assert np.max(np.abs(f.log_ratio - log_ratio)[ok]) < 1e-9
    ref = ricci_reference(ray.u0, z[ok])
    scale = np.abs(ref).max(axis=(1, 2))
    err = np.abs(ricci[ok] - ref).max(axis=(1, 2))
    assert np.all(err / scale < 1e-9 + 1e-14 / ell[ok].min(axis=1) ** 2)


@pytest.mark.parametrize("slack", [1e-8, 1e-12])
def test_product_fields_near_the_hypotenuse_match_mpmath(slack):
    """Next to the simplex's slanted facet, where ricci_reference cancels
    to 4e-3 relative at slack 1e-6, D2u0^-1 and Ric0 from the log-slacks
    keep every entry to 1e-12 relative against a 50-digit evaluation:
    D2u0 inverted, and Ric0 the xi-Hessian of (1/2) log det D2u0, both
    at the point whose gradient is the float xi."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    u0 = guillemin_potential(unit_simplex(2))
    frame = simplex_product(unit_simplex(2))
    nu = [[int(c) for c in row] for row in u0.normals]
    hyp = next(k for k, row in enumerate(nu) if row == [1, 1])
    with mpmath.workdps(50):
        def slacks_at(xi):
            # grad u0 = xi: ell_i = e^(2 xi_i) ell_hyp, summing to 1
            e = [mp.e ** (2 * v) for v in xi]
            ell_h = 1 / (1 + e[0] + e[1])
            return [ell_h if k == hyp else
                    e[row.index(-1)] * ell_h for k, row in enumerate(nu)]

        def hessian(xi):
            ell = slacks_at(xi)
            return mp.matrix([[sum(row[i] * row[j] / (2 * l)
                                   for row, l in zip(nu, ell))
                               for j in range(2)] for i in range(2)])

        def half_log_det(a, b):
            return mp.log(mp.det(hessian([a, b]))) / 2

        for t in np.linspace(0.1, 0.9, 5):
            s, t = mp.mpf(slack), mp.mpf(float(t))
            x = [t * (1 - s), (1 - t) * (1 - s)]
            xi = [float((mp.log(xk) - mp.log(s)) / 2) for xk in x]
            xi_mp = [mp.mpf(v) for v in xi]
            grad = [sum(-(mp.log(l) + 1) * row[i] / 2 for row, l in
                        zip(nu, slacks_at(xi_mp))) for i in range(2)]
            assert max(abs(g - v) for g, v in zip(grad, xi_mp)) < 1e-40
            g0_ref = hessian(xi_mp) ** -1
            ric_ref = mp.matrix([[mpmath.diff(half_log_det, xi_mp,
                                              (int(i == 0) + int(j == 0),
                                               int(i == 1) + int(j == 1)))
                                  for j in range(2)] for i in range(2)])
            log_ell = frame.log_slacks(np.array([xi]))
            for field, ref in zip(dual_fields(frame, log_ell),
                                  (g0_ref, ric_ref)):
                for i in range(2):
                    for j in range(2):
                        assert abs(field[0, i, j] - ref[i, j]) \
                            <= 1e-12 * abs(ref[i, j])


@pytest.mark.parametrize("slack", [1e-8, 1e-12])
def test_rung_pair_sums_near_the_hypotenuse_match_mpmath(slack):
    """Next to the simplex's slanted facet a rung's pair sums keep their
    digits against a 50-digit evaluation from the same float inputs (the
    slacks at the nodes y, xi + tau grad g at x): MD(Ric0, G0) at x,
    (1/2) tr(G0(x) D2u0(y)) and det D2u0(y) on the ray g = x1 at tau = 1.
    Measured worst errors 4.6e-15, 1.9e-15 and 2.0e-16 relative; the bound
    is 4 times the largest.  The 2 x 2 matrix forms (mixed_discriminant
    of the fields, half_trace, the det of D2u0's entries) miss it by up
    to 6e-9 at slack 1e-8 and 6e-5 at slack 1e-12."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    cfg = normalize(make_config(unit_simplex(2), [((1, 0), 0)]), "min_zero")
    ray = Ray(cfg, beta=10.0, tau_max=1.0)
    frame, u0 = ray.frame, ray.u0
    y = np.array([[t * (1 - slack), (1 - t) * (1 - slack)]
                  for t in np.linspace(0.1, 0.9, 5)])
    ray.grid = analysis.Grid(points=y, weights=np.ones(len(y)))
    f = rung_fields(ray, 1.0, slice(None))
    w = frame.pair_vectors
    md = analysis._pair_dot(frame.ricci_scale[:, None] * f.weight,
                            analysis._pair_cross(w, w) @ f.weight)
    half_trace = 0.5 * analysis._pair_dot(f.weight, f.quad)
    nu = [[int(c) for c in row] for row in u0.normals]
    hyp = nu.index([1, 1])
    with mpmath.workdps(50):
        def slacks_at(xi):
            # grad u0 = xi: ell_i = e^(2 xi_i) ell_hyp, summing to 1
            e = [mp.e ** (2 * v) for v in xi]
            ell_h = 1 / (1 + e[0] + e[1])
            return [ell_h if k == hyp else
                    e[row.index(-1)] * ell_h for k, row in enumerate(nu)]

        def hessian(ell):
            return mp.matrix([[sum(row[i] * row[j] / (2 * l)
                                   for row, l in zip(nu, ell))
                               for j in range(2)] for i in range(2)])

        def half_log_det(a, b):
            return mp.log(mp.det(hessian(slacks_at([a, b])))) / 2

        for i, (xi, ell_y) in enumerate(zip(u0.gradient(y) + f.grad,
                                            u0.slacks(y))):
            xi = [mp.mpf(float(v)) for v in xi]
            g0 = hessian(slacks_at(xi)) ** -1
            ric = mp.matrix([[mpmath.diff(half_log_det, xi,
                                          (int(j == 0) + int(k == 0),
                                           int(j == 1) + int(k == 1)))
                              for k in range(2)] for j in range(2)])
            h = hessian([mp.mpf(float(v)) for v in ell_y])
            ref_md = (ric[0, 0] * g0[1, 1] + ric[1, 1] * g0[0, 0]
                      - 2 * ric[0, 1] * g0[0, 1]) / 2
            ref_trace = ((g0 * h)[0, 0] + (g0 * h)[1, 1]) / 2
            for got, ref in ((md[i], ref_md), (half_trace[i], ref_trace),
                             (f.det_tau[i], mp.det(h))):
                assert abs(got - ref) <= 2e-14 * abs(ref)


def _log_lambda(mpmath, base, block):
    total = sum(base.halfspaces[k].offset for k in block)
    return mpmath.log(mpmath.mpf(total.numerator) / total.denominator)


def _log_slacks_mp(mpmath, frame, base, xi):
    """log ell_k at grad u0 = xi (floats or mpf) as mpf in the working
    precision: r = xi @ ratio_map with its integer entries exact, then
    log Lambda_B + r_k - logsumexp_B r per block."""
    r = [sum(mpmath.mpf(x) * int(frame.ratio_map[i, k])
             for i, x in enumerate(xi))
         for k in range(len(base.halfspaces))]
    out = list(r)
    for block in frame.blocks:
        lse = mpmath.log(sum(mpmath.exp(r[k]) for k in block))
        for k in block:
            out[k] = _log_lambda(mpmath, base, block) + r[k] - lse
    return out


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("base", [interval(-1, 3), box(2), unit_simplex(2)],
                         ids=["interval", "box", "simplex"])
def test_max_shift_log_slacks_match_mpmath(base):
    """The max-shifted logsumexp of log_slacks against 50 digits, at
    ordinary targets and at targets where some log ell is about -600.
    Each log ell_k is within 2 ulps of 1 + the largest term forming
    r = xi @ ratio_map; on the interval and the box, where r = -2 xi is
    exact, within 2 ulps of max(1, |log ell_k|).  Each block's slacks
    sum to Lambda_B: their logsumexp is log Lambda_B within 4 ulps of
    max(1, |log Lambda_B|)."""
    mpmath = pytest.importorskip("mpmath")
    frame = simplex_product(base)
    n = base.dim
    far = np.array([[-300.0] * n, [300.0] * n, [-300.0] + [0.0] * (n - 1),
                    [300.0] + [-300.0] * (n - 1), [0.5] + [300.0] * (n - 1)])
    rng = np.random.default_rng(7)
    xi = np.concatenate([2.0 * rng.standard_normal((40, n)),
                         far + rng.standard_normal(far.shape)])
    log_ell = frame.log_slacks(xi)
    eps = np.finfo(float).eps
    terms = 1.0 + (np.abs(xi) @ np.abs(frame.ratio_map)).max(axis=1)
    exact_r = len(frame.blocks) == n  # one facet kept per block: r = -2 xi
    deepest = 0.0
    with mpmath.workdps(50):
        for row, got, scale in zip(xi, log_ell, terms):
            ref = _log_slacks_mp(mpmath, frame, base, row)
            deepest = min(deepest, float(min(ref)))
            for v, w in zip(got, ref):
                err = float(abs(mpmath.mpf(float(v)) - w))
                assert err <= 2 * eps * scale
                if exact_r:
                    assert err <= 2 * eps * max(1.0, abs(float(w)))
            for block in frame.blocks:
                log_sum = _log_lambda(mpmath, base, block)
                lse = mpmath.log(sum(mpmath.exp(mpmath.mpf(float(got[k])))
                                     for k in block))
                assert abs(lse - log_sum) <= 4 * eps * max(1, abs(log_sum))
    assert deepest < -590.0


@pytest.mark.parametrize("base", [CHOPPED, HIRZEBRUCH],
                         ids=["chopped", "hirzebruch"])
def test_ray_refuses_a_base_that_is_no_simplex_product(monkeypatch, base):
    """A corner-chopped square and a Hirzebruch trapezoid are no simplex
    products: Ray raises NumericalFailure, naming the facet count, before
    any grid is built.  The same counter sees the square's one grid."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return build_grid(*args, **kwargs)

    monkeypatch.setattr(analysis, "build_grid", counted)
    cfg = normalize(make_config(base, [((1, 0), 0)]), "min_zero")
    with pytest.raises(NumericalFailure,
                       match=f"simplex-product base .* has "
                             f"{len(base.halfspaces)} facets"):
        Ray(cfg, beta=10.0, tau_max=1.0)
    assert calls == []
    Ray(SQUARE, beta=10.0, tau_max=1.0)
    assert len(calls) == 1


# -- curvature ----------------------------------------------------------------


def test_abreu_interval_raw_and_calibrated():
    u0 = guillemin_potential(interval(0, 1))
    pts = np.linspace(0.05, 0.95, 19)[:, None]
    cal = abreu_scalar_curvature(u0, pts)
    assert np.max(np.abs(cal / KAPPA - 4.0)) < 1e-7
    assert np.max(np.abs(cal - 2.0)) < 1e-7


@pytest.mark.parametrize("base,n_mu", [
    (interval(0, 1), 2.0),
    (box(2), 4.0),
    (unit_simplex(2), 6.0),
])
def test_mean_curvature_equals_n_mu(base, n_mu):
    u0 = guillemin_potential(base)
    grid = bulk_grid(flat(base))
    s_field = abreu_scalar_curvature(u0, grid.points)
    mean = integral(grid, s_field) / float(volume_data(base).volume)
    assert abs(mean - n_mu) < 1e-10 * n_mu


SIMPLEX_PRODUCTS = [interval(Fraction(1, 2), 3), box(2), box(2, side=2),
                    construct(vertices=[(0, 0), (1, 0), (1, 3), (0, 3)]),
                    unit_simplex(2),
                    construct(vertices=[(0, 0), (1, 0), (1, 1)]),
                    construct(vertices=[(0, 0), (2, 0), (3, 1), (1, 1)])]


@pytest.mark.parametrize("base", SIMPLEX_PRODUCTS + [HIRZEBRUCH],
                         ids=["interval", "square", "box2", "rect13",
                              "simplex", "triangle", "sheared", "hirzebruch"])
def test_guillemin_curvature_is_constant_on_simplex_products(base):
    """Route (b) reads L(g_beta) as half the integral of
    tr(D2u0^-1 D2g_beta), which holds because u0 has constant scalar
    curvature S0 = sigma(dP) / vol P on every base a Ray accepts: within
    1e-12 relative (2.4e-13 measured) at the depth-20 grid's nodes whose
    slacks are all at least 1e-2 (next to a slanted facet the float
    reference itself cancels: 5.82 to 6.28 on the unit simplex).  The
    Hirzebruch trapezoid, which a Ray refuses, is off by 0.48."""
    u0 = guillemin_potential(base)
    pts = build_grid(flat(base), 20).points
    pts = pts[(u0.slacks(pts) >= 1e-2).all(axis=1)]
    vd = volume_data(base)
    s0 = float(vd.boundary_sigma_volume / vd.volume)
    off = np.max(np.abs(abreu_scalar_curvature(u0, pts) / s0 - 1.0))
    if simplex_product(base) is None:
        assert off > 0.4
    else:
        assert off < 1e-12


def test_ricci_reference_interval_closed_form():
    u0 = guillemin_potential(interval(0, 1))
    pts = np.concatenate([np.linspace(0.1, 0.9, 9),
                          [1e-6, 1e-13]])[:, None]
    ric = ricci_reference(u0, pts)[:, 0, 0]
    exact = 4.0 * pts[:, 0] * (1.0 - pts[:, 0])
    assert np.max(np.abs(ric - exact) / (1.0 + exact)) < 1e-10


def _ricci_chain_rule_longdouble(u0, pts):
    """The dual-coordinate Hessian of (1/2) log det H through dense
    x-derivative tensors of H, evaluated in np.longdouble."""
    ld = np.longdouble
    nu = u0.normals.astype(ld)
    w = 1 / (u0.offsets.astype(ld)[None, :] - pts.astype(ld) @ nu.T)
    outer = nu[:, :, None] * nu[:, None, :]
    hess = 0.5 * np.einsum("nk,kij->nij", w, outer)
    det = hess[:, 0, 0] * hess[:, 1, 1] - hess[:, 0, 1] * hess[:, 1, 0]
    hinv = np.empty_like(hess)
    hinv[:, 0, 0], hinv[:, 1, 1] = hess[:, 1, 1] / det, hess[:, 0, 0] / det
    hinv[:, 0, 1], hinv[:, 1, 0] = -hess[:, 0, 1] / det, -hess[:, 1, 0] / det
    dh = 0.5 * np.einsum("nk,km,kij->nmij", w ** 2, nu, outer)
    d2h = np.einsum("nk,kl,km,kij->nlmij", w ** 3, nu, nu, outer)
    grad = np.einsum("nij,nlji->nl", hinv, dh)
    hdh = np.einsum("nia,nlab->nlib", hinv, dh)
    d2v = np.einsum("nij,nlmji->nlm", hinv, d2h) \
        - np.einsum("nlij,nmji->nlm", hdh, hdh)
    dxm = np.einsum("njl,nlm->nmj", hinv, d2v) \
        - np.einsum("nja,nmab,nbl,nl->nmj", hinv, dh, hinv, grad)
    a = np.einsum("nkm,nmj->njk", hinv, dxm)
    return 0.25 * (a + a.transpose(0, 2, 1))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is no wider than float64")
@pytest.mark.parametrize("slack", [1e-2, 1e-3, 1e-4])
def test_ricci_reference_near_slanted_facet(slack):
    """Near the simplex's hypotenuse the slack terms of order w^3 and
    w^4 nearly cancel; the facet-space assembly keeps 1e-8 relative
    accuracy down to slack 1e-4."""
    u0 = guillemin_potential(unit_simplex(2))
    t = np.linspace(0.1, 0.9, 9) * (1.0 - slack)
    pts = np.column_stack([t, 1.0 - slack - t])
    ric = ricci_reference(u0, pts)
    ref = _ricci_chain_rule_longdouble(u0, pts)
    err = np.abs(ric - ref).reshape(len(pts), -1).max(axis=1)
    scale = np.abs(ref).reshape(len(pts), -1).max(axis=1)
    assert float(np.max(err / scale)) < 1e-8


@pytest.mark.parametrize("base", [box(2), unit_simplex(2)])
def test_curvature_consistency_identity(base):
    """S equals n MD(ricci, G^(n-1)) / det G: ties the Ricci field to
    Abreu's formula, two closed forms assembled differently, on every
    node of the bulk grid, collar included (slacks down to 4e-5)."""
    u0 = guillemin_potential(base)
    pts = bulk_grid(flat(base)).points
    s_abreu = abreu_scalar_curvature(u0, pts)
    ric = ricci_reference(u0, pts)
    hess = u0.hessian(pts)
    ginv = np.linalg.inv(hess)
    s_alg = 2.0 * mixed_discriminant(ric, ginv) / np.linalg.det(ginv)
    assert np.max(np.abs(s_abreu - s_alg) / (1.0 + np.abs(s_alg))) < 1e-9


_D1 = ((1 / 12, -2.0), (-8 / 12, -1.0), (8 / 12, 1.0), (-1 / 12, 2.0))
_D2 = ((-1 / 12, -2.0), (16 / 12, -1.0), (-30 / 12, 0.0), (16 / 12, 1.0),
       (-1 / 12, 2.0))


def _abreu_by_differences(potential, pts, h):
    """-kappa sum_jk d_j d_k (H^-1)_jk by 4th-order central differences
    with per-node, per-axis steps h."""
    def inv_hess(j, k, shift_j, shift_k=0.0):
        z = pts.copy()
        z[:, j] += shift_j * h[:, j]
        z[:, k] += shift_k * h[:, k]
        return _inv_small(potential.hessian(z))[:, j, k]

    dim = pts.shape[1]
    total = np.zeros(len(pts))
    for j in range(dim):
        total += sum(c * inv_hess(j, j, o) for c, o in _D2) / h[:, j] ** 2
        for k in range(j + 1, dim):
            total += 2.0 * sum(cj * ck * inv_hess(j, k, oj, ok)
                               for cj, oj in _D1 for ck, ok in _D1) \
                / (h[:, j] * h[:, k])
    return -KAPPA * total


@pytest.mark.parametrize("cfg,beta,s", [
    (KINK, 60.0, 0.01),
    (KINK, 60.0, 1.0),
    (KINK, 60.0, 6.0),
    (SQUARE3, 10.0, 1.0),
    (SQUARE3, 40.0, 1.0),
], ids=["kink-s0.01", "kink-s1", "kink-s6", "square3-beta10",
        "square3-beta40"])
def test_abreu_pl_terms_match_differences(cfg, beta, s):
    """The softmax-cumulant terms of Abreu's formula against differences
    of the inverse Hessian on every node of the bulk grid, built on the
    cells of g.  The step along each axis stays inside one crease feature
    (1/(64 beta)) and inside the polytope, limited by the facets that
    axis crosses: a node deep in one facet's collar keeps a wide step
    along that facet, where a step shrunk to the collar would leave
    rounding of order eps / h^2.  The gap left is the stencil's own
    error, largest (about 6e-6) on the collar nodes of the square at
    beta = 40."""
    u0 = guillemin_potential(cfg.base)
    pot = ShiftedPotential(u0, SmoothedPL.from_fn(cfg.g, beta), s)
    pts = bulk_grid(cfg.g, crease_ladder_depth(beta, 1.0)).points
    reach = np.abs(u0.normals).sum(axis=1).max()
    slacks = u0.slacks(pts)
    h = np.column_stack([
        np.minimum(np.minimum(1e-3, 0.15 * slacks[:, axis != 0].min(axis=1)
                              / reach), 1.0 / (64.0 * beta))
        for axis in u0.normals.T])
    exact = abreu_scalar_curvature(pot, pts)
    ref = _abreu_by_differences(pot, pts, h)
    gap = np.abs(exact - ref) / (1.0 + np.abs(ref))
    assert np.median(gap) < 1e-7
    assert np.max(gap) < 2e-5


def _rescaled_errors(mpmath, slack, tau, g):
    """Relative errors of a rung's shares p(x), sum_k step_k, lambda .
    step, pair weights omega and det D2u0(x)^-1 at five nodes y next to
    the simplex's hypotenuse, against 50 digits from the same float
    slacks at y (xi formed from them in 50 digits)."""
    base = unit_simplex(2)
    cfg = normalize(make_config(base, [(g, 0)]), "min_zero")
    ray = Ray(cfg, beta=10.0 * tau, tau_max=tau)
    frame, u0 = ray.frame, ray.u0
    y = np.array([[t * (1 - slack), (1 - t) * (1 - slack)]
                  for t in np.linspace(0.1, 0.9, 5)])
    ray.grid = analysis.Grid(points=y, weights=np.ones(len(y)))
    f = rung_fields(ray, tau, slice(None))
    mpf, errs = mpmath.mpf, {}
    with mpmath.workdps(50):
        for i, ell in enumerate(u0.slacks(y)):
            xi = [-sum((1 + mpmath.log(mpf(l))) * int(nu[j])
                       for l, nu in zip(ell, u0.normals)) / 2
                  for j in range(2)]
            at_y = _log_slacks_mp(mpmath, frame, base, xi)
            at_x = _log_slacks_mp(mpmath, frame, base, [
                v + tau * mpf(float(d)) for v, d in zip(xi, f.grad[0])])
            step = [a - b for a, b in zip(at_x, at_y)]
            p = [mpmath.exp(v) / mpf(float(lam))  # Lambda_B = 1 here
                 for v, lam in zip(at_x, frame.sums)]
            k, l = frame.pairs
            refs = {"shares": (f.shares[:, i], p),
                    "sum step": ([f.steps[0, i]], [sum(step)]),
                    "lambda step": ([f.steps[1, i]], [sum(
                        mpf(float(c)) * v for c, v in zip(u0.offsets, step))]),
                    "omega": (f.weight[:, i], [mpf(float(c)) * p[a] * p[b]
                              for c, a, b in zip(frame.pair_scale, k, l)]),
                    "det": ([f.inverse_det[i]],
                            [mpf(float(frame.det_scale)) * mpmath.fprod(p)])}
            for name, (got, ref) in refs.items():
                err = max(float(abs(mpf(float(a)) - b) / abs(b))
                          for a, b in zip(got, ref))
                errs[name] = max(errs.get(name, 0.0), err)
    return errs


@pytest.mark.parametrize("g", [(1, 0), (3, 0)], ids=["x1", "3x1"])
@pytest.mark.parametrize("tau", [1.0, 12.0])
@pytest.mark.parametrize("slack", [1e-8, 1e-12])
def test_rescaled_shares_near_the_hypotenuse_match_mpmath(slack, tau, g):
    """A rung's x is y's shares rescaled per block (SimplexProduct.rescaled):
    p(x), the step sums, omega and det D2u0(x)^-1 keep their digits next
    to the slanted facet, at slack 1e-8 and 1e-12, tau 1 and 12, on g = x1
    and F9's steep g = 3 x1.  Worst measured errors: shares 2.4e-16, sum
    step 1.0e-15, lambda . step 2.9e-16, omega 3.6e-16, det 5.1e-16
    relative; each bound is at most 4 times its worst."""
    mpmath = pytest.importorskip("mpmath")
    bounds = {"shares": 9e-16, "sum step": 4e-15, "lambda step": 1.1e-15,
              "omega": 1.4e-15, "det": 2e-15}
    for name, err in _rescaled_errors(mpmath, slack, tau, g).items():
        assert err <= bounds[name], (name, err)


@pytest.mark.parametrize("base", [
    unit_simplex(2), construct(vertices=[(0, 0), (2, 0), (0, 2)]),
    construct(vertices=[(0, 0), (2, 0), (3, 1), (1, 1)]), box(2, side=2)],
    ids=["simplex", "triangle-2", "parallelogram", "box-2"])
def test_ricci_mixed_discriminant_is_the_mean_times_det(base):
    """MD(Ric0, D2u0^-1) = ricci_mean det D2u0^-1 (Ric0 = sum_B c_B G0_B)
    against the nonnegative pair sum sum_pq c_p omega_p omega_q M_pq of
    the frame's pair vectors, M = _pair_cross, at points spread over the
    polytope, to 1.7e-15 relative (the worst measured is 4.4e-16 on each
    base), and against
    the mixed discriminant of the 2 x 2 fields (tests/gens.py) where
    their entries do not cancel."""
    frame = simplex_product(base)
    rng = np.random.default_rng(3)
    xi = 3.0 * rng.standard_normal((400, 2))
    log_ell = frame.log_slacks(xi)
    weight = frame.weights(shares(frame, log_ell))
    w = frame.pair_vectors
    ref = analysis._pair_dot(frame.ricci_scale[:, None] * weight,
                             analysis._pair_cross(w, w) @ weight)
    got = frame.ricci_mean * frame.inverse_det(shares(frame, log_ell))
    assert np.max(np.abs(got / ref - 1.0)) <= 1.7e-15
    g0, ricci = dual_fields(frame, log_ell)
    ok = np.exp(log_ell).min(axis=1) > 1e-3
    assert ok.sum() > 100
    assert np.allclose(got[ok], mixed_discriminant(ricci, g0)[ok],
                       rtol=1e-12, atol=0.0)


def test_an_exact_rung_forms_no_log_slacks_and_a_ray_no_gradient(
        monkeypatch):
    """Building a Ray takes no grad u0 over its grid (check_reach reads
    none), and Ray.states on an exact ray with no alpha runs with
    SimplexProduct.log_slacks refusing: x is y's shares rescaled."""
    def refuse(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setattr(analysis.SymplecticPotential, "gradient", refuse)
    ray = Ray(TRIANGLE, beta=120.0, tau_max=12.0)
    monkeypatch.setattr(analysis.SimplexProduct, "log_slacks", refuse)
    states = ray.states([(t, 10.0 * t) for t in (1.0, 6.0, 12.0)])
    assert all(math.isfinite(st.l_ricci) for st in states)
