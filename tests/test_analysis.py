"""Numerical substrate: potentials, grids, transport, curvature.

Closed-form oracles on the unit interval (Guillemin potential and the
affine ray through it) pin the heavy machinery; the float-wall cases
near facets are asserted at the accuracy float64 actually supports.
"""
import math
import re

import numpy as np
import pytest

import kstab.analysis as analysis
from kstab.analysis import (
    KAPPA,
    Ray,
    _NEWTON_BLOCK,
    ShiftedPotential,
    SmoothedPL,
    abreu_scalar_curvature,
    build_grid,
    bulk_grid,
    collar_depth_for,
    crease_ladder_depth,
    crease_points,
    fan_grid,
    guillemin_potential,
    line_grid,
    newton_transport,
    _gauss_rule,
    _inv_small,
    _logdet_small,
    ricci_reference,
)
from kstab.errors import NewtonDivergence, NonDelzant
from kstab.functionals import mixed_discriminant
from kstab.plconfig import make_config, normalize
from kstab.polytope import box, construct, interval, unit_simplex, volume_data


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


def interval_config(pieces, mode="min_zero"):
    return normalize(make_config(interval(0, 1), pieces), mode)


AFFINE = interval_config([((1,), 0)])          # g = x
KINK = interval_config([((1,), 0), ((-1,), 1)])  # g = max(x, 1-x)
SQUARE3 = normalize(make_config(box(2), [((1, 0), 0), ((0, 1), 0),
                                         ((-1, -1), 1)]), "min_zero")


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
    hess = sm.hessian(pts)
    assert same_bits(hess, np.zeros((len(pts), 2, 2)) if n_pieces == 1
                     else sm.weights_hessian(w))


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


def test_crease_ladder_depth_tracks_schedule():
    assert crease_ladder_depth(10.0, 1.0) == 8
    assert crease_ladder_depth(120.0, 12.0) >= 9
    assert crease_ladder_depth(1e9, 1e9) == 22


@pytest.mark.parametrize("base", [interval(0, 1), interval(-2, 1),
                                  box(2), unit_simplex(2)])
def test_grid_weights_sum_to_volume(base):
    grid = build_grid(base, depth=14)
    vol = float(volume_data(base).volume)
    assert abs(grid.integrate(np.ones(grid.size)) - vol) < 1e-12 * vol
    # all nodes strictly interior
    u0 = guillemin_potential(base)
    assert u0.slacks(grid.points).min() > 0.0


def test_grid_integrates_polynomials():
    grid = build_grid(interval(0, 1), depth=12)
    x = grid.points[:, 0]
    assert abs(grid.integrate(x ** 5) - 1.0 / 6.0) < 1e-13
    tri = build_grid(unit_simplex(2), depth=12)
    xy = tri.points[:, 0] * tri.points[:, 1]
    assert abs(tri.integrate(xy) - 1.0 / 24.0) < 1e-10


def test_gauss_rule_is_cached_leggauss():
    for order in (4, 6, 8, 10, 12, 16):
        x, w = _gauss_rule(order)
        ref_x, ref_w = np.polynomial.legendre.leggauss(order)
        assert same_bits(x, ref_x) and same_bits(w, ref_w)
        assert _gauss_rule(order)[0] is x
        for arr in (x, w):
            with pytest.raises(ValueError):
                arr[0] = 0.0


def test_grids_match_fresh_leggauss_panels(monkeypatch):
    def build():
        return [line_grid(interval(0, 1), 46, creases=(0.25, 0.625),
                          crease_depth=22),
                fan_grid(box(2), 34), fan_grid(unit_simplex(2), 34)]

    def fresh_panel(a, b, order):
        x, w = np.polynomial.legendre.leggauss(order)
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        return mid + half * x, half * w

    cached = build()
    monkeypatch.setattr(analysis, "_gauss_panel", fresh_panel)
    for grid, ref in zip(cached, build()):
        assert same_bits(grid.points, ref.points)
        assert same_bits(grid.weights, ref.weights)


def test_crease_ladder_adds_panels():
    coarse = line_grid(interval(0, 1), depth=10, creases=(0.5,),
                       crease_depth=8)
    fine = line_grid(interval(0, 1), depth=10, creases=(0.5,),
                     crease_depth=14)
    assert fine.size > coarse.size
    assert abs(fine.integrate(np.ones(fine.size)) - 1.0) < 1e-12


def test_crease_points_of_kink():
    from fractions import Fraction
    assert crease_points(KINK.g) == (Fraction(1, 2),)
    assert crease_points(AFFINE.g) == ()


def test_rejects_unsupported_dimension():
    with pytest.raises(NonDelzant):
        build_grid(box(3), depth=8)


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
    back, _ = newton_transport(ray.u0, ray.potential(4.0).gradient(moved),
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
    x_inv = ray.inverse_transport(2.0)
    exact_inv = pts[:, 0] / (q + pts[:, 0] * (1.0 - q))
    ok = np.minimum.reduce([pts[:, 1], 1 - pts[:, 1],
                            exact_inv, 1 - exact_inv]) > 1e-8
    assert np.max(np.abs(x_inv[:, 1] - pts[:, 1])[ok]) < 1e-8
    assert np.max(np.abs(x_inv[:, 0] - exact_inv)[ok]) < 1e-8


def test_newton_divergence_reports_node_count():
    u0 = guillemin_potential(interval(0, 1))
    targets = np.full((5, 1), 30.0)
    targets[3] = 35.0
    start = np.full((5, 1), 0.5)
    with pytest.raises(NewtonDivergence) as err:
        newton_transport(u0, targets, start, max_iter=2)
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


def test_newton_rows_are_independent_of_order_and_blocks():
    """Rows settling at different iterations are retired to their own
    slots: a permuted input gives the permuted output bit for bit."""
    u0 = guillemin_potential(box(2))
    rng = np.random.default_rng(7)
    n = _NEWTON_BLOCK + 1500
    targets = rng.uniform(-2.0, 2.0, (n, 2))
    # a third of the coordinates ask for slacks of 2-115 float spacings
    # at the facet x_i = 1: those rows saturate on the float wall after
    # 7-80 iterations, the others converge within 10
    wall = rng.random((n, 2)) < 1.0 / 3.0
    targets[wall] = rng.uniform(16.0, 18.0, wall.sum())
    start = rng.uniform(0.2, 0.8, (n, 2))
    z, hess = newton_transport(u0, targets, start)
    assert np.all((z > 0.0) & (z < 1.0))
    assert np.array_equal(hess, u0.hessian(z))
    assert np.max(z[wall]) > 1.0 - 1e-15
    perm = rng.permutation(n)
    z_p, hess_p = newton_transport(u0, targets[perm], start[perm])
    assert np.array_equal(z_p, z[perm])
    assert np.array_equal(hess_p, hess[perm])


# -- ray states ---------------------------------------------------------------


def _log_volume_ratio(ray, tau):
    """log(omega_phi^n / omega^n) at the reference nodes."""
    moved = ray.transport(tau)
    return ray.logdet0 - _logdet_small(ray.potential(tau).hessian(moved))


def test_state_at_zero_is_identity():
    ray = Ray(KINK, beta=20.0, tau_max=2.0)
    st = ray.state(0.0)
    assert np.all(st.phi == 0.0)
    lvr = _log_volume_ratio(ray, 0.0)
    assert np.all(lvr == 0.0)
    mass = ray.grid.integrate(np.exp(lvr))
    assert abs(mass / float(volume_data(KINK.base).volume) - 1.0) < 1e-12


@pytest.mark.parametrize("tau", [1.0, 4.0, 8.0])
def test_mass_ratio_is_one(tau):
    """Total mass of the transported volume form is conserved."""
    ray = Ray(KINK, beta=20.0, tau_max=8.0)
    mass = ray.grid.integrate(np.exp(_log_volume_ratio(ray, tau)))
    assert abs(mass / float(volume_data(KINK.base).volume) - 1.0) < 1e-6


def test_phi_dot_bounded_by_g_range():
    ray = Ray(KINK, beta=20.0, tau_max=6.0)
    phi_dot = -ray.smooth.value(ray.transport(6.0))
    overshoot = math.log(2.0) / 20.0   # logsumexp excess at the kink
    assert phi_dot.max() <= 0.0 + 1e-12           # min g = 0 (min_zero)
    assert phi_dot.min() >= -0.5 - overshoot - 1e-12


def test_phi_convex_in_tau():
    ray = Ray(AFFINE, beta=10.0, tau_max=3.0)
    idx = np.argmin(np.abs(ray.grid.points[:, 0] - 0.5))
    phis = [ray.state(t).phi[idx] for t in (1.0, 2.0, 3.0)]
    assert phis[1] <= 0.5 * (phis[0] + phis[2]) + 1e-10


# -- inverse transport --------------------------------------------------------


def test_inverse_transport_inverts_forward():
    ray = Ray(AFFINE, beta=10.0, tau_max=4.0)
    x_inv = ray.inverse_transport(4.0)[:, 0]
    y = ray.grid.points[:, 0]
    q = math.exp(-8.0)
    # y = x q / (1 - x + x q)  <=>  x = y / (q + y (1 - q))
    exact = y / (q + y * (1.0 - q))
    resolvable = np.minimum(exact, 1.0 - exact) > 1e-8
    assert np.max(np.abs(x_inv - exact)[resolvable]) < 1e-8


def test_inverse_transport_saturates_gracefully_at_float_wall():
    """Nodes mapping within one ulp of a facet stay finite and ordered."""
    ray = Ray(AFFINE, beta=10.0, tau_max=12.0)
    x_inv = ray.inverse_transport(12.0)[:, 0]
    assert np.all(np.isfinite(x_inv))
    assert np.all(x_inv <= 1.0)
    assert np.all(x_inv >= 0.0)
    y = ray.grid.points[:, 0]
    assert np.all(np.diff(x_inv[np.argsort(y)]) >= -1e-12)


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
    grid = bulk_grid(base)
    s_field = abreu_scalar_curvature(u0, grid.points)
    mean = grid.integrate(s_field) / float(volume_data(base).volume)
    assert abs(mean - n_mu) < 1e-10 * n_mu


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
    pts = bulk_grid(base).points
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
    with per-node step h."""
    def inv_hess(j, k, shift_j, shift_k=0.0):
        z = pts.copy()
        z[:, j] += shift_j * h
        z[:, k] += shift_k * h
        return _inv_small(potential.hessian(z))[:, j, k]

    dim = pts.shape[1]
    total = np.zeros(len(pts))
    for j in range(dim):
        total += sum(c * inv_hess(j, j, o) for c, o in _D2)
        for k in range(j + 1, dim):
            total += 2.0 * sum(cj * ck * inv_hess(j, k, oj, ok)
                               for cj, oj in _D1 for ck, ok in _D1)
    return -KAPPA * total / h ** 2


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
    of the inverse Hessian on every node of the crease-refined bulk grid.
    The step stays inside one crease feature (1/(64 beta)) and inside
    the polytope; the gap left is the stencil's own error, largest
    (about 6e-6) on the collar nodes of the square at beta = 40."""
    u0 = guillemin_potential(cfg.base)
    pot = ShiftedPotential(u0, SmoothedPL.from_fn(cfg.g, beta), s)
    pts = bulk_grid(cfg.base, creases=crease_points(cfg.g),
                    crease_depth=crease_ladder_depth(beta, 1.0)).points
    reach = np.abs(u0.normals).sum(axis=1).max()
    h = np.minimum(np.minimum(1e-3, 0.15 * u0.slacks(pts).min(axis=1) / reach),
                   1.0 / (64.0 * beta))
    exact = abreu_scalar_curvature(pot, pts)
    ref = _abreu_by_differences(pot, pts, h)
    gap = np.abs(exact - ref) / (1.0 + np.abs(ref))
    assert np.median(gap) < 1e-7
    assert np.max(gap) < 2e-5
