"""Energy functionals along rays, pinned to closed-form interval oracles.

For the affine ray g = x on [0,1] through the Guillemin reference the
Legendre transport is elementary (x_tau = x q / (1 - x + x q) with
q = e^{-2 tau}), which yields in closed form

    AM(tau)  = -tau
    Ent(tau) = 2 tau (1+q)/(1-q) - 2
    I(tau)   =   tau (1+q)/(1-q) - 1

and on the square with the same g everything doubles by the product
structure.  These pin the transported-coordinate quadrature; the PL
cases are covered by route consistency and slope convergence toward
the exact invariants.
"""
import dataclasses
import gc
import math
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

import kstab.analysis
import kstab.functionals
from kstab.analysis import (_BLOCK, Ray, SmoothedPL, _inv_small,
                            abreu_scalar_curvature, alpha_frame, bulk_grid,
                            crease_ladder_depth, fan_grid,
                            guillemin_potential, newton_transport,
                            ricci_reference, simplex_product)
from kstab.errors import (DimensionMismatch, NormalizationRequired,
                          NumericalFailure, RouteMismatch)
from kstab.functionals import (
    ROUTE_TOL,
    EnergyReport,
    _route_b,
    adaptive_simpson,
    am_energy,
    energy_report,
    l1_norm_path,
    mabuchi,
)
from kstab.invariants import (donaldson_futaki, minimum_norm, slope_mu,
                              twisted_weights)
from kstab.plconfig import make_config, normalize
from kstab.polytope import box, corner_chop, interval, unit_simplex, volume_data
from kstab.slopes import Schedule, ladder
from gens import (corner_coords, half_trace, inverse_hessian,
                  logdet_small, mixed_discriminant, pair_field)

F = Fraction


def interval_config(pieces, mode="min_zero"):
    return normalize(make_config(interval(0, 1), pieces), mode)


AFFINE = interval_config([((1,), 0)])
KINK = interval_config([((1,), 0), ((-1,), 1)])
STEEP = interval_config([((-3,), 0), ((3,), -3)])


def ent_exact(tau):
    q = math.exp(-2.0 * tau)
    return 2.0 * tau * (1.0 + q) / (1.0 - q) - 2.0


def i_exact(tau):
    q = math.exp(-2.0 * tau)
    return tau * (1.0 + q) / (1.0 - q) - 1.0


# -- small helpers ------------------------------------------------------------


def test_mixed_discriminant_normalization():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(4, 2, 2))
    a = m @ m.transpose(0, 2, 1) + 0.1 * np.eye(2)
    assert np.allclose(mixed_discriminant(a, a), np.linalg.det(a))
    eye = np.tile(np.eye(2), (4, 1, 1))
    assert np.allclose(mixed_discriminant(eye, a),
                       0.5 * np.trace(a, axis1=1, axis2=2))
    b = m.transpose(0, 2, 1) @ m + 0.1 * np.eye(2)
    assert np.allclose(mixed_discriminant(a, b), mixed_discriminant(b, a))


def test_adaptive_simpson_polynomial_and_layer():
    val, err = adaptive_simpson(lambda s: s * s, 1.0)
    assert abs(val - 1.0 / 3.0) < 1e-12
    assert err >= 0.0
    # boundary layer: local bisection must find the mass near s = 0
    val, _ = adaptive_simpson(lambda s: 100.0 * math.exp(-100.0 * s), 8.0)
    assert abs(val - (1.0 - math.exp(-800.0))) < 1e-5


# -- energy reports -----------------------------------------------------------


def test_all_functionals_vanish_at_tau_zero():
    ray = Ray(KINK, beta=20.0, tau_max=2.0)
    rep = energy_report(ray.state(0.0, alpha=interval(0, 2)))
    assert rep == EnergyReport(tau=0.0, am=0.0, am_direct=0.0, i_val=0.0,
                               j_val=0.0, entropy=0.0, l_alpha=0.0,
                               err_estimate=0.0)
    assert mabuchi(ray.state(0.0)).value == 0.0


def test_am_is_exactly_linear():
    ray = Ray(AFFINE, beta=10.0, tau_max=4.0)
    slopes = [am_energy(ray.state(t)) / t for t in (1.0, 2.0, 4.0)]
    assert max(slopes) - min(slopes) < 1e-12
    assert abs(slopes[0] - (-1.0)) < 1e-9   # -(n+1)! * integral of x


@pytest.mark.parametrize("tau", [1.0, 4.0, 8.0])
def test_interval_affine_closed_forms(tau):
    ray = Ray(AFFINE, beta=10.0, tau_max=8.0)
    rep = energy_report(ray.state(tau))
    assert abs(rep.am - (-tau)) < 1e-12
    assert abs(rep.entropy - ent_exact(tau)) < 1e-8 * (1.0 + ent_exact(tau))
    assert abs(rep.i_val - i_exact(tau)) < 1e-8 * (1.0 + i_exact(tau))
    assert abs(rep.am - rep.am_direct) < 1e-7 * (1.0 + abs(rep.am))


def test_square_affine_doubles_by_product_structure():
    cfg = normalize(make_config(box(2), [((1, 0), 0)]), "min_zero")
    ray = Ray(cfg, beta=10.0, tau_max=2.0)
    rep = energy_report(ray.state(2.0))
    assert abs(rep.am - (-6.0)) < 1e-12
    assert abs(rep.i_val - 2.0 * i_exact(2.0)) < 1e-6
    assert abs(rep.entropy - 2.0 * ent_exact(2.0)) < 1e-6
    assert abs(rep.am - rep.am_direct) < 1e-6 * (1.0 + abs(rep.am))


def test_square_transported_frame_matches_product_values():
    """On the square with g = x1 every energy is a 1D value by product
    structure: integral phi = (I_1D - tau) / 2 (AM_1D = -tau) and
    E_Ric = Ent_1D - 2 mu tau.  Read over the inverse-transported nodes of
    the tau_max 12 grid, integral phi holds to 1e-8 at every rung; up to
    tau = 8, where route (a)'s float wall has not set in, the direct AM
    holds to 2e-8 and E_Ric to 3e-8."""
    ray = Ray(SQUARE, beta=10.0, tau_max=12.0)
    mu = float(slope_mu(SQUARE.base))
    for tau in (1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0):
        state = ray.state(tau)
        f = ray.fields(tau, slice(None))  # every node
        phi_int = ray.grid.integrate(f.phi_y * np.exp(-f.log_ratio))
        assert abs(phi_int - 0.5 * (i_exact(tau) - tau)) < 1e-8, tau
        if tau <= 8.0:
            rep = energy_report(state)
            assert abs(rep.am_direct - rep.am) <= 2e-8, tau
            l_ric = mabuchi(state).l_ricci
            assert abs(l_ric - (ent_exact(tau) - 2.0 * mu * tau)) < 3e-8, tau


@pytest.mark.parametrize("cfg,dim", [(AFFINE, 1), (KINK, 1)])
def test_sandwich_exact_in_dimension_one(cfg, dim):
    ray = Ray(cfg, beta=20.0, tau_max=6.0)
    for tau in (0.5, 2.0, 6.0):
        rep = energy_report(ray.state(tau))
        assert rep.i_val >= 0.0
        assert rep.j_val >= 0.0
        assert rep.i_val == 2.0 * rep.j_val   # bitwise, by construction


def test_sandwich_dimension_two():
    cfg = normalize(make_config(box(2), [((1, 1), 0)]), "min_zero")
    ray = Ray(cfg, beta=10.0, tau_max=3.0)
    for tau in (1.0, 3.0):
        rep = energy_report(ray.state(tau))
        i, j = rep.i_val, rep.j_val
        assert i >= 0.0 and j >= 0.0
        assert 0.5 * j <= i - j + 1e-9
        assert i - j <= 2.0 * j + 1e-9


def test_path_independence_kink():
    ray = Ray(KINK, beta=40.0, tau_max=8.0)
    for tau in (1.0, 8.0):
        rep = energy_report(ray.state(tau))
        assert abs(rep.am - rep.am_direct) < 1e-6 * (1.0 + abs(rep.am))


# -- Mabuchi ------------------------------------------------------------------


def test_mabuchi_vanishes_on_affine_ray():
    """Product configuration on a constant-curvature reference: route
    (b) vanishes (L(g) = 0 and D2g = 0), and route (a) must agree."""
    ray = Ray(AFFINE, beta=10.0, tau_max=4.0)
    mb = mabuchi(ray.state(4.0))
    assert abs(mb.value) < 1e-8
    assert abs(mb.route_a - mb.route_b) < 1e-8
    assert donaldson_futaki(AFFINE) == 0


def _node_hessians(ray):
    """D2u0, D2g_beta and g_beta at every grid node, whole: a Ray forms
    them only block by block.  Reference only."""
    pts = ray.grid.points
    return ray.u0.hessian(pts), ray.smooth.hessian(pts), \
        ray.fields(0.0, slice(None)).g


def _phi_dot_pairing(ray, s, a_field, hessians):
    """n * <phi_dot, a ^ w_s^(n-1)> at the grid nodes for the field a_field.

    In moment coordinates this is -n * n! * integral of
    g_beta * MD(a_field, G_s) * det H_s, with H_s the Hessian of u_s,
    from the (D2u0, D2g_beta, g_beta) of _node_hessians.
    """
    n = ray.cfg.dim
    h0, g_hess, g_vals = hessians
    h_s = h0 + s * g_hess
    if n == 1:
        md = a_field[:, 0, 0]
        det = h_s[:, 0, 0]
    else:
        md = mixed_discriminant(a_field, _inv_small(h_s))
        det = np.exp(logdet_small(h_s))
    return -n * math.factorial(n) * ray.grid.integrate(g_vals * md * det)


def _energy_path(integrand, taus):
    """(value, Simpson error) at each tau of the integral of integrand
    over s from 0, one adaptive Simpson segment per tau."""
    out, acc, err, lower = [], 0.0, 0.0, 0.0
    for tau in taus:
        seg, seg_err = adaptive_simpson(integrand, tau, lower=lower)
        acc, err, lower = acc + seg, err + seg_err, tau
        out.append((acc, err))
    return out


def _ricci_path(ray, taus):
    """Path form of the Ricci energy: the integral over s of
    n * <phi_dot, Ric0 ^ omega_s^(n-1)>, with Ric0 from ricci_reference
    at the inverse-transported points."""
    hessians = _node_hessians(ray)

    def integrand(s):
        x = corner_coords(ray.frame, ray.inverse_transport(s))
        # a slack to x_i <= 1 below the float spacing rounds x_i onto 1:
        # keep it on the last float inside, where ricci_reference is finite
        x = np.minimum(x, np.nextafter(1.0, 0.0))
        return _phi_dot_pairing(ray, s, ricci_reference(ray.u0, x), hessians)
    return _energy_path(integrand, taus)


def _alpha_path(ray, alpha, taus):
    """Path form of L_alpha: the integral over s of
    n * <phi_dot, alpha ^ omega_s^(n-1)>, the alpha field at each node
    from one Newton transport into alpha per Simpson node."""
    u_alpha = guillemin_potential(alpha)
    bary = np.array([[float(c) for c in volume_data(alpha).barycenter]])
    hessians = _node_hessians(ray)
    xi = ray.u0.gradient(ray.grid.points)
    grad = ray.smooth.gradient(ray.grid.points)

    def integrand(s):
        start = np.tile(bary, (ray.grid.size, 1))
        z = newton_transport(u_alpha, xi + s * grad, start)
        return _phi_dot_pairing(ray, s, _inv_small(u_alpha.hessian(z)),
                                hessians)
    return _energy_path(integrand, taus)


def _alpha_theta(ray, f, tau, alpha):
    """alpha's field on the fields f of the rung at tau, rebuilt from the
    pair weights Ray.states reads: the inverse Hessian of alpha's
    Guillemin potential where its gradient is xi + tau * grad g, in
    closed form."""
    frame = alpha_frame(alpha, ray.cfg.dim)
    xi = ray.u0.gradient(ray.grid.points)
    return inverse_hessian(frame, frame.log_slacks(xi + tau * f.grad))


SQUARE = normalize(make_config(box(2), [((1, 0), 0)]), "min_zero")
SQUARE3 = normalize(make_config(box(2), [((1, 0), 0), ((0, 1), 0),
                                         ((-1, -1), 1)]), "min_zero")


@pytest.mark.parametrize("cfg,beta,taus", [
    (AFFINE, 10.0, (1.0, 2.0, 4.0, 8.0)),
    (KINK, 40.0, (1.0, 2.0, 4.0, 8.0)),
    (SQUARE, 10.0, (1.0,)),
], ids=["interval-affine", "interval-kink", "square"])
def test_ricci_energy_endpoint_matches_path(cfg, beta, taus):
    """The endpoint Ricci energy of route (a) is the integral of its
    s-derivative, within the path quadrature's own error estimate."""
    ray = Ray(cfg, beta=beta, tau_max=max(taus))
    endpoint = [mabuchi(ray.state(t)).l_ricci for t in taus]
    reference = _ricci_path(Ray(cfg, beta=beta, tau_max=max(taus)), taus)
    for value, (path, err) in zip(endpoint, reference):
        assert abs(value - path) <= err


def test_mabuchi_transports_only_at_tau(monkeypatch):
    """On an interval the transport at tau is closed-form: the state,
    mabuchi and energy_report solve nothing with Newton."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return newton_transport(*args, **kwargs)

    monkeypatch.setattr(kstab.analysis, "newton_transport", counting)
    ray = Ray(KINK, beta=40.0, tau_max=4.0)
    mabuchi(ray.state(4.0))
    energy_report(ray.state(4.0, alpha=interval(0, 2)))
    assert calls == []


def test_df_rung_integrates_the_entropy_once(monkeypatch):
    """One state pass per rung: Ray.state forms the block fields once
    per block and integrates the entropy there with every other density;
    energy_report and mabuchi run no pass and report that entropy, with
    its bits."""
    blocks = []
    block = Ray._block

    def counted(self, rows, pairing):
        blocks.append(rows)
        return block(self, rows, pairing)

    monkeypatch.setattr(Ray, "_block", counted)
    ray = Ray(SQUARE3, beta=10.0, tau_max=1.0)
    state = ray.state(1.0)
    assert blocks == list(ray.grid.blocks()) and len(blocks) > 1
    rep, mab = energy_report(state), mabuchi(state)
    assert len(blocks) == len(list(ray.grid.blocks()))
    assert rep.entropy == mab.entropy == state.entropy


def test_df_rung_forms_the_pl_hessian_once_per_block(monkeypatch):
    """A PL DF rung (the square with max(x1, x2), tau = 2) forms D2g_beta,
    as the weights of its rank-one terms, once per block across state,
    energy_report and mabuchi, and route (b)'s log det is the state's
    integral of it."""
    calls = []
    hessian_weights = SmoothedPL.hessian_weights

    def counted(self, w):
        calls.append(len(w))
        return hessian_weights(self, w)

    monkeypatch.setattr(SmoothedPL, "hessian_weights", counted)
    cfg = normalize(make_config(box(2), [((1, 0), 0), ((0, 1), 0)]),
                    "min_zero")
    ray = Ray(cfg, beta=20.0, tau_max=2.0)
    state = ray.state(2.0)
    energy_report(state)
    mab = mabuchi(state)
    assert calls == [len(ray.grid.weights[rows]) for rows in ray.grid.blocks()]
    assert len(calls) > 1
    log_det = sum(ray.fields(2.0, rows).log_det @ ray.grid.weights[rows]
                  for rows in ray.grid.blocks())
    assert state.log_det == log_det
    assert _route_b(state)[0] == mab.route_b


def test_rung_path_inverts_no_matrix_field(monkeypatch):
    """From Ray(...) through state, energy_report and mabuchi on two
    rungs, no Hessian field is inverted: D2u0^-1 at x and at the nodes
    comes in closed form from the log-slacks, and every wedge density
    pairs a form with H_tau as sums of pair terms."""
    inversions = []

    def inv_counted(h):
        inversions.append(len(h))
        return _inv_small(h)

    monkeypatch.setattr(kstab.analysis, "_inv_small", inv_counted)
    for cfg in (SQUARE3, SQUARE):
        ray = Ray(cfg, beta=10.0, tau_max=1.0)
        for tau in (0.5, 1.0):
            state = ray.state(tau)
            energy_report(state)
            mabuchi(state)
    assert inversions == []


def _owned_bytes(arrays) -> int:
    """Bytes of the distinct buffers behind arrays: a view counts its
    base once, and a broadcast only the small array it repeats."""
    roots = {}
    for a in arrays:
        while isinstance(a.base, np.ndarray):
            a = a.base
        roots[id(a)] = a.nbytes
    return sum(roots.values())


@pytest.mark.parametrize("cfg,affine", [
    (SQUARE, True), (SQUARE3, False), (AFFINE, True), (KINK, False),
], ids=["square", "square3", "affine", "kink"])
def test_rays_and_states_own_no_matrix_field(cfg, affine):
    """Census of the arrays a Ray and its states own.  The Ray holds no
    grid-length array but grid.points and grid.weights, and a state
    none at all: every field lives in one block of Ray.fields, pair by
    row, with no 2 x 2 field.  Those form H_tau = D2u0 + tau * D2g_beta
    (D2u0 itself for an affine g) as its quadratic forms q = w^T H_tau w
    on the frame's pair vectors and det H_tau, on each block bit for bit
    as on the whole grid: in 1D bit for bit as H_tau itself, in 2D
    within 8 eps of the sizes in which the matrix forms round, |w|^T S |w|
    and |s00 s11| + |s01 s10| for the entry sizes S = |D2u0| + tau beta
    max |a_i|^2 (the terms of weights_hessian's entries cancel)."""
    ray = Ray(cfg, beta=10.0, tau_max=2.0)
    n, size = cfg.dim, ray.grid.size
    # a 2D PL ray has several blocks of rows
    assert cfg.dim == 1 or size > _BLOCK
    ray_arrays = [a for a in vars(ray).values() if isinstance(a, np.ndarray)]
    assert _owned_bytes(ray_arrays) < size
    assert _owned_bytes(ray_arrays + [ray.grid.points, ray.grid.weights]) \
        == (n + 1) * 8 * size
    pts, w = ray.grid.points, ray.frame.pair_vectors
    h0, g_hess = ray.u0.hessian(pts), ray.smooth.hessian(pts)
    eps = np.finfo(float).eps
    for tau in (0.5, 1.0, 2.0):
        state = ray.state(tau)
        assert not [v for v in vars(state).values()
                    if isinstance(v, np.ndarray)]
        h_tau = h0 if affine else h0 + tau * g_hess
        det = h_tau[:, 0, 0] if n == 1 else (
            h_tau[:, 0, 0] * h_tau[:, 1, 1] - h_tau[:, 0, 1] * h_tau[:, 1, 0])
        quad = np.einsum("pi,rij,pj->pr", w, h_tau, w)
        size = np.abs(h0) + (0.0 if affine else tau * ray.smooth.beta
                             * np.abs(ray.smooth.grads).max() ** 2)
        quad_size = np.einsum("pi,rij,pj->pr", np.abs(w), size, np.abs(w))
        det_size = size[:, 0, 0] * size[:, -1, -1] \
            + size[:, 0, -1] * size[:, -1, 0]
        whole = ray.fields(tau, slice(None))
        for rows in ray.grid.blocks():
            f = ray.fields(tau, rows)
            assert f.weight.shape == (len(w), len(pts[rows]))
            assert (f.log_det is None) == affine
            assert f.quad.tobytes() == whole.quad[:, rows].tobytes()
            assert f.det_tau.tobytes() == whole.det_tau[rows].tobytes()
            if n == 1:
                assert f.quad.tobytes() == h_tau[rows, 0, 0].tobytes()
                assert f.det_tau.tobytes() == det[rows].tobytes()
            else:
                assert np.all(np.abs(f.quad - quad[:, rows])
                              <= 8 * eps * quad_size[:, rows])
                assert np.all(np.abs(f.det_tau - det[rows])
                              <= 8 * eps * det_size[rows])


def test_square_rung_peak_memory():
    """Ray(square) -> state(1) -> energy_report -> mabuchi, the first DF
    rung on 181,440 nodes, peaks under 10 MB of traced allocations
    (8.2 MB measured): the grid's 4.4 MB while its fan is built, then the
    grid and the fields of one block.  The fan rule is built inside the
    count, not read from an earlier test's cache."""
    schedule = Schedule()
    kstab.analysis._fan_rule.cache_clear()
    tracemalloc.start()
    try:
        ray = Ray(SQUARE, beta=schedule.beta0, tau_max=max(schedule.taus))
        state = ray.state(1.0)
        energy_report(state)
        mabuchi(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ray.grid.size == 181_440
    assert peak <= 10e6


SIMPLEX = normalize(make_config(unit_simplex(2), [((1, 0), 0)]), "min_zero")


@pytest.mark.parametrize("cfg", [SQUARE, SIMPLEX, SQUARE3],
                         ids=["square", "simplex", "square3"])
@pytest.mark.parametrize("tau", [1.0, 4.0])
def test_trace_form_energies_match_the_inverted_h_tau(cfg, tau):
    """am_direct, E_Ric and L_alpha read as pair sums meet the same
    energies from 2 x 2 fields with H_tau inverted, MD(., H_tau^-1) *
    det H_tau, to 1e-12 relative: G0(x) and Ric0 rebuilt from the rung's
    pair weights, alpha's form from its own, H_tau = D2u0 + tau D2g_beta
    as a matrix."""
    alpha = box(2, side=2)
    ray = Ray(cfg, beta=10.0 * tau, tau_max=tau)
    state = ray.state(tau, alpha=alpha)
    rep, mab = energy_report(state), mabuchi(state)
    f = ray.fields(tau, slice(None))  # every node
    pts, frame = ray.grid.points, ray.frame
    g0_at_x = pair_field(frame, f.weight)
    ricci = pair_field(frame, frame.ricci_scale[:, None] * f.weight)
    h_tau = ray.u0.hessian(pts) + tau * ray.smooth.hessian(pts)
    det_tau, g_tau = f.det_tau, _inv_small(h_tau)

    def wedge(a, b):
        return 2 * ray.grid.integrate(
            f.phi_y * mixed_discriminant(a, b) * det_tau)

    am_direct = 2 * ray.grid.integrate(f.phi_y * np.exp(-f.log_ratio)) \
        + 2 * ray.grid.integrate(f.phi_y) + wedge(g0_at_x, g_tau)
    e_ric = wedge(ricci, g0_at_x + g_tau)
    l_alpha = wedge(_alpha_theta(ray, f, tau, alpha), g0_at_x + g_tau)
    for value, ref in ((rep.am_direct, am_direct), (mab.l_ricci, e_ric),
                       (rep.l_alpha, l_alpha)):
        assert abs(value - ref) <= 1e-12 * abs(ref)


def test_half_trace_is_the_mixed_discriminant_with_the_inverse():
    """MD(A, H^-1) * det H = (1/2) tr(A H) on random 2 x 2 matrices: A
    of any kind, H positive definite like a Hessian field."""
    rng = np.random.default_rng(7)
    a = rng.normal(size=(1000, 2, 2))
    m = rng.normal(size=(1000, 2, 2))
    h = m @ m.transpose(0, 2, 1) + 0.1 * np.eye(2)
    ref = mixed_discriminant(a, _inv_small(h)) * np.linalg.det(h)
    scale = np.abs(a).max(axis=(1, 2)) * np.abs(h).max(axis=(1, 2))
    assert np.all(np.abs(half_trace(a, h) - ref) <= 1e-12 * scale)


@pytest.mark.parametrize("route", ["a", "b"])
def test_a_nan_route_is_a_route_mismatch(monkeypatch, route):
    """A NaN route fails the route check, which compares with <= so that
    NaN cannot pass, and RouteMismatch names the tau."""
    state = Ray(KINK, beta=20.0, tau_max=2.0).state(2.0)
    if route == "a":
        state = dataclasses.replace(state, l_ricci=float("nan"))
    else:
        monkeypatch.setattr(kstab.functionals, "_route_b",
                            lambda state: (float("nan"), 0.0))
    with pytest.raises(RouteMismatch, match="tau=2.0"):
        mabuchi(state)


def _mabuchi_path(ray, taus):
    """Path form of route (b): the integral over s of the curvature
    pairing n! * integral g_beta * (S_s - n mu), with Abreu's curvature
    of u0 + s * g_beta on the bulk grid graded at the creases in 1D.  In
    2D the bulk grid misses the converged path by 1.8e-7 on the 3-piece
    square at tau = 1, so the path runs on a fan grid of higher radial
    order, which agrees with finer ones to 4e-10."""
    cfg = ray.cfg
    n = cfg.dim
    mu = float(slope_mu(cfg.base))
    grid = bulk_grid(cfg.g, crease_ladder_depth(ray.smooth.beta, 1.0)) \
        if n == 1 else fan_grid([cfg.base], depth=8, inner_order=16,
                                graded_order=8)
    g_vals = ray.smooth.value(grid.points)

    def integrand(s):
        curvature = abreu_scalar_curvature(ray.potential(s), grid.points)
        return math.factorial(n) * grid.integrate(g_vals * (curvature - n * mu))
    return _energy_path(integrand, taus)


@pytest.mark.parametrize("cfg,tau", [
    (KINK, 1.0), (KINK, 2.0), (KINK, 4.0), (KINK, 8.0),
    (STEEP, 1.0), (STEEP, 2.0), (STEEP, 4.0), (SQUARE3, 1.0),
], ids=["kink-1", "kink-2", "kink-4", "kink-8",
        "steep-1", "steep-2", "steep-4", "square3-1"])
def test_route_b_is_the_curvature_path(cfg, tau):
    """Donaldson's endpoint formula is the s-integral of the curvature
    pairing it replaces, on the Ray a DF ladder builds for tau."""
    ray = Ray(cfg, beta=10.0 * tau, tau_max=tau)
    [(path, _)] = _mabuchi_path(ray, (tau,))
    assert abs(_route_b(ray.state(tau))[0] - path) < 1e-7


@pytest.mark.parametrize("tau,value", [(8.0, 11.908221256),
                                       (12.0, 17.927822553)])
def test_route_b_on_the_steep_ray(tau, value):
    """Route (b) keeps the path's values on the steep ray, and route (a),
    read from the closed-form log-slacks, meets no float wall near the
    facets: the two agree to 1e-9 relative."""
    state = Ray(STEEP, beta=10.0 * tau, tau_max=tau).state(tau)
    assert _route_b(state)[0] == pytest.approx(value, abs=1e-8)
    mb = mabuchi(state)
    assert abs(mb.route_a - mb.route_b) <= 1e-9 * (1.0 + abs(mb.route_b))


def test_route_b_converged_on_steep_seeded_ray():
    """On the interval u0'' = 1 / (2 x (1 - x)), so route (b) is
    tau * L(g_beta) - 1/2 integral log(1 + 2 tau x (1 - x) g_beta'').
    On a uniform rule of 20,000 Gauss panels, graded into both ends, it
    matches route (b) on an off-centre steep ray (the seeded ray1d
    g = 5/2 |x - 1/8|) to 1e-8 at tau = 12."""
    cfg = interval_config([((F(-5, 2),), 0), ((F(5, 2),), F(-5, 8))])
    tau = 12.0
    ray = Ray(cfg, beta=10.0 * tau, tau_max=tau)
    grading = 0.5 ** np.arange(1, 60)
    breaks = np.unique(np.concatenate([np.linspace(0.0, 1.0, 20_001),
                                       grading, 1.0 - grading]))
    nodes, weights = np.polynomial.legendre.leggauss(20)
    mid, half = 0.5 * (breaks[1:] + breaks[:-1]), 0.5 * np.diff(breaks)
    x = (mid[:, None] + half[:, None] * nodes).reshape(-1, 1)
    w = (half[:, None] * weights).reshape(-1)
    smooth = ray.smooth
    ends = smooth.value(np.array([[0.0], [1.0]])).sum()
    l_g = ends - 2.0 * (smooth.value(x) @ w)
    logdet = np.log1p(2.0 * tau * x[:, 0] * (1.0 - x[:, 0])
                      * smooth.hessian(x)[:, 0, 0]) @ w
    assert abs(_route_b(ray.state(tau))[0] - (tau * l_g - 0.5 * logdet)) \
        < 1e-8


@pytest.mark.parametrize("cfg", [KINK, SQUARE3], ids=["kink", "square3"])
def test_mabuchi_integrates_no_path(monkeypatch, cfg):
    """mabuchi reaches no s-quadrature, no curvature field and no second
    grid, and leaves no path state on the Ray: it adds no field to it
    (route (b) forms its tau-free D2u0^-1 D2g_beta block by block)."""
    def forbidden(*args, **kwargs):
        raise AssertionError("mabuchi integrated a path in s")

    for name in ("abreu_scalar_curvature", "bulk_grid", "adaptive_simpson"):
        for module in (kstab.analysis, kstab.functionals):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    ray = Ray(cfg, beta=10.0, tau_max=1.0)
    state = ray.state(1.0)
    cached = set(vars(ray))
    mabuchi(state)
    assert set(vars(ray)) == cached


def test_mabuchi_leaves_no_reference_cycle():
    """mabuchi holds nothing alive after it returns: the Ray goes with
    its last reference, not only at the next cyclic collection."""
    gc.disable()
    try:
        ray = Ray(KINK, beta=10.0, tau_max=2.0)
        mabuchi(ray.state(1.0))
        ref = weakref.ref(ray)
        del ray
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("tau,beta", [(2.0, 20.0), (8.0, 80.0), (12.0, 120.0)])
def test_mabuchi_routes_agree_on_kink(tau, beta):
    ray = Ray(KINK, beta=beta, tau_max=tau)
    mb = mabuchi(ray.state(tau))
    assert abs(mb.route_a - mb.route_b) < 1e-5 * (1.0 + abs(mb.route_a))
    assert mb.err_estimate < 1e-4 * (1.0 + abs(mb.value))


def test_interval_affine_route_a_stays_at_zero():
    """Along the affine interval DF ladder the Mabuchi functional is 0
    (DF = 0), and route (a), read from the closed-form log-slacks, stays
    within 1e-9 of it up to tau = 12, where the transported nodes ask
    for slacks far below the float spacing at the facets."""
    rows = ladder(AFFINE, Schedule(), mabuchi)
    assert [mb.tau for mb in rows] == list(Schedule().taus)
    assert max(abs(mb.route_a) for mb in rows) <= 1e-9


@pytest.mark.parametrize("pieces,tau", [
    ([((-2,), 0), ((3,), F(-35, 8))], 12.0),
    ([((F(-5, 2),), 0), ((F(-1, 2),), F(-1, 4)), ((F(5, 2),), F(-23, 8))],
     10.0),
], ids=["crease-7/8", "creases-1/8-7/8"])
def test_crease_windows_near_a_facet_close_the_route_gap(pieces, tau):
    """Creases at 1/8 and 7/8 take the inner Gauss order on every panel
    of their half of a cell, as the middle of a cell does: the route gap
    of these steep rays stays below 1e-6, where order-8 panels next to
    the facet left 7.5e-4 and 9.8e-4."""
    ray = Ray(interval_config(pieces), beta=10.0 * tau, tau_max=tau)
    mb = mabuchi(ray.state(tau))
    assert abs(mb.route_a - mb.route_b) < 1e-6 * (1.0 + abs(mb.route_b))


def test_mabuchi_err_estimate_covers_route_gap():
    """On the interval-affine DF ladder route (b) has no quadrature
    estimate (it is 0 in 1D), so only the route gap makes err_estimate
    nonzero."""
    rows = ladder(AFFINE, Schedule(), mabuchi)
    for mb in rows:
        assert mb.err_estimate >= abs(mb.route_a - mb.route_b)
    assert rows[-1].tau == 12.0
    assert rows[-1].err_estimate > 0.0


def test_mabuchi_slope_approaches_df_on_kink():
    # at fixed smoothing the window slope carries an O(1/beta) bias;
    # the sharpened estimate lives in the slope extrapolator
    assert donaldson_futaki(KINK) == F(1, 2)
    ray = Ray(KINK, beta=40.0, tau_max=10.0)
    m6 = mabuchi(ray.state(6.0)).value
    m10 = mabuchi(ray.state(10.0)).value
    assert abs((m10 - m6) / 4.0 - 0.5) < 2.5e-2


def test_coercivity_probe_on_kink():
    """Slope of M dominates a small multiple of the slope of J."""
    ray = Ray(KINK, beta=40.0, tau_max=10.0)
    m_slope = (mabuchi(ray.state(10.0)).value
               - mabuchi(ray.state(6.0)).value) / 4.0
    j_slope = (energy_report(ray.state(10.0)).j_val
               - energy_report(ray.state(6.0)).j_val) / 4.0
    assert j_slope > 0.0
    assert m_slope >= 1e-3 * j_slope


# -- twisted energies ---------------------------------------------------------


def test_j_alpha_slope_matches_exact_weight():
    alpha = interval(0, 2)
    gamma, j_weight, twisted_df = twisted_weights(AFFINE, alpha)
    assert (gamma, j_weight) == (F(2), F(1))
    assert twisted_df == donaldson_futaki(AFFINE) + j_weight
    ray = Ray(AFFINE, beta=10.0, tau_max=8.0)
    reps = [energy_report(ray.state(t, alpha=alpha)) for t in (6.0, 8.0)]
    ja6, ja8 = (r.l_alpha - 0.5 * float(gamma) * r.am for r in reps)
    assert abs((ja8 - ja6) / 2.0 - float(j_weight)) < 1e-3


def test_j_alpha_self_twist_uses_unit_gamma():
    alpha = interval(0, 1)
    gamma, _, _ = twisted_weights(AFFINE, alpha)
    assert gamma == 1
    ray = Ray(AFFINE, beta=10.0, tau_max=2.0)
    rep = energy_report(ray.state(2.0, alpha=alpha))
    assert math.isfinite(rep.l_alpha)


@pytest.mark.parametrize("cfg,beta,alpha,taus", [
    (AFFINE, 10.0, interval(0, 2), (1.0, 2.0, 4.0, 8.0)),
    (KINK, 40.0, interval(0, 2), (1.0, 2.0, 4.0, 8.0)),
    (SQUARE, 10.0, box(2), (1.0,)),
], ids=["interval-affine", "interval-kink", "square"])
def test_l_alpha_endpoint_matches_path(cfg, beta, alpha, taus):
    """The endpoint L_alpha is the integral of its s-derivative, within
    the path quadrature's own error estimate."""
    ray = Ray(cfg, beta=beta, tau_max=max(taus))
    endpoint = [energy_report(ray.state(t, alpha=alpha)).l_alpha
                for t in taus]
    reference = _alpha_path(Ray(cfg, beta=beta, tau_max=max(taus)), alpha,
                            taus)
    for value, (path, err) in zip(endpoint, reference):
        assert abs(value - path) <= err


@pytest.mark.parametrize("cfg,alpha", [
    (AFFINE, interval(0, 2)),
    (SQUARE, box(2)),
    (SQUARE, corner_chop(box(2), (1, 1), F(1, 4))),
], ids=["interval", "square", "chopped-alpha"])
def test_alpha_ladder_transports_into_alpha(monkeypatch, cfg, alpha):
    """alpha's field at the inverse-transported points serves every term
    of an alpha ladder, closed-form on a simplex-product alpha, so Newton
    never runs; any other alpha is refused, naming its facet count."""
    calls = []

    def counted(potential, targets, start, **kwargs):
        calls.append(len(targets))
        return newton_transport(potential, targets, start, **kwargs)

    monkeypatch.setattr(kstab.analysis, "newton_transport", counted)
    taus = (1.0, 2.0, 4.0)
    ray = Ray(cfg, beta=10.0, tau_max=max(taus))
    for tau in taus:
        if simplex_product(alpha) is not None:
            energy_report(ray.state(tau, alpha=alpha))
            continue
        with pytest.raises(NumericalFailure, match="this alpha has 5 facets"):
            energy_report(ray.state(tau, alpha=alpha))
    assert calls == []


@pytest.mark.parametrize("tau", [1.0, 4.0, 12.0])
def test_simplex_df_routes_agree(tau):
    """On the unit simplex with g = x1, route (a) through the closed-form
    transport, with Ric0 from the log-slacks, meets Donaldson's route (b)
    within ROUTE_TOL: before, Ric0 from ricci_reference cancelled next to
    the hypotenuse and route (a) read -0.0508 at tau = 1 against 0."""
    cfg = normalize(make_config(unit_simplex(2), [((1, 0), 0)]), "min_zero")
    mab = mabuchi(Ray(cfg, beta=10.0, tau_max=12.0).state(tau))
    assert abs(mab.route_a - mab.route_b) <= ROUTE_TOL * (1.0 + abs(mab.route_a))
    assert abs(mab.route_b) < 1e-12   # DF = 0: the affine toric Mabuchi vanishes


@pytest.mark.parametrize("alpha", [unit_simplex(2), box(2, side=2)],
                         ids=["simplex", "box"])
def test_alpha_theta_closed_form_matches_newton(alpha):
    """On a simplex-product alpha, theta is alpha's inverse Hessian at the
    point where alpha's gradient is xi + tau * grad g, as one Newton
    transport into alpha finds it wherever that solve resolves the
    slacks (above 1e-6)."""
    ray = Ray(SQUARE, beta=10.0, tau_max=1.0)
    f = ray.fields(1.0, slice(None))  # every node
    theta = _alpha_theta(ray, f, 1.0, alpha)
    u_alpha = guillemin_potential(alpha)
    bary = np.array([[float(c) for c in volume_data(alpha).barycenter]])
    z = newton_transport(u_alpha, ray.u0.gradient(ray.grid.points) + f.grad,
                         np.tile(bary, (ray.grid.size, 1)))
    ok = u_alpha.slacks(z).min(axis=1) > 1e-6
    assert ok.mean() > 0.5
    ref = _inv_small(u_alpha.hessian(z)[ok])
    scale = np.abs(ref).max(axis=(1, 2))[:, None, None]
    assert np.max(np.abs(theta[ok] - ref) / scale) < 1e-8


def test_wrong_dimension_alpha_raises():
    """Ray.state refuses an alpha of the wrong dimension as
    twisted_weights does, with DimensionMismatch."""
    ray = Ray(AFFINE, beta=10.0, tau_max=1.0)
    with pytest.raises(DimensionMismatch):
        ray.state(1.0, alpha=unit_simplex(2))
    with pytest.raises(DimensionMismatch):
        twisted_weights(AFFINE, unit_simplex(2))


# -- l1 path data -------------------------------------------------------------


def test_l1_limit_and_length_affine():
    cfg = interval_config([((1,), 0)], mode="average_zero")
    rep = l1_norm_path(cfg, (1.0, 2.0, 4.0, 6.0, 8.0))
    assert rep.limit == F(1, 4)                # integral of |x - 1/2|
    assert rep.length == 0.25 * 7.0
    assert rep.trace == tuple((t, F(1, 4)) for t in (1.0, 2.0, 4.0, 6.0, 8.0))


def test_l1_requires_average_zero():
    with pytest.raises(NormalizationRequired):
        l1_norm_path(AFFINE, [1.0])
    with pytest.raises(NormalizationRequired):
        l1_norm_path(normalize(AFFINE, "average_zero"), [])


def test_l1_positive_iff_minimum_norm_positive():
    cfg = interval_config([((1,), 0), ((-1,), 1)], mode="average_zero")
    assert minimum_norm(cfg) > 0
    assert l1_norm_path(cfg, (1.0, 2.0, 4.0)).limit > 0
    flat = interval_config([((0,), 0)], mode="average_zero")
    assert minimum_norm(flat) == 0
    assert l1_norm_path(flat, (1.0, 2.0, 4.0)).limit == 0
