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
import gc
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest

from kstab.analysis import Ray, ricci_reference
from kstab.errors import MissingAlpha, NormalizationRequired
from kstab.functionals import (
    EnergyReport,
    _phi_dot_pairing,
    adaptive_simpson,
    am_energy,
    energy_report,
    l1_norm_path,
    mabuchi,
    mixed_discriminant,
)
from kstab.invariants import donaldson_futaki, minimum_norm, twisted_weights
from kstab.plconfig import make_config, normalize
from kstab.polytope import box, interval, unit_simplex
from kstab.slopes import Schedule, ladder

F = Fraction


def interval_config(pieces, mode="min_zero"):
    return normalize(make_config(interval(0, 1), pieces), mode)


AFFINE = interval_config([((1,), 0)])
KINK = interval_config([((1,), 0), ((-1,), 1)])


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
    rep = energy_report(ray.state(0.0), alpha=interval(0, 2))
    assert rep == EnergyReport(tau=0.0, am=0.0, am_direct=0.0, i_val=0.0,
                               j_val=0.0, entropy=0.0, l_alpha=0.0,
                               err_estimate=0.0)
    assert mabuchi(ray.state(0.0)).value == 0.0


def test_am_is_exactly_linear():
    ray = Ray(AFFINE, beta=10.0, tau_max=4.0)
    slopes = [am_energy(ray, t) / t for t in (1.0, 2.0, 4.0)]
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
    """Product configuration on a constant-curvature reference: the
    path integrand S - n mu is identically zero, and the explicit
    formula must agree."""
    ray = Ray(AFFINE, beta=10.0, tau_max=4.0)
    mb = mabuchi(ray.state(4.0))
    assert abs(mb.value) < 1e-8
    assert abs(mb.route_a - mb.route_b) < 1e-8
    assert donaldson_futaki(AFFINE) == 0


def _ricci_path(ray, taus):
    """Path form of the Ricci energy, (value, Simpson error) at each tau:
    the integral over s of n * <phi_dot, Ric0 ^ omega_s^(n-1)>."""
    def integrand(s):
        x = ray.inverse_transport(s)
        return _phi_dot_pairing(ray, s, ricci_reference(ray.u0, x))

    out, acc, err, lower = [], 0.0, 0.0, 0.0
    for tau in taus:
        seg, seg_err = adaptive_simpson(integrand, tau, lower=lower)
        acc, err, lower = acc + seg, err + seg_err, tau
        out.append((acc, err))
    return out


SQUARE = normalize(make_config(box(2), [((1, 0), 0)]), "min_zero")


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


def test_mabuchi_transports_only_at_tau():
    ray = Ray(KINK, beta=40.0, tau_max=4.0)
    mabuchi(ray.state(4.0))
    assert list(ray._inv_cache) == [4.0]


def test_simpson_leaves_no_reference_cycle():
    """A finished Simpson path holds nothing alive: the Ray goes with its
    last reference, not only at the next cyclic collection."""
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


def test_mabuchi_err_estimate_covers_route_gap():
    """On the interval-affine DF ladder route (b) is exact (S - n mu
    vanishes), so only the route gap makes err_estimate nonzero."""
    rows = ladder(AFFINE, Schedule(), lambda ray, t: mabuchi(ray.state(t)))
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
    reps = [energy_report(ray.state(t), alpha=alpha) for t in (6.0, 8.0)]
    ja6, ja8 = (r.l_alpha - 0.5 * float(gamma) * r.am for r in reps)
    assert abs((ja8 - ja6) / 2.0 - float(j_weight)) < 1e-3


def test_j_alpha_self_twist_uses_unit_gamma():
    alpha = interval(0, 1)
    gamma, _, _ = twisted_weights(AFFINE, alpha)
    assert gamma == 1
    ray = Ray(AFFINE, beta=10.0, tau_max=2.0)
    rep = energy_report(ray.state(2.0), alpha=alpha)
    assert math.isfinite(rep.l_alpha)


def test_missing_alpha_raises():
    ray = Ray(AFFINE, beta=10.0, tau_max=1.0)
    with pytest.raises(MissingAlpha):
        energy_report(ray.state(1.0), alpha=unit_simplex(2))


# -- l1 path data -------------------------------------------------------------


def test_l1_limit_and_length_affine():
    cfg = interval_config([((1,), 0)], mode="average_zero")
    ray = Ray(cfg, beta=10.0, tau_max=8.0)
    rep = l1_norm_path([(t, ray) for t in (1.0, 2.0, 4.0, 6.0, 8.0)])
    assert abs(rep.limit - 0.25) < 1e-12       # integral of |x - 1/2|
    assert abs(rep.length - 0.25 * 7.0) < 1e-12
    assert len(rep.trace) == 5


def test_l1_requires_average_zero():
    ray = Ray(AFFINE, beta=10.0, tau_max=2.0)
    with pytest.raises(NormalizationRequired):
        l1_norm_path([(1.0, ray)])
    with pytest.raises(NormalizationRequired):
        l1_norm_path([])


def test_l1_positive_iff_minimum_norm_positive():
    cfg = interval_config([((1,), 0), ((-1,), 1)], mode="average_zero")
    assert minimum_norm(cfg) > 0
    ray = Ray(cfg, beta=20.0, tau_max=4.0)
    rep = l1_norm_path([(t, ray) for t in (1.0, 2.0, 4.0)])
    assert rep.limit > 0.0
