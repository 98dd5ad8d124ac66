"""Deterministic random toric configurations for stress tests, and
small readers the test modules share.

Kept outside conftest so the acceptance suite can import the same
generators and stay reproducible (everything is seeded, no hypothesis
state involved).
"""
import random
from fractions import Fraction

import numpy as np

from kstab.analysis import _det_small
from kstab.errors import NotConvex
from kstab.plconfig import make_config, normalize, pl_fn
from kstab.polytope import box, construct, corner_chop, interval, unit_simplex

F = Fraction


def random_base(rng: random.Random):
    roll = rng.randrange(6)
    if roll == 0:
        lo = F(rng.randrange(-3, 3))
        return interval(lo, lo + rng.randrange(1, 4))
    if roll == 1:
        return box(2, side=rng.randrange(1, 3))
    if roll == 2:
        return unit_simplex(2)
    if roll == 3:
        return corner_chop(box(2), (1, 1), F(1, rng.randrange(2, 5)))
    if roll == 4:
        k = rng.randrange(1, 4)
        return construct(vertices=[(0, 0), (k, 0), (k, 1), (0, 1)])
    return interval(0, 1)


def random_fraction(rng: random.Random, span=2, denom=4):
    return F(rng.randrange(-span * denom, span * denom + 1), denom)


def flat(base):
    """g = 0 on base: one cell, P itself, as the grids see an affine g."""
    return pl_fn(base, [(tuple(F(0) for _ in range(base.dim)), F(0))])


def random_pl(rng: random.Random, base, max_pieces=3):
    dim = base.dim
    for _ in range(30):
        k = rng.randrange(1, max_pieces + 1)
        pieces = [(tuple(random_fraction(rng) for _ in range(dim)),
                   random_fraction(rng)) for _ in range(k)]
        try:
            return pl_fn(base, pieces)
        except NotConvex:
            continue
    return flat(base)


def random_config(rng: random.Random, normalized=None):
    base = random_base(rng)
    g = random_pl(rng, base)
    shift = "auto" if rng.random() < 0.5 else g.max_over_domain() + F(
        rng.randrange(1, 9), 4)
    cfg = make_config(base, g, shift)
    if normalized is not None:
        cfg = normalize(cfg, normalized)
    return cfg


def corner_coords(frame, log_ell):
    """x on a polytope with a corner at 0 whose facets there are
    -x_i <= 0 (a box, an interval, the unit simplex), read from the
    log-slacks of its SimplexProduct frame: x_i is the slack of the
    facet -x_i <= 0."""
    cols = [np.flatnonzero((frame.normals == -e).all(axis=1)
                           & (frame.offsets == 0))[0]
            for e in np.eye(frame.normals.shape[1])]
    return np.exp(log_ell[:, cols])


def logdet_small(h):
    """log det of a stack of 1x1 or 2x2 matrices (Hessian fields at grid
    nodes), the tests' reference log-determinant."""
    return np.log(_det_small(h))


def mixed_discriminant(a, b):
    """MD(A, B) of 2 x 2 fields, normalized so MD(A, A) = det A: the
    tests' reference for the pair sums of a rung."""
    return 0.5 * (a[:, 0, 0] * b[:, 1, 1] + a[:, 1, 1] * b[:, 0, 0]
                  - a[:, 0, 1] * b[:, 1, 0] - a[:, 1, 0] * b[:, 0, 1])


def half_trace(a, h):
    """(1/2) tr(A H), which is MD(A, H^-1) * det H: no H is inverted."""
    return 0.5 * (a[:, 0, 0] * h[:, 0, 0] + a[:, 1, 1] * h[:, 1, 1]
                  + a[:, 0, 1] * h[:, 1, 0] + a[:, 1, 0] * h[:, 0, 1])


def pair_field(frame, weight):
    """sum_p weight_p w_p w_p^T over the frame's pair vectors w_p, weight
    pair by row: the 2 x 2 (or 1 x 1) field a rung never forms."""
    w = frame.pair_vectors
    outer = (w[:, :, None] * w[:, None, :]).reshape(len(w), -1)
    return (outer.T @ weight).T.reshape(-1, w.shape[1], w.shape[1])


def shares(frame, log_ell):
    """p_k = ell_k / Lambda_B, facet by row, from the log-slacks log_ell."""
    return np.exp(log_ell).T / frame.sums[:, None]


def inverse_hessian(frame, log_ell):
    """D2u0^-1 at the point with log-slacks log_ell, from the pair weights."""
    return pair_field(frame, frame.weights(shares(frame, log_ell)))


def dual_fields(frame, log_ell):
    """(D2u0^-1, Ric0) at log_ell from the same pair weights, Ric0 the dual
    Hessian of (1/2) log det D2u0."""
    weight = frame.weights(shares(frame, log_ell))
    return pair_field(frame, weight), \
        pair_field(frame, frame.ricci_scale[:, None] * weight)
