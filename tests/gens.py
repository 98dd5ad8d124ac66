"""Deterministic random toric configurations for stress tests, and
small readers the test modules share.

Kept outside conftest so the acceptance suite can import the same
generators and stay reproducible (everything is seeded, no hypothesis
state involved).
"""
import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np

from kstab import analysis
from kstab.analysis import _det_small
from kstab.errors import NotConvex
from kstab.plconfig import AffineFn, make_config, normalize, pl_fn
from kstab.polytope import (box, construct, corner_chop, frac, interval,
                            unit_simplex, volume_data)

F = Fraction


def interval_config(pieces, mode="min_zero"):
    """g with the given affine pieces on [0, 1], normalized by mode."""
    return normalize(make_config(interval(0, 1), pieces), mode)


PL_2D = {  # the PL reference rays in 2D
    "square-max": make_config(box(2), [((1, 0), 0), ((0, 1), 0)]),
    "simplex-max": make_config(unit_simplex(2), [((1, 0), 0), ((0, 1), 0)]),
    "square3": make_config(box(2), [((1, 0), 0), ((0, 1), 0),
                                    ((-1, -1), 1)]),
    "square-half": make_config(box(2), [((0, 0), 0), ((1, 0), F(-1, 2))]),
}


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


def scaled(g, d):
    """g times d > 0: every piece scaled keeps the sign of each
    difference of two pieces, hence every cell, so g's cells carry
    over.  NotConvex for d <= 0."""
    d = frac(d)
    if d <= 0:
        raise NotConvex("scaling factor must be positive")
    return replace(g, pieces=tuple(
        AffineFn(tuple(d * c for c in p.gradient), d * p.constant)
        for p in g.pieces))


def same_bits(a, b) -> bool:
    """Same dtype, shape and bytes: equal bit for bit."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


def nodes(grid):
    """(points, weights) of every node of grid, its blocks joined: a Grid
    generates them block by block and holds neither."""
    points, weights = zip(*grid.blocks())
    return np.concatenate(points), np.concatenate(weights)


def integral(grid, values):
    """The grid's quadrature of values, one per node."""
    return float(values @ nodes(grid)[1])


def fan_reference(cells, depth, inner_order=12, graded_order=4):
    """fan_grid's (points, weights) by the materialized formula: every
    facet's rows at once from _fan_rule's (t, s, w).  Reference only."""
    t, s, w = analysis._fan_rule(depth, inner_order, graded_order)
    u = 1 - s
    facets = [(cell, fv) for cell in cells for fv in cell.facet_vertices]
    weights = np.empty(len(facets) * len(w))
    points = np.empty((len(weights), 2))
    for i, (cell, fv) in enumerate(facets):
        rows = slice(i * len(w), (i + 1) * len(w))
        bary = np.array([float(c) for c in volume_data(cell).barycenter])
        vi, vj = sorted(fv)[:2]
        A = np.array([float(c) for c in cell.vertices[vi]]) - bary
        B = np.array([float(c) for c in cell.vertices[vj]]) - bary
        for k in range(2):
            points[rows, k] = (u * A[k] + s * B[k]) * t + bary[k]
        np.multiply(w, abs(A[0] * B[1] - A[1] * B[0]), out=weights[rows])
    return points, weights


def line_reference(lo, hi, depths, crease_depth, graded_order=8):
    """line_grid's (points, weights) by the materialized formula, its
    levels and orders chosen as line_grid chooses them.  Reference
    only."""
    need = math.ceil((hi - lo) * 25 * 2 ** crease_depth / 2)
    levels = [max(2, (need - 1).bit_length()) if d is None else d
              for d in depths]
    lower, upper = (16 if d is None else graded_order for d in depths)
    x, w = analysis._panel_nodes(analysis._graded_breaks(*levels),
                                 (lower, 16, upper))
    a, span = float(lo), float(hi) - float(lo)
    return (a + span * x)[:, None], span * w


def potential_value(u0, pts):
    """Guillemin's u0 = (1/2) sum ell_k log ell_k at pts, the tests'
    reference value of a SymplecticPotential."""
    ell = u0.slacks(pts)
    return 0.5 * np.sum(ell * np.log(ell), axis=1)


def shifted_value(pot, pts):
    """u_s = u0 + s * g_beta at pts, the tests' reference value of a
    ShiftedPotential."""
    return potential_value(pot.u0, pts) + pot.s * pot.smooth.value(pts)


def rung_fields(ray, tau, pts):
    """The rung of ray at tau, smoothed at the Ray's beta, at the nodes
    pts (a block of its grid, or every node): the fields that Ray.state
    sums, block by block."""
    return ray._rung(ray._block(pts, ray._pairing(None)), float(tau),
                     ray.smooth)


def corner_coords(u0, log_ell):
    """x on a polytope with a corner at 0 whose facets there are
    -x_i <= 0 (a box, an interval, the unit simplex), read from the
    log-slacks log_ell of the facets of its potential u0: x_i is the
    slack of the facet -x_i <= 0."""
    cols = [np.flatnonzero((u0.normals == -e).all(axis=1)
                           & (u0.offsets == 0))[0]
            for e in np.eye(u0.normals.shape[1])]
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
