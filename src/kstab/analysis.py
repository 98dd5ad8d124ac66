"""Numerical toric-Kaehler substrate.

Everything numeric lives downstream of three ingredients built here:

  * the Guillemin symplectic potential of a Delzant polytope and its
    exact Hessian field,
  * deterministic quadrature grids with geometric grading, one per
    cell of g (a one-piece g has the one cell P): at the facets of P
    the collar depth follows the largest tau the grid serves (the
    transported volume forms concentrate mass in an exp(-2*tau) collar
    near the boundary), at a crease the depth follows the smoothing
    (line_grid; a polygon cell's fan takes the collar depth on every
    edge, see fan_grid),
  * the inverse Legendre transport of u0 on a simplex-product base (the
    interval, Delzant triangles and parallelograms; SimplexProduct),
    kept as the log-slacks of the point x where grad u0(x) = xi:
    log ell_k = log Lambda_B + r_k - logsumexp_B r with r = -2 E^-T xi,
    so no Newton step is taken, no slack is formed by subtraction and x
    itself is never formed; D2u0(x)^-1 and Ric0 are sums of positive
    terms in the slacks.  A Ray refuses any other base.  The forward
    transport x -> x_tau defined by grad u_tau(x_tau) = grad u_0(x) is a
    vectorized damped Newton solve.

Scalar curvature uses Abreu's expression in closed form (facet sums
and softmax cumulants for the third and fourth derivatives of the
potential) with the calibration constant kappa = 1/2, fixed so that
the mean curvature equals n times the slope (checked for interval,
square, simplex).  The Ricci data is the xi-Hessian of half the
log-determinant of the potential Hessian, in closed form from the
log-slacks (SimplexProduct.dual_fields); with this pairing the pointwise
identity S = n * MD(ricci, G^(n-1)) / det G holds against the same
grids (tested).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .errors import (DimensionMismatch, DomainMismatch, NewtonDivergence,
                     NonDelzant, NumericalFailure)
from .plconfig import PLConvexFn, ToricTestConfig
from .polytope import Polytope, _det, volume_data

KAPPA = 0.5
_SLACK_FLOOR = 1e-300


# ---------------------------------------------------------------------------
# potentials


@dataclass(frozen=True)
class SymplecticPotential:
    """Guillemin potential u = (1/2) sum ell_k log ell_k (zero correction)."""

    normals: np.ndarray
    offsets: np.ndarray

    # slacks, gradient and hessian work in place: on the Newton blocks a
    # fresh (n, K) temporary, or an op along its short trailing axis, costs
    # more than the arithmetic; slacks is a transposed facet-by-row array

    def slacks(self, pts: np.ndarray) -> np.ndarray:
        ell = self.normals @ pts.T
        np.subtract(self.offsets[:, None], ell, out=ell)
        return np.maximum(ell, _SLACK_FLOOR, out=ell).T

    def value(self, pts: np.ndarray) -> np.ndarray:
        ell = self.slacks(pts)
        return 0.5 * np.sum(ell * np.log(ell), axis=1)

    # gradient and hessian take the slacks at pts when the caller has them

    def gradient(self, pts: np.ndarray, ell=None) -> np.ndarray:
        if ell is None:
            ell = self.slacks(pts)
        g = np.log(ell)
        g += 1.0
        g *= -0.5
        return g @ self.normals

    def hessian(self, pts: np.ndarray, ell=None) -> np.ndarray:
        own = ell is None  # this call's own slacks are inverted in place
        ell = self.slacks(pts) if own else ell
        inv = np.divide(1.0, ell, out=ell if own else None)
        n_facets, dim = self.normals.shape
        outer = self.normals[:, :, None] * self.normals[:, None, :]
        h = inv @ outer.reshape(n_facets, dim * dim)
        h *= 0.5
        return h.reshape(-1, dim, dim)


def guillemin_potential(base: Polytope) -> SymplecticPotential:
    if not base.is_delzant:
        raise NonDelzant("Guillemin potential needs a Delzant polytope")
    normals = np.array([[float(c) for c in h.normal] for h in base.halfspaces])
    offsets = np.array([float(h.offset) for h in base.halfspaces])
    return SymplecticPotential(normals=normals, offsets=offsets)


@dataclass(frozen=True)
class SmoothedPL:
    """Log-sum-exp mollification of a convex PL function (numpy side)."""

    grads: np.ndarray
    consts: np.ndarray
    beta: float

    @staticmethod
    def from_fn(g: PLConvexFn, beta: float) -> "SmoothedPL":
        grads = np.array([[float(c) for c in p.gradient] for p in g.pieces])
        consts = np.array([float(p.constant) for p in g.pieces])
        return SmoothedPL(grads=grads, consts=consts, beta=float(beta))

    @property
    def exact(self) -> bool:
        return len(self.consts) == 1

    def _fields(self, pts):
        """Row max, softmax normaliser and softmax weights at pts."""
        top, vals = self._shifted(pts)
        return (top, *self._softmax(vals, out=vals))

    def _shifted(self, pts):
        """(row max of the pieces, the pieces minus it) at pts, free of
        beta; all reductions run column by column (see _row_reduce)."""
        vals = pts @ self.grads.T  # then in place, column by column too
        for col, const in zip(vals.T, self.consts):
            col += const
        top = _row_reduce(np.maximum, vals)
        for col in vals.T:
            col -= top
        return top, vals

    def _softmax(self, vals, out=None):
        """(normaliser, weights) of the softmax at beta of _shifted's vals,
        the weights in out (a fresh array by default)."""
        w = np.multiply(vals, self.beta, out=out)
        np.exp(w, out=w)
        z = _row_reduce(np.add, w)
        for col in w.T:
            col /= z
        return z, w

    def value(self, pts: np.ndarray) -> np.ndarray:
        top, z, _ = self._fields(pts)
        # log-sum-exp written against the max for stability
        return top + np.log(z) / self.beta

    def gradient(self, pts: np.ndarray) -> np.ndarray:
        return self._fields(pts)[2] @ self.grads

    def hessian(self, pts: np.ndarray) -> np.ndarray:
        if self.exact:  # zero: a read-only view that holds no memory
            n = self.grads.shape[1]
            return np.broadcast_to(0.0, (len(pts), n, n))
        return self.weights_hessian(self._fields(pts)[2])

    def weights_hessian(self, w: np.ndarray) -> np.ndarray:
        """Hessian from the softmax weights w that _fields returns."""
        n_pieces, dim = self.grads.shape
        pair = (self.grads[:, :, None] * self.grads[:, None, :]).reshape(
            n_pieces, dim * dim)
        mean = w @ self.grads
        h = w @ pair  # minus the mean's outer product, entry by entry
        for k, (i, j) in enumerate(np.ndindex(dim, dim)):
            h[:, k] -= mean[:, i] * mean[:, j]
        return np.multiply(h, self.beta, out=h).reshape(-1, dim, dim)


@dataclass(frozen=True)
class ShiftedPotential:
    """u_s = u0 + s * g_beta along a ray; same vectorized interface."""

    u0: SymplecticPotential
    smooth: SmoothedPL
    s: float

    def slacks(self, pts):
        return self.u0.slacks(pts)

    def value(self, pts):
        return self.u0.value(pts) + self.s * self.smooth.value(pts)

    def gradient(self, pts, ell=None):
        return self.u0.gradient(pts, ell) + self.s * self.smooth.gradient(pts)

    def hessian(self, pts, ell=None):
        return self.u0.hessian(pts, ell) + self.s * self.smooth.hessian(pts)


# ---------------------------------------------------------------------------
# quadrature grids


@dataclass(frozen=True)
class Grid:
    points: np.ndarray
    weights: np.ndarray

    def integrate(self, values: np.ndarray) -> float:
        return float(values @ self.weights)

    def blocks(self):
        """Slices of _NEWTON_BLOCK rows covering the nodes, in order."""
        return (slice(lo, lo + _NEWTON_BLOCK)
                for lo in range(0, self.size, _NEWTON_BLOCK))

    @property
    def size(self) -> int:
        return len(self.weights)


def collar_depth_for(tau_max: float) -> int:
    """Dyadic grading depth resolving the exp(-2 tau) boundary collar.

    Capped at 46: beyond 2^-46 the nodes near a facet with unit-scale
    offset are no longer faithfully representable in float64, so deeper
    panels would quantize onto the boundary.  Integrals weighted by the
    transported volume form are therefore evaluated in transported
    coordinates (see the functionals module), where the collar tail
    carries only O(2^-46) mass regardless of tau.
    """
    need = (2.0 * float(tau_max) + 14.0) / math.log(2.0)
    return max(12, math.ceil(min(46.0, need)))  # need may be inf


@lru_cache(maxsize=None)
def _gauss_rule(order: int):
    """Gauss-Legendre rule on [-1, 1], built once per order, read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gauss_panel(a: float, b: float, order: int):
    """The cached rule of `order` mapped affinely onto [a, b]."""
    x, w = _gauss_rule(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def _graded_breaks(depth: int, upper: int):
    """Dyadic breakpoints of [0,1], down to 2^-depth at 0, 2^-upper at 1."""
    left = [0.5 ** k for k in range(depth, 1, -1)]
    right = [1.0 - 0.5 ** k for k in range(2, upper + 1)]
    return [0.0] + left + [0.5] + right + [1.0]


def _panel_nodes(breaks, orders):
    """Gauss nodes and weights over the panels between breaks, with the
    orders (below 1/4, on [1/4, 3/4], above 3/4)."""
    xs, ws = [], []
    for a, b in zip(breaks[:-1], breaks[1:]):
        x, w = _gauss_panel(a, b, orders[(a >= 0.25) + (a >= 0.75)])
        xs.append(x)
        ws.append(w)
    return np.concatenate(xs), np.concatenate(ws)


def line_grid(lo, hi, depths, crease_depth: int,
              graded_order: int = 8) -> Grid:
    """Graded Gauss panels on the exact [lo, hi]: an interval cell of g,
    or a stretch of an edge between two creases of g.

    depths holds, per end, its collar depth on a facet of P or None at a
    crease.  The breaks halve toward each end: to 2^-depth of the span
    at a facet; at a crease to a panel of at most 0.08 * 2^-crease_depth,
    as transported integrands sweep across a kink on a scale 1/(beta tau),
    with Gauss order 16 on its half.  The inner half [1/4, 3/4] takes
    order 16 too, the rest of a facet end's half graded_order."""
    # a crease end: the least k >= 2 with span 2^-k <= 0.08 * 2^-crease_depth
    need = math.ceil((hi - lo) * 25 * 2 ** crease_depth / 2)  # 0.08 = 2/25
    levels = [max(2, (need - 1).bit_length()) if d is None else d
              for d in depths]
    lower, upper = (16 if d is None else graded_order for d in depths)
    x, w = _panel_nodes(_graded_breaks(*levels), (lower, 16, upper))
    a, span = float(lo), float(hi) - float(lo)
    return Grid(points=(a + span * x)[:, None], weights=span * w)


def fan_grid(cells, depth: int, inner_order: int = 12,
             graded_order: int = 4) -> Grid:
    """A barycentric fan per cell, graded at the collar and corners.

    Each facet spans a triangle (barycenter, v_i, v_j) parametrized by
    radial t and along-edge s.  Radially, [0, 1/2] is two inner panels,
    then the breaks are 1 - 2^-k at every level k <= 8, every second
    level beyond, and depth: a geometric mesh whose Gauss order is 10 on
    the panels ending at level k <= depth - 10 and graded_order on the
    deepest ten levels (Babuska & Guo 1986).  The higher order away from
    the facet resolves the e^(-2 tau) layer that the inverse-transported
    nodes carry there.  The radial panel ending at 1 - 2^-k grades s to
    min(depth, max(3, k + 2)) and the panel touching the facet to the
    full depth: a node about 2^-k from the facet is also about 2^-k or
    more from the adjacent facets, so only the corner panels need
    2^-depth along the edge.  Every facet maps the one rule (t, s, w)
    into preallocated arrays, in place.
    """
    levels = sorted({*range(1, min(8, depth) + 1), *range(9, depth, 2), depth})
    # (a, b, radial order, level of b); the last panel ends on the facet
    panels = [(0.0, 0.25, inner_order, 0), (0.25, 0.5, inner_order, 1)] + [
        (1.0 - 0.5 ** j, 1.0 - 0.5 ** k,
         10 if k <= depth - 10 else graded_order, k)
        for j, k in zip(levels, levels[1:])]
    panels.append((1.0 - 0.5 ** depth, 1.0, graded_order, depth))
    s_rules = {d: _panel_nodes(_graded_breaks(d, d),
                               (graded_order, inner_order, graded_order))
               for d in range(min(3, depth), depth + 1)}
    blocks = []
    for a, b, order, k in panels:
        tx, tw = _gauss_panel(a, b, order)
        sx, sw = s_rules[min(depth, max(3, k + 2))]
        blocks.append((np.repeat(tx, len(sx)), np.tile(sx, len(tx)),
                       (np.outer(tw, sw) * tx[:, None]).reshape(-1)))
    t, s, w = map(np.concatenate, zip(*blocks))

    facets = [(cell, fv) for cell in cells for fv in cell.facet_vertices]
    weights = np.empty(len(facets) * len(w))
    points = np.empty((len(weights), 2))
    for i, (cell, fv) in enumerate(facets):
        rows = slice(i * len(w), (i + 1) * len(w))
        bary = np.array([float(c) for c in volume_data(cell).barycenter])
        vi, vj = sorted(fv)[:2]
        A = np.array([float(c) for c in cell.vertices[vi]]) - bary
        B = np.array([float(c) for c in cell.vertices[vj]]) - bary
        # bary + t ((1 - s) A + s B), formed in place
        pts = np.multiply((1 - s)[:, None], A, out=points[rows])
        pts += s[:, None] * B
        pts *= t[:, None]
        pts += bary
        np.multiply(w, abs(A[0] * B[1] - A[1] * B[0]), out=weights[rows])
    return Grid(points=points, weights=weights)


def _cell_grid(g: PLConvexFn, depth: int, crease_depth: int,
               graded_order: int, fan_orders) -> Grid:
    """line_grid or fan_grid on each cell of g (its exact regions),
    joined; a one-piece g has one cell, P itself."""
    base = g.domain
    if base.dim == 1:
        grids = [line_grid(lo, hi, [depth if (t,) in base.vertices else None
                                    for t in (lo, hi)],
                           crease_depth, graded_order)
                 for lo, hi in (sorted(v[0] for v in cell.vertices)
                                for cell in g.regions())]
    elif base.dim == 2:
        return fan_grid(g.regions(), depth, *fan_orders)
    else:
        raise NonDelzant("analysis grids implemented for dimensions 1 and 2")
    if len(grids) == 1:
        return grids[0]
    return Grid(*map(np.concatenate, zip(*((grid.points, grid.weights)
                                           for grid in grids))))


def build_grid(g: PLConvexFn, depth: int, crease_depth: int = 8) -> Grid:
    """A ray's transport grid: collar depth at the facets of P."""
    return _cell_grid(g, depth, crease_depth, 8, (12, 4))


def bulk_grid(g: PLConvexFn, crease_depth: int = 8) -> Grid:
    """Coarse interior grid for curvature quadrature (no deep collar).

    Crease refinement matters here: the scalar curvature of a smoothed
    potential has a spike of width ~1/beta at each kink of g, and the
    cell panels keep plain Gauss panels from averaging over it.
    """
    return _cell_grid(g, 8, crease_depth, 10, (16, 6))


def crease_ladder_depth(beta: float, tau_max: float) -> int:
    """Crease grading depth resolving features of scale 1/(beta*tau)."""
    need = 0.32 * max(float(beta), 1.0) * max(float(tau_max), 1.0)
    return max(8, math.ceil(min(22.0, math.log2(need))))  # need may be inf


# ---------------------------------------------------------------------------
# vectorized damped Newton for the Legendre transport


# batched 1x1 and 2x2 solves: the grids exist in dimensions 1 and 2
def _det_small(H: np.ndarray) -> np.ndarray:
    if H.shape[-1] == 1:
        return H[:, 0, 0]
    return H[:, 0, 0] * H[:, 1, 1] - H[:, 0, 1] * H[:, 1, 0]


def _solve_small(H: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    if H.shape[-1] == 1:
        return rhs / H[:, :, 0]
    det = _det_small(H)
    out = np.empty_like(rhs)
    out[:, 0] = (H[:, 1, 1] * rhs[:, 0] - H[:, 0, 1] * rhs[:, 1]) / det
    out[:, 1] = (H[:, 0, 0] * rhs[:, 1] - H[:, 1, 0] * rhs[:, 0]) / det
    return out


def _inv_small(H: np.ndarray) -> np.ndarray:
    if H.shape[-1] == 1:
        return 1.0 / H
    adj = np.empty_like(H)
    adj[:, 0, 0], adj[:, 1, 1] = H[:, 1, 1], H[:, 0, 0]
    adj[:, 0, 1], adj[:, 1, 0] = -H[:, 0, 1], -H[:, 1, 0]
    return adj / _det_small(H)[:, None, None]


def _log1p_det(a: np.ndarray, det_a, d: np.ndarray, s: float) -> np.ndarray:
    """log det(I + s A D) as log1p(s tr(A D) + s^2 det_a det D) (log1p(s A D)
    in 1D) from entrywise products: no matrix product is formed, and no
    rounding of 1 + s A D hides a small s A D."""
    if d.shape[-1] == 1:
        return np.log1p(s * (a[:, 0, 0] * d[:, 0, 0]))
    trace = a[:, 0, 0] * d[:, 0, 0] + a[:, 0, 1] * d[:, 1, 0]
    trace += a[:, 1, 0] * d[:, 0, 1] + a[:, 1, 1] * d[:, 1, 1]
    return np.log1p(s * trace + s * s * (det_a * _det_small(d)))


def mixed_discriminant(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """MD(A, B) of 2 x 2 fields, normalized so MD(A, A) = det A."""
    return 0.5 * (a[:, 0, 0] * b[:, 1, 1] + a[:, 1, 1] * b[:, 0, 0]
                  - a[:, 0, 1] * b[:, 1, 0] - a[:, 1, 0] * b[:, 0, 1])


def half_trace(a: np.ndarray, h: np.ndarray) -> np.ndarray:
    """(1/2) tr(A H), which is MD(A, H^-1) * det H: no H is inverted."""
    return 0.5 * (a[:, 0, 0] * h[:, 0, 0] + a[:, 1, 1] * h[:, 1, 1]
                  + a[:, 0, 1] * h[:, 1, 0] + a[:, 1, 0] * h[:, 0, 1])


def _row_reduce(op, a: np.ndarray) -> np.ndarray:
    """op.reduce(a, axis=1), taken column by column: numpy's reduction
    along a short trailing axis is an order of magnitude slower.  Terms
    combine left to right, as in numpy's sum of fewer than 8 terms, so
    np.add keeps the bits of a.sum(axis=1) there."""
    out = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        op(out, a[:, j], out=out)
    return out


_NEWTON_BLOCK = 8192
_NEWTON_TOL = 1e-11
_NEWTON_MAX_ITER = 80


def newton_transport(potential, targets: np.ndarray, start: np.ndarray):
    """Solve grad(potential)(z) = target per row, staying strictly interior.

    Returns z and the Hessian of the potential at z, which the last
    convergence test evaluated anyway.  A residual component settles
    below _NEWTON_TOL * (1 + max |target|).

    Damping: steps are clipped against the facet slacks (never consume
    more than 85% of the distance to the boundary) and halved until the
    residual decreases and no slack rounds to zero, so no iterate lands
    on a facet.  Saturation is judged per coordinate, in two forms.  A
    residual component below hessian * ulp cannot be improved by any
    representable move; and a component that stayed bitwise identical
    through a damped step without improving sits on the last float
    before a facet, however large its residual reads, and is frozen
    there.  Either way the component is dropped from the convergence
    norm.  The test has to be componentwise: a node pressed against one
    facet may still owe real progress along the other axis, and a
    per-node test would either stall it or retire it early.

    Rows are independent, so they are solved in fixed-size blocks whose
    temporaries stay cache-sized.  NewtonDivergence names the count of
    rows still unsettled after _NEWTON_MAX_ITER, the worst live residual
    component among them and where that row's iterate stopped.
    """
    z = start.copy()
    dim = z.shape[1]
    hess = np.empty((len(z), dim, dim))
    normals = potential.u0.normals if isinstance(potential, ShiftedPotential) \
        else potential.normals
    tol = _NEWTON_TOL * (1.0 + np.abs(targets).max())
    stalled, worst = [], []
    for lo in range(0, len(z), _NEWTON_BLOCK):
        rows = slice(lo, lo + _NEWTON_BLOCK)
        idx, res = _newton_rows(potential, normals, targets[rows], z[rows],
                                hess[rows], tol)
        stalled.append(lo + idx)
        worst.append(res)
    stalled = np.concatenate(stalled)
    if len(stalled):
        worst = np.concatenate(worst)
        node = stalled[np.argmax(worst)]
        at = ", ".join(f"{c:.17g}" for c in z[node])
        raise NewtonDivergence(
            f"Legendre inversion stalled at {len(stalled)} node(s); worst "
            f"live residual {worst.max():.3e} at node {node}, z = ({at}); "
            "a target likely asks for a slack below the float spacing")
    return z, hess


def _newton_rows(potential, normals, targets, z, hess, tol):
    """Damped Newton on the rows of z in place, filling hess at the result.

    The active rows live in compact working arrays: their block
    positions idx, iterates x, slacks ell, residuals res, targets and
    frozen flags.  Each iterate carries the slacks its residual was
    evaluated from, so the Hessian and the step clip reuse them and an
    iteration evaluates slacks once per line-search pass.  The arrays
    shrink only when some rows settle, and a row is written back to z
    and hess only when it retires.  tol is absolute here (already
    scaled by the targets' magnitude).

    Returns the block positions of the rows still unsettled after
    _NEWTON_MAX_ITER and the largest live residual component of each.
    """
    idx = np.arange(len(z))
    dim = z.shape[1]
    x = z
    ell = potential.slacks(x)
    res = potential.gradient(x, ell) - targets
    frozen = np.zeros(x.shape, dtype=bool)
    for it in range(_NEWTON_MAX_ITER + 1):
        h = potential.hessian(x, ell)
        ulp = np.abs(x)
        np.spacing(ulp, out=ulp)
        ulp *= 4.0
        # wall = |h| ulp per row, one entry at a time: broadcasting over the
        # short trailing axes is several times slower
        ah = np.abs(h)
        wall = np.empty_like(x)
        for i in range(dim):
            wall[:, i] = ah[:, i, 0] * ulp[:, 0]
            for j in range(1, dim):
                wall[:, i] += ah[:, i, j] * ulp[:, j]
        size = np.abs(res)
        live = size > tol
        live &= size > wall
        live &= ~frozen
        settled = ~_row_reduce(np.maximum, live)
        if settled.any():
            # integer take: boolean masks on 2-D rows are ~8x slower
            gone = np.flatnonzero(settled)
            z[idx[gone]] = x[gone]
            hess[idx[gone]] = h[gone]
            keep = np.flatnonzero(~settled)
            if len(keep) == 0:
                return keep, np.empty(0)
            idx, x, ell, res, h, targets, frozen, live = (
                a.take(keep, axis=0)
                for a in (idx, x, ell, res, h, targets, frozen, live))
        if it == _NEWTON_MAX_ITER:  # the last pass only tests the iterates
            break
        step = -_solve_small(h, res)
        if frozen.any():  # nor may a frozen component clip the others
            step[frozen] = 0.0
        # largest multiple of the step keeping every slack positive
        drop = step @ normals.T  # slack decrease per unit step
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(drop > 0, ell / drop, np.inf)
        t = np.minimum(1.0, 0.85 * _row_reduce(np.minimum, ratios))
        base_norm = _row_reduce(np.maximum, np.where(live, np.abs(res), 0.0))
        refused = np.zeros(len(x), dtype=bool)
        for _ in range(40):
            moved = x + t[:, None] * step
            moved_ell = potential.slacks(moved)
            new_res = potential.gradient(moved, moved_ell) - targets
            cand_norm = _row_reduce(np.maximum,
                                    np.where(live, np.abs(new_res), 0.0))
            good = cand_norm <= base_norm * (1 - 1e-4 * t) + tol
            # refuse a candidate rounded onto a facet, where only the clamp
            # in slacks() keeps the barrier finite: the node stays inside
            landed = _row_reduce(np.minimum, moved_ell) <= _SLACK_FLOOR
            refused |= landed
            good &= ~landed
            if good.all():
                break
            t = np.where(good, t, 0.5 * t)
        else:  # evaluate the last halving; a row still on a facet stays put
            moved = x + t[:, None] * step
            t[_row_reduce(np.minimum, potential.slacks(moved))
              <= _SLACK_FLOOR] = 0.0
            moved = x + t[:, None] * step
            moved_ell = potential.slacks(moved)
            new_res = potential.gradient(moved, moved_ell) - targets
        stuck = moved == x
        # a refused row may be saturated below the wall on the facet's axis
        pinned = (live | refused[:, None]) & stuck \
            & (np.abs(new_res) >= np.abs(res) * (1 - 1e-6))
        frozen = stuck & (frozen | pinned)
        x, ell, res = moved, moved_ell, new_res
    z[idx] = x
    hess[idx] = h
    return idx, _row_reduce(np.maximum, np.where(live, np.abs(res), 0.0))


# ---------------------------------------------------------------------------
# simplex-product bases: the Legendre transport in closed form


@dataclass(frozen=True)
class SimplexProduct:
    """A Delzant polytope whose facets split into blocks B, the normals
    of each block summing to 0, with one facet k0 per block dropped
    leaving a unimodular basis E of normals: the interval, and in 2D the
    Delzant triangles and parallelograms.  Each block's slacks sum to
    the constant Lambda_B = sum_{k in B} lambda_k, and grad u0 = xi of
    the Guillemin potential has a closed-form solution in log-slacks
    (Guillemin 1994; Abreu 2003): with r = -2 E^-T xi, r_k0 = 0,

        log ell_k = log Lambda_B + r_k - logsumexp_{j in B} r_j,

    the logsumexp max-shifted (log_slacks), so no slack is formed by a
    subtraction, no exp overflows and no Newton step is taken.
    With p_k = ell_k / Lambda_B and the integer vectors
    w_kl = (R_k - R_l) / 2, R_k the xi-gradient of r_k, the dual fields
    are sums of positive terms over the pairs k < l of a block,

        D2u0(x)^-1 = sum_B (2 Lambda_B) sum_{k<l} p_k p_l w_kl w_kl^T,
        Ric0       = sum_B 2 (n_B + 1) sum_{k<l} p_k p_l w_kl w_kl^T,

    Ric0 the xi-Hessian of (1/2) log det D2u0, where
    det D2u0 = prod_B 2^-n_B Lambda_B / prod_{k in B} ell_k.  Each
    diagonal entry is a sum of nonnegative terms: nothing cancels next
    to a slanted facet, as it does in ricci_reference.
    """

    normals: np.ndarray
    offsets: np.ndarray
    blocks: tuple          # facet indices per block, the dropped k0 first
    ratio_map: np.ndarray  # (n, K): r = xi @ ratio_map
    log_sums: np.ndarray   # log Lambda_B per block
    pairs: tuple           # (k, l) index arrays over the pairs of every block
    pair_outer: np.ndarray  # (P, n * n): w_kl w_kl^T
    g0_coef: np.ndarray    # log(2 / Lambda_B) per pair
    ricci_scale: np.ndarray  # (n_B + 1) / Lambda_B per pair

    def log_slacks(self, xi: np.ndarray) -> np.ndarray:
        """log ell_k, per row, at the point where grad u0 = xi.

        Each block's logsumexp is max-shifted and taken column by column:
        with top the row maximum of r over B,

            log ell_k = log Lambda_B + (r_k - top)
                        - log sum_{j in B} e^(r_j - top),

        so every exponent is at most 0, the largest slack of a block keeps
        its digits (its r_k - top is exactly 0) and no slack is formed by
        a subtraction.  The result is the transpose of a facet-by-row
        array, so each facet's column is contiguous for the column-wise
        reductions here and in the fields read from it.  Beyond r, two
        rows of scratch hold the block maximum, each exp and the shift."""
        r = self.ratio_map.T @ xi.T
        top, term = np.empty((2, r.shape[1]))
        for block, log_sum in zip(self.blocks, self.log_sums):
            cols = [r[k] for k in block]  # views: shifted in place
            np.maximum(cols[0], cols[1], out=top)
            for col in cols[2:]:
                np.maximum(top, col, out=top)
            for col in cols:
                col -= top
            total = np.exp(cols[0], out=top)  # top is spent: its row reused
            for col in cols[1:]:
                total += np.exp(col, out=term)
            shift = np.subtract(log_sum, np.log(total, out=total), out=total)
            for col in cols:
                col += shift
        return r.T

    def _pair_weights(self, log_ell):
        """2 ell_k ell_l / Lambda_B, one exp each, pair by row: log_ell.T."""
        k, l = self.pairs
        weight = log_ell.T[k]  # a fresh array: the rest runs in place
        weight += log_ell.T[l]
        weight += self.g0_coef[:, None]
        return np.exp(weight, out=weight)

    def _pair_field(self, weight):
        """sum over pairs of weight w_kl w_kl^T, each entry contiguous."""
        dim = self.normals.shape[1]
        return (self.pair_outer.T @ weight).T.reshape(-1, dim, dim)

    def inverse_hessian(self, log_ell: np.ndarray) -> np.ndarray:
        """D2u0^-1 at the point with log-slacks log_ell."""
        return self._pair_field(self._pair_weights(log_ell))

    def dual_fields(self, log_ell: np.ndarray) -> tuple:
        """(D2u0^-1, Ric0) at log_ell from the same pair weights, Ric0 the
        dual Hessian of (1/2) log det D2u0."""
        weight = self._pair_weights(log_ell)
        g0 = self._pair_field(weight)
        weight *= self.ricci_scale[:, None]
        return g0, self._pair_field(weight)


def _zero_sum_blocks(normals, free):
    """A partition of the facet indices free into blocks whose normals
    sum to 0, the block of each first free facet as small as possible;
    None if there is none."""
    if not free:
        return []
    first, rest = free[0], free[1:]
    for size in range(1, len(rest) + 1):
        for others in combinations(rest, size):
            block = (first,) + others
            if any(map(sum, zip(*(normals[k] for k in block)))):
                continue
            tail = _zero_sum_blocks(
                normals, tuple(k for k in rest if k not in others))
            if tail is not None:
                return [block] + tail
    return None


def _log(q) -> float:
    """log of a positive rational from its exact numerator and
    denominator: no float of q, which may overflow or round to 0."""
    return math.log(q.numerator) - math.log(q.denominator)


@lru_cache(maxsize=64)
def simplex_product(base: Polytope) -> SimplexProduct | None:
    """The simplex-product structure of base, or None if it has none;
    built once per polytope, as every PL rung builds a Ray on it.

    The blocks come from the exact integer normals: a product of m
    simplices in dimension n has n + m facets and its minimal zero-sum
    sets of normals are its blocks, so base is one exactly when its
    facets split into that many zero-sum blocks and the normals left
    after dropping the first facet of each have determinant +-1.
    """
    normals = [h.normal for h in base.halfspaces]
    n = base.dim
    if len(normals) > 2 * n:
        return None
    blocks = _zero_sum_blocks(normals, tuple(range(len(normals))))
    if blocks is None or len(blocks) != len(normals) - n:
        return None
    kept = [k for block in blocks for k in block[1:]]
    basis = [normals[k] for k in kept]
    if abs(_det(basis)) != 1:
        return None
    ratio_map = np.zeros((n, len(normals)))
    # basis has determinant +-1, so its inverse is an integer matrix and
    # the float inverse rounded is exact
    ratio_map[:, kept] = -2.0 * np.rint(np.linalg.inv(np.array(basis, float)))
    offsets = [h.offset for h in base.halfspaces]
    sums = [sum(offsets[k] for k in block) for block in blocks]
    pairs, g0_coef, ricci_scale = [], [], []
    for block, total in zip(blocks, sums):
        for k, l in combinations(block, 2):
            pairs.append((k, l))
            g0_coef.append(_log(2 / total))
            ricci_scale.append(float(len(block) / total))
    w = np.array([0.5 * (ratio_map[:, k] - ratio_map[:, l])
                  for k, l in pairs])
    frame = SimplexProduct(
        normals=np.array(normals, dtype=float),
        offsets=np.array([float(c) for c in offsets]),
        blocks=tuple(np.array(b) for b in blocks),
        ratio_map=ratio_map,
        log_sums=np.array([_log(s) for s in sums]),
        pairs=tuple(np.array(c) for c in zip(*pairs)),
        pair_outer=(w[:, :, None] * w[:, None, :]).reshape(len(pairs), -1),
        g0_coef=np.array(g0_coef), ricci_scale=np.array(ricci_scale))
    for value in vars(frame).values():  # every caller shares the cached frame
        for a in value if isinstance(value, tuple) else (value,):
            a.flags.writeable = False
    return frame


def alpha_frame(alpha: Polytope, dim: int) -> SimplexProduct:
    """The SimplexProduct of the twisting polytope, after every JALPHA
    check in order: DimensionMismatch, NonDelzant, and NumericalFailure
    for an alpha that is not a simplex product."""
    if alpha.dim != dim:
        raise DimensionMismatch(
            f"twisting polytope has dimension {alpha.dim}, expected {dim}")
    if not alpha.is_delzant:
        raise NonDelzant("twisting polytope is not Delzant")
    return _frame(alpha, "JALPHA", "alpha")


def _frame(base: Polytope, who: str, what: str) -> SimplexProduct:
    """simplex_product(base), or NumericalFailure naming its facet count."""
    frame = simplex_product(base)
    if frame is None:
        raise NumericalFailure(
            f"{who} needs a simplex-product {what} (an interval, a Delzant "
            f"triangle or parallelogram); this {what} has "
            f"{len(base.halfspaces)} facets")
    return frame


# ---------------------------------------------------------------------------
# rays and ray states


@dataclass(frozen=True)
class RayState:
    """The degeneration path at one rung (tau, beta) as the integrals of
    one block pass of Ray.states: no functional runs a pass of its own."""

    ray: "Ray"
    tau: float
    beta: float        # the smoothing of g_beta at this rung
    g_integral: float  # integral of g_beta, no n!
    entropy: float  # n! * integral of log_ratio
    a_ref: float    # n! * integral of phi_y e^(-log_ratio): the fixed form
    b_mov: float    # n! * integral of phi_y
    mixed: float    # n! * integral of phi_y half_trace(G0(x), H_tau); 0, n = 1
    l_ricci: float  # E_Ric: n! * integral of fixed_form_density(Ric0)
    log_det: float  # integral of log det(I + tau D2u0^-1 D2g_beta), no n!
    l_alpha: float | None  # as l_ricci for alpha's form; None, no alpha


class RungFields(NamedTuple):
    """The fields of one rung at a block of grid nodes y (Ray.fields)."""

    g: np.ndarray           # g_beta
    xi: np.ndarray          # grad u0
    grad: np.ndarray        # grad g_beta
    log_slacks: np.ndarray  # log ell_k at x: grad u0(x) = xi + tau grad g_beta
    phi_y: np.ndarray
    log_ratio: np.ndarray
    log_det: np.ndarray | None  # log det(I + tau D2u0^-1 D2g_beta), PL g
    g0_at_x: np.ndarray | None  # D2u0(x)^-1; None for n = 1
    ricci: np.ndarray           # Ric0 at x
    h_tau: np.ndarray
    det_tau: np.ndarray

    def fixed_form_density(self, form: np.ndarray) -> np.ndarray:
        """phi_y times the density at y of the Chen-Tian endpoint energy of
        the fixed form with dual Hessian form at x: MD(form, G0(x)) det
        H_tau, plus for n = 2 MD(form, H_tau^-1) det H_tau in trace form."""
        if self.g0_at_x is None:
            return self.phi_y * form[:, 0, 0] * self.det_tau
        return self.phi_y * (
            mixed_discriminant(form, self.g0_at_x) * self.det_tau
            + half_trace(form, self.h_tau))


class Ray:
    """A ladder's ray on a simplex-product base: grid, u0, frame
    (SimplexProduct), the pieces of g smoothed at beta and check_reach's
    max |xi|; no field (see fields).  One Ray at a ladder's largest tau
    serves every rung (states); other bases raise NumericalFailure first."""

    def __init__(self, cfg: ToricTestConfig, beta: float,
                 tau_max: float = 12.0):
        self.cfg = cfg
        self.u0 = guillemin_potential(cfg.base)
        self.frame = _frame(cfg.base, "a ray", "base")
        self.smooth = SmoothedPL.from_fn(cfg.g, beta)
        grid = self.grid = build_grid(cfg.g, collar_depth_for(tau_max),
                                      crease_ladder_depth(beta, tau_max))
        xi_max = max(float(np.abs(self.u0.gradient(grid.points[rows])).max())
                     for rows in grid.blocks())
        reach = 0.5 * (1.0 - math.log(_SLACK_FLOOR)) \
            * float(np.abs(self.u0.normals).sum(axis=0).max())
        self._reach = (reach, float(np.abs(self.smooth.grads).max()), xi_max)

    def _block(self, rows: slice) -> tuple:
        """The fields at the nodes rows that no rung changes: y, xi, log ell_k
        at y and D2u0, then for an exact g g_beta (SmoothedPL.value's bits)
        and its gradient, repeated (a broadcast is slow to read), for a PL g
        the pieces' row max, the pieces minus it, and D2u0^-1 (from y's
        log-slacks, or 1 / D2u0 in 1D, to the last digit) with its det."""
        pts, smooth, frame = self.grid.points[rows], self.smooth, self.frame
        ell = self.u0.slacks(pts)
        xi = self.u0.gradient(pts, ell)
        at_y, h0 = frame.log_slacks(xi), self.u0.hessian(pts, ell)
        top, vals = smooth._shifted(pts)
        if smooth.exact:
            z, _ = smooth._softmax(vals, out=vals)
            grad = np.repeat(smooth.grads, len(pts), axis=0)
            g = top + np.log(z, out=z) / smooth.beta
            return pts, xi, at_y, h0, g, grad, None, None, None
        inv_h0 = 1.0 / h0 if self.cfg.dim == 1 else frame.inverse_hessian(at_y)
        return pts, xi, at_y, h0, top, None, vals, inv_h0, _det_small(inv_h0)

    def _rung(self, block, tau: float, smooth) -> RungFields:
        """Every field of the rung (tau, smooth.beta) on a _block, each
        formed once.  x, the inverse transport of a node y, is only its
        log-slacks (SimplexProduct.log_slacks at xi + tau * grad g_beta);
        the same formula at xi gives y's, so every difference below is 0
        at tau = 0.  With step = log ell(x) - log ell(y), by
        det D2u0 = prod_B 2^-n_B Lambda_B / prod_{k in B} ell_k,

            log_ratio = -sum_k step_k - log det(I + tau D2u0^-1 D2g_beta),
            phi_y = y xi - u_tau(y) - u0*(xi)
                  = tau (<y, grad g_beta> - g_beta) + (1/2) lambda . step,

        u0*(xi) = (1/2) sum ell_k - (1/2) sum lambda_k (1 + log ell_k) with
        lambda the facet offsets, so x xi is never formed.  The log det is
        0, and skipped, for an exact g_beta.  H_tau is at y."""
        pts, xi, at_y, h_tau, g, grad, vals, inv_h0, det_inv_h0 = block
        frame, log_det = self.frame, None
        if not smooth.exact:
            z, w = smooth._softmax(vals)
            g = g + np.log(z, out=z) / smooth.beta
            grad, d2g = w @ smooth.grads, smooth.weights_hessian(w)
            log_det = _log1p_det(inv_h0, det_inv_h0, d2g, tau)
            h_tau = h_tau + np.multiply(d2g, tau, out=d2g)
        at_x = frame.log_slacks(xi + tau * grad)
        step = at_x - at_y
        log_ratio = -_row_reduce(np.add, step)
        if log_det is not None:
            log_ratio -= log_det
        phi_y = tau * (_row_reduce(np.add, pts * grad) - g) \
            + 0.5 * (step @ frame.offsets)
        g0_at_x, ricci = frame.dual_fields(at_x)
        return RungFields(g, xi, grad, at_x, phi_y, log_ratio, log_det,
                          None if self.cfg.dim == 1 else g0_at_x, ricci,
                          h_tau, _det_small(h_tau))

    def fields(self, tau: float, rows: slice) -> RungFields:
        """The rung at tau, smoothed at the Ray's beta, on the nodes rows."""
        return self._rung(self._block(rows), float(tau), self.smooth)

    def potential(self, s: float) -> ShiftedPotential:
        return ShiftedPotential(self.u0, self.smooth, float(s))

    def transport(self, s: float) -> np.ndarray:
        """Moved points: the u_s-moment images of the grid nodes, solved
        from the grid on every call.  No energy reads it."""
        xi = self.u0.gradient(self.grid.points)
        return newton_transport(self.potential(s), xi, self.grid.points)[0]

    def inverse_transport(self, s: float) -> np.ndarray:
        """log ell_k at the x whose u_s-moment image is each node y, as in
        fields; kept for the tests and perfbench/tracer.py's hook by name."""
        return np.concatenate([self.fields(s, rows).log_slacks
                               for rows in self.grid.blocks()])

    def check_reach(self, tau: float) -> None:
        """NewtonDivergence if tau shifts some target xi + tau * grad g_beta
        past the reach of grad u0 at _SLACK_FLOOR, by the bounds __init__
        took: no inverse transport then keeps every slack above the floor.
        At every beta grad g_beta is a convex combination of the piece
        gradients, so the largest of them bounds it."""
        reach, grad_max, xi_max = self._reach
        shift = float(tau) * grad_max
        if shift > reach + xi_max:
            raise NewtonDivergence(
                f"moment targets shift by tau * |grad g| = {shift:.3g}, "
                f"beyond the reach {reach:.4g} of grad u0 at the slack floor")

    def states(self, rungs, alpha: Polytope | None = None) -> list:
        """The RayState of each rung (tau, beta), in order, from one pass
        over the grid's blocks: per block its _block once, then per rung its
        _rung, every density (L_alpha too, given alpha) summed into the
        rung's integrals.  check_reach and alpha_frame refuse first."""
        rungs = [(float(tau), float(beta)) for tau, beta in rungs]
        self.check_reach(max(tau for tau, _ in rungs))
        twist = None if alpha is None else alpha_frame(alpha, self.cfg.dim)
        smooths = [replace(self.smooth, beta=beta) for _, beta in rungs]
        n, weights = self.cfg.dim, self.grid.weights
        # per rung: g, entropy, a_ref, b_mov, mixed, l_ricci, log_det, l_alpha
        sums = np.zeros((len(rungs), 8))
        for rows in self.grid.blocks():
            block, w = self._block(rows), weights[rows]
            for acc, (tau, _), smooth in zip(sums, rungs, smooths):
                f = self._rung(block, tau, smooth)
                acc[0] += f.g @ w
                acc[1] += f.log_ratio @ w
                acc[2] += (f.phi_y * np.exp(-f.log_ratio)) @ w
                acc[3] += f.phi_y @ w
                if n > 1:
                    acc[4] += (f.phi_y * half_trace(f.g0_at_x, f.h_tau)) @ w
                acc[5] += f.fixed_form_density(f.ricci) @ w
                if f.log_det is not None:
                    acc[6] += f.log_det @ w
                if twist is not None:
                    theta = twist.inverse_hessian(
                        twist.log_slacks(f.xi + tau * f.grad))
                    acc[7] += f.fixed_form_density(theta) @ w
        fact = math.factorial(n)
        return [RayState(self, tau, beta, float(acc[0]),
                         *(fact * float(v) for v in acc[1:6]), float(acc[6]),
                         None if twist is None else fact * float(acc[7]))
                for acc, (tau, beta) in zip(sums, rungs)]

    def state(self, tau: float, alpha: Polytope | None = None) -> RayState:
        """states of the one rung at tau, smoothed at the Ray's beta."""
        return self.states([(tau, self.smooth.beta)], alpha)[0]

    @staticmethod
    def point_derivative(u0, smooth, tau: float, p: np.ndarray) -> float:
        """phi_dot at a reference point p, from one 1-row forward solve of
        u0 + tau * g_beta started at p: no grid is built.  DomainMismatch,
        before Newton runs, if some float slack at p is 0 or below."""
        if (p @ u0.normals.T >= u0.offsets).any():
            at = ", ".join(f"{c:.17g}" for c in p)
            raise DomainMismatch(f"phi_dot probe ({at}) is not strictly "
                                 "inside the polytope")
        target = u0.gradient(p[None, :])
        moved, _ = newton_transport(ShiftedPotential(u0, smooth, float(tau)),
                                    target, p[None, :].copy())
        return float(-smooth.value(moved)[0])


# ---------------------------------------------------------------------------
# curvature fields


def abreu_scalar_curvature(potential, pts: np.ndarray) -> np.ndarray:
    """Abreu's scalar curvature S = -kappa * sum_jk d2(u^{jk})/dx_j dx_k.

    Closed form in G = H^-1 and one list of vectors V_m with weights
    c_m, which write the third derivative of u as sum_m c_m V_m^(x3).
    Each facet gives V_k = nu_k with c_k = w_k^2 / 2 (w = 1/slack); each
    smoothed PL piece gives V_i = a_i - abar with c_i = s beta^2 p_i,
    where p is the softmax weight, a_i the piece gradients and abar =
    sum_i p_i a_i.  With Q_ml = V_m . G V_l and q_m = Q_mm,

        S / kappa = sum_facets w_k^3 q_k^2
                    + s beta^3 (sum p_i q_i^2 - (sum p_i q_i)^2
                                - 2 sum_ij p_i p_j Q_ij^2)
                    - sum_ml c_m q_m c_l q_l Q_ml - sum_ml c_m c_l Q_ml^3

    which follows from d_j d_k G = G (d_j H G d_k H + d_k H G d_j H
    - d_j d_k H) G: the fourth derivative of u is sum_k w_k^3 nu_k^(x4)
    plus s beta^3 times the fourth softmax cumulant.  In one dimension
    this reduces to G^2 (u'''' - 2 G u'''^2), evaluated as scalars.
    kappa = 1/2 makes the mean curvature equal n times the slope.
    """
    if isinstance(potential, ShiftedPotential):
        u0, smooth, s = potential.u0, potential.smooth, potential.s
        pl = not smooth.exact and s != 0.0
    else:
        u0, pl = potential, False
    ell = u0.slacks(pts)
    w = 1.0 / ell
    hess = u0.hessian(pts, ell)
    nu = u0.normals
    if pl:
        p = smooth._fields(pts)[2]
        beta = smooth.beta
        hess = hess + s * smooth.weights_hessian(p)
    ginv = _inv_small(hess)
    if nu.shape[1] == 1:
        g = ginv[:, 0, 0]
        third = 0.5 * (w * w) @ nu[:, 0] ** 3
        fourth = w ** 3 @ nu[:, 0] ** 4
        if pl:
            v = smooth.grads[None, :, 0] - p @ smooth.grads
            pv2 = p * v * v
            var = pv2.sum(axis=1)
            third += s * beta ** 2 * (pv2 * v).sum(axis=1)
            fourth += s * beta ** 3 * ((pv2 * v * v).sum(axis=1)
                                       - 3.0 * var * var)
        return KAPPA * g * g * (fourth - 2.0 * g * third * third)
    n_facets, dim = nu.shape
    vec = np.vstack([nu, smooth.grads]) if pl else nu
    m = len(vec)
    pair = (vec[:, None, :, None] * vec[None, :, None, :]).reshape(
        m * m, dim * dim)
    big_q = (ginv.reshape(len(pts), dim * dim) @ pair.T).reshape(-1, m, m)
    c = 0.5 * w * w
    if pl:
        # centre the piece vectors: V_i = a_i - sum_j p_j a_j
        big_q[:, :, n_facets:] -= big_q[:, :, n_facets:] @ p[:, :, None]
        big_q[:, n_facets:, :] -= p[:, None, :] @ big_q[:, n_facets:, :]
        c = np.hstack([c, s * beta ** 2 * p])
    q = np.diagonal(big_q, axis1=1, axis2=2)
    cq = c * q
    total = (w ** 3 * q[:, :n_facets] ** 2).sum(axis=1) \
        - _quadratic(cq, big_q, cq) - _quadratic(c, big_q * big_q * big_q, c)
    if pl:
        qp = q[:, n_facets:]
        qq = big_q[:, n_facets:, n_facets:]
        total += s * beta ** 3 * ((p * qp * qp).sum(axis=1)
                                  - (p * qp).sum(axis=1) ** 2
                                  - 2.0 * _quadratic(p, qq * qq, p))
    return KAPPA * total


def _quadratic(x: np.ndarray, a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Rowwise x^T A y for (n, m) vectors and (n, m, m) matrices."""
    return ((a @ y[:, :, None])[:, :, 0] * x).sum(axis=1)


_RICCI_BLOCK = 2048


def ricci_reference(u0: SymplecticPotential, pts: np.ndarray) -> np.ndarray:
    """Hessian in moment-dual coordinates of (1/2) log det D2u0.

    Assembled in facet space.  With facet indices k, k', coordinate
    indices i, j, w_k = 1/ell_k, P_k = H^-1 nu_k, Q_kk' = nu_k . P_k'
    and q_k = Q_kk, the x-derivatives of v = log det H are

        d_i v      = (1/2) sum_k w_k^2 nu_ki q_k
        d_i d_j v  = sum_k w_k^3 q_k nu_ki nu_kj
                     - (1/4) sum_kk' w_k^2 w_k'^2 nu_ki nu_k'j Q_kk'^2

    and the chain rule to dual coordinates, whose correction term is
    (1/2) sum_k w_k^2 nu_kj P_k (P_k . grad v), collapses to

        (1/2) H^-1 (sum_kk' D_kk' nu_k nu_k'^T) H^-1,
        D_kk' = w_k^3 q_k delta_kk' - (1/4) w_k^2 w_k'^2 Q_kk'^2
                - (1/2) delta_kk' w_k^2 (P_k . grad v).

    Only (n, K) and (n, K, K) arrays appear; rows are processed in
    fixed-size blocks so the temporaries stay small.  Along
    axis-parallel facets (the square's collar, which the transported
    nodes press onto up to the float-representability wall) the result
    is exact to rounding.  Along slanted facets the w^3 and w^4 terms
    cancel: against a long-double evaluation of the same chain rule on
    the unit simplex the relative error is about 3e-9 at slack 1e-4 and
    4e-6 at slack 1e-5, and the field is not trustworthy below slack
    about 1e-6.  No energy reads it (Ray.fields takes Ric0 from
    SimplexProduct.dual_fields): the tests use it as that field's reference,
    and perfbench/tracer.py hooks it by name, so it stays here until that
    hook is retired.
    """
    nu = u0.normals
    n_facets, dim = nu.shape
    # pair[(k, k'), (i, j)] = nu_ki nu_k'j
    pair = (nu[:, None, :, None] * nu[None, :, None, :]).reshape(
        n_facets * n_facets, dim * dim)
    diag = np.arange(n_facets) * (n_facets + 1)
    out = np.empty((len(pts), dim, dim))
    for lo in range(0, len(pts), _RICCI_BLOCK):
        x = pts[lo:lo + _RICCI_BLOCK]
        rows = len(x)
        ell = u0.slacks(x)
        w = 1.0 / ell
        w2 = w * w
        hinv = _inv_small(u0.hessian(x, ell))
        big_q = hinv.reshape(rows, dim * dim) @ pair.T
        q = big_q[:, diag]
        # 2 (P_k . grad v) = sum_k' Q_kk' w_k'^2 q_k'
        p_grad = np.einsum("nkl,nl->nk",
                           big_q.reshape(rows, n_facets, n_facets), w2 * q)
        d = big_q * big_q
        d *= (w2[:, :, None] * w2[:, None, :]).reshape(rows, -1)
        d *= -0.25
        d[:, diag] += w2 * (w * q - 0.25 * p_grad)
        mid = (d @ pair).reshape(rows, dim, dim)
        out[lo:lo + rows] = 0.5 * (hinv @ mid @ hinv)
    return out
