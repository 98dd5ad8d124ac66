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
log-slacks (SimplexProduct.ricci); with this pairing the pointwise
identity S = n * MD(ricci, G^(n-1)) / det G holds against the same
grids (tested).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np

from .errors import (DomainMismatch, NewtonDivergence, NonDelzant,
                     NumericalFailure)
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
    # fresh (n, K) temporary costs more than the arithmetic done in it

    def slacks(self, pts: np.ndarray) -> np.ndarray:
        ell = pts @ self.normals.T
        np.subtract(self.offsets, ell, out=ell)
        return np.maximum(ell, _SLACK_FLOOR, out=ell)

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
        """Row max, softmax normaliser and softmax weights at pts; both
        reductions run column by column (see _row_reduce)."""
        vals = pts @ self.grads.T  # then in place, column by column too
        for col, const in zip(vals.T, self.consts):
            col += const
        top = _row_reduce(np.maximum, vals)
        for col in vals.T:
            col -= top
        w = np.exp(np.multiply(vals, self.beta, out=vals), out=vals)
        z = _row_reduce(np.add, w)
        for col in w.T:
            col /= z
        return top, z, w

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

    def integrate_blocks(self, density) -> float:
        """integrate of the field density(rows) forms block by block, in
        one grid-length array: integrate's order of summation, its bits."""
        values = np.empty(self.size)
        for rows in self.blocks():
            values[rows] = density(rows)
        return self.integrate(values)

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


def _log1p_det(m: np.ndarray, s: float) -> np.ndarray:
    """log det(I + s m) as log1p(s tr m + s^2 det m) (log1p(s m) in 1D):
    no rounding of 1 + s m hides a small s m, and no matrix field is
    formed."""
    if m.shape[-1] == 1:
        return np.log1p(s * m[:, 0, 0])
    return np.log1p(s * (m[:, 0, 0] + m[:, 1, 1]) + s * s * _det_small(m))


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
    ricci_coef: np.ndarray  # log(2 (n_B + 1) / Lambda_B^2) per pair

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
        reductions here and in the fields read from it."""
        r = self.ratio_map.T @ xi.T
        for block, log_sum in zip(self.blocks, self.log_sums):
            cols = [r[k] for k in block]  # views: shifted in place
            top = cols[0].copy()
            for col in cols[1:]:
                np.maximum(top, col, out=top)
            for col in cols:
                col -= top
            total = np.exp(cols[0])
            for col in cols[1:]:
                total += np.exp(col)
            shift = log_sum - np.log(total)
            for col in cols:
                col += shift
        return r.T

    def _pair_field(self, log_ell, log_coef):
        k, l = self.pairs
        weight = np.exp(log_ell[:, k] + log_ell[:, l] + log_coef)
        dim = self.normals.shape[1]
        return (weight @ self.pair_outer).reshape(-1, dim, dim)

    def inverse_hessian(self, log_ell: np.ndarray) -> np.ndarray:
        """D2u0^-1 at the point with log-slacks log_ell."""
        return self._pair_field(log_ell, self.g0_coef)

    def ricci(self, log_ell: np.ndarray) -> np.ndarray:
        """Ric0, the dual Hessian of (1/2) log det D2u0, at log_ell."""
        return self._pair_field(log_ell, self.ricci_coef)


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
    pairs, g0_coef, ricci_coef = [], [], []
    for block, total in zip(blocks, sums):
        for k, l in combinations(block, 2):
            pairs.append((k, l))
            g0_coef.append(_log(2 / total))
            ricci_coef.append(_log(2 * len(block) / total ** 2))
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
        g0_coef=np.array(g0_coef), ricci_coef=np.array(ricci_coef))
    for value in vars(frame).values():  # every caller shares the cached frame
        for a in value if isinstance(value, tuple) else (value,):
            a.flags.writeable = False
    return frame


# ---------------------------------------------------------------------------
# rays and ray states


@dataclass(frozen=True)
class RayState:
    """The degeneration path at one tau, in its transported frame.

    Fields are indexed by the grid node in its role as transported
    coordinate y, where the plain node weights integrate against the
    evolving volume form and e^(-log_ratio) times them against the fixed
    one.  x, the inverse transport of a node, is held only as
    log_slacks, the log ell_k at x (SimplexProduct), and every field at
    x comes in closed form from them: phi_y is the potential increment
    at x, log_ratio is log det D2u0(x) - log det H_tau and entropy is n!
    times its integral (read by energy_report and mabuchi).  No matrix
    field is held: wedge_fields forms them for one block of rows.
    """

    ray: "Ray"
    tau: float
    phi_y: np.ndarray
    log_ratio: np.ndarray
    entropy: float
    log_slacks: np.ndarray

    def wedge_fields(self, rows: slice) -> tuple:
        """(D2u0(x)^-1, H_tau, det H_tau) at the nodes rows, for the wedge
        densities: D2u0(x)^-1 from the log-slacks (None for n = 1),
        H_tau = D2u0 + tau D2g_beta (D2u0 for an exact g_beta)."""
        ray, pts = self.ray, self.ray.grid.points[rows]
        h_tau = ray.u0.hessian(pts)
        if not ray.smooth.exact:
            d2g = ray.smooth.hessian(pts)
            h_tau += np.multiply(d2g, self.tau, out=d2g)
        g0_at_x = None if ray.cfg.dim == 1 else \
            ray.frame.inverse_hessian(self.log_slacks[rows])
        return g0_at_x, h_tau, _det_small(h_tau)


class Ray:
    """Workspace for one smoothing level on a simplex-product base, its
    frame (SimplexProduct) and the grid fields every state reads.  Any
    other base is refused with NumericalFailure before a grid is built."""

    def __init__(self, cfg: ToricTestConfig, beta: float,
                 tau_max: float = 12.0):
        self.cfg = cfg
        self.u0 = guillemin_potential(cfg.base)
        self.frame = simplex_product(cfg.base)
        if self.frame is None:
            raise NumericalFailure(
                f"a ray needs a simplex-product base (an interval, a Delzant "
                f"triangle or parallelogram); this base has "
                f"{len(cfg.base.halfspaces)} facets")
        self.smooth = SmoothedPL.from_fn(cfg.g, beta)
        grid = self.grid = build_grid(cfg.g, collar_depth_for(tau_max),
                                      crease_ladder_depth(beta, tau_max))
        self.xi, self.g_vals = np.empty(grid.points.shape), np.empty(grid.size)
        self.g_grad = np.broadcast_to(self.smooth.grads[0], self.xi.shape) \
            if self.smooth.exact else np.empty(self.xi.shape)
        for rows in grid.blocks():  # no temporary as long as the grid
            pts = grid.points[rows]
            self.xi[rows] = self.u0.gradient(pts)
            self.g_vals[rows] = self.smooth.value(pts)
            if not self.smooth.exact:
                self.g_grad[rows] = self.smooth.gradient(pts)

    def h0_inv_g_hess(self, rows: slice) -> np.ndarray:
        """D2u0^-1 D2g_beta at the nodes rows, for log det(I + tau of it)
        in log_ratio and route (b); D2u0^-1 is closed form in the
        log-slacks (1 / D2u0 in 1D, to the last digit, times D2g_beta
        elementwise: a 1 x 1 matmul costs a BLAS call per node)."""
        pts = self.grid.points[rows]
        if self.cfg.dim == 1:
            return (1.0 / self.u0.hessian(pts)) * self.smooth.hessian(pts)
        return self.frame.inverse_hessian(self.frame.log_slacks(
            self.xi[rows])) @ self.smooth.hessian(pts)

    def potential(self, s: float) -> ShiftedPotential:
        return ShiftedPotential(self.u0, self.smooth, float(s))

    def transport(self, s: float) -> np.ndarray:
        """Moved points: the u_s-moment images of the grid nodes, solved
        from the grid on every call.  No energy reads it: every energy is
        taken in the log-slacks of inverse_transport (Ray.state)."""
        return newton_transport(self.potential(s), self.xi,
                                self.grid.points)[0]

    def inverse_transport(self, s: float) -> np.ndarray:
        """log ell_k at the x whose u_s-moment image is each node y, from
        grad u0(x) = grad u_s(y) (SimplexProduct); state reads the same
        log-slacks, so only the tests call this, and perfbench/tracer.py
        hooks it by name, so it stays here until that hook is retired."""
        return self.frame.log_slacks(self.xi + float(s) * self.g_grad)

    @cached_property
    def _reach(self) -> tuple:
        """(reach of grad u0 at _SLACK_FLOOR, max |grad g_beta|, max |xi|)
        over the grid: check_reach's bounds, taken once per Ray."""
        reach = 0.5 * (1.0 - math.log(_SLACK_FLOOR)) \
            * float(np.abs(self.u0.normals).sum(axis=0).max())
        return (reach, float(np.abs(self.g_grad).max()),
                float(np.abs(self.xi).max()))

    def check_reach(self, tau: float) -> None:
        """NewtonDivergence if tau shifts some target xi + tau * grad g_beta
        past the reach of grad u0 at _SLACK_FLOOR: such a tau has no
        inverse transport with every slack above the floor."""
        reach, grad_max, xi_max = self._reach
        shift = float(tau) * grad_max
        if shift > reach + xi_max:
            raise NewtonDivergence(
                f"moment targets shift by tau * |grad g| = {shift:.3g}, "
                f"beyond the reach {reach:.4g} of grad u0 at the slack floor")

    def state(self, tau: float) -> RayState:
        """The transported frame at tau; check_reach refuses an
        unreachable tau first.  It is closed form from the log-slacks at
        x and, through the same formula at xi, at the nodes y, so every
        difference below is 0 bit for bit at tau = 0.  With
        step = log ell(x) - log ell(y) and
        det D2u0 = prod_B 2^-n_B Lambda_B / prod_{k in B} ell_k,

            log_ratio = -sum_k step_k - log det(I + tau D2u0^-1 D2g_beta),
            phi_y = y xi - u_tau(y) - u0*(xi)
                  = tau (<y, grad g_beta> - g_beta) + (1/2) lambda . step,

        with the Legendre dual in slacks,
        u0*(xi) = (1/2) sum ell_k - (1/2) sum lambda_k (1 + log ell_k)
        (lambda the facet offsets; each block's slacks sum to Lambda_B),
        so x xi is never formed.  For an exact g_beta the log det term,
        0, is skipped.  Rows go in blocks of _NEWTON_BLOCK, so no
        temporary is as long as the grid, and no matrix field is kept."""
        tau = float(tau)
        self.check_reach(tau)
        frame, size = self.frame, self.grid.size
        log_ell = np.empty((len(frame.offsets), size)).T  # as log_slacks
        phi_y, log_ratio = np.empty(size), np.empty(size)
        for rows in self.grid.blocks():
            xi, grad = self.xi[rows], self.g_grad[rows]
            at_x = log_ell[rows] = frame.log_slacks(xi + tau * grad)
            step = at_x - frame.log_slacks(xi)
            log_ratio[rows] = -_row_reduce(np.add, step)
            phi_y[rows] = tau * (_row_reduce(np.add,
                                             self.grid.points[rows] * grad)
                                 - self.g_vals[rows]) \
                + 0.5 * (step @ frame.offsets)
            if not self.smooth.exact:
                log_ratio[rows] -= _log1p_det(self.h0_inv_g_hess(rows), tau)
        return RayState(ray=self, tau=tau, phi_y=phi_y, log_ratio=log_ratio,
                        entropy=math.factorial(self.cfg.dim)
                        * self.grid.integrate(log_ratio),
                        log_slacks=log_ell)

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
    about 1e-6.  No energy reads it (mabuchi takes Ric0 from
    SimplexProduct.ricci): the tests use it as that field's reference,
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
