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
    edge, see fan_grid).  A Grid holds reference rules, cached per
    grading, and the small affine maps that place them on each cell or
    facet; a pass generates the nodes of one block at a time
    (Grid.blocks), so no array holds every node,
  * the inverse Legendre transport of u0 on a simplex-product base (the
    interval, Delzant triangles and parallelograms; SimplexProduct) in
    closed form: the shares ell_k / Lambda_B of the point x where
    grad u0(x) = xi are a softmax of r = -2 E^-T xi per block, and a rung
    rescales y's shares, so no Newton step is taken, no slack is formed
    by subtraction and x itself is never formed.  Every rung density is a
    sum of nonnegative pair scalars or the product det (Ray._rung), no
    2 x 2 field formed.  A Ray refuses any other base.  The forward
    transport grad u_tau(x_tau) = grad u_0(x) is a damped Newton solve.

Scalar curvature uses Abreu's expression in closed form with the
calibration kappa = 1/2, so that the mean curvature equals n times the
slope; with Ric0 the xi-Hessian of half the log det of the potential
Hessian, S = n * MD(ricci, G^(n-1)) / det G holds on the same grids.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial
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

    # slacks (a transposed facet-by-row array), gradient and hessian work
    # in place: on a block, ops along a short trailing axis cost more

    def slacks(self, pts: np.ndarray) -> np.ndarray:
        ell = self.normals @ pts.T
        np.subtract(self.offsets[:, None], ell, out=ell)
        return np.maximum(ell, _SLACK_FLOOR, out=ell).T

    # gradient and hessian take the slacks at pts when the caller has them

    def gradient(self, pts: np.ndarray, ell=None) -> np.ndarray:
        if ell is None:
            ell = self.slacks(pts)
        g = np.log(ell)
        g += 1.0
        g *= -0.5
        return g @ self.normals

    def hessian(self, pts: np.ndarray, ell=None) -> np.ndarray:
        inv = 1.0 / (self.slacks(pts) if ell is None else ell)
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

    @property
    def hessian_vectors(self) -> np.ndarray:
        """a_i - a_j per pair of pieces i < j (hessian_weights' order)."""
        i, j = _index_pairs(len(self.consts))
        return self.grads[i] - self.grads[j]

    def hessian_weights(self, w: np.ndarray) -> np.ndarray:
        """beta w_i w_j per pair of pieces i < j, pair by row: D2g_beta sums
        them times the hessian_vectors' outer products, no term negative."""
        i, j = _index_pairs(w.shape[1])
        c = w.T[i]
        c *= w.T[j]
        return np.multiply(c, self.beta, out=c)

    def weights_hessian(self, w: np.ndarray) -> np.ndarray:
        """Hessian from the softmax weights w that _fields returns."""
        v, dim = self.hessian_vectors, self.grads.shape[1]
        outer = (v[:, :, None] * v[:, None, :]).reshape(len(v), dim * dim)
        return (self.hessian_weights(w).T @ outer).reshape(-1, dim, dim)


# (i, j) index arrays over the pairs i < j of range(count), once per count
_index_pairs = lru_cache(maxsize=None)(partial(np.triu_indices, k=1))


@dataclass(frozen=True)
class ShiftedPotential:
    """u_s = u0 + s * g_beta along a ray; same vectorized interface."""

    u0: SymplecticPotential
    smooth: SmoothedPL
    s: float

    def slacks(self, pts):
        return self.u0.slacks(pts)

    def gradient(self, pts, ell=None):
        return self.u0.gradient(pts, ell) + self.s * self.smooth.gradient(pts)

    def hessian(self, pts, ell=None):
        return self.u0.hessian(pts, ell) + self.s * self.smooth.hessian(pts)


# ---------------------------------------------------------------------------
# quadrature grids


_BLOCK = 8192  # rows per block of a pass over a grid (Grid.blocks)


@dataclass(frozen=True)
class Grid:
    """A quadrature grid as pieces, its nodes generated block by block:
    no array holds every node.  A piece is a reference rule, cached and
    shared, and the affine map that places it: a line cell's panel
    rule (x, w) and (a, span), or a fan facet's (t, s, w) and
    (A, B, barycenter, |det|)."""

    dim: int
    pieces: tuple  # (rule, where it is placed) per line cell or fan facet

    @property
    def size(self) -> int:
        return sum(len(rule[-1]) for rule, _ in self.pieces)

    def blocks(self):
        """(points, weights) of each window of _BLOCK rows, in order, each
        node placed as line_grid and fan_grid define it, fresh arrays per
        window; a window may span several pieces."""
        place = _line_nodes if self.dim == 1 else _fan_nodes
        size, pieces = self.size, iter(self.pieces)
        at = end = 0  # the next row of the current piece, and its length
        for lo in range(0, size, _BLOCK):
            rows = min(_BLOCK, size - lo)
            pts, weights = np.empty((rows, self.dim)), np.empty(rows)
            done = 0
            while done < rows:
                if at == end:
                    (rule, where), at = next(pieces), 0
                    end = len(rule[-1])
                take = min(rows - done, end - at)
                place(rule, where, slice(at, at + take),
                      pts[done:done + take], weights[done:done + take])
                at, done = at + take, done + take
            yield pts, weights


def _line_nodes(rule, where, rows, pts, weights):
    """The nodes rows of a line cell: a + span x, weight span w."""
    (x, w), (a, span) = rule, where
    np.add(a, span * x[rows], out=pts[:, 0])
    np.multiply(span, w[rows], out=weights)


def _fan_nodes(rule, where, rows, pts, weights):
    """The nodes rows of a fan facet: (u A + s B) t + bary, u = 1 - s,
    weight w |det|."""
    (t, s, w), (A, B, bary, det) = (r[rows] for r in rule), where
    u = 1 - s
    for k in range(2):  # by coordinate: contiguous temporaries
        pts[:, k] = (u * A[k] + s * B[k]) * t + bary[k]
    np.multiply(w, det, out=weights)


def collar_depth_for(tau_max: float) -> int:
    """Dyadic grading depth resolving the exp(-2 tau) boundary collar,
    capped at 46: beyond 2^-46 nodes near a facet with unit-scale offset
    quantize onto the boundary, so integrals weighted by the transported
    volume form are taken in transported coordinates (functionals)."""
    need = (2.0 * float(tau_max) + 14.0) / math.log(2.0)
    return max(12, math.ceil(min(46.0, need)))  # need may be inf


@lru_cache(maxsize=None)
def _gauss_rule(order: int):
    """Gauss-Legendre rule on [-1, 1], built once per order, read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


@lru_cache(maxsize=None)
def _gauss_panel(a: float, b: float, order: int):
    """The rule of `order` mapped onto [a, b], once per panel, read-only."""
    x, w = _gauss_rule(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    x, w = mid + half * x, half * w
    x.flags.writeable = w.flags.writeable = False
    return x, w


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
    """Graded Gauss panels on the exact [lo, hi] (an interval cell of g,
    or an edge stretch between creases).  depths holds per end its collar
    depth at a facet of P, or None at a crease, where the breaks halve to
    a panel of at most 0.08 * 2^-crease_depth (a kink is swept on a scale
    1/(beta tau)) with order 16 on that half; the inner half [1/4, 3/4]
    takes order 16 too, the rest of a facet end's half graded_order.
    The Grid holds _line_rule's (x, w) on [0, 1] and (lo, hi - lo); its
    blocks place node a + span x, weight span w."""
    # a crease end: the least k >= 2 with span 2^-k <= 0.08 * 2^-crease_depth
    need = math.ceil((hi - lo) * 25 * 2 ** crease_depth / 2)  # 0.08 = 2/25
    levels = [max(2, (need - 1).bit_length()) if d is None else d
              for d in depths]
    lower, upper = (16 if d is None else graded_order for d in depths)
    rule = _line_rule(*levels, (lower, 16, upper))
    where = (float(lo), float(hi) - float(lo))
    return Grid(1, ((rule, where),))


@lru_cache(maxsize=None)
def _line_rule(lower: int, upper: int, orders: tuple):
    """line_grid's reference rule (x, w) on [0, 1], once per grading,
    read-only."""
    rule = _panel_nodes(_graded_breaks(lower, upper), orders)
    for a in rule:
        a.flags.writeable = False
    return rule


@lru_cache(maxsize=None)
def _fan_rule(depth: int, inner_order: int, graded_order: int):
    """fan_grid's reference rule (t, s, w), once per depth, read-only."""
    levels = sorted({*range(1, min(8, depth) + 1), *range(9, depth, 2), depth})
    # (a, b, radial order, level of b); the last panel ends on the facet
    panels = [(0.0, 0.25, inner_order, 0), (0.25, 0.5, inner_order, 1)] + [
        (1.0 - 0.5 ** j, 1.0 - 0.5 ** k,
         10 if k <= depth - 10 else graded_order, k)
        for j, k in zip(levels, levels[1:])]
    panels.append((1.0 - 0.5 ** depth, 1.0, graded_order, depth))
    s_rules = {d: _panel_nodes(_graded_breaks(d, d),
                               (graded_order, inner_order, graded_order))
               for d in {min(depth, max(3, k + 2)) for *_, k in panels}}
    blocks = []
    for a, b, order, k in panels:
        tx, tw = _gauss_panel(a, b, order)
        sx, sw = s_rules[min(depth, max(3, k + 2))]
        blocks.append((np.repeat(tx, len(sx)), np.tile(sx, len(tx)),
                       (np.outer(tw, sw) * tx[:, None]).reshape(-1)))
    rule = tuple(map(np.concatenate, zip(*blocks)))
    for a in rule:
        a.flags.writeable = False
    return rule


def fan_grid(cells, depth: int, inner_order: int = 12,
             graded_order: int = 4) -> Grid:
    """A barycentric fan per cell, graded at the collar and corners.

    Each facet spans a triangle (barycenter, v_i, v_j) in radial t and
    along-edge s.  Radially, [0, 1/2] is two inner panels, then breaks
    1 - 2^-k at every level k <= 8, every second level beyond, and depth,
    with Gauss order 10 on the panels ending at k <= depth - 10 and
    graded_order on the deepest ten (Babuska & Guo 1986).  The radial
    panel ending at 1 - 2^-k grades s to min(depth, max(3, k + 2)), the
    one touching the facet to depth: only corner panels need 2^-depth
    along the edge.  Every facet places _fan_rule's (t, s, w) as
    (u A + s B) t + bary, u = 1 - s, weight w |det| (A, B its vertices
    less bary), node by node as Grid.blocks reaches them.
    """
    rule = _fan_rule(depth, inner_order, graded_order)
    pieces = []
    for cell in cells:
        bary = np.array([float(c) for c in volume_data(cell).barycenter])
        for fv in cell.facet_vertices:
            vi, vj = sorted(fv)[:2]
            A = np.array([float(c) for c in cell.vertices[vi]]) - bary
            B = np.array([float(c) for c in cell.vertices[vj]]) - bary
            det = abs(A[0] * B[1] - A[1] * B[0])
            pieces.append((rule, (A, B, bary, det)))
    return Grid(2, tuple(pieces))


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
    return Grid(1, sum((grid.pieces for grid in grids), ()))


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


def _pair_cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """MD(a_i a_i^T, b_j b_j^T) = det(a_i, b_j)^2 / 2 (2D, MD(A, A) = det A):
    det(sum_i c_i a_i a_i^T) = c^T M c, M a's with a, terms all >= 0."""
    det = a[:, 0, None] * b[:, 1] - a[:, 1, None] * b[:, 0]
    return 0.5 * det * det


def _pair_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_p a_p b_p per row of two pair-by-row arrays."""
    return np.einsum("pr,pr->r", a, b)


def _row_reduce(op, a: np.ndarray) -> np.ndarray:
    """op.reduce(a, axis=1) column by column (numpy's reduction along a
    short trailing axis is far slower), left to right: np.add keeps the
    bits of a.sum(axis=1) for fewer than 8 terms."""
    out = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        op(out, a[:, j], out=out)
    return out


_NEWTON_TOL = 1e-11
_NEWTON_MAX_ITER = 80


def newton_transport(potential, targets: np.ndarray, start: np.ndarray):
    """Solve grad(potential)(z) = target per row, staying strictly interior,
    and return z.  A residual component settles below its own row's
    _NEWTON_TOL * (1 + max_i |target_i|), so no row depends on the others.

    Steps are clipped to 85% of the distance to the boundary and halved
    until the residual decreases and no slack rounds to zero, so no
    iterate lands on a facet.  A residual component is dropped from the
    norm, per coordinate, when it is below hessian * ulp, or when it
    stayed bitwise identical through a damped step without improving
    (the last float before a facet): a node pressed against one facet
    may still owe progress along the other axis.  A row with no live
    component takes a zero step; each iterate carries the slacks its
    residual was evaluated from.  NewtonDivergence names the count of
    rows unsettled after _NEWTON_MAX_ITER, the worst live residual
    component among them and where that row's iterate stopped.
    """
    x = start.copy()
    dim = x.shape[1]
    normals = potential.u0.normals if isinstance(potential, ShiftedPotential) \
        else potential.normals
    tol = _NEWTON_TOL * (1.0 + _row_reduce(np.maximum, np.abs(targets)))
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
        live = size > tol[:, None]
        live &= size > wall
        live &= ~frozen
        active = _row_reduce(np.maximum, live)
        if it == _NEWTON_MAX_ITER or not active.any():
            break  # all settled, or the last pass: it only tests the iterates
        step = -_solve_small(h, res)
        if not active.all():  # a settled row stays put
            step[~active] = 0.0
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
    if active.any():  # a settled row's worst live residual reads 0
        worst = _row_reduce(np.maximum, np.where(live, np.abs(res), 0.0))
        node = np.argmax(worst)
        at = ", ".join(f"{c:.17g}" for c in x[node])
        raise NewtonDivergence(
            f"Legendre inversion stalled at {active.sum()} node(s); worst "
            f"live residual {worst[node]:.3e} at node {node}, z = ({at}); "
            "a target likely asks for a slack below the float spacing")
    return x


# ---------------------------------------------------------------------------
# simplex-product bases: the Legendre transport in closed form


@dataclass(frozen=True)
class SimplexProduct:
    """A Delzant polytope whose facets split into blocks B, the normals
    of each block summing to 0, with one facet k0 per block dropped
    leaving a unimodular basis E of normals: the interval, and in 2D the
    Delzant triangles and parallelograms.  Each block's slacks sum to
    Lambda_B = sum_{k in B} lambda_k, and grad u0 = xi has a closed-form
    solution (Guillemin 1994; Abreu 2003): with r = -2 E^-T xi, r_k0 = 0,
    the shares p_k = ell_k / Lambda_B are a softmax of r over each block
    (log_slacks).  Moving xi by t adds s = R^T t to r (R = ratio_map), so
    the shares at xi + t rescale those at xi (rescaled):
    p_k(xi + t) = p_k f_k / S_B, f_k = e^(s_k - max_B s),
    S_B = sum_{k in B} p_k f_k.  With the integer vectors
    w_p = (R_k - R_l) / 2 of the pairs p = (k, l), k < l, of a block and
    omega_p = 2 Lambda_B p_k p_l (weights),

        D2u0^-1 = sum_p omega_p w_p w_p^T,
        Ric0    = sum_B c_B G0_B,  G0_B = sum_{p in B} omega_p w_p w_p^T,

    c_B = (n_B + 1) / Lambda_B, Ric0 the xi-Hessian of (1/2) log det D2u0,
    det D2u0^-1 = prod_B 2^n_B Lambda_B^n_B prod_{k in B} p_k (inverse_det)
    and MD(Ric0, D2u0^-1) = ricci_mean det D2u0^-1, ricci_mean =
    (1/n) sum_B n_B c_B.  Every term is nonnegative: nothing cancels next
    to a slanted facet, as it does in ricci_reference.
    """

    blocks: tuple          # facet indices per block, the dropped k0 first
    ratio_map: np.ndarray  # (n, K): r = xi @ ratio_map
    log_sums: np.ndarray   # log Lambda_B per block
    sums: np.ndarray       # Lambda_B per facet: p_k = ell_k / sums_k
    step_map: np.ndarray   # (2, K): 1 and lambda_k, the two step sums
    step_weights: np.ndarray  # (2, blocks): n_B + 1 and Lambda_B
    pairs: tuple           # (k, l) index arrays over the pairs of every block
    pair_vectors: np.ndarray  # (P, n): w_p
    pair_scale: np.ndarray  # 2 Lambda_B per pair
    ricci_scale: np.ndarray  # c_p = (n_B + 1) / Lambda_B per pair
    ricci_mean: float      # (1/n) sum_B n_B c_B
    det_scale: float       # prod_B (2 Lambda_B)^n_B

    def log_slacks(self, xi: np.ndarray) -> np.ndarray:
        """log ell_k, per row, at the point where grad u0 = xi: per block
        log Lambda_B + (r_k - top) - log sum_{j in B} e^(r_j - top), top
        the block's row maximum, so every exponent is at most 0 and the
        largest slack keeps its digits; the transpose of a facet-by-row
        array, each facet's column contiguous."""
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

    def totals(self, shares) -> np.ndarray:
        """S_B = sum_{k in B} p_k per block and row, added left to right."""
        out = np.empty((len(self.blocks), shares.shape[1]))
        for total, block in zip(out, self.blocks):
            np.add(shares[block[0]], shares[block[1]], out=total)
            for k in block[2:]:
                total += shares[k]
        return out

    def rescaled(self, shares, totals, s, tau: float) -> tuple:
        """The shares at xi + tau t and their steps, from those at xi,
        their totals S^y and s = R^T t (K x 1 or K x rows; overwritten):
        sum_k step_k and lambda . step, step_k =
        log ell_k(xi + tau t) - log ell_k(xi) = e_k - log(S_B / S^y_B),
        e = tau (s - max_B s), both 0 at tau = 0: for one column s, K
        scalar exps and a log per block row."""
        for block in self.blocks:
            top = np.maximum(s[block[0]], s[block[1]])
            for k in block[2:]:
                np.maximum(top, s[k], out=top)
            for k in block:
                s[k] -= top
        s *= tau
        e_sums = self.step_map @ s
        p = shares * np.exp(s, out=s)
        block_rows = self.totals(p)
        for total, block in zip(block_rows, self.blocks):
            for k in block:
                p[k] /= total
        logs = np.log(np.divide(block_rows, totals, out=block_rows),
                      out=block_rows)
        for weights, log in zip(self.step_weights.T, logs):  # no slow matmul
            e_sums = e_sums - weights[:, None] * log  # of one column
        return p, e_sums

    def weights(self, shares) -> np.ndarray:
        """omega_p = 2 Lambda_B p_k p_l per pair, pair by row."""
        out = np.empty((len(self.pair_vectors), shares.shape[1]))
        for row, k, l, scale in zip(out, *self.pairs, self.pair_scale):
            np.multiply(shares[k], scale, out=row)
            row *= shares[l]
        return out

    def inverse_det(self, shares) -> np.ndarray:
        """det D2u0^-1 = det_scale prod_k p_k per row."""
        out = shares[0] * self.det_scale
        for row in shares[1:]:
            out *= row
        return out


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
    built once per polytope.

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
    per_facet = np.empty(len(normals))
    pairs, pair_scale, ricci_scale = [], [], []
    for block, total in zip(blocks, sums):
        per_facet[list(block)] = float(total)
        for k, l in combinations(block, 2):
            pairs.append((k, l))
            pair_scale.append(float(2 * total))
            ricci_scale.append(float(len(block) / total))
    w = np.array([0.5 * (ratio_map[:, k] - ratio_map[:, l])
                  for k, l in pairs])
    frame = SimplexProduct(
        blocks=tuple(np.array(b) for b in blocks),
        ratio_map=ratio_map,
        log_sums=np.array([_log(s) for s in sums]),
        sums=per_facet,
        step_map=np.array([[1.0] * len(normals), [float(c) for c in offsets]]),
        step_weights=np.array([[len(b) for b in blocks],
                               [float(s) for s in sums]], dtype=float),
        pairs=tuple(np.array(c) for c in zip(*pairs)),
        pair_vectors=w,
        pair_scale=np.array(pair_scale), ricci_scale=np.array(ricci_scale),
        ricci_mean=float(sum((len(b) - 1) * len(b) / s
                             for b, s in zip(blocks, sums)) / n),
        det_scale=float(math.prod((2 * s) ** (len(b) - 1)
                                  for b, s in zip(blocks, sums))))
    for value in vars(frame).values():  # every caller shares the cached frame
        for a in value if isinstance(value, tuple) else (value,):
            if isinstance(a, np.ndarray):
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
    mixed: float    # n! * integral of phi_y (1/2) tr(G0(x) H_tau); 0, n = 1
    l_ricci: float  # E_Ric: n! * integral of phi_y form_density(Ric0)
    log_det: float  # integral of log det(I + tau D2u0^-1 D2g_beta), no n!
    trace: float    # integral of tr(D2u0^-1 D2g_beta), no n!; 0, exact g
    l_alpha: float | None  # as l_ricci for alpha's form; None, no alpha


class RungFields(NamedTuple):
    """One rung's fields at a block of nodes y (Ray._rung), no 2 x 2 field:
    x as its shares, G0(x) as pair weights and det, H_tau as q and det."""

    g: np.ndarray           # g_beta
    grad: np.ndarray        # grad g_beta (one row for an exact g)
    shares: np.ndarray      # p_k at x, grad u0(x) = xi + tau grad g_beta
    steps: np.ndarray       # sum_k step_k, lambda . step
    phi_y: np.ndarray
    log_ratio: np.ndarray
    log_det: np.ndarray | None  # log det(I + tau D2u0^-1 D2g_beta), PL g
    trace: np.ndarray | None    # tr(D2u0^-1 D2g_beta) at y, PL g
    weight: np.ndarray      # omega_p at x
    inverse_det: np.ndarray  # det D2u0(x)^-1
    quad: np.ndarray        # q of the frame's pair vectors w_p, then alpha's
    det_tau: np.ndarray
    theta: np.ndarray | None  # alpha's pair weights at its own x


class Ray:
    """A ladder's ray on a simplex-product base (others raise
    NumericalFailure first): grid, u0, frame and g smoothed at beta, built
    at the ladder's largest tau for every rung (states); no field."""

    def __init__(self, cfg: ToricTestConfig, beta: float,
                 tau_max: float = 12.0):
        self.cfg = cfg
        self.u0 = guillemin_potential(cfg.base)
        self.frame = _frame(cfg.base, "a ray", "base")
        self.smooth = SmoothedPL.from_fn(cfg.g, beta)
        self.grid = build_grid(cfg.g, collar_depth_for(tau_max),
                               crease_ladder_depth(beta, tau_max))

    def _pairing(self, twist) -> tuple:
        """twist; per pair vector w (the frame's, then twist's) w^T D2u0 w's
        coefficients on 1 / ell and w^T D2g_beta w's on the c_j of
        sum_j c_j v_j v_j^T (v = 1 in 1D); in 2D twist's and the v_j's
        _pair_crosses."""
        frame, normals, dim = self.frame, self.u0.normals, self.cfg.dim
        w = frame.pair_vectors if twist is None else np.vstack(
            [frame.pair_vectors, twist.pair_vectors])
        v = self.smooth.hessian_vectors if dim == 2 else np.ones((1, 1))
        return twist, 0.5 * (w @ normals.T) ** 2, (w @ v.T) ** 2, \
            None if dim == 1 else (twist and _pair_cross(
                twist.pair_vectors, frame.pair_vectors), _pair_cross(v, v))

    def _block(self, pts: np.ndarray, pairing) -> tuple:
        """The fields at the nodes pts that no rung changes: y, its shares
        and their totals, q = w^T D2u0 w, det D2u0; for an exact g, g_beta,
        its gradient and <y, grad g_beta> - g_beta; for a PL g, the pieces'
        row max and the pieces minus it, v^T D2u0^-1 v (1 / D2u0 in 1D, to
        the last digit), det D2u0^-1; given alpha, its shares at xi."""
        smooth, frame = self.smooth, self.frame
        twist, on_facets, on_bends, crosses = pairing
        ell = self.u0.slacks(pts)
        shares = ell.T / frame.sums[:, None]
        quad = on_facets @ (1.0 / ell.T)  # sum_k nu_k nu_k^T / (2 ell_k)
        inv_det = frame.inverse_det(shares)
        det = quad[0] if crosses is None else 1.0 / inv_det
        alpha = None if twist is None else (twist, np.exp(twist.log_slacks(
            self.u0.gradient(pts, ell)).T) / twist.sums[:, None])
        at_y = (shares, frame.totals(shares), alpha and (
            *alpha, twist.totals(alpha[1])))
        if smooth.exact:
            g = smooth._shifted(pts)[0]  # one piece: g_beta is g itself
            lever = _row_reduce(np.add, pts * smooth.grads) - g
            return pts, at_y, quad, det, g, smooth.grads, lever, None
        top, vals = smooth._shifted(pts)
        weight = (1.0 / det)[None] if crosses is None \
            else frame.weights(shares)  # D2u0^-1 at y
        det_g0 = None if crosses is None or not crosses[1].any() else inv_det
        return pts, at_y, quad, det, top, None, None, (
            vals, on_bends, crosses and crosses[1],
            on_bends[:len(weight)].T @ weight, det_g0)

    def _rung(self, block, tau: float, smooth) -> RungFields:
        """Every field of the rung (tau, smooth.beta) on a _block, each
        formed once, in arrays of its own.  x, the inverse
        transport of a node y, is only its shares, y's rescaled by
        s = R^T grad g_beta (one column for an exact g: no exp or log per
        facet and node).  With step = log ell(x) - log ell(y), by the
        product det D2u0,

            log_ratio = -sum_k step_k - log det(I + tau D2u0^-1 D2g_beta),
            phi_y = y xi - u_tau(y) - u0*(xi)
                  = tau (<y, grad g_beta> - g_beta) + (1/2) lambda . step,

        lambda the facet offsets, both 0 at tau = 0.  H_tau is at y.  For a
        PL g, with A = D2u0^-1 at y, log det(I + tau A D2g_beta) =
        log1p(tau sum_j c_j v_j^T A v_j + tau^2 det A det D2g_beta), no term
        negative, the sum being trace = tr(A D2g_beta), det H_tau =
        det D2u0 (1 + that argument); both skipped for an exact g.  Alpha's
        shares are rescaled the same way."""
        pts, (shares, totals, alpha), quad, det_tau, g, grad, lever, pl \
            = block
        frame, log_det, trace, theta = self.frame, None, None, None
        if pl is not None:
            vals, on_bends, bend_cross, g0_y, det_g0 = pl
            z, w = smooth._softmax(vals)
            g = g + np.log(z, out=z) / smooth.beta
            grad = w @ smooth.grads
            lever = _row_reduce(np.add, pts * grad) - g
            c = smooth.weights_hessian(w)[:, 0, 0][None] if bend_cross is None \
                else smooth.hessian_weights(w)
            trace = _pair_dot(g0_y, c)
            arg = tau * trace
            if det_g0 is not None:
                arg += tau * tau * (det_g0 * _pair_dot(c, bend_cross @ c))
            log_det = np.log1p(arg)
            quad = quad + tau * (on_bends @ c)
            det_tau = quad[0] if bend_cross is None else det_tau * (1.0 + arg)
        p, steps = frame.rescaled(shares, totals, frame.ratio_map.T @ grad.T,
                                  tau)
        log_ratio = -steps[0]
        if log_det is not None:
            log_ratio -= log_det
        phi_y = tau * lever + 0.5 * steps[1]
        if alpha is not None:
            twist, shares, totals = alpha
            theta = twist.weights(twist.rescaled(
                shares, totals, twist.ratio_map.T @ grad.T, tau)[0])
        return RungFields(g, grad, p, steps, phi_y, log_ratio, log_det, trace,
                          frame.weights(p), frame.inverse_det(p), quad,
                          det_tau, theta)

    def potential(self, s: float) -> ShiftedPotential:
        return ShiftedPotential(self.u0, self.smooth, float(s))

    def transport(self, s: float) -> np.ndarray:
        """Moved points: the u_s-moment images of the grid nodes, one
        newton_transport of every node, started at the node, per call.
        No energy reads it; kept for the tests and perfbench/tracer.py's
        hook by name."""
        pts = np.concatenate([pts for pts, _ in self.grid.blocks()])
        return newton_transport(self.potential(s), self.u0.gradient(pts), pts)

    def inverse_transport(self, s: float) -> np.ndarray:
        """log ell_k at the x whose u_s-moment image is each node y (for the
        tests, and perfbench/tracer.py's hook by name)."""
        pts = np.concatenate([pts for pts, _ in self.grid.blocks()])
        return self.frame.log_slacks(self.u0.gradient(pts)
                                     + s * self.smooth.gradient(pts))

    def check_reach(self, tau: float) -> None:
        """NewtonDivergence if tau shifts some target xi + tau * grad g_beta
        by more than the reach of grad u0 at _SLACK_FLOOR.  At every beta
        grad g_beta is a convex combination of the piece gradients, so the
        largest of them bounds the shift; no grid is read."""
        reach = 0.5 * (1.0 - math.log(_SLACK_FLOOR)) \
            * float(np.abs(self.u0.normals).sum(axis=0).max())
        shift = float(tau) * float(np.abs(self.smooth.grads).max())
        if shift > reach:
            raise NewtonDivergence(
                f"moment targets shift by tau * |grad g| = {shift:.3g}, "
                f"beyond the reach {reach:.4g} of grad u0 at the slack floor")

    def states(self, rungs, alpha: Polytope | None = None) -> list:
        """The RayState of each rung (tau, beta), in order, from one pass
        over the grid's blocks: per block its _block, then per rung its
        _rung, every density (L_alpha too, given alpha) summed into the
        rung's integrals.  check_reach and alpha_frame refuse first."""
        rungs = [(float(tau), float(beta)) for tau, beta in rungs]
        self.check_reach(max(tau for tau, _ in rungs))
        twist = None if alpha is None else alpha_frame(alpha, self.cfg.dim)
        smooths = [replace(self.smooth, beta=beta) for _, beta in rungs]
        n, frame = self.cfg.dim, self.frame
        pairing, pairs = self._pairing(twist), len(frame.pair_vectors)
        twist_cross = pairing[3] and pairing[3][0]  # None in 1D
        sums = np.zeros((len(rungs), 9))  # RayState's integrals per rung
        for pts, w in self.grid.blocks():
            block = self._block(pts, pairing)
            for acc, (tau, _), smooth in zip(sums, rungs, smooths):
                f = self._rung(block, tau, smooth)
                acc[0] += f.g @ w
                acc[1] += f.log_ratio @ w
                acc[3] += f.phi_y @ w
                phi_w = f.phi_y * w  # every other density is phi_y times one
                # e^(-log_ratio) = dx / dy = det H_tau det D2u0(x)^-1
                fixed = (f.inverse_det * f.det_tau) @ phi_w
                acc[2] += fixed
                if n == 1:  # E_Ric: Ric0 H_tau = ricci_mean e^(-log_ratio)
                    acc[5] += frame.ricci_mean * fixed
                else:  # (1/2) tr(G0(x) H_tau); MD(Ric0, G0(x)) det H_tau
                    trace = (f.weight * f.quad[:pairs]) @ phi_w  # per pair
                    acc[4] += 0.5 * trace.sum()  # + (1/2) tr(Ric0 H_tau)
                    acc[5] += frame.ricci_mean * fixed \
                        + 0.5 * (frame.ricci_scale @ trace)
                if f.log_det is not None:
                    acc[6] += f.log_det @ w
                    acc[7] += f.trace @ w
                if f.theta is not None:  # alpha's form the same way
                    form = _pair_dot(f.theta, f.quad[pairs:])
                    if n > 1:
                        form = 0.5 * form + f.det_tau * _pair_dot(
                            f.theta, twist_cross @ f.weight)
                    acc[8] += form @ phi_w
        fact = math.factorial(n)
        return [RayState(self, tau, beta, float(acc[0]),
                         *(fact * float(v) for v in acc[1:6]),
                         *map(float, acc[6:8]),
                         None if twist is None else fact * float(acc[8]))
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
        moved = newton_transport(ShiftedPotential(u0, smooth, float(tau)),
                                 target, p[None, :])
        return float(-smooth.value(moved)[0])


# ---------------------------------------------------------------------------
# curvature fields


def abreu_scalar_curvature(potential, pts: np.ndarray) -> np.ndarray:
    """Abreu's scalar curvature S = -kappa * sum_jk d2(u^{jk})/dx_j dx_k,
    kappa = 1/2, in closed form in G = H^-1 and vectors V_m with weights
    c_m writing the third derivative of u as sum_m c_m V_m^(x3): V_k = nu_k,
    c_k = w_k^2 / 2 (w = 1/slack) per facet, V_i = a_i - abar,
    c_i = s beta^2 p_i per piece (p the softmax weights).  With
    Q_ml = V_m . G V_l and q_m = Q_mm,

        S / kappa = sum_facets w_k^3 q_k^2
                    + s beta^3 (sum p_i q_i^2 - (sum p_i q_i)^2
                                - 2 sum_ij p_i p_j Q_ij^2)
                    - sum_ml c_m q_m c_l q_l Q_ml - sum_ml c_m c_l Q_ml^3

    from d_j d_k G = G (d_j H G d_k H + d_k H G d_j H - d_j d_k H) G; in
    one dimension G^2 (u'''' - 2 G u'''^2), as scalars.
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

    Assembled in facet space: with w_k = 1/ell_k, P_k = H^-1 nu_k,
    Q_kk' = nu_k . P_k' and q_k = Q_kk the chain rule to dual coordinates
    collapses to (1/2) H^-1 (sum_kk' D_kk' nu_k nu_k'^T) H^-1,

        D_kk' = w_k^3 q_k delta_kk' - (1/4) w_k^2 w_k'^2 Q_kk'^2
                - (1/2) delta_kk' w_k^2 (P_k . grad v),  v = log det H,

    in fixed-size row blocks.  Along slanted facets the w^3 and w^4 terms
    cancel (relative error about 4e-6 at slack 1e-5 on the unit simplex).
    No energy reads it (a rung reads Ric0 as pair weights,
    SimplexProduct): it is the tests' reference for that field, and
    perfbench/tracer.py hooks it by name, so it stays until that hook is
    retired.
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
