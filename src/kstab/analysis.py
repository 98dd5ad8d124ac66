"""Numerical toric-Kaehler substrate.

Everything numeric lives downstream of three ingredients built here:

  * the Guillemin symplectic potential of a Delzant polytope and its
    exact Hessian field,
  * deterministic quadrature grids with geometric collar grading (the
    transported volume forms concentrate mass in an exp(-2*tau) collar
    near the boundary, so the grading depth is coupled to the largest
    tau the grid will serve rather than to a fixed shrink factor),
  * a vectorized damped Newton solver for the Legendre transport
    x -> x_tau defined by grad u_tau(x_tau) = grad u_0(x).

Scalar curvature uses Abreu's expression in closed form (facet sums
and softmax cumulants for the third and fourth derivatives of the
potential) with the calibration constant kappa = 1/2, fixed so that
the mean curvature equals n times the slope (checked for interval,
square, simplex).  The reference Ricci data is the xi-Hessian of half
the log-determinant of the potential Hessian, computed through the
moment-coordinate chain rule; with this pairing the pointwise identity
S = n * MD(ricci, G^(n-1)) / det G holds against the same grids
(tested), which is what makes the two Mabuchi evaluation routes in the
functionals module agree.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NewtonDivergence, NonDelzant
from .plconfig import PLConvexFn, ToricTestConfig
from .polytope import Polytope, volume_data

KAPPA = 0.5
_SLACK_FLOOR = 1e-300


# ---------------------------------------------------------------------------
# potentials


@dataclass(frozen=True)
class SymplecticPotential:
    """Guillemin potential u = (1/2) sum ell_k log ell_k (zero correction)."""

    base: Polytope
    normals: np.ndarray
    offsets: np.ndarray

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    def slacks(self, pts: np.ndarray) -> np.ndarray:
        return np.maximum(self.offsets[None, :] - pts @ self.normals.T,
                          _SLACK_FLOOR)

    def value(self, pts: np.ndarray) -> np.ndarray:
        ell = self.slacks(pts)
        return 0.5 * np.sum(ell * np.log(ell), axis=1)

    def gradient(self, pts: np.ndarray) -> np.ndarray:
        ell = self.slacks(pts)
        return -0.5 * (np.log(ell) + 1.0) @ self.normals

    def hessian(self, pts: np.ndarray) -> np.ndarray:
        ell = self.slacks(pts)
        n_facets, dim = self.normals.shape
        outer = self.normals[:, :, None] * self.normals[:, None, :]
        return 0.5 * ((1.0 / ell) @ outer.reshape(n_facets, dim * dim)
                      ).reshape(-1, dim, dim)


def guillemin_potential(base: Polytope) -> SymplecticPotential:
    if not base.is_delzant:
        raise NonDelzant("Guillemin potential needs a Delzant polytope")
    normals = np.array([[float(c) for c in h.normal] for h in base.halfspaces])
    offsets = np.array([float(h.offset) for h in base.halfspaces])
    return SymplecticPotential(base=base, normals=normals, offsets=offsets)


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
        vals = pts @ self.grads.T + self.consts[None, :]
        top = vals.max(axis=1, keepdims=True)
        w = np.exp(self.beta * (vals - top))
        z = w.sum(axis=1, keepdims=True)
        return vals, top, w / z

    def value(self, pts: np.ndarray) -> np.ndarray:
        vals, top, w = self._fields(pts)
        # log-sum-exp written against the max for stability
        return top[:, 0] + np.log(
            np.exp(self.beta * (vals - top)).sum(axis=1)) / self.beta

    def gradient(self, pts: np.ndarray) -> np.ndarray:
        _, _, w = self._fields(pts)
        return w @ self.grads

    def hessian(self, pts: np.ndarray) -> np.ndarray:
        if self.exact:
            n = self.grads.shape[1]
            return np.zeros((len(pts), n, n))
        _, _, w = self._fields(pts)
        mean = w @ self.grads
        sq = np.einsum("nk,ki,kj->nij", w, self.grads, self.grads)
        return self.beta * (sq - mean[:, :, None] * mean[:, None, :])


@dataclass(frozen=True)
class ShiftedPotential:
    """u_s = u0 + s * g_beta along a ray; same vectorized interface."""

    u0: SymplecticPotential
    smooth: SmoothedPL
    s: float

    @property
    def dim(self) -> int:
        return self.u0.dim

    def slacks(self, pts):
        return self.u0.slacks(pts)

    def value(self, pts):
        return self.u0.value(pts) + self.s * self.smooth.value(pts)

    def gradient(self, pts):
        return self.u0.gradient(pts) + self.s * self.smooth.gradient(pts)

    def hessian(self, pts):
        return self.u0.hessian(pts) + self.s * self.smooth.hessian(pts)


# ---------------------------------------------------------------------------
# quadrature grids


@dataclass(frozen=True)
class Grid:
    points: np.ndarray
    weights: np.ndarray

    def integrate(self, values: np.ndarray) -> float:
        return float(values @ self.weights)

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
    return min(46, max(12, math.ceil((2.0 * float(tau_max) + 14.0)
                                     / math.log(2.0))))


def _gauss_panel(a: float, b: float, order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def _graded_breaks(depth: int):
    """Dyadic breakpoints of [0,1] accumulating at both endpoints."""
    left = [0.5 ** k for k in range(depth, 1, -1)]
    right = [1.0 - 0.5 ** k for k in range(2, depth + 1)]
    return [0.0] + left + [0.5] + right + [1.0]


def _panel_nodes(breaks, inner_order, graded_order, inner_lo, inner_hi):
    xs, ws = [], []
    for a, b in zip(breaks[:-1], breaks[1:]):
        order = inner_order if (a >= inner_lo and b <= inner_hi) \
            else graded_order
        x, w = _gauss_panel(a, b, order)
        xs.append(x)
        ws.append(w)
    return np.concatenate(xs), np.concatenate(ws)


def line_grid(base: Polytope, depth: int, creases=(), graded_order: int = 8,
              crease_depth: int = 8) -> Grid:
    """Graded Gauss panels on an interval, refined at supplied crease points.

    Around each crease the panels grade dyadically from a 0.08-wide
    window down to 0.08 * 2^-crease_depth.  Transported-coordinate
    integrands sweep across a kink of g on a scale ~ 1/(beta * tau), so
    callers size crease_depth from the smoothing schedule; the fixed
    window is enough for the curvature spike itself, whose width is
    ~ 1/beta with only the amplitude growing along the ray.
    """
    a = float(base.vertices[0][0])
    b = float(base.vertices[-1][0])
    span = b - a
    breaks = set(_graded_breaks(depth))
    ladder = [0.0] + [0.08 * 0.5 ** k for k in range(crease_depth + 1)]
    for c in creases:
        t = (float(c) - a) / span
        for off in ladder:
            for s in (-1.0, 1.0):
                if 1e-9 < t + s * off < 1 - 1e-9:
                    breaks.add(t + s * off)
    bs = sorted(breaks)
    merged = [bs[0]]
    for t in bs[1:]:
        if t - merged[-1] > 1e-14:
            merged.append(t)
    x, w = _panel_nodes(merged, 16, graded_order, 0.25, 0.75)
    return Grid(points=(a + span * x)[:, None], weights=span * w)


def fan_grid(base: Polytope, depth: int, inner_order: int = 12,
             graded_order: int = 4) -> Grid:
    """Barycentric fan over the facets with dyadic grading.

    Each facet spans a triangle (barycenter, v_i, v_j) parametrized by
    radial t and along-edge s; both parameters are graded dyadically so
    the collar and the corners are resolved to depth 2^-depth.
    """
    vd = volume_data(base)
    bary = np.array([float(c) for c in vd.barycenter])
    t_breaks = [0.0, 0.25, 0.5] + [1.0 - 0.5 ** k for k in range(1, depth + 1)] + [1.0]
    t_breaks = sorted(set(t_breaks))
    s_breaks = _graded_breaks(depth)
    tx, tw = _panel_nodes(t_breaks, inner_order, graded_order, 0.0, 0.5)
    sx, sw = _panel_nodes(s_breaks, inner_order, graded_order, 0.25, 0.75)

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
    return Grid(points=np.concatenate(pts_all), weights=np.concatenate(w_all))


def build_grid(base: Polytope, depth: int, creases=(), **orders) -> Grid:
    if base.dim == 1:
        return line_grid(base, depth, creases=creases, **orders)
    if base.dim == 2:
        return fan_grid(base, depth, **orders)
    raise NonDelzant("analysis grids implemented for dimensions 1 and 2")


def bulk_grid(base: Polytope, creases=(), crease_depth: int = 8) -> Grid:
    """Coarse interior grid for curvature quadrature (no deep collar).

    Crease refinement matters here: the scalar curvature of a smoothed
    potential has a spike of width ~1/beta at each kink of g, and the
    split panels keep plain Gauss panels from averaging over it.
    """
    if base.dim == 1:
        return line_grid(base, depth=8, creases=creases, graded_order=10,
                         crease_depth=crease_depth)
    return fan_grid(base, depth=8, inner_order=16, graded_order=6)


def crease_points(g: PLConvexFn):
    """Interior crease abscissae of a one-dimensional PL function."""
    if g.domain.dim != 1:
        return ()
    ends = {v[0] for v in g.domain.vertices}
    out = set()
    for sub in g.regions():
        for v in sub.vertices:
            if v[0] not in ends:
                out.add(v[0])
    return tuple(sorted(out))


def crease_ladder_depth(beta: float, tau_max: float) -> int:
    """Crease grading depth resolving features of scale 1/(beta*tau)."""
    need = 0.32 * max(float(beta), 1.0) * max(float(tau_max), 1.0)
    return min(22, max(8, math.ceil(math.log2(need))))


# ---------------------------------------------------------------------------
# vectorized damped Newton for the Legendre transport


def _solve_small(H: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    n = H.shape[-1]
    if n == 1:
        return rhs / H[:, :, 0]
    if n == 2:
        det = H[:, 0, 0] * H[:, 1, 1] - H[:, 0, 1] * H[:, 1, 0]
        out = np.empty_like(rhs)
        out[:, 0] = (H[:, 1, 1] * rhs[:, 0] - H[:, 0, 1] * rhs[:, 1]) / det
        out[:, 1] = (H[:, 0, 0] * rhs[:, 1] - H[:, 1, 0] * rhs[:, 0]) / det
        return out
    return np.linalg.solve(H, rhs)


def _inv_small(H: np.ndarray) -> np.ndarray:
    n = H.shape[-1]
    if n == 1:
        return 1.0 / H
    if n == 2:
        det = (H[:, 0, 0] * H[:, 1, 1] - H[:, 0, 1] * H[:, 1, 0])[:, None, None]
        adj = np.empty_like(H)
        adj[:, 0, 0], adj[:, 1, 1] = H[:, 1, 1], H[:, 0, 0]
        adj[:, 0, 1], adj[:, 1, 0] = -H[:, 0, 1], -H[:, 1, 0]
        return adj / det
    return np.linalg.inv(H)


def _logdet_small(H: np.ndarray) -> np.ndarray:
    n = H.shape[-1]
    if n == 1:
        return np.log(H[:, 0, 0])
    if n == 2:
        return np.log(H[:, 0, 0] * H[:, 1, 1] - H[:, 0, 1] * H[:, 1, 0])
    return np.linalg.slogdet(H)[1]


def _row_max(a: np.ndarray) -> np.ndarray:
    """a.max(axis=1), taken column by column: numpy's reduction along a
    short trailing axis is an order of magnitude slower."""
    out = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        np.maximum(out, a[:, j], out=out)
    return out


def _row_min(a: np.ndarray) -> np.ndarray:
    """a.min(axis=1), taken column by column (see _row_max)."""
    out = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        np.minimum(out, a[:, j], out=out)
    return out


_NEWTON_BLOCK = 8192


def newton_transport(potential, targets: np.ndarray, start: np.ndarray,
                     tol: float = 1e-11, max_iter: int = 80) -> np.ndarray:
    """Solve grad(potential)(z) = target per row, staying strictly interior.

    Damping: steps are clipped against the facet slacks (never consume
    more than 85% of the distance to the boundary) and halved until the
    residual decreases.

    Saturation is judged per coordinate, in two forms.  A residual
    component below hessian * ulp cannot be improved by any
    representable move; and a component that stayed bitwise identical
    through a damped step without improving sits on the last float
    before a facet, however large its residual reads.  Either way the
    component is dropped from the convergence norm.  The test has to be
    componentwise: a node pressed against one facet may still owe real
    progress along the other axis, and a per-node test would either
    stall it or retire it early.

    Rows are independent, so they are solved in fixed-size blocks whose
    temporaries stay cache-sized.
    """
    z = start.copy()
    normals = potential.u0.normals if isinstance(potential, ShiftedPotential) \
        else potential.normals
    tol = tol * (1.0 + np.abs(targets).max())
    bad = 0
    for lo in range(0, len(z), _NEWTON_BLOCK):
        rows = slice(lo, lo + _NEWTON_BLOCK)
        bad += _newton_rows(potential, normals, targets[rows], z[rows], tol,
                            max_iter)
    if bad:
        raise NewtonDivergence(
            f"Legendre inversion stalled at {bad} node(s); "
            "grid likely reaches too close to the boundary")
    return z


def _newton_rows(potential, normals, targets, z, tol, max_iter) -> int:
    """Damped Newton on the rows of z in place; returns the unsettled count.

    tol is absolute here (already scaled by the targets' magnitude).
    """
    res = potential.gradient(z) - targets
    done = np.zeros(len(z), dtype=bool)
    frozen = np.zeros(z.shape, dtype=bool)
    for _ in range(max_iter):
        idx = np.where(~done)[0]
        if len(idx) == 0:
            return 0
        za = z[idx]
        raw = res[idx]
        hess = potential.hessian(za)
        ulp = 4.0 * np.spacing(np.abs(za))
        wall = np.einsum("nij,nj->ni", np.abs(hess), ulp)
        live = (np.abs(raw) > tol) & (np.abs(raw) > wall) & ~frozen[idx]
        settled = ~_row_max(live)
        if settled.any():
            done[idx[settled]] = True
            keep = ~settled
            idx, za, raw = idx[keep], za[keep], raw[keep]
            hess, live = hess[keep], live[keep]
            if len(idx) == 0:
                return 0
        step = -_solve_small(hess, raw)
        # largest multiple of the step keeping every slack positive
        ell = potential.slacks(za)
        drop = step @ normals.T  # slack decrease per unit step
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(drop > 0, ell / drop, np.inf)
        t = np.minimum(1.0, 0.85 * _row_min(ratios))
        base_norm = _row_max(np.where(live, np.abs(raw), 0.0))
        for _ in range(40):
            moved = za + t[:, None] * step
            new_res = potential.gradient(moved) - targets[idx]
            cand_norm = _row_max(np.where(live, np.abs(new_res), 0.0))
            good = cand_norm <= base_norm * (1 - 1e-4 * t) + tol
            if good.all():
                break
            t = np.where(good, t, 0.5 * t)
        else:  # the last halving has not been evaluated yet
            moved = za + t[:, None] * step
            new_res = potential.gradient(moved) - targets[idx]
        # rounding may land a nearly saturated node on a facet itself; the
        # barrier stays finite there only because slacks() clamps at
        # _SLACK_FLOOR, so such a node needs no back-off
        stuck = moved == za
        pinned = live & stuck & (np.abs(new_res) >= np.abs(raw) * (1 - 1e-6))
        frozen[idx] = stuck & (frozen[idx] | pinned)
        z[idx] = moved
        res[idx] = new_res
    idx = np.where(~done)[0]
    if len(idx) > 0:
        za = z[idx]
        raw = res[idx]
        ulp = 4.0 * np.spacing(np.abs(za))
        wall = np.einsum("nij,nj->ni", np.abs(potential.hessian(za)), ulp)
        live = (np.abs(raw) > tol) & (np.abs(raw) > wall) & ~frozen[idx]
        done[idx[~_row_max(live)]] = True
    return int((~done).sum())


# ---------------------------------------------------------------------------
# rays and ray states


@dataclass(frozen=True)
class RayState:
    """Per-node data of the degeneration path at one tau.

    phi and phi_dot are recorded at the reference moment coordinates
    (grid points); hessian / inv_hessian are those of u_tau at the
    transported points; log_volume_ratio is log(omega_phi^n / omega^n)
    at the reference node.
    """

    ray: "Ray"
    tau: float
    moved: np.ndarray
    hessian: np.ndarray
    inv_hessian: np.ndarray
    phi: np.ndarray
    phi_dot: np.ndarray
    log_volume_ratio: np.ndarray

    @property
    def grid(self) -> Grid:
        return self.ray.grid


class Ray:
    """Workspace for one smoothing level: cached transports along s."""

    def __init__(self, cfg: ToricTestConfig, beta: float,
                 tau_max: float = 12.0):
        self.cfg = cfg
        self.u0 = guillemin_potential(cfg.base)
        self.smooth = SmoothedPL.from_fn(cfg.g, beta)
        orders = {"crease_depth": crease_ladder_depth(beta, tau_max)} \
            if cfg.base.dim == 1 else {}
        self.grid = build_grid(cfg.base, collar_depth_for(tau_max),
                               creases=crease_points(cfg.g), **orders)
        pts = self.grid.points
        self.h0 = self.u0.hessian(pts)
        self.logdet0 = _logdet_small(self.h0)
        self.xi = self.u0.gradient(pts)
        self.u0_vals = self.u0.value(pts)
        self.g0 = _inv_small(self.h0)
        self.g_vals = self.smooth.value(pts)
        self.g_grad = self.smooth.gradient(pts)
        self.g_hess = self.smooth.hessian(pts)
        self._cache: dict = {}
        self._inv_cache: dict = {}

    def potential(self, s: float) -> ShiftedPotential:
        return ShiftedPotential(self.u0, self.smooth, float(s))

    def transport(self, s: float):
        """(moved points, Hessian at moved, inv, logdet, g_beta at moved)."""
        key = round(float(s), 12)
        if key in self._cache:
            return self._cache[key]
        if key == 0.0:
            moved = self.grid.points.copy()
            out = (moved, self.h0, self.g0, self.logdet0,
                   self.smooth.value(moved))
        else:
            below = [k for k in self._cache if k < key]
            start = self._cache[max(below)][0] if below else self.grid.points
            moved = newton_transport(self.potential(key), self.xi, start)
            hess = self.potential(key).hessian(moved)
            out = (moved, hess, _inv_small(hess), _logdet_small(hess),
                   self.smooth.value(moved))
        self._cache[key] = out
        return out

    def hessian_at_nodes(self, s: float) -> np.ndarray:
        """Hessian of u_s at the grid nodes themselves (no transport)."""
        return self.h0 + float(s) * self.g_hess

    def inverse_transport(self, s: float) -> np.ndarray:
        """Reference point x whose u_s-moment image is each grid node.

        Solves grad u0(x) = grad u_s(y) per node y; the iterates press
        into the boundary collar, where the Newton solver saturates at
        float spacing.  Downstream integrands are slack-stable there.
        """
        key = round(float(s), 12)
        if key in self._inv_cache:
            return self._inv_cache[key]
        if key == 0.0:
            out = self.grid.points.copy()
        else:
            below = [k for k in self._inv_cache if k < key]
            start = self._inv_cache[max(below)].copy() if below \
                else self.grid.points.copy()
            targets = self.xi + key * self.g_grad
            out = newton_transport(self.u0, targets, start)
        self._inv_cache[key] = out
        return out

    def state(self, tau: float) -> RayState:
        moved, hess, inv, logdet, gvals = self.transport(tau)
        pts = self.grid.points
        u_tau_at_moved = self.potential(tau).value(moved)
        phi = ((moved * self.xi).sum(axis=1) - u_tau_at_moved) \
            - ((pts * self.xi).sum(axis=1) - self.u0_vals)
        return RayState(
            ray=self, tau=float(tau), moved=moved, hessian=hess,
            inv_hessian=inv, phi=phi, phi_dot=-gvals,
            log_volume_ratio=self.logdet0 - logdet,
        )

    def point_derivative(self, tau: float, p: np.ndarray) -> float:
        """phi_dot at a single reference point (used by the vertex probe)."""
        target = self.u0.gradient(p[None, :])
        moved = newton_transport(self.potential(tau), target, p[None, :].copy())
        return float(-self.smooth.value(moved)[0])


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
    w = 1.0 / u0.slacks(pts)
    ginv = _inv_small(potential.hessian(pts))
    nu = u0.normals
    if pl:
        _, _, p = smooth._fields(pts)
        beta = smooth.beta
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
    about 1e-6.
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
        w = 1.0 / u0.slacks(x)
        w2 = w * w
        hinv = _inv_small(u0.hessian(x))
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
