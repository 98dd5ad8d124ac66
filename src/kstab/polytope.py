"""Exact rational polytope kernel.

Everything in this module is exact: vertices and offsets are
`fractions.Fraction`, facet normals are primitive integer vectors, and
all measures (volume, lattice boundary measure, mixed volumes) are
computed exactly.  The ambient dimensions that matter here are small
(1 to 4), so the algorithms are chosen for transparency rather than
asymptotics, one rule per job:

  * vertices by n-fold facet intersection in integers (Cramer
    numerators, one sign test per slack, a Fraction per vertex); a
    vertex lies on its zero-slack halfspaces, the union of its bases,
    and a halfspace is a facet when its vertex set is maximal;
  * one cut by clipping: the vertices of nonnegative slack stay and each
    edge with ends of opposite sign gains its crossing (chops, cells);
  * boundedness: the normals have full rank and no null line of
    n - 1 of them is one-signed on all normals;
  * hulls (dimension <= 3): a facet is the hyperplane through n
    affinely independent points with every point on one side;
  * hyperplanes orthogonal to n - 1 vectors by cofactor expansion
    (hulls, boundedness, Minkowski candidate normals);
  * rank and linear solves by one fraction-free Gauss-Jordan
    elimination (Bareiss);
  * measures by one pass in integers, ``volume_data``: per facet its
    sigma and centroid over a pulling triangulation, then the volume
    and barycenter as cones from a vertex; affine integrals read these
    moments;
  * mixed volumes V(K, ..., K, L) by Minkowski's facet formula over
    the facets of K; a flat K (a base lifted by ``embed_at_height``)
    has the two facets +-e_t, each of sigma vol(base).

A PL integrand is integrated over the maximality cells that it
carries (``plconfig.PLConvexFn``); ``regions_of_max`` computes them.

Conventions:
  * a halfspace is ``<normal, x> <= offset`` with integer primitive
    ``normal`` (outward);
  * the boundary measure ``sigma`` on a facet with primitive normal
    ``nu`` is normalized so that ``d sigma ^ d ell = +- d mu`` where
    ``ell = offset - <nu, x>``;
  * mixed volume is normalized so that ``V(K, ..., K) = Vol(K)``.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial, gcd, lcm
from operator import mul

from .errors import (
    ChopTooLarge,
    DegenerateInput,
    DomainMismatch,
    InconsistentInput,
    NonDelzantVertex,
    NotAVertex,
    UnboundedInput,
)

Vec = tuple  # tuple of Fraction


# ---------------------------------------------------------------------------
# rational scalars


def frac(x) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to Fraction.

    Floats are rejected on purpose: the exact layer must never absorb
    rounding noise silently.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"expected exact rational, got {type(x).__name__}")


def frac_str(q: Fraction) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def frac_json(q: Fraction) -> dict:
    """A rational for report.json: "p/q" (integers plain) and a decimal,
    null where q is beyond float64."""
    try:
        decimal = float(q)
    except OverflowError:
        decimal = None
    return {"exact": frac_str(q), "decimal": decimal}


def vec(xs) -> Vec:
    return tuple(frac(x) for x in xs)


# ---------------------------------------------------------------------------
# tiny exact linear algebra


def dot(a, b):
    return sum(map(mul, a, b))


def _det(rows):
    """Exact determinant: closed forms for 2x2 and 3x3, Laplace otherwise."""
    n = len(rows)
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if n == 0:
        return 1
    return sum((-1) ** j * rows[0][j]
               * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(n) if rows[0][j] != 0)


def _cofactor_normal(rows):
    """The cofactor vector of dim - 1 rows in R^dim (the cross product
    in R^3): orthogonal to every row, zero exactly when they are
    dependent.  Its dot product with x is the determinant of x atop rows."""
    return tuple((-1) ** j * _det([r[:j] + r[j + 1:] for r in rows])
                 for j in range(len(rows) + 1))


def _row_reduce(rows):
    """Fraction-free Gauss-Jordan (Bareiss 1968) on the rows scaled to
    integers: (rows, pivot columns).  Pivot p maps each other row to
    (p * row - a * pivot row) / previous pivot, an exact division.  A
    pivot row ends as the last pivot at its column, 0 at other pivots."""
    mat = []
    for r in rows:
        scale = lcm(*(x.denominator for x in r))
        mat.append([x.numerator * (scale // x.denominator) for x in r])
    pivots, prev = [], 1
    for col in range(len(mat[0]) if mat else 0):
        top = len(pivots)
        piv = next((i for i in range(top, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[top], mat[piv] = mat[piv], mat[top]
        prow = mat[top]
        p = prow[col]
        for i, row in enumerate(mat):
            if i != top:
                f = row[col]
                mat[i] = [(p * a - f * b) // prev for a, b in zip(row, prow)]
        prev = p
        pivots.append(col)
        if len(pivots) == len(mat):
            break
    return mat, pivots


def _rank(rows):
    return len(_row_reduce(rows)[1])


def solve_exact(rows, rhs):
    """Exact solution of a square linear system; None if it is singular."""
    n = len(rows)
    mat, pivots = _row_reduce([list(r) + [b] for r, b in zip(rows, rhs)])
    return [Fraction(row[n], row[i]) for i, row in enumerate(mat)] \
        if pivots == list(range(n)) else None


def _affine_rank(points):
    return _rank([tuple(p) + (1,) for p in points]) - 1


def primitivize(v):
    """Scale a rational vector to a primitive integer vector (same ray)."""
    v = [frac(x) for x in v]
    denom = lcm(*(x.denominator for x in v))
    ints = [int(x * denom) for x in v]
    g = gcd(*ints)
    if g == 0:
        raise InconsistentInput("zero vector cannot be primitivized")
    return tuple(x // g for x in ints), Fraction(denom, g)


# ---------------------------------------------------------------------------
# halfspaces and polytopes


@dataclass(frozen=True)
class Halfspace:
    """Closed halfspace ``<normal, x> <= offset`` with primitive integer normal."""

    normal: tuple
    offset: Fraction

    def __post_init__(self):
        if not self.normal or all(c == 0 for c in self.normal):
            raise InconsistentInput("halfspace normal must be nonzero")
        if any(not isinstance(c, int) for c in self.normal):
            raise InconsistentInput("halfspace normal must be integer")
        if gcd(*self.normal) != 1:
            raise InconsistentInput("halfspace normal must be primitive")
        if not isinstance(self.offset, Fraction):
            object.__setattr__(self, "offset", frac(self.offset))

    @staticmethod
    def make(normal, offset) -> "Halfspace":
        """Build from rational data, rescaling to a primitive integer normal."""
        prim, scale = primitivize(normal)
        return Halfspace(prim, frac(offset) * scale)

    def slack(self, x) -> Fraction:
        """Lattice-normalized distance-like defining function; >= 0 inside."""
        return self.offset - dot(self.normal, x)


@dataclass(frozen=True)
class Polytope:
    """Full-dimensional rational polytope with both representations.

    ``facet_vertices[k]`` lists the indices of the vertices lying on
    halfspace ``k``; halfspaces are irredundant (every one is a facet).
    """

    dim: int
    halfspaces: tuple
    vertices: tuple
    facet_vertices: tuple

    def __hash__(self):  # volume_data's cache hashes on every lookup
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.dim, self.halfspaces, self.vertices,
                     self.facet_vertices))

    def contains(self, x, strict: bool = False) -> bool:
        if len(x) != self.dim:
            raise DomainMismatch("point dimension mismatch")
        if strict:
            return all(h.slack(x) > 0 for h in self.halfspaces)
        return all(h.slack(x) >= 0 for h in self.halfspaces)

    def vertex_index(self, v):
        v = vec(v)
        try:
            return self.vertices.index(v)
        except ValueError:
            raise NotAVertex(f"{v} is not a vertex")

    def vertex_facets(self, i: int):
        return tuple(k for k, fv in enumerate(self.facet_vertices) if i in fv)

    def edges(self):
        """Vertex-index pairs whose common facets hold no third vertex."""
        on = [set(self.vertex_facets(i)) for i in range(len(self.vertices))]
        pairs = itertools.combinations(range(len(on)), 2)
        return tuple((i, j) for i, j in pairs if not any(
            on[k] >= on[i] & on[j] for k in range(len(on)) if k not in (i, j)))

    def is_delzant_vertex(self, i: int) -> bool:
        ks = self.vertex_facets(i)
        return len(ks) == self.dim and abs(
            _det([self.halfspaces[k].normal for k in ks])) == 1

    @property
    def is_delzant(self) -> bool:
        return all(self.is_delzant_vertex(i) for i in range(len(self.vertices)))


def _unbounded(normals, dim) -> bool:
    """Whether some d != 0 has <n, d> <= 0 for every normal n.

    Below rank dim a null vector of the normals is such a d.  At rank
    dim the cone of such d is pointed, so it is nonzero exactly when
    it has an extreme ray: the null line of some dim - 1 independent
    normals, one-signed on all of them.
    """
    if _rank(normals) < dim:
        return True
    for rows in itertools.combinations(normals, dim - 1):
        d = _cofactor_normal(rows)
        signs = [dot(n, d) for n in normals]
        if any(d) and (max(signs) <= 0 or min(signs) >= 0):
            return True
    return False


def construct(halfspaces=None, vertices=None) -> Polytope:
    """Build a validated polytope from either representation.

    Raises UnboundedInput / InconsistentInput / DegenerateInput as
    appropriate.  The result is canonical: sorted vertices, sorted
    irredundant facet list, exact incidence.

    Halfspaces meet in integers: with b = L * offset over the common
    denominator L, a nonsingular dim-subset (determinant D, Cramer
    numerators c) meets in x = c / (L * D), the homogeneous point
    (num, den) in lowest terms with den > 0, where halfspace k has slack
    (b_k * den - L * <n_k, num>) / (L * den).  Each distinct point is
    tested once; a feasible one is a vertex on its zero-slack halfspaces.
    A halfspace is a facet when its set of vertices is not inside
    another's: a lower face lies in a facet, and a facet only in P.
    """
    if halfspaces is None and vertices is None:
        raise InconsistentInput("need halfspaces or vertices")
    if vertices is not None and halfspaces is None:
        return _construct_from_vertices([vec(v) for v in vertices])

    best = {}  # the tightest halfspace per normal, in order of appearance
    for h in halfspaces:
        if h.normal not in best or h.offset < best[h.normal].offset:
            best[h.normal] = h
    hs = list(best.values())
    if not hs:
        raise UnboundedInput("empty halfspace list describes all of space")
    dim = len(hs[0].normal)
    normals = [h.normal for h in hs]
    if any(len(n) != dim for n in normals):
        raise DomainMismatch("halfspaces of mixed dimension")
    if _unbounded(normals, dim):
        raise UnboundedInput("halfspace system is unbounded")
    return _bounded_hull(hs)


def _bounded_hull(hs) -> Polytope:
    """construct of halfspaces hs of one dimension with distinct normals
    and a bounded system, as the caller knows: no check of either."""
    dim, normals = len(hs[0].normal), [h.normal for h in hs]
    scale = lcm(*(h.offset.denominator for h in hs))
    b = [h.offset.numerator * (scale // h.offset.denominator) for h in hs]
    tight = {}  # point -> its zero-slack halfspaces, None if infeasible
    for idx in itertools.combinations(range(len(hs)), dim):
        rows = [normals[k] for k in idx]
        det = _det(rows) * scale
        if det == 0:
            continue
        num = [_det([r[:j] + (b[k],) + r[j + 1:] for k, r in zip(idx, rows)])
               for j in range(dim)] + [det]
        g = gcd(*num) if det > 0 else -gcd(*num)
        point = tuple(c // g for c in num)
        if point in tight:
            continue
        num, den, slacks = point[:dim], point[dim], []
        for n, bk in zip(normals, b):
            slacks.append(bk * den - scale * dot(n, num))
            if slacks[-1] < 0:
                break
        tight[point] = None if slacks[-1] < 0 else {
            k for k, s in enumerate(slacks) if s == 0}
    vlist = sorted((tuple(Fraction(c, p[dim]) for c in p[:dim]), p)
                   for p, on in tight.items() if on is not None)
    if not vlist:
        raise InconsistentInput("halfspace system is infeasible")
    if _rank([p for _, p in vlist]) <= dim:
        raise DegenerateInput("feasible set is lower-dimensional")

    zero = [frozenset(i for i, (_, p) in enumerate(vlist) if k in tight[p])
            for k in range(len(hs))]
    kept = [(h, tuple(sorted(z))) for h, z in zip(hs, zero)
            if z and not any(z < y for y in zero)]
    kept.sort(key=lambda pair: (pair[0].normal, pair[0].offset))
    return Polytope(dim=dim, halfspaces=tuple(h for h, _ in kept),
                    vertices=tuple(v for v, _ in vlist),
                    facet_vertices=tuple(on for _, on in kept))


def _construct_from_vertices(points) -> Polytope:
    """Hull of a point cloud: a facet is the hyperplane through dim
    affinely independent points with every point on one side."""
    points = sorted(set(points))
    if not points:
        raise InconsistentInput("no vertices given")
    dim = len(points[0])
    if any(len(p) != dim for p in points):
        raise DomainMismatch("vertices of mixed dimension")
    if _affine_rank(points) < dim:
        raise DegenerateInput("vertex set spans less than the ambient dimension")
    if dim > 3:
        raise DomainMismatch("vertex hulls supported up to dimension 3")

    facets = {}
    for tip, *rest in itertools.combinations(points, dim):
        nrm = _cofactor_normal([tuple(a - b for a, b in zip(p, tip))
                                for p in rest])
        if not any(nrm):
            continue
        prim, _ = primitivize(nrm)
        for cand in (prim, tuple(-x for x in prim)):
            off = dot(cand, tip)
            if cand not in facets and all(dot(cand, p) <= off for p in points):
                facets[cand] = off
    return construct(halfspaces=[Halfspace(n, frac(off))
                                 for n, off in facets.items()])


def _clip(poly: Polytope, h: Halfspace) -> Polytope | None:
    """``construct(halfspaces=poly.halfspaces + (h,))``, or None where
    that raises (a face or nothing left), by one step in integers: the
    vertices of slack >= 0 stay, each edge with ends of opposite sign
    gains its crossing, and a facet stays when a vertex of it has
    positive slack; h holds the zero-slack vertices and the crossings.
    """
    den = lcm(h.offset.denominator,
              *(c.denominator for v in poly.vertices for c in v))
    pts = [tuple(c.numerator * (den // c.denominator) for c in v)
           for v in poly.vertices]
    b = h.offset.numerator * (den // h.offset.denominator)
    slack = [b - dot(h.normal, p) for p in pts]
    if min(slack) >= 0 or max(slack) <= 0:
        return poly if min(slack) >= 0 else None
    new, hs = len(poly.halfspaces), poly.halfspaces + (h,)  # h has index new
    on = [set(poly.vertex_facets(i)) for i in range(len(pts))]
    points = [(v, on[i] | {new} if slack[i] == 0 else on[i])
              for i, v in enumerate(poly.vertices) if slack[i] >= 0]
    for i, j in poly.edges():
        si, sj = slack[i], slack[j]
        if si * sj < 0:
            points.append((tuple(Fraction(si * a - sj * c, (si - sj) * den)
                                 for a, c in zip(pts[j], pts[i])),
                           on[i] & on[j] | {new}))
    points.sort(key=lambda vp: vp[0])
    keep = sorted([k for k, fv in enumerate(poly.facet_vertices)
                   if any(slack[i] > 0 for i in fv)] + [new],
                  key=lambda k: (hs[k].normal, hs[k].offset))
    return Polytope(dim=poly.dim, halfspaces=tuple(hs[k] for k in keep),
                    vertices=tuple(v for v, _ in points),
                    facet_vertices=tuple(
                        tuple(i for i, (_, ks) in enumerate(points) if k in ks)
                        for k in keep))


# ---------------------------------------------------------------------------
# handy factories (used heavily by the tests)


def interval(a=0, b=1) -> Polytope:
    a, b = frac(a), frac(b)
    return construct(halfspaces=[Halfspace((1,), b), Halfspace((-1,), -a)])


def box(dim: int, side=1) -> Polytope:
    side = frac(side)
    hs = []
    for j in range(dim):
        e = tuple(1 if i == j else 0 for i in range(dim))
        hs.append(Halfspace(e, side))
        hs.append(Halfspace(tuple(-x for x in e), Fraction(0)))
    return construct(halfspaces=hs)


def unit_simplex(dim: int = 2) -> Polytope:
    hs = [Halfspace(tuple(1 for _ in range(dim)), Fraction(1))]
    for j in range(dim):
        e = tuple(-1 if i == j else 0 for i in range(dim))
        hs.append(Halfspace(e, Fraction(0)))
    return construct(halfspaces=hs)


# ---------------------------------------------------------------------------
# triangulation, volume, boundary measure


@dataclass(frozen=True)
class VolumeData:
    volume: Fraction
    boundary_sigma_volume: Fraction
    barycenter: tuple
    per_facet_sigma: tuple
    facet_barycenters: tuple


def _pulling(face, facets, memo):
    """Pulling triangulation of a face (a frozenset of vertex indices):
    its lowest vertex w coned over each of its facets that misses w.
    The facets of a face are the maximal proper sets among its meets
    with the polytope's facets.  ``memo`` holds the faces done."""
    if len(face) == 1:
        return [tuple(face)]
    if face not in memo:
        w = min(face)
        meets = {face & g for g in facets} - {face}
        memo[face] = [(w,) + s for sub in meets
                      if w not in sub and not any(sub < m for m in meets)
                      for s in _pulling(sub, facets, memo)]
    return memo[face]


@lru_cache(maxsize=1024)
def volume_data(poly: Polytope) -> VolumeData:
    """Volume, barycenter and, per facet, sigma-measure and centroid.

    The only measure pass of the kernel, in integers: vertices scaled by
    their common denominator L, facets triangulated by pulling.  A facet
    simplex with edges e has sigma |det(e, nu)| / ((n-1)! |nu|^2 L^(n-1));
    coned from v0 at height h = L * slack(v0) it has the integer
    |det| = h |det(e, nu)| / |nu|^2 and volume |det| / (n! L^n).
    """
    n = poly.dim
    den = lcm(*(c.denominator for v in poly.vertices for c in v))
    pts = [tuple(c.numerator * (den // c.denominator) for c in v)
           for v in poly.vertices]
    facets = [frozenset(fv) for fv in poly.facet_vertices]
    memo, vol, moment = {}, 0, [0] * n
    sigmas, centroids = [], []
    for h, face in zip(poly.halfspaces, facets):
        nu = h.normal
        mass, mom = 0, [0] * n
        for s in _pulling(face, facets, memo):
            p0 = pts[s[0]]
            d = abs(_det([tuple(a - b for a, b in zip(pts[i], p0))
                          for i in s[1:]] + [nu]))
            mass += d
            mom = [m + d * sum(pts[i][j] for i in s)
                   for j, m in enumerate(mom)]
        nn = dot(nu, nu)
        sigmas.append(Fraction(mass, factorial(n - 1) * nn * den ** (n - 1)))
        centroids.append(tuple(Fraction(m, n * den * mass) for m in mom))
        height = dot(nu, pts[min(face)]) - dot(nu, pts[0])
        vol += height * mass // nn
        moment = [x + height * (m + mass * w) // nn
                  for x, m, w in zip(moment, mom, pts[0])]
    if vol == 0:
        raise DegenerateInput("zero volume")
    return VolumeData(volume=Fraction(vol, factorial(n) * den ** n),
                      boundary_sigma_volume=sum(sigmas),
                      barycenter=tuple(Fraction(m, (n + 1) * den * vol)
                                       for m in moment),
                      per_facet_sigma=tuple(sigmas),
                      facet_barycenters=tuple(centroids))


# ---------------------------------------------------------------------------
# integration of affine / piecewise-linear data


def regions_of_max(poly: Polytope, pieces):
    """Closure of {piece i strictly maximal}, as a polytope per piece:
    poly clipped by piece i >= piece j for every other j.

    Entries are None for pieces that are never strictly maximal on a
    full-dimensional region.
    """
    pieces = [(vec(g), frac(c)) for g, c in pieces]
    out = []
    for i, (gi, ci) in enumerate(pieces):
        cell = poly
        for j, (gj, cj) in enumerate(pieces):
            if j == i or cell is None:
                continue
            diff = tuple(a - b for a, b in zip(gj, gi))
            if any(diff):
                cell = _clip(cell, Halfspace.make(diff, ci - cj))
            elif cj >= ci:
                cell = None  # piece j dominates everywhere
        out.append(cell)
    return out


def integrate(poly: Polytope, fn, region: str = "interior") -> Fraction:
    """Exact integral of an affine or max-of-affine function.

    ``fn`` is a ``(gradient, constant)`` pair or a PL convex function
    (``plconfig.PLConvexFn``) on ``poly``.  ``region="interior"``
    integrates against Lebesgue measure, ``region="boundary"`` against
    the lattice boundary measure sigma.  A PL function is integrated
    piece by piece over the maximality cells it carries; the cells must
    tile ``poly``.  An affine piece integrates to its value at the
    centroid times the mass, read from ``volume_data``.
    """
    if isinstance(fn, tuple):
        grad, const = fn
        pieces, cells = [(vec(grad), frac(const))], (poly,)
    elif fn.domain != poly:
        raise DomainMismatch("integrand is defined on a different polytope")
    else:
        pieces = [(p.gradient, p.constant) for p in fn.pieces]
        cells = fn.regions()
    if len(pieces[0][0]) != poly.dim:
        raise DomainMismatch("integrand dimension mismatch")
    if region not in ("interior", "boundary"):
        raise InconsistentInput(f"unknown region {region!r}")

    outer = set(poly.halfspaces)
    total = covered = Fraction(0)
    for (grad, const), cell in zip(pieces, cells):
        vd = volume_data(cell)
        covered += vd.volume
        if region == "interior":
            total += vd.volume * (dot(grad, vd.barycenter) + const)
        else:
            facets = zip(cell.halfspaces, vd.per_facet_sigma,
                         vd.facet_barycenters)
            total += sum(sigma * (dot(grad, centroid) + const)
                         for h, sigma, centroid in facets if h in outer)
    if len(cells) > 1 and covered != volume_data(poly).volume:
        raise InconsistentInput("maximality regions do not tile the polytope")
    return total


# ---------------------------------------------------------------------------
# Minkowski sums and mixed volumes


@dataclass(frozen=True)
class VBody:
    """An n-polytope lifted to height 0 in dimension n + 1: a flat
    mixed-volume summand (``embed_at_height``).  Its faces are those of
    ``base``; ``vertices`` are the lifted base vertices."""

    base: Polytope
    vertices: tuple

    @property
    def dim(self) -> int:  # ambient dimension, n + 1
        return self.base.dim + 1


def embed_at_height(poly: Polytope) -> VBody:
    """The flat body {(x, 0) : x in poly} in dimension n + 1.

    Mixed volumes read its two facets +-e_t, each with sigma = vol(poly),
    and Minkowski sums its base faces lifted; nothing is re-measured.
    """
    return VBody(base=poly,
                 vertices=tuple(v + (Fraction(0),) for v in poly.vertices))


def _support_face_dim(body, nrm) -> int:
    best = max(dot(nrm, v) for v in body.vertices)
    face = [v for v in body.vertices if dot(nrm, v) == best]
    return _affine_rank(face)


def _summand_faces(body):
    """(facet normals, primitive edge directions) of a Minkowski summand:
    a Polytope's own, or a flat body's base faces lifted, plus +-e_t."""
    poly = body if isinstance(body, Polytope) else body.base
    normals = [h.normal for h in poly.halfspaces]
    dirs = [primitivize(tuple(a - b for a, b in zip(poly.vertices[j],
                                                     poly.vertices[i])))[0]
            for i, j in poly.edges()]
    if poly is body:
        return normals, dirs
    e_t = (0,) * poly.dim + (1,)
    return ([nu + (0,) for nu in normals] + [e_t, tuple(-x for x in e_t)],
            [d + (0,) for d in dirs])


def minkowski_sum(terms):
    """Exact Minkowski sum of scaled bodies; None if lower-dimensional.

    ``terms`` is a list of (nonnegative scale, Polytope or flat VBody).
    The halfspace representation is assembled from support values over
    the candidate facet normals, then validated: every vertex of the
    result must be a sum of scaled summand vertices.  A facet of the sum
    is a sum of faces of the summands, so its normal is a facet normal
    of a summand or, in dimension 3, spanned by edges of two summands.
    """
    terms = [(frac(s), b) for s, b in terms if frac(s) != 0]
    if not terms:
        return None
    dim = terms[0][1].dim
    if any(b.dim != dim for _, b in terms):
        raise DomainMismatch("bodies of mixed ambient dimension")
    if dim > 3:
        raise DomainMismatch(
            "Minkowski facet enumeration implemented for ambient dim <= 3")
    cloud = {tuple(sum(s * v[j] for s, v in pick) for j in range(dim))
             for pick in itertools.product(
                 *([(s, v) for v in b.vertices] for s, b in terms))}
    if _affine_rank(cloud) < dim:
        return None

    faces = [_summand_faces(b) for _, b in terms]
    cands = {nrm for normals, _ in faces for nrm in normals}
    if dim == 3:
        for (_, dirs1), (_, dirs2) in itertools.combinations(faces, 2):
            for d1, d2 in itertools.product(dirs1, dirs2):
                c = _cofactor_normal((d1, d2))
                if any(c):
                    prim, _ = primitivize(c)
                    cands |= {prim, tuple(-x for x in prim)}

    halfspaces = []
    for nrm in cands:
        if sum(_support_face_dim(b, nrm) for _, b in terms) >= dim - 1:
            off = sum(s * max(dot(nrm, v) for v in b.vertices)
                      for s, b in terms)
            halfspaces.append(Halfspace(nrm, off))
    poly = construct(halfspaces=halfspaces)
    if any(v not in cloud for v in poly.vertices):
        raise InconsistentInput("Minkowski sum facet candidates incomplete")
    return poly


def _facet_measures(body):
    """(primitive outer normal, sigma) per facet of a mixed-volume body.

    A Polytope lists its facets.  A flat body is the two-sided limit of
    thin slabs over its base: facets +e_t and -e_t, each carrying
    sigma = vol(base).
    """
    if isinstance(body, Polytope):
        return zip((h.normal for h in body.halfspaces),
                   volume_data(body).per_facet_sigma)
    e_t = (0,) * body.base.dim + (1,)
    sigma = volume_data(body.base).volume
    return [(e_t, sigma), (tuple(-x for x in e_t), sigma)]


def mixed_volume(bodies) -> Fraction:
    """Mixed volume V(K_1, ..., K_d), normalized so V(K,...,K) = Vol(K).

    Bodies are Polytopes or flat bodies (``embed_at_height``), grouped
    up to equal vertex sets.  One distinct body gives its volume (0 if
    it is flat).  Two distinct bodies K, appearing d-1 times, and L give
    Minkowski's facet formula

        V(K[d-1], L) = (1/d) * sum over facets F of K of h_L(nu_F) * sigma(F),

    with nu_F the primitive outer normal, h_L the support function and
    sigma the lattice facet measure of volume_data (d sigma ^ d ell =
    d mu, so h_L(nu) * sigma equals the Euclidean h_L(u) * area).  A
    flat K has the two facets +-e_t with sigma = vol(base), read from
    the base's volume_data.  Any other mix of bodies raises
    DomainMismatch.
    """
    if not bodies:
        raise InconsistentInput("mixed volume of an empty list")
    n = bodies[0].dim
    if len(bodies) != n:
        raise DomainMismatch(f"need exactly {n} bodies in dimension {n}")
    if any(b.dim != n for b in bodies):
        raise DomainMismatch("bodies of mixed ambient dimension")

    groups = {}
    for b in bodies:
        groups.setdefault(frozenset(b.vertices), []).append(b)
    distinct = [group[0] for group in groups.values()]
    mult = [len(group) for group in groups.values()]

    if len(distinct) == 1:
        k = distinct[0]
        return volume_data(k).volume if isinstance(k, Polytope) \
            else Fraction(0)
    if len(distinct) == 2 and n - 1 in mult:
        k = mult.index(n - 1)
        other = distinct[1 - k].vertices
        return sum(max(dot(nu, v) for v in other) * sigma
                   for nu, sigma in _facet_measures(distinct[k])) / n
    raise DomainMismatch(
        "mixed volume needs the form V(K, ..., K, L)")


# ---------------------------------------------------------------------------
# corner chops (polytope-level blowups)


def corner_chop(poly: Polytope, vertex, eps) -> Polytope:
    """Chop the corner at a Delzant vertex at lattice depth eps.

    The new facet normal is the sum of the primitive facet normals
    meeting at the vertex (the star-subdivision ray), which cuts every
    incident edge at lattice distance exactly eps and preserves the
    Delzant property.
    """
    eps = frac(eps)
    if eps < 0:
        raise ChopTooLarge("chop depth must be nonnegative")
    if eps == 0:
        return poly
    i = poly.vertex_index(vertex)
    v = poly.vertices[i]
    if not poly.is_delzant_vertex(i):
        raise NonDelzantVertex(f"vertex {v} is not Delzant")
    ks = poly.vertex_facets(i)
    w = tuple(sum(poly.halfspaces[k].normal[j] for k in ks)
              for j in range(poly.dim))
    cut = Halfspace(w, dot(w, v) - eps)
    for u in poly.vertices[:i] + poly.vertices[i + 1:]:
        if cut.slack(u) <= 0:
            raise ChopTooLarge(f"chop at depth {eps} reaches vertex {u}")
    return _clip(poly, cut)
