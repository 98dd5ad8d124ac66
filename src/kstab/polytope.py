"""Exact rational polytope kernel.

Everything in this module is exact: vertices and offsets are
`fractions.Fraction`, facet normals are primitive integer vectors, and
all measures (volume, lattice boundary measure, mixed volumes) are
computed by exact triangulation and exact linear solves.  The ambient
dimensions that matter here are small (1 to 3), so the algorithms are
chosen for transparency rather than asymptotics: vertex enumeration by
n-fold facet intersection, hulls by monotone chain / supporting planes,
mixed volumes by polarization of exact Minkowski-sum volumes.

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
from functools import cmp_to_key, lru_cache
from math import gcd

from .errors import (
    ChopTooLarge,
    DegenerateInput,
    DomainMismatch,
    InconsistentInput,
    NonDelzantVertex,
    NotAVertex,
    SingularPolarizationSystem,
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
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected exact rational, got {type(x).__name__}")


def frac_str(q: Fraction) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def vec(xs) -> Vec:
    return tuple(frac(x) for x in xs)


# ---------------------------------------------------------------------------
# tiny exact linear algebra


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    # generic expansion, only ever used for n == 4
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _det(minor)
    return total


def _solve_square(rows, rhs):
    """Cramer solve; returns None when the system is singular."""
    d = _det(rows)
    if d == 0:
        return None
    n = len(rows)
    out = []
    for j in range(n):
        cols = [r[:j] + (rhs[i],) + r[j + 1:] for i, r in enumerate(rows)]
        out.append(Fraction(_det(cols), 1) / d)
    return tuple(out)


def _rank(rows):
    """Exact rank by Gaussian elimination."""
    mat = [list(r) for r in rows if any(x != 0 for x in r)]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank, row = 0, 0
    for col in range(ncols):
        piv = next((i for i in range(row, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        for i in range(len(mat)):
            if i != row and mat[i][col] != 0:
                factor = Fraction(mat[i][col], 1) / mat[row][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[row])]
        rank += 1
        row += 1
        if row == len(mat):
            break
    return rank


def _affine_rank(points):
    if len(points) <= 1:
        return 0
    base = points[0]
    return _rank([tuple(a - b for a, b in zip(p, base)) for p in points[1:]])


def primitivize(v):
    """Scale a rational vector to a primitive integer vector (same ray)."""
    denom = 1
    for x in v:
        denom = denom * frac(x).denominator // gcd(denom, frac(x).denominator)
    ints = [int(frac(x) * denom) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g == 0:
        raise InconsistentInput("zero vector cannot be primitivized")
    return tuple(x // g for x in ints), Fraction(denom, g)


def _cross3(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


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
        g = 0
        for c in self.normal:
            g = gcd(g, abs(c))
        if g != 1:
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
        """Vertex-index pairs spanning the 1-faces."""
        if self.dim == 1:
            return ((0, 1),) if len(self.vertices) == 2 else ()
        out = []
        for i, j in itertools.combinations(range(len(self.vertices)), 2):
            common = [self.halfspaces[k].normal
                      for k in set(self.vertex_facets(i)) & set(self.vertex_facets(j))]
            if len(common) >= self.dim - 1 and _rank(common) == self.dim - 1:
                out.append((i, j))
        return tuple(out)

    def is_delzant_vertex(self, i: int) -> bool:
        ks = self.vertex_facets(i)
        if len(ks) != self.dim:
            return False
        d = _det([self.halfspaces[k].normal for k in ks])
        return abs(d) == 1

    @property
    def is_delzant(self) -> bool:
        return all(self.is_delzant_vertex(i) for i in range(len(self.vertices)))


def _dedupe_halfspaces(halfspaces):
    best = {}
    order = []
    for h in halfspaces:
        if h.normal not in best:
            best[h.normal] = h.offset
            order.append(h.normal)
        elif h.offset < best[h.normal]:
            best[h.normal] = h.offset
    return [Halfspace(nrm, best[nrm]) for nrm in order]


def _recession_direction(normals, dim):
    """Exact search for d != 0 with <n_i, d> <= 0 for all i."""
    cands = []
    if dim == 1:
        cands = [(1,), (-1,)]
    elif dim == 2:
        for nrm in normals:
            cands.extend([(nrm[1], -nrm[0]), (-nrm[1], nrm[0])])
    else:
        for a, b in itertools.combinations(normals, 2):
            c = _cross3(a, b)
            if any(x != 0 for x in c):
                cands.extend([c, tuple(-x for x in c)])
    if _rank(normals) < dim:
        # lineality space is nontrivial; find a null vector by elimination
        for cand in itertools.product((-1, 0, 1), repeat=dim):
            if any(cand) and all(dot(nrm, cand) == 0 for nrm in normals):
                return cand
        # fall through: rank-deficient but no tiny null vector; solve properly
        for subset in itertools.combinations(normals, dim - 1):
            if dim == 2:
                c = (subset[0][1], -subset[0][0])
            else:
                c = _cross3(subset[0], subset[1])
            if any(x != 0 for x in c):
                cands.append(c)
                cands.append(tuple(-x for x in c))
    for d in cands:
        if any(x != 0 for x in d) and all(dot(nrm, d) <= 0 for nrm in normals):
            return d
    return None


def construct(halfspaces=None, vertices=None) -> Polytope:
    """Build a validated polytope from either representation.

    Raises UnboundedInput / InconsistentInput / DegenerateInput as
    appropriate.  The result is canonical: sorted vertices, sorted
    irredundant facet list, exact incidence.
    """
    if halfspaces is None and vertices is None:
        raise InconsistentInput("need halfspaces or vertices")
    if vertices is not None and halfspaces is None:
        return _construct_from_vertices([vec(v) for v in vertices])

    hs = _dedupe_halfspaces(list(halfspaces))
    if not hs:
        raise UnboundedInput("empty halfspace list describes all of space")
    dim = len(hs[0].normal)
    if any(len(h.normal) != dim for h in hs):
        raise DomainMismatch("halfspaces of mixed dimension")
    normals = [h.normal for h in hs]
    if len(hs) < dim + 1 or _recession_direction(normals, dim) is not None:
        raise UnboundedInput("halfspace system is unbounded")

    verts = {}
    for idx in itertools.combinations(range(len(hs)), dim):
        rows = [hs[k].normal for k in idx]
        rhs = [hs[k].offset for k in idx]
        x = _solve_square(rows, rhs)
        if x is None:
            continue
        if all(h.slack(x) >= 0 for h in hs):
            verts[x] = True
    if not verts:
        raise InconsistentInput("halfspace system is infeasible")
    vlist = sorted(verts)
    if _affine_rank(vlist) < dim:
        raise DegenerateInput("feasible set is lower-dimensional")

    kept, incidence = [], []
    for h in hs:
        tight = tuple(i for i, v in enumerate(vlist) if h.slack(v) == 0)
        if len(tight) >= dim and _affine_rank([vlist[i] for i in tight]) == dim - 1:
            kept.append((h, tight))
    kept.sort(key=lambda pair: (pair[0].normal, pair[0].offset))
    half = tuple(h for h, _ in kept)
    incidence = tuple(t for _, t in kept)
    return Polytope(dim=dim, halfspaces=half, vertices=tuple(vlist),
                    facet_vertices=incidence)


def _construct_from_vertices(points) -> Polytope:
    points = sorted(set(points))
    if not points:
        raise InconsistentInput("no vertices given")
    dim = len(points[0])
    if any(len(p) != dim for p in points):
        raise DomainMismatch("vertices of mixed dimension")
    if _affine_rank(points) < dim:
        raise DegenerateInput("vertex set spans less than the ambient dimension")

    if dim == 1:
        lo, hi = points[0][0], points[-1][0]
        hs = [Halfspace((1,), hi), Halfspace((-1,), -lo)]
        return construct(halfspaces=hs)

    if dim == 2:
        hull = _hull2d(points)
        hs = []
        for a, b in zip(hull, hull[1:] + hull[:1]):
            d = (b[0] - a[0], b[1] - a[1])
            hs.append(Halfspace.make((d[1], -d[0]), d[1] * a[0] - d[0] * a[1]))
        return construct(halfspaces=hs)

    if dim == 3:
        seen = {}
        for tri in itertools.combinations(points, 3):
            e1 = tuple(a - b for a, b in zip(tri[1], tri[0]))
            e2 = tuple(a - b for a, b in zip(tri[2], tri[0]))
            nrm = _cross3(e1, e2)
            if all(x == 0 for x in nrm):
                continue
            prim, _ = primitivize(nrm)
            for cand in (prim, tuple(-x for x in prim)):
                off = dot(cand, tri[0])
                if cand in seen:
                    continue
                if all(dot(cand, p) <= off for p in points):
                    seen[cand] = off
        hs = [Halfspace(nrm, frac(off)) for nrm, off in seen.items()]
        return construct(halfspaces=hs)

    raise DomainMismatch("vertex hulls supported up to dimension 3")


def _hull2d(points):
    """Monotone chain over exact rationals; returns CCW cycle."""
    pts = sorted(set(points))
    if len(pts) < 3:
        raise DegenerateInput("need at least 3 points for a 2-d hull")

    def turn(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and turn(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and turn(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


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


def _order_facet_cycle(points, normal):
    """Cyclic order of a convex facet polygon (exact angular sort)."""
    drop = max(range(len(normal)), key=lambda i: abs(normal[i]))
    flat = [tuple(p[i] for i in range(len(p)) if i != drop) for p in points]
    cx = sum(p[0] for p in flat) / len(flat)
    cy = sum(p[1] for p in flat) / len(flat)

    def half(p):
        dx, dy = p[0] - cx, p[1] - cy
        return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1

    def cmp(i, j):
        hi, hj = half(flat[i]), half(flat[j])
        if hi != hj:
            return -1 if hi < hj else 1
        ax, ay = flat[i][0] - cx, flat[i][1] - cy
        bx, by = flat[j][0] - cx, flat[j][1] - cy
        cross = ax * by - ay * bx
        if cross == 0:
            return 0
        return -1 if cross > 0 else 1

    return [points[i] for i in sorted(range(len(points)), key=cmp_to_key(cmp))]


def _facet_simplices(poly: Polytope, k: int):
    """(n-1)-simplices triangulating facet k, as vertex tuples."""
    pts = [poly.vertices[i] for i in poly.facet_vertices[k]]
    if poly.dim == 1:
        return [tuple(pts)]
    if poly.dim == 2:
        return [(pts[0], pts[1])] if len(pts) == 2 else []
    if poly.dim == 3:
        cyc = _order_facet_cycle(pts, poly.halfspaces[k].normal)
        return [(cyc[0], cyc[i], cyc[i + 1]) for i in range(1, len(cyc) - 1)]
    # higher dimensions: drop the coordinate with the largest normal entry
    # (an affine bijection on the facet plane), triangulate the shadow as a
    # full-dimensional polytope, and lift the simplices back
    nrm = poly.halfspaces[k].normal
    drop = max(range(len(nrm)), key=lambda i: abs(nrm[i]))
    shadow = {tuple(p[i] for i in range(len(p)) if i != drop): p for p in pts}
    sub = _construct_from_vertices(list(shadow))
    return [tuple(shadow[q] for q in s) for s in _triangulate(sub)]


def _sigma_simplex(simplex, normal) -> Fraction:
    """sigma-measure of an (n-1)-simplex on a facet with primitive normal."""
    rows = [tuple(a - b for a, b in zip(p, simplex[0])) for p in simplex[1:]]
    rows.append(tuple(Fraction(c) for c in normal))
    d = abs(_det(rows))
    nn = sum(c * c for c in normal)
    fact = 1
    for i in range(1, len(simplex)):
        fact *= i
    return Fraction(d, 1) / (fact * nn)


@lru_cache(maxsize=None)
def _triangulate(poly: Polytope):
    """Simplices (as vertex tuples) coning the lex-min vertex over far facets."""
    v0 = poly.vertices[0]
    if poly.dim == 1:
        return ((poly.vertices[0], poly.vertices[1]),)
    out = []
    for k, h in enumerate(poly.halfspaces):
        if h.slack(v0) == 0:
            continue
        for s in _facet_simplices(poly, k):
            out.append((v0,) + s)
    return tuple(out)


def _simplex_volume(simplex) -> Fraction:
    n = len(simplex) - 1
    rows = [tuple(a - b for a, b in zip(p, simplex[0])) for p in simplex[1:]]
    d = abs(_det(rows))
    fact = 1
    for i in range(1, n + 1):
        fact *= i
    return Fraction(d, fact)


@lru_cache(maxsize=None)
def volume_data(poly: Polytope) -> VolumeData:
    vol = Fraction(0)
    bary = [Fraction(0)] * poly.dim
    for s in _triangulate(poly):
        v = _simplex_volume(s)
        vol += v
        for j in range(poly.dim):
            bary[j] += v * sum(p[j] for p in s) / (poly.dim + 1)
    if vol == 0:
        raise DegenerateInput("zero volume")
    bary = tuple(b / vol for b in bary)
    sigmas = []
    for k, h in enumerate(poly.halfspaces):
        sigmas.append(sum(_sigma_simplex(s, h.normal)
                          for s in _facet_simplices(poly, k)))
    return VolumeData(volume=vol, boundary_sigma_volume=sum(sigmas),
                      barycenter=bary, per_facet_sigma=tuple(sigmas))


# ---------------------------------------------------------------------------
# integration of affine / piecewise-linear data


def _as_pieces(fn):
    """Normalize integrand input to a list of (gradient, constant) pairs."""
    if hasattr(fn, "pieces"):
        return [(vec(p.gradient), frac(p.constant)) for p in fn.pieces]
    if hasattr(fn, "gradient"):
        return [(vec(fn.gradient), frac(fn.constant))]
    grad, const = fn
    return [(vec(grad), frac(const))]


def _eval_piece(piece, x):
    grad, const = piece
    return dot(grad, x) + const


def regions_of_max(poly: Polytope, pieces):
    """Closure of {piece i strictly maximal}, as a polytope per piece.

    Entries are None for pieces that are never strictly maximal on a
    full-dimensional region.
    """
    pieces = [(vec(g), frac(c)) for g, c in pieces]
    out = []
    for i, (gi, ci) in enumerate(pieces):
        hs = list(poly.halfspaces)
        empty = False
        for j, (gj, cj) in enumerate(pieces):
            if j == i:
                continue
            diff = tuple(a - b for a, b in zip(gj, gi))
            if all(x == 0 for x in diff):
                if cj >= ci:
                    empty = True  # piece j dominates everywhere
                    break
                continue
            hs.append(Halfspace.make(diff, ci - cj))
        if empty:
            out.append(None)
            continue
        try:
            out.append(construct(halfspaces=hs))
        except (InconsistentInput, DegenerateInput):
            out.append(None)
    return out


def integrate(poly: Polytope, fn, region: str = "interior") -> Fraction:
    """Exact integral of an affine or max-of-affine function.

    ``region="interior"`` integrates against Lebesgue measure,
    ``region="boundary"`` against the lattice boundary measure sigma.
    Multi-piece input is integrated over the common refinement by
    maximality regions.
    """
    pieces = _as_pieces(fn)
    if pieces and len(pieces[0][0]) != poly.dim:
        raise DomainMismatch("integrand dimension mismatch")
    if region not in ("interior", "boundary"):
        raise InconsistentInput(f"unknown region {region!r}")

    if len(pieces) == 1:
        return _integrate_affine(poly, pieces[0], region)

    regions = regions_of_max(poly, [(g, c) for g, c in pieces])
    total = Fraction(0)
    covered = Fraction(0)
    for piece, sub in zip(pieces, regions):
        if sub is None:
            continue
        covered += volume_data(sub).volume
        if region == "interior":
            total += _integrate_affine(sub, piece, "interior")
        else:
            outer = {(h.normal, h.offset) for h in poly.halfspaces}
            for k, h in enumerate(sub.halfspaces):
                if (h.normal, h.offset) in outer:
                    for s in _facet_simplices(sub, k):
                        sig = _sigma_simplex(s, h.normal)
                        cen = tuple(sum(p[j] for p in s) / len(s)
                                    for j in range(poly.dim))
                        total += sig * _eval_piece(piece, cen)
    if covered != volume_data(poly).volume:
        raise InconsistentInput("maximality regions do not tile the polytope")
    return total


def _integrate_affine(poly: Polytope, piece, region: str) -> Fraction:
    total = Fraction(0)
    if region == "interior":
        for s in _triangulate(poly):
            cen = tuple(sum(p[j] for p in s) / len(s) for j in range(poly.dim))
            total += _simplex_volume(s) * _eval_piece(piece, cen)
        return total
    for k, h in enumerate(poly.halfspaces):
        for s in _facet_simplices(poly, k):
            cen = tuple(sum(p[j] for p in s) / len(s) for j in range(poly.dim))
            total += _sigma_simplex(s, h.normal) * _eval_piece(piece, cen)
    return total


# ---------------------------------------------------------------------------
# Minkowski sums and mixed volumes


@dataclass(frozen=True)
class VBody:
    """Vertex-described convex body, possibly lower-dimensional.

    Used as mixed-volume input alongside full Polytope objects; carries
    just enough face data (edge directions, facet normals, affine-hull
    normals) to generate candidate facet normals of Minkowski sums.
    """

    ambient: int
    vertices: tuple
    edge_dirs: tuple
    facet_normals: tuple
    plane_normals: tuple


def as_body(obj) -> VBody:
    if isinstance(obj, VBody):
        return obj
    if isinstance(obj, Polytope):
        dirs = []
        for i, j in obj.edges():
            d = tuple(a - b for a, b in zip(obj.vertices[j], obj.vertices[i]))
            prim, _ = primitivize(d)
            dirs.append(prim)
        return VBody(ambient=obj.dim, vertices=obj.vertices,
                     edge_dirs=tuple(dirs),
                     facet_normals=tuple(h.normal for h in obj.halfspaces),
                     plane_normals=())
    raise DomainMismatch(f"cannot interpret {type(obj).__name__} as a convex body")


def embed_at_height(poly: Polytope, height=0) -> VBody:
    """Embed an n-polytope as a horizontal body in dimension n+1."""
    height = frac(height)
    base = as_body(poly)
    e_t = tuple([0] * poly.dim + [1])
    return VBody(
        ambient=poly.dim + 1,
        vertices=tuple(v + (height,) for v in base.vertices),
        edge_dirs=tuple(d + (0,) for d in base.edge_dirs),
        facet_normals=tuple(n + (0,) for n in base.facet_normals),
        plane_normals=(e_t, tuple(-x for x in e_t)),
    )


def point_body(point) -> VBody:
    point = vec(point)
    return VBody(ambient=len(point), vertices=(point,), edge_dirs=(),
                 facet_normals=(), plane_normals=())


def _support(body: VBody, scale: Fraction, nrm):
    return scale * max(dot(nrm, v) for v in body.vertices)


def _support_face_dim(body: VBody, nrm) -> int:
    best = max(dot(nrm, v) for v in body.vertices)
    face = [v for v in body.vertices if dot(nrm, v) == best]
    return _affine_rank(face)


def minkowski_sum(terms):
    """Exact Minkowski sum of scaled bodies; None if lower-dimensional.

    ``terms`` is a list of (nonnegative scale, VBody-or-Polytope).  The
    halfspace representation is assembled from support values over a
    complete candidate normal set, then validated: every vertex of the
    result must be a sum of scaled summand vertices.
    """
    terms = [(frac(s), as_body(b)) for s, b in terms if frac(s) != 0]
    if not terms:
        return None
    dim = terms[0][1].ambient
    if any(b.ambient != dim for _, b in terms):
        raise DomainMismatch("bodies of mixed ambient dimension")
    if dim > 3:
        raise DomainMismatch(
            "Minkowski facet enumeration implemented for ambient dim <= 3")

    cloud = {}
    combos = [[(s, v) for v in b.vertices] for s, b in terms]
    for pick in itertools.product(*combos):
        pt = tuple(sum(s * v[j] for s, v in pick) for j in range(dim))
        cloud[pt] = True
    cloud = list(cloud)
    if _affine_rank(cloud) < dim:
        return None

    cands = {}
    for _, b in terms:
        for nrm in b.facet_normals + b.plane_normals:
            cands[nrm] = True
        if dim == 2:
            for d in b.edge_dirs:
                cands[(d[1], -d[0])] = True
                cands[(-d[1], d[0])] = True
    if dim == 1:
        cands[(1,)] = True
        cands[(-1,)] = True
    if dim == 3:
        for (_, b1), (_, b2) in itertools.combinations(terms, 2):
            for d1 in b1.edge_dirs:
                for d2 in b2.edge_dirs:
                    c = _cross3(d1, d2)
                    if any(x != 0 for x in c):
                        prim, _ = primitivize(c)
                        cands[prim] = True
                        cands[tuple(-x for x in prim)] = True

    halfspaces = []
    for nrm in cands:
        if sum(_support_face_dim(b, nrm) for _, b in terms) >= dim - 1:
            off = sum(_support(b, s, nrm) for s, b in terms)
            halfspaces.append(Halfspace(nrm, off))
    poly = construct(halfspaces=halfspaces)
    cloudset = set(cloud)
    if any(v not in cloudset for v in poly.vertices):
        raise InconsistentInput("Minkowski sum facet candidates incomplete")
    return poly


def _sum_volume(terms) -> Fraction:
    poly = minkowski_sum(terms)
    return Fraction(0) if poly is None else volume_data(poly).volume


def _monomials(nvars: int, degree: int):
    if nvars == 0:
        return [()]
    out = []
    for total in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(nvars), total):
            expo = [0] * nvars
            for c in combo:
                expo[c] += 1
            out.append(tuple(expo))
    return sorted(set(out))


def mixed_volume(bodies, grid=None) -> Fraction:
    """Mixed volume V(K_1, ..., K_n), normalized so V(K,...,K) = Vol(K).

    Bodies are grouped up to equal vertex sets; the volume polynomial of
    the scaled Minkowski sum is interpolated exactly on an integer grid,
    and the multilinear coefficient then yields V.  A caller-supplied
    grid must be unisolvent, otherwise SingularPolarizationSystem.
    """
    bodies = [as_body(b) for b in bodies]
    if not bodies:
        raise InconsistentInput("mixed volume of an empty list")
    n = bodies[0].ambient
    if len(bodies) != n:
        raise DomainMismatch(f"need exactly {n} bodies in dimension {n}")
    if any(b.ambient != n for b in bodies):
        raise DomainMismatch("bodies of mixed ambient dimension")

    distinct, mult = [], []
    for b in bodies:
        key = frozenset(b.vertices)
        for i, d in enumerate(distinct):
            if frozenset(d.vertices) == key:
                mult[i] += 1
                break
        else:
            distinct.append(b)
            mult.append(1)

    if len(distinct) == 1:
        return _sum_volume([(Fraction(1), distinct[0])])

    m = len(distinct)
    monos = _monomials(m - 1, n)
    if grid is None:
        nodes = [tuple(Fraction(a) for a in expo) for expo in monos]
    else:
        nodes = [tuple(frac(x) for x in g) for g in grid]
        if len(set(nodes)) != len(nodes):
            raise SingularPolarizationSystem("duplicate grid points")
        if len(nodes) != len(monos):
            raise SingularPolarizationSystem(
                f"grid must have exactly {len(monos)} points")

    rows, rhs = [], []
    for node in nodes:
        rows.append([_mono_eval(node, expo) for expo in monos])
        terms = [(node[j], distinct[j]) for j in range(m - 1)]
        terms.append((Fraction(1), distinct[m - 1]))
        rhs.append(_sum_volume(terms))
    coeffs = _solve_dense(rows, rhs)
    if coeffs is None:
        raise SingularPolarizationSystem("scale grid is not unisolvent")

    target = tuple(mult[:m - 1])
    coeff = coeffs[monos.index(target)]
    scale = Fraction(1)
    for c in mult:
        for i in range(1, c + 1):
            scale *= i
    fact = 1
    for i in range(1, n + 1):
        fact *= i
    return coeff * scale / fact


def _mono_eval(node, expo):
    out = Fraction(1)
    for x, e in zip(node, expo):
        out *= x ** e
    return out


def _solve_dense(rows, rhs):
    """Exact Gaussian elimination; None if singular."""
    n = len(rows)
    mat = [list(map(Fraction, rows[i])) + [Fraction(rhs[i])] for i in range(n)]
    for col in range(n):
        piv = next((i for i in range(col, n) if mat[i][col] != 0), None)
        if piv is None:
            return None
        mat[col], mat[piv] = mat[piv], mat[col]
        pv = mat[col][col]
        mat[col] = [x / pv for x in mat[col]]
        for i in range(n):
            if i != col and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[col])]
    return [mat[i][n] for i in range(n)]


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
    offset = dot(w, v) - eps
    for j, u in enumerate(poly.vertices):
        if j != i and dot(w, u) >= offset:
            raise ChopTooLarge(f"chop at depth {eps} reaches vertex {u}")
    return construct(halfspaces=list(poly.halfspaces) + [Halfspace(w, offset)])
