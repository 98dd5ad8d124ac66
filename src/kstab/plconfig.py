"""Piecewise-linear convex data on a polytope and the Cayley construction.

A toric degeneration is encoded here as a pair (P, g): the moment
polytope P and a rational convex piecewise-linear function g on it,
together with a shift constant c chosen so that f = c - g stays
strictly positive.  The associated Cayley polytope

    Q = {(x, t) : x in P, 0 <= t <= f(x)}

is built exactly in the polytope kernel.  Adding a constant to g (or
changing the shift) moves Q by trivial bookkeeping only, and every
invariant downstream is checked to be blind to it.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import (
    DomainMismatch,
    NotConvex,
    ShiftTooSmall,
)
from .polytope import (
    Halfspace,
    Polytope,
    construct,
    dot,
    frac,
    integrate,
    regions_of_max,
    vec,
    volume_data,
)


@dataclass(frozen=True)
class AffineFn:
    gradient: tuple
    constant: Fraction

    def __call__(self, x):
        return dot(self.gradient, x) + self.constant


def affine(gradient, constant=0) -> AffineFn:
    return AffineFn(vec(gradient), frac(constant))


@dataclass(frozen=True)
class PLConvexFn:
    """Max of finitely many affine functions, validated on its domain.

    Every piece must win strictly on some full-dimensional region of the
    domain; redundant representations are rejected because the exact
    region-wise integration downstream relies on the pieces tiling P.
    """

    pieces: tuple
    domain: Polytope

    def __call__(self, x):
        return max(p(x) for p in self.pieces)

    @property
    def is_constant(self) -> bool:
        return len(self.pieces) == 1 and all(c == 0 for c in self.pieces[0].gradient)

    def regions(self):
        return regions_of_max(self.domain,
                              [(p.gradient, p.constant) for p in self.pieces])

    def min_over_domain(self) -> Fraction:
        """Exact min of a convex PL function: scan linearity-region vertices."""
        best = None
        for sub in self.regions():
            for v in sub.vertices:
                val = self(v)
                if best is None or val < best:
                    best = val
        return best

    def max_over_domain(self) -> Fraction:
        return max(self(v) for v in self.domain.vertices)

    def average(self) -> Fraction:
        vd = volume_data(self.domain)
        return integrate(self.domain, self) / vd.volume

    def shifted(self, c) -> "PLConvexFn":
        c = frac(c)
        return PLConvexFn(tuple(AffineFn(p.gradient, p.constant + c)
                                for p in self.pieces), self.domain)

    def scaled(self, d) -> "PLConvexFn":
        d = frac(d)
        if d <= 0:
            raise NotConvex("scaling factor must be positive")
        return PLConvexFn(tuple(AffineFn(tuple(d * c for c in p.gradient),
                                         d * p.constant)
                                for p in self.pieces), self.domain)

    def restricted_to(self, sub: Polytope) -> "PLConvexFn":
        """Restriction to a sub-polytope, dropping newly redundant pieces."""
        regions = regions_of_max(sub, [(p.gradient, p.constant)
                                       for p in self.pieces])
        keep = tuple(p for p, r in zip(self.pieces, regions) if r is not None)
        return PLConvexFn(keep, sub)


def pl_fn(domain: Polytope, pieces) -> PLConvexFn:
    """Validated constructor; NotConvex when a piece never wins strictly."""
    ps = []
    for item in pieces:
        if isinstance(item, AffineFn):
            ps.append(AffineFn(vec(item.gradient), frac(item.constant)))
        else:
            grad, const = item
            ps.append(affine(grad, const))
    if not ps:
        raise NotConvex("need at least one affine piece")
    if any(len(p.gradient) != domain.dim for p in ps):
        raise DomainMismatch("piece gradient dimension mismatch")
    regions = regions_of_max(domain, [(p.gradient, p.constant) for p in ps])
    dead = [i for i, r in enumerate(regions) if r is None]
    if dead:
        raise NotConvex(f"pieces {dead} are redundant (never strictly maximal)")
    return PLConvexFn(tuple(ps), domain)


@dataclass(frozen=True)
class ToricTestConfig:
    base: Polytope
    g: PLConvexFn
    shift: Fraction
    cayley: Polytope
    normalization: str  # raw | min_zero | average_zero
    trivial: bool

    @property
    def dim(self) -> int:
        return self.base.dim


def _build_cayley(base: Polytope, g: PLConvexFn, shift: Fraction) -> Polytope:
    hs = [Halfspace(h.normal + (0,), h.offset) for h in base.halfspaces]
    hs.append(Halfspace(tuple([0] * base.dim + [-1]), Fraction(0)))
    for p in g.pieces:
        hs.append(Halfspace.make(tuple(p.gradient) + (Fraction(1),),
                                 shift - p.constant))
    return construct(halfspaces=hs)


def make_config(base: Polytope, g, shift="auto") -> ToricTestConfig:
    """Assemble a validated (P, g, shift) triple with its Cayley polytope."""
    if not isinstance(g, PLConvexFn):
        g = pl_fn(base, g)
    if g.domain != base:
        raise DomainMismatch("g is defined on a different polytope")
    gmax = g.max_over_domain()
    if shift == "auto":
        shift = gmax + 1
    else:
        shift = frac(shift)
        if shift <= gmax:
            raise ShiftTooSmall(f"shift {shift} must exceed max g = {gmax}")
    cayley = _build_cayley(base, g, shift)
    return ToricTestConfig(base=base, g=g, shift=shift, cayley=cayley,
                           normalization="raw", trivial=g.is_constant)


def normalize(cfg: ToricTestConfig, mode: str = "min_zero") -> ToricTestConfig:
    """Shift g by a constant so min (or average) vanishes.

    The shift constant c moves along with g, so f = c - g and hence the
    Cayley polytope are untouched; only the bookkeeping changes.
    """
    if mode not in ("min_zero", "average_zero"):
        raise DomainMismatch(f"unknown normalization {mode!r}")
    drop = cfg.g.min_over_domain() if mode == "min_zero" else cfg.g.average()
    if drop == 0 and cfg.normalization == mode:
        return cfg
    return replace(cfg, g=cfg.g.shifted(-drop), shift=cfg.shift - drop,
                   normalization=mode)
