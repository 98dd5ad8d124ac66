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

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property

from .errors import (
    DomainMismatch,
    NotConvex,
    ShiftTooSmall,
)
from .polytope import (
    Halfspace,
    Polytope,
    _clip,
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


@dataclass(frozen=True)
class PLConvexFn:
    """Max of finitely many affine functions, validated on its domain.

    Every piece must win strictly on some full-dimensional region of the
    domain; redundant representations are rejected because the exact
    region-wise integration downstream relies on the pieces tiling P.

    ``cells[i]`` is the region of the domain where piece i is maximal.
    Only ``pl_fn`` and ``restricted`` compute cells, by clipping;
    ``integrate`` and every other reader take them from here.  Shifting
    all pieces keeps the sign of each difference of two pieces, hence
    every cell, so ``shifted`` carries the cells over.  Cells take no
    part in equality or hashing.
    """

    pieces: tuple
    domain: Polytope
    cells: tuple = field(compare=False, repr=False)

    def __call__(self, x):
        return max(p(x) for p in self.pieces)

    @property
    def is_constant(self) -> bool:
        return len(self.pieces) == 1 and all(c == 0 for c in self.pieces[0].gradient)

    def regions(self) -> tuple:
        return self.cells

    def min_over_domain(self) -> Fraction:
        """Exact min of a convex PL function: on cell i, g is piece i, so
        scan each cell's vertices with its own piece."""
        return min(p(v) for p, cell in zip(self.pieces, self.cells)
                   for v in cell.vertices)

    def max_over_domain(self) -> Fraction:
        return max(self(v) for v in self.domain.vertices)

    def average(self) -> Fraction:
        return self._mean

    @cached_property
    def _mean(self) -> Fraction:  # replace() builds a fresh instance
        return integrate(self.domain, self) / volume_data(self.domain).volume

    def shifted(self, c) -> "PLConvexFn":
        c = frac(c)
        return replace(self, pieces=tuple(AffineFn(p.gradient, p.constant + c)
                                          for p in self.pieces))


def pl_fn(domain: Polytope, pieces) -> PLConvexFn:
    """Validated constructor from (gradient, constant) pairs; NotConvex
    when a piece never wins strictly."""
    ps = [AffineFn(vec(grad), frac(const)) for grad, const in pieces]
    if not ps:
        raise NotConvex("need at least one affine piece")
    if any(len(p.gradient) != domain.dim for p in ps):
        raise DomainMismatch("piece gradient dimension mismatch")
    regions = regions_of_max(domain, [(p.gradient, p.constant) for p in ps])
    dead = [i for i, r in enumerate(regions) if r is None]
    if dead:
        raise NotConvex(f"pieces {dead} are redundant (never strictly maximal)")
    return PLConvexFn(tuple(ps), domain, tuple(regions))


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


def make_config(base: Polytope, g, shift="auto") -> ToricTestConfig:
    """Assemble a validated (P, g, shift) triple with its Cayley polytope
    Q = {(x, t): x in base, 0 <= t <= shift - g(x)}."""
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
    hs = [Halfspace(h.normal + (0,), h.offset) for h in base.halfspaces]
    hs.append(Halfspace(tuple([0] * base.dim + [-1]), Fraction(0)))
    hs += [Halfspace.make(p.gradient + (1,), shift - p.constant)
           for p in g.pieces]
    cayley = construct(halfspaces=hs)
    return ToricTestConfig(base=base, g=g, shift=shift, cayley=cayley,
                           normalization="raw", trivial=g.is_constant)


def restricted(cfg: ToricTestConfig, sub: Polytope) -> ToricTestConfig:
    """cfg's g and shift on sub, raw; DomainMismatch if sub leaves the
    base.  Each halfspace of sub that the base lacks cuts every cell of
    g and, lifted to (h, 0), the Cayley polytope.  A piece whose cell
    empties lies below the kept ones on sub, so it is dropped and no
    kept cell moves."""
    outer, inner = set(cfg.base.halfspaces), set(sub.halfspaces)
    if any(h.slack(v) < 0 for h in outer - inner for v in sub.vertices):
        raise DomainMismatch("sub-polytope leaves the domain")
    cells, cayley = cfg.g.cells, cfg.cayley
    for h in inner - outer:
        cells = [c and _clip(c, h) for c in cells]
        cayley = _clip(cayley, Halfspace(h.normal + (0,), h.offset))
    pieces, cells = zip(*((p, c) for p, c in zip(cfg.g.pieces, cells)
                          if c is not None))
    g = PLConvexFn(pieces, sub, cells)
    return ToricTestConfig(base=sub, g=g, shift=cfg.shift, cayley=cayley,
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
