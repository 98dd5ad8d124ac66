"""Exception taxonomy shared across the package.

Three broad families: input/validation problems (bad polytopes, bad
piecewise data), numerical failures (Newton divergence, inconsistent
evaluation routes), and protocol violations (calling an operation on an
un-normalized configuration).
"""


class KstabError(Exception):
    """Base class for all package errors."""


class ValidationError(KstabError):
    """Structurally invalid input data."""


class UnboundedInput(ValidationError):
    """Halfspace system admits a recession direction."""


class DegenerateInput(ValidationError):
    """Input spans less than the ambient dimension."""


class InconsistentInput(ValidationError):
    """Contradictory constraints, or internal cross-checks that disagree."""


class DomainMismatch(ValidationError):
    """Operands live over different polytopes or ambient dimensions."""


class SingularPolarizationSystem(ValidationError):
    """Degenerate scale grid passed to the mixed-volume solver."""


class ChopTooLarge(ValidationError):
    """Corner chop would cut past the edges incident to the vertex."""


class NonDelzantVertex(ValidationError):
    """Vertex fails the unimodular (Delzant) condition."""


class NonDelzant(ValidationError):
    """Polytope fails the Delzant condition at some vertex."""


class NotConvex(ValidationError):
    """Piece list contains a redundant piece (never strictly maximal)."""


class ShiftTooSmall(ValidationError):
    """Cayley height shift does not strictly clear max g."""


class NotNormalized(ValidationError):
    """Operation requires an explicitly normalized configuration."""


class NotAVertex(ValidationError):
    """Chow weight requested at a point that is not a vertex."""


class DimensionMismatch(DomainMismatch):
    """Twisting class lives in a different dimension than the base."""


class MissingAlpha(ValidationError):
    """Twisted functional requested without twisting-class data."""


class NormalizationRequired(NotNormalized):
    """Path norm requires an average-zero configuration."""


class NumericalFailure(KstabError):
    """Numerical routine failed to converge or self-check failed."""


class NewtonDivergence(NumericalFailure):
    """Gradient inversion failed; usually the grid hugs the boundary."""


class RouteMismatch(NumericalFailure):
    """Two independent evaluation routes disagree beyond tolerance."""


class InsufficientSamples(ValidationError):
    """Slope estimation needs more (or larger) tau samples."""


class NonMonotoneTau(ValidationError):
    """Trace tau values must be strictly increasing."""
