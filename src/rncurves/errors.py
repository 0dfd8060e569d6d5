"""Exception hierarchy for geometric degeneracies and failed constructions.

Every error below signals a *mathematically meaningful* failure (degenerate
input, violated precondition, exhausted sampling budget), never an internal
bug; callers are expected to catch and either resample or report.
"""


class RncError(Exception):
    """Base class for all package-specific errors."""


class FrameDegenerate(RncError):
    """A projective frame request received points in special position."""


class NotComplementary(RncError):
    """Subspaces fail to be independent / to span the expected space."""


class InCenter(RncError):
    """A point scheduled for projection lies in the projection center."""


class GenericityExhausted(RncError):
    """Resampling budget ran out without finding a generic instance."""


class DuplicateParameters(RncError):
    """Two assigned parameter values on the line coincide."""


class CoincidentParameters(RncError):
    """Interpolation data forces two parameter values to collide."""


class CurveInSubspaceSpan(RncError):
    """The curve lies inside the subspace, so the intersection is not finite."""


class CenterMeetsCurve(RncError):
    """Projection center meets the curve although the caller forbade it."""


class BaseLocus(RncError):
    """A point lies on the base locus of the rational map being applied."""


class OnContractedLocus(RncError):
    """Inverse image requested at a point of the contracted hyperplane."""


class BoundViolated(RncError):
    """A numeric precondition (e.g. point-count bound) is violated."""


class DegenerateImage(RncError):
    """A constructed image curve failed its non-degeneracy checks."""


class VerificationFailed(RncError):
    """An a-posteriori exact check of a constructed witness failed."""


class NoConstructivePath(RncError):
    """No known construction applies to the requested configuration."""


class FatComponentPresent(RncError):
    """An operation restricted to reduced configurations met a fat component."""
