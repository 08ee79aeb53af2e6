"""Exception types shared across the library."""


class SkelreconError(Exception):
    """Base class for all library-specific errors."""


# -- face lattices ---------------------------------------------------------

class NotGraded(SkelreconError):
    """Containment ranks of the face poset are inconsistent.

    Raised when the intersection closure of a facet list does not form a
    graded lattice of the declared dimension, which signals that the input
    is not a polytope incidence.
    """


class RankOutOfRange(SkelreconError):
    """A skeleton rank outside 1..d-1 was requested."""


class DegreeBelowDimension(SkelreconError):
    """Some vertex has degree below the dimension (not a polytope graph)."""


class NotAnEdge(SkelreconError):
    """A rank-1 face has more than two vertices, so there is no graph.

    A graded lattice need not come from a polytope: the rank-1 faces of
    three triangles glued in a ring are the triangles themselves.
    """


# -- graphs and orientations -----------------------------------------------

class TooLarge(SkelreconError):
    """The instance exceeds a size guard: the subset-DP bound, the bound
    of recong's two-nonsimple route, or ``gen``'s vertex cap."""


# -- constructions ----------------------------------------------------------

class DimensionTooSmall(SkelreconError):
    """The requested dimension is below the family's minimum."""


class InvalidBase(SkelreconError):
    """The base polytope handed to a derived construction is unusable."""


class NotAProperFace(SkelreconError):
    """Truncation was requested at a set that is not a proper face."""


class CutFacetMissing(SkelreconError):
    """A pullback input lacks the cut facet (the set of all new vertices)."""


# -- isomorphism -------------------------------------------------------------

class KindMismatch(SkelreconError):
    """Isomorphism was requested between objects of different kind or rank."""


# -- reconstruction from 2-skeletons -----------------------------------------

class FrameNotInUniqueTwoFace(SkelreconError):
    """A 2-frame rooted at a simple vertex is not in exactly one 2-face."""


class NotASkeleton(SkelreconError):
    """Frame propagation produced inconsistent facet membership."""


# -- reconstruction from graphs ----------------------------------------------

class CertificateMismatch(SkelreconError):
    """No exact 2-frame cover reaches the orientation-objective minimum."""


class EmptyFamily(SkelreconError):
    """No acyclic orientation satisfies the family constraints."""


class InconsistentCounts(SkelreconError):
    """The four facet-family counts do not add up."""


class RepairAmbiguous(SkelreconError):
    """More than two degree-deficient vertices appeared after truncation."""


class TooManyNonsimple(SkelreconError):
    """A graph, or a facet that a 2-skeleton gives, has more nonsimple
    vertices than its route handles."""


class MethodsDisagree(SkelreconError):
    """The claims and truncation routes returned different facet lists."""


class GraphMismatch(SkelreconError):
    """The graph of the facets found is not the input graph."""
