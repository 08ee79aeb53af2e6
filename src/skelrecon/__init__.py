"""skelrecon: combinatorial polytope lattices and skeleton reconstruction.

Build face lattices from vertex-facet incidences, generate the twin
counterexample families and the standard fixture polytopes, decide
isomorphism of skeleta and lattices, and reconstruct facet lists from
2-skeletons (frame propagation) and from bare graphs (orientation DPs
plus exact cover), including both two-nonsimple-vertex routes.
"""

from .constructions import (
    LabeledConstruction,
    TruncationMap,
    bipyramid,
    cube,
    multifold_pyramid,
    polygon_prism,
    polygon_prism_skeleton,
    pullback_facets,
    pyramid,
    q1,
    q2,
    simplex,
    truncate,
)
from .graphs import (
    Graph,
    Orientation,
    enumerate_acyclic_orientations,
    induced_cycles,
    is_feasible,
    k_connected,
    min_two_face_score,
    two_face_witness,
)
from .iso import IsoResult, isomorphic
from .lattice import (
    FaceLattice,
    KSkeleton,
    PolytopeSpec,
    ValidationReport,
    VertexClasses,
    build_face_lattice,
    classify_vertices,
    k_skeleton,
    validate,
)
from .recon2 import (
    Ambiguity,
    FrameGraph,
    ReconstructionOutcome,
    build_frame_graph,
    reconstruct,
)
from .recong import (
    FacetFamilies,
    GraphReconstruction,
    count_sink_frames,
    detect_uv_facets,
    facet_families,
    find_facets_avoiding,
    find_facets_empty,
    max_two_system,
    reconstruct_one_nonsimple,
    reconstruct_two_nonsimple,
    reconstruct_two_nonsimple_via_truncation,
)

__version__ = "0.1.0"
