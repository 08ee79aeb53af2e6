"""Fixture families built from explicit combinatorial rules.

The two flagship families q1(d) and q2(d) are twin d-polytopes on 2d
vertices with d-1 nonsimple vertices each: their low skeleta coincide
while their face lattices differ (q1 has 2d facets, q2 has 2d-1, because
two simplex facets of q1 merge into one bipyramid facet of q2).  Both are
generated straight from their facet lists; no coordinates anywhere.

Also here: the standard base families (simplices, cubes, prisms,
pyramids, bipyramids), combinatorial truncation at a face, and the
pullback that inverts it on facet lists.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .errors import (
    CutFacetMissing,
    DimensionTooSmall,
    InvalidBase,
    NotAProperFace,
)
from .graphs import Graph, mask_of, vertices_of
from .lattice import FaceLattice, KSkeleton, PolytopeSpec


class LabeledConstruction(namedtuple("LabeledConstruction", "spec x_set")):
    """A generated spec plus the labels its construction distinguishes.

    For the twin families, x_set is the set of even labels except 0; these
    are exactly the nonsimple vertices.
    """

    __slots__ = ()


def _twin(d: int, caps: list[set[int]]) -> LabeledConstruction:
    """The twin on labels 0..2d-1 whose facets are the 2d-2 that q1(d) and
    q2(d) share plus cap | X for each cap in ``caps``, X = {2,4,...,2(d-1)}."""
    x = set(range(2, 2 * d, 2))
    facets = [cap | x for cap in caps]
    for k in range(1, d):
        facets.append({0} | {2 * i + 1 for i in range(k)} | (x - {2 * k}))
    for k in range(1, d - 1):
        facets.append(
            {2 * d - 1} | {2 * i + 1 for i in range(k - 1, d - 1)} | (x - {2 * k})
        )
    facets.append({2 * d - 3, 2 * d - 1} | (x - {2 * (d - 1)}))
    return LabeledConstruction(PolytopeSpec(d, 2 * d, facets), frozenset(x))


def q1(d: int) -> LabeledConstruction:
    """First twin: 2d vertices, 2d facets, nonsimple set {2,4,...,2d-2}.

    Facets on labels 0..2d-1, writing X = {2,4,...,2(d-1)}:

    - the simplex {0} | X
    - for k=1..d-1: {0} | {1,3,...,2k-1} | X minus {2k}
    - for k=1..d-2: {2d-1} | {2k-1,2k+1,...,2d-3} | X minus {2k}
    - the simplex {2d-3, 2d-1} | X minus {2(d-1)}
    - the simplex {2d-1} | X
    """
    if d < 3:
        raise DimensionTooSmall("q1 needs d >= 3")
    return _twin(d, [{0}, {2 * d - 1}])


def q2(d: int) -> LabeledConstruction:
    """Second twin: 2d vertices, 2d-1 facets, same low skeleta as q1(d).

    Identical facet list except that the two simplices {0}|X and {2d-1}|X
    of q1 are replaced by the single bipyramid facet {0, 2d-1}|X; the ridge
    X of q1 is a missing face here.
    """
    if d < 4:
        raise DimensionTooSmall("q2 needs d >= 4")
    return _twin(d, [{0, 2 * d - 1}])


def simplex(d: int) -> PolytopeSpec:
    """The d-simplex: d+1 vertices, facets are all d-subsets."""
    if d < 2:
        raise DimensionTooSmall("simplex needs d >= 2")
    facets = itertools.combinations(range(d + 1), d)
    return PolytopeSpec(d, d + 1, facets)


def cube(d: int) -> PolytopeSpec:
    """The d-cube on binary-counter labels; facet = fixed bit value."""
    if d < 2:
        raise DimensionTooSmall("cube needs d >= 2")
    n = 1 << d
    facets = []
    for i in range(d):
        facets.append([v for v in range(n) if not v & (1 << i)])
        facets.append([v for v in range(n) if v & (1 << i)])
    return PolytopeSpec(d, n, facets)


def polygon_prism(m: int) -> PolytopeSpec:
    """Prism over an m-gon: 2m vertices, m+2 facets, simple, d=3.

    Bottom cycle 0..m-1, top cycle m..2m-1, vertex i below vertex m+i.
    """
    if m < 3:
        raise InvalidBase("polygon_prism needs m >= 3")
    bottom = list(range(m))
    top = list(range(m, 2 * m))
    facets = [bottom, top]
    for i in range(m):
        j = (i + 1) % m
        facets.append([i, j, m + i, m + j])
    return PolytopeSpec(3, 2 * m, facets)


def polygon_prism_skeleton(m: int) -> KSkeleton:
    """The 2-skeleton of polygon_prism(m) built directly, without a lattice.

    For d=3 the 2-faces are the facets, so this is cheap at any size; the
    scaling tests use it to reach prisms far beyond what intersection
    closure could build.
    """
    spec = polygon_prism(m)
    edges = []
    for i in range(m):
        j = (i + 1) % m
        edges.append((i, j))
        edges.append((m + i, m + j))
        edges.append((i, m + i))
    return KSkeleton(k=2, graph=Graph(2 * m, edges), faces_by_dim={2: spec.facets})


def pyramid(base: PolytopeSpec) -> PolytopeSpec:
    """Cone over a polytope: the base stays a facet, the apex joins all others."""
    apex = base.n
    facets: list[list[int]] = [list(range(base.n))]
    for f in base.facets:
        facets.append(list(f) + [apex])
    return PolytopeSpec(base.d + 1, base.n + 1, facets)


def bipyramid(base: PolytopeSpec) -> PolytopeSpec:
    """Two apexes coned over every base facet; the base is not a facet."""
    a, b = base.n, base.n + 1
    facets = []
    for f in base.facets:
        facets.append(list(f) + [a])
        facets.append(list(f) + [b])
    return PolytopeSpec(base.d + 1, base.n + 2, facets)


def multifold_pyramid(base: PolytopeSpec, t: int) -> PolytopeSpec:
    """t-fold iterated pyramid.

    Over a simple non-simplex base the t apexes are exactly the nonsimple
    vertices of the result.
    """
    if t < 1:
        raise InvalidBase("t must be at least 1")
    spec = base
    for _ in range(t):
        spec = pyramid(spec)
    return spec


class TruncationMap(
    namedtuple(
        "TruncationMap", "face old_to_new new_from_edge face_was_facet", defaults=(False,)
    )
):
    """The labeling of one truncation, kept once for every caller.

    ``old_to_new`` relabels the surviving vertices, in their relative
    order; ``new_from_edge`` maps each cut edge (x inside the face, y
    outside) to the vertex that replaces it, with ids ascending in cut-edge
    order after the survivors.  When the truncated face was itself a facet
    it disappears from the new facet list, so the pullback must restore
    it; ``face_was_facet`` records that.  The rest is read off these.
    """

    __slots__ = ()

    @property
    def n(self) -> int:
        """The vertex count after the cut."""
        return len(self.old_to_new) + len(self.new_from_edge)

    @property
    def cut_facet(self) -> frozenset[int]:
        """The facet carved out by the cut: all the new vertices."""
        return frozenset(self.new_from_edge.values())

    def cut_vertices(self, mask: int) -> list[int]:
        """The new vertices, ascending, of the cut edges inside a vertex mask."""
        return [w for (x, y), w in self.new_from_edge.items() if mask >> x & 1 and mask >> y & 1]


def truncation_map(n: int, fmask: int, edges, *, face_was_facet: bool = False) -> TruncationMap:
    """The labeling for truncating an n-vertex polytope at the face whose
    vertex mask is ``fmask``.

    The cut edges are the ``edges`` (vertex pairs) with one endpoint in
    the face.  Surviving vertices keep their relative order; new vertices
    follow, ordered by their cut edge (x, y) with x in the face.
    """
    cut_edges = sorted(
        (a, b) if fmask >> a & 1 else (b, a)
        for a, b in edges
        if (fmask >> a ^ fmask >> b) & 1
    )
    survivors = [v for v in range(n) if not fmask >> v & 1]
    return TruncationMap(
        face=vertices_of(fmask),
        old_to_new={v: i for i, v in enumerate(survivors)},
        new_from_edge={e: len(survivors) + i for i, e in enumerate(cut_edges)},
        face_was_facet=face_was_facet,
    )


def truncate(lattice: FaceLattice, face) -> tuple[PolytopeSpec, TruncationMap]:
    """Truncate a polytope at a proper face, working on vertex sets only.

    The new polytope keeps every vertex outside the face, gains one vertex
    per cut edge (edge with exactly one endpoint in the face), and its
    facets are the cut facet plus each old facet with its face vertices
    replaced by the new vertices of the cut edges inside it, labeled as
    :func:`truncation_map` lays out.
    """
    fset = frozenset(face)
    fmask = mask_of(fset) if fset.issubset(range(lattice.n)) else -1
    if not lattice.is_face(fmask) or not 0 <= lattice.rank(fmask) <= lattice.d - 1:
        raise NotAProperFace(f"{tuple(sorted(face))} is not a proper face")
    tmap = truncation_map(
        lattice.n,
        fmask,
        lattice.layer(1),
        face_was_facet=lattice.rank(fmask) == lattice.d - 1,
    )
    facets = [tmap.cut_facet]
    for jmask in lattice.masks_of_rank(lattice.d - 1):
        if jmask != fmask:
            survivors = [tmap.old_to_new[v] for v in vertices_of(jmask & ~fmask)]
            facets.append(survivors + tmap.cut_vertices(jmask))
    return PolytopeSpec(lattice.d, tmap.n, facets), tmap


def pullback_facets(facets, tmap: TruncationMap) -> tuple[tuple[int, ...], ...]:
    """Invert a truncation on a facet list.

    Drops the cut facet and maps every other label back through one table:
    a survivor to its old label, a new vertex to the face vertex its cut
    edge starts at.  The result is the facet list of the untruncated
    polytope (with the truncated face itself put back when it was a facet).
    """
    cut_facet = tmap.cut_facet
    facet_sets = [frozenset(f) for f in facets]
    if cut_facet not in facet_sets:
        raise CutFacetMissing("input lacks the cut facet (all new vertices)")
    back = {w: v for v, w in tmap.old_to_new.items()}
    back.update((w, x) for (x, _), w in tmap.new_from_edge.items())
    out = {tuple(sorted({back[w] for w in f})) for f in facet_sets if f != cut_facet}
    if tmap.face_was_facet:
        out.add(tmap.face)
    return tuple(sorted(out))
