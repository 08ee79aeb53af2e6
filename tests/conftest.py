"""Shared fixtures: generated polytopes and their lattice oracles.

The lattice built by intersection closure is the oracle every
reconstruction result is compared against; it never goes through the
reconstruction code paths.
"""

import itertools
import statistics
import time
from functools import lru_cache

import pytest

from skelrecon import (
    Graph,
    KSkeleton,
    PolytopeSpec,
    bipyramid,
    build_face_lattice,
    classify_vertices,
    cube,
    multifold_pyramid,
    polygon_prism,
    polygon_prism_skeleton,
    pyramid,
    q1,
    q2,
    simplex,
    truncate,
    validate,
)

# A cube with one facet split along a diagonal: the diagonal's endpoints 0
# and 2 are the only nonsimple vertices (degree 4, adjacent), and the
# opposite facet avoids both.
SPLIT_CUBE = PolytopeSpec(
    3,
    8,
    [
        (0, 1, 2),
        (0, 2, 3),
        (4, 5, 6, 7),
        (0, 1, 4, 5),
        (1, 2, 5, 6),
        (2, 3, 6, 7),
        (0, 3, 4, 7),
    ],
)

# An 8-vertex 3-polytope (three triangles, two quads, one more quad and a
# pentagon) whose two degree-4 vertices 0 and 1 are not adjacent; kept in
# the corpus as the nonadjacent nonsimple pair.
SKEW_SOLID = PolytopeSpec(
    3,
    8,
    [
        (0, 2, 3),
        (1, 4, 6),
        (1, 5, 7),
        (0, 2, 4, 6),
        (0, 3, 5, 7),
        (0, 1, 4, 5),
        (1, 2, 3, 6, 7),
    ],
)

# Prism over the square pyramid (apexes 4 and 9): the smallest d=4 fixture
# whose facet families relative to its two nonsimple vertices are all
# nonempty (one facet per apex, one cube avoiding both, four shared).
PRISM_OVER_PYRAMID = PolytopeSpec(
    4,
    10,
    [
        (0, 1, 2, 3, 4),
        (5, 6, 7, 8, 9),
        (0, 1, 2, 3, 5, 6, 7, 8),
        (0, 1, 4, 5, 6, 9),
        (1, 2, 4, 6, 7, 9),
        (2, 3, 4, 7, 8, 9),
        (0, 3, 4, 5, 8, 9),
    ],
)


# The square antiprism: squares 0123 and 4567 joined by a band of eight
# triangles.
SQUARE_ANTIPRISM = PolytopeSpec(
    3,
    8,
    [
        (0, 1, 2, 3),
        (4, 5, 6, 7),
        (0, 1, 4),
        (1, 4, 5),
        (1, 2, 5),
        (2, 5, 6),
        (2, 3, 6),
        (3, 6, 7),
        (0, 3, 7),
        (0, 4, 7),
    ],
)


@lru_cache(maxsize=None)
def truncated_antiprism():
    """The square antiprism truncated at the square 4567, then at the
    vertices 1 and 3: 18 vertices.  Its only nonsimple vertices, the
    antiprism's 0 and 2, are not adjacent and share what is left of the
    square 0123."""
    spec, _ = truncate(build_face_lattice(SQUARE_ANTIPRISM), (4, 5, 6, 7))
    spec, tmap = truncate(build_face_lattice(spec), (1,))
    spec, _ = truncate(build_face_lattice(spec), (tmap.old_to_new[3],))
    return spec


# K3,3 with parts {0, 1, 4} and {2, 3, 5}, plus the edge 2-5.  It is not
# planar, so it is no 3-polytope graph, yet it is 3-connected and 2 and 5
# are its only vertices of degree 4.  Truncated at the edge 2-5 it has six
# nonsimple vertices, so the truncation route must refuse it.
K33_PLUS_EDGE = Graph(
    6, [(0, 2), (0, 3), (0, 5), (1, 2), (1, 3), (1, 5), (2, 4), (2, 5), (3, 4), (4, 5)]
)


# K2,4 with parts {0, 1} and {2, 3, 4, 5}, plus the edges 2-3 and 4-5.
# Removing 0 and 1 cuts it in two, so it is no 3-polytope graph, yet every
# vertex has degree at least 3 and 0 and 1, not adjacent, are its only
# vertices of degree 4.  Truncated at 0 it has four vertices of degree 2,
# not the 0 or 2 a polytope leaves, so the missing edge cannot be repaired.
K24_PLUS_MATCHING = Graph(
    6, [(0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (4, 5)]
)


def cyclic(n: int, d: int) -> PolytopeSpec:
    """The cyclic polytope C(n, d), 2 <= d < n, from Gale's evenness
    condition: a d-subset of 0..n-1 is a facet when every block of
    consecutive members holding neither 0 nor n-1 has even length (Gale
    1963; Ziegler, *Lectures on Polytopes*, Thm 0.7).  So a facet is a
    first block 0..a-1, a last block n-b..n-1, a gap after the one and
    before the other, and (d-a-b)/2 disjoint pairs {p, p+1} between the
    gaps; each such pattern is one facet, and no other d-subset is
    visited."""
    facets = []
    for a in range(d + 1):
        for b in range(d - a + 1):
            k, odd = divmod(d - a - b, 2)
            if odd:
                continue
            ends = [*range(a), *range(n - b, n)]
            # The i-th pair starts at a + 1 + c[i] + i, so pairs neither
            # overlap nor reach the gap at n - b - 1.
            for c in itertools.combinations(range(n - a - b - 2 - k), k):
                starts = [a + 1 + ci + i for i, ci in enumerate(c)]
                facets.append(ends + starts + [p + 1 for p in starts])
    return PolytopeSpec(d, n, facets)


def dual(spec: PolytopeSpec) -> PolytopeSpec:
    """The polar dual of a polytope by transposed incidences: vertex j is
    facet j of ``spec``, and facet v holds the facets through vertex v
    (Ziegler, *Lectures on Polytopes*, ch. 2)."""
    holders: list[list[int]] = [[] for _ in range(spec.n)]
    for j, f in enumerate(spec.facets):
        for v in f:
            holders[v].append(j)
    return PolytopeSpec(spec.d, len(spec.facets), holders)


@lru_cache(maxsize=None)
def lattice_of(spec):
    return build_face_lattice(spec)


@lru_cache(maxsize=None)
def fixture_corpus():
    """Small named polytopes used across the suite."""
    return {
        "simplex3": simplex(3),
        "simplex4": simplex(4),
        "cube3": cube(3),
        "cube4": cube(4),
        "prism5": polygon_prism(5),
        "pyr_cube3": pyramid(cube(3)),
        "pyr_prism4": pyramid(polygon_prism(4)),
        "twofold_square": multifold_pyramid(cube(2), 2),
        "twofold_triprism": multifold_pyramid(polygon_prism(3), 2),
        "bipyr_simplex3": bipyramid(simplex(3)),
        "pyr_bipyr_triangle": pyramid(bipyramid(simplex(2))),
        "q1_4": q1(4).spec,
        "q2_4": q2(4).spec,
        "split_cube": SPLIT_CUBE,
        "skew_solid": SKEW_SOLID,
        "prism_over_pyramid": PRISM_OVER_PYRAMID,
    }


def truncation_pairs():
    """(base spec, face) pairs exercising the truncation lemma."""
    pairs = []
    for spec, faces in [
        (cube(3), [(0,), (0, 1), (0, 1, 2, 3)]),
        (simplex(4), [(0,), (0, 1), (0, 1, 2)]),
        (cube(4), [(0,), (0, 1)]),
        (pyramid(cube(3)), [(8,), (0,), (0, 8)]),
        (polygon_prism(5), [(0,), (0, 5)]),
        (simplex(5), [(0, 1)]),
        (multifold_pyramid(cube(2), 2), [(4, 5)]),
        (pyramid(polygon_prism(4)), [(8,), (0, 8)]),
        (q1(4).spec, [(7,)]),
        (polygon_prism(4), [(0, 1, 4, 5)]),
        (polygon_prism(6), [(0,)]),
    ]:
        for f in faces:
            pairs.append((spec, f))
    return pairs


@pytest.fixture(scope="session")
def corpus():
    return fixture_corpus()


def assert_valid(spec):
    report = validate(lattice_of(spec))
    assert report.ok, report.summary()


def pace() -> float:
    """The machine's current speed: the median time of three runs of a
    fixed pure-Python loop of tuple, set and dict work that never touches
    skelrecon."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        seen: dict = {}
        for i in range(3000):
            t = (i % 97, i % 89)
            seen[t] = seen.get(t, 0) + len(frozenset(t))
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def prism_pyramid_skeleton(m: int) -> KSkeleton:
    """The 2-skeleton of pyramid(polygon_prism(m)), d = 4, built directly:
    the prism's 2-faces and a triangle over each prism edge with the apex
    2m, the one nonsimple vertex, of degree 2m."""
    base = polygon_prism_skeleton(m)
    apex = base.n
    edges = base.graph.edges
    graph = Graph(apex + 1, [*edges, *((v, apex) for v in range(apex))])
    faces = (*base.two_faces, *((u, v, apex) for u, v in edges))
    return KSkeleton(graph=graph, faces_by_dim={2: tuple(sorted(faces))})
