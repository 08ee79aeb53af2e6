#!/usr/bin/env python3
"""Walkthrough: reconstructing facets from the graph alone.

With at most one nonsimple vertex, the 2-faces are the maximum exact
cover of the simple-rooted 2-frames by induced cycles.  No cover is larger
than the two-face score of an acyclic orientation with the nonsimple
vertex as a source, so a vertex order whose score equals the size of the
first cover found certifies it.  That cover is drawn from one shortest
chordless cycle per frame; all induced cycles and the subset DP for the
orientation minimum are only the fallback.  Graph + 2-faces is a
2-skeleton, and the frame engine finishes the job.

With exactly two nonsimple vertices u, v, facets split into four families
by which of u, v they contain.  Each family comes out of a constrained
family of acyclic orientations: the ancestor sets of simple vertices
under the objective minimisers are exactly the family's facets.  An
ancestor set is an initial set with a single sink, so the least cost of
the orientations through it is a subset DP inside it plus one after it,
and no orientation is enumerated.  Truncating at uv instead gives an
independent second route.

``recong.reconstruct`` is the one entry point: it picks the route from
the number of nonsimple vertices and, with two, runs both routes by
default and checks that they agree.
"""

from skelrecon import (
    build_face_lattice,
    classify_vertices,
    cube,
    max_two_system,
    min_two_face_score,
    multifold_pyramid,
    pyramid,
    recong,
    two_face_witness,
)

# -- one nonsimple vertex --------------------------------------------------------

spec = pyramid(cube(3))
lat = build_face_lattice(spec)
g = lat.graph()
apex = next(iter(classify_vertices(lat).nonsimple))
print(f"pyramid over the 3-cube: apex {apex} has degree {g.degree(apex)}")

system = max_two_system(g, 4)
order = two_face_witness(g, (apex,), len(system))
placed = set()
score = 0
for v in order:
    k = sum(w in placed for w in g.adj[v])
    score += k * (k - 1) // 2
    placed.add(v)
target = min_two_face_score(g, (apex,))
print(f"maximum 2-system: {len(system)} sets; witness order score: {score}; "
      f"orientation minimum: {target}")
print("   (12 apex triangles + 6 squares)")

result = recong.reconstruct(g, 4)
print(f"certificate: {result.certificate[0]}")
print(f"reconstructed {len(result.facets)} facets, oracle match: {result.facets == lat.facets}")
print()

# -- two nonsimple vertices -------------------------------------------------------

spec = multifold_pyramid(cube(2), 2)  # two stacked apexes over a square
lat = build_face_lattice(spec)
g = lat.graph()
result = recong.reconstruct(g, 4)  # both routes; they must agree
families = result.families
print(f"2-fold pyramid over a square: apexes {families.u}, {families.v}")
print(f"family sizes (u only, v only, neither, both): {families.counts}")
print(f"minimum avoiding v: {families.min_u} = facets not containing v")
print(f"shared-family minimum: {families.min_both} = total facet count")
print(f"claims and truncation routes agree, oracle match: {result.facets == lat.facets}")
