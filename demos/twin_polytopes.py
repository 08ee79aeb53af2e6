#!/usr/bin/env python3
"""Walkthrough: the twin polytope families q1(d) and q2(d).

For every d >= 4 the two polytopes share 2d vertices and all faces of
dimension up to d-3, yet their face lattices differ: q1 carries two
simplex facets that meet in the ridge {2, 4, ..., 2d-2}, and q2 glues
them into a single bipyramid facet, losing that ridge.  Both have exactly
d-1 nonsimple vertices, so this pins down how much nonsimplicity a
k-skeleton can tolerate before reconstruction breaks.
"""

from skelrecon import (
    build_face_lattice,
    classify_vertices,
    isomorphic,
    k_skeleton,
    q1,
    q2,
)

d = 5
c1, c2 = q1(d), q2(d)
l1 = build_face_lattice(c1.spec)
l2 = build_face_lattice(c2.spec)

print(f"q1({d}): {c1.spec.n} vertices, {len(l1.facets)} facets, f-vector {l1.f_vector}")
print(f"q2({d}): {c2.spec.n} vertices, {len(l2.facets)} facets, f-vector {l2.f_vector}")
print()

print("facets of q1 (the two simplices {0}|X and {2d-1}|X flank the ridge X):")
for f in l1.facets:
    print("   ", f)
print("facets of q2 (one bipyramid {0, 2d-1}|X replaces them):")
for f in l2.facets:
    print("   ", f)
print()

n1 = classify_vertices(l1)
print(f"nonsimple vertices of q1({d}): {sorted(n1.nonsimple)} (the labeled set X)")
g1 = l1.graph()
print(f"degrees: { {v: g1.degree(v) for v in range(g1.n)} }")
print()

for k in range(1, d):
    r = isomorphic(k_skeleton(l1, k), k_skeleton(l2, k))
    tag = "isomorphic" if r.isomorphic else f"NOT isomorphic ({r.obstruction})"
    print(f"rank <= {k} skeleta: {tag}")
r = isomorphic(l1, l2)
print(f"full lattices:   NOT isomorphic ({r.obstruction})")
print()
print(f"so the (d-3)-skeleton (k={d - 3}) cannot determine the lattice once")
print(f"{d - 1} nonsimple vertices are allowed, while k={d - 2} still can.")
