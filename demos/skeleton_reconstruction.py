#!/usr/bin/env python3
"""Walkthrough: reconstructing facets from a 2-skeleton.

A simple vertex of a d-polytope has exactly d edges, and any d-1 of them
span a unique facet.  Knowing the 2-faces lets the frame hop from one
simple vertex to an adjacent one without leaving the facet: the neighbor
continuing the shared 2-face is excluded.  Sweeping all simple frames
once traces every facet in linear time.

When d-1 nonsimple vertices crowd into one facet the sweep can stall on
either side of them; that is exactly the twin-family ambiguity, resolved
by the parity of the facet count.
"""

from skelrecon import (
    build_face_lattice,
    build_frame_graph,
    cube,
    k_skeleton,
    pyramid,
    q1,
    reconstruct,
)

# -- one propagation step on the 3-cube --------------------------------------

lat = build_face_lattice(cube(3))
sk = k_skeleton(lat, 2)
fg = build_frame_graph(sk, 3)
adj, d = sk.graph.adj, fg.d
# The frame at w omitting its i-th neighbour is the code w*d + i, and the
# move to its j-th neighbour y is step[(w*d + i)*d + j], the slot in adj[y]
# of the vertex the frame at y omits.
w, x, y = 0, 4, 1  # 0's frame {1, 2}: the facet with third coordinate fixed
k = fg.step[(w * d + adj[w].index(x)) * d + adj[w].index(y)]
print(f"cube: the frame at {w} omitting {x} hops to the frame at {y} omitting {adj[y][k]}")
print(f"frame-graph nodes: {fg.node_count} (8 vertices, 3 pairs each)")
print()

# -- a full reconstruction -----------------------------------------------------

spec = pyramid(cube(3))
lat = build_face_lattice(spec)
out = reconstruct(k_skeleton(lat, 2), 4)
print(f"pyramid over the 3-cube: status {out.status}")
for f in out.facets:
    print("   ", f)
assert out.facets == lat.facets
print()

# -- the ambiguous case ---------------------------------------------------------

d = 5
sk5 = k_skeleton(build_face_lattice(q1(d).spec), 2)
out = reconstruct(sk5, d)
print(f"shared twin 2-skeleton at d={d}: status {out.status}")
amb = out.ambiguity
print(f"stalled pair meets in {set(amb.region_a) & set(amb.region_b)}")
split, merged = amb.completions
print(f"completions: {len(split)} facets (split) or {len(merged)} facets (merged)")
even = reconstruct(sk5, d, parity_hint="even")
odd = reconstruct(sk5, d, parity_hint="odd")
print(f"parity even picks {len(even.facets)} facets, parity odd {len(odd.facets)}")
