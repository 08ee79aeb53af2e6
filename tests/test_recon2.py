import math
import random

import pytest

from skelrecon import (
    Frame,
    Graph,
    KSkeleton,
    PolytopeSpec,
    ReconstructionOutcome,
    build_frame_graph,
    classify_vertices,
    cube,
    induced_cycles,
    is_feasible,
    k_skeleton,
    kaibel_step,
    multifold_pyramid,
    polygon_prism,
    polygon_prism_skeleton,
    pyramid,
    q1,
    q2,
    reconstruct,
    simplex,
    truncate,
)
from skelrecon.errors import (
    FrameNotInUniqueTwoFace,
    NonSimpleRoot,
    NotASkeleton,
)
from skelrecon.graphs import mask_of, vertices_of
from skelrecon.lattice import build_face_lattice

from conftest import fixture_corpus, lattice_of
from oracles import ReferenceFrameGraph, reference_kaibel_step, reference_reconstruct


def skeleton_of(spec):
    return k_skeleton(lattice_of(spec), 2)


def test_frame_graph_node_counts():
    assert build_frame_graph(skeleton_of(cube(3)), 3).node_count == 24
    assert build_frame_graph(skeleton_of(simplex(3)), 3).node_count == 12
    # five simple vertices, C(4,2) pairs each
    assert build_frame_graph(skeleton_of(q1(4).spec), 4).node_count == 30


def test_frame_graph_rejects_missing_two_face():
    sk = skeleton_of(cube(3))
    faces = sk.faces_by_dim[2][1:]
    broken = KSkeleton(k=2, graph=sk.graph, faces_by_dim={2: faces})
    with pytest.raises(FrameNotInUniqueTwoFace):
        build_frame_graph(broken, 3)


def test_frame_graph_names_the_first_missing_frame():
    # Without one square of the cube, the first uncovered frame is rooted
    # at the square's lowest vertex and spans its two square neighbours.
    sk = skeleton_of(cube(3))
    for drop, square in enumerate(sk.faces_by_dim[2]):
        faces = sk.faces_by_dim[2][:drop] + sk.faces_by_dim[2][drop + 1:]
        broken = KSkeleton(k=2, graph=sk.graph, faces_by_dim={2: faces})
        v = min(square)
        a, b = (w for w in sk.graph.adj[v] if w in square)
        with pytest.raises(FrameNotInUniqueTwoFace) as exc:
            build_frame_graph(broken, 3)
        assert str(exc.value) == f"2-frame ({v}, {a}, {b}) lies in no 2-face"


def test_frame_graph_rejects_a_union_of_cycles():
    # Two triangles with an apex joined to all six: the six base vertices
    # induce a 2-regular graph that is not one cycle.
    g = Graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] + [(i, 6) for i in range(6)])
    broken = KSkeleton(k=2, graph=g, faces_by_dim={2: (frozenset(range(6)),)})
    with pytest.raises(NotASkeleton) as exc:
        build_frame_graph(broken, 3)
    assert str(exc.value) == "2-face (0, 1, 2, 3, 4, 5) is not a single cycle"


def test_kaibel_step_on_cube():
    # with binary labels: u=000, frame {001, 010} (facet bit2=0), step to
    # u2=001; the 2-face through 000-100 and 000-001 is {000,001,100,101},
    # so the continuation past 001 is 101 and the new frame omits it
    sk = skeleton_of(cube(3))
    fg = build_frame_graph(sk, 3)
    out = kaibel_step(fg, Frame(0, (1, 2)), 1)
    assert out == Frame(1, (0, 3))


def test_kaibel_step_accepts_bare_skeleton():
    out = kaibel_step(skeleton_of(cube(3)), Frame(0, (1, 2)), 1, d=3)
    assert out == Frame(1, (0, 3))


def test_kaibel_step_simplex():
    # frames of a simplex facet omit exactly the opposite vertex
    sk = skeleton_of(simplex(4))
    fg = build_frame_graph(sk, 4)
    out = kaibel_step(fg, Frame(0, (1, 2, 3)), 1)
    assert out == Frame(1, (0, 2, 3))


def test_kaibel_step_inside_q1_facet():
    # propagation along the simple edge 0-1 inside the facet {0,1,2,3,4,5}
    lat = lattice_of(q1(4).spec)
    fg = build_frame_graph(k_skeleton(lat, 2), 4)
    frame0 = Frame(0, tuple(w for w in lat.graph().adj[0] if w != 6))
    assert frozenset(frame0.leaves) | {0} <= frozenset((0, 1, 2, 3, 4, 5))
    out = kaibel_step(fg, frame0, 1)
    assert {out.root, *out.leaves} <= {0, 1, 2, 3, 4, 5}


def test_kaibel_excluded_vertex_not_in_facet():
    # the vertex the step excludes never belongs to the facet being traced
    for name in ("cube3", "pyr_cube3", "q1_4"):
        spec = fixture_corpus()[name]
        lat = lattice_of(spec)
        graph = lat.graph()
        fg = build_frame_graph(k_skeleton(lat, 2), lat.d)
        classes = classify_vertices(lat)
        for facet in lat.faces_by_rank[lat.d - 1]:
            roots = [v for v in facet if v in classes.simple]
            for u in roots:
                frame = Frame(u, tuple(w for w in graph.adj[u] if w in facet))
                for u2 in frame.leaves:
                    if u2 not in classes.simple:
                        continue
                    stepped = kaibel_step(fg, frame, u2)
                    (excluded,) = set(graph.adj[u2]) - set(stepped.leaves)
                    assert excluded not in facet


def test_kaibel_step_rejects_nonsimple_root():
    lat = lattice_of(pyramid(cube(3)))
    fg = build_frame_graph(k_skeleton(lat, 2), 4)
    apex = 8
    with pytest.raises(NonSimpleRoot):
        kaibel_step(fg, Frame(apex, (0, 1, 2)), 0)


RECON_FIXTURES = [
    simplex(4),
    simplex(5),
    cube(3),
    cube(4),
    polygon_prism(6),
    pyramid(cube(3)),
    pyramid(polygon_prism(5)),
    multifold_pyramid(cube(2), 2),
    multifold_pyramid(cube(2), 3),
    multifold_pyramid(polygon_prism(3), 2),
]


@pytest.mark.parametrize("spec", RECON_FIXTURES, ids=lambda s: repr(s))
def test_reconstruct_matches_oracle(spec):
    lat = build_face_lattice(spec)
    out = reconstruct(k_skeleton(lat, 2), lat.d)
    assert out.status == "complete"
    assert out.facets == lat.facets


def test_reconstruct_truncated_fixture():
    base = lattice_of(pyramid(cube(3)))
    spec, _ = truncate(base, (8,))
    lat = build_face_lattice(spec)
    out = reconstruct(k_skeleton(lat, 2), 4)
    assert out.facets == lat.facets


def test_reported_facets_are_feasible_and_cover_frames_once():
    for spec in (cube(4), pyramid(polygon_prism(5)), q1(4).spec):
        lat = build_face_lattice(spec)
        graph = lat.graph()
        classes = classify_vertices(lat)
        out = reconstruct(k_skeleton(lat, 2), lat.d)
        facets = out.facets if out.facets else ()
        if out.status == "ambiguous":
            continue
        seen = {}
        for f in facets:
            fset = frozenset(f)
            assert is_feasible(graph, mask_of(f), lat.d, mask_of(classes.simple))
            for w in fset & classes.simple:
                frame = frozenset(x for x in graph.adj[w] if x in fset)
                assert (w, frame) not in seen
                seen[(w, frame)] = f
        expected = sum(len(graph.adj[w]) for w in classes.simple)
        assert len(seen) == expected


def test_shared_skeleton_is_ambiguous_and_parity_resolves():
    l1 = lattice_of(q1(5).spec)
    l2 = lattice_of(q2(5).spec)
    s1, s2 = k_skeleton(l1, 2), k_skeleton(l2, 2)
    assert s1.graph == s2.graph and s1.faces_by_dim == s2.faces_by_dim
    out = reconstruct(s1, 5)
    assert out.status == "ambiguous"
    assert out.facets == ()
    split, merged = out.ambiguity.completions
    assert (len(split), len(merged)) == (10, 9)
    assert set(out.ambiguity.region_a) & set(out.ambiguity.region_b) == {2, 4, 6, 8}
    assert reconstruct(s1, 5, parity_hint="even").facets == l1.facets
    assert reconstruct(s1, 5, parity_hint="odd").facets == l2.facets


def test_ambiguity_regions_merge_to_bipyramid_facet():
    out = reconstruct(k_skeleton(lattice_of(q1(5).spec), 2), 5)
    amb = out.ambiguity
    assert set(amb.merged) == set(amb.region_a) | set(amb.region_b)
    assert tuple(sorted(amb.merged)) in lattice_of(q2(5).spec).facets


def test_parity_hint_validated():
    sk = skeleton_of(cube(3))
    with pytest.raises(ValueError):
        reconstruct(sk, 3, parity_hint="both")


def test_not_a_skeleton_on_tampered_faces():
    # swap one square of the cube for a non-face cycle: propagation breaks
    sk = skeleton_of(cube(3))
    hexagons = [f for f in fixture_hexagons(sk)]
    faces = sk.faces_by_dim[2][:-1] + (hexagons[0],)
    broken = KSkeleton(k=2, graph=sk.graph, faces_by_dim={2: faces})
    with pytest.raises((NotASkeleton, FrameNotInUniqueTwoFace)):
        reconstruct(broken, 3)


def fixture_hexagons(sk):
    return [frozenset(vertices_of(c)) for c in induced_cycles(sk.graph) if c.bit_count() == 6]


def _outcome(fn, *args, **kwargs):
    """The value of a call, or the type and text of what it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


def _tamperings(sk, rng):
    """The skeleton and five seeded tamperings of its 2-faces."""
    faces = list(sk.two_faces)
    rng.shuffle(faces)
    i, j = rng.sample(range(len(faces)), 2)
    others = [
        frozenset(vertices_of(c)) for c in induced_cycles(sk.graph)
        if frozenset(vertices_of(c)) not in sk.two_faces
    ]
    swapped = faces[:i] + [rng.choice(others) if others else faces[i]] + faces[i + 1:]
    return {
        "none": faces,
        "drop": faces[:i] + faces[i + 1:],
        "duplicate": faces + [faces[i]],
        "union": faces[:i] + [faces[i] | faces[j]] + faces[i + 1:],
        "random_set": faces + [frozenset(rng.sample(range(sk.n), rng.randint(3, sk.n)))],
        "swap_cycle": swapped,
    }


def _tampered_relabelings(base, rng):
    """(kind, skeleton) for five relabelings of ``base`` and the seeded
    tamperings of each."""
    for _ in range(5):
        perm = list(range(base.n))
        rng.shuffle(perm)
        graph = Graph(base.n, [(perm[u], perm[v]) for u, v in base.graph.edges])
        relabeled = KSkeleton(
            k=2, graph=graph,
            faces_by_dim={2: tuple(frozenset(perm[v] for v in f) for f in base.two_faces)},
        )
        for kind, faces in _tamperings(relabeled, rng).items():
            yield kind, KSkeleton(k=2, graph=graph, faces_by_dim={2: tuple(faces)})


@pytest.mark.parametrize("name", sorted(fixture_corpus()))
def test_frame_moves_match_the_face_index_reference(name):
    """Relabeled and tampered corpus 2-skeletons: the step map and the
    one-pass facet trace give the outcome of the face-index-and-cycle-table
    reference and its three-pass reconstruction, or their error text."""
    rng = random.Random(f"frame-moves-{name}")
    lat = lattice_of(fixture_corpus()[name])
    d = lat.d
    for kind, sk in _tampered_relabelings(k_skeleton(lat, 2), rng):
        graph = sk.graph
        fg = _outcome(build_frame_graph, sk, d)
        ref = _outcome(ReferenceFrameGraph, sk, d)
        if isinstance(ref, ReferenceFrameGraph):
            assert fg.node_count == ref.node_count, kind
            for u in range(graph.n):
                strangers = [v for v in sorted(ref.simple) if v != u and v not in graph.adj[u]]
                for ex in graph.adj[u]:
                    leaves = tuple(w for w in graph.adj[u] if w != ex)
                    for frame in (Frame(u, leaves), Frame(u, leaves + tuple(strangers[:1]))):
                        for u2 in frame.leaves:
                            assert _outcome(kaibel_step, fg, frame, u2) == _outcome(
                                reference_kaibel_step, ref, frame, u2
                            ), (kind, frame, u2)
        else:
            assert fg == ref, kind
        for hint in (None, "even", "odd"):
            got = _outcome(reconstruct, sk, d, parity_hint=hint)
            want = _outcome(reference_reconstruct, sk, d, parity_hint=hint)
            assert got == want, (kind, hint)
        assert _outcome(reconstruct, sk, d, check=False) == _outcome(
            reference_reconstruct, sk, d, check=False
        ), kind


@pytest.mark.parametrize("name", sorted(fixture_corpus()))
def test_checked_facets_hold_every_spec_invariant(name):
    """Each facet list reconstruct returns, and both completions of an
    ambiguity, is already what PolytopeSpec would make of it, on the
    corpus, its relabelings and their tamperings: its checks imply
    PolytopeSpec's, so the CLI need not run them again."""
    rng = random.Random(f"frame-moves-{name}")
    lat = lattice_of(fixture_corpus()[name])
    d = lat.d
    lists = 0
    for kind, sk in _tampered_relabelings(k_skeleton(lat, 2), rng):
        for hint in (None, "even", "odd"):
            out = _outcome(reconstruct, sk, d, parity_hint=hint)
            if not isinstance(out, ReconstructionOutcome):
                continue
            completions = out.ambiguity.completions if out.ambiguity else ()
            for facets in (out.facets, *completions):
                if facets:
                    assert PolytopeSpec(d, sk.n, facets).facets == facets, (kind, hint)
                    lists += 1
    assert lists or name == "skew_solid"


@pytest.mark.parametrize("m", range(3, 41))
def test_relabeled_prisms_match_the_three_pass_reference(m):
    """Relabeled prism 2-skeletons, whole and with two faces merged into
    one: the one-pass trace gives the reference's outcome or its error."""
    rng = random.Random(f"prism-{m}")
    base = polygon_prism_skeleton(m)
    perm = list(range(base.n))
    rng.shuffle(perm)
    graph = Graph(base.n, [(perm[u], perm[v]) for u, v in base.graph.edges])
    faces = [frozenset(perm[v] for v in f) for f in base.two_faces]
    rng.shuffle(faces)
    i, j = rng.sample(range(len(faces)), 2)
    for kind, tampered in (
        ("none", faces),
        ("union", faces[:i] + [faces[i] | faces[j]] + faces[i + 1:]),
    ):
        sk = KSkeleton(k=2, graph=graph, faces_by_dim={2: tuple(tampered)})
        for check in (True, False):
            got = _outcome(reconstruct, sk, 3, check=check)
            assert got == _outcome(reference_reconstruct, sk, 3, check=check), (kind, check)
        if kind == "none":
            assert len(got.facets) == m + 2


def twisted_torus_skeleton(p, q, s):
    """A fake 4-dimensional 2-skeleton: the p x q torus grid whose last row
    joins the first shifted by s, with every square, every row cycle and
    every vertical helix as a 2-face.  Vertex (i, j) is i*q + j.  With
    s = 0 this is the 2-skeleton of the product of a p-gon and a q-gon."""

    def up(i, j):
        return (i, j + 1) if j + 1 < q else ((i + s) % p, 0)

    def label(i, j):
        return (i % p) * q + j

    edges, faces = set(), []
    for i in range(p):
        for j in range(q):
            edges.add(tuple(sorted((label(i, j), label(i + 1, j)))))
            edges.add(tuple(sorted((label(i, j), label(*up(i, j))))))
            faces.append(frozenset(
                {label(i, j), label(i + 1, j), label(*up(i, j)), label(*up(i + 1, j))}
            ))
    faces += [frozenset(label(i, j) for i in range(p)) for j in range(q)]
    for i in range(math.gcd(p, s)):
        helix, x = [], (i, 0)
        while not helix or x != (i, 0):
            helix.append(label(*x))
            x = up(*x)
        faces.append(frozenset(helix))
    return KSkeleton(k=2, graph=Graph(p * q, sorted(edges)), faces_by_dim={2: tuple(faces)})


def test_region_check_rejects_a_simple_vertex_with_all_neighbors_inside():
    """With a shift of 2 on a 4 x 3 torus each vertical helix runs through
    two columns 2 apart, so a trace of frames that omit a horizontal
    neighbour covers all four columns: every vertex's omitted neighbour is
    in its own region.  Every frame lies in one 2-face and every move is
    defined, so the region check is the first to see it; without the check
    two such traces end in the same vertex set."""
    assert len(reconstruct(twisted_torus_skeleton(4, 3, 0), 4).facets) == 7
    sk = twisted_torus_skeleton(4, 3, 2)
    assert build_frame_graph(sk, 4).node_count == 12 * 6
    message = (
        "simple vertex 0 has 4 neighbors in region "
        "(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)"
    )
    with pytest.raises(NotASkeleton) as err:
        reconstruct(sk, 4)
    assert str(err.value) == message
    assert _outcome(reference_reconstruct, sk, 4) == (NotASkeleton, message)
    unchecked = (NotASkeleton, "two facet traces produced the same vertex set")
    assert _outcome(reconstruct, sk, 4, check=False) == unchecked
    assert _outcome(reference_reconstruct, sk, 4, check=False) == unchecked
