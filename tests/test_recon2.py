import gc
import itertools
import math
import random
import statistics
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skelrecon import (
    Graph,
    KSkeleton,
    PolytopeSpec,
    ReconstructionOutcome,
    bipyramid,
    build_frame_graph,
    classify_vertices,
    cube,
    induced_cycles,
    is_feasible,
    k_skeleton,
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
    NotASkeleton,
    SkelreconError,
    TooManyNonsimple,
)
from skelrecon.graphs import mask_of, vertices_of
from skelrecon.lattice import build_face_lattice
from skelrecon.recon2 import FrameGraph, _regions
from skelrecon.textio import format_skeleton, parse_skeleton

from conftest import fixture_corpus, lattice_of, pace, prism_pyramid_skeleton
from oracles import (
    PerFaceSetFrameGraph,
    ReferenceFrameGraph,
    per_face_set_regions,
    reference_kaibel_step,
    reference_parse,
    reference_reconstruct,
)


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
    broken = KSkeleton(graph=sk.graph, faces_by_dim={2: faces})
    with pytest.raises(FrameNotInUniqueTwoFace):
        build_frame_graph(broken, 3)
    assert _outcome(reconstruct, broken, 3) == _outcome(build_frame_graph, broken, 3)


def test_frame_graph_names_the_first_missing_frame():
    # Without one square of the cube, the first uncovered frame is rooted
    # at the square's lowest vertex and spans its two square neighbours.
    sk = skeleton_of(cube(3))
    for drop, square in enumerate(sk.faces_by_dim[2]):
        faces = sk.faces_by_dim[2][:drop] + sk.faces_by_dim[2][drop + 1:]
        broken = KSkeleton(graph=sk.graph, faces_by_dim={2: faces})
        v = min(square)
        a, b = (w for w in sk.graph.adj[v] if w in square)
        with pytest.raises(FrameNotInUniqueTwoFace) as exc:
            build_frame_graph(broken, 3)
        assert str(exc.value) == f"2-frame ({v}, {a}, {b}) lies in no 2-face"
        assert _outcome(reconstruct, broken, 3) == (FrameNotInUniqueTwoFace, str(exc.value))


def test_frame_graph_rejects_a_union_of_cycles():
    # Two triangles with an apex joined to all six: the six base vertices
    # induce a 2-regular graph that is not one cycle.
    g = Graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] + [(i, 6) for i in range(6)])
    broken = KSkeleton(graph=g, faces_by_dim={2: (frozenset(range(6)),)})
    with pytest.raises(NotASkeleton) as exc:
        build_frame_graph(broken, 3)
    assert str(exc.value) == "2-face (0, 1, 2, 3, 4, 5) is not a single cycle"
    assert _outcome(reconstruct, broken, 3) == (NotASkeleton, str(exc.value))


def test_frame_graph_names_the_first_taken_frame_in_face_order():
    """The hexagonal prism with top t0..t5 and bottom b0..b5, relabeled,
    lists the top, the square t5-t0-b0-b5 and then the induced 8-cycle
    t0 t1 t2 t3 b3 b4 b5 b0.  The top already took the cycle's frames at
    t1 and t2, and the square its frame at b0.  The walk around the cycle
    starts at t0, the face's first vertex, and meets t1 or b0 first, but
    the error names t2, the first of the three in the face's order."""
    t = [0, 7, 1, 2, 3, 4]  # the labels of t0..t5
    b = [9, 5, 6, 8, 10, 11]  # and of b0..b5
    edges = [(t[i], t[i - 1]) for i in range(6)] + [(b[i], b[i - 1]) for i in range(6)]
    graph = Graph(12, edges + list(zip(t, b)))
    faces = [t, [t[5], t[0], b[0], b[5]], t[:4] + [b[3], b[4], b[5], b[0]]]
    sk = KSkeleton(graph=graph, faces_by_dim={2: tuple(tuple(sorted(f)) for f in faces)})
    message = "2-frame (1, 2, 7) lies in more than one 2-face"
    assert _outcome(build_frame_graph, sk, 3) == (FrameNotInUniqueTwoFace, message)
    assert _outcome(PerFaceSetFrameGraph, sk, 3) == (FrameNotInUniqueTwoFace, message)
    assert _outcome(reconstruct, sk, 3) == (FrameNotInUniqueTwoFace, message)


def test_frame_graph_with_d_above_a_byte():
    """From d = 255 on, the mark d for a move into a nonsimple vertex no
    longer fits beside the byte sentinel, so the table takes two bytes a
    slot.  The 2-skeleton: 0 joined to 1..255 and K_257 on 1..257, with
    d = 255, so 0 is the one simple vertex.  Its triangle with 1 and 2
    leaves most of 0's frames uncovered.  Two copies of it put the mark in
    both of 0's covered slots and must be seen as two 2-faces through one
    frame; C(d, 2) copies of the whole vertex set (no induced cycle, never
    reached) give the n*C(d, 2) face entries the table is built for."""
    n, d = 258, 255
    edges = [(0, v) for v in range(1, d + 1)] + list(itertools.combinations(range(1, n), 2))
    graph = Graph(n, edges)
    triangle = frozenset({0, 1, 2})
    padding = (frozenset(range(n)),) * (d * (d - 1) // 2)
    for faces, message in (
        ((triangle,), "2-frame (0, 1, 3) lies in no 2-face"),
        ((triangle, triangle) + padding, "2-frame (0, 1, 2) lies in more than one 2-face"),
    ):
        sk = KSkeleton(graph=graph, faces_by_dim={2: faces})
        assert _outcome(build_frame_graph, sk, d) == (FrameNotInUniqueTwoFace, message)
        assert _outcome(ReferenceFrameGraph, sk, d) == (FrameNotInUniqueTwoFace, message)


def test_frame_graph_builds_no_table_for_faces_too_few_to_cover_it():
    """K_200 with d = 199 and one triangle: the faces hold 3 vertices for
    200 * C(199, 2) frames, so the build must fail, and it fails without
    allocating the 200 * 199 * 199 byte table (7.9 MB)."""
    n = 200
    graph = Graph(n, itertools.combinations(range(n), 2))
    sk = KSkeleton(graph=graph, faces_by_dim={2: (frozenset({0, 1, 2}),)})
    tracemalloc.start()
    try:
        got = _outcome(build_frame_graph, sk, n - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == (FrameNotInUniqueTwoFace, "2-frame (0, 1, 3) lies in no 2-face")
    assert peak < 1e6, peak


def test_reconstruct_builds_no_table_without_simple_vertices():
    """K_200 with d = 198 and no faces: every vertex has 199 > d
    neighbours, so no frame needs covering, and reconstruct ends in the
    typed error without allocating the 200 * 198 * 198 byte table
    (7.8 MB) that the n*d*d slots would take.  With every vertex
    nonsimple, every facet holds more than d-2 of them."""
    n = 200
    graph = Graph(n, itertools.combinations(range(n), 2))
    sk = KSkeleton(graph=graph, faces_by_dim={2: ()})
    tracemalloc.start()
    try:
        got = _outcome(reconstruct, sk, n - 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    message = "every vertex is nonsimple, so every facet holds more than d-2 = 196 of them"
    assert got == (TooManyNonsimple, message)
    assert peak < 1e6, peak


def test_frame_moves_kept_in_a_dict_match_the_reference():
    """K_12 less the edge 0-1, d = 10, with every triangle through 0 or 1
    as a 2-face: 0 and 1 are the simple vertices and all their frames are
    covered, but the 270 face entries are fewer than n*C(d, 2) = 540, so
    the moves go into a dict.  The build passes, and the moves and
    reconstruct, whole and tampered, give the reference's outcome or its
    error.  Each of the 20 facets holds 9 > d-2 nonsimple vertices, so the
    checked run refuses the whole skeleton."""
    n, d = 12, 10
    graph = Graph(n, [e for e in itertools.combinations(range(n), 2) if e != (0, 1)])
    faces = tuple(
        frozenset({v, a, b}) for v in (0, 1) for a, b in itertools.combinations(range(2, n), 2)
    )
    sk = KSkeleton(graph=graph, faces_by_dim={2: faces})
    assert isinstance(build_frame_graph(sk, d).step, dict)
    for kind, tampered in _tamperings(sk, random.Random("dict-moves")).items():
        tsk = KSkeleton(graph=graph, faces_by_dim={2: tuple(tampered)})
        _assert_moves_match_the_reference(tsk, d, kind)
        for check in (True, False):
            got = _outcome(reconstruct, tsk, d, check=check)
            assert got == _outcome(reference_reconstruct, tsk, d, check=check), (kind, check)
    assert len(reconstruct(sk, d, check=False).facets) == 2 * (n - 2)
    with pytest.raises(TooManyNonsimple, match=r"holds 9 nonsimple vertices, more than d-2 = 8"):
        reconstruct(sk, d)


def _omitted_after_move(fg, w, x, y):
    """The neighbour of y that its frame omits after the move from w's
    frame omitting x, read off ``fg.step``; None when y is nonsimple."""
    adj, d = fg.skeleton.graph.adj, fg.d
    k = fg.step[(w * d + adj[w].index(x)) * d + adj[w].index(y)]
    return None if k == d else adj[y][k]


def test_frame_move_on_cube():
    # with binary labels: 000's frame {001, 010} omits 100 (facet bit2=0);
    # the 2-face through 000-100 and 000-001 is {000,001,100,101}, so the
    # continuation past 001 is 101 and the frame at 001 omits it
    fg = build_frame_graph(skeleton_of(cube(3)), 3)
    assert _omitted_after_move(fg, 0, 4, 1) == 5


def test_frame_move_simplex():
    # frames of a simplex facet omit exactly the opposite vertex
    fg = build_frame_graph(skeleton_of(simplex(4)), 4)
    assert _omitted_after_move(fg, 0, 4, 1) == 4


def test_frame_move_inside_q1_facet():
    # the move along the simple edge 0-1 stays inside the facet
    # {0,1,2,3,4,5}: 0's frame omits 6, and so must 1's omit a vertex
    # outside the facet
    lat = lattice_of(q1(4).spec)
    fg = build_frame_graph(k_skeleton(lat, 2), 4)
    assert {0, 1} <= fg.simple
    assert set(lat.graph().adj[0]) - {6} <= {1, 2, 3, 4, 5}
    assert _omitted_after_move(fg, 0, 6, 1) not in {0, 1, 2, 3, 4, 5}


def test_frame_move_toward_nonsimple_vertex():
    # a move into the apex of a pyramid over the cube has no frame to land
    # on: its entry is the sentinel d, from every simple base vertex
    lat = lattice_of(pyramid(cube(3)))
    fg = build_frame_graph(k_skeleton(lat, 2), 4)
    apex = 8
    assert apex not in fg.simple
    adj = lat.graph().adj
    for u in range(8):
        assert u in fg.simple
        for x in adj[u]:
            if x != apex:
                assert _omitted_after_move(fg, u, x, apex) is None


def test_kaibel_excluded_vertex_not_in_facet():
    # the vertex a move's new frame omits never belongs to the facet being
    # traced; in a simplex that is the vertex opposite the facet
    for name in ("cube3", "pyr_cube3", "q1_4", "simplex4"):
        spec = fixture_corpus()[name]
        lat = lattice_of(spec)
        graph = lat.graph()
        fg = build_frame_graph(k_skeleton(lat, 2), lat.d)
        for facet in lat.faces_by_rank[lat.d - 1]:
            for u in facet:
                if u not in fg.simple:
                    continue
                (x,) = (w for w in graph.adj[u] if w not in facet)
                for u2 in graph.adj[u]:
                    if u2 != x and u2 in fg.simple:
                        assert _omitted_after_move(fg, u, x, u2) not in facet


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


@pytest.mark.parametrize("d", [4, 5, 6])
def test_pyramid_over_bipyramid_is_answered_right_or_refused(d):
    """pyramid(bipyramid(simplex(d-2))): d nonsimple vertices, and every
    facet holds d-1 of them, beyond what the 2-skeleton determines."""
    lat = lattice_of(pyramid(bipyramid(simplex(d - 2))))
    try:
        out = reconstruct(k_skeleton(lat, 2), d)
    except SkelreconError:
        return
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
    broken = KSkeleton(graph=sk.graph, faces_by_dim={2: faces})
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


def _tamperings(sk, rng, swap=True):
    """The skeleton and five seeded tamperings of its 2-faces; without
    ``swap``, no chordless cycle is listed and "swap_cycle" is the
    skeleton itself."""
    faces = list(sk.two_faces)
    rng.shuffle(faces)
    i, j = rng.sample(range(len(faces)), 2)
    others = [
        frozenset(vertices_of(c)) for c in induced_cycles(sk.graph)
        if frozenset(vertices_of(c)) not in sk.two_faces
    ] if swap else []
    swapped = faces[:i] + [rng.choice(others) if others else faces[i]] + faces[i + 1:]
    return {
        "none": faces,
        "drop": faces[:i] + faces[i + 1:],
        "duplicate": faces + [faces[i]],
        "union": faces[:i] + [faces[i] | faces[j]] + faces[i + 1:],
        "random_set": faces + [frozenset(rng.sample(range(sk.n), rng.randint(3, sk.n)))],
        "swap_cycle": swapped,
    }


def _relabeling(base, rng):
    """``base`` with its vertices relabeled by a seeded permutation, its
    faces as frozensets."""
    perm = list(range(base.n))
    rng.shuffle(perm)
    graph = Graph(base.n, [(perm[u], perm[v]) for u, v in base.graph.edges])
    return KSkeleton(
        graph=graph,
        faces_by_dim={2: tuple(frozenset(perm[v] for v in f) for f in base.two_faces)},
    )


def _tampered_relabelings(base, rng):
    """(kind, skeleton) for five relabelings of ``base`` and the seeded
    tamperings of each."""
    for _ in range(5):
        relabeled = _relabeling(base, rng)
        for kind, faces in _tamperings(relabeled, rng).items():
            yield kind, KSkeleton(graph=relabeled.graph, faces_by_dim={2: tuple(faces)})


def _assert_moves_match_the_reference(sk, d, kind):
    """The step map builds exactly when the face-index reference does, or
    fails with its error; and then, for each simple u, slot i of the
    omitted neighbour and other slot j, its entry is d at a nonsimple
    adj[u][j] and otherwise the slot of the vertex that continues their
    2-face past adj[u][j]."""
    fg = _outcome(build_frame_graph, sk, d)
    ref = _outcome(ReferenceFrameGraph, sk, d)
    if not isinstance(ref, ReferenceFrameGraph):
        assert fg == ref, kind
        return
    assert fg.node_count == ref.node_count, kind
    adj, step = sk.graph.adj, fg.step
    for u in sorted(ref.simple):
        nbrs = adj[u]
        for i, j in itertools.permutations(range(d), 2):
            k = step[(u * d + i) * d + j]
            u2 = nbrs[j]
            if u2 in ref.nonsimple:
                assert k == d, (kind, u, i, j)
            else:
                want = reference_kaibel_step(ref, u, nbrs[i], u2)
                assert adj[u2][k] == want, (kind, u, i, j)


@pytest.mark.parametrize("name", sorted(fixture_corpus()))
def test_frame_moves_match_the_face_index_reference(name):
    """Relabeled and tampered corpus 2-skeletons: the step map and the
    one-pass facet trace give the outcome of the face-index-and-cycle-table
    reference and its three-pass reconstruction, or their error text."""
    rng = random.Random(f"frame-moves-{name}")
    lat = lattice_of(fixture_corpus()[name])
    d = lat.d
    for kind, sk in _tampered_relabelings(k_skeleton(lat, 2), rng):
        _assert_moves_match_the_reference(sk, d, kind)
        for hint in (None, "even", "odd"):
            got = _outcome(reconstruct, sk, d, parity_hint=hint)
            want = _outcome(reference_reconstruct, sk, d, parity_hint=hint)
            assert got == want, (kind, hint)
        assert _outcome(reconstruct, sk, d, check=False) == _outcome(
            reference_reconstruct, sk, d, check=False
        ), kind


# A 2-system on 7 vertices, d = 4, that is no polytope's: every
# neighbour pair of the simple vertices 1, 4 and 6 spans exactly one of
# the chordless cycles below, so the frame moves are all defined, yet two
# traced regions lie inside others.  1's frame omitting 6 has only
# nonsimple leaves and traces {0, 1, 3, 5} alone, while the trace through
# 1's frame omitting 5 takes 5 back in as a leaf of 4's frame omitting 2
# and reaches 6.  Unchecked, the regions are (0, 1, 2, 4, 5, 6),
# (0, 1, 3, 4, 5, 6), (0, 1, 3, 5), (0, 2, 4, 5), (1, 2, 3, 5, 6) and
# (2, 3, 4, 5, 6).
NESTED_TRACES = KSkeleton(
    graph=Graph(7, [
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 3), (1, 5), (1, 6),
        (2, 3), (2, 4), (2, 5), (2, 6), (3, 5), (3, 6), (4, 5), (4, 6),
    ]),
    faces_by_dim={2: tuple(map(frozenset, [
        (2, 4, 6), (2, 4, 5), (0, 1, 3), (0, 2, 4), (2, 3, 6), (1, 3, 6),
        (0, 1, 5), (0, 4, 5), (1, 3, 5), (0, 1, 4, 6), (3, 4, 5, 6), (1, 2, 5, 6),
    ]))},
)


def test_region_check_refuses_nested_traces():
    unchecked = reconstruct(NESTED_TRACES, 4, check=False).facets
    assert (0, 1, 3, 5) in unchecked and (0, 1, 3, 4, 5, 6) in unchecked
    with pytest.raises(ValueError, match=r"facet \(0, 1, 3, 5\) contained in"):
        PolytopeSpec(4, 7, unchecked)
    with pytest.raises(NotASkeleton, match="simple vertex 4 has 4 neighbors"):
        reconstruct(NESTED_TRACES, 4)


@pytest.mark.parametrize("name", [*sorted(fixture_corpus()), "nested_traces"])
def test_checked_facets_hold_every_spec_invariant(name):
    """Each facet list reconstruct returns, and both completions of an
    ambiguity, is already what PolytopeSpec would make of it, on the
    corpus, NESTED_TRACES, their relabelings and their tamperings: its
    checks imply PolytopeSpec's, so the CLI need not run them again.
    Without the region check NESTED_TRACES gives nested regions.  Every
    facet of bipyr_simplex3 and pyr_bipyr_triangle holds d-1 nonsimple
    vertices, so reconstruct refuses them and returns no list."""
    rng = random.Random(f"frame-moves-{name}")
    if name == "nested_traces":
        base, d = NESTED_TRACES, 4
    else:
        lat = lattice_of(fixture_corpus()[name])
        base, d = k_skeleton(lat, 2), lat.d
    lists = 0
    for kind, sk in _tampered_relabelings(base, rng):
        for hint in (None, "even", "odd"):
            out = _outcome(reconstruct, sk, d, parity_hint=hint)
            if not isinstance(out, ReconstructionOutcome):
                continue
            completions = out.ambiguity.completions if out.ambiguity else ()
            for facets in (out.facets, *completions):
                if facets:
                    assert PolytopeSpec(d, sk.n, facets).facets == facets, (kind, hint)
                    lists += 1
    if name in ("bipyr_simplex3", "pyr_bipyr_triangle"):
        assert lists == 0
        with pytest.raises(TooManyNonsimple, match=r"holds 3 nonsimple vertices"):
            reconstruct(base, d)
    else:
        assert lists or name in ("skew_solid", "nested_traces")


def _relabeled_outcomes_match_the_reference(base, d, seed):
    """A seeded relabeling of the 2-skeleton ``base``, whole, with two faces
    merged into one and with one face dropped: the one-pass trace gives the
    reference's outcome or its error, with and without the checks.
    Returns the outcome on the whole relabeled skeleton."""
    rng = random.Random(seed)
    perm = list(range(base.n))
    rng.shuffle(perm)
    graph = Graph(base.n, [(perm[u], perm[v]) for u, v in base.graph.edges])
    faces = [frozenset(perm[v] for v in f) for f in base.two_faces]
    rng.shuffle(faces)
    i, j = rng.sample(range(len(faces)), 2)
    outcomes = {}
    for kind, tampered in (
        ("none", faces),
        ("union", faces[:i] + [faces[i] | faces[j]] + faces[i + 1:]),
        ("drop", faces[:i] + faces[i + 1:]),
    ):
        sk = KSkeleton(graph=graph, faces_by_dim={2: tuple(tampered)})
        for check in (True, False):
            got = _outcome(reconstruct, sk, d, check=check)
            assert got == _outcome(reference_reconstruct, sk, d, check=check), (kind, check)
            outcomes[kind] = got
    return outcomes["none"]


@pytest.mark.parametrize("m", range(3, 41))
def test_relabeled_prisms_match_the_three_pass_reference(m):
    """Relabeled prism 2-skeletons, whole and tampered."""
    got = _relabeled_outcomes_match_the_reference(polygon_prism_skeleton(m), 3, f"prism-{m}")
    assert len(got.facets) == m + 2


@pytest.mark.parametrize("m", range(3, 31))
def test_relabeled_prism_pyramids_match_the_three_pass_reference(m):
    """Relabeled 2-skeletons of pyramid(prism(m)), whole and tampered.  The
    apex is the one nonsimple vertex, with 2m neighbours, so the moves into
    it sit among slots of simple vertices next to its long adjacency list."""
    base = k_skeleton(build_face_lattice(pyramid(polygon_prism(m))), 2)
    got = _relabeled_outcomes_match_the_reference(base, 4, f"prism-pyramid-{m}")
    assert len(got.facets) == m + 3


def test_reconstruct_peak_memory_on_the_m4096_prism():
    """Under tracemalloc, reconstruct on the relabeled m = 4096 prism
    2-skeleton peaks below 9.5 MB, the parsed skeleton it reads (2.2 MB)
    included.  At d = 3 it builds no ``FrameGraph`` and traces no facet:
    one pass over the 2-faces keeps three lists of n entries and one byte
    per frame, and the answer is the 2-faces sorted anew into tuples.
    Measured on CPython 3.10-3.13: 3.62-3.63 MB; 3.20 MB on CPython 3.11
    and 3.13 while the parsed 2-faces were given back as they are, and
    4.17 MB while it built a ``FrameGraph`` (a byte per move slot, n*9,
    and five lists of n entries) before reading off the 2-faces.
    Earlier, while d = 3 traced its facets:
    3.98-4.01 MB on CPython 3.10-3.13 with each facet collected in a list
    under a per-vertex stamp, 4.96-5.00 MB with a set and a frozenset per
    facet; 5.8-5.9 MB while faces were frozensets, 6.6-6.7 MB while
    ``Graph`` kept a sorted edge tuple beside ``adj``, and 13.1 MB with an
    int-keyed dict entry per move."""
    rng = random.Random("prism-memory")
    base = polygon_prism_skeleton(4096)
    perm = list(range(base.n))
    rng.shuffle(perm)
    graph = Graph(base.n, [(perm[u], perm[v]) for u, v in base.graph.edges])
    faces = tuple(frozenset(perm[v] for v in f) for f in base.two_faces)
    text = format_skeleton(KSkeleton(graph=graph, faces_by_dim={2: faces}), 3)
    del base, graph, faces
    tracemalloc.start()
    try:
        sk, d = parse_skeleton(text)
        tracemalloc.reset_peak()
        out = reconstruct(sk, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out.facets) == 4098
    assert peak < 9.5e6, peak


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
    return KSkeleton(graph=Graph(p * q, sorted(edges)), faces_by_dim={2: tuple(faces)})


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


def test_region_check_names_the_least_failing_vertex():
    """The shifted torus beside two cube(4) 2-skeletons, relabeled: every
    vertex of the torus fails the region check, and the error names the
    least of them, 2, whatever order the trace puts them in (on CPython a
    set of this region iterates from 32)."""
    parts = [twisted_torus_skeleton(4, 3, 2)] + [k_skeleton(build_face_lattice(cube(4)), 2)] * 2
    edges, faces, offset = [], [], 0
    for part in parts:
        edges += [(u + offset, v + offset) for u, v in part.graph.edges]
        faces += [[v + offset for v in f] for f in part.two_faces]
        offset += part.graph.n
    assert offset == 44
    perm = list(range(44))
    random.Random(1).shuffle(perm)
    sk = KSkeleton(
        graph=Graph(44, [(perm[u], perm[v]) for u, v in edges]),
        faces_by_dim={2: tuple(tuple(sorted(perm[v] for v in f)) for f in faces)},
    )
    message = (
        "simple vertex 2 has 4 neighbors in region "
        "(2, 5, 9, 11, 17, 20, 27, 29, 32, 33, 41, 42)"
    )
    assert _outcome(reconstruct, sk, 4) == (NotASkeleton, message)
    assert _outcome(reference_reconstruct, sk, 4) == (NotASkeleton, message)


def test_two_simplices_on_a_triangle_give_more_than_one_candidate_pair():
    """The 2-skeletons of two 4-simplices glued along the triangle 012, at
    d = 4: 0, 1 and 2 are the d - 1 nonsimple vertices, and each
    tetrahedron through all three pairs with either such tetrahedron of
    the other simplex into a feasible region, so four pairs meet exactly
    in {0, 1, 2}, with and without the checks."""
    simplices = ((0, 1, 2, 3, 4), (0, 1, 2, 5, 6))
    edges = sorted({e for t in simplices for e in itertools.combinations(t, 2)})
    faces = tuple(sorted({f for t in simplices for f in itertools.combinations(t, 3)}))
    sk = KSkeleton(graph=Graph(7, edges), faces_by_dim={2: faces})
    message = "more than one candidate pair meets exactly in the nonsimple set"
    for check in (True, False):
        assert _outcome(reconstruct, sk, 4, check=check) == (NotASkeleton, message)
        assert _outcome(reference_reconstruct, sk, 4, check=check) == (NotASkeleton, message)


def _octahedron_faces(north, south, equator):
    return [(pole, equator[i - 1], equator[i]) for pole in (north, south) for i in range(4)]


def _torus_faces(offset):
    """The 16 squares of the 4 x 4 grid on a torus, on offset..offset+15."""
    at = lambda i, j: offset + 4 * (i % 4) + j % 4
    return [(at(i, j), at(i + 1, j), at(i + 1, j + 1), at(i, j + 1))
            for i in range(4) for j in range(4)]


_CUBE_SQUARES = [(0, 1, 3, 2), (4, 5, 7, 6), (0, 1, 5, 4), (2, 3, 7, 6), (0, 2, 6, 4), (1, 3, 7, 5)]
_LINK = "the 2-faces through vertex 0 close into more than one cycle around it"


def _cube_faces(labels):
    """``_CUBE_SQUARES`` with vertex i named ``labels[i]``."""
    return [tuple(labels[v] for v in f) for f in _CUBE_SQUARES]


def _meet(f, g, common):
    return f"2-faces {f} and {g} meet in {common}, not in one vertex or one edge"


#: 2-skeletons at d = 3 that pass FrameGraph but do not close into a
#: sphere, or close into one whose 2-faces no polytope has: n, the 2-faces
#: in cycle order, and the refusal.
NOT_A_SPHERE = {
    # The edge 01 lies in four 2-faces.
    "tetrahedra_on_an_edge": (6, [f for t in ((0, 1, 2, 3), (0, 1, 4, 5))
                                  for f in itertools.combinations(t, 3)],
                              "edge (0, 1) lies in 4 facets, not 2"),
    # The six 2-faces through 0 close into two triangles around it.
    "tetrahedra_on_a_vertex": (7, [f for t in ((0, 1, 2, 3), (0, 4, 5, 6))
                                   for f in itertools.combinations(t, 3)], _LINK),
    # Glued at their poles 0 and 1: no vertex is simple, every edge lies in
    # two 2-faces and n - |E| + |F| = 10 - 24 + 16 = 2, so only the link
    # rule sees the two squares around 0.
    "octahedra_on_two_opposite_vertices": (
        10, _octahedron_faces(0, 1, (2, 3, 4, 5)) + _octahedron_faces(0, 1, (6, 7, 8, 9)), _LINK
    ),
    "torus": (16, _torus_faces(0), "n - |E| + |F| = 16 - 32 + 16 = 0, not 2"),
    # Beside a cube the sum is 2, and only the connectivity refuses it.
    "torus_beside_a_cube": (24, _CUBE_SQUARES + _torus_faces(8),
                            "vertex 8 is not connected to vertex 0"),
    # Two cubes, their squares 0-1-3-2 and 0-8-3-9 cut along the diagonal
    # 03 and joined crosswise: a sphere whose nonsimple vertices 0 and 3
    # are not adjacent and cut the graph in two.  Only the face rule sees
    # that the squares 0-1-3-8 and 0-2-3-9 meet in them.
    "cubes_on_a_diagonal": (
        14, _CUBE_SQUARES[1:] + _cube_faces((0, 8, 9, 3, 10, 11, 12, 13))[1:]
        + [(0, 1, 3, 8), (0, 2, 3, 9)],
        _meet((0, 1, 3, 8), (0, 2, 3, 9), (0, 3)),
    ),
    # Two cubes, each less an edge (01 and 89), joined by the edges 08 and
    # 19: every vertex is simple, but the octagons meet in both new edges.
    "cubes_joined_by_two_edges": (
        16, [f for f in _CUBE_SQUARES + _cube_faces(range(8, 16)) if not {0, 1} <= set(f)
             and not {8, 9} <= set(f)] + [(0, 2, 3, 1, 9, 11, 10, 8), (0, 4, 5, 1, 9, 13, 12, 8)],
        _meet((0, 1, 2, 3, 8, 9, 10, 11), (0, 1, 4, 5, 8, 9, 12, 13), (0, 1, 8, 9)),
    ),
}


@pytest.mark.parametrize("name", sorted(NOT_A_SPHERE))
def test_d3_refuses_two_faces_that_do_not_close_into_a_sphere(name):
    """A checked run, and the reference's, refuse each skeleton of
    ``NOT_A_SPHERE`` with its message; unchecked, both give back its
    2-faces.  ``reconstruct`` does so too with the 2-faces listed as
    frozensets in reverse order."""
    n, faces, message = NOT_A_SPHERE[name]
    edges = sorted({tuple(sorted(e)) for f in faces for e in zip(f, f[1:] + f[:1])})
    two_faces = tuple(sorted(tuple(sorted(f)) for f in faces))
    sk = KSkeleton(graph=Graph(n, edges), faces_by_dim={2: two_faces})
    assert _outcome(reconstruct, sk, 3) == (NotASkeleton, message)
    assert _outcome(reference_reconstruct, sk, 3) == (NotASkeleton, message)
    for recon in (reconstruct, reference_reconstruct):
        out = recon(sk, 3, check=False)
        assert (out.status, out.facets) == ("complete", two_faces)
    reversed_sets = tuple(frozenset(f) for f in reversed(two_faces))
    unsorted = KSkeleton(graph=sk.graph, faces_by_dim={2: reversed_sets})
    assert _outcome(reconstruct, unsorted, 3) == (NotASkeleton, message)
    out = reconstruct(unsorted, 3, check=False)
    assert (out.status, out.facets) == ("complete", two_faces)


def truncated_octahedron():
    """The octahedron bipyramid(cube(2)) truncated at vertex 0: 9 vertices
    and 9 facets, four of them triangles whose vertices are all
    nonsimple."""
    return truncate(lattice_of(bipyramid(cube(2))), (0,))[0]


def test_split_cube_is_complete_at_d3_whatever_the_parity():
    """Two triangles and five squares, d = 3: the d-1 = 2 nonsimple
    vertices 0 and 2 span the diagonal of the split square, yet at d = 3
    the listed 2-faces are the answer, so no merged square is offered and
    every parity hint gives the lattice's 7 facets."""
    lat = lattice_of(fixture_corpus()["split_cube"])
    sk = k_skeleton(lat, 2)
    assert len(classify_vertices(lat).nonsimple) == 2
    for hint in (None, "even", "odd"):
        for recon in (reconstruct, reference_reconstruct):
            out = recon(sk, 3, parity_hint=hint)
            assert (out.status, out.facets, out.ambiguity) == ("complete", lat.facets, None)


def test_octahedron_and_truncated_octahedron_give_their_facets_at_d3():
    """The octahedron has no simple vertex, and the truncated octahedron
    four triangles with none, which no frame trace reaches; at d = 3 the
    listed 2-faces are the answer, so both come back whole, checked or
    not."""
    for spec, shape in ((bipyramid(cube(2)), (6, 8)), (truncated_octahedron(), (9, 9))):
        lat = lattice_of(spec)
        sk = k_skeleton(lat, 2)
        assert (lat.n, len(lat.facets)) == shape
        for recon in (reconstruct, reference_reconstruct):
            for check in (True, False):
                out = recon(sk, 3, check=check)
                assert (out.status, out.facets) == ("complete", lat.facets)


def test_d3_gives_a_two_face_listed_twice_once_unchecked():
    """The octahedron's 2-skeleton with its least triangle listed again:
    the edge rule refuses it, and unchecked both give back the 8
    triangles, each once, as ``PolytopeSpec`` asks."""
    lat = lattice_of(bipyramid(cube(2)))
    sk = k_skeleton(lat, 2)
    faces = sk.two_faces + (min(sk.two_faces),)
    twice = KSkeleton(graph=sk.graph, faces_by_dim={2: faces})
    assert min(sk.two_faces) == (0, 1, 4)
    message = (NotASkeleton, "edge (0, 1) lies in 3 facets, not 2")
    assert _outcome(reconstruct, twice, 3) == message
    assert _outcome(reference_reconstruct, twice, 3) == message
    for recon in (reconstruct, reference_reconstruct):
        out = recon(twice, 3, check=False)
        assert (out.status, out.facets) == ("complete", lat.facets)


def test_d3_traces_no_frame(monkeypatch):
    """At d = 3 the answer is read off the 2-faces: with the trace made to
    fail, prism(8) still comes back, while pyramid(prism(8)) at d = 4
    reaches the trace."""

    def no_trace(fg, check):
        raise AssertionError("traced")

    monkeypatch.setattr("skelrecon.recon2._regions", no_trace)
    assert len(reconstruct(polygon_prism_skeleton(8), 3).facets) == 10
    with pytest.raises(AssertionError, match="traced"):
        reconstruct(prism_pyramid_skeleton(8), 4)


def test_d3_builds_no_frame_graph(monkeypatch):
    """At d = 3 the 2-faces are checked by the 2-face pass alone: with
    ``FrameGraph`` made to fail, prism(64), the octahedron, which has no
    simple vertex, and skew_solid, with two nonadjacent nonsimple
    vertices, still come back whole, checked or not, while pyramid(prism(8))
    at d = 4 builds one."""

    def no_frame_graph(self, skeleton, d):
        raise AssertionError("FrameGraph built")

    monkeypatch.setattr(FrameGraph, "__init__", no_frame_graph)
    for spec in (polygon_prism(64), bipyramid(cube(2)), fixture_corpus()["skew_solid"]):
        lat = lattice_of(spec)
        for check in (True, False):
            out = reconstruct(k_skeleton(lat, 2), 3, check=check)
            assert (out.status, out.facets) == ("complete", lat.facets)
    with pytest.raises(AssertionError, match="FrameGraph built"):
        reconstruct(prism_pyramid_skeleton(8), 4)


@pytest.mark.parametrize("name", ["cube3_open", "cube3_twice", "cube3_two_squares", "cube3_chord"])
def test_d3_frame_errors_are_frame_graphs(name):
    """The cube's 2-skeleton with a square dropped, listed twice, two
    squares joined as one 2-face or a triangle across a diagonal, as the
    CLI's golden files have them: ``reconstruct`` at d = 3, which builds no
    ``FrameGraph``, raises the error that ``build_frame_graph`` raises,
    parsed and with its faces relabeled as frozensets in shuffled order."""
    from test_cli_recon2_golden import golden_inputs

    sk, d = parse_skeleton(golden_inputs()[f"{name}.skel"])
    assert d == 3
    want = _outcome(build_frame_graph, sk, 3)
    assert want[0] in (NotASkeleton, FrameNotInUniqueTwoFace)
    assert _outcome(reconstruct, sk, 3) == want
    rng = random.Random(f"frame-errors-{name}")
    for _ in range(5):
        faces = [frozenset(f) for f in sk.two_faces]
        rng.shuffle(faces)
        shuffled = KSkeleton(graph=sk.graph, faces_by_dim={2: tuple(faces)})
        assert _outcome(reconstruct, shuffled, 3) == _outcome(build_frame_graph, shuffled, 3)


@pytest.mark.parametrize("d", [3, 4])
def test_a_two_face_off_the_vertices_is_refused(d):
    """A hand-built skeleton of cube(d) with a 2-face that is empty or holds
    a vertex outside 0..n-1 raises ``NotASkeleton`` naming it, both from
    ``reconstruct`` and from ``build_frame_graph``, not ``StopIteration``,
    ``IndexError`` or a read of another vertex through a negative index.
    A 2-face listed before it that fails comes first."""
    sk = skeleton_of(cube(d))
    n = sk.n
    cases = {
        (): "2-face () has no vertex",
        (0, 1, n): f"2-face (0, 1, {n}) holds vertex {n} outside 0..{n - 1}",
        frozenset({n + 2, 1, 0}): f"2-face (0, 1, {n + 2}) holds vertex {n + 2} outside 0..{n - 1}",
        (-1, 0, 1): f"2-face (-1, 0, 1) holds vertex -1 outside 0..{n - 1}",
        (1, -2, 0, n): f"2-face (-2, 0, 1, {n}) holds vertex -2 outside 0..{n - 1}",
    }
    for face, message in cases.items():
        bad = KSkeleton(graph=sk.graph, faces_by_dim={2: sk.two_faces + (face,)})
        for fn in (reconstruct, build_frame_graph):
            assert _outcome(fn, bad, d) == (NotASkeleton, message), (fn, face)
        first = KSkeleton(graph=sk.graph, faces_by_dim={2: ((0, 1, 2),) + bad.two_faces})
        earlier = (NotASkeleton, "2-face (0, 1, 2) is not an induced cycle at 1")
        for fn in (reconstruct, build_frame_graph):
            assert _outcome(fn, first, d) == earlier, (fn, face)


@pytest.mark.parametrize("spec, face", [(polygon_prism(3), (0, 1, 2, 0)),
                                        (bipyramid(cube(2)), (4, 0, 2, 4))])
def test_d3_refuses_a_two_face_that_lists_a_vertex_twice(spec, face):
    """A triangle of the triangular prism, all of whose vertices are
    simple, or of the octahedron, none of whose vertices are, listed with
    a vertex twice: each vertex has two neighbours on it, but its cycle is
    shorter than the 2-face.  ``reconstruct`` at d = 3, checked or not,
    raises what ``build_frame_graph`` raises."""
    sk = k_skeleton(lattice_of(spec), 2)
    triangle = tuple(sorted(set(face)))
    faces = tuple(face if f == triangle else f for f in sk.two_faces)
    assert faces != sk.two_faces
    bad = KSkeleton(graph=sk.graph, faces_by_dim={2: faces})
    want = (NotASkeleton, f"2-face {tuple(sorted(face))} is not a single cycle")
    assert _outcome(build_frame_graph, bad, 3) == want
    for check in (True, False):
        assert _outcome(reconstruct, bad, 3, check=check) == want


def _antiprism_skeleton(m: int) -> KSkeleton:
    """The 2-skeleton of the m-antiprism: the m-gons 0..m-1 and m..2m-1
    joined by a band of 2m triangles, every vertex of degree 4."""
    edges = []
    faces = [tuple(range(m)), tuple(range(m, 2 * m))]
    for i in range(m):
        j = (i + 1) % m
        edges += [(i, j), (m + i, m + j), (i, m + i), (i, m + j)]
        faces += [(i, j, m + j), (i, m + i, m + j)]
    return KSkeleton(graph=Graph(2 * m, edges),
                     faces_by_dim={2: tuple(sorted(tuple(sorted(f)) for f in faces))})


def test_d3_is_linear_on_antiprisms():
    """Relabeled 2-skeletons of the m-antiprism, m = 512..4096, d = 3:
    every vertex is nonsimple, and each m-gon is the largest 2-face at
    each of its m vertices.  The face rule meets that m-gon as a set built
    once, so reconstruct is linear in m, and each doubling of m must scale
    its pace-scaled median time by 1.3 to 2.7.  Building the set anew at
    each vertex made the run quadratic."""
    sizes = (512, 1024, 2048, 4096)
    rng = random.Random("antiprism-scaling")
    skeletons = [_relabeling(_antiprism_skeleton(m), rng) for m in sizes]
    for sk in skeletons:
        reconstruct(sk, 3)  # warm-up
    times = [[] for _ in sizes]
    gc.disable()
    try:
        before = pace()
        for _ in range(5):
            for m, sk, runs in zip(sizes, skeletons, times):
                start = time.perf_counter()
                out = reconstruct(sk, 3)
                wall = time.perf_counter() - start
                after = pace()
                runs.append(wall / (before + after))
                before = after
                assert len(out.facets) == 2 * m + 2
    finally:
        gc.enable()
    medians = [statistics.median(runs) for runs in times]
    ratios = [b / a for a, b in zip(medians, medians[1:])]
    assert all(1.3 <= r <= 2.7 for r in ratios), ratios


def test_d3_answers_in_canonical_form_whatever_the_form_of_the_faces():
    """The octahedron and skew_solid with their 2-faces listed as
    frozensets or as unsorted tuples, in reverse order: checked or not, the
    answer is the lattice's facets, sorted tuples in order."""
    for spec in (bipyramid(cube(2)), fixture_corpus()["skew_solid"]):
        lat = lattice_of(spec)
        sk = k_skeleton(lat, 2)
        for form in (frozenset, lambda f: tuple(reversed(f))):
            faces = tuple(form(f) for f in reversed(sk.two_faces))
            given_so = KSkeleton(graph=sk.graph, faces_by_dim={2: faces})
            for check in (True, False):
                out = reconstruct(given_so, 3, check=check)
                assert (out.status, out.facets) == ("complete", lat.facets)


@pytest.mark.parametrize("name", sorted(fixture_corpus()))
def test_checked_reconstruct_gives_the_facets_or_refuses(name):
    """On every corpus polytope a checked run gives the lattice's facets,
    or, with d-1 nonsimple vertices from d = 4, lists them among its two
    completions, or raises a typed error: it never answers wrong."""
    lat = lattice_of(fixture_corpus()[name])
    d = lat.d
    try:
        out = reconstruct(k_skeleton(lat, 2), d)
    except SkelreconError:
        return
    if out.status == "complete":
        assert out.facets == lat.facets
    else:
        assert d >= 4 and len(classify_vertices(lat).nonsimple) == d - 1
        assert lat.facets in out.ambiguity.completions


def _tampered_text(text, rng):
    """``text`` with one seeded edit of one line, or none: a field dropped
    or made non-integer, a comment or a repeated header put in, a face
    rank raised, a loop or a vertex out of range added."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    parts = lines[i].split()
    edit = rng.choice(["none", "drop", "word", "comment", "header", "rank", "loop", "outside"])
    if edit == "drop":
        lines[i] = " ".join(parts[:-1])
    elif edit == "word":
        parts[rng.randrange(len(parts))] = "x"
        lines[i] = " ".join(parts)
    elif edit == "comment":
        lines.insert(i, "# " + lines[i])
    elif edit == "header":
        lines.insert(i, lines[rng.randrange(2)])
    elif edit == "rank":
        lines.insert(i, "face9 0 1 2")
    elif edit == "loop":
        lines.insert(i, "edge 1 1")
    elif edit == "outside":
        lines.insert(i, f"face2 0 1 {len(lines)}")
    return "\n".join(lines) + "\n"


def _parsed(text, parse):
    """The parse of ``text``, each face as its sorted vertex tuple (the
    reference parser's faces are frozensets)."""
    sk, d = parse(text)
    faces = {r: tuple(tuple(sorted(f)) for f in fs) for r, fs in sk.faces_by_dim.items()}
    return sk.graph.adj, faces, sk.k, d


def _sorted_regions(regions, fg, check):
    """The regions ``regions(fg, check)`` traces, each as its sorted
    vertex tuple, in trace order."""
    return [tuple(sorted(r)) for r in regions(fg, check)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_scratch_build_trace_and_parse_match_the_per_face_sets(data):
    """Relabeled 2-skeletons of prism(m), m <= 64, of pyramid(prism(m)),
    m <= 32, and of the corpus, each whole, with a seeded tampering of its
    faces or with one face listing a vertex twice: the build with
    per-vertex scratch gives the step table (or the dict's items) of the
    build with a set and a cycle dict per face, or its error text, which
    ``reconstruct`` at d = 3 gives too, checked or not; the traces give
    the same regions in the same order, or the same error;
    and the parse of the skeleton's text, with one seeded line edit,
    gives the result or error of the reference parser, which checks every
    line before it reads any."""
    family = data.draw(st.sampled_from(["prism", "pyramid", "corpus"]))
    if family == "prism":
        base, d = polygon_prism_skeleton(data.draw(st.integers(3, 64))), 3
    elif family == "pyramid":
        base, d = prism_pyramid_skeleton(data.draw(st.integers(3, 32))), 4
    else:
        lat = lattice_of(fixture_corpus()[data.draw(st.sampled_from(sorted(fixture_corpus())))])
        base, d = k_skeleton(lat, 2), lat.d
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    relabeled = _relabeling(base, rng)
    tamperings = _tamperings(relabeled, rng, swap=family == "corpus")
    # A face listed with one vertex twice.
    faces = list(relabeled.two_faces)
    i = rng.randrange(len(faces))
    faces[i] = (*faces[i], rng.choice(sorted(faces[i])))
    tamperings["repeat"] = faces
    kind = data.draw(st.sampled_from(sorted(tamperings)))
    sk = KSkeleton(graph=relabeled.graph, faces_by_dim={2: tuple(tamperings[kind])})
    got = _outcome(build_frame_graph, sk, d)
    want = _outcome(PerFaceSetFrameGraph, sk, d)
    if isinstance(want, PerFaceSetFrameGraph):
        assert got.node_count == want.node_count
        assert type(got.step) is type(want.step)
        if isinstance(want.step, dict):
            assert got.step.items() == want.step.items()
        else:
            assert got.step == want.step
        for check in (True, False):
            got_regions = _outcome(_sorted_regions, _regions, got, check)
            assert got_regions == _outcome(_sorted_regions, per_face_set_regions, want, check)
    else:
        assert got == want
        if d == 3:
            # The d = 3 path builds no FrameGraph, yet refuses the same way.
            for check in (True, False):
                assert _outcome(reconstruct, sk, 3, check=check) == want
    text = _tampered_text(format_skeleton(sk, d), rng)
    reference = _outcome(_parsed, text, lambda t: reference_parse("skeleton", t))
    assert _outcome(_parsed, text, parse_skeleton) == reference


def test_prism_pyramid_skeleton_is_the_lattice_one():
    for m in (3, 4, 7):
        sk = prism_pyramid_skeleton(m)
        lat = k_skeleton(lattice_of(pyramid(polygon_prism(m))), 2)
        assert (sk.graph, sk.faces_by_dim) == (lat.graph, lat.faces_by_dim)


def test_reconstruct_is_linear_at_a_nonsimple_apex():
    """Relabeled 2-skeletons of pyramid(prism(m)), m = 256..2048, d = 4:
    the apex, the one nonsimple vertex, has 2m neighbours, lies in 3m
    triangles and in m + 2 facets.  Each (vertex, face) pair and each
    nonsimple vertex of a facet costs O(min(deg, |F|)), so reconstruct is
    linear in m, and each doubling of m must scale its pace-scaled median
    time by 1.3 to 2.7, as acceptance criterion 4 asks of prisms.
    Scanning the apex's whole adjacency for each face and facet through it
    made the ratios 3.4-4.0."""
    sizes = (256, 512, 1024, 2048)
    rng = random.Random("apex-scaling")
    skeletons = [_relabeling(prism_pyramid_skeleton(m), rng) for m in sizes]
    for sk in skeletons:
        reconstruct(sk, 4)  # warm-up
    times = [[] for _ in sizes]
    gc.disable()
    try:
        before = pace()
        for _ in range(5):
            for m, sk, runs in zip(sizes, skeletons, times):
                start = time.perf_counter()
                out = reconstruct(sk, 4)
                wall = time.perf_counter() - start
                after = pace()
                runs.append(wall / (before + after))
                before = after
                assert len(out.facets) == m + 3
    finally:
        gc.enable()
    medians = [statistics.median(runs) for runs in times]
    ratios = [b / a for a, b in zip(medians, medians[1:])]
    assert all(1.3 <= r <= 2.7 for r in ratios), ratios


def test_facet_check_builds_the_neighbour_set_the_2_face_pass_skipped():
    """The 2-face pass builds a nonsimple vertex's neighbour set only on a
    2-face with fewer vertices than its degree; otherwise the facet check
    builds it on first use.  The twofold pyramid over a square, truncated
    at every vertex but one apex, keeps that apex (vertex 0) nonsimple of
    degree 5, and each of its eight triangles becomes a pentagon.  So
    only the check builds its set.  The other nonsimple vertex, 17, is cut
    from the edge between the apexes and lies on triangles."""
    spec = multifold_pyramid(cube(2), 2)
    # The square's vertices are 0..3 and the apexes 4 and 5; each cut
    # relabels the survivors in order, so the apex 5 is vertex 1 at the end.
    for face in [(0,)] * 4 + [(1,)]:
        spec = truncate(build_face_lattice(spec), face)[0]
    lat = build_face_lattice(spec)
    sk = k_skeleton(lat, 2)
    assert len(sk.graph.adj[0]) == 5
    assert sorted(len(f) for f in sk.two_faces if 0 in f) == [5] * 8
    fg = FrameGraph(sk, 4)
    assert fg.nonsimple == {0, 17} and set(fg.neighbour_sets) == {17}
    assert tuple(sorted(_regions(fg, True))) == lat.facets
    assert fg.neighbour_sets[0] == frozenset(sk.graph.adj[0])
    assert reconstruct(sk, 4) == (lat.facets, None)
