import random
import sys

import pytest

from skelrecon import (
    Graph,
    KSkeleton,
    PolytopeSpec,
    build_face_lattice,
    cube,
    isomorphic,
    k_skeleton,
    q1,
    q2,
    simplex,
)
from skelrecon import iso
from skelrecon.errors import KindMismatch, NotAnEdge, RankOutOfRange
from skelrecon.textio import format_skeleton, parse_skeleton, parse_spec

from conftest import fixture_corpus, lattice_of
from oracles import reference_isomorphic


def relabeled(spec, perm):
    return PolytopeSpec(spec.d, spec.n, [[perm[v] for v in f] for f in spec.facets])


def test_twin_graphs_identical_labels():
    l1, l2 = lattice_of(q1(4).spec), lattice_of(q2(4).spec)
    r = isomorphic(k_skeleton(l1, 1), k_skeleton(l2, 1))
    assert r.isomorphic
    assert r.witness == tuple(range(8))


def test_twin_2_skeleta_isomorphic_at_d5():
    l1, l2 = lattice_of(q1(5).spec), lattice_of(q2(5).spec)
    r = isomorphic(k_skeleton(l1, 2), k_skeleton(l2, 2))
    assert r.isomorphic


def test_twin_lattices_not_isomorphic():
    r = isomorphic(lattice_of(q1(4).spec), lattice_of(q2(4).spec))
    assert not r.isomorphic
    # first distinguishing invariant is a face-count mismatch (the merged
    # facet costs one 2-face and one facet)
    assert "face counts" in r.obstruction and "19 != 18" in r.obstruction


def test_twin_rank_threshold():
    # isomorphic up to rank d-3, distinguished from rank d-2 on
    for d in (4, 5, 6):
        l1 = build_face_lattice(q1(d).spec)
        l2 = build_face_lattice(q2(d).spec)
        assert isomorphic(k_skeleton(l1, d - 3), k_skeleton(l2, d - 3)).isomorphic
        assert not isomorphic(k_skeleton(l1, d - 2), k_skeleton(l2, d - 2)).isomorphic


def test_self_isomorphism_has_witness():
    for spec in fixture_corpus().values():
        lat = lattice_of(spec)
        r = isomorphic(lat, lat)
        assert r.isomorphic and r.witness == tuple(range(spec.n))


def test_witness_maps_layers():
    rng = random.Random(5)
    for name in ("cube3", "pyr_cube3", "q1_4", "skew_solid"):
        spec = fixture_corpus()[name]
        perm = list(range(spec.n))
        rng.shuffle(perm)
        other = relabeled(spec, perm)
        r = isomorphic(lattice_of(spec), build_face_lattice(other))
        assert r.isomorphic
        for f in lattice_of(spec).facets:
            image = tuple(sorted(r.witness[v] for v in f))
            assert image in build_face_lattice(other).facets


def test_verdict_invariant_under_relabeling():
    rng = random.Random(9)
    l1, l2 = lattice_of(q1(4).spec), lattice_of(q2(4).spec)
    for _ in range(5):
        perm = list(range(8))
        rng.shuffle(perm)
        shuffled = build_face_lattice(relabeled(q2(4).spec, perm))
        assert not isomorphic(l1, shuffled).isomorphic
        assert isomorphic(
            k_skeleton(l1, 1), k_skeleton(shuffled, 1)
        ).isomorphic


def test_graph_vs_face_sensitive():
    # same graph, different 2-face layer: the skeleton comparison must
    # consult the faces, not just the edges
    l1 = lattice_of(q1(4).spec)
    l2 = lattice_of(q2(4).spec)
    s1, s2 = k_skeleton(l1, 2), k_skeleton(l2, 2)
    assert isomorphic(k_skeleton(l1, 1), k_skeleton(l2, 1)).isomorphic
    assert not isomorphic(s1, s2).isomorphic


def test_kind_mismatch():
    lat = lattice_of(fixture_corpus()["cube3"])
    with pytest.raises(KindMismatch):
        isomorphic(lat, k_skeleton(lat, 1))
    with pytest.raises(KindMismatch):
        isomorphic(k_skeleton(lat, 1), k_skeleton(lat, 2))


def shuffled(spec, seed):
    return relabeled(spec, random.Random(seed).sample(range(spec.n), spec.n))


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    """The witness search maps one vertex of relabeled cube(7) per level,
    128 levels deep: a search with a frame per level ends in RecursionError
    under a recursion limit below the vertex count."""
    a = lattice_of(cube(7))
    b = build_face_lattice(shuffled(cube(7), 7))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(100)
    try:
        r = isomorphic(a, b, rank=1)
    finally:
        sys.setrecursionlimit(limit)
    assert r.isomorphic and r.witness != tuple(range(128))
    edges_b = set(k_skeleton(b, 1).graph.edges)
    assert {tuple(sorted((r.witness[u], r.witness[v]))) for u, v in k_skeleton(a, 1).graph.edges} == edges_b


def outcome(call):
    """The result of a call, or the type and text of the error it raised."""
    try:
        return call()
    except (KindMismatch, NotAnEdge, RankOutOfRange) as e:
        return type(e), str(e)


def test_masks_match_the_frozenset_reference_on_the_corpus():
    corpus = list(fixture_corpus().values())
    for spec in corpus:
        la = lattice_of(spec)
        for seed in range(5):
            lb = build_face_lattice(shuffled(spec, seed))
            assert isomorphic(la, lb) == reference_isomorphic(la, lb)
            for k in range(1, spec.d):
                got = isomorphic(la, lb, rank=k)
                assert got == reference_isomorphic(k_skeleton(la, k), k_skeleton(lb, k))
                assert got == isomorphic(k_skeleton(la, k), k_skeleton(lb, k))
    # Pairs of different polytopes with as many vertices, which may stop
    # at any obstruction.
    for i, spec in enumerate(corpus):
        for other in corpus[i + 1:]:
            if (other.d, other.n) == (spec.d, spec.n):
                la, lb = lattice_of(spec), build_face_lattice(shuffled(other, 3))
                assert isomorphic(la, lb) == reference_isomorphic(la, lb)
                for k in range(1, spec.d):
                    assert isomorphic(la, lb, rank=k) == reference_isomorphic(
                        k_skeleton(la, k), k_skeleton(lb, k)
                    )


@pytest.mark.parametrize("d", [4, 5, 6, 7, 8])
def test_masks_match_the_frozenset_reference_on_the_twins(d):
    l1 = build_face_lattice(q1(d).spec)
    for lb in (build_face_lattice(q2(d).spec), build_face_lattice(shuffled(q2(d).spec, d)),
               build_face_lattice(shuffled(q1(d).spec, d))):
        assert isomorphic(l1, lb) == reference_isomorphic(l1, lb)
        for k in range(1, d):
            got = isomorphic(l1, lb, rank=k)
            assert got == reference_isomorphic(k_skeleton(l1, k), k_skeleton(lb, k))
            assert got == isomorphic(k_skeleton(l1, k), k_skeleton(lb, k))


def test_masks_match_the_frozenset_reference_on_parsed_skeletons():
    for d, k in ((4, 1), (5, 2), (5, 3), (6, 3)):
        l1 = build_face_lattice(q1(d).spec)
        texts = [format_skeleton(k_skeleton(lat, k), d) for lat in (
            l1, build_face_lattice(q2(d).spec), build_face_lattice(shuffled(q2(d).spec, 1)),
            build_face_lattice(shuffled(q1(d).spec, 2)),
        )]
        parsed = [parse_skeleton(t)[0] for t in texts]
        for a in parsed:
            for b in parsed:
                assert isomorphic(a, b) == reference_isomorphic(a, b)


RING = "d 2\nvertices 6\nfacet 0 1 2\nfacet 2 3 4\nfacet 4 5 0\n"


def test_rank_keyword_matches_the_skeleton_form_errors_included():
    q2_5 = build_face_lattice(shuffled(q2(5).spec, 52))
    q1_4 = build_face_lattice(shuffled(q1(4).spec, 41))
    ring = build_face_lattice(parse_spec(RING))
    cases = [(q2_5, q1_4, k) for k in (0, 1, 2, 3, 4, 5)]
    cases += [(q1_4, q2_5, 4), (ring, q1_4, 1), (q1_4, ring, 1), (ring, q1_4, 2),
              (q1_4, ring, 3), (ring, ring, 1)]
    for a, b, k in cases:
        assert outcome(lambda: isomorphic(a, b, rank=k)) == outcome(
            lambda: isomorphic(k_skeleton(a, k), k_skeleton(b, k))
        ), (a, b, k)
    assert outcome(lambda: isomorphic(q2_5, q1_4, rank=4)) == (
        RankOutOfRange, "k must be in 1..3, got 4"
    )
    # A's errors come before b's: its rank, then its edges.
    assert outcome(lambda: isomorphic(ring, q1_4, rank=2)) == (
        RankOutOfRange, "k must be in 1..1, got 2"
    )
    assert outcome(lambda: isomorphic(q1_4, ring, rank=1)) == (
        NotAnEdge, "rank-1 face (0, 1, 2) has 3 vertices, so it is not an edge"
    )
    # A skeleton argument is compared as it is.
    sk = k_skeleton(q1_4, 1)
    assert isomorphic(q2_5, sk, rank=1) == isomorphic(k_skeleton(q2_5, 1), sk)
    with pytest.raises(KindMismatch):
        isomorphic(q2_5, sk, rank=2)
    with pytest.raises(KindMismatch):
        isomorphic(q2_5, sk)


def test_lattice_with_non_edges_is_refused_only_when_edges_are_compared():
    ring = build_face_lattice(parse_spec(RING))
    assert isomorphic(ring, ring).witness == tuple(range(6))
    other = build_face_lattice(relabeled(parse_spec(RING), [1, 0, 2, 3, 4, 5]))
    with pytest.raises(NotAnEdge, match=r"rank-1 face \(0, 1, 2\) has 3 vertices"):
        isomorphic(ring, other)


def test_the_named_non_edge_is_the_first_in_vertex_order():
    # The lattice keeps (2, 3, 4) ahead of (0, 1, 3) among its rank-1 masks.
    ring = build_face_lattice(PolytopeSpec(2, 6, [(0, 1, 3), (2, 3, 4), (4, 5, 0)]))
    other = build_face_lattice(PolytopeSpec(2, 6, [(0, 1, 2), (2, 3, 4), (4, 5, 0)]))
    text = "rank-1 face (0, 1, 3) has 3 vertices, so it is not an edge"
    for call in (ring.graph, lambda: k_skeleton(ring, 1), lambda: isomorphic(ring, other),
                 lambda: isomorphic(ring, other, rank=1)):
        assert outcome(call) == (NotAnEdge, text)


EXHAUSTED = ("search exhausted", False)


def _verdict(result):
    return result.obstruction, result.isomorphic


def test_search_exhausted_when_the_profiles_cannot_tell():
    # Both graphs are 3-regular on six vertices, so counts, sizes and the
    # refined profiles agree; only the search finds that K3,3, which has no
    # triangle, is not the triangular prism's graph.
    k33 = KSkeleton(graph=Graph(6, [(i, j) for i in range(3) for j in range(3, 6)]))
    prism = KSkeleton(graph=Graph(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    ))
    assert _verdict(isomorphic(k33, prism)) == EXHAUSTED
    assert _verdict(reference_isomorphic(k33, prism)) == EXHAUSTED


def test_a_graph_isomorphism_that_misses_the_two_faces_is_rejected(monkeypatch):
    # One graph, two pairs of triangles with the same profiles: the search
    # finds a graph isomorphism, the 2-faces refute it, and nothing else
    # is left to try.
    g = Graph(7, [(0, 1), (0, 3), (0, 4), (0, 6), (1, 3), (1, 5), (2, 3), (2, 5),
                  (3, 6), (4, 6), (5, 6)])
    a = KSkeleton(graph=g, faces_by_dim={2: ((0, 3, 6), (0, 4, 6))})
    b = KSkeleton(graph=g, faces_by_dim={2: ((0, 1, 3), (0, 4, 6))})
    real, verdicts = iso._verified, []

    def verified(*args):
        verdicts.append(real(*args))
        return verdicts[-1]

    monkeypatch.setattr(iso, "_verified", verified)
    assert _verdict(isomorphic(a, b)) == EXHAUSTED
    assert False in verdicts
    assert _verdict(reference_isomorphic(a, b)) == EXHAUSTED


def test_a_missing_face_rank_is_an_obstruction():
    """The 3-skeleton of the 4-simplex against the same graph with only its
    3-faces, built directly and read from text without the face2 lines."""
    sk = k_skeleton(build_face_lattice(simplex(4)), 3)
    direct = KSkeleton(graph=sk.graph, faces_by_dim={3: sk.faces_by_dim[3]})
    lines = format_skeleton(sk, 4).splitlines(keepends=True)
    parsed, d = parse_skeleton("".join(x for x in lines if not x.startswith("face2 ")))
    assert (d, sorted(parsed.faces_by_dim)) == (4, [3])
    for other in (direct, parsed):
        for decide in (isomorphic, reference_isomorphic):
            result = decide(sk, other)
            assert not result.isomorphic
            assert result.obstruction == "different face ranks present"
