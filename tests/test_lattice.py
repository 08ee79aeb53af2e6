import itertools
import math
import random
import re
import time
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skelrecon import (
    KSkeleton,
    PolytopeSpec,
    bipyramid,
    build_face_lattice,
    classify_vertices,
    cube,
    isomorphic,
    k_skeleton,
    multifold_pyramid,
    polygon_prism,
    pyramid,
    q1,
    q2,
    simplex,
    truncate,
    validate,
)
from skelrecon import recon2, recong
from skelrecon.constructions import polygon_prism_skeleton
from skelrecon.errors import DegreeBelowDimension, NotAnEdge, NotGraded, RankOutOfRange
from skelrecon.graphs import Graph, vertices_of
from skelrecon.lattice import CheckResult, _check_diamond
from skelrecon.textio import parse_skeleton

from conftest import cyclic, dual, fixture_corpus, lattice_of
from oracles import (
    ReferenceLattice,
    chain_ranked_lattice,
    closed_sets,
    facet_containment_error,
    reference_diamond,
)


def test_spec_canonicalisation():
    spec = PolytopeSpec(3, 4, [(2, 1, 0), (0, 1, 3), (3, 2, 0), (1, 2, 3)])
    assert spec.facets == ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
    assert spec == simplex(3)


def test_spec_rejects_duplicates_and_containment():
    with pytest.raises(ValueError, match="duplicate"):
        PolytopeSpec(3, 4, [(0, 1, 2), (0, 1, 2), (1, 2, 3)])
    with pytest.raises(ValueError, match="contained"):
        PolytopeSpec(3, 4, [(0, 1), (0, 1, 2), (1, 2, 3)])
    with pytest.raises(ValueError, match="outside"):
        PolytopeSpec(3, 4, [(0, 1, 7), (1, 2, 3)])
    with pytest.raises(
        ValueError, match=re.escape("facet (0, 2) contained in facet (0, 1, 2)")
    ):
        PolytopeSpec(3, 4, [(1, 2, 3), (0, 2), (0, 1, 2)])
    # Apex 4 lies in every facet, so the lookup goes through vertex 1.
    with pytest.raises(
        ValueError, match=re.escape("facet (1, 4) contained in facet (0, 1, 4)")
    ):
        PolytopeSpec(3, 5, [(0, 1, 4), (1, 2, 4), (2, 3, 4), (0, 3, 4), (1, 4)])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_containment_check_matches_all_pairs_reference(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    vertex_lists = st.lists(st.integers(min_value=0, max_value=n - 1), min_size=1)
    facets = data.draw(st.lists(vertex_lists, max_size=10))
    want = facet_containment_error(facets)
    if want is None:
        PolytopeSpec(3, n, facets)
    else:
        with pytest.raises(ValueError) as info:
            PolytopeSpec(3, n, facets)
        assert str(info.value) == want


def test_containment_check_is_linear_on_prisms():
    facets = polygon_prism(16384).facets
    start = time.perf_counter()
    PolytopeSpec(3, 32768, facets)
    assert time.perf_counter() - start < 2.0


def test_simplex3_f_vector():
    lat = build_face_lattice(simplex(3))
    assert lat.f_vector == (4, 6, 4)


def test_q1_4_has_8_facets():
    lat = build_face_lattice(q1(4).spec)
    assert len(lat.faces_by_rank[3]) == 8


def test_q2_4_has_7_facets():
    lat = build_face_lattice(q2(4).spec)
    assert len(lat.faces_by_rank[3]) == 7


@pytest.mark.parametrize("name", sorted(fixture_corpus()))
def test_faces_match_closure_oracle(name):
    spec = fixture_corpus()[name]
    lat = build_face_lattice(spec)
    got = {f for faces in lat.faces_by_rank.values() for f in faces}
    want = {tuple(sorted(f)) for f in closed_sets(spec) | {frozenset()}}
    assert got == want


def lower_cover_sets(lat):
    """Each face of a FaceLattice, and its lower covers, as frozensets."""
    return {
        frozenset(vertices_of(m)): frozenset(frozenset(vertices_of(c)) for c in lat.lower_covers(m))
        for r in range(-1, lat.d + 1)
        for m in lat.masks_of_rank(r)
    }


def assert_same_lattice(got, want):
    # The views hold sorted vertex tuples, the reference frozensets.
    assert got.faces_by_rank == {
        r: tuple(tuple(sorted(f)) for f in faces) for r, faces in want.faces_by_rank.items()
    }
    assert got.rank_of == {tuple(sorted(f)): r for f, r in want.rank_of.items()}
    assert lower_cover_sets(got) == want.lower


def test_build_matches_chain_ranked_reference_on_fixtures():
    for name, spec in fixture_corpus().items():
        assert_same_lattice(build_face_lattice(spec), chain_ranked_lattice(spec))


@st.composite
def facet_lists(draw):
    """A vertex count n <= 8 and up to 10 inclusion-maximal facets."""
    n = draw(st.integers(min_value=1, max_value=8))
    masks = draw(
        st.lists(st.integers(min_value=1, max_value=(1 << n) - 1), max_size=10)
    )
    # Keep the inclusion-maximal sets, so that any draw is a valid spec.
    facets = {
        tuple(v for v in range(n) if m >> v & 1)
        for m in masks
        if not any(m != w and m & w == m for w in masks)
    }
    return n, facets


@settings(max_examples=300, deadline=None)
@given(facet_lists())
def test_build_matches_chain_ranked_reference(drawn):
    n, facets = drawn
    for d in range(2, 6):
        spec = PolytopeSpec(d, n, facets)
        try:
            want = chain_ranked_lattice(spec)
        except NotGraded as exc:
            with pytest.raises(NotGraded) as info:
                build_face_lattice(spec)
            assert str(info.value) == str(exc)
        else:
            assert_same_lattice(build_face_lattice(spec), want)


@settings(max_examples=300, deadline=None)
@given(facet_lists())
# Two triangles sharing vertex 0, as a polygon: 0 lies on four edges, so
# its interval below the full set has 4 intermediates, and the sorted
# covers of covers pair up although the count is not 2.
@example((5, {(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)}))
def test_diamond_check_matches_the_all_intervals_reference(drawn):
    n, facets = drawn
    for d in range(2, 6):
        spec = PolytopeSpec(d, n, facets)
        try:
            want = reference_diamond(chain_ranked_lattice(spec))
        except NotGraded:
            continue
        lattice = build_face_lattice(spec)
        try:
            got = validate(lattice)["diamond"]
        except NotAnEdge:
            # validate reads the graph first; the check itself still runs.
            got = _check_diamond(lattice)
        assert got == want


def test_diamond_check_names_the_first_bad_interval():
    # K4 less the edge 23, declared a polygon: graded, but vertices 0 and 1
    # lie on three edges each; vertex 0 comes first.
    fan = PolytopeSpec(2, 4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    report = validate(build_face_lattice(fan))
    want = "interval [0]..[0, 1, 2, 3] has 3 intermediate faces"
    assert report["diamond"] == CheckResult("diamond", False, want)
    assert reference_diamond(chain_ranked_lattice(fan)).detail == want
    assert not report.ok


def relabeled_lattice(lat, perm):
    """The lattice with vertex v renamed perm[v], in vertex-tuple order."""

    def image(f):
        return frozenset(perm[v] for v in f)

    def ordered(faces):
        return tuple(sorted(map(image, faces), key=sorted))

    return ReferenceLattice(
        lat.d,
        lat.n,
        {r: ordered(faces) for r, faces in lat.faces_by_rank.items()},
        {image(f): r for f, r in lat.rank_of.items()},
        {image(f): frozenset(map(image, below)) for f, below in lower_cover_sets(lat).items()},
    )


BENCHMARK_SIZE_SPECS = {
    **{f"q1({d})": q1(d).spec for d in range(5, 9)},
    **{f"q2({d})": q2(d).spec for d in range(5, 9)},
    "simplex(7)": simplex(7),
    "cube(5)": cube(5),
    "pyramid(cube(4))": pyramid(cube(4)),
    "bipyramid(simplex(3))": bipyramid(simplex(3)),
    # The full set has as many covers (5) as vertices, but one of them is
    # the 4-vertex base, so it must not be taken as Boolean.
    "pyramid(cube(2))": pyramid(cube(2)),
}


@pytest.mark.parametrize("name", list(BENCHMARK_SIZE_SPECS))
def test_build_matches_chain_ranked_reference_at_benchmark_size(name):
    spec = BENCHMARK_SIZE_SPECS[name]
    lat = build_face_lattice(spec)
    assert_same_lattice(lat, chain_ranked_lattice(spec))
    perm = random.Random(spec.n).sample(range(spec.n), spec.n)
    moved = PolytopeSpec(spec.d, spec.n, [[perm[v] for v in f] for f in spec.facets])
    assert_same_lattice(build_face_lattice(moved), relabeled_lattice(lat, perm))


@st.composite
def small_facet_lists(draw):
    """A vertex count n <= 9 and inclusion-maximal facets of 1-4 vertices."""
    n = draw(st.integers(min_value=1, max_value=9))
    small = st.frozensets(
        st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=4
    )
    drawn = draw(st.lists(small, max_size=12))
    return n, sorted({tuple(sorted(f)) for f in drawn if not any(f < g for g in drawn)})


@settings(max_examples=200, deadline=None)
@given(small_facet_lists())
# With d = 3 the triangle (0, 3, 4) covers the vertex 3 across two ranks.
@example((6, [(0, 3, 4), (0, 4, 5), (1, 2, 3, 5), (1, 2, 4, 5)]))
def test_build_matches_chain_ranked_reference_on_small_facets(drawn):
    # Facets of at most four vertices make most faces simplices, so most
    # covers are taken by the Boolean rule rather than by a facet scan.
    n, facets = drawn
    for d in range(2, 6):
        spec = PolytopeSpec(d, n, facets)
        try:
            want = chain_ranked_lattice(spec)
        except NotGraded as exc:
            with pytest.raises(NotGraded) as info:
                build_face_lattice(spec)
            assert str(info.value) == str(exc)
        else:
            assert_same_lattice(build_face_lattice(spec), want)


def test_not_graded_rejected():
    # Facet list of a square cycle declared 3-dimensional: the longest
    # chain tops out one rank short.
    square = PolytopeSpec(3, 4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    with pytest.raises(NotGraded):
        build_face_lattice(square)
    # Here several covers span two ranks; the first in rank and then
    # vertex order is the one reported.
    skewed = PolytopeSpec(
        4, 7, [(0, 2, 3, 6), (0, 2, 4, 5), (1, 2, 4, 5, 6), (1, 3, 4, 5), (2, 3, 4, 6)]
    )
    message = re.escape("(2, 3, 6) covers (3,) but spans ranks 0..2")
    with pytest.raises(NotGraded, match=message):
        build_face_lattice(skewed)
    with pytest.raises(NotGraded, match=message):
        chain_ranked_lattice(skewed)


def test_cube3_skeleton_edges():
    sk = k_skeleton(lattice_of(cube(3)), 1)
    assert len(sk.graph.edges) == 12
    assert sk.faces_by_dim == {}


def test_skeleton_rank_bounds():
    lat = lattice_of(cube(3))
    with pytest.raises(RankOutOfRange):
        k_skeleton(lat, 0)
    with pytest.raises(RankOutOfRange):
        k_skeleton(lat, 3)


def test_top_skeleton_round_trips_to_facets():
    for spec in (simplex(4), cube(3), q1(4).spec, pyramid(cube(3))):
        lat = build_face_lattice(spec)
        sk = k_skeleton(lat, lat.d - 1)
        top = tuple(tuple(sorted(f)) for f in sk.faces_by_dim[lat.d - 1])
        assert tuple(sorted(top)) == spec.facets


def test_every_skeleton_producer_hands_over_sorted_tuples_in_order(monkeypatch):
    """A face crosses module boundaries as its sorted vertex tuple, and a
    rank's faces come in lexicographic order: from the parser, the lattice,
    the direct prism build, recong's 2-systems and its hand-off to recon2
    alike."""

    def assert_tuple_layer(faces):
        assert type(faces) is tuple and list(faces) == sorted(faces)
        for f in faces:
            assert type(f) is tuple and list(f) == sorted(set(f))

    def assert_tuple_faces(sk):
        for faces in sk.faces_by_dim.values():
            assert_tuple_layer(faces)

    text = "d 4\nvertices 6\nedge 0 1\nface2 5 1 1\nface2 3 2 1\nface3 4 0\nface2 0 5\n"
    sk, _ = parse_skeleton(text)
    assert_tuple_faces(sk)
    assert sk.faces_by_dim == {2: ((0, 5), (1, 2, 3), (1, 5)), 3: ((0, 4),)}
    for spec in fixture_corpus().values():
        lat = lattice_of(spec)
        for k in range(1, spec.d):
            assert_tuple_faces(k_skeleton(lat, k))
    prism = polygon_prism_skeleton(7)
    assert_tuple_faces(prism)
    assert prism.two_faces == polygon_prism(7).facets

    handed = []
    returned = []
    engine, two_system = recon2.reconstruct, recong.max_two_system

    def spy(sk, d, *args, **kwargs):
        handed.append((sk, returned[-1]))
        return engine(sk, d, *args, **kwargs)

    def spy_two_system(*args, **kwargs):
        returned.append(two_system(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(recon2, "reconstruct", spy)
    monkeypatch.setattr(recong, "max_two_system", spy_two_system)
    for name in ("cube3", "pyr_cube3", "prism_over_pyramid"):
        lat = lattice_of(fixture_corpus()[name])
        assert recong.reconstruct(lat.graph(), lat.d).facets == lat.facets
    for faces in returned:
        assert_tuple_layer(faces)
    assert len(handed) == 3
    for sk, last_two_system in handed:
        assert_tuple_faces(sk)
        # The 2-system goes to the 2-skeleton engine as it was returned.
        assert sk.faces_by_dim[2] is last_two_system


def test_records_are_read_only_named_tuples():
    """Every result record is a named tuple: no field can be assigned, it
    equals the plain tuple of its fields, and a skeleton built without
    faces gets an empty mapping that no one can write."""
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    sk = KSkeleton(k=1, graph=g)
    assert sk.faces_by_dim == {} and sk.two_faces == ()
    with pytest.raises(TypeError):
        sk.faces_by_dim[2] = ((0, 1, 2),)
    assert KSkeleton(k=1, graph=g).faces_by_dim == {}

    lat = lattice_of(q1(5).spec)
    report = validate(lat)
    outcome = recon2.reconstruct(k_skeleton(lat, 2), 5)
    found = recong.reconstruct(lattice_of(multifold_pyramid(cube(2), 2)).graph(), 4)
    records = [
        sk,
        classify_vertices(g, 2),
        report,
        report["diamond"],
        outcome,
        outcome.ambiguity,
        found,
        found.families,
        isomorphic(lat, lat),
        q1(5),
        truncate(lattice_of(cube(3)), (0,))[1],
    ]
    assert len({type(r) for r in records}) == 11
    for record in records:
        assert record == tuple(record)
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
    simple, nonsimple = classify_vertices(g, 2)
    assert (simple, nonsimple) == (frozenset({0, 1, 2}), frozenset())
    assert report[0] == report.checks


def test_lattice_spec_round_trip():
    for spec in fixture_corpus().values():
        lat = lattice_of(spec)
        assert PolytopeSpec(lat.d, lat.n, lat.facets) == spec


def test_classify_cube4_all_simple():
    lat = lattice_of(cube(4))
    assert classify_vertices(lat).nonsimple == frozenset()
    graph = lat.graph()
    assert all(graph.degree(v) == 4 for v in range(graph.n))


def test_classify_q1_4():
    classes = classify_vertices(lattice_of(q1(4).spec))
    assert classes.nonsimple == frozenset({2, 4, 6})
    assert len(classes.nonsimple) == 3


def test_classify_pyramid_over_cube():
    lat = lattice_of(pyramid(cube(3)))
    assert classify_vertices(lat).nonsimple == frozenset({8})
    assert lat.graph().degree(8) == 8


def test_classify_rejects_low_degree():
    lat = lattice_of(cube(3))
    with pytest.raises(DegreeBelowDimension):
        classify_vertices(lat.graph(), 4)


def test_validate_simplex4_all_pass():
    report = validate(lattice_of(simplex(4)))
    assert report.ok
    assert [c.passed for c in report.checks] == [True] * 5


def test_validate_q2_6_all_pass():
    report = validate(build_face_lattice(q2(6).spec))
    assert report.ok


def test_validate_cube6_all_pass():
    start = time.perf_counter()
    lat = build_face_lattice(cube(6))
    report = validate(lat)
    assert time.perf_counter() - start < 30.0
    assert lat.f_vector == (64, 192, 240, 160, 60, 12)
    assert [c.passed for c in report.checks] == [True] * 5


def test_validate_cube7_all_pass():
    start = time.perf_counter()
    report = validate(build_face_lattice(cube(7)))
    assert time.perf_counter() - start < 2.0
    assert [c.passed for c in report.checks] == [True] * 5


def test_validate_broken_cube_fails_euler():
    facets = [f for f in cube(3).facets if f != (4, 5, 6, 7)]
    broken = PolytopeSpec(3, 8, facets)
    report = validate(build_face_lattice(broken))
    assert not report["euler"].passed
    assert not report.ok


def test_every_fixture_validates():
    for name, spec in fixture_corpus().items():
        report = validate(lattice_of(spec))
        assert report.ok, f"{name}: {report.summary()}"


def test_face_count_linear_bound():
    # With at most N nonsimple vertices, the k-face count is at most
    # f0 * C(d, k) + C(N, k+1).
    for spec in fixture_corpus().values():
        lat = lattice_of(spec)
        nn = len(classify_vertices(lat).nonsimple)
        f0 = lat.f_vector[0]
        for k in range(1, lat.d):
            bound = f0 * math.comb(lat.d, k) + math.comb(nn, k + 1)
            assert lat.f_vector[k] <= bound


def test_vertex_facet_coverage_on_fixtures():
    # Genuine polytopes put every vertex on at least d facets.
    for spec in fixture_corpus().values():
        counts = {v: 0 for v in range(spec.n)}
        for f in spec.facets:
            for v in f:
                counts[v] += 1
        assert all(c >= spec.d for c in counts.values())


def test_cyclic_polytopes_follow_gale_evenness():
    """``cyclic`` builds its facets from the evenness structure; here every
    d-subset is filtered by the condition itself, and the facet counts
    match the closed forms n/(n-k) C(n-k, k) for d = 2k and
    2 C(n-k-1, k) for d = 2k + 1 (Ziegler, Lectures on Polytopes, 0.7)."""
    for n in range(3, 11):
        for d in range(2, n):
            gale = []
            for s in itertools.combinations(range(n), d):
                gaps = [x for x in range(n) if x not in s]
                if all(sum(a < x < b for x in s) % 2 == 0 for a, b in zip(gaps, gaps[1:])):
                    gale.append(s)
            assert cyclic(n, d).facets == tuple(gale), (n, d)
    for n, d in ((50, 4), (30, 5), (20, 6), (15, 7)):
        k = d // 2
        count = n * math.comb(n - k, k) // (n - k) if d % 2 == 0 else 2 * math.comb(n - k - 1, k)
        assert len(cyclic(n, d).facets) == count
    for spec in (cyclic(8, 4), dual(cyclic(8, 4)), cyclic(9, 5), dual(cyclic(9, 5))):
        assert validate(build_face_lattice(spec)).ok


@lru_cache(maxsize=None)
def _duality_cases():
    """The corpus, the twins, prisms, cubes, and cyclic polytopes with
    their duals; C(50, 4)* has 1,175 vertices."""
    specs = dict(fixture_corpus())
    for d in (5, 6):
        specs[f"q1_{d}"], specs[f"q2_{d}"] = q1(d).spec, q2(d).spec
    specs.update({f"prism{m}": polygon_prism(m) for m in (3, 4, 7, 64)})
    specs.update({f"cube{d}": cube(d) for d in (2, 5, 7)})
    for n, d in ((6, 3), (7, 4), (9, 5), (10, 6), (12, 4), (50, 4)):
        specs[f"C({n},{d})"] = cyclic(n, d)
        specs[f"C({n},{d})*"] = dual(cyclic(n, d))
    return specs


@pytest.mark.parametrize("name", sorted(_duality_cases()))
def test_the_dual_lattice_is_the_lattice_upside_down(name):
    """A face F of rank r maps to the facets holding it, and these images
    are exactly the faces of rank d - 1 - r of the dual's lattice, ranks
    -1 and d included.  The map is one to one and reverses inclusion, so
    the two lattices are each other upside down."""
    spec = _duality_cases()[name]
    lat, dual_lat = build_face_lattice(spec), build_face_lattice(dual(spec))
    holders = [0] * spec.n
    for j, f in enumerate(spec.facets):
        for v in f:
            holders[v] |= 1 << j
    every = (1 << len(spec.facets)) - 1
    for r in range(-1, spec.d + 1):
        faces = lat.masks_of_rank(r)
        image = set()
        for face in faces:
            held = every
            for v in vertices_of(face):
                held &= holders[v]
            image.add(held)
        assert len(image) == len(faces)
        assert image == set(dual_lat.masks_of_rank(spec.d - 1 - r)), r
