import pytest

from skelrecon import (
    PolytopeSpec,
    bipyramid,
    build_face_lattice,
    classify_vertices,
    cube,
    isomorphic,
    k_skeleton,
    multifold_pyramid,
    polygon_prism,
    polygon_prism_skeleton,
    pullback_facets,
    pyramid,
    q1,
    q2,
    simplex,
    truncate,
    validate,
)
from skelrecon.errors import (
    CutFacetMissing,
    DimensionTooSmall,
    InvalidBase,
    NotAProperFace,
)

from conftest import lattice_of, truncation_pairs


def test_q1_4_exact_facet_list():
    assert q1(4).spec.facets == (
        (0, 1, 2, 3, 4, 5),
        (0, 1, 2, 3, 6),
        (0, 1, 4, 6),
        (0, 2, 4, 6),
        (1, 3, 4, 5, 6, 7),
        (2, 3, 5, 6, 7),
        (2, 4, 5, 7),
        (2, 4, 6, 7),
    )


def test_q2_4_exact_facet_list():
    assert q2(4).spec.facets == (
        (0, 1, 2, 3, 4, 5),
        (0, 1, 2, 3, 6),
        (0, 1, 4, 6),
        (0, 2, 4, 6, 7),
        (1, 3, 4, 5, 6, 7),
        (2, 3, 5, 6, 7),
        (2, 4, 5, 7),
    )


def test_q1_3_base_case():
    c = q1(3)
    assert c.spec.n == 6
    assert len(c.spec.facets) == 6
    # even labels other than 0 are the nonsimple vertices, already at d=3
    assert classify_vertices(lattice_of(c.spec)).nonsimple == frozenset({2, 4})


def test_q1_counts_and_nonsimple():
    for d in range(3, 8):
        c = q1(d)
        assert c.spec.n == 2 * d
        assert len(c.spec.facets) == 2 * d
        assert c.x_set == frozenset(range(2, 2 * d, 2))
        classes = classify_vertices(build_face_lattice(c.spec))
        assert classes.nonsimple == c.x_set
        assert len(classes.nonsimple) == d - 1


def test_q2_counts_and_nonsimple():
    for d in range(4, 8):
        c = q2(d)
        assert c.spec.n == 2 * d
        assert len(c.spec.facets) == 2 * d - 1
        classes = classify_vertices(build_face_lattice(c.spec))
        assert classes.nonsimple == c.x_set


def test_twins_differ_by_one_merge():
    for d in range(4, 8):
        a = set(q1(d).spec.facets)
        b = set(q2(d).spec.facets)
        assert len(a ^ b) == 3
        (merged,) = b - a
        assert set(merged) == {0, 2 * d - 1} | set(range(2, 2 * d, 2))


def test_dimension_guards():
    with pytest.raises(DimensionTooSmall):
        q1(2)
    with pytest.raises(DimensionTooSmall):
        q2(3)


def test_base_guards():
    with pytest.raises(InvalidBase, match="polygon_prism needs m >= 3"):
        polygon_prism(2)
    with pytest.raises(InvalidBase, match="t must be at least 1"):
        multifold_pyramid(simplex(3), 0)


def test_pyramid_over_simplex_is_simplex():
    assert pyramid(simplex(3)) == simplex(4)


def test_polygon_prism_counts():
    for m in (3, 5, 8):
        spec = polygon_prism(m)
        assert spec.n == 2 * m
        assert len(spec.facets) == m + 2
        assert classify_vertices(lattice_of(spec)).nonsimple == frozenset()


def test_polygon_prism_skeleton_matches_lattice():
    m = 8
    direct = polygon_prism_skeleton(m)
    via_lattice = k_skeleton(build_face_lattice(polygon_prism(m)), 2)
    assert direct.graph == via_lattice.graph
    assert direct.faces_by_dim == via_lattice.faces_by_dim


def test_nonreconstructible_pair_shape():
    bp = bipyramid(simplex(3))
    pb = pyramid(bipyramid(simplex(2)))
    lb, lp = build_face_lattice(bp), build_face_lattice(pb)
    assert bp.n == pb.n == 6
    assert len(classify_vertices(lb).nonsimple) == 4
    assert len(classify_vertices(lp).nonsimple) == 4
    assert isomorphic(k_skeleton(lb, 1), k_skeleton(lp, 1)).isomorphic
    assert not isomorphic(lb, lp).isomorphic


def test_multifold_pyramid_apexes_are_the_nonsimple_vertices():
    base = cube(2)
    for t in (1, 2, 3):
        spec = multifold_pyramid(base, t)
        assert spec.d == 2 + t
        classes = classify_vertices(build_face_lattice(spec))
        assert classes.nonsimple == frozenset(range(base.n, base.n + t))


def test_truncate_cube_at_vertex():
    lat = lattice_of(cube(3))
    spec, tmap = truncate(lat, (0,))
    # one vertex out, one new vertex per cut edge in
    assert spec.n == 10
    assert len(spec.facets) == 7
    assert len(tmap.cut_facet) == 3
    assert validate(build_face_lattice(spec)).ok


def test_truncate_simplex_at_vertex():
    for d in (3, 4, 5):
        lat = build_face_lattice(simplex(d))
        spec, _ = truncate(lat, (0,))
        assert spec.n == 2 * d
        assert len(spec.facets) == d + 2


def test_truncate_requires_proper_face():
    lat = lattice_of(cube(3))
    with pytest.raises(NotAProperFace):
        truncate(lat, (0, 7))  # antipodal pair is no face
    with pytest.raises(NotAProperFace):
        truncate(lat, range(8))  # the whole polytope


def test_truncation_keeps_old_simple_degrees_and_new_degrees():
    # every new vertex whose outside endpoint is simple gets degree d
    lat = lattice_of(multifold_pyramid(cube(2), 2))
    spec, tmap = truncate(lat, (4, 5))  # the apex edge
    new_graph = build_face_lattice(spec).graph()
    for (x, y), w in tmap.new_from_edge.items():
        assert new_graph.degree(w) == lat.d
    for old, new in tmap.old_to_new.items():
        assert new_graph.degree(new) == lat.graph().degree(old)


def test_pullback_round_trip_cube_vertex():
    lat = lattice_of(cube(3))
    spec, tmap = truncate(lat, (0,))
    assert pullback_facets(spec.facets, tmap) == lat.facets


def test_pullback_round_trip_q1_simple_vertex():
    lat = lattice_of(q1(4).spec)
    spec, tmap = truncate(lat, (7,))
    assert pullback_facets(spec.facets, tmap) == lat.facets


def test_pullback_round_trip_apex_edge():
    lat = lattice_of(multifold_pyramid(cube(2), 2))
    spec, tmap = truncate(lat, (4, 5))
    assert pullback_facets(spec.facets, tmap) == lat.facets


def test_pullback_requires_cut_facet():
    lat = lattice_of(cube(3))
    spec, tmap = truncate(lat, (0,))
    trimmed = [f for f in spec.facets if frozenset(f) != tmap.cut_facet]
    with pytest.raises(CutFacetMissing):
        pullback_facets(trimmed, tmap)


@pytest.mark.parametrize("case", truncation_pairs(), ids=lambda c: f"{c[0]!r}@{c[1]}")
def test_truncation_round_trip_corpus(case):
    spec, face = case
    lat = build_face_lattice(spec)
    out, tmap = truncate(lat, face)
    assert pullback_facets(out.facets, tmap) == lat.facets
    assert validate(build_face_lattice(out)).ok
