"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; every criterion also asserts, so a plain pytest run gates on them.
"""

import gc
import statistics
import time

import pytest

from skelrecon import (
    bipyramid,
    build_face_lattice,
    classify_vertices,
    cube,
    facet_families,
    isomorphic,
    k_skeleton,
    max_two_system,
    min_two_face_score,
    multifold_pyramid,
    polygon_prism,
    polygon_prism_skeleton,
    pullback_facets,
    pyramid,
    q1,
    q2,
    reconstruct,
    reconstruct_one_nonsimple,
    reconstruct_two_nonsimple_via_truncation,
    simplex,
    truncate,
    validate,
)

from conftest import lattice_of, pace, truncation_pairs


def verdict(num, ok, text, started):
    elapsed = time.perf_counter() - started
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'}  {text}  [{elapsed:.1f}s]")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_1_counterexample_family():
    t0 = time.perf_counter()
    ok = True
    for d in (4, 5, 6, 7):
        c1, c2 = q1(d), q2(d)
        l1 = build_face_lattice(c1.spec)
        l2 = build_face_lattice(c2.spec)
        ok &= c1.spec.n == 2 * d and len(l1.facets) == 2 * d
        ok &= c2.spec.n == 2 * d and len(l2.facets) == 2 * d - 1
        ok &= classify_vertices(l1).nonsimple == c1.x_set and len(c1.x_set) == d - 1
        ok &= classify_vertices(l2).nonsimple == c2.x_set
        ok &= isomorphic(k_skeleton(l1, d - 3), k_skeleton(l2, d - 3)).isomorphic
        ok &= not isomorphic(k_skeleton(l1, d - 2), k_skeleton(l2, d - 2)).isomorphic
        ok &= not isomorphic(l1, l2).isomorphic
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60
    verdict(1, ok, "twin family counts, nonsimple sets, skeleton thresholds (d=4..7)", t0)


def test_criterion_2_two_skeleton_reconstruction():
    t0 = time.perf_counter()
    fixtures = (
        [simplex(d) for d in (4, 5, 6, 7)]
        + [cube(d) for d in (4, 5, 6)]
        + [pyramid(cube(3)), pyramid(polygon_prism(5))]
        + [
            multifold_pyramid(cube(2), 2),       # d=4, 2 = d-2 nonsimple
            multifold_pyramid(cube(2), 3),       # d=5, 3 = d-2
            multifold_pyramid(polygon_prism(3), 2),
            multifold_pyramid(polygon_prism(4), 2),
        ]
    )
    truncated = [
        (cube(3), (0,)),
        (cube(3), (0, 1)),
        (cube(3), (0, 1, 2, 3)),
        (simplex(4), (0,)),
        (simplex(4), (0, 1)),
        (simplex(4), (0, 1, 2)),
        (cube(4), (0,)),
        (pyramid(cube(3)), (8,)),
        (pyramid(cube(3)), (0,)),
        (polygon_prism(5), (0,)),
    ]
    for base, face in truncated:
        fixtures.append(truncate(build_face_lattice(base), face)[0])
    ok = True
    for spec in fixtures:
        lat = build_face_lattice(spec)
        out = reconstruct(k_skeleton(lat, 2), lat.d)
        ok &= out.status == "complete" and out.facets == lat.facets
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60
    verdict(2, ok, f"2-skeleton reconstruction on {len(fixtures)} fixtures", t0)


def test_criterion_3_ambiguity_and_parity():
    t0 = time.perf_counter()
    l1 = lattice_of(q1(5).spec)
    l2 = lattice_of(q2(5).spec)
    s1, s2 = k_skeleton(l1, 2), k_skeleton(l2, 2)
    shared = s1.graph == s2.graph and s1.faces_by_dim == s2.faces_by_dim
    out = reconstruct(s1, 5)
    sizes = tuple(sorted(len(c) for c in out.ambiguity.completions)) if out.ambiguity else ()
    even = reconstruct(s1, 5, parity_hint="even")
    odd = reconstruct(s1, 5, parity_hint="odd")
    ok = (
        shared
        and out.status == "ambiguous"
        and sizes == (9, 10)
        and even.status == "complete"
        and even.facets == l1.facets
        and odd.status == "complete"
        and odd.facets == l2.facets
    )
    verdict(3, ok, "shared q(5) 2-skeleton ambiguous; parity hints pick each twin", t0)


def test_criterion_4_linear_time_scaling():
    t0 = time.perf_counter()
    sizes = (1024, 2048, 4096, 8192, 16384)
    skeletons = [polygon_prism_skeleton(m) for m in sizes]
    for sk in skeletons:
        reconstruct(sk, 3)  # warm-up
    # Each round times every size once, so a change of machine speed that
    # lasts a few seconds lands on all sizes instead of on one.  Each wall
    # time is divided by the pace just before and just after it, so a
    # change of speed between samples cancels out of the ratios.
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
                assert len(out.facets) == m + 2
    finally:
        gc.enable()
    medians = [statistics.median(runs) for runs in times]
    ratios = [b / a for a, b in zip(medians, medians[1:])]
    elapsed = time.perf_counter() - t0
    ok = all(1.3 <= r <= 2.7 for r in ratios) and elapsed < 300
    pretty = ", ".join(f"{r:.2f}" for r in ratios)
    verdict(4, ok, f"prism doubling ratios [{pretty}] within [1.3, 2.7]", t0)


def test_criterion_5_one_nonsimple_graph_reconstruction():
    t0 = time.perf_counter()
    fixtures = [
        pyramid(cube(3)),
        pyramid(polygon_prism(4)),
        pyramid(polygon_prism(5)),
        pyramid(polygon_prism(6)),
    ]
    ok = True
    for spec in fixtures:
        lat = build_face_lattice(spec)
        g = lat.graph()
        nonsimple = classify_vertices(lat).nonsimple
        system = max_two_system(g, lat.d, nonsimple)
        ok &= len(system) == min_two_face_score(g, tuple(sorted(nonsimple)))
        ok &= len(system) == len(lat.faces_by_rank[2])
        ok &= reconstruct_one_nonsimple(g, lat.d) == lat.facets
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120
    verdict(5, ok, "graph-only reconstruction with certified 2-systems (4 pyramids)", t0)


def test_criterion_6_two_nonsimple_graph_reconstruction():
    t0 = time.perf_counter()
    ok = True
    for spec, d in [
        (multifold_pyramid(cube(2), 2), 4),
        (multifold_pyramid(polygon_prism(3), 2), 5),
    ]:
        lat = build_face_lattice(spec)
        g = lat.graph()
        families = facet_families(g, d)
        claims = families.all_facets
        truncation = reconstruct_two_nonsimple_via_truncation(g, d)
        ok &= claims == lat.facets and truncation == lat.facets
        f_total = len(lat.facets)
        f_with_v = sum(1 for f in lat.facets if families.v in f)
        ok &= families.min_u == f_total - f_with_v
        ok &= families.min_both == f_total
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 600
    verdict(6, ok, "both graph routes agree with the oracle; family minima exact", t0)


def test_criterion_7_negative_control():
    t0 = time.perf_counter()
    bp = build_face_lattice(bipyramid(simplex(3)))
    pb = build_face_lattice(pyramid(bipyramid(simplex(2))))
    graphs = isomorphic(k_skeleton(bp, 1), k_skeleton(pb, 1))
    lattices = isomorphic(bp, pb)
    ok = (
        graphs.isomorphic
        and graphs.witness is not None
        and not lattices.isomorphic
        and len(classify_vertices(bp).nonsimple) == 4
        and len(classify_vertices(pb).nonsimple) == 4
    )
    verdict(7, ok, "bipyramid pair: same graph (witness), different lattices, 4 nonsimple", t0)


def test_criterion_8_truncation_round_trip():
    t0 = time.perf_counter()
    pairs = truncation_pairs()
    assert len(pairs) >= 20
    ok = True
    for spec, face in pairs[:20]:
        lat = build_face_lattice(spec)
        out, tmap = truncate(lat, face)
        ok &= pullback_facets(out.facets, tmap) == lat.facets
        ok &= validate(build_face_lattice(out)).ok
    verdict(8, ok, "pullback inverts truncation on 20 (fixture, face) pairs", t0)
