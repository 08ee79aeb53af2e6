import gc
import itertools
import random
import statistics
import time
import tracemalloc
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from skelrecon import (
    Graph,
    GraphReconstruction,
    PolytopeSpec,
    build_face_lattice,
    classify_vertices,
    count_sink_frames,
    cube,
    detect_uv_facets,
    enumerate_acyclic_orientations,
    facet_families,
    find_facets_avoiding,
    find_facets_empty,
    induced_cycles,
    is_feasible,
    k_connected,
    max_two_system,
    min_two_face_score,
    multifold_pyramid,
    polygon_prism,
    polygon_prism_skeleton,
    pyramid,
    q1,
    reconstruct_one_nonsimple,
    reconstruct_two_nonsimple,
    reconstruct_two_nonsimple_via_truncation,
    simplex,
    truncate,
    two_face_witness,
)
from skelrecon import recong
from skelrecon.cli import main
from skelrecon.errors import (
    CertificateMismatch,
    DimensionTooSmall,
    EmptyFamily,
    GraphMismatch,
    InconsistentCounts,
    SkelreconError,
    TooLarge,
    TooManyNonsimple,
)
from skelrecon.graphs import OrderCosts, mask_of, vertices_of
from skelrecon.textio import format_edge_list, format_spec, parse_spec

from conftest import (
    K33_PLUS_EDGE,
    PRISM_OVER_PYRAMID,
    SKEW_SOLID,
    SPLIT_CUBE,
    cyclic,
    dual,
    fixture_corpus,
    lattice_of,
    pace,
    truncated_antiprism,
    truncation_pairs,
)
from oracles import (
    cycle_order,
    dense_exact_cover_of_size,
    max_exact_cover,
    ordered_cover_row,
    orientation_from_order,
    reference_ancestors,
    reference_exact_cover_of_size,
    reference_find_facets_avoiding,
    reference_find_facets_empty,
    reference_harvester,
    reference_placing_after,
    reference_sweep,
    reference_uv_two_faces,
    two_face_score_of_order,
)


def two_faces_of(lat):
    return set(lat.faces_by_rank[2])


def face_sets(system):
    """The 2-system's sorted vertex tuples as a set."""
    return set(system)


def test_two_system_simplex4_is_all_triangles():
    lat = lattice_of(simplex(4))
    system = max_two_system(lat.graph(), 4)
    assert system == tuple(itertools.combinations(range(5), 3))
    assert len(system) == 10


def test_two_system_cube_is_the_six_squares():
    lat = lattice_of(cube(3))
    system = max_two_system(lat.graph(), 3)
    assert face_sets(system) == two_faces_of(lat)
    assert len(system) == 6


def test_two_system_pyramid_over_cube():
    lat = lattice_of(pyramid(cube(3)))
    system = max_two_system(lat.graph(), 4)
    assert len(system) == 18  # 12 apex triangles + 6 squares
    assert face_sets(system) == two_faces_of(lat)


@pytest.mark.parametrize(
    "spec",
    [simplex(4), cube(3), polygon_prism(5), pyramid(cube(3)), pyramid(polygon_prism(5))],
    ids=repr,
)
def test_certificate_equality(spec):
    lat = build_face_lattice(spec)
    g = lat.graph()
    nonsimple = classify_vertices(lat).nonsimple
    system = max_two_system(g, lat.d, nonsimple)
    assert len(system) == min_two_face_score(g, tuple(sorted(nonsimple)))
    assert len(system) == len(lat.faces_by_rank[2])


def test_certificate_mismatch_on_non_polytope_graph():
    # complete bipartite K33: triangle-free, no exact 2-frame cover at all
    g = Graph(6, [(a, b) for a in range(3) for b in range(3, 6)])
    with pytest.raises(CertificateMismatch):
        max_two_system(g, 3)


@lru_cache(maxsize=None)
def _one_nonsimple_fixtures(max_n=14):
    """(graph, d, nonsimple) of the corpus polytopes with n <= max_n and at
    most one nonsimple vertex."""
    out = []
    for _, spec in sorted(fixture_corpus().items()):
        lat = lattice_of(spec)
        nonsimple = tuple(sorted(classify_vertices(lat).nonsimple))
        if spec.n <= max_n and len(nonsimple) <= 1:
            out.append((lat.graph(), lat.d, nonsimple))
    return tuple(out)


def _frame_rows(g, nonsimple):
    """The simple-rooted 2-frames, the induced cycles, and for each cycle
    the indices of the frames it covers."""
    frames = [
        (w, frozenset(pair))
        for w in range(g.n)
        if w not in nonsimple
        for pair in itertools.combinations(g.adj[w], 2)
    ]
    frame_id = {f: i for i, f in enumerate(frames)}
    cycles = induced_cycles(g)
    rows = [
        [
            frame_id[w, frozenset(x for x in g.adj[w] if c >> x & 1)]
            for w in vertices_of(c)
            if w not in nonsimple
        ]
        for c in cycles
    ]
    return frames, cycles, rows


def _reference_two_system(g, nonsimple):
    """The first maximum exact cover of the simple-rooted 2-frames, by the
    reference search: (size, sorted vertex tuples in lexicographic order),
    size -1 if none."""
    frames, cycles, rows = _frame_rows(g, nonsimple)
    chosen = max_exact_cover(frames, rows)
    if chosen is None:
        return -1, ()
    sets = tuple(sorted(vertices_of(cycles[i]) for i in chosen))
    return len(chosen), sets


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_two_system_is_the_reference_maximum_cover(data):
    # Relabeled fixtures go through classify_vertices; one-edge changes of
    # them (mostly not polytope graphs) and random graphs name their
    # nonsimple vertex, so they reach the cover search.
    kind = data.draw(st.sampled_from(("fixture", "one_edge", "random")))
    if kind == "random":
        n = data.draw(st.integers(min_value=3, max_value=9))
        pairs = list(itertools.combinations(range(n), 2))
        g = Graph(n, data.draw(st.lists(st.sampled_from(pairs), unique=True)))
        d = None
        nonsimple = tuple(data.draw(st.sets(st.integers(0, n - 1), max_size=1)))
    else:
        base, d, nonsimple = data.draw(st.sampled_from(_one_nonsimple_fixtures()))
        perm = data.draw(st.permutations(range(base.n)))
        edges = {tuple(sorted((perm[u], perm[v]))) for u, v in base.edges}
        nonsimple = tuple(perm[v] for v in nonsimple)
        if kind == "one_edge":
            edges ^= {data.draw(st.sampled_from(list(itertools.combinations(range(base.n), 2))))}
        g = Graph(base.n, edges)

    def two_system():
        return max_two_system(g, d) if kind == "fixture" else max_two_system(g, d, nonsimple)

    size, sets = _reference_two_system(g, nonsimple)
    target = min_two_face_score(g, nonsimple)
    assert size <= target  # weak duality
    if size == target:
        assert two_system() == sets
    else:
        with pytest.raises(CertificateMismatch, match=f"has {target} sets"):
            two_system()


def _is_chordless_cycle(g, vertices):
    """Whether the vertex set induces one cycle: at least three vertices,
    each with two neighbours inside, all reached by walking along them."""
    inside = {w: [x for x in g.adj[w] if x in vertices] for w in vertices}
    if len(vertices) < 3 or any(len(nb) != 2 for nb in inside.values()):
        return False
    seen, stack = set(), [next(iter(vertices))]
    while stack:
        w = stack.pop()
        if w not in seen:
            seen.add(w)
            stack += inside[w]
    return seen == set(vertices)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_two_system_sets_cover_each_simple_frame_once(data):
    # Relabeled fixtures.  Read off the sets alone: each induces a
    # chordless cycle, and each simple-rooted 2-frame (w; a, b) is covered
    # by exactly one set, the one in which a and b are w's neighbours.
    base, d, nonsimple = data.draw(st.sampled_from(_one_nonsimple_fixtures()))
    perm = data.draw(st.permutations(range(base.n)))
    g = Graph(base.n, [(perm[u], perm[v]) for u, v in base.edges])
    nonsimple = {perm[v] for v in nonsimple}
    covered = Counter()
    for s in max_two_system(g, d):
        cycle = set(s)
        assert _is_chordless_cycle(g, cycle)
        for w in cycle - nonsimple:
            covered[w, frozenset(x for x in g.adj[w] if x in cycle)] += 1
    frames = [
        (w, frozenset(pair))
        for w in range(g.n)
        if w not in nonsimple
        for pair in itertools.combinations(g.adj[w], 2)
    ]
    assert covered == Counter(frames)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_two_face_witness_certifies_the_dp_minimum(data):
    # Relabeled fixtures and one-edge changes of them.  Both the first
    # exact cover and the reference maximum cover are offered to the
    # witness; whatever order it returns must reach the DP minimum.
    base, _, nonsimple = data.draw(st.sampled_from(_one_nonsimple_fixtures(22)))
    perm = data.draw(st.permutations(range(base.n)))
    edges = {tuple(sorted((perm[u], perm[v]))) for u, v in base.edges}
    nonsimple = tuple(perm[v] for v in nonsimple)
    if data.draw(st.booleans()):
        edges ^= {data.draw(st.sampled_from(list(itertools.combinations(range(base.n), 2))))}
    g = Graph(base.n, edges)
    frames, cycles, rows = _frame_rows(g, nonsimple)
    first = recong._exact_cover_of_size(len(frames), rows, 0)
    for chosen in (first, max_exact_cover(frames, rows)):
        if chosen is None:
            continue
        order = two_face_witness(g, nonsimple, len(chosen))
        if order is not None:
            score = two_face_score_of_order(g.n, g.edges, nonsimple, order)
            assert score == len(chosen) == min_two_face_score(g, nonsimple)


def test_two_system_witness_skips_the_dp(monkeypatch):
    def no_dp(*args, **kwargs):
        raise AssertionError("min_two_face_score was called")

    lat = lattice_of(pyramid(polygon_prism(10)))
    g = lat.graph()  # 21 vertices: the DP alone takes seconds
    monkeypatch.setattr(recong, "min_two_face_score", no_dp)
    start = time.perf_counter()
    system = max_two_system(g, 4)
    assert time.perf_counter() - start < 0.1
    assert face_sets(system) == two_faces_of(lat)
    rng = random.Random(8)
    for _, spec in sorted(fixture_corpus().items()):
        lat = lattice_of(spec)
        if len(classify_vertices(lat).nonsimple) > 1:
            continue
        for _ in range(5):
            perm = rng.sample(range(spec.n), spec.n)
            g = Graph(spec.n, [(perm[u], perm[v]) for u, v in lat.graph().edges])
            system = max_two_system(g, lat.d)
            assert face_sets(system) == {tuple(sorted(perm[v] for v in f)) for f in two_faces_of(lat)}


def test_two_system_dp_fallback_is_unchanged(monkeypatch):
    fixtures = _one_nonsimple_fixtures()
    expected = [max_two_system(g, d, nonsimple) for g, d, nonsimple in fixtures]
    dp_calls = []

    def dp(*args, **kwargs):
        dp_calls.append(args)
        return min_two_face_score(*args, **kwargs)

    monkeypatch.setattr(recong, "two_face_witness", lambda *args: None)
    monkeypatch.setattr(recong, "min_two_face_score", dp)
    for (g, d, nonsimple), system in zip(fixtures, expected):
        fallback = max_two_system(g, d, nonsimple)
        assert fallback == system
    assert len(dp_calls) == len(fixtures)
    k33 = Graph(6, [(a, b) for a in range(3) for b in range(3, 6)])
    with pytest.raises(CertificateMismatch, match=f"has {min_two_face_score(k33)} sets"):
        max_two_system(k33, 3)


def test_cover_row_reads_a_cycle_in_any_order():
    """The frames a 2-face covers do not depend on the order its vertices
    come in: for every rotation and reflection of each corpus 2-face, and
    for shuffles of it, _cover_row gives the frame set of a walk along the
    cycle (the oracle), one frame per simple vertex."""
    rng = random.Random(34)
    for _, spec in sorted(fixture_corpus().items()):
        lat = lattice_of(spec)
        g = lat.graph()
        nonsimple = classify_vertices(lat).nonsimple
        first, ncols = [-1] * g.n, 0
        for w in range(g.n):
            if w not in nonsimple:
                first[w] = ncols
                ncols += g.degree(w) * (g.degree(w) - 1) // 2
        for face in lat.faces_by_rank[2]:
            walk = cycle_order(g.adj, face)
            want = ordered_cover_row(g.adj, first, walk)
            assert len(want) == len(set(want)) == len(set(face) - nonsimple)
            walks = [walk[i:] + walk[:i] for i in range(len(walk))]
            walks += [w[::-1] for w in walks]
            for order in walks:
                assert set(ordered_cover_row(g.adj, first, order)) == set(want)
                assert set(recong._cover_row(g.adj, first, order)) == set(want)
            for _ in range(len(face)):
                shuffled = tuple(rng.sample(face, len(face)))
                assert set(recong._cover_row(g.adj, first, shuffled)) == set(want)


def test_exact_cover_gives_up_past_its_node_budget():
    # Column 0 goes first: row 1 leaves column 2 uncoverable, so the cover
    # by rows 2 and 0 takes four nodes, one of them a dead end.
    rows = [(1,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
    assert recong._exact_cover_of_size(3, rows, 0) == [2, 0]
    assert recong._exact_cover_of_size(3, rows, 0, max_nodes=4) == [2, 0]
    assert recong._exact_cover_of_size(3, rows, 0, max_nodes=3) is None


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_exact_cover_matches_the_recursive_search_under_every_budget(data):
    # Rows are a random partition of the columns plus random extra rows,
    # shuffled, so that exact covers exist often but not always.
    ncols = data.draw(st.integers(min_value=0, max_value=8))
    blocks = data.draw(st.lists(st.integers(0, 3), min_size=ncols, max_size=ncols))
    rows = [m for m in (mask_of(c for c in range(ncols) if blocks[c] == b) for b in range(4)) if m]
    if ncols:
        rows += data.draw(st.lists(st.integers(1, (1 << ncols) - 1), max_size=10))
        rows = data.draw(st.permutations(rows))
    target = data.draw(st.integers(min_value=0, max_value=ncols))
    # The search takes each row as its column ids; both oracles take masks.
    sparse = [vertices_of(m) for m in rows]
    want, nodes = reference_exact_cover_of_size(ncols, rows, target)
    assert recong._exact_cover_of_size(ncols, sparse, target) == want
    for budget in range(1, nodes + 1):
        got = recong._exact_cover_of_size(ncols, sparse, target, max_nodes=budget)
        assert got == reference_exact_cover_of_size(ncols, rows, target, budget)[0]
        assert got == dense_exact_cover_of_size(ncols, rows, target, budget)
    assert got == want
    event(f"cover found: {want is not None}")


def _cube_graph(d):
    n = 1 << d
    return Graph(n, [(x, x | 1 << i) for x in range(n) for i in range(d) if not x >> i & 1])


def test_recong_reconstructs_cube8_from_its_graph(tmp_path, capsys):
    # 1792 squares: the first cover takes one search node per square,
    # deeper than the interpreter's recursion limit.
    g = _cube_graph(8)
    path = tmp_path / "cube8.edges"
    path.write_text(format_edge_list(g))
    assert main(["recong", str(path), "--dim", "8"]) == 0
    assert capsys.readouterr().out == format_spec(cube(8))


def test_recong_scales_linearly_on_prisms():
    # Criterion 4's method on graphs alone: each round times every size
    # once, each wall time is divided by the pace just before and just
    # after it, the collector is off, and there are no retries.
    sizes = (1024, 2048, 4096, 8192)
    graphs = [polygon_prism_skeleton(m).graph for m in sizes]
    expected = [polygon_prism(m).facets for m in sizes]
    for g in graphs:
        recong.reconstruct(g, 3)  # warm-up
    times = [[] for _ in sizes]
    gc.disable()
    try:
        before = pace()
        for _ in range(5):
            for g, want, runs in zip(graphs, expected, times):
                start = time.perf_counter()
                out = recong.reconstruct(g, 3)
                wall = time.perf_counter() - start
                after = pace()
                runs.append(wall / (before + after))
                before = after
                assert out.facets == want
    finally:
        gc.enable()
    medians = [statistics.median(runs) for runs in times]
    ratios = [b / a for a, b in zip(medians, medians[1:])]
    assert all(1.3 <= r <= 2.7 for r in ratios), ratios


def test_recong_reads_no_adjacency_masks():
    # Graph.masks holds one n-bit int per vertex, O(n^2) bits on a prism.
    g = polygon_prism_skeleton(300).graph
    assert recong.reconstruct(g, 3).facets == polygon_prism(300).facets
    assert g._masks is None


def test_two_system_memory_on_cube10():
    # 46,080 frame columns and 11,520 squares.  A cover that keeps each row,
    # and each level of its stack, as a mask over all frame columns peaks
    # at 139 MB traced here.
    g = _cube_graph(10)
    tracemalloc.start()
    try:
        system = max_two_system(g, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(system) == 11_520
    assert peak < 40e6, peak


def test_two_system_falls_back_when_the_budget_is_spent(monkeypatch):
    lat = lattice_of(pyramid(cube(3)))  # 8 base vertices of degree 4
    search = recong._exact_cover_of_size
    budgets = []

    def spent(ncols, rows, target, max_nodes=None):
        budgets.append(max_nodes)
        return None if max_nodes is not None else search(ncols, rows, target)

    monkeypatch.setattr(recong, "_exact_cover_of_size", spent)
    assert face_sets(max_two_system(lat.graph(), 4)) == two_faces_of(lat)
    assert budgets == [8 * 6 + 1, None]


@lru_cache(maxsize=None)
def _first_pass_cases():
    """(graph, d, nonsimple) of the corpus polytopes with n <= 22 and at
    most one nonsimple vertex, then of their truncations at vertex 0 and at
    the nonsimple vertex that stay within those limits."""
    out = list(_one_nonsimple_fixtures(22))
    for _, spec in sorted(fixture_corpus().items()):
        lat = lattice_of(spec)
        nonsimple = tuple(sorted(classify_vertices(lat).nonsimple))
        if spec.n > 22 or len(nonsimple) > 1:
            continue
        for v in sorted({0, *nonsimple}):
            cut = lattice_of(truncate(lat, (v,))[0])
            cut_nonsimple = tuple(sorted(classify_vertices(cut).nonsimple))
            if cut.n <= 22 and len(cut_nonsimple) <= 1:
                out.append((cut.graph(), cut.d, cut_nonsimple))
    return tuple(out)


@lru_cache(maxsize=None)
def _case_minimum(i):
    g, _, nonsimple = _first_pass_cases()[i]
    return min_two_face_score(g, nonsimple)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_first_pass_two_system_matches_the_dp_fallback(data):
    # Relabeled cases, up to the 19-vertex truncated 4-cube.  The fallback
    # is forced by a witness that always fails, as in
    # test_two_system_dp_fallback_is_unchanged.  The orientation minimum
    # does not change under relabeling, so the DP runs once per case.
    cases = _first_pass_cases()
    i = data.draw(st.sampled_from(range(len(cases))))
    base, d, nonsimple = cases[i]
    perm = data.draw(st.permutations(range(base.n)))
    g = Graph(base.n, [(perm[u], perm[v]) for u, v in base.edges])
    nonsimple = tuple(perm[v] for v in nonsimple)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recong, "min_two_face_score", lambda h, sources: _case_minimum(i))
        first = max_two_system(g, d, nonsimple)
        mp.setattr(recong, "two_face_witness", lambda *args: None)
        fallback = max_two_system(g, d, nonsimple)
    assert first == fallback


def test_two_system_on_the_truncated_4_cube_takes_the_dp_fallback(monkeypatch):
    # cube(4) cut at vertex 0 (19 vertices): the shortest rows cover the
    # frames, but the greedy witness misses the minimum, so only the DP
    # fallback certifies the 2-faces.
    lat = lattice_of(truncate(lattice_of(cube(4)), (0,))[0])
    dp_calls = []

    def dp(*args, **kwargs):
        dp_calls.append(args)
        return min_two_face_score(*args, **kwargs)

    monkeypatch.setattr(recong, "min_two_face_score", dp)
    system = max_two_system(lat.graph(), 4)
    assert face_sets(system) == two_faces_of(lat)
    assert len(dp_calls) == 1


def test_two_system_pyramid_over_cube5_needs_no_dp(monkeypatch):
    def no_dp(*args, **kwargs):
        raise AssertionError("min_two_face_score was called")

    lat = lattice_of(pyramid(cube(5)))  # 33 vertices, above the DP bound
    monkeypatch.setattr(recong, "min_two_face_score", no_dp)
    system = max_two_system(lat.graph(), 6)
    assert face_sets(system) == two_faces_of(lat)
    assert reconstruct_one_nonsimple(lat.graph(), 6) == lat.facets


@pytest.mark.parametrize(
    "spec",
    [cube(6), cube(7), polygon_prism(400), pyramid(polygon_prism(30)), pyramid(cube(5))],
    ids=["cube6", "cube7", "prism400", "pyr_prism30", "pyr_cube5"],
)
def test_recong_beyond_dp_bound(spec, tmp_path, capsys):
    lat = lattice_of(spec)
    path = tmp_path / "g.edges"
    path.write_text(format_edge_list(lat.graph()))
    start = time.perf_counter()
    assert main(["recong", str(path), "--dim", str(lat.d), "--certificate"]) == 0
    assert time.perf_counter() - start < 10.0
    out = capsys.readouterr().out
    assert out.startswith(f"# two-system size {len(lat.faces_by_rank[2])}\n")
    assert parse_spec(out).facets == lat.facets


@lru_cache(maxsize=None)
def _truncated_cube5_graph():
    return lattice_of(truncate(lattice_of(cube(5)), (0,))[0]).graph()


def test_two_system_refuses_beyond_dp_bound_fast():
    # cube(5) cut at vertex 0 (36 vertices): the greedy witness misses the
    # first pass's cover, and the DP fallback is refused above 22 vertices.
    g = _truncated_cube5_graph()
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="36 vertices exceed the subset-DP bound 22"):
        max_two_system(g, 5)
    assert time.perf_counter() - start < 1.0


def test_recong_refuses_beyond_dp_bound(tmp_path, capsys):
    path = tmp_path / "cube5_cut.edges"
    path.write_text(format_edge_list(_truncated_cube5_graph()))
    assert main(["recong", str(path), "--dim", "5"]) == 1
    assert "36 vertices exceed the subset-DP bound 22" in capsys.readouterr().err


def test_one_nonsimple_rejects_two():
    g = lattice_of(fixture_corpus()["twofold_square"]).graph()
    with pytest.raises(ValueError):
        reconstruct_one_nonsimple(g, 4)


@pytest.mark.parametrize(
    "spec",
    [
        simplex(4),
        simplex(5),
        pyramid(cube(3)),
        pyramid(polygon_prism(4)),
        pyramid(polygon_prism(5)),
        pyramid(polygon_prism(6)),
    ],
    ids=repr,
)
def test_reconstruct_one_nonsimple(spec):
    lat = build_face_lattice(spec)
    assert reconstruct_one_nonsimple(lat.graph(), lat.d) == lat.facets


# -- the two-nonsimple claims route ------------------------------------------


def square_pyramid_2fold():
    spec = multifold_pyramid(cube(2), 2)
    lat = lattice_of(spec)
    return lat, lat.graph()


def test_find_facets_avoiding_u_side():
    lat, g = square_pyramid_2fold()
    facets, minimum = find_facets_avoiding(g, 4, 4, 5, "u_minus_v")
    assert facets == ((0, 1, 2, 3, 4),)
    assert minimum == 1  # 6 facets, 5 of them contain the other apex


def test_find_facets_avoiding_shared():
    lat, g = square_pyramid_2fold()
    facets, minimum = find_facets_avoiding(g, 4, 4, 5, "uv")
    assert minimum == 6  # the full facet count
    assert set(facets) == {f for f in lat.facets if {4, 5} <= set(f)}
    assert len(facets) == 4


def test_find_facets_empty_early_return():
    _, g = square_pyramid_2fold()
    known = (
        find_facets_avoiding(g, 4, 4, 5, "u_minus_v")[0]
        + find_facets_avoiding(g, 4, 4, 5, "v_minus_u")[0]
    )
    assert find_facets_empty(g, 4, 4, 5, known, 0) == ()


def test_find_facets_empty_recovers_avoiding_facet():
    lat = build_face_lattice(PRISM_OVER_PYRAMID)
    g = lat.graph()
    u_only, min_u = find_facets_avoiding(g, 4, 4, 9, "u_minus_v")
    v_only, _ = find_facets_avoiding(g, 4, 4, 9, "v_minus_u")
    assert u_only == ((0, 1, 2, 3, 4),) and v_only == ((5, 6, 7, 8, 9),)
    expected = min_u - len(u_only)
    assert expected == 1
    got = find_facets_empty(g, 4, 4, 9, u_only + v_only, expected)
    assert got == ((0, 1, 2, 3, 5, 6, 7, 8),)


def test_harvest_rule_matches_reference():
    # Unpinned orientations: no pin keeps u or v out of an ancestor set,
    # so the need and avoid tests do all the filtering.
    g = build_face_lattice(PRISM_OVER_PYRAMID).graph()
    simple = classify_vertices(g, 4).simple
    harvest = reference_harvester(g, 4, simple)
    rules = [({4}, {9}), ({9}, {4}), ({4, 9}, set()), (set(), {4, 9})]
    feasible = {}
    rng = random.Random(2)
    for _ in range(300):
        order = list(range(g.n))
        rng.shuffle(order)
        o = orientation_from_order(g, order)
        for need, avoid in rules:
            want = set()
            for x in simple:
                anc = reference_ancestors(o, x)
                if need <= anc and not anc & avoid:
                    if anc not in feasible:
                        feasible[anc] = is_feasible(g, mask_of(anc), 4, mask_of(simple))
                    if feasible[anc]:
                        want.add(anc)
            need_mask = sum(1 << w for w in need)
            avoid_mask = sum(1 << w for w in avoid)
            got = {frozenset(vertices_of(m)) for m in harvest(o, need_mask, avoid_mask)}
            assert got == want


@lru_cache(maxsize=None)
def _two_nonsimple_fixtures(max_n=8):
    """(graph, d, u, v) of the corpus polytopes with n <= max_n and exactly
    two nonsimple vertices u < v."""
    out = []
    for _, spec in sorted(fixture_corpus().items()):
        lat = lattice_of(spec)
        nonsimple = sorted(classify_vertices(lat).nonsimple)
        if spec.n <= max_n and len(nonsimple) == 2:
            out.append((lat.graph(), lat.d, *nonsimple))
    return tuple(out)


def _outcome(fn, *args):
    """fn's result, or the type and message of the typed error it raised."""
    try:
        return fn(*args)
    except (EmptyFamily, InconsistentCounts) as exc:
        return type(exc), str(exc)


def _kind(outcome, facets):
    if outcome and isinstance(outcome[0], type):
        return outcome[0].__name__
    return f"{len(facets)} facets"


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_family_sweeps_match_the_reference(data):
    # Relabeled two-nonsimple fixtures, one-edge changes of them, and
    # random graphs with any d up to the least degree and any u != v.
    kind = data.draw(st.sampled_from(("fixture", "one_edge", "random")))
    if kind == "random":
        n = data.draw(st.integers(min_value=5, max_value=9))
        pairs = list(itertools.combinations(range(n), 2))
        g = Graph(n, data.draw(st.lists(st.sampled_from(pairs), min_size=n, unique=True)))
        least = min(g.degree(w) for w in range(n))
        assume(least >= 2)
        d = data.draw(st.integers(min_value=2, max_value=least))
        u, v = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    else:
        base, d, u, v = data.draw(st.sampled_from(_two_nonsimple_fixtures()))
        perm = data.draw(st.permutations(range(base.n)))
        edges = {tuple(sorted((perm[a], perm[b]))) for a, b in base.edges}
        u, v = perm[u], perm[v]
        if kind == "one_edge":
            edges ^= {data.draw(st.sampled_from(list(itertools.combinations(range(base.n), 2))))}
        g = Graph(base.n, edges)
        assume(min(g.degree(w) for w in range(g.n)) >= d)
    sweep = data.draw(st.sampled_from(("u_minus_v", "v_minus_u", "uv", "neither", "uv_faces")))
    if sweep == "uv_faces":
        assume(g.has_edge(u, v))  # the kalai cycles are asked for only then
        got = recong._uv_two_faces(g, d, u, v)
        assert got == reference_uv_two_faces(g, d, u, v)
        event(f"uv_faces: {len(got)} cycles")
    elif sweep == "neither":
        sides = [_outcome(reference_find_facets_avoiding, g, d, u, v, m)
                 for m in ("u_minus_v", "v_minus_u")]
        assume(all(isinstance(side[1], int) for side in sides))
        (u_only, min_u), (v_only, _) = sides
        expected = data.draw(st.sampled_from(sorted({min_u - len(u_only), 1, 2})))
        assume(expected >= 0)
        args = (g, d, u, v, u_only + v_only, expected)
        got = _outcome(find_facets_empty, *args)
        assert got == _outcome(reference_find_facets_empty, *args)
        event(f"neither: {_kind(got, got)}")
    else:
        args = (g, d, u, v, sweep)
        got = _outcome(find_facets_avoiding, *args)
        assert got == _outcome(reference_find_facets_avoiding, *args)
        event(f"{sweep}: {_kind(got, got[0])}")


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_initial_set_sweep_matches_the_reference_on_any_cost(data):
    # The objectives of the family sweeps leave every candidate the same
    # inside cost, so arbitrary per-vertex costs also exercise sets whose
    # inside costs differ.
    n = data.draw(st.integers(min_value=4, max_value=7))
    pairs = list(itertools.combinations(range(n), 2))
    g = Graph(n, data.draw(st.lists(st.sampled_from(pairs), min_size=n, unique=True)))
    least = min(g.degree(w) for w in range(n))
    assume(least >= 1)
    d = data.draw(st.integers(min_value=1, max_value=least))
    simple = classify_vertices(g, d).simple
    salt = data.draw(st.integers(0, 2**20))

    def cost(y, p):
        return random.Random(salt << 32 | y << 24 | p).randrange(4)

    ends = data.draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True))
    first, last = tuple(ends[:1]), tuple(ends[1:])
    need, avoid = (
        sum(1 << x for x in data.draw(st.sets(st.integers(0, n - 1), max_size=1)))
        for _ in range(2)
    )
    # The sweep's precondition: the pinned source in need, the pinned sink
    # in avoid.
    need = need & ~mask_of(last) | mask_of(first)
    avoid = avoid & ~need | mask_of(last)
    restricted = data.draw(st.booleans())
    harvest = reference_harvester(g, d, simple)

    def sweep():
        return recong._initial_set_sweep(
            g, d, mask_of(simple), cost, need, avoid, sources=sum(1 << x for x in first),
            sinks=sum(1 << x for x in last), restricted=restricted,
        )

    def reference():
        return reference_sweep(
            g, first=first, last=last,
            family=(lambda o: any(harvest(o, need, avoid))) if restricted else None,
            objective=lambda o: sum(cost(y, o.anc[y] & g.masks[y]) for y in range(n)),
            collect=lambda o: harvest(o, need, avoid),
        )

    got = _outcome(sweep)
    assert got == _outcome(reference)
    event(f"restricted={restricted}: {_kind(got, got[1])}")


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_uv_cycle_cost_is_the_closed_form(data):
    # _uv_two_faces prices each chordless cycle C through the edge uv at
    # 2|C| + 1 without a DP: u costs 1, v costs 2, and the rest of C,
    # placed after {u, v} by the reference DP over C, costs 2|C| - 2.
    n = data.draw(st.integers(min_value=3, max_value=9))
    pairs = list(itertools.combinations(range(n), 2))
    g = Graph(n, data.draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True)))
    u, v = data.draw(st.permutations(data.draw(st.sampled_from(g.edges))))
    uv = 1 << u | 1 << v
    dp = OrderCosts(g, lambda y, p: 1 << p.bit_count(), sources=1 << u)
    cycles = [c for c in induced_cycles(g) if c & uv == uv]
    for c in cycles:
        assert reference_placing_after(dp, c)[uv] == 2 * c.bit_count() - 2
    event(f"{len(cycles)} cycles through uv")


def test_uv_two_faces_through_a_bridge_are_none():
    # Two K5 joined by the edge uv: no cycle runs through a bridge, so no
    # 2-face holds both u and v.
    k5 = list(itertools.combinations(range(5), 2))
    g = Graph(10, k5 + [(a + 5, b + 5) for a, b in k5] + [(4, 5)])
    assert recong._uv_two_faces(g, 4, 4, 5) == []
    assert reference_uv_two_faces(g, 4, 4, 5) == []


def test_count_sink_frames_definition():
    # the simplex facet {0,1,4,5} gives apex 4 exactly d-1 = 3 inside
    # edges (a valid frame); it counts exactly when all three point at 4
    _, g = square_pyramid_2fold()
    facet = mask_of((0, 1, 4, 5))
    into = orientation_from_order(g, (0, 1, 2, 3, 5, 4))
    assert count_sink_frames(g, 4, 4, [facet], into.anc[4]) == 1
    outof = orientation_from_order(g, (4, 0, 1, 2, 3, 5))
    assert count_sink_frames(g, 4, 4, [facet], outof.anc[4]) == 0
    # the square-pyramid facet {0,1,2,3,4} gives apex 4 four inside edges,
    # so it contributes no valid frame and is never counted
    assert count_sink_frames(g, 4, 4, [mask_of((0, 1, 2, 3, 4))], into.anc[4]) == 0


def test_detect_uv_facets():
    lat, g = square_pyramid_2fold()
    known = tuple(f for f in lat.facets if not {4, 5} <= set(f))
    assert detect_uv_facets(g, 4, known)
    assert not detect_uv_facets(g, 4, lat.facets)
    # the skew solid's facet families: all but one facet touch a peak
    lat2 = lattice_of(SKEW_SOLID)
    no_both = tuple(f for f in lat2.facets if not {0, 1} <= set(f))
    assert detect_uv_facets(lat2.graph(), 3, no_both)


def test_claims_route_square():
    lat, g = square_pyramid_2fold()
    families = facet_families(g, 4)
    assert families.counts == (1, 1, 0, 4)
    assert families.min_u == 1 and families.min_both == 6
    assert families.all_facets == lat.facets
    assert reconstruct_two_nonsimple(g, 4) == lat.facets


def test_claims_route_triangle_prism():
    spec = multifold_pyramid(polygon_prism(3), 2)
    lat = lattice_of(spec)
    g = lat.graph()
    families = facet_families(g, 5)
    assert families.counts == (1, 1, 0, 5)
    assert families.min_u == 1 and families.min_both == 7
    assert families.all_facets == lat.facets


def test_claims_route_all_four_families():
    # the prism over a square pyramid has every family nonempty
    lat = build_face_lattice(PRISM_OVER_PYRAMID)
    g = lat.graph()
    families = facet_families(g, 4)
    assert families.counts == (1, 1, 1, 4)
    assert families.min_u == 2  # seven facets, five contain the other apex
    assert families.min_both == 7
    assert families.all_facets == lat.facets


def test_claims_route_requires_d4():
    g = lattice_of(SPLIT_CUBE).graph()
    with pytest.raises(DimensionTooSmall, match="d >= 4"):
        facet_families(g, 3)


def test_claims_route_at_the_enumeration_bound():
    # 12 vertices: the subset DP needs no orientation enumeration
    lat = lattice_of(multifold_pyramid(polygon_prism(5), 2))
    start = time.perf_counter()
    families = facet_families(lat.graph(), 5)
    assert time.perf_counter() - start < 5.0
    assert families.counts == (1, 1, 0, 7)
    assert families.min_both == 9
    assert families.all_facets == lat.facets


def test_force_stops_at_the_dp_bound(monkeypatch):
    g = lattice_of(multifold_pyramid(polygon_prism(11), 2)).graph()  # 24 vertices
    with pytest.raises(TooLarge, match="24 vertices exceed the enumeration bound 12; pass force=True"):
        facet_families(g, 5)

    def no_table(*args, **kwargs):
        raise AssertionError("a DP table was allocated")

    monkeypatch.setattr(OrderCosts, "placing_after", no_table)
    for sweep in (
        lambda: facet_families(g, 5, force=True),
        lambda: find_facets_avoiding(g, 5, 22, 23, "uv"),
        lambda: find_facets_empty(g, 5, 22, 23, (), 1),
        lambda: reconstruct_two_nonsimple_via_truncation(g, 5, force=True),
    ):
        with pytest.raises(TooLarge, match="24 vertices exceed the subset-DP bound 22"):
            sweep()


def test_two_nonsimple_guards(monkeypatch):
    g = lattice_of(q1(4).spec).graph()  # three nonsimple vertices
    with pytest.raises(ValueError):
        reconstruct_two_nonsimple(g, 4)
    # The route checks the enumeration bound once, in reconstruct; a sweep
    # knows only the subset-DP bound, so on K14, the 13-simplex's graph,
    # the shared family is the 12 facets through 0 and 1 of all 14.
    big = Graph(14, [(i, j) for i in range(14) for j in range(i + 1, 14)])
    shared = tuple(sorted(tuple(w for w in range(14) if w != x) for x in range(2, 14)))
    assert find_facets_avoiding(big, 13, 0, 1, "uv") == (shared, 14)
    # force=True is the only override; the environment does not lift the
    # bound.  An edgeless graph keeps the sweep short if it ever runs.
    monkeypatch.setenv("SKELRECON_MAX_N", "20")
    edgeless = Graph(14, [])
    with pytest.raises(TooLarge, match="14 vertices exceed the enumeration bound 12"):
        next(enumerate_acyclic_orientations(edgeless))
    o = next(enumerate_acyclic_orientations(edgeless, force=True))
    assert o.anc == tuple(1 << v for v in range(14))


# -- the truncation route ------------------------------------------------------


@pytest.mark.parametrize(
    "spec,d",
    [
        (multifold_pyramid(cube(2), 2), 4),
        (multifold_pyramid(polygon_prism(3), 2), 5),
        (PRISM_OVER_PYRAMID, 4),
        (SPLIT_CUBE, 3),
    ],
    ids=("square", "triprism", "prism-pyr", "split-cube"),
)
def test_truncation_route(spec, d):
    lat = build_face_lattice(spec)
    got = reconstruct_two_nonsimple_via_truncation(lat.graph(), d)
    assert got == lat.facets


def test_cross_method_agreement():
    for spec, d in [
        (multifold_pyramid(cube(2), 2), 4),
        (multifold_pyramid(polygon_prism(3), 2), 5),
    ]:
        lat = build_face_lattice(spec)
        g = lat.graph()
        assert (
            reconstruct_two_nonsimple(g, d)
            == reconstruct_two_nonsimple_via_truncation(g, d)
            == lat.facets
        )


def test_reconstruct_picks_the_route_from_the_nonsimple_count():
    lat = lattice_of(pyramid(cube(3)))
    for method in ("claims", "truncation", "both"):
        assert recong.reconstruct(lat.graph(), 4, method) == GraphReconstruction(
            lat.facets, ("two-system size 18",)
        )
    lat = lattice_of(multifold_pyramid(cube(2), 2))
    g = lat.graph()
    both = recong.reconstruct(g, 4)
    assert both == recong.reconstruct(g, 4, "claims")
    assert both.facets == lat.facets
    assert both.families == facet_families(g, 4)
    assert both.certificate == (
        "family counts u/v/neither/both: 1 1 0 4",
        "minimum avoiding v: 1",
        "minimum avoiding u: 1",
        "shared-family minimum: 6",
    )
    assert recong.reconstruct(g, 4, "truncation") == GraphReconstruction(lat.facets, ())
    with pytest.raises(ValueError, match="unknown method 'claim'"):
        recong.reconstruct(g, 4, "claim")
    bipyr = lattice_of(fixture_corpus()["bipyr_simplex3"]).graph()
    with pytest.raises(TooManyNonsimple, match="^4 nonsimple vertices: graph reconstruction"):
        recong.reconstruct(bipyr, 4)


@pytest.mark.parametrize(
    "shift,message",
    [
        ({"u_minus_v": 1}, "facets avoiding both: 1 via u, 0 via v"),
        ({"u_minus_v": -1, "v_minus_u": -1}, "family minima below family sizes"),
        ({"uv": 1}, "total facet count 6 != shared-family minimum 7"),
    ],
    ids=("minima-do-not-close-up", "minima-below-sizes", "shared-minimum-off"),
)
def test_claims_route_refuses_inconsistent_minima(tmp_path, capsys, monkeypatch, shift, message):
    # Each sweep mode's minimum is moved by ``shift``; the facets stay.
    sweep = recong.find_facets_avoiding

    def shifted(g, d, u, v, mode, **kwargs):
        facets, least = sweep(g, d, u, v, mode, **kwargs)
        return facets, least + shift.get(mode, 0)

    monkeypatch.setattr(recong, "find_facets_avoiding", shifted)
    g = lattice_of(fixture_corpus()["twofold_square"]).graph()
    with pytest.raises(InconsistentCounts) as caught:
        recong.reconstruct(g, 4, "claims")
    assert str(caught.value) == message
    edges = tmp_path / "g.edges"
    edges.write_text(format_edge_list(g))
    assert main(["recong", str(edges), "--dim", "4"]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_truncation_route_refuses_a_truncated_graph_with_many_nonsimple_vertices():
    # K3,3 plus an edge is no polytope graph; the route counts the
    # nonsimple vertices of its truncated graph before reconstructing it.
    with pytest.raises(TooManyNonsimple, match="truncated graph has 6 nonsimple"):
        recong.reconstruct(K33_PLUS_EDGE, 3, "truncation")
    with pytest.raises(TooManyNonsimple):
        reconstruct_two_nonsimple_via_truncation(K33_PLUS_EDGE, 3)


def test_corpus_search_finds_nonadjacent_pair():
    # scan the corpus for a valid spec whose two nonsimple vertices are
    # not adjacent; this drives the missing-edge repair branch
    hits = []
    for name, spec in fixture_corpus().items():
        lat = lattice_of(spec)
        classes = classify_vertices(lat)
        if len(classes.nonsimple) != 2:
            continue
        u, v = sorted(classes.nonsimple)
        if not lat.graph().has_edge(u, v):
            hits.append((name, spec))
    assert [name for name, _ in hits] == ["skew_solid"]


def test_truncation_route_nonadjacent_pair_repairs_missing_edge():
    # truncating at peak 0 of the skew solid must miss the edge coming
    # from the one 2-face through both peaks, then repair it by degree
    lat = lattice_of(SKEW_SOLID)
    g = lat.graph()
    u, v = sorted(classify_vertices(lat).nonsimple)
    assert not g.has_edge(u, v)
    shared_2faces = [f for f in lat.faces_by_rank[2] if {u, v}.issubset(f)]
    assert len(shared_2faces) == 1  # so exactly one edge needs repair
    got = reconstruct_two_nonsimple_via_truncation(g, 3)
    assert got == lat.facets


def test_truncation_route_joins_the_two_deficient_vertices(tmp_path, capsys, monkeypatch):
    # Truncating at u cuts the one 2-face through both u and v without
    # knowing it, so that face's new edge is missing, and the route adds
    # it between the two vertices of degree d-1 the cut leaves.
    spec = truncated_antiprism()
    lat = lattice_of(spec)
    g = lat.graph()
    u, v = sorted(classify_vertices(lat).nonsimple)
    assert spec.n == 18 and not g.has_edge(u, v)
    assert sum({u, v}.issubset(f) for f in lat.faces_by_rank[2]) == 1
    cut, reconstructed = [], []
    truncated_graph, reconstruct = recong._truncated_graph, recong.reconstruct

    def cut_spy(*args):
        truncated, tmap = truncated_graph(*args)
        cut.append(truncated)
        return truncated, tmap

    def reconstruct_spy(graph, *args, **kwargs):
        reconstructed.append(graph)
        return reconstruct(graph, *args, **kwargs)

    monkeypatch.setattr(recong, "_truncated_graph", cut_spy)
    monkeypatch.setattr(recong, "reconstruct", reconstruct_spy)
    edges = tmp_path / "g.edges"
    edges.write_text(format_edge_list(g))
    argv = ["recong", str(edges), "--dim", "3", "--method", "truncation", "--force"]
    assert main(argv) == 0
    assert capsys.readouterr().out == format_spec(spec)
    # the outer call, then the repaired truncated graph
    (truncated,), (_, repaired) = cut, reconstructed
    (added,) = set(repaired.edges) - set(truncated.edges)
    assert len(repaired.edges) == len(truncated.edges) + 1
    assert [truncated.degree(w) for w in added] == [2, 2]


# Both two-nonsimple routes, each on the inputs it handles quickly.
_RELABEL_CASES = (
    ("claims", multifold_pyramid(cube(2), 2), 4),
    ("truncation", SPLIT_CUBE, 3),
    ("truncation", SKEW_SOLID, 3),
)


def _two_nonsimple_route(method, g, d):
    if method == "claims":
        return facet_families(g, d).all_facets
    return reconstruct_two_nonsimple_via_truncation(g, d)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_two_nonsimple_routes_commute_with_relabeling(data):
    method, spec, d = data.draw(st.sampled_from(_RELABEL_CASES))
    perm = data.draw(st.permutations(range(spec.n)))
    g = lattice_of(spec).graph()
    relabeled = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    want = tuple(sorted(
        tuple(sorted(perm[v] for v in f)) for f in _two_nonsimple_route(method, g, d)
    ))
    assert _two_nonsimple_route(method, relabeled, d) == want


@lru_cache(maxsize=None)
def _at_most_two_nonsimple():
    """The corpus polytopes with at most two nonsimple vertices."""
    return tuple(
        spec for _, spec in sorted(fixture_corpus().items())
        if len(classify_vertices(lattice_of(spec)).nonsimple) <= 2
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_reconstruct_facets_are_canonical(data):
    # Relabeled corpus graphs, one-edge changes of them, random graphs and
    # K33_PLUS_EDGE, under every method: whatever facet list a route
    # returns is already canonical, as the CLI writes it without a check.
    kind = data.draw(st.sampled_from(("corpus", "one_edge", "random", "k33")))
    if kind == "random":
        n = data.draw(st.integers(min_value=5, max_value=9))
        pairs = list(itertools.combinations(range(n), 2))
        g = Graph(n, data.draw(st.lists(st.sampled_from(pairs), min_size=n, max_size=2 * n, unique=True)))
        d = data.draw(st.integers(min_value=3, max_value=4))
    elif kind == "k33":
        g, d = K33_PLUS_EDGE, 3
    else:
        spec = data.draw(st.sampled_from(_at_most_two_nonsimple()))
        perm = data.draw(st.permutations(range(spec.n)))
        edges = {tuple(sorted((perm[u], perm[v]))) for u, v in lattice_of(spec).graph().edges}
        if kind == "one_edge":
            edges ^= {data.draw(st.sampled_from(list(itertools.combinations(range(spec.n), 2))))}
        g, d = Graph(spec.n, edges), spec.d
    method = data.draw(st.sampled_from(("claims", "truncation", "both")))
    try:
        facets = recong.reconstruct(g, d, method).facets
    except (SkelreconError, ValueError) as exc:
        event(f"{kind}: {type(exc).__name__}")
        return
    event(f"{kind}: facets, {len(classify_vertices(g, d).nonsimple)} nonsimple, {method}")
    assert PolytopeSpec(d, g.n, facets).facets == facets


def _relabeled(spec, seed):
    """``spec`` with its vertices relabeled by the permutation that
    ``seed`` draws; seed None keeps the labels."""
    if seed is None:
        return spec
    perm = random.Random(seed).sample(range(spec.n), spec.n)
    return PolytopeSpec(spec.d, spec.n, [[perm[v] for v in f] for f in spec.facets])


@pytest.mark.parametrize("n", range(8, 12))
def test_recong_on_relabeled_duals_of_cyclic_4_polytopes(n):
    """C(n, 4)* is simple, with n(n - 3)/2 vertices and 2-faces of sizes 3,
    4 and n - 2.  Under one fixed relabeling each gives back its facets.
    Some other relabelings of C(11, 4)* are still refused (TooLarge): the
    first pass misses a long 2-face and the fallback refuses 44 vertices
    (ROADMAP item 13)."""
    lat = lattice_of(_relabeled(dual(cyclic(n, 4)), n))
    assert max(map(len, lat.faces_by_rank[2])) == n - 2
    result = recong.reconstruct(lat.graph(), 4)
    assert result.facets == lat.facets
    assert result.certificate == (f"two-system size {len(lat.faces_by_rank[2])}",)


@pytest.mark.parametrize(
    "seed",
    [
        pytest.param(
            s,
            marks=pytest.mark.xfail(
                raises=TooLarge,
                strict=True,
                reason="ROADMAP item 13: the first pass misses a long 2-face and the "
                "fallback refuses 44 vertices",
            ),
        )
        if s in (2, 6, 9)
        else s
        for s in range(10)
    ],
)
def test_recong_on_relabelings_of_the_dual_of_cyclic_11_4(seed):
    """C(11, 4)* (44 vertices, simple, 9-gon 2-faces) under ten seeded
    relabelings: each gives back its facets."""
    lat = lattice_of(_relabeled(dual(cyclic(11, 4)), seed))
    assert recong.reconstruct(lat.graph(), 4).facets == lat.facets


@pytest.mark.xfail(
    raises=TooLarge,
    strict=True,
    reason="ROADMAP item 13: the first pass misses a long 2-face and the "
    "fallback refuses 54 to 170 vertices",
)
@pytest.mark.parametrize("seed", [None, 0], ids=["identity", "seed0"])
@pytest.mark.parametrize(
    "name", ["C12_4", "C20_4", "C12_5", "C12_6", "pyramid_C12_4"]
)
def test_recong_on_duals_of_cyclic_polytopes_with_long_two_faces(name, seed):
    """C(12, 4)*, C(20, 4)*, C(12, 5)*, C(12, 6)* and the pyramid over
    C(12, 4)*, as labeled and under one seeded relabeling: each gives back
    its facets.  recon2 rebuilds them all from their 2-skeletons."""
    base = {
        "C12_4": lambda: dual(cyclic(12, 4)),
        "C20_4": lambda: dual(cyclic(20, 4)),
        "C12_5": lambda: dual(cyclic(12, 5)),
        "C12_6": lambda: dual(cyclic(12, 6)),
        "pyramid_C12_4": lambda: pyramid(dual(cyclic(12, 4))),
    }[name]()
    lat = lattice_of(_relabeled(base, seed))
    assert recong.reconstruct(lat.graph(), lat.d).facets == lat.facets


@pytest.mark.xfail(
    raises=TooLarge,
    strict=True,
    reason="ROADMAP item 13: the truncated simple polytope's 48 vertices lose "
    "their 8-gons from the first pass's rows",
)
def test_forced_recong_on_the_twofold_pyramid_over_prism_8():
    """The twofold pyramid over prism(8), d = 5, with its two apexes as the
    nonsimple vertices: forced past the bound of 12, the default method
    gives back its facets."""
    lat = lattice_of(multifold_pyramid(polygon_prism(8), 2))
    assert lat.d == 5
    assert recong.reconstruct(lat.graph(), 5, force=True).facets == lat.facets


def test_truncation_route_answers_only_with_the_graphs_own_edges():
    """An 11-vertex graph that is not 3-connected, so no 3-polytope graph
    (Balinski), with two non-adjacent nonsimple vertices: the truncation
    route must refuse it or return facets whose lattice has exactly its
    edges as rank-1 faces."""
    pairs = "0-3 0-6 0-7 0-8 1-2 1-5 1-6 1-8 1-10 2-4 2-9 3-6 3-7 4-5 4-9 5-9 7-10 8-10"
    g = Graph(11, [tuple(map(int, p.split("-"))) for p in pairs.split()])
    try:
        facets = recong.reconstruct(g, 3, "truncation").facets
    except SkelreconError:
        return
    lat = lattice_of(PolytopeSpec(3, g.n, facets))
    assert sorted(map(vertices_of, lat.masks_of_rank(1))) == list(g.edges)


def test_reconstruct_answers_an_only_2_connected_graph_only_with_its_edges():
    """An 8-vertex graph that is only 2-connected, so no 3-polytope graph
    (Balinski): `reconstruct` at d = 3 must refuse it or return facets
    whose lattice has exactly its edges as rank-1 faces.  Its maximum
    2-system holds (0, 3, 4, 5, 6, 7) and (1, 2, 3, 4, 6, 7), whose
    lattice's graph() would raise NotAnEdge on the rank-1 face
    (3, 4, 6, 7); recon2's face rule refuses the two 2-faces, as they
    meet in two edges."""
    pairs = "0-1 0-6 0-7 1-6 1-7 2-3 2-4 2-5 3-5 3-6 4-5 4-7"
    g = Graph(8, [tuple(map(int, p.split("-"))) for p in pairs.split()])
    try:
        facets = recong.reconstruct(g, 3).facets
    except SkelreconError:
        return
    assert lattice_of(PolytopeSpec(3, g.n, facets)).graph().edges == g.edges


# 4-connected, with two adjacent nonsimple vertices 6 and 7 of degree 5.
EIGHT_VERTEX_GRAPH = Graph(8, [
    tuple(map(int, p.split("-")))
    for p in "0-2 0-3 0-4 0-7 1-2 1-4 1-5 1-6 2-3 2-7 3-6 3-7 4-5 4-6 5-6 5-7 6-7".split()
])


@pytest.mark.parametrize("method", ["claims", "truncation", "both"])
def test_two_nonsimple_answer_without_the_graphs_edge_is_refused(method):
    """Every method finds six facets here whose face lattice has no edge
    6-7, so each must refuse the graph and name that edge."""
    g = EIGHT_VERTEX_GRAPH
    assert classify_vertices(g, 4).nonsimple == {6, 7}
    assert k_connected(g, 4)
    with pytest.raises(GraphMismatch) as info:
        recong.reconstruct(g, 4, method)
    assert str(info.value) == "the facets found have no edge (6, 7), which the graph has"


def test_graph_mismatch_names_the_first_edge_only_one_graph_has():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(GraphMismatch) as info:
        recong._require_graph(g, Graph(4, [(0, 1), (0, 3), (1, 2), (2, 3)]))
    assert str(info.value) == "the facets found have an edge (0, 3), which the graph lacks"
    with pytest.raises(GraphMismatch) as info:
        recong._require_graph(g, Graph(4, [(0, 1), (1, 3), (2, 3)]))
    assert str(info.value) == "the facets found have no edge (1, 2), which the graph has"
    recong._require_graph(g, Graph(4, [(2, 3), (0, 1), (1, 2)]))


def _graph_with_degrees(rng, degrees):
    """A random simple graph with the given degrees, or None when the
    greedy pairing gets stuck: the vertex with the most free stubs joins
    that many others with free stubs, drawn at random."""
    n = len(degrees)
    free = list(degrees)
    nbrs = [set() for _ in range(n)]
    while any(free):
        x = max(range(n), key=lambda w: (free[w], rng.random()))
        options = [y for y in range(n) if y != x and free[y] and y not in nbrs[x]]
        if len(options) < free[x]:
            return None
        for y in rng.sample(options, free[x]):
            nbrs[x].add(y)
            nbrs[y].add(x)
            free[y] -= 1
        free[x] = 0
    return Graph(n, [(a, b) for a in range(n) for b in nbrs[a] if a < b])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_two_nonsimple_answers_have_the_inputs_graph(data):
    """Random graphs on at most 11 vertices with exactly two nonsimple
    vertices, whose degrees exceed d by at most 2 (which keeps the
    truncation route's fallback small): whatever facets a method answers
    with, their face lattice has the input as its graph."""
    d = data.draw(st.sampled_from((3, 4)))
    n = data.draw(st.integers(min_value=d + 2, max_value=11))
    # The degree sum must be even; at n = d + 2 both excesses are 1.
    excess = [e for e in ((1, 1), (1, 2), (2, 1), (2, 2))
              if (d * n + sum(e)) % 2 == 0 and max(e) <= n - 1 - d]
    assume(excess)
    du, dv = data.draw(st.sampled_from(excess))
    rng = data.draw(st.randoms(use_true_random=False))
    g = _graph_with_degrees(rng, [d + du, d + dv] + [d] * (n - 2))
    assume(g is not None)
    assert len(classify_vertices(g, d).nonsimple) == 2
    for method in ("claims", "truncation", "both"):
        try:
            facets = recong.reconstruct(g, d, method).facets
        except (SkelreconError, ValueError) as exc:
            event(f"{method}: {type(exc).__name__}")
            continue
        event(f"{method}: facets")
        assert build_face_lattice(PolytopeSpec(d, g.n, facets)).graph().edges == g.edges


@pytest.mark.parametrize(
    "case",
    [c for c in truncation_pairs() if len(c[1]) <= 2],
    ids=lambda c: f"{c[0]!r}@{c[1]}",
)
def test_graph_truncation_shares_the_lattice_truncations_labeling(case):
    """The truncation route's graph, built from the graph and the 2-faces
    meeting the face, is the graph of the facet truncation, under the same
    labels."""
    spec, face = case
    lat = lattice_of(spec)
    fmask = mask_of(face)
    meeting = [s for s in lat.masks_of_rank(2) if s & fmask]
    truncated, tmap = recong._truncated_graph(lat.graph(), face, meeting)
    out, want = truncate(lat, face)
    assert truncated.edges == build_face_lattice(out).graph().edges
    assert (tmap.face, tmap.old_to_new, tmap.new_from_edge) == (
        want.face, want.old_to_new, want.new_from_edge
    )


def test_eq1_breakdown_consistency():
    for spec, d in [
        (multifold_pyramid(cube(2), 2), 4),
        (PRISM_OVER_PYRAMID, 4),
    ]:
        lat = build_face_lattice(spec)
        families = facet_families(lat.graph(), d)
        a, b, c, e = families.counts
        assert a + b + c + e == len(lat.facets)
        assert families.min_u == a + c
        assert families.min_v == b + c
