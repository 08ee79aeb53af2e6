import itertools
import math
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skelrecon import (
    Graph,
    build_face_lattice,
    classify_vertices,
    cube,
    enumerate_acyclic_orientations,
    induced_cycles,
    is_feasible,
    k_connected,
    k_skeleton,
    min_two_face_score,
    polygon_prism,
    q1,
    q2,
    simplex,
    two_face_witness,
)
from skelrecon.errors import TooLarge
from skelrecon.graphs import (
    OrderCosts,
    _disjoint_paths,
    mask_of,
    shortest_frame_cycle,
    vertices_of,
)

from conftest import PRISM_OVER_PYRAMID, fixture_corpus, lattice_of
from oracles import (
    acyclic_orientation_count,
    brute_force_chordless_cycles,
    brute_force_orientations,
    edge_directions,
    is_good,
    mask_shortest_frame_cycle,
    nx_k_connected,
    nx_local_connectivity,
    objectives,
    orientation_from_order,
    reference_ancestors,
    reference_graph,
    reference_induced,
    reference_placing_after,
    scan_two_face_order,
    sinks_in,
    two_face_score_of_order,
)


def complete_graph(m):
    return Graph(m, itertools.combinations(range(m), 2))


def path_graph(m):
    return Graph(m, [(i, i + 1) for i in range(m - 1)])


def cycle_graph(m):
    return Graph(m, [(i, (i + 1) % m) for i in range(m)])


def count_orientations(g, predicate=None):
    return sum(1 for _ in enumerate_acyclic_orientations(g, predicate))


def test_triangle_has_six_orientations():
    assert count_orientations(complete_graph(3)) == 6


def test_path3_orientation_count_matches_chromatic_oracle():
    g = path_graph(3)
    assert acyclic_orientation_count(g) == 4
    assert count_orientations(g) == 4


def test_c4_source_filter_count():
    g = cycle_graph(4)
    brute = brute_force_orientations(g)
    assert len(brute) == 14
    assert count_orientations(g) == 14
    # all four edge-direction choices with both 0-edges leaving 0 are acyclic
    def source_at_0(dirs):
        return all(
            low_to_high == (u == 0)
            for (u, v), low_to_high in zip(g.edges, dirs)
            if 0 in (u, v)
        )
    want = sum(1 for dirs in brute if source_at_0(dirs))
    assert want == 4
    assert count_orientations(g, lambda o: o.indegree[0] == 0) == 4


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_complete_graph_orientation_count_is_factorial(m):
    assert count_orientations(complete_graph(m)) == math.factorial(m)


@pytest.mark.parametrize(
    "g, brute",
    [(cycle_graph(5), True), (lattice_of(PRISM_OVER_PYRAMID).graph(), False)],
    ids=["c5", "prism_over_pyramid"],
)
def test_no_duplicate_signatures(g, brute):
    # The ancestor masks determine every edge direction, so they identify
    # the orientation.
    orientations = list(enumerate_acyclic_orientations(g))
    keys = [o.anc for o in orientations]
    assert len(keys) == len(set(keys)) == acyclic_orientation_count(g)
    if brute:
        assert {edge_directions(o) for o in orientations} == set(
            brute_force_orientations(g)
        )


@pytest.mark.parametrize(
    "first, last, predicate",
    [
        # On c5 every vertex has degree 2: a sink has indegree 2.
        ((0,), (3,), lambda o: o.indegree[0] == 0 and o.indegree[3] == 2),
        # 0 -> 1 is 1's only in-arc.
        ((0, 1), (), lambda o: o.indegree[0] == 0 and o.anc[1] >> 0 & 1 and o.indegree[1] == 1),
        ((0,), (1,), lambda o: o.indegree[0] == 0 and o.indegree[1] == 2),
    ],
    ids=["source_and_sink", "adjacent_firsts", "first_to_last_edge"],
)
def test_pinned_enumeration_matches_filter(first, last, predicate):
    g = cycle_graph(5)
    pinned = {
        o.anc
        for o in enumerate_acyclic_orientations(g, first=first, last=last)
    }
    filtered = {
        o.anc
        for o in enumerate_acyclic_orientations(g, predicate)
    }
    assert pinned == filtered


def test_enumeration_guard():
    g = path_graph(15)
    with pytest.raises(TooLarge):
        list(enumerate_acyclic_orientations(g))
    assert count_orientations(path_graph(4)) == 8  # within default bound


def test_objectives_on_k4():
    g = complete_graph(4)
    o = orientation_from_order(g, (0, 1, 2, 3))
    scores = objectives(o, 3, range(4))
    assert scores.two_face_score == 4      # two-faces of the tetrahedron
    assert scores.kalai_score == 15        # nonempty faces of the 3-simplex
    assert scores.simple_sink_score == 1 + 3


def test_is_good_k4_linear_order():
    g = complete_graph(4)
    o = orientation_from_order(g, (0, 1, 2, 3))
    assert is_good(o, simplex(3).facets)


def test_is_good_square_two_sinks():
    g = cycle_graph(4)
    o = orientation_from_order(g, (0, 2, 1, 3))  # 1 and 3 are both sinks of the square
    assert not is_good(o, [(0, 1, 2, 3)])


def test_kalai_minimisers_of_cube_graph_are_good():
    lat = lattice_of(cube(3))
    g = lat.graph()
    facets = lat.facets
    best = None
    for o in enumerate_acyclic_orientations(g):
        k = objectives(o, 3, range(8)).kalai_score
        best = k if best is None else min(best, k)
    total_faces = sum(lat.f_vector) + 1  # proper faces plus the cube itself
    assert best == total_faces
    for o in enumerate_acyclic_orientations(g):
        if objectives(o, 3, range(8)).kalai_score == best:
            assert is_good(o, facets)


def test_ancestors_of_source_and_sink():
    g = complete_graph(4)
    o = orientation_from_order(g, (2, 0, 3, 1))
    assert vertices_of(o.anc[2]) == (2,)
    assert vertices_of(o.anc[1]) == (0, 1, 2, 3)


def test_ancestors_form_initial_sets():
    rng = random.Random(7)
    orientations = []
    for _ in range(25):
        n = rng.randint(3, 7)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.6]
        g = Graph(n, edges)
        order = list(range(n))
        rng.shuffle(order)
        orientations.append(orientation_from_order(g, order))
    # Enumerated orientations, unpinned and with first/last pins.
    for _ in range(12):
        n = rng.randint(3, 8)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        g = Graph(n, edges)
        ends = rng.sample(range(n), 3)
        for first, last in [((), ()), ((ends[0],), (ends[1],)), (tuple(ends[:2]), (ends[2],))]:
            orientations += enumerate_acyclic_orientations(g, first=first, last=last)
    for o in orientations:
        for x in range(o.graph.n):
            anc = frozenset(vertices_of(o.anc[x]))
            assert anc == reference_ancestors(o, x)
            for v in anc:
                for w in o.graph.adj[v]:
                    if o.anc[v] >> w & 1:
                        assert w in anc  # no edge enters an ancestor set
            assert sinks_in(o, anc) == [x]


def test_feasible_cube4_facets():
    lat = lattice_of(cube(4))
    g = lat.graph()
    simple = mask_of(classify_vertices(lat).simple)
    for f in lat.facets:
        assert is_feasible(g, mask_of(f), 4, simple)
    u, v = g.edges[0]
    assert not is_feasible(g, 1 << u | 1 << v, 4, simple)
    assert not is_feasible(g, 0, 4, simple)


def test_feasible_q1_type_a_facet():
    lat = lattice_of(q1(4).spec)
    g = lat.graph()
    simple = mask_of(classify_vertices(lat).simple)
    assert is_feasible(g, mask_of((0, 2, 4, 6)), 4, simple)


@settings(max_examples=30, deadline=None)
@given(st.permutations(list(range(8))))
def test_feasibility_is_relabeling_invariant(perm):
    lat = lattice_of(cube(3))
    g = lat.graph()
    simple = classify_vertices(lat).simple
    relabeled = Graph(8, [(perm[u], perm[v]) for u, v in g.edges])
    new_simple = mask_of(perm[v] for v in simple)
    for f in lat.facets:
        image = mask_of(perm[v] for v in f)
        assert is_feasible(g, mask_of(f), 3, mask_of(simple)) == is_feasible(
            relabeled, image, 3, new_simple
        )


def test_k_connected_examples():
    assert k_connected(complete_graph(5), 4)
    assert not k_connected(path_graph(4), 2)
    g6 = lattice_of(q1(6).spec).graph()
    assert k_connected(g6, 6)


def test_k_connected_matches_networkx():
    rng = random.Random(3)
    graphs = []
    for _ in range(20):
        n = rng.randint(4, 8)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.55]
        graphs.append(Graph(n, edges))
    for _ in range(60):
        n = rng.randint(1, 10)
        density = rng.choice((0.3, 0.55, 0.8, 0.95))
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
        graphs.append(Graph(n, edges))
    # Complete graphs have no cut; n <= k graphs may still have one.
    graphs += [complete_graph(n) for n in range(1, 9)]
    graphs += [path_graph(3), cycle_graph(4), cycle_graph(5), Graph(2, []), Graph(1, [])]
    graphs += [lattice_of(spec).graph() for spec in fixture_corpus().values()]
    for g in graphs:
        for k in range(0, 7):
            assert k_connected(g, k) == nx_k_connected(g, k), (g.n, g.edges, k)
    # Polytope graphs relabeled, at the thresholds around their dimension d.
    for spec in (cube(4), cube(5), q1(6).spec, q2(6).spec, polygon_prism(6), q1(8).spec):
        g = lattice_of(spec).graph()
        for _ in range(3):
            perm = rng.sample(range(g.n), g.n)
            h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
            for k in (spec.d - 1, spec.d, spec.d + 1):
                assert k_connected(h, k) == nx_k_connected(h, k), (spec, perm, k)


def test_k_connected_tests_the_neighbour_pairs():
    # Two K5s joined only through vertex 0, of least degree, with two
    # neighbours in each: 0 is a cut vertex, yet 0 has 2 disjoint paths
    # to every vertex not adjacent to it.
    g = Graph(11, [*itertools.combinations(range(1, 6), 2),
                   *itertools.combinations(range(6, 11), 2),
                   (0, 1), (0, 2), (0, 6), (0, 7)])
    assert k_connected(g, 1)
    assert not k_connected(g, 2)


def test_k_connected_flow_count(monkeypatch):
    # v of least degree delta: n - delta - 1 non-neighbours plus at most
    # C(delta, 2) neighbour pairs.
    g = lattice_of(cube(5)).graph()
    calls = []

    def spy(*args):
        calls.append(args)
        return _disjoint_paths(*args)

    monkeypatch.setattr("skelrecon.graphs._disjoint_paths", spy)
    assert k_connected(g, 5)
    bound = g.n - 5 - 1 + math.comb(5, 2)
    assert bound == 36 and len(calls) <= bound


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=2, max_value=10),
    st.sampled_from((0.3, 0.55, 0.8, 0.95)),
    st.integers(min_value=0, max_value=10_000),
)
def test_disjoint_paths_matches_networkx(n, density, seed):
    rng = random.Random(seed)
    g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < density])
    for s, t in itertools.permutations(range(n), 2):
        if not g.has_edge(s, t):
            paths = nx_local_connectivity(g, s, t)
            for k in range(1, 7):
                assert _disjoint_paths(g, s, t, k) == min(k, paths), (g.edges, s, t, k)


def test_seeded_flow_stops_at_k_below_the_common_neighbour_count():
    # K_{2,5}: the two hubs 0 and 1 share all five other vertices.
    g = Graph(7, [(h, w) for h in (0, 1) for w in range(2, 7)])
    assert (g.masks[0] & g.masks[1]).bit_count() == 5
    assert nx_local_connectivity(g, 0, 1) == 5
    for k in range(1, 8):
        assert _disjoint_paths(g, 0, 1, k) == min(k, 5)


def test_seeded_flow_counts_a_direct_edge_once():
    # s = 0 and t = 1 adjacent, with common neighbours 2 and 3 and a
    # longer path 0-4-5-1.
    g = Graph(6, [(0, 1), (0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 5), (5, 1)])
    assert nx_local_connectivity(g, 0, 1) == 4
    for k in range(1, 7):
        assert _disjoint_paths(g, 0, 1, k) == _disjoint_paths(g, 1, 0, k) == min(k, 4)


def test_seeded_flow_on_complete_graphs():
    for n in range(2, 8):
        g = complete_graph(n)
        for s, t in itertools.permutations(range(n), 2):
            paths = nx_local_connectivity(g, s, t)
            assert paths == n - 1
            for k in range(1, n + 2):
                assert _disjoint_paths(g, s, t, k) == min(k, paths), (n, s, t, k)


def test_flow_clears_a_vertex_its_augmenting_path_empties():
    # From s = 15 to t = 4 the augmenting paths are 15-9-10-3-4, then
    # 15-16-17-3 which walks back over 10-3, 10's own arc and 9-10 and
    # leaves by 9-8-0-1-4, emptying 10, then 15-14-13-12-11-10-3 back over
    # 17-3 and on by 17-18-2-7-6-5-4 through the emptied 10.  Had the
    # cancel step left 10's stale pred in place, the third search would
    # turn back at 10 and stop at two paths.
    g = Graph(19, [
        (0, 1), (0, 8), (1, 4), (2, 7), (2, 18), (3, 4), (3, 10), (3, 17),
        (4, 5), (5, 6), (6, 7), (8, 9), (9, 10), (9, 15), (10, 11), (11, 12),
        (12, 13), (13, 14), (14, 15), (15, 16), (16, 17), (17, 18),
    ])
    assert nx_local_connectivity(g, 15, 4) == 3
    for k in range(1, 5):
        assert _disjoint_paths(g, 15, 4, k) == min(k, 3)


def test_flow_reroutes_a_greedy_three_path_seed():
    # 0 and 5 share no neighbour.  The first 3-path seed is 0-1-3-5, and
    # then 2's one way on, 3, is taken: the second path, 0-2-3-5 beside
    # 0-1-4-5, exists only once an augmenting path cancels 1 -> 3.
    g = Graph(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (3, 5), (4, 5)])
    assert not g.masks[0] & g.masks[5]
    assert nx_local_connectivity(g, 0, 5) == 2
    for k in range(1, 5):
        assert _disjoint_paths(g, 0, 5, k) == min(k, 2)


def test_flow_without_common_neighbours_matches_networkx():
    # No seed applies: antipodes of even cycles and of cube graphs, the
    # ends of a path, and pairs in different components.
    graphs = [cycle_graph(6), cycle_graph(8), path_graph(5), Graph(4, [(0, 1), (2, 3)])]
    graphs += [lattice_of(cube(d)).graph() for d in (3, 4)]
    seen = 0
    for g in graphs:
        for s, t in itertools.permutations(range(g.n), 2):
            if g.masks[s] & g.masks[t] or g.has_edge(s, t):
                continue
            seen += 1
            paths = nx_local_connectivity(g, s, t)
            for k in range(1, 6):
                assert _disjoint_paths(g, s, t, k) == min(k, paths), (g.edges, s, t, k)
    assert seen > 100


def test_induced_subgraph_matches_the_edge_scan():
    rng = random.Random("induced")
    for _ in range(200):
        n = rng.randint(1, 24)
        density = rng.random()
        g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < density])
        for _ in range(5):
            chosen = rng.sample(range(n), rng.randint(0, n)) * rng.randint(1, 2)
            assert g.induced(chosen) == reference_induced(g, chosen), (g.edges, chosen)


@st.composite
def messy_edge_lists(draw):
    """n and an edge list with duplicates, reversed pairs and, sometimes,
    loops or endpoints outside 0..n-1 at random places."""
    n = draw(st.integers(0, 8))
    edges = []
    if n > 1:
        vertex = st.integers(0, n - 1)
        edge = st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1])
        edges = draw(st.lists(edge, min_size=1, max_size=16))
        edges += draw(st.lists(st.sampled_from(edges), max_size=4))
        edges += [(v, u) for u, v in draw(st.lists(st.sampled_from(edges), max_size=4))]
    edges = list(draw(st.permutations(edges)))
    anywhere = st.integers(-2, n + 2)
    bad = st.one_of(
        anywhere.map(lambda v: (v, v)),
        st.tuples(anywhere, st.sampled_from([-1, n, n + 2])),
        st.tuples(st.sampled_from([-2, n + 1]), anywhere),
    )
    for e in draw(st.lists(bad, max_size=2)) if draw(st.booleans()) else ():
        edges.insert(draw(st.integers(0, len(edges))), e)
    return n, edges


def _graph_or_error(build, n, edges):
    try:
        return build(n, edges)
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=300, deadline=None)
@given(messy_edge_lists(), st.data())
def test_graph_matches_reference_constructor(case, data):
    n, edges = case
    got = _graph_or_error(Graph, n, iter(edges))
    ref = _graph_or_error(reference_graph, n, edges)
    if isinstance(ref, str):
        assert got == ref
        return
    assert (got.n, got.adj) == (ref.n, ref.adj)
    assert hash(got) == hash((ref.n, ref.edges))
    assert got.edges == ref.edges
    # A shuffled, partly reversed copy with up to two edges dropped.
    other = [
        (v, u) if flip else (u, v)
        for (u, v), flip in zip(
            data.draw(st.permutations(edges)),
            data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges))),
        )
    ][data.draw(st.integers(0, min(2, len(edges)))):]
    assert (Graph(n, other) == got) == (reference_graph(n, other).edges == ref.edges)
    assert Graph(n + 1, edges) != got


def test_induced_cycles_k4():
    got = induced_cycles(complete_graph(4))
    assert got == [mask_of(c) for c in itertools.combinations(range(4), 3)]


def test_induced_cycles_c6():
    assert induced_cycles(cycle_graph(6)) == [0b111111]


def test_induced_cycles_cube_matches_subset_oracle():
    g = lattice_of(cube(3)).graph()
    got = {frozenset(vertices_of(c)) for c in induced_cycles(g)}
    assert got == brute_force_chordless_cycles(g)
    lengths = sorted(len(c) for c in got)
    assert lengths == [4] * 6 + [6] * 4  # six squares, four skew hexagons


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_induced_cycles_random_graphs(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 7)
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
    g = Graph(n, edges)
    cycles = induced_cycles(g)
    assert cycles == sorted(cycles, key=lambda c: (c.bit_count(), vertices_of(c)))
    assert {frozenset(vertices_of(c)) for c in cycles} == brute_force_chordless_cycles(g)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_shortest_frame_cycle_is_a_shortest_chordless_cycle_through_the_frame(seed):
    # Against the subset oracle: a chordless cycle passes a-w-b when it
    # holds w, a and b and no other neighbour of w.
    rng = random.Random(seed)
    n = rng.randint(3, 8)
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < rng.random()]
    g = Graph(n, edges)
    cycles = [mask_of(c) for c in brute_force_chordless_cycles(g)]
    for w in range(n):
        for a, b in itertools.combinations(g.adj[w], 2):
            leaves = 1 << a | 1 << b
            through = [c for c in cycles if c >> w & 1 and g.masks[w] & c == leaves]
            got = shortest_frame_cycle(g, w, a, b)
            got = None if got is None else mask_of(got)
            if through:
                assert got in through
                assert got.bit_count() == min(c.bit_count() for c in through)
            else:
                assert got is None


def test_shortest_frame_cycle_gives_the_prism_faces():
    # In the hexagonal prism the frame along a hexagon has the hexagon as
    # its shortest cycle; the way round the other hexagon is longer.
    lat = lattice_of(polygon_prism(6))
    g = lat.graph()
    faces = [mask_of(f) for f in lat.faces_by_rank[2]]
    for w in range(g.n):
        for a, b in itertools.combinations(g.adj[w], 2):
            frame = 1 << w | 1 << a | 1 << b
            assert [mask_of(shortest_frame_cycle(g, w, a, b))] == [
                f for f in faces if f & frame == frame
            ]


@lru_cache(maxsize=None)
def _corpus_graphs():
    return {name: lattice_of(spec).graph() for name, spec in fixture_corpus().items()}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_shortest_frame_cycle_is_the_mask_search_cycle(data):
    # Every frame of a random graph (n <= 12) or of a relabeled corpus
    # graph: the same cycle as the layer search over n-bit masks, ties
    # broken alike, or None with it; its vertices come in cycle order,
    # from w and a to b.
    if data.draw(st.booleans()):
        n = data.draw(st.integers(min_value=3, max_value=12))
        pairs = list(itertools.combinations(range(n), 2))
        g = Graph(n, data.draw(st.lists(st.sampled_from(pairs), unique=True)))
    else:
        name = data.draw(st.sampled_from(sorted(_corpus_graphs())))
        base = _corpus_graphs()[name]
        perm = data.draw(st.permutations(range(base.n)))
        g = Graph(base.n, [(perm[u], perm[v]) for u, v in base.edges])
    for w in range(g.n):
        for a, b in itertools.combinations(g.adj[w], 2):
            got = shortest_frame_cycle(g, w, a, b)
            want = mask_shortest_frame_cycle(g, w, a, b)
            if want is None:
                assert got is None
            else:
                assert mask_of(got) == want
                assert got[:2] == (w, a) and got[-1] == b
                assert all(got[i - 1] in g.adj[v] for i, v in enumerate(got))


def brute_min_two_face_score(g, sources=()):
    best = None
    for o in enumerate_acyclic_orientations(g, force=True):
        if any(o.indegree[u] != 0 for u in sources):
            continue
        val = objectives(o, 3, ()).two_face_score
        best = val if best is None else min(best, val)
    return best


def test_min_two_face_score_matches_enumeration():
    rng = random.Random(11)
    for _ in range(15):
        n = rng.randint(3, 6)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.6]
        g = Graph(n, edges)
        assert min_two_face_score(g) == brute_min_two_face_score(g)
        assert min_two_face_score(g, (0,)) == brute_min_two_face_score(g, (0,))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_placing_after_matches_the_full_table(data):
    # Pins may be adjacent, and a vertex may be pinned both ways.
    n = data.draw(st.integers(min_value=1, max_value=9))
    pairs = list(itertools.combinations(range(n), 2))
    g = Graph(n, data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    salt = data.draw(st.integers(0, 2**20))

    def cost(y, p):
        c = random.Random(salt << 32 | y << 24 | p).randrange(5)
        return math.inf if c == 4 else c

    sources, sinks, holding = (
        mask_of(data.draw(st.sets(st.integers(0, n - 1), max_size=3))) for _ in range(3)
    )
    full = (1 << n) - 1
    pinned_sinks = sinks & ~sources
    # holding may hold no pinned sink.
    holding &= ~pinned_sinks
    dp = OrderCosts(g, cost, sources=sources, sinks=sinks, holding=holding)
    reference = reference_placing_after(dp, full)
    if holding & ~sources == 0:
        assert dp.least == reference[0]
    # The table is read only at the sets with every pinned source, every
    # held vertex and no pinned sink.
    held = sources | holding
    for s in range(full + 1):
        if s & held == held and not s & pinned_sinks:
            assert dp.after[s] == reference[s]


def test_min_two_face_score_simplex():
    # unique orientation class: indegrees 0..d over the complete graph
    for d in (3, 4, 5):
        g = complete_graph(d + 1)
        assert min_two_face_score(g) == math.comb(d + 1, 3)


def test_two_face_witness_on_the_cube():
    lat = lattice_of(cube(3))
    g = lat.graph()
    squares = [mask_of(f) for f in lat.faces_by_rank[2]]
    order = two_face_witness(g, (), len(squares))
    assert two_face_score_of_order(g.n, g.edges, (), order) == 6
    o = orientation_from_order(g, order)
    assert all(len(sinks_in(o, f)) == 1 for f in lat.faces_by_rank[2])
    # Every order of the cube has in-pairs, so no order scores 0.
    assert two_face_witness(g, (), 0) is None


def test_two_face_witness_returns_a_score_equal_to_the_cover_size():
    # K(2,3) with parts {0, 2} and {1, 3, 4}: the 4-cycles 0-1-2-3 and
    # 0-3-2-4 share the frame (3; 0, 2), so they are no exact cover, and
    # 3 and 4 are both sinks of the second one under the greedy order
    # 1 0 2 3 4.  Only the score is checked: it is 2, one in-pair each at
    # 3 and 4, so the order comes back for two cycles and not for one.
    g = Graph(5, [(a, b) for a in (0, 2) for b in (1, 3, 4)])
    cycles = [mask_of((0, 1, 2, 3)), mask_of((0, 2, 3, 4))]
    order = two_face_witness(g, (1,), len(cycles))
    assert order == (1, 0, 2, 3, 4)
    assert two_face_score_of_order(5, g.edges, (1,), order) == 2 == len(cycles)
    assert two_face_witness(g, (1,), 1) is None


def _witness_test_graphs():
    """Relabeled corpus graphs with all and with the first of their
    relabeled nonsimple vertices as sources, then prism(400) and cube(7)
    with none and with one source."""
    rng = random.Random(13)
    for name, spec in sorted(fixture_corpus().items()):
        lat = lattice_of(spec)
        g = lat.graph()
        perm = list(range(g.n))
        rng.shuffle(perm)
        relabeled = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        nonsimple = classify_vertices(g, lat.d).nonsimple
        sources = tuple(sorted(perm[v] for v in nonsimple))
        yield name, relabeled, sources
        yield name, relabeled, sources[:1]
    m = 400
    prism = Graph(2 * m, [(i, (i + 1) % m) for i in range(m)]
                  + [(m + i, m + (i + 1) % m) for i in range(m)]
                  + [(i, m + i) for i in range(m)])
    hypercube = Graph(128, [(v, v ^ 1 << b) for v in range(128) for b in range(7) if not v >> b & 1])
    for name, g in (("prism(400)", prism), ("cube(7)", hypercube)):
        yield name, g, ()
        yield name, g, (g.n // 3,)


def test_two_face_witness_order_matches_the_scan():
    for name, g, sources in _witness_test_graphs():
        order = scan_two_face_order(g, sources)
        if order is None:  # two adjacent sources
            assert two_face_witness(g, sources, 0) is None, name
            continue
        score = two_face_score_of_order(g.n, g.edges, sources, order)
        assert two_face_witness(g, sources, score) == order, name
        assert two_face_witness(g, sources, score + 1) is None, name


def test_two_face_witness_keeps_sources_sources():
    g = complete_graph(4)  # every 3 vertices form a chordless cycle
    triangles = [mask_of(t) for t in itertools.combinations(range(4), 3)]
    assert two_face_witness(g, (0, 1), len(triangles)) is None
    order = two_face_witness(g, (2,), len(triangles))
    assert order[0] == 2
    assert two_face_score_of_order(4, g.edges, (2,), order) == 4 == min_two_face_score(g, (2,))

