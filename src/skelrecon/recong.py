"""Facet reconstruction from graphs alone.

One nonsimple vertex: recover the 2-faces as an exact cover of the
simple-rooted 2-frames by induced chordless cycles, certified maximum by
an acyclic orientation whose two-face score equals the cover size (no
cover is larger than any such score).  A greedy vertex order certifies
the first cover found; when there is no cover or no such order, the
subset DP computes the orientation minimum (refused above 22 vertices)
and the search stops at the first cover reaching it.  Graph + 2-faces go
to the 2-skeleton engine.

Two nonsimple vertices u, v: partition the facets into the four families
(containing u only, v only, neither, both) and recover them in that order
by sweeping constrained acyclic-orientation families and harvesting, from
each objective minimiser, the ancestor sets of simple vertices that form
feasible subgraphs.  One harvest rule, over the ancestor bitmasks each
orientation carries, serves every family, and the "neither" and "both"
sweeps admit exactly the orientations whose harvest is nonempty.  A
second, independent route truncates the polytope at uv (or at u when uv
is not an edge), reconstructs the simpler truncated polytope, and pulls
its facets back.

Everything orientation-swept here is exponential by nature; the guard in
:mod:`skelrecon.graphs` refuses graphs beyond the enumeration bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from .constructions import TruncationMap, pullback_facets, truncation_map
from .errors import (
    CertificateMismatch,
    EmptyFamily,
    InconsistentCounts,
    RepairAmbiguous,
)
from .graphs import (
    Graph,
    Orientation,
    check_dp_bound,
    enumerate_acyclic_orientations,
    induced_cycles,
    is_feasible,
    min_two_face_score,
    objectives,
    two_face_witness,
    vertices_of,
)
from .lattice import KSkeleton, classify_vertices
from . import recon2


# ---------------------------------------------------------------------------
# 2-systems by exact cover


@dataclass(frozen=True)
class TwoSystem:
    """An exact cover of the simple-rooted 2-frames by induced cycles.

    ``coverage`` maps each frame, keyed as (root, leaf pair), to the set
    covering it.
    """

    sets: tuple[frozenset[int], ...]
    coverage: dict[tuple[int, frozenset[int]], frozenset[int]]

    @property
    def size(self) -> int:
        return len(self.sets)


def _exact_cover_of_size(
    ncols: int, rows: list[int], target: int
) -> Optional[list[int]]:
    """The first exact cover with at least ``target`` rows, as row indices;
    with ``target`` 0 that is the first exact cover.

    Rows are int column masks.  Backtracking branches on the uncovered
    column with the fewest still-usable rows (lowest index on ties) and
    tries rows in input order; it prunes dead branches and branches that
    cannot reach ``target`` rows.  Returns None when no such cover exists.
    """
    rows_of_col: list[list[tuple[int, int]]] = [[] for _ in range(ncols)]
    for ri, m in enumerate(rows):
        scan = m
        while scan:
            bit = scan & -scan
            scan ^= bit
            rows_of_col[bit.bit_length() - 1].append((ri, m))
    # An exact cover of R columns spends exactly R column-slots, so the
    # number of additional rows is at most the largest k whose k globally
    # smallest row sizes sum to at most R.
    sizes = sorted(m.bit_count() for m in rows)
    reachable = [0] * (ncols + 1)
    k = total = 0
    for budget in range(ncols + 1):
        while k < len(sizes) and total + sizes[k] <= budget:
            total += sizes[k]
            k += 1
        reachable[budget] = k

    chosen: list[int] = []

    def search(uncovered: int) -> bool:
        if len(chosen) + reachable[uncovered.bit_count()] < target:
            return False
        if uncovered == 0:
            return True
        # Most-constrained uncovered column; forced columns cascade first.
        branch: list[tuple[int, int]] = []
        scan = uncovered
        while scan:
            bit = scan & -scan
            scan ^= bit
            col = bit.bit_length() - 1
            usable = [
                (ri, m) for ri, m in rows_of_col[col] if m & uncovered == m
            ]
            if not usable:
                return False
            if not branch or len(usable) < len(branch):
                branch = usable
                if len(branch) == 1:
                    break
        for ri, m in branch:
            chosen.append(ri)
            if search(uncovered & ~m):
                return True
            chosen.pop()
        return False

    return chosen if search((1 << ncols) - 1) else None


def max_two_system(
    g: Graph, d: int, nonsimple: Optional[Iterable[int]] = None
) -> TwoSystem:
    """The maximum family of induced cycles covering each simple-rooted
    2-frame exactly once; for a polytope graph with at most one nonsimple
    vertex these are precisely the 2-face vertex sets.

    Weak duality bounds every exact cover C by the two-face score of every
    acyclic orientation in which the nonsimple vertex is a source: each
    cycle of C has a sink, the sink has in-neighbours, so it is not the
    source and is simple, and its in-pair is a frame that only that cycle
    covers.  So |C| is at most the minimum score, and an orientation whose
    score equals |C| proves that |C| is that minimum and C a maximum cover.

    The search therefore takes the first exact cover and asks
    :func:`two_face_witness` for such an orientation.  Only when there is
    no cover or no witness does it compute the minimum by the subset DP
    (:func:`min_two_face_score`) and search for the first cover of that
    size.  Either way the result is the first maximum cover in search
    order.  When no cover reaches the minimum the input is not such a
    polytope graph.  Graphs above the DP bound of 22 vertices are refused
    first.
    """
    if nonsimple is None:
        nonsimple = classify_vertices(g, d).nonsimple
    nonsimple = tuple(sorted(nonsimple))
    if len(nonsimple) > 1:
        raise ValueError("max_two_system handles at most one nonsimple vertex")
    check_dp_bound(g.n)
    frames = [
        (w, frozenset(pair))
        for w in range(g.n)
        if w not in nonsimple
        for pair in itertools.combinations(g.adj[w], 2)
    ]
    frame_id = {f: i for i, f in enumerate(frames)}
    cycles = induced_cycles(g)
    # A chordless cycle meets each of its vertices in a frame, and at most
    # one of its vertices is nonsimple, so no cycle covers an unknown frame
    # and none covers nothing.
    covered = [
        [
            frame_id[w, frozenset(x for x in g.adj[w] if x in cyc)]
            for w in cyc
            if w not in nonsimple
        ]
        for cyc in cycles
    ]
    rows = [sum(1 << f for f in r) for r in covered]
    chosen = _exact_cover_of_size(len(frames), rows, 0)
    if chosen is None or two_face_witness(
        g, nonsimple, [sum(1 << v for v in cycles[i]) for i in chosen]
    ) is None:
        target = min_two_face_score(g, sources=nonsimple)
        chosen = _exact_cover_of_size(len(frames), rows, target)
        if chosen is None:
            raise CertificateMismatch(
                f"no exact cover of the simple-rooted 2-frames has {target} sets, "
                "the orientation minimum"
            )
    sets = tuple(sorted((cycles[i] for i in chosen), key=lambda s: (len(s), tuple(sorted(s)))))
    coverage = {frames[f]: cycles[i] for i in chosen for f in covered[i]}
    return TwoSystem(sets=sets, coverage=coverage)


def _two_system_facets(
    g: Graph, d: int, nonsimple: Iterable[int]
) -> tuple[TwoSystem, tuple[tuple[int, ...], ...]]:
    """The certified 2-system and the facet list it reconstructs."""
    system = max_two_system(g, d, nonsimple)
    sk = KSkeleton(k=2, graph=g, faces_by_dim={2: system.sets})
    return system, recon2.reconstruct(sk, d).facets


def reconstruct_one_nonsimple(g: Graph, d: int) -> tuple[tuple[int, ...], ...]:
    """Facet list of a d-polytope graph with at most one nonsimple vertex."""
    classes = classify_vertices(g, d)
    if len(classes.nonsimple) > 1:
        raise ValueError(
            f"expected at most one nonsimple vertex, found {sorted(classes.nonsimple)}"
        )
    return _two_system_facets(g, d, classes.nonsimple)[1]


# ---------------------------------------------------------------------------
# Orientation sweeps for the four facet families


def _harvester(
    g: Graph, d: int, simple: frozenset[int]
) -> Callable[[Orientation, int, int], Iterator[int]]:
    """The harvest rule of the family sweeps, with its feasibility cache.

    ``harvest(o, need, avoid)`` yields, for the simple vertices in
    ascending order, the ancestor masks under o that hold every vertex of
    the mask ``need``, none of ``avoid``, and induce a feasible subgraph.
    Feasibility is computed once per mask.
    """
    order = sorted(simple)
    cache: dict[int, bool] = {}

    def harvest(o: Orientation, need: int, avoid: int) -> Iterator[int]:
        for x in order:
            anc = o.anc[x]
            if anc & need != need or anc & avoid:
                continue
            ok = cache.get(anc)
            if ok is None:
                ok = cache[anc] = is_feasible(g, vertices_of(anc), d, simple)
            if ok:
                yield anc

    return harvest


def _sweep(
    g: Graph,
    *,
    first: tuple[int, ...] = (),
    last: tuple[int, ...] = (),
    family: Optional[Callable[[Orientation], bool]] = None,
    objective: Callable[[Orientation], int],
    collect: Callable[[Orientation], Iterable[int]],
    force: bool = False,
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The objective minimum over an orientation family and the union of
    ``collect`` over its minimisers, in one pass.

    Keeps a running minimum and the vertex masks collected from
    orientations that attain it; a new minimum discards what was collected
    so far.  The masks are returned decoded, as sorted vertex tuples.
    """
    best: Optional[int] = None
    found: set[int] = set()
    for o in enumerate_acyclic_orientations(g, family, first=first, last=last, force=force):
        val = objective(o)
        if best is None or val < best:
            best = val
            found.clear()
        if val == best:
            found.update(collect(o))
    if best is None:
        raise EmptyFamily("no acyclic orientation satisfies the family constraints")
    return best, tuple(sorted(vertices_of(m) for m in found))


def find_facets_avoiding(
    g: Graph,
    d: int,
    u: int,
    v: int,
    mode: str,
    *,
    force: bool = False,
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Facets containing exactly one of u, v, or both, plus the minimum.

    mode "u_minus_v": sweep orientations with u a source and v a sink; the
    minimum of the simple-sink score is the number of facets avoiding v,
    and the ancestor sets of simple vertices under the minimisers that are
    feasible, contain u and avoid v are exactly the facets containing u
    but not v.  mode "v_minus_u" swaps the two.  mode "uv" sweeps the
    orientations in which some feasible set containing both u and v is
    initial; the minimum is the total facet count and the harvested
    feasible ancestor sets containing both are the shared facets.
    """
    simple = classify_vertices(g, d).simple
    harvest = _harvester(g, d, simple)

    if mode == "v_minus_u":
        u, v = v, u
        mode = "u_minus_v"

    if mode == "u_minus_v":
        first, last, need, avoid = (u,), (v,), 1 << u, 1 << v
    elif mode == "uv":
        first, last, need, avoid = (), (), 1 << u | 1 << v, 0
    else:
        raise ValueError(f"unknown mode {mode!r}")
    minimum, found = _sweep(
        g,
        first=first,
        last=last,
        family=(lambda o: any(harvest(o, need, avoid))) if mode == "uv" else None,
        objective=lambda o: objectives(o, d, simple).simple_sink_score,
        collect=lambda o: harvest(o, need, avoid),
        force=force,
    )
    return found, minimum


def count_sink_frames(
    g: Graph, d: int, u: int, facets: Iterable[Iterable[int]], o: Orientation
) -> int:
    """Number of valid (d-1)-frames of u, among the given facets, with u a sink.

    A facet contributes a valid frame at u when u has exactly d-1 neighbors
    inside it; it is counted when all of those edges point at u.
    """
    anc_u = o.anc[u]
    count = 0
    for f in facets:
        fset = set(f)
        inside = [w for w in g.adj[u] if w in fset]
        if len(inside) != d - 1:
            continue
        if all(anc_u >> w & 1 for w in inside):
            count += 1
    return count


def find_facets_empty(
    g: Graph,
    d: int,
    u: int,
    v: int,
    known,
    expected: int,
    *,
    force: bool = False,
) -> tuple[tuple[int, ...], ...]:
    """Facets containing neither u nor v.

    ``known`` must already hold the facets containing exactly one of u, v;
    ``expected`` is the count implied by the family minima, and 0 returns
    immediately.  The sweep runs over orientations with v a sink in which
    some feasible set avoiding both u and v is initial; the objective adds,
    to the simple-sink score, the number of known u-facets whose frame at
    u points entirely at u (so u momentarily acts as an extra facet sink).
    """
    if expected == 0:
        return ()
    simple = classify_vertices(g, d).simple
    harvest = _harvester(g, d, simple)
    u_facets = [f for f in known if u in f and v not in f]
    both = 1 << u | 1 << v

    def objective(o: Orientation) -> int:
        score = objectives(o, d, simple).simple_sink_score
        return score + count_sink_frames(g, d, u, u_facets, o)

    _, out = _sweep(
        g,
        last=(v,),
        family=lambda o: any(harvest(o, 0, both)),
        objective=objective,
        collect=lambda o: harvest(o, 0, both),
        force=force,
    )
    if len(out) != expected:
        raise InconsistentCounts(
            f"found {len(out)} facets avoiding both, expected {expected}"
        )
    return out


def detect_uv_facets(g: Graph, d: int, known) -> bool:
    """Whether any facet contains both nonsimple vertices.

    True iff some simple (d-1)-frame is not covered by the known facets:
    every facet contains a simple frame and every simple frame lies in
    exactly one facet.
    """
    classes = classify_vertices(g, d)
    footprints: dict[int, set[frozenset[int]]] = {w: set() for w in classes.simple}
    for f in known:
        fset = frozenset(f)
        for w in fset:
            if w in footprints:
                footprints[w].add(frozenset(x for x in g.adj[w] if x in fset))
    for w in sorted(classes.simple):
        nbrs = g.adj[w]
        for out in nbrs:
            frame = frozenset(x for x in nbrs if x != out)
            if frame not in footprints[w]:
                return True
    return False


@dataclass(frozen=True)
class FacetFamilies:
    """The four facet families of a graph with nonsimple vertices u < v."""

    u: int
    v: int
    u_only: tuple[tuple[int, ...], ...]
    v_only: tuple[tuple[int, ...], ...]
    neither: tuple[tuple[int, ...], ...]
    both: tuple[tuple[int, ...], ...]
    min_u: int
    min_v: int
    min_both: Optional[int]

    @property
    def all_facets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(self.u_only + self.v_only + self.neither + self.both))

    @property
    def counts(self) -> tuple[int, int, int, int]:
        return (len(self.u_only), len(self.v_only), len(self.neither), len(self.both))


def _two_nonsimple(g: Graph, d: int) -> tuple[int, int, frozenset[int]]:
    classes = classify_vertices(g, d)
    if len(classes.nonsimple) != 2:
        raise ValueError(
            f"expected exactly two nonsimple vertices, found {sorted(classes.nonsimple)}"
        )
    u, v = sorted(classes.nonsimple)
    return u, v, classes.simple


def facet_families(g: Graph, d: int, *, force: bool = False) -> FacetFamilies:
    """Recover the four facet families in order: u-only, v-only, neither, both.

    Requires d >= 4: at d = 3 an orientation of the shared family can leave
    a facet whose unique sink is nonsimple, breaking the family minimum
    (the truncation route has no such restriction).
    """
    if d < 4:
        raise ValueError("the family sweeps need d >= 4; use the truncation route")
    u, v, _ = _two_nonsimple(g, d)
    u_only, min_u = find_facets_avoiding(g, d, u, v, "u_minus_v", force=force)
    v_only, min_v = find_facets_avoiding(g, d, u, v, "v_minus_u", force=force)
    # min_u counts the facets avoiding v, so the families must close up.
    expected_empty = min_u - len(u_only)
    if expected_empty != min_v - len(v_only):
        raise InconsistentCounts(
            f"facets avoiding both: {expected_empty} via u, {min_v - len(v_only)} via v"
        )
    if expected_empty < 0:
        raise InconsistentCounts("family minima below family sizes")
    neither = find_facets_empty(
        g, d, u, v, u_only + v_only, expected_empty, force=force
    )
    both: tuple[tuple[int, ...], ...] = ()
    min_both: Optional[int] = None
    if detect_uv_facets(g, d, u_only + v_only + neither):
        both, min_both = find_facets_avoiding(g, d, u, v, "uv", force=force)
        total = len(u_only) + len(v_only) + len(neither) + len(both)
        if min_both != total:
            raise InconsistentCounts(
                f"total facet count {total} != shared-family minimum {min_both}"
            )
    return FacetFamilies(
        u=u,
        v=v,
        u_only=u_only,
        v_only=v_only,
        neither=neither,
        both=both,
        min_u=min_u,
        min_v=min_v,
        min_both=min_both,
    )


def reconstruct_two_nonsimple(
    g: Graph, d: int, *, force: bool = False
) -> tuple[tuple[int, ...], ...]:
    """Facet list of a d-polytope graph with exactly two nonsimple vertices."""
    return facet_families(g, d, force=force).all_facets


# ---------------------------------------------------------------------------
# The truncation route


def _two_faces_within(g: Graph, d: int, facet):
    """2-faces inside one facet, via its induced subgraph.

    The induced subgraph is the graph of a (d-1)-polytope with at most one
    vertex of degree above d-1, so its 2-faces come from the exact-cover
    pipeline; for d == 3 the facet itself is its only 2-face.
    """
    fset = frozenset(facet)
    if d == 3:
        return [fset]
    sub, back = g.induced(fset)
    system = max_two_system(sub, d - 1)
    return [frozenset(back[i] for i in s) for s in system.sets]


def _uv_two_faces(g: Graph, d: int, u: int, v: int, *, force: bool = False):
    """2-faces containing both u and v when uv is an edge.

    These are the induced cycles through u and v that are initial with
    respect to some orientation minimising the kalai score in which u is a
    source and v has indegree 1 (its one in-edge coming along the cycle).
    """
    cycles = [(c, sum(1 << x for x in c)) for c in induced_cycles(g) if u in c and v in c]
    if not cycles:
        return []

    def initial_cycles(o: Orientation) -> list[int]:
        if o.indegree[v] != 1:
            return []
        # Initial: the members' ancestor masks add up to the cycle's own.
        return [m for c, m in cycles if all(o.anc[x] | m == m for x in c)]

    _, found = _sweep(
        g,
        first=(u,),
        objective=lambda o: objectives(o, d, ()).kalai_score,
        collect=initial_cycles,
        force=force,
    )
    return [frozenset(c) for c in found]


def _truncated_graph(g: Graph, face: tuple[int, ...], two_faces) -> tuple[Graph, TruncationMap]:
    """Graph of the polytope truncated at ``face`` (a vertex or an edge).

    Uses only the graph and the 2-faces meeting the face: surviving
    vertices keep their mutual edges, every cut edge (x in face, y outside)
    becomes a vertex joined to y, and each 2-face contributes the edge
    between the new vertices of its two crossing edges.
    """
    tmap = truncation_map(g.n, face, g.edges)
    old_to_new, new_from_edge = tmap.old_to_new, tmap.new_from_edge
    edges = [
        (old_to_new[a], old_to_new[b])
        for a, b in g.edges
        if a in old_to_new and b in old_to_new
    ]
    for (x, y), w in new_from_edge.items():
        edges.append((w, old_to_new[y]))
    for s in two_faces:
        crossing = sorted((x, y) for x, y in new_from_edge if x in s and y in s)
        if len(crossing) == 2:
            edges.append((new_from_edge[crossing[0]], new_from_edge[crossing[1]]))
        elif len(crossing) > 2:
            raise ValueError(f"2-face {tuple(sorted(s))} crosses the cut thrice")
    return Graph(len(old_to_new) + len(new_from_edge), edges), tmap


def reconstruct_two_nonsimple_via_truncation(
    g: Graph, d: int, *, force: bool = False
) -> tuple[tuple[int, ...], ...]:
    """Same contract as reconstruct_two_nonsimple, via truncation.

    Truncating at the edge uv yields a simple polytope; truncating at u,
    when uv is not an edge, yields a polytope with one nonsimple vertex.
    Either way the truncated graph follows from the 2-faces meeting
    {u, v}, the truncated polytope reconstructs with the simpler pipeline,
    and its facet list pulls back.  When uv is not an edge the possibly
    unknown 2-face through both u and v costs at most one edge of the
    truncated graph, recovered by joining the unique two degree-deficient
    vertices.
    """
    u, v, _ = _two_nonsimple(g, d)
    u_only, _ = find_facets_avoiding(g, d, u, v, "u_minus_v", force=force)
    v_only, _ = find_facets_avoiding(g, d, u, v, "v_minus_u", force=force)
    two_faces_u: set[frozenset[int]] = set()
    for t in u_only:
        two_faces_u.update(s for s in _two_faces_within(g, d, t) if u in s)
    two_faces_v: set[frozenset[int]] = set()
    for t in v_only:
        two_faces_v.update(s for s in _two_faces_within(g, d, t) if v in s)

    if g.has_edge(u, v):
        shared = _uv_two_faces(g, d, u, v, force=force)
        relevant = two_faces_u | two_faces_v | set(shared)
        truncated, tmap = _truncated_graph(g, (u, v), relevant)
    else:
        truncated, tmap = _truncated_graph(g, (u,), two_faces_u)
        deficient = [
            w for w in range(truncated.n) if truncated.degree(w) == d - 1
        ]
        if len(deficient) not in (0, 2):
            raise RepairAmbiguous(
                f"{len(deficient)} vertices of degree d-1 after truncation"
            )
        if deficient:
            truncated = Graph(
                truncated.n, list(truncated.edges) + [tuple(deficient)]
            )
    prime_facets = reconstruct_one_nonsimple(truncated, d)
    pulled = pullback_facets(prime_facets, tmap)
    return tuple(sorted(pulled))
