"""Facet reconstruction from graphs alone.

The entry point is :func:`reconstruct`: it picks the route below from the
number of nonsimple vertices (at most two) and returns the facets with the
certificate of the route taken (:class:`GraphReconstruction`).

One nonsimple vertex: recover the 2-faces as an exact cover of the
simple-rooted 2-frames by induced chordless cycles, certified maximum by
an acyclic orientation whose two-face score equals the cover size (no
cover is larger than any such score).  A first pass runs one
breadth-first search over the adjacency lists for each frame that no
cycle found so far covers, so the frames of a face share one search,
and covers by the shortest chordless cycles found, within a budget of
one search node per frame plus one; a greedy vertex order certifies its
first cover.  The cover search is sparse: per column a count of usable
rows, kept up to date with an undo log.  So on a polytope graph the
first pass costs about linear time and memory in the input.  When there
is no cover, no such order, or the budget runs out, the fallback covers
by all induced cycles, the subset DP computes the orientation minimum,
and the search stops at the first cover reaching it.  Only the fallback
is refused above 22 vertices.  Graph + 2-faces go to the 2-skeleton
engine.

Two nonsimple vertices u, v: partition the facets into the four families
(containing u only, v only, neither, both) and recover them in that order
from constrained families of acyclic orientations: each family's facets
are the feasible ancestor sets of simple vertices under the minimisers of
an objective.  No orientation is enumerated.  Every objective is a sum
of per-vertex costs of each vertex's in-neighbours, and an ancestor set
A = anc(x) is exactly an initial set (no edge enters it) whose only sink
is x.  So the least cost with anc(x) = A splits into an orientation of
G[A] with x its only sink and an orientation of the rest placed after A,
each a subset DP over vertex orders (:class:`~skelrecon.graphs.OrderCosts`).
The split is exact: a vertex of A has all its in-neighbours in A, and a
vertex placed after A sees exactly its in-neighbours among the vertices
placed before it, A included.  The family minimum and every set
attaining it follow without sweeping orientations.  A second, independent route truncates the
polytope at uv (or at u when uv is not an edge), reconstructs the simpler
truncated polytope, and pulls its facets back.  Whichever route answers,
the face lattice of its facets must have the input as its graph.

Each family DP allocates one table of 2**n slots over the whole vertex
set, and fills fewer when vertices are pinned
(:class:`~skelrecon.graphs.OrderCosts`); the 2-faces through uv need no
table per cycle, as each chordless cycle's own cost is 2|C| + 1 in
closed form.  :func:`reconstruct` checks the route's bound of 12
vertices once (``force`` lifts it); each table checks only the subset-DP
bound of 22 (:mod:`skelrecon.graphs`).

The first pass works on adjacency lists, frame ids and vertex tuples,
and reads no n-bit vertex mask, as a mask per vertex would take O(n^2)
bits on a sparse graph.  The fallback, the family sweeps and the
truncation route keep vertex sets as int masks, as in
:mod:`skelrecon.graphs`.  What leaves the module is sorted vertex
tuples in lexicographic order: the 2-system (:func:`max_two_system`),
handed to the 2-skeleton engine as it is, and facet lists that hold every
``lattice.PolytopeSpec`` invariant (:func:`reconstruct`).
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator

from .constructions import TruncationMap, pullback_facets, truncation_map
from .errors import (
    CertificateMismatch,
    DimensionTooSmall,
    EmptyFamily,
    GraphMismatch,
    InconsistentCounts,
    MethodsDisagree,
    RepairAmbiguous,
    TooManyNonsimple,
)
from .graphs import (
    Graph,
    OrderCosts,
    check_dp_bound,
    check_enumeration_bound,
    degrees_fit,
    induced_cycles,
    is_feasible,
    mask_of,
    min_two_face_score,
    shortest_frame_cycle,
    simple_sink_term,
    two_face_witness,
    vertices_of,
)
from .lattice import KSkeleton, PolytopeSpec, build_face_lattice, classify_vertices
from . import recon2


# ---------------------------------------------------------------------------
# 2-systems by exact cover


def _exact_cover_of_size(
    ncols: int, rows: list[tuple[int, ...]], target: int, max_nodes: int | None = None
) -> list[int] | None:
    """The first exact cover with at least ``target`` rows, as row indices;
    with ``target`` 0 that is the first exact cover.

    Rows are tuples of distinct column ids.  Backtracking branches on the
    uncovered column with the fewest still-usable rows (lowest index on
    ties) and tries rows in input order; it prunes dead branches and
    branches that cannot reach ``target`` rows.  Returns None when no such
    cover exists, or when the search would visit more than ``max_nodes``
    nodes.

    The state is sparse, as in Knuth's Dancing Links (arXiv cs/0011047)
    without the linked lists: one byte per column for "uncovered", one per
    row for "usable" (every column of it uncovered), and per column its
    count of usable rows.  Taking a row covers its columns and makes every
    usable row through them unusable, lowering the counts of their
    columns; an undo log of those rows puts it all back on backtracking.
    So taking or giving back a row costs the rows it touches, not a pass
    over all columns.  The branch column is found by a scan from the
    node's lowest uncovered column that stops at the first count below
    two: no column below the parent's lowest is uncovered in the child.
    """
    rows_of_col: list[list[int]] = [[] for _ in range(ncols)]
    for ri, row in enumerate(rows):
        for col in row:
            rows_of_col[col].append(ri)
    count = list(map(len, rows_of_col))
    usable = bytearray(b"\x01") * len(rows)
    uncovered = bytearray(b"\x01") * ncols
    left = ncols
    # An exact cover of R columns spends exactly R column-slots, so the
    # number of additional rows is at most the largest k whose k globally
    # smallest row sizes sum to at most R: one less than the number of
    # these prefix sums up to R.
    spent = list(itertools.accumulate(sorted(map(len, rows)), initial=0))

    def branch(col: int) -> list[int]:
        # Most-constrained uncovered column from col, the lowest uncovered
        # one; forced columns cascade first.  A column with no usable row
        # makes the node a dead end.
        best = col
        while col >= 0:
            k = count[col]
            if k <= 1:
                if not k:
                    return []
                best = col
                break
            if k < count[best]:
                best = col
            col = uncovered.find(1, col + 1)
        return [ri for ri in rows_of_col[best] if usable[ri]]

    # Depth-first with an explicit stack, so deep covers cannot overflow
    # the interpreter's recursion limit.  open_nodes[i] is the i-th node on
    # the current path: its untried rows and its lowest uncovered column;
    # chosen[i] is the row taken out of it, and unusable[marks[i]:] starts
    # with the rows that taking it made unusable.
    chosen: list[int] = []
    open_nodes: list[tuple[Iterator[int], int]] = []
    unusable: list[int] = []
    marks: list[int] = []
    low = nodes = 0
    while True:
        nodes += 1
        # Past the budget every further node would fail at once.
        if max_nodes is not None and nodes > max_nodes:
            return None
        if len(chosen) + bisect_right(spent, left) > target:
            if not left:
                return chosen
            low = uncovered.find(1, low)
            open_nodes.append((iter(branch(low)), low))
        # Backtrack to the deepest node with a row left to try, undoing the
        # row taken out of each node left behind.
        while open_nodes:
            untried, low = open_nodes[-1]
            if len(chosen) == len(open_nodes):
                start = marks.pop()
                for ri in unusable[start:]:
                    usable[ri] = 1
                    for col in rows[ri]:
                        count[col] += 1
                del unusable[start:]
                row = rows[chosen.pop()]
                for col in row:
                    uncovered[col] = 1
                left += len(row)
            ri = next(untried, -1)
            if ri >= 0:
                break
            open_nodes.pop()
        else:
            return None
        chosen.append(ri)
        marks.append(len(unusable))
        row = rows[ri]
        for col in row:
            uncovered[col] = 0
            for rj in rows_of_col[col]:
                if usable[rj]:
                    usable[rj] = 0
                    unusable.append(rj)
                    for c in rows[rj]:
                        count[c] -= 1
        left -= len(row)


def _cover_row(adj, first: list[int], cycle: tuple[int, ...]) -> tuple[int, ...]:
    """The ids of the frames a chordless cycle covers, one per simple vertex
    of it; the cycle's vertices may come in any order.

    The frame (w; adj[w][i], adj[w][j]), i < j, has the id ``first[w]``
    plus the rank of the slot pair (i, j) among the pairs of w's slots in
    lexicographic order; ``first`` is -1 at the nonsimple vertex.  A
    chordless cycle meets each of its vertices in a frame (its only two
    neighbours on the cycle), and at most one of them is nonsimple, so no
    cycle covers an unknown frame and none covers nothing.
    """
    members = set(cycle)
    row = []
    for w in cycle:
        if first[w] >= 0:
            nbrs = adj[w]
            i, j = [k for k, x in enumerate(nbrs) if x in members]
            row.append(first[w] + i * (2 * len(nbrs) - i - 1) // 2 + j - i - 1)
    return tuple(row)


def max_two_system(
    g: Graph, d: int, nonsimple: Iterable[int] | None = None
) -> tuple[tuple[int, ...], ...]:
    """The maximum family of induced cycles covering each simple-rooted
    2-frame exactly once, as sorted vertex tuples in lexicographic order
    (the form of ``KSkeleton.faces_by_dim``); for a polytope graph with at
    most one nonsimple vertex these are precisely the 2-faces.

    Weak duality bounds every exact cover C by the two-face score of every
    acyclic orientation in which the nonsimple vertex is a source: each
    cycle of C has a sink, the sink has in-neighbours, so it is not the
    source and is simple, and its in-pair is a frame that only that cycle
    covers.  So |C| is at most the minimum score, and an orientation whose
    score equals |C| proves that |C| is that minimum and C a maximum cover.
    This holds whichever cycles the cover was drawn from.

    So the search runs in two passes.  The first walks the frames in id
    order (see :func:`_cover_row`) and, for each frame that no cycle found
    so far covers, adds the shortest chordless cycle through it
    (:func:`shortest_frame_cycle`), if any; one flag per frame id marks the
    frames the found cycles cover.  A frame's cycle passes through that
    frame, so no cycle is found twice, and the frames of a face share one
    search.  The cycles, in (length, vertex tuple) order, are the rows of
    the first exact cover, and :func:`two_face_witness` is asked for an
    order of equal score.  Its cover search may visit one node more than
    there are frames.  A search that never backtracks visits one node per
    chosen cycle plus one, and every cycle covers at least two frames, so
    it needs at most half that budget; the rest is room for backtracking.
    Only when there is no cover, no witness, or the budget is spent does
    the fallback run.  It refuses graphs above the subset-DP bound of 22
    vertices (the bound guards the fallback only), takes all induced
    cycles (:func:`induced_cycles`) as rows, lets the subset DP compute
    the minimum (:func:`min_two_face_score`) and takes the first cover of
    that size.  When no cover reaches the minimum the input is not such a
    polytope graph.  Offering the fallback's first cover to the witness
    would add nothing: a cover the greedy order certifies has the
    minimum's size (weak duality), so when the first cover in search order
    is certified it is also the first cover the size-pruned search
    returns.  The first pass reads only the adjacency lists, never the
    vertex bitmasks of ``Graph.masks``.

    On such a polytope graph the maximum cover is the 2-faces, so both
    passes return the same sets.  On other inputs several maximum covers
    can exist, and the first pass may certify a different one from the
    one the fallback would find.
    """
    if nonsimple is None:
        nonsimple = classify_vertices(g, d).nonsimple
    nonsimple = tuple(sorted(nonsimple))
    if len(nonsimple) > 1:
        raise ValueError("max_two_system handles at most one nonsimple vertex")
    adj = g.adj
    first = [-1] * g.n
    ncols = 0
    for w in range(g.n):
        if w not in nonsimple:
            first[w] = ncols
            ncols += len(adj[w]) * (len(adj[w]) - 1) // 2
    covered = bytearray(ncols)
    found: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for w in range(g.n):
        frame = first[w]
        if frame < 0:
            continue
        nbrs = adj[w]
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1:]:
                if not covered[frame]:
                    cycle = shortest_frame_cycle(g, w, a, b)
                    if cycle is not None:
                        row = _cover_row(adj, first, cycle)
                        for col in row:
                            covered[col] = 1
                        found.append((tuple(sorted(cycle)), row))
                frame += 1
    found.sort(key=lambda cr: (len(cr[0]), cr[0]))
    cycles = [cycle for cycle, _ in found]
    rows = [row for _, row in found]
    chosen = _exact_cover_of_size(ncols, rows, 0, max_nodes=ncols + 1)
    if chosen is None or two_face_witness(g, nonsimple, len(chosen)) is None:
        check_dp_bound(g.n)
        cycles = [vertices_of(c) for c in induced_cycles(g)]
        rows = [_cover_row(adj, first, c) for c in cycles]
        target = min_two_face_score(g, sources=nonsimple)
        chosen = _exact_cover_of_size(ncols, rows, target)
        if chosen is None:
            raise CertificateMismatch(
                f"no exact cover of the simple-rooted 2-frames has {target} sets, "
                "the orientation minimum"
            )
    return tuple(sorted(cycles[i] for i in chosen))


def _expect(g: Graph, d: int, counts: tuple[int, ...], expected: str) -> None:
    """ValueError unless g has a nonsimple-vertex count in ``counts``."""
    nonsimple = sorted(classify_vertices(g, d).nonsimple)
    if len(nonsimple) not in counts:
        raise ValueError(f"expected {expected}, found {nonsimple}")


def reconstruct_one_nonsimple(g: Graph, d: int) -> tuple[tuple[int, ...], ...]:
    """Facet list of a d-polytope graph with at most one nonsimple vertex."""
    _expect(g, d, (0, 1), "at most one nonsimple vertex")
    return reconstruct(g, d).facets


# ---------------------------------------------------------------------------
# Initial-set sweeps for the four facet families


def _initial_set_sweep(
    g: Graph,
    d: int,
    simple: int,
    cost: Callable[[int, int], int],
    need: int,
    avoid: int,
    *,
    sources: int = 0,
    sinks: int = 0,
    restricted: bool,
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The minimum of a per-vertex objective over a family of acyclic
    orientations, and the harvest of its minimisers.

    The candidates are the vertex masks A that hold ``need``, miss
    ``avoid`` and induce a feasible subgraph; the harvest of an
    orientation is its candidates among the ancestor sets anc(x) of the
    vertices x of the mask ``simple``.  The family is every orientation
    with the pinned ``sources`` and ``sinks``, or with ``restricted`` only
    those whose harvest is nonempty.  The result is the family minimum and
    the union of the harvests of the orientations attaining it.

    Decomposition: A = anc(x) exactly when A is an initial set (no edge
    enters it) of which x is the only sink, so an orientation with
    anc(x) = A is an orientation of G[A] with x its only sink, every edge
    between A and the rest leaving A, and any orientation of the rest.
    Each vertex's cost depends only on its in-neighbours, which lie on its
    own side, so the least cost with anc(x) = A for some simple x is
    m(A) = ``single_sink(A, simple)`` + after(A), where after(A) is the
    least cost of placing the rest after A, one index of the table
    ``after`` of :class:`~skelrecon.graphs.OrderCosts`.  That table holds
    only the sets with every pinned source and no pinned sink, and in the
    restricted sweep only those holding ``need`` as well, so the
    precondition is that every pinned source lies in ``need`` and every
    other pinned sink in ``avoid``, as in all the family sweeps.  Hence
    the family minimum is the DP's ``least`` for the pinned family and the
    least m(A) over candidates for the restricted one, and an orientation
    attaining m(A) is a minimiser exactly when m(A) equals that minimum; a
    minimiser with anc(x) = A costs at least m(A), so the harvest is the
    candidates with m(A) equal to the minimum.  Costs are nonnegative, so m(A) >=
    after(A): masks are taken in ascending after(A) and feasibility is
    computed, once per mask, only when m(A) can still reach the minimum.
    Raises EmptyFamily when the family is empty.
    """
    # The restricted family reads only supersets of need, so its table
    # holds only those; the pinned family's minimum, ``least``, reads the
    # table at the sources.
    dp = OrderCosts(
        g, cost, sources=sources, sinks=sinks, holding=need if restricted else 0
    )
    after = dp.after
    inf = float("inf")
    best = inf if restricted else dp.least
    free = (1 << g.n) - 1 & ~need & ~avoid
    candidates = []
    rest = free
    while True:
        a = rest | need
        base = after[a]
        if base < inf and base <= best and a & simple and degrees_fit(g, a, d, simple):
            candidates.append((base, a))
        if not rest:
            break
        rest = (rest - 1) & free
    found: list[int] = []
    for base, a in sorted(candidates):
        if base > best:
            break
        m = base + dp.single_sink(a, a & simple)
        if m == inf or m > best or not is_feasible(g, a, d, simple):
            continue
        if m < best:
            best, found = m, []
        found.append(a)
    if best == inf:
        raise EmptyFamily("no acyclic orientation satisfies the family constraints")
    return int(best), tuple(sorted(vertices_of(a) for a in found))


def _simple_sink_cost(d: int, simple: int) -> Callable[[int, int], int]:
    """The simple-sink score as a per-vertex cost of the in-neighbour mask;
    ``simple`` is the mask of the simple vertices."""
    return lambda y, p: simple_sink_term(p.bit_count(), d) if simple >> y & 1 else 0


def find_facets_avoiding(
    g: Graph, d: int, u: int, v: int, mode: str
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Facets containing exactly one of u, v, or both, plus the minimum.

    mode "u_minus_v": over the orientations with u a source and v a sink,
    the minimum of the simple-sink score is the number of facets avoiding
    v, and the ancestor sets of simple vertices under the minimisers that
    are feasible, contain u and avoid v are exactly the facets containing
    u but not v.  mode "v_minus_u" swaps the two.  mode "uv" takes the
    orientations in which some feasible set containing both u and v is
    the ancestor set of a simple vertex; the minimum is the total facet
    count and the harvested feasible ancestor sets containing both are the
    shared facets.

    No orientation is enumerated (:func:`_initial_set_sweep`): an ancestor
    set A of x is an initial set whose only sink is x, and the score sums
    per-vertex terms of each vertex's in-neighbours, which all lie on the
    vertex's own side of A.  So the least score with A as an ancestor set
    is exactly a subset DP inside A plus one for the rest placed after A.
    """
    simple = mask_of(classify_vertices(g, d).simple)

    if mode == "v_minus_u":
        u, v = v, u
        mode = "u_minus_v"

    if mode == "u_minus_v":
        sources, sinks, need, avoid = 1 << u, 1 << v, 1 << u, 1 << v
    elif mode == "uv":
        sources, sinks, need, avoid = 0, 0, 1 << u | 1 << v, 0
    else:
        raise ValueError(f"unknown mode {mode!r}")
    minimum, found = _initial_set_sweep(
        g, d, simple, _simple_sink_cost(d, simple), need, avoid,
        sources=sources, sinks=sinks, restricted=mode == "uv",
    )
    return found, minimum


def count_sink_frames(g: Graph, d: int, u: int, facets: Iterable[int], pred: int) -> int:
    """Number of valid (d-1)-frames of u, among the given facet masks, with
    u a sink.

    A facet contributes a valid frame at u when u has exactly d-1 neighbors
    inside it; it is counted when all of those edges point at u, that is
    when those neighbours all lie in ``pred``, a bitmask of u's
    predecessors (its in-neighbours or its ancestors).
    """
    count = 0
    for f in facets:
        inside = g.masks[u] & f
        if inside.bit_count() == d - 1 and inside & pred == inside:
            count += 1
    return count


def find_facets_empty(
    g: Graph, d: int, u: int, v: int, known, expected: int
) -> tuple[tuple[int, ...], ...]:
    """Facets containing neither u nor v.

    ``known`` must already hold the facets containing exactly one of u, v;
    ``expected`` is the count implied by the family minima, and 0 returns
    immediately.  The family is the orientations with v a sink in which
    some feasible set avoiding both u and v is the ancestor set of a
    simple vertex; the objective adds, to the simple-sink score, the
    number of known u-facets whose frame at u points entirely at u (so u
    momentarily acts as an extra facet sink).

    That term depends only on u's in-neighbours, so the objective is still
    a sum of per-vertex costs, and the initial-set decomposition of
    :func:`find_facets_avoiding` holds exactly: the least objective with a
    candidate as an ancestor set is a subset DP inside it plus one after
    it (:func:`_initial_set_sweep`).
    """
    if expected == 0:
        return ()
    simple = mask_of(classify_vertices(g, d).simple)
    u_facets = [f for f in map(mask_of, known) if f >> u & 1 and not f >> v & 1]
    sink = _simple_sink_cost(d, simple)

    def cost(y: int, p: int) -> int:
        frames = count_sink_frames(g, d, u, u_facets, p) if y == u else 0
        return sink(y, p) + frames

    _, out = _initial_set_sweep(
        g, d, simple, cost, 0, 1 << u | 1 << v,
        sinks=1 << v, restricted=True,
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
    masks = g.masks
    simple = mask_of(classify_vertices(g, d).simple)
    # (simple vertex, mask of its neighbours inside a known facet)
    footprints = {
        (w, masks[w] & f) for f in map(mask_of, known) for w in vertices_of(f & simple)
    }
    return any(
        (w, masks[w] & ~(1 << out)) not in footprints
        for w in vertices_of(simple)
        for out in g.adj[w]
    )


class FacetFamilies(
    namedtuple("FacetFamilies", "u v u_only v_only neither both min_u min_v min_both")
):
    """The four facet families of a graph with nonsimple vertices u < v."""

    __slots__ = ()

    @property
    def all_facets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(self.u_only + self.v_only + self.neither + self.both))

    @property
    def counts(self) -> tuple[int, int, int, int]:
        return (len(self.u_only), len(self.v_only), len(self.neither), len(self.both))


def facet_families(g: Graph, d: int, *, force: bool = False) -> FacetFamilies:
    """Recover the four facet families in order: u-only, v-only, neither, both.

    Requires d >= 4: at d = 3 an orientation of the shared family can leave
    a facet whose unique sink is nonsimple, breaking the family minimum
    (the truncation route has no such restriction).
    """
    _expect(g, d, (2,), "exactly two nonsimple vertices")
    return reconstruct(g, d, "claims", force=force).families


def reconstruct_two_nonsimple(
    g: Graph, d: int, *, force: bool = False
) -> tuple[tuple[int, ...], ...]:
    """Facet list of a d-polytope graph with exactly two nonsimple vertices."""
    return facet_families(g, d, force=force).all_facets


# ---------------------------------------------------------------------------
# The truncation route


def _two_faces_within(g: Graph, d: int, facet: int) -> list[int]:
    """2-faces inside one facet mask, via its induced subgraph.

    The induced subgraph is the graph of a (d-1)-polytope with at most one
    vertex of degree above d-1, so its 2-faces come from the exact-cover
    pipeline; for d == 3 the facet itself is its only 2-face.
    """
    if d == 3:
        return [facet]
    sub, back = g.induced(vertices_of(facet))
    return [mask_of(back[i] for i in s) for s in max_two_system(sub, d - 1)]


def _uv_two_faces(g: Graph, d: int, u: int, v: int):
    """2-faces containing both u and v when uv is an edge.

    These are the induced cycles C through u and v that are initial (no
    edge enters C) with respect to some orientation minimising the kalai
    score (the sum of 2**indegree) in which u is a source and v has
    indegree 1, its one in-edge coming from u along the cycle.  Such an
    orientation is an orientation of C with u a source and u as v's only
    in-neighbour, every edge between C and the rest leaving C, and any
    orientation of the rest with u's pin kept.  Each vertex's cost depends
    only on its in-neighbours, so its least cost is the least cost of C
    plus ``after[C]``, the least cost of placing the rest after C
    (:class:`~skelrecon.graphs.OrderCosts`, one table with u a source;
    C holds u, so ``after[C]`` is one read).

    The least cost of C needs no DP.  C is chordless, so its vertices'
    in-neighbours are cycle neighbours.  u costs 1 and v costs 2, and the
    other |C| - 1 cycle edges all enter the |C| - 2 other vertices, each
    at most twice.  As 2**k is convex, their sum is least with one vertex
    at indegree 2 and the rest at 1, which directing the path between v
    and u from both ends toward one vertex attains.  So C costs
    1 + 2 + 4 + 2(|C| - 3) = 2|C| + 1, and C is kept exactly when
    ``after[C] + 2|C| + 1`` equals the DP's ``least``, the minimum over
    all orientations with u a source.  Returns cycle masks in
    vertex-tuple order.  Its table checks only the subset-DP bound, as
    :func:`reconstruct` checks the route's bound once.
    """
    uv = 1 << u | 1 << v
    cycles = [c for c in induced_cycles(g) if c & uv == uv]
    if not cycles:
        return []
    dp = OrderCosts(g, lambda y, p: 1 << p.bit_count(), sources=1 << u)
    found = [c for c in cycles if dp.after[c] + 2 * c.bit_count() + 1 == dp.least]
    return sorted(found, key=vertices_of)


def _truncated_graph(g: Graph, face: tuple[int, ...], two_faces) -> tuple[Graph, TruncationMap]:
    """Graph of the polytope truncated at ``face`` (a vertex or an edge).

    Uses only the graph and the 2-face masks meeting the face: surviving
    vertices keep their mutual edges, every cut edge (x in face, y outside)
    becomes a vertex joined to y, and each 2-face contributes the edge
    between the new vertices of its two crossing edges.  The labels are
    :func:`~skelrecon.constructions.truncate`'s, from the same map.
    """
    tmap = truncation_map(g.n, mask_of(face), g.edges)
    old_to_new = tmap.old_to_new
    edges = [
        (old_to_new[a], old_to_new[b])
        for a, b in g.edges
        if a in old_to_new and b in old_to_new
    ]
    edges += [(w, old_to_new[y]) for (_, y), w in tmap.new_from_edge.items()]
    # Every mask here is a chordless cycle, so one that meets the face
    # crosses the cut in exactly two edges.
    for s in two_faces:
        crossing = tmap.cut_vertices(s)
        if crossing:
            edges.append((crossing[0], crossing[1]))
    return Graph(tmap.n, edges), tmap


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
    _expect(g, d, (2,), "exactly two nonsimple vertices")
    return reconstruct(g, d, "truncation", force=force).facets


def _via_truncation(g: Graph, d: int, u: int, v: int, u_only, v_only):
    """The truncation route from the facets containing u only and v only."""
    two_faces_u = {s for t in u_only for s in _two_faces_within(g, d, mask_of(t)) if s >> u & 1}
    two_faces_v = {s for t in v_only for s in _two_faces_within(g, d, mask_of(t)) if s >> v & 1}

    if g.has_edge(u, v):
        shared = _uv_two_faces(g, d, u, v)
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
    # A polytope's truncated graph has at most one nonsimple vertex; others
    # are refused here, so reconstruct never comes back to this route.
    k = len(classify_vertices(truncated, d).nonsimple)
    if k > 1:
        raise TooManyNonsimple(f"the truncated graph has {k} nonsimple vertices, not at most 1")
    return pullback_facets(reconstruct(truncated, d).facets, tmap)


# ---------------------------------------------------------------------------
# The entry point


class GraphReconstruction(
    namedtuple("GraphReconstruction", "facets certificate families", defaults=(None,))
):
    """The facets :func:`reconstruct` recovers, as sorted vertex tuples in
    lexicographic order holding every ``lattice.PolytopeSpec`` invariant,
    and the certificate lines of the route taken: the 2-system size, or
    the claims route's family counts and minima (none for the truncation
    route alone).  ``families`` is set when the claims route ran."""

    __slots__ = ()


def reconstruct(
    g: Graph, d: int, method: str = "both", *, force: bool = False
) -> GraphReconstruction:
    """Facets of a d-polytope graph with at most two nonsimple vertices.

    With at most one, the certified maximum 2-system goes to the 2-skeleton
    engine whatever ``method``.  With two, ``method`` is "claims" (the four
    facet families, d >= 4), "truncation" or "both", which raises
    MethodsDisagree unless the two agree.  Both routes start from the
    u-only and v-only sweeps, which run once.  Before them the route's
    bound of 12 vertices is checked once (``force`` lifts it); below it
    each table checks only the subset-DP bound of 22.

    The facets hold every ``lattice.PolytopeSpec`` invariant (nonempty
    sorted tuples over 0..n-1 in lexicographic order, none inside or equal
    to another), so callers write them as they are.  With at most one
    nonsimple vertex ``recon2.reconstruct``'s check gives them, and no
    ambiguity, which needs d - 1 >= 2 nonsimple vertices.  With two, every
    method's answer passes through ``PolytopeSpec`` (ValueError on nested
    facets) and its face lattice must have the input as its graph: the
    lattice's own errors pass through, and GraphMismatch names the first
    edge, in vertex order, that only one of the two graphs has.  So no
    answer leaves whose edges are not the input's, polytope graph or not;
    the route's bound keeps the lattice small.
    """
    if method not in ("claims", "truncation", "both"):
        raise ValueError(f"unknown method {method!r}")
    nonsimple = sorted(classify_vertices(g, d).nonsimple)
    if len(nonsimple) <= 1:
        faces = max_two_system(g, d, nonsimple)
        facets = recon2.reconstruct(KSkeleton(k=2, graph=g, faces_by_dim={2: faces}), d).facets
        return GraphReconstruction(facets, (f"two-system size {len(faces)}",))
    if len(nonsimple) > 2:
        raise TooManyNonsimple(
            f"{len(nonsimple)} nonsimple vertices: graph reconstruction covers at most 2"
        )
    if method != "truncation" and d < 4:
        raise DimensionTooSmall("the family sweeps need d >= 4; use the truncation route")
    check_enumeration_bound(g.n, force)
    u, v = nonsimple
    u_only, min_u = find_facets_avoiding(g, d, u, v, "u_minus_v")
    v_only, min_v = find_facets_avoiding(g, d, u, v, "v_minus_u")
    families = facets = None
    certificate: tuple[str, ...] = ()
    if method != "truncation":
        # min_u counts the facets avoiding v, so the families must close up.
        expected_empty = min_u - len(u_only)
        if expected_empty != min_v - len(v_only):
            raise InconsistentCounts(
                f"facets avoiding both: {expected_empty} via u, {min_v - len(v_only)} via v"
            )
        if expected_empty < 0:
            raise InconsistentCounts("family minima below family sizes")
        neither = find_facets_empty(g, d, u, v, u_only + v_only, expected_empty)
        both: tuple[tuple[int, ...], ...] = ()
        min_both: int | None = None
        if detect_uv_facets(g, d, u_only + v_only + neither):
            both, min_both = find_facets_avoiding(g, d, u, v, "uv")
            total = len(u_only) + len(v_only) + len(neither) + len(both)
            if min_both != total:
                raise InconsistentCounts(
                    f"total facet count {total} != shared-family minimum {min_both}"
                )
        families = FacetFamilies(u, v, u_only, v_only, neither, both, min_u, min_v, min_both)
        facets = families.all_facets
        certificate = (
            "family counts u/v/neither/both: %d %d %d %d" % families.counts,
            f"minimum avoiding v: {min_u}",
            f"minimum avoiding u: {min_v}",
        ) + ((f"shared-family minimum: {min_both}",) if min_both is not None else ())
    if method != "claims":
        truncated = _via_truncation(g, d, u, v, u_only, v_only)
        if facets is None:
            facets = truncated
        elif truncated != facets:
            raise MethodsDisagree("methods disagree")
    spec = PolytopeSpec(d, g.n, facets)
    _require_graph(g, build_face_lattice(spec).graph())
    return GraphReconstruction(spec.facets, certificate, families)


def _require_graph(g: Graph, found: Graph) -> None:
    """GraphMismatch unless ``found`` has exactly the edges of ``g``; it
    names the first edge, in vertex order, that only one of them has."""
    if found.edges != g.edges:
        edge = min(set(g.edges) ^ set(found.edges))
        if g.has_edge(*edge):
            raise GraphMismatch(f"the facets found have no edge {edge}, which the graph has")
        raise GraphMismatch(f"the facets found have an edge {edge}, which the graph lacks")
