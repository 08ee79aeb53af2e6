"""Undirected graphs, acyclic orientations, and orientation costs.

A vertex set is an int bitmask, bit v for vertex v: adjacency, induced
cycles, candidate facets and the sets of the DPs alike.  The two helpers
of recong's first pass, :func:`shortest_frame_cycle` and
:func:`two_face_witness`, are the exception: they read only the
adjacency lists, so that pass never builds ``Graph.masks``, one n-bit
int per vertex.  An acyclic
orientation is its ancestor bitmasks, one per vertex.  Minima
of per-vertex orientation costs come from one subset DP over vertex
orders (:class:`OrderCosts`), not from enumerating orientations.
Everything here is a pure function over immutable values; graphs and
orientations never mutate after construction.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Iterable, Iterator
from functools import cached_property

from .errors import EmptyFamily, TooLarge

#: Cap on the vertex count of orientation enumeration and of recong's
#: two-nonsimple route, which checks it once, before its first sweep; the
#: sweeps themselves know only the subset-DP bound.  force=True lifts it.
DEFAULT_ENUMERATION_BOUND = 12


def mask_of(vertices: Iterable[int]) -> int:
    """The vertex bitmask of a set of vertices."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def vertices_of(mask: int) -> tuple[int, ...]:
    """The set bits of a vertex bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Adjacency lists are sorted tuples.  ``edges``, the pairs u < v in
    sorted order, is read off ``adj`` on first use: u ascending, then its
    neighbours above u.
    """

    __slots__ = ("n", "adj", "_edges", "_masks")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        # Lists while the edges come, then one set at a time to drop
        # repeats: a set per vertex, all alive at once, takes 2.5x the
        # memory.
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside 0..{n - 1}")
            nbrs[u].append(v)
            nbrs[v].append(u)
        self.n = n
        self.adj: tuple[tuple[int, ...], ...] = tuple(map(tuple, map(sorted, map(set, nbrs))))
        self._edges: tuple[tuple[int, int], ...] | None = None
        self._masks: tuple[int, ...] | None = None

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges (u, v) with u < v, sorted (built lazily)."""
        if self._edges is None:
            self._edges = tuple(
                (u, v) for u, a in enumerate(self.adj) for v in a if v > u
            )
        return self._edges

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    @property
    def masks(self) -> tuple[int, ...]:
        """Adjacency bitmasks, one int per vertex (built lazily)."""
        if self._masks is None:
            self._masks = tuple(map(mask_of, self.adj))
        return self._masks

    def induced(self, vertices: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        """Induced subgraph on the given vertices.

        Returns the relabeled graph together with the tuple mapping new
        vertex ids back to original ids.  New ids follow the sorted
        original ids, a monotone relabeling, so each ``adj[u]`` kept
        inside the set and relabeled is already sorted and free of
        repeats: the adjacency is built as it stands, with no edge list.
        """
        order = tuple(sorted(set(vertices)))
        back = {w: i for i, w in enumerate(order)}
        adj = self.adj
        sub = Graph.__new__(Graph)
        sub.n = len(order)
        sub.adj = tuple([tuple([back[v] for v in adj[u] if v in back]) for u in order])
        sub._edges = None
        sub._masks = None
        return sub, order

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.adj == other.adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={sum(map(len, self.adj)) // 2})"


class Orientation:
    """Acyclic orientation of a graph, held as its ancestor bitmasks.

    ``anc[x]`` is the bitmask of the vertices with a directed path to x,
    x included.  An edge vw runs v -> w exactly when v is in ``anc[w]``,
    so ``indegree[v]`` counts the neighbours of v inside ``anc[v]``.
    """

    __slots__ = ("graph", "anc", "indegree")

    def __init__(self, graph: Graph, anc: Iterable[int]):
        self.graph = graph
        self.anc = tuple(anc)
        self.indegree = tuple(
            (a & m).bit_count() for a, m in zip(self.anc, graph.masks)
        )


def check_enumeration_bound(n: int, force: bool = False) -> None:
    """Raise TooLarge when n vertices exceed the enumeration bound and
    force is not set."""
    if n > DEFAULT_ENUMERATION_BOUND and not force:
        raise TooLarge(
            f"{n} vertices exceed the enumeration bound "
            f"{DEFAULT_ENUMERATION_BOUND}; pass force=True"
        )


def enumerate_acyclic_orientations(
    g: Graph,
    *,
    first: tuple[int, ...] = (),
    last: tuple[int, ...] = (),
    force: bool = False,
) -> Iterator[Orientation]:
    """Yield every acyclic orientation of g exactly once.

    Directs the edges in ``g.edges`` order, keeping the ancestor bitmask of
    every vertex, and tries the direction v -> u only when u is not already
    an ancestor of v, so it closes no cycle; a partial acyclic orientation
    always extends, so every branch ends in a distinct leaf, whose masks
    are the orientation.  ``first``/``last`` fix each edge with a pinned
    end by rank (the ``first`` vertices in order, all others, the ``last``
    vertices in order), leaving the orientations with a topological order
    that starts with ``first`` and ends with ``last``.  Raises TooLarge
    when the graph exceeds the enumeration bound and force is not set.
    """
    check_enumeration_bound(g.n, force)
    pinned = set(first) | set(last)
    if len(pinned) != len(first) + len(last):
        raise ValueError("first/last vertices must be distinct")
    n = g.n
    rank = dict.fromkeys(range(n), len(first))
    rank.update((v, i) for i, v in enumerate(first))
    rank.update((v, n + i) for i, v in enumerate(last))

    def directed(anc: list[int], a: int, b: int) -> list[int]:
        # Add the arc a -> b: everything b reaches is now reached by a's ancestors.
        reach = anc[a]
        return [m | reach if m >> b & 1 else m for m in anc]

    anc = [1 << v for v in range(n)]
    free = []
    for u, v in g.edges:
        if u in pinned or v in pinned:
            anc = directed(anc, u, v) if rank[u] < rank[v] else directed(anc, v, u)
        else:
            free.append((u, v))
    stack = [(0, anc)]
    while stack:
        i, anc = stack.pop()
        if i == len(free):
            yield Orientation(g, anc)
            continue
        u, v = free[i]
        # Push v -> u first so u -> v is explored first.
        if not anc[v] >> u & 1:
            stack.append((i + 1, directed(anc, v, u)))
        if not anc[u] >> v & 1:
            stack.append((i + 1, directed(anc, u, v)))


def simple_sink_term(k: int, d: int) -> int:
    """A simple vertex's share of the simple-sink score at indegree k.

    Summed over the simple vertices, the score h[d-1] + d*h[d] (h[k] the
    number of simple vertices of indegree k) counts the pairs (facet,
    simple sink of the facet) of a polytope graph's orientation.
    """
    return 1 if k == d - 1 else d if k == d else 0


def _disjoint_paths(g: Graph, s: int, t: int, k: int) -> int:
    """Internally vertex-disjoint s-t paths in g, counted up to k.

    Unit-capacity augmenting paths over the split graph, where vertex v
    becomes an arc from node 2v (in) to node 2v+1 (out) and each edge uw
    the arcs 2u+1 -> 2w and 2w+1 -> 2u.  Paths run from s's out node to
    t's in node, which is never left.  Every other split node carries at
    most one unit, so the flow is one int per vertex, ``pred[w] = v`` for
    the saturated arc 2v+1 -> 2w (-1 for none; ``pred[t]`` is never
    read), plus one flag for the edge s-t.  v's own arc is saturated
    exactly when ``pred[v]`` is set, and s sends to w != t exactly when
    ``pred[w] == s``: no search enters s's out node again, so an arc out
    of s is never cancelled, which no simple augmenting path needs.  Only
    the edge s-t needs the flag, so that it is counted once.

    The flow is seeded before any search: first the two-edge paths s-w-t
    through up to k common neighbours w, then, greedily in the order of
    a, three-edge paths s-a-b-t through vertices no seeded path holds
    yet, b the least of ``masks[a] & masks[t]`` outside them, stored as
    ``pred[a] = s`` and ``pred[b] = a``.  Augmenting paths cover only
    the rest.  The seeds are vertex-disjoint paths, a feasible flow, and
    augmenting from any feasible flow reaches a maximum one, so the
    count stays exact.  A greedy 3-path can block a better pair of
    paths; an augmenting path then reroutes it, back over its arc a -> b
    as over any saturated arc.
    """
    adj = g.adj
    masks = g.masks
    pred = [-1] * g.n
    common = masks[s] & masks[t]
    seeds = vertices_of(common)[:k]
    for w in seeds:
        pred[w] = s
    paths = len(seeds)
    # A common neighbour outside the seeds means paths == k.  No b is a
    # neighbour of s (it would be a common one), so ``scan`` never holds a
    # vertex taken as a b.
    used = common | 1 << s | 1 << t
    scan = masks[s] & ~used
    while scan and paths < k:
        low = scan & -scan
        scan ^= low
        a = low.bit_length() - 1
        ends = masks[a] & masks[t] & ~used
        if ends:
            end = ends & -ends
            pred[a] = s
            pred[end.bit_length() - 1] = a
            used |= low | end
            paths += 1
    direct = False  # whether the edge s-t carries a path
    source, sink = 2 * s + 1, 2 * t
    for paths in range(paths, k):
        parent = [-1] * (2 * g.n)
        parent[source] = source
        queue = [2 * w for w in adj[s] if not (direct if w == t else pred[w] == s)]
        for b in queue:
            parent[b] = source
        for a in queue:
            if parent[sink] >= 0:
                break
            v = a >> 1
            if a & 1:
                # Out node: forward over every edge arc, and back over v's
                # own arc when it carries a path.  v's one saturated edge
                # arc, if any, leads to the in node this one was reached
                # from, so it is never taken again.
                for w in adj[v]:
                    if parent[2 * w] < 0:
                        parent[2 * w] = a
                        queue.append(2 * w)
                if pred[v] >= 0 and parent[a - 1] < 0:
                    parent[a - 1] = a
                    queue.append(a - 1)
            else:
                # In node: back over the saturated arc into it, or else
                # forward over v's own arc.
                b = 2 * pred[v] + 1 if pred[v] >= 0 else a + 1
                if parent[b] < 0:
                    parent[b] = a
                    queue.append(b)
        if parent[sink] < 0:
            return paths
        b = sink
        while b != source:
            a = parent[b]
            u, w = a >> 1, b >> 1
            if u != w and a & 1:
                # Forward over the edge arc u -> w.
                if w == t and u == s:
                    direct = True
                pred[w] = u
            elif u != w:
                # Back over the saturated arc w -> u, which this cancels;
                # the step into u's in node, walked next, refills pred[u]
                # unless u's path is cancelled too.
                pred[u] = -1
            b = a
    return k


def k_connected(g: Graph, k: int) -> bool:
    """True iff no vertex cut of size < k exists.

    A complete graph has no cut; a graph with no vertices is not
    connected.  The Esfahanian-Hakimi pair set (Networks 1984): with v a
    vertex of least degree, a cut S with |S| < k either misses v, and
    then separates v from a vertex not adjacent to it, or, taken
    inclusion-minimal, holds v, and then v has neighbours in two
    components of G - S, which are not adjacent.  So it suffices that v
    and each non-neighbour, and each non-adjacent pair of v's
    neighbours, are joined by k vertex-disjoint paths.  Each pair's flow
    is seeded with disjoint 2- and 3-paths (see ``_disjoint_paths``), a
    feasible flow, and augmented to a maximum from there, so every count
    is exact.
    """
    if k <= 0:
        return True
    if g.n == 0:
        return False
    masks = g.masks
    v = min(range(g.n), key=g.degree)
    near = g.adj[v]
    pairs = [(v, w) for w in range(g.n) if w != v and not masks[v] >> w & 1]
    pairs += [
        (a, b) for i, a in enumerate(near) for b in near[i + 1:]
        if not masks[a] >> b & 1
    ]
    return all(_disjoint_paths(g, a, b, k) >= k for a, b in pairs)


def degrees_fit(g: Graph, a: int, d: int, simple: int) -> bool:
    """Whether inside the vertex mask ``a`` every vertex of the mask
    ``simple`` has exactly d-1 neighbours and every other vertex at least
    d-1."""
    masks = g.masks
    scan = a
    while scan:
        low = scan & -scan
        scan ^= low
        y = low.bit_length() - 1
        k = (masks[y] & a).bit_count()
        if k != d - 1 if simple & low else k < d - 1:
            return False
    return True


def is_feasible(g: Graph, a: int, d: int, simple: int) -> bool:
    """Whether the vertex mask ``a`` induces a candidate facet graph.

    The induced subgraph must be (d-1)-connected, the vertices of the mask
    ``simple`` (the ambient polytope's simple vertices) must have induced
    degree exactly d-1, and the others at least d-1.
    """
    if not a or not degrees_fit(g, a, d, simple):
        return False
    sub, _ = g.induced(vertices_of(a))
    return k_connected(sub, d - 1)


def induced_cycles(g: Graph) -> list[int]:
    """The vertex masks of all sets inducing a single chordless cycle of
    length >= 3.

    Sorted by (length, sorted vertex tuple) so downstream searches are
    deterministic.
    """
    masks = g.masks
    found: set[int] = set()
    for s in range(g.n):
        # DFS over induced paths (vertex mask, second vertex, tip) from s
        # through vertices above s only; a path closes into a chordless
        # cycle when the tip meets s again.
        start, above = 1 << s, -2 << s
        stack = [(start | 1 << p, p, p) for p in vertices_of(masks[s] & above)]
        while stack:
            path, second, tip = stack.pop()
            interior = path & ~start & ~(1 << tip)
            scan = masks[tip] & above & ~path
            while scan:
                low = scan & -scan
                scan ^= low
                x = low.bit_length() - 1
                if masks[x] & interior:
                    continue  # chord into the path interior
                if masks[x] & start:
                    if second < x:
                        found.add(path | low)
                    continue  # extending past x would leave a chord to s
                stack.append((path | low, second, x))
    return sorted(found, key=lambda c: (c.bit_count(), vertices_of(c)))


def shortest_frame_cycle(g: Graph, w: int, a: int, b: int) -> tuple[int, ...] | None:
    """A shortest chordless cycle through the path a-w-b, as its vertices
    in the order they lie on it, from w and a to b; None when there is
    none.

    It is w plus a shortest a-b path in G - w - (N(w) minus {a, b}), found
    by breadth-first search over ``g.adj`` and walked back from b through
    the lowest-labelled neighbour in each layer.  The search keeps each
    vertex it reaches in one dict, with its layer (-1 for w and w's other
    neighbours, which it never enters), and stops at the first layer that
    holds a neighbour of b, so it costs in proportion to the vertices it
    reaches and their degrees, not to n; a triangle needs no search.  A
    shortest path is induced and only its ends are neighbours of w, so
    with w it closes a chordless cycle; conversely every chordless cycle
    through a-w-b holds such a path, so None means no chordless cycle
    passes a-w-b.
    """
    adj = g.adj
    if b in adj[a]:
        return (w, a, b)
    layer = dict.fromkeys(adj[w], -1)
    layer[w] = -1
    layer[a] = 0
    del layer[b]
    near = set(adj[b])
    frontier = [a]
    depth = 0
    # b is one layer past the first layer that holds a neighbour of b, so
    # the search never enters b itself.
    while near.isdisjoint(frontier):
        depth += 1
        reached = []
        for v in frontier:
            for x in adj[v]:
                if x not in layer:
                    layer[x] = depth
                    reached.append(x)
        if not reached:
            return None
        frontier = reached
    path = [b]
    for k in range(depth, 0, -1):
        path.append(next(y for y in adj[path[-1]] if layer.get(y) == k))
    return (w, a, *reversed(path))


def two_face_witness(
    g: Graph, sources: tuple[int, ...], size: int
) -> tuple[int, ...] | None:
    """A vertex order whose two-face score equals ``size``, the number of
    cycles of a cover, or None.

    The order places ``sources`` first, then repeatedly the unplaced
    vertex with the most placed neighbours (lowest label on ties), each
    vertex once, with no backtracking.  Every edge directed from its
    earlier end, the order is an acyclic orientation with the sources as
    sources (None when two sources are adjacent).  It is returned only if
    its two-face score, the sum of C(indegree, 2), equals ``size``.  For
    the size of an exact cover of the simple-rooted 2-frames by chordless
    cycles, that check alone certifies it as :func:`min_two_face_score`
    (weak duality, see :func:`skelrecon.recong.max_two_system`).  A heap
    of placed-neighbour counts, kept over ``g.adj``, makes each pick
    O(log n), O(E log n) in all.
    """
    adj = g.adj
    order = list(sources)
    # count[v] is minus v's placed-neighbour count, so the heap entries
    # (count[v], v) pop most neighbours first, lowest label on ties.  A
    # count only grows, so v's newest entry pops before its stale ones.
    count = [0] * g.n
    done = bytearray(g.n)
    for v in order:
        for x in adj[v]:
            if done[x]:
                return None
            count[x] -= 1
        done[v] = 1
    heap = [(count[v], v) for v in range(g.n) if not done[v]]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    score = 0
    while heap:
        k, v = pop(heap)
        if done[v]:
            continue
        done[v] = 1
        order.append(v)
        score += k * (k + 1) // 2
        for w in adj[v]:
            if not done[w]:
                count[w] -= 1
                push(heap, (count[w], w))
    return tuple(order) if score == size else None


#: Hard cap for the subset DP below; 2**22 table entries is the most we
#: are willing to allocate.
_DP_BOUND = 22


def check_dp_bound(n: int) -> None:
    """Raise TooLarge when n vertices exceed the subset-DP bound."""
    if n > _DP_BOUND:
        raise TooLarge(f"{n} vertices exceed the subset-DP bound {_DP_BOUND}")


class OrderCosts:
    """Least orientation costs by subset DP over vertex orders.

    The cost of an acyclic orientation is the sum, over its vertices y, of
    ``cost(y, p)``, where p is the bitmask of y's in-neighbours; costs are
    nonnegative and may be ``inf``.  Every acyclic orientation is induced
    by some vertex order, each edge directed from its earlier end, and a
    vertex placed after the set s has in-neighbours N(y) & s, so minima
    over orientations are minima over orders, and a DP over the set placed
    so far finds them without enumerating orientations.  The vertices of
    the masks ``sources`` and ``sinks`` are pinned: a source costs inf
    unless it has no in-neighbour, a sink unless every neighbour is one.
    ``cost`` is called once per vertex and in-neighbour mask.

    ``after[s]``, for a set s that holds every pinned source, every vertex
    of the mask ``holding`` and no pinned sink, is the least cost of the
    vertices outside s over the orientations in which s is an initial set
    (no edge enters s): the least cost of placing the rest after s.
    ``holding`` may hold no pinned sink; a caller that reads ``after``
    only at supersets of it passes it, and the table fills only those.
    ``least`` is the least cost over every orientation that respects the
    pins, computed when first read; it reads ``after`` at the sources, so
    it needs ``holding`` to add no vertex to them.  Refuses graphs above
    the subset-DP bound before allocating the table.

    Pinned vertices are not tabled.  A source has no in-neighbour, so
    moving it to the front of an order of finite cost changes no vertex's
    in-neighbour mask; a sink has no out-neighbour, so moving it to the
    back changes none.  So the rest is placed after s in two runs: the
    unpinned vertices, none of which has a sink for an in-neighbour; the
    sinks, each priced against all its neighbours but the sinks.  The DP
    runs over the 2**(n - pins - held) sets s that hold the sources and
    ``holding``, writing each once, seeded at the set of every vertex but
    the sinks with the sinks' prices, and prices only the unpinned
    vertices outside ``holding`` (a vertex pinned both ways counts as a
    source).  ``least`` is ``after`` at the sources plus each source
    priced against the sources.
    """

    def __init__(
        self,
        g: Graph,
        cost: Callable[[int, int], float],
        *,
        sources: int = 0,
        sinks: int = 0,
        holding: int = 0,
    ):
        check_dp_bound(g.n)
        self.graph = g
        self._cost, self._sources, self._sinks = cost, sources, sinks
        self._holding = holding
        self._memo: list[dict[int, float]] = [{} for _ in range(g.n)]
        self.after = self.placing_after()

    @cached_property
    def least(self) -> float:
        """The least cost over every orientation that respects the pins."""
        sources, masks = self._sources, self.graph.masks
        return self.after[sources] + sum(
            self.price(x, masks[x] & sources) for x in vertices_of(sources)
        )

    def price(self, y: int, p: int) -> float:
        """Vertex y's cost with in-neighbour mask p, pins applied; memoised."""
        c = self._memo[y].get(p)
        if c is None:
            if self._sources >> y & 1 and p or self._sinks >> y & 1 and p != self.graph.masks[y]:
                c = float("inf")
            else:
                c = self._cost(y, p)
            self._memo[y][p] = c
        return c

    def placing_after(self) -> list[float]:
        """The table :attr:`after`: a list over every vertex set, filled
        at the sets that hold every pinned source and every vertex of
        ``holding``, and no pinned sink."""
        price, memo, masks = self.price, self._memo, self.graph.masks
        inf = float("inf")
        full = (1 << self.graph.n) - 1
        sinks = self._sinks & ~self._sources
        held = self._sources | self._holding
        free = full & ~held & ~sinks
        table = [inf] * (full + 1)
        table[free | held] = sum(price(q, masks[q] & ~sinks) for q in vertices_of(sinks))
        s = free
        while s:
            s = (s - 1) & free
            placed = s | held
            best = inf
            rest = free ^ s
            while rest:
                low = rest & -rest
                rest ^= low
                tail = table[placed | low]
                if tail < best:  # costs are nonnegative
                    y = low.bit_length() - 1
                    p = masks[y] & placed
                    c = memo[y].get(p)
                    c = tail + (price(y, p) if c is None else c)
                    if c < best:
                        best = c
            table[placed] = best
        return table

    def single_sink(self, a: int, seeds: int) -> float:
        """Least cost of the vertices of the mask ``a`` over the acyclic
        orientations of G[a] whose only sink is a vertex of ``seeds``.

        Grows the set backwards from the sink: a vertex joins the grown
        set t only through a neighbour already in t, its out-neighbour, so
        every vertex reaches the sink and no other vertex is a sink; its
        in-neighbours are its neighbours in a outside t.  Conversely every
        such orientation grows this way, along a reversed topological
        order.  With a the ancestor set of its sink x and no edge entering
        a, the least cost of an orientation with ancestor set a at x is
        this value plus ``after[a]``.
        """
        masks, price = self.graph.masks, self.price
        inf = float("inf")
        layer: dict[int, float] = {}
        for x in vertices_of(seeds):
            c = price(x, masks[x] & a)
            if c < inf:
                layer[1 << x] = c
        for _ in range(a.bit_count() - 1):
            grown: dict[int, float] = {}
            for t, base in layer.items():
                rest = a & ~t
                scan = rest
                while scan:
                    low = scan & -scan
                    scan ^= low
                    y = low.bit_length() - 1
                    if masks[y] & t:
                        c = base + price(y, masks[y] & rest)
                        if c < grown.get(t | low, inf):
                            grown[t | low] = c
            layer = grown
        return layer.get(a, inf)


def min_two_face_score(g: Graph, sources: tuple[int, ...] = ()) -> int:
    """Minimum of the two-face score over acyclic orientations.

    Restricted to orientations where every vertex in ``sources`` has
    indegree 0; the :class:`OrderCosts` DP with cost C(indegree, 2).
    """
    dp = OrderCosts(
        g,
        lambda y, p: p.bit_count() * (p.bit_count() - 1) // 2,
        sources=mask_of(sources),
    )
    result = dp.least
    if result == float("inf"):
        raise EmptyFamily("no acyclic orientation satisfies the source constraints")
    return int(result)
