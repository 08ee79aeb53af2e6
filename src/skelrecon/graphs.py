"""Undirected graphs, acyclic orientations, frames, and orientation costs.

A vertex set is an int bitmask, bit v for vertex v: adjacency, induced
cycles, candidate facets and the sets of the DPs alike.  An acyclic
orientation is its ancestor bitmasks, one per vertex.  Minima
of per-vertex orientation costs come from one subset DP over vertex
orders (:class:`OrderCosts`), not from enumerating orientations.
Everything here is a pure function over immutable values; graphs and
orientations never mutate after construction.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from .errors import EmptyFamily, TooLarge

#: Cap on the vertex count of orientation enumeration and of the facet-
#: family DPs; force=True lifts it, up to the subset-DP bound.
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

    Adjacency lists are sorted tuples; the edge list is sorted with u < v.
    """

    __slots__ = ("n", "adj", "edges", "_masks")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        canon = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside 0..{n - 1}")
            canon.add((u, v) if u < v else (v, u))
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(canon))
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self.adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(a)) for a in adj)
        self._masks: Optional[tuple[int, ...]] = None

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
        vertex ids back to original ids.
        """
        order = tuple(sorted(set(vertices)))
        back = {w: i for i, w in enumerate(order)}
        edges = [
            (back[u], back[v])
            for u, v in self.edges
            if u in back and v in back
        ]
        return Graph(len(order), edges), order

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"


@dataclass(frozen=True)
class Frame:
    """A k-frame: a root vertex together with k of its neighbors."""

    root: int
    leaves: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "leaves", tuple(sorted(self.leaves)))

    @property
    def k(self) -> int:
        return len(self.leaves)


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
    predicate: Optional[Callable[[Orientation], bool]] = None,
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
            o = Orientation(g, anc)
            if predicate is None or predicate(o):
                yield o
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
    of s is never cancelled.  Only the edge s-t needs the flag, so that
    it is counted once.

    The flow starts from the two-edge paths s-w-t through up to k common
    neighbours w, and augments only for the rest.  Augmenting from any
    feasible flow reaches a maximum one, and no augmenting path cancels
    a seeded path: w's out node is reachable only back from t's in node,
    which the search never leaves.  So the count stays exact.
    """
    adj = g.adj
    pred = [-1] * g.n
    seeds = vertices_of(g.masks[s] & g.masks[t])[:k]
    for w in seeds:
        pred[w] = s
    direct = False  # whether the edge s-t carries a path
    source, sink = 2 * s + 1, 2 * t
    for paths in range(len(seeds), k):
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
    starts from the paths through its common neighbours, which an
    augmenting path never cancels, so every count is exact.
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


def shortest_frame_cycle(g: Graph, w: int, a: int, b: int) -> Optional[int]:
    """The vertex mask of a shortest chordless cycle through the path
    a-w-b, or None when there is none.

    It is w plus a shortest a-b path in G - w - (N(w) minus {a, b}), found
    by breadth-first search over vertex-mask layers and walked back from b
    through the lowest-labelled vertex of each layer.  A shortest path is
    induced and only its ends are neighbours of w, so with w it closes a
    chordless cycle; conversely every chordless cycle through a-w-b holds
    such a path, so None means no chordless cycle passes a-w-b.
    """
    masks = g.masks
    if masks[a] >> b & 1:
        return 1 << w | 1 << a | 1 << b
    allowed = ~(1 << w | masks[w]) | 1 << b
    layers = []
    frontier = seen = 1 << a
    while not frontier >> b & 1:
        layers.append(frontier)
        reach = 0
        scan = frontier
        while scan:
            low = scan & -scan
            scan ^= low
            reach |= masks[low.bit_length() - 1]
        frontier = reach & allowed & ~seen
        if not frontier:
            return None
        seen |= frontier
    cycle = 1 << w | 1 << a | 1 << b
    tip = b
    for layer in reversed(layers[1:]):
        low = masks[tip] & layer
        low &= -low
        cycle |= low
        tip = low.bit_length() - 1
    return cycle


def two_face_witness(
    g: Graph, sources: tuple[int, ...], size: int
) -> Optional[tuple[int, ...]]:
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
    of placed-neighbour counts makes each pick O(log n), O(E log n) in all.
    """
    masks = g.masks
    order = list(sources)
    placed = 0
    for v in order:
        if masks[v] & placed:
            return None
        placed |= 1 << v
    # count[v] is minus v's placed-neighbour count, so the heap entries
    # (count[v], v) pop most neighbours first, lowest label on ties.  A
    # count only grows, so v's newest entry pops before its stale ones.
    count = [-(m & placed).bit_count() for m in masks]
    done = [placed >> v & 1 for v in range(g.n)]
    heap = [(count[v], v) for v in range(g.n) if not done[v]]
    heapq.heapify(heap)
    pop, push, adj = heapq.heappop, heapq.heappush, g.adj
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

    ``after[s]`` is the least cost of the vertices outside s over the
    orientations in which s is an initial set (no edge enters s): the
    least cost of placing the rest after s.  Refuses graphs above the
    subset-DP bound before allocating the table.
    """

    def __init__(
        self,
        g: Graph,
        cost: Callable[[int, int], float],
        *,
        sources: int = 0,
        sinks: int = 0,
    ):
        check_dp_bound(g.n)
        self.graph = g
        self._cost, self._sources, self._sinks = cost, sources, sinks
        self._memo: list[dict[int, float]] = [{} for _ in range(g.n)]
        self.after = self.placing_after((1 << g.n) - 1)

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

    def placing_after(self, within: int):
        """For every subset s of the mask ``within``, the least cost of
        placing the rest of ``within`` after s, counting only in-neighbours
        inside ``within``; a list indexed by s over the whole vertex set,
        a dict otherwise."""
        masks, price, memo = self.graph.masks, self.price, self._memo
        inf = float("inf")
        table: dict[int, float] | list[float] = (
            [inf] * (within + 1) if within == (1 << self.graph.n) - 1 else {}
        )
        table[within] = 0
        s = within
        while s:
            s = (s - 1) & within
            best = inf
            rest = within & ~s
            while rest:
                low = rest & -rest
                rest ^= low
                tail = table[s | low]
                if tail < best:  # costs are nonnegative
                    y = low.bit_length() - 1
                    p = masks[y] & s
                    c = memo[y].get(p)
                    c = tail + (price(y, p) if c is None else c)
                    if c < best:
                        best = c
            table[s] = best
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
    result = dp.after[0]
    if result == float("inf"):
        raise EmptyFamily("no acyclic orientation satisfies the source constraints")
    return int(result)
