"""Undirected graphs, acyclic orientations, frames, and orientation objectives.

An acyclic orientation is its ancestor bitmasks, one per vertex.
Everything here is a pure function over immutable values; graphs and
orientations never mutate after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from .errors import EmptyFamily, TooLarge

#: Cap for exhaustive orientation sweeps (override with force=True).
DEFAULT_ENUMERATION_BOUND = 12


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
            out = []
            for v in range(self.n):
                m = 0
                for w in self.adj[v]:
                    m |= 1 << w
                out.append(m)
            self._masks = tuple(out)
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
    if g.n > DEFAULT_ENUMERATION_BOUND and not force:
        raise TooLarge(
            f"{g.n} vertices exceed the enumeration bound "
            f"{DEFAULT_ENUMERATION_BOUND}; pass force=True"
        )
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


@dataclass(frozen=True)
class OrientationScores:
    """The three orientation objectives used by the reconstruction sweeps.

    two_face_score   sum over all vertices of C(indegree, 2); bounds the
                     number of 2-faces from above.
    kalai_score      sum over all vertices of 2**indegree; counts pairs
                     (face, sink) and is minimised exactly by the good
                     orientations of a polytope graph.
    simple_sink_score  h[d-1] + d*h[d] over simple vertices only; counts
                     pairs (facet, simple sink).
    """

    two_face_score: int
    kalai_score: int
    simple_sink_score: int


def objectives(o: Orientation, d: int, simple: Iterable[int]) -> OrientationScores:
    """Evaluate the sweep objectives for one orientation."""
    two_face = sum(k * (k - 1) // 2 for k in o.indegree)
    kalai = sum(1 << k for k in o.indegree)
    sink = 0
    for v in simple:
        k = o.indegree[v]
        if k == d - 1:
            sink += 1
        elif k == d:
            sink += d
    return OrientationScores(two_face, kalai, sink)


def ancestors(o: Orientation, x: int) -> frozenset[int]:
    """All vertices with a directed path to x, including x.

    The result is an initial set of the orientation, and x is its unique
    sink.  Decodes ``o.anc[x]``.
    """
    return frozenset(vertices_of(o.anc[x]))


def _disjoint_paths(g: Graph, s: int, t: int, k: int) -> int:
    """Internally vertex-disjoint s-t paths in g, counted up to k.

    Unit-capacity augmenting paths over the split graph, where vertex v
    becomes an arc from node 2v (in) to node 2v+1 (out) and each edge uw
    the arcs 2u+1 -> 2w and 2w+1 -> 2u.  Paths run from s's out node to
    t's in node; ``flow`` holds the saturated arcs.
    """
    flow: set[tuple[int, int]] = set()
    source, sink = 2 * s + 1, 2 * t
    for paths in range(k):
        parent = {source: source}
        queue = [source]
        for a in queue:
            v = a >> 1
            if a & 1:
                steps = [2 * w for w in g.adj[v] if (a, 2 * w) not in flow]
                if (a - 1, a) in flow:
                    steps.append(a - 1)
            else:
                steps = [2 * w + 1 for w in g.adj[v] if (2 * w + 1, a) in flow]
                if (a, a + 1) not in flow:
                    steps.append(a + 1)
            for b in steps:
                if b not in parent:
                    parent[b] = a
                    queue.append(b)
            if sink in parent:
                break
        else:
            return paths
        b = sink
        while b != source:
            a = parent[b]
            # The split graph has no antiparallel arcs, so a saturated (b, a)
            # means this step cancelled flow.
            if (b, a) in flow:
                flow.remove((b, a))
            else:
                flow.add((a, b))
            b = a
    return k


def k_connected(g: Graph, k: int) -> bool:
    """True iff no vertex cut of size < k exists.

    A complete graph has no cut; a graph with no vertices is not
    connected.  Even's pair scan (Even and Tarjan, SIAM J. Comput. 1975):
    a cut S with |S| < k misses one of the first k vertices, and the first
    vertex i it misses is separated from some later vertex j not adjacent
    to it, so it suffices that every such pair is joined by k
    vertex-disjoint paths.
    """
    if k <= 0:
        return True
    if g.n == 0:
        return False
    masks = g.masks
    for i in range(min(k, g.n)):
        for j in range(i + 1, g.n):
            if not masks[i] >> j & 1 and _disjoint_paths(g, i, j, k) < k:
                return False
    return True


def is_feasible(g: Graph, vertices: Iterable[int], d: int, simple: Iterable[int]) -> bool:
    """Whether a vertex set induces a candidate facet graph.

    The induced subgraph must be (d-1)-connected, simple vertices of the
    ambient polytope must have induced degree exactly d-1, and nonsimple
    ones at least d-1.
    """
    vset = set(vertices)
    if not vset:
        return False
    simple_set = set(simple)
    for v in vset:
        dv = sum(1 for w in g.adj[v] if w in vset)
        if v in simple_set:
            if dv != d - 1:
                return False
        elif dv < d - 1:
            return False
    sub, _ = g.induced(vset)
    return k_connected(sub, d - 1)


def induced_cycles(g: Graph) -> list[frozenset[int]]:
    """All vertex sets inducing a single chordless cycle of length >= 3.

    Sorted by (length, sorted vertex tuple) so downstream searches are
    deterministic.
    """
    adjsets = [set(a) for a in g.adj]
    found: set[frozenset[int]] = set()
    for s in range(g.n):
        # DFS over induced paths starting at s using vertices > s only;
        # a path closes into a chordless cycle when the tip meets s again.
        stack: list[tuple[tuple[int, ...], set[int]]] = [
            ((s, p1), {s, p1}) for p1 in g.adj[s] if p1 > s
        ]
        while stack:
            path, pset = stack.pop()
            tip = path[-1]
            interior = pset - {s, tip}
            for x in g.adj[tip]:
                if x <= s or x in pset:
                    continue
                if adjsets[x] & interior:
                    continue  # chord into the path interior
                if s in adjsets[x]:
                    if path[1] < x:
                        found.add(frozenset(path + (x,)))
                    continue  # extending past x would leave a chord to s
                stack.append((path + (x,), pset | {x}))
    return sorted(found, key=lambda c: (len(c), tuple(sorted(c))))


def two_face_witness(
    g: Graph, sources: tuple[int, ...], cover_masks: list[int]
) -> Optional[tuple[int, ...]]:
    """A vertex order whose two-face score equals the number of cover
    cycles, or None.

    ``cover_masks`` are the vertex bitmasks of chordless cycles.  The
    order places ``sources`` first, then repeatedly the unplaced vertex
    with the most placed neighbours (lowest label on ties), refusing a
    vertex that would be a sink of a cover cycle that still has unplaced
    vertices, so each cycle gets one sink, its last vertex.  Each vertex
    is placed once, with no backtracking.  The order, every edge directed
    from its earlier end, is an acyclic orientation with the sources as
    sources; it is returned only if its two-face score, the sum of
    C(indegree, 2), equals the number of cycles, which then certifies
    that number as :func:`min_two_face_score` for an exact cover of the
    simple-rooted 2-frames (weak duality, see
    :func:`skelrecon.recong.max_two_system`).
    """
    masks = g.masks
    # Per vertex: (cycle mask, mask of the vertex's two cycle neighbours).
    sink_rules: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for c in cover_masks:
        for v in vertices_of(c):
            sink_rules[v].append((c, masks[v] & c))
    order = list(sources)
    placed = 0
    for v in order:
        if masks[v] & placed:
            return None
        placed |= 1 << v
    score = 0
    unplaced = [v for v in range(g.n) if not placed >> v & 1]
    while unplaced:
        best = best_in = -1
        for v in unplaced:
            k = (masks[v] & placed).bit_count()
            if k <= best_in:
                continue
            after = placed | 1 << v
            if any(nb & placed == nb and c & ~after for c, nb in sink_rules[v]):
                continue
            best, best_in = v, k
        if best < 0:
            return None
        order.append(best)
        placed |= 1 << best
        unplaced.remove(best)
        score += best_in * (best_in - 1) // 2
    return tuple(order) if score == len(cover_masks) else None


#: Hard cap for the subset DP below; 2**22 table entries is the most we
#: are willing to allocate.
_DP_BOUND = 22


def check_dp_bound(n: int) -> None:
    """Raise TooLarge when n vertices exceed the subset-DP bound."""
    if n > _DP_BOUND:
        raise TooLarge(f"{n} vertices exceed the subset-DP bound {_DP_BOUND}")


def min_two_face_score(g: Graph, sources: tuple[int, ...] = ()) -> int:
    """Minimum of the two-face score over acyclic orientations.

    Restricted to orientations where every vertex in ``sources`` has
    indegree 0.  Computed by a subset DP over vertex-addition orders: when a
    vertex joins after the set S it acquires indegree |N(v) & S|, and every
    acyclic orientation is induced by some such order, so the DP minimum
    equals the sweep minimum without enumerating orientations.
    """
    n = g.n
    check_dp_bound(n)
    masks = g.masks
    source_bits = 0
    for u in sources:
        source_bits |= 1 << u
    c2 = [k * (k - 1) // 2 for k in range(n + 1)]
    full = (1 << n) - 1
    inf = float("inf")
    dp: list[float] = [inf] * (full + 1)
    dp[0] = 0
    bits = [1 << v for v in range(n)]
    for s in range(full + 1):
        base = dp[s]
        if base is inf:
            continue
        for v in range(n):
            b = bits[v]
            if s & b:
                continue
            overlap = s & masks[v]
            if b & source_bits and overlap:
                continue
            t = s | b
            cost = base + c2[overlap.bit_count()]
            if cost < dp[t]:
                dp[t] = cost
    result = dp[full]
    if result == inf:
        raise EmptyFamily("no acyclic orientation satisfies the source constraints")
    return int(result)
