"""Independent oracles the tests check library results against.

Each oracle takes a different computational route from the code under
test: faces via Galois-closure of arbitrary subsets instead of pairwise
intersection closure, acyclic-orientation counts via the chromatic
polynomial, orientations via raw edge-direction enumeration, chordless
cycles via full subset scan, connectivity via networkx, facet
containment via a scan of all ordered pairs, face lattices via pairwise
intersection closure ranked by comparing every pair of faces, the
diamond check via a containment count over every interval of length
two, ancestor sets via a walk along the one-step arcs instead of the
transitive masks, exact covers via a search for the maximum cardinality
that does not stop at a target size, two-face scores of vertex orders
via one pass over the edge list, the greedy two-face order via a scan
of all unplaced vertices per step instead of a heap, facet-family
sweeps via every acyclic orientation of the family instead of the
subset DP over initial sets, Kaibel's frame moves via a frame-to-face
index and per-face cycle tables instead of the one step map, facet
reconstruction via three passes per facet (trace, rebuild the vertex
set, count every vertex's neighbours inside it) instead of one,
isomorphism via frozenset layers decoded from every face instead of
int masks, text files via a first pass that checks every line's field
count before any line is read instead of one streaming pass.
The test-only orientation helpers live here too: ``orientation_from_order``
(masks by walking an order's arcs, not the enumerator), ``edge_directions``,
``sinks_in``, ``is_good`` and ``objectives``.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import networkx as nx

from skelrecon.errors import (
    EmptyFamily,
    FrameNotInUniqueTwoFace,
    InconsistentCounts,
    KindMismatch,
    NonSimpleRoot,
    NotASkeleton,
    NotGraded,
)
from skelrecon.graphs import (
    Frame,
    Graph,
    Orientation,
    enumerate_acyclic_orientations,
    induced_cycles,
    is_feasible,
    mask_of,
    simple_sink_term,
    vertices_of,
)
from skelrecon.iso import IsoResult
from skelrecon.lattice import (
    CheckResult,
    FaceLattice,
    KSkeleton,
    PolytopeSpec,
    classify_vertices,
)
from skelrecon.recon2 import Ambiguity, ReconstructionOutcome
from skelrecon.recong import count_sink_frames


def closed_sets(spec):
    """All vertex sets equal to the intersection of the facets containing them.

    For a polytope incidence these are exactly the faces (with the full set
    closed by the empty intersection convention).  Exponential: n <= ~12.
    """
    full = frozenset(range(spec.n))
    facets = [frozenset(f) for f in spec.facets]
    out = set()
    for r in range(spec.n + 1):
        for sub in itertools.combinations(range(spec.n), r):
            s = frozenset(sub)
            closure = full
            for f in facets:
                if s <= f:
                    closure = closure & f
            if closure == s:
                out.add(s)
    out.add(full)
    return out


def facet_containment_error(facets):
    """The error ``PolytopeSpec`` reports for nested facets, or ``None``.

    Facets are canonicalised as ``PolytopeSpec`` does, then every ordered
    pair is tested in canonical order; the first hit names the error.
    """
    canon = sorted(tuple(sorted(set(f))) for f in facets)
    sets = [frozenset(f) for f in canon]
    for i, a in enumerate(sets):
        for j, b in enumerate(sets):
            if i != j and a <= b:
                if a < b:
                    return f"facet {canon[i]} contained in facet {canon[j]}"
                return f"duplicate facet {canon[i]}"
    return None


def _canon(s):
    return tuple(sorted(s))


@dataclass(frozen=True)
class ReferenceLattice:
    """The frozenset views a ``FaceLattice`` decodes, built directly."""

    d: int
    n: int
    faces_by_rank: dict
    rank_of: dict
    upper: dict


def chain_ranked_lattice(spec):
    """The face lattice by intersection closure and all-pairs comparison.

    Closes the facet sets under pairwise intersection, ranks each face by
    the longest containment chain below it over every smaller face, and
    finds each face's upper covers among all larger faces.  Raises the
    ``NotGraded`` errors ``build_face_lattice`` raises, in the same order;
    covers are checked in rank and then vertex order.  Quadratic in the
    face count.
    """
    full = frozenset(range(spec.n))
    facet_sets = [frozenset(f) for f in spec.facets]
    faces = {full, frozenset()}
    faces.update(facet_sets)
    frontier = list(facet_sets)
    while frontier:
        new = set()
        for f in frontier:
            for g in facet_sets:
                h = f & g
                if h not in faces and h not in new:
                    new.add(h)
        faces.update(new)
        frontier = list(new)

    by_size = sorted(faces, key=len)
    rank_of = {}
    for f in by_size:
        below = [rank_of[g] for g in rank_of if g < f]
        rank_of[f] = max(below, default=-2) + 1 if f else -1
    if rank_of[full] != spec.d:
        raise NotGraded(
            f"longest chain gives the full vertex set rank {rank_of[full]}, "
            f"expected {spec.d}"
        )
    for f in facet_sets:
        if rank_of[f] != spec.d - 1:
            raise NotGraded(f"facet {_canon(f)} has rank {rank_of[f]}")

    faces_by_rank = {
        r: tuple(sorted((f for f in faces if rank_of[f] == r), key=_canon))
        for r in range(-1, spec.d + 1)
    }
    # Upper covers: the minimal faces strictly containing each face.
    upper = {}
    for f in faces:
        ups = []
        for h in by_size:
            if len(h) <= len(f) or not f < h:
                continue
            if not any(u < h for u in ups):
                ups.append(h)
        upper[f] = tuple(sorted(ups, key=_canon))
    for r in range(-1, spec.d + 1):
        for f in faces_by_rank[r]:
            for h in upper[f]:
                if rank_of[h] != r + 1:
                    raise NotGraded(
                        f"{_canon(h)} covers {_canon(f)} but spans "
                        f"ranks {r}..{rank_of[h]}"
                    )
    return ReferenceLattice(spec.d, spec.n, faces_by_rank, rank_of, upper)


def reference_diamond(lattice):
    """The diamond check over every interval of length two, as ``validate`` reports it.

    ``lattice`` needs ``d`` and ``faces_by_rank`` only.  Each pair f < h two ranks apart counts the faces g with f < g < h by
    containment, over all faces; the first pair in rank and vertex order of
    f, then vertex order of h, whose count is not 2 is the failure.
    """
    for r in range(-1, lattice.d - 1):
        middle = lattice.faces_by_rank[r + 1]
        for f in lattice.faces_by_rank[r]:
            for h in lattice.faces_by_rank[r + 2]:
                if f < h:
                    count = sum(1 for g in middle if f < g < h)
                    if count != 2:
                        return CheckResult(
                            "diamond",
                            False,
                            f"interval {sorted(f)}..{sorted(h)} has {count} intermediate faces",
                        )
    return CheckResult("diamond", True, "every rank-2 interval has exactly 2 intermediates")


def chromatic_polynomial(g: Graph, x: int) -> int:
    """Deletion-contraction evaluation; |value at -1| counts acyclic orientations."""

    def rec(n, edges):
        if not edges:
            return x ** n
        (u, v), rest = edges[0], edges[1:]
        deleted = rec(n, rest)
        relabel = {w: (w if w != max(u, v) else min(u, v)) for w in range(n)}
        shift = {w: w - (1 if w > max(u, v) else 0) for w in range(n)}
        contracted = set()
        for a, b in rest:
            a2, b2 = shift[relabel[a]], shift[relabel[b]]
            if a2 != b2:
                contracted.add((min(a2, b2), max(a2, b2)))
        return deleted - rec(n - 1, sorted(contracted))

    return rec(g.n, list(g.edges))


def acyclic_orientation_count(g: Graph) -> int:
    return abs(chromatic_polynomial(g, -1))


def brute_force_orientations(g: Graph):
    """All acyclic orientations as edge-direction tuples (True: low -> high)."""
    out = []
    m = len(g.edges)
    for dirs in itertools.product((True, False), repeat=m):
        adj = {v: [] for v in range(g.n)}
        for (u, v), low_to_high in zip(g.edges, dirs):
            if low_to_high:
                adj[u].append(v)
            else:
                adj[v].append(u)
        # cycle check by repeated sink removal
        indeg = {v: 0 for v in range(g.n)}
        for v in adj:
            for w in adj[v]:
                indeg[w] += 1
        queue = [v for v in indeg if indeg[v] == 0]
        seen = 0
        while queue:
            v = queue.pop()
            seen += 1
            for w in adj[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        if seen == g.n:
            out.append(dirs)
    return out


def orientation_from_order(g: Graph, order) -> Orientation:
    """Every edge directed from its earlier end in order, built by walking
    the order's arcs instead of by the enumerator."""
    if sorted(order) != list(range(g.n)):
        raise ValueError("order must be a permutation of the vertices")
    pos = {v: i for i, v in enumerate(order)}
    anc = [1 << v for v in range(g.n)]
    for v in order:
        for w in g.adj[v]:
            if pos[w] < pos[v]:
                anc[v] |= anc[w]
    return Orientation(g, anc)


def edge_directions(o) -> tuple[bool, ...]:
    """o as the edge-direction tuple of ``brute_force_orientations``."""
    return tuple(bool(o.anc[v] >> u & 1) for u, v in o.graph.edges)


def sinks_in(o, vertices) -> list[int]:
    """Sinks of the subgraph induced by the given vertex set, ascending."""
    vset = set(vertices)
    return sorted(
        v for v in vset
        if not any(o.anc[w] >> v & 1 for w in o.graph.adj[v] if w in vset)
    )


def is_good(o, facets) -> bool:
    """True iff every facet-induced subgraph has exactly one sink."""
    return all(len(sinks_in(o, f)) == 1 for f in facets)


@dataclass(frozen=True)
class OrientationScores:
    """The three orientation objectives of the reconstruction sweeps.

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


def objectives(o: Orientation, d: int, simple) -> OrientationScores:
    """Evaluate the sweep objectives for one orientation, from its indegrees."""
    two_face = sum(k * (k - 1) // 2 for k in o.indegree)
    kalai = sum(1 << k for k in o.indegree)
    sink = sum(simple_sink_term(o.indegree[v], d) for v in simple)
    return OrientationScores(two_face, kalai, sink)


def reference_ancestors(o, x: int) -> frozenset[int]:
    """All vertices with a directed path to x under o, including x.

    Walks back from x along the one-step arcs read off the orientation
    (w -> v when w is in ``o.anc[v]``) with a set-based search.
    """
    seen = {x}
    stack = [x]
    while stack:
        v = stack.pop()
        for w in o.graph.adj[v]:
            if o.anc[v] >> w & 1 and w not in seen:
                seen.add(w)
                stack.append(w)
    return frozenset(seen)


def brute_force_chordless_cycles(g: Graph):
    """Vertex sets whose induced subgraph is connected and 2-regular."""
    out = set()
    for r in range(3, g.n + 1):
        for sub in itertools.combinations(range(g.n), r):
            s = set(sub)
            degs = [sum(1 for w in g.adj[v] if w in s) for v in sub]
            if any(dd != 2 for dd in degs):
                continue
            comp = {sub[0]}
            stack = [sub[0]]
            while stack:
                v = stack.pop()
                for w in g.adj[v]:
                    if w in s and w not in comp:
                        comp.add(w)
                        stack.append(w)
            if len(comp) == r:
                out.add(frozenset(sub))
    return out


def max_exact_cover(columns: list, rows: list[list[int]]) -> Optional[list[int]]:
    """Maximum-cardinality exact cover; rows index into columns.

    Backtracking with branch on the uncovered column with the fewest
    still-usable rows (lowest index on ties), rows tried in input order;
    prunes dead branches and branches that cannot beat the best cover
    found so far.  Returns the chosen row indices of the first maximum
    cover in that order, or None when no exact cover exists.
    """
    ncols = len(columns)
    full = (1 << ncols) - 1
    row_masks = []
    for r in rows:
        m = 0
        for c in r:
            m |= 1 << c
        row_masks.append(m)
    rows_of_col: list[tuple[tuple[int, int], ...]] = [() for _ in range(ncols)]
    acc: list[list[tuple[int, int]]] = [[] for _ in range(ncols)]
    for ri, r in enumerate(rows):
        for c in r:
            acc[c].append((ri, row_masks[ri]))
    for c in range(ncols):
        rows_of_col[c] = tuple(acc[c])
    # An exact cover of R columns spends exactly R column-slots, so the
    # number of additional rows is at most the largest k whose k globally
    # smallest row sizes sum to at most R.
    sizes = sorted(len(r) for r in rows)
    reachable = [0] * (ncols + 1)
    k = total = 0
    for budget in range(ncols + 1):
        while k < len(sizes) and total + sizes[k] <= budget:
            total += sizes[k]
            k += 1
        reachable[budget] = k

    best: list[Optional[tuple[int, ...]]] = [None]
    best_count = [-1]

    def search(uncovered: int, chosen: list[int]):
        if uncovered == 0:
            if len(chosen) > best_count[0]:
                best_count[0] = len(chosen)
                best[0] = tuple(chosen)
            return
        if len(chosen) + reachable[uncovered.bit_count()] <= best_count[0]:
            return
        # Most-constrained uncovered column; forced columns cascade first.
        branch_rows = None
        fewest = None
        scan = uncovered
        while scan:
            bit = scan & -scan
            scan ^= bit
            col = bit.bit_length() - 1
            usable = [
                (ri, m) for ri, m in rows_of_col[col] if m & uncovered == m
            ]
            if not usable:
                return
            if fewest is None or len(usable) < fewest:
                fewest = len(usable)
                branch_rows = usable
                if fewest == 1:
                    break
        for ri, m in branch_rows:
            chosen.append(ri)
            search(uncovered & ~m, chosen)
            chosen.pop()

    search(full, [])
    return list(best[0]) if best[0] is not None else None


def two_face_score_of_order(n: int, edges, sources, order) -> int:
    """Sum of C(indegree, 2) with every edge directed from its earlier end
    in order; one pass over the edges.

    Raises ValueError unless order is a permutation of 0..n-1 that starts
    with the sources and leaves each of them with indegree 0.
    """
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of the vertices")
    if set(order[:len(sources)]) != set(sources):
        raise ValueError("order must start with the sources")
    pos = {v: i for i, v in enumerate(order)}
    indegree = [0] * n
    for u, v in edges:
        indegree[v if pos[u] < pos[v] else u] += 1
    if any(indegree[v] for v in sources):
        raise ValueError("a source has an in-neighbour")
    return sum(k * (k - 1) // 2 for k in indegree)


def scan_two_face_order(g: Graph, sources) -> Optional[tuple[int, ...]]:
    """The greedy order of :func:`skelrecon.graphs.two_face_witness`, by a
    scan: the sources, then each time the unplaced vertex with the most
    placed neighbours, lowest label on ties.  None when two sources are
    adjacent.  Quadratic in n.
    """
    masks = g.masks
    order = list(sources)
    placed = 0
    for v in order:
        if masks[v] & placed:
            return None
        placed |= 1 << v
    unplaced = [v for v in range(g.n) if not placed >> v & 1]
    while unplaced:
        best = max(unplaced, key=lambda v: (masks[v] & placed).bit_count())
        order.append(best)
        placed |= 1 << best
        unplaced.remove(best)
    return tuple(order)


def nx_graph(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def nx_local_connectivity(g: Graph, s: int, t: int) -> int:
    """The most internally vertex-disjoint s-t paths; an edge st is one of them."""
    return nx.algorithms.connectivity.local_node_connectivity(nx_graph(g), s, t)


def nx_k_connected(g: Graph, k: int) -> bool:
    """No vertex cut of size below k (complete graphs have no cut at all)."""
    if k <= 0:
        return True
    if g.n == 0:
        return False
    h = nx_graph(g)
    if not nx.is_connected(h):
        return False
    if len(g.edges) == g.n * (g.n - 1) // 2:
        return True
    return nx.node_connectivity(h) >= k


# -- facet-family sweeps by enumerating orientations ---------------------------


def reference_harvester(g: Graph, d: int, simple):
    """The harvest rule of the family sweeps, with its feasibility cache.

    ``harvest(o, need, avoid)`` yields, for the simple vertices in
    ascending order, the ancestor masks under o that hold every vertex of
    the mask ``need``, none of ``avoid``, and induce a feasible subgraph.
    """
    order = sorted(simple)
    simple_mask = mask_of(simple)
    cache: dict[int, bool] = {}

    def harvest(o, need: int, avoid: int):
        for x in order:
            anc = o.anc[x]
            if anc & need != need or anc & avoid:
                continue
            ok = cache.get(anc)
            if ok is None:
                ok = cache[anc] = is_feasible(g, anc, d, simple_mask)
            if ok:
                yield anc

    return harvest


def reference_sweep(g, *, first=(), last=(), family=None, objective, collect, force=False):
    """The objective minimum over an orientation family and the union of
    ``collect`` over its minimisers, decoded to sorted vertex tuples; one
    pass over every orientation of the family."""
    best = None
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


def reference_find_facets_avoiding(g, d, u, v, mode, *, force=False):
    """``find_facets_avoiding`` by sweeping every orientation of the family:
    u a source and v a sink for "u_minus_v" (u and v swapped for
    "v_minus_u"), or for "uv" the unpinned orientations with a feasible
    ancestor set of a simple vertex holding both."""
    simple = classify_vertices(g, d).simple
    harvest = reference_harvester(g, d, simple)
    if mode == "v_minus_u":
        u, v = v, u
        mode = "u_minus_v"
    if mode == "u_minus_v":
        first, last, need, avoid = (u,), (v,), 1 << u, 1 << v
    elif mode == "uv":
        first, last, need, avoid = (), (), 1 << u | 1 << v, 0
    else:
        raise ValueError(f"unknown mode {mode!r}")
    minimum, found = reference_sweep(
        g,
        first=first,
        last=last,
        family=(lambda o: any(harvest(o, need, avoid))) if mode == "uv" else None,
        objective=lambda o: objectives(o, d, simple).simple_sink_score,
        collect=lambda o: harvest(o, need, avoid),
        force=force,
    )
    return found, minimum


def reference_find_facets_empty(g, d, u, v, known, expected, *, force=False):
    """``find_facets_empty`` by sweeping every orientation with v a sink in
    which a feasible ancestor set of a simple vertex avoids u and v."""
    if expected == 0:
        return ()
    simple = classify_vertices(g, d).simple
    harvest = reference_harvester(g, d, simple)
    u_facets = [mask_of(f) for f in known if u in f and v not in f]
    both = 1 << u | 1 << v

    def objective(o):
        score = objectives(o, d, simple).simple_sink_score
        return score + count_sink_frames(g, d, u, u_facets, o.anc[u])

    _, out = reference_sweep(
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


def reference_uv_two_faces(g, d, u, v, *, force=False):
    """The induced cycles through u and v that are initial under some
    kalai-score minimiser with u a source and v of indegree 1, by sweeping
    every orientation with u a source; vertex masks in vertex-tuple order."""
    cycles = [c for c in induced_cycles(g) if c >> u & c >> v & 1]
    if not cycles:
        return []

    def initial_cycles(o):
        if o.indegree[v] != 1:
            return []
        return [c for c in cycles if all(o.anc[x] | c == c for x in vertices_of(c))]

    _, found = reference_sweep(
        g,
        first=(u,),
        objective=lambda o: objectives(o, d, ()).kalai_score,
        collect=initial_cycles,
        force=force,
    )
    return [mask_of(c) for c in found]


class ReferenceFrameGraph:
    """Simple-rooted 2-frames indexed by their 2-face, plus each face's
    boundary cycle as a neighbour-pair map, instead of the step map: the
    frame move is a face lookup followed by a cycle step."""

    def __init__(self, skeleton: KSkeleton, d: int):
        graph = skeleton.graph
        n = graph.n
        classes = classify_vertices(graph, d)
        self.skeleton = skeleton
        self.d = d
        self.simple = classes.simple
        self.nonsimple = classes.nonsimple
        self.face_cycle: list[dict[int, tuple[int, int]]] = []
        # 2-frame (root, {a, b}) with a < b is keyed as (root*n + a)*n + b.
        self.index: dict[int, int] = {}
        adj = graph.adj
        frames_at = [0] * n
        for fi, face in enumerate(skeleton.two_faces):
            cycle: dict[int, tuple[int, int]] = {}
            for v in face:
                inside = [w for w in adj[v] if w in face]
                if len(inside) != 2:
                    raise NotASkeleton(
                        f"2-face {tuple(sorted(face))} is not an induced cycle at {v}"
                    )
                cycle[v] = (inside[0], inside[1])
            start = next(iter(face))
            prev, v = start, cycle[start][0]
            length = 1
            while v != start:
                a, b = cycle[v]
                prev, v = v, (b if a == prev else a)
                length += 1
            if length != len(face):
                raise NotASkeleton(f"2-face {tuple(sorted(face))} is not a single cycle")
            self.face_cycle.append(cycle)
            for v in face:
                if v not in self.simple:
                    continue
                a, b = cycle[v]
                key = (v * n + a) * n + b if a < b else (v * n + b) * n + a
                if key in self.index:
                    raise FrameNotInUniqueTwoFace(
                        f"2-frame ({v}, {a}, {b}) lies in more than one 2-face"
                    )
                self.index[key] = fi
                frames_at[v] += 1
        if any(frames_at[v] != len(adj[v]) * (len(adj[v]) - 1) // 2 for v in self.simple):
            for v in sorted(self.simple):
                for a, b in itertools.combinations(adj[v], 2):
                    if (v * n + a) * n + b not in self.index:
                        raise FrameNotInUniqueTwoFace(
                            f"2-frame ({v}, {a}, {b}) lies in no 2-face"
                        )

    @property
    def node_count(self) -> int:
        return len(self.index)

    def face_of(self, root: int, a: int, b: int) -> int:
        n = self.skeleton.graph.n
        key = (root * n + a) * n + b if a < b else (root * n + b) * n + a
        try:
            return self.index[key]
        except KeyError:
            raise FrameNotInUniqueTwoFace(
                f"2-frame ({root}, {a}, {b}) lies in no 2-face"
            ) from None

    def continue_past(self, face_id: int, v: int, origin: int) -> int:
        """The neighbour of v on the face cycle other than origin."""
        a, b = self.face_cycle[face_id][v]
        if a == origin:
            return b
        if b == origin:
            return a
        raise NotASkeleton(f"{origin} is not a cycle neighbor of {v} on face {face_id}")


def reference_kaibel_step(fg: ReferenceFrameGraph, frame: Frame, u2: int) -> Frame:
    """Kaibel's move through the face index and the cycle table."""
    graph = fg.skeleton.graph
    u = frame.root
    if u not in fg.simple:
        raise NonSimpleRoot(f"frame root {u} is not simple")
    if u2 not in fg.simple:
        raise NonSimpleRoot(f"target {u2} is not simple")
    if u2 not in frame.leaves:
        raise ValueError(f"{u2} is not in the frame at {u}")
    outside = [w for w in graph.adj[u] if w not in frame.leaves]
    if len(outside) != 1:
        raise NotASkeleton(f"frame at {u} does not omit exactly one neighbor")
    u_hat = fg.continue_past(fg.face_of(u, outside[0], u2), u2, u)
    return Frame(u2, tuple(w for w in graph.adj[u2] if w != u_hat))


def reference_trace(fg: ReferenceFrameGraph, graph: Graph, root, excluded, visited, trace_id):
    """``recon2._trace`` with each move taken by :func:`reference_kaibel_step`'s
    lookups; same arguments, same frames, same errors."""
    n = graph.n
    frames = [(root, excluded)]
    visited[root * n + excluded] = trace_id
    queue = deque(frames)
    while queue:
        w, ex = queue.popleft()
        for u2 in graph.adj[w]:
            if u2 == ex or u2 not in fg.simple:
                continue
            u_hat = fg.continue_past(fg.face_of(w, ex, u2), u2, w)
            prev = visited.get(u2 * n + u_hat)
            if prev is None:
                visited[u2 * n + u_hat] = trace_id
                frames.append((u2, u_hat))
                queue.append((u2, u_hat))
            elif prev != trace_id:
                raise NotASkeleton(
                    f"frame ({u2}, {u_hat}) reached from two different facet traces"
                )
    return frames


def _reference_region_vertices(graph: Graph, frames) -> frozenset[int]:
    region: set[int] = set()
    for w, ex in frames:
        region.add(w)
        region.update(v for v in graph.adj[w] if v != ex)
    return frozenset(region)


def _reference_check_region(fg, graph: Graph, d, region, visited, trace_id):
    """Induced degrees and frame coverage, counted per vertex of the region;
    ``visited`` maps root*n + excluded to the trace that reached the frame."""
    n = graph.n
    for v in region:
        inside = [w for w in graph.adj[v] if w in region]
        if v in fg.simple:
            if len(inside) != d - 1:
                raise NotASkeleton(
                    f"simple vertex {v} has {len(inside)} neighbors in region "
                    f"{tuple(sorted(region))}"
                )
            outside = [w for w in graph.adj[v] if w not in region]
            if visited.get(v * n + outside[0]) != trace_id:
                raise NotASkeleton(
                    f"frame at simple vertex {v} missing from its own trace"
                )
        elif len(inside) < d - 1:
            raise NotASkeleton(
                f"nonsimple vertex {v} has {len(inside)} < d-1 neighbors in region"
            )


def reference_reconstruct(sk: KSkeleton, d: int, parity_hint=None, check=True):
    """``recon2.reconstruct`` in three passes per facet on
    :class:`ReferenceFrameGraph`: trace the frames, rebuild the vertex set
    from them, then count every vertex's neighbours inside it."""
    if d < 3:
        raise ValueError("d must be at least 3")
    if parity_hint not in (None, "even", "odd"):
        raise ValueError("parity_hint must be 'even' or 'odd'")
    graph = sk.graph
    fg = ReferenceFrameGraph(sk, d)
    if not fg.simple:
        raise NotASkeleton("no simple vertex to seed the propagation")

    n = graph.n
    visited: dict[int, int] = {}
    regions: list[frozenset[int]] = []
    for root in sorted(fg.simple):
        for excluded in graph.adj[root]:
            if root * n + excluded in visited:
                continue
            trace_id = len(regions)
            frames = reference_trace(fg, graph, root, excluded, visited, trace_id)
            region = _reference_region_vertices(graph, frames)
            if check:
                _reference_check_region(fg, graph, d, region, visited, trace_id)
            regions.append(region)
    if len(set(regions)) != len(regions):
        raise NotASkeleton("two facet traces produced the same vertex set")

    nonsimple = fg.nonsimple
    ambiguity = None
    if len(nonsimple) == d - 1:
        ncomplete = all(
            graph.has_edge(u, v) for u in nonsimple for v in nonsimple if u < v
        )
        pairs = []
        if ncomplete:
            holders = [r for r in regions if nonsimple <= r]
            for i, a in enumerate(holders):
                for b in holders[i + 1 :]:
                    if a & b == nonsimple and is_feasible(
                        graph, mask_of(a | b), d, mask_of(fg.simple)
                    ):
                        pairs.append((a, b))
        if len(pairs) > 1:
            raise NotASkeleton(
                "more than one candidate pair meets exactly in the nonsimple set"
            )
        if pairs:
            a, b = pairs[0]
            merged = a | b
            split_list = tuple(sorted(tuple(sorted(r)) for r in regions))
            merged_list = tuple(
                sorted(
                    [tuple(sorted(r)) for r in regions if r != a and r != b]
                    + [tuple(sorted(merged))]
                )
            )
            ambiguity = Ambiguity(
                region_a=tuple(sorted(a)),
                region_b=tuple(sorted(b)),
                merged=tuple(sorted(merged)),
                completions=(split_list, merged_list),
            )

    if ambiguity is not None:
        if parity_hint is None:
            return ReconstructionOutcome((), "ambiguous", ambiguity)
        want = 0 if parity_hint == "even" else 1
        for completion in ambiguity.completions:
            if len(completion) % 2 == want:
                return ReconstructionOutcome(completion, "complete", ambiguity)
        raise NotASkeleton("no completion matches the parity hint")

    facets = tuple(sorted(tuple(sorted(r)) for r in regions))
    return ReconstructionOutcome(facets, "complete")


# -- isomorphism on frozenset layers -------------------------------------------


def _reference_layers(obj):
    """(kind tag, n, {rank: frozenset faces}) with rank >= 1 layers."""
    if isinstance(obj, FaceLattice):
        layers = {r: obj.faces_of_rank(r) for r in range(1, obj.d)}
        return ("lattice", obj.d), obj.n, layers
    if isinstance(obj, KSkeleton):
        edge_layer = tuple(
            sorted((frozenset(e) for e in obj.graph.edges), key=lambda s: tuple(sorted(s)))
        )
        layers = {1: edge_layer}
        for r, fs in obj.faces_by_dim.items():
            layers[r] = fs
        return ("skeleton", obj.k), obj.graph.n, layers
    raise KindMismatch(f"cannot compare objects of type {type(obj).__name__}")


def _reference_profiles(n, layers, rounds=3):
    member = {}
    for r, faces in layers.items():
        per = [[] for _ in range(n)]
        for f in faces:
            for v in f:
                per[v].append(len(f))
        member[r] = [tuple(sorted(s)) for s in per]
    colors = [tuple((r, member[r][v]) for r in sorted(member)) for v in range(n)]
    adj = [[] for _ in range(n)]
    for e in layers.get(1, ()):
        u, v = sorted(e)
        adj[u].append(v)
        adj[v].append(u)
    for _ in range(rounds):
        palette = {c: i for i, c in enumerate(sorted(set(colors)))}
        coded = [palette[c] for c in colors]
        colors = [(coded[v], tuple(sorted(coded[w] for w in adj[v]))) for v in range(n)]
    return colors


def _reference_verified(layers_a, layers_b, mapping):
    for r, faces in layers_a.items():
        if {frozenset(mapping[v] for v in f) for f in faces} != set(layers_b[r]):
            return False
    return True


def _reference_graph_isomorphisms(n, edges_a, edges_b, candidates, order):
    mapping = {}
    used = set()

    def extend(i):
        if i == n:
            yield tuple(mapping[v] for v in range(n))
            return
        v = order[i]
        for w in candidates[v]:
            if w in used:
                continue
            if any((v2 in edges_a[v]) != (w2 in edges_b[w]) for v2, w2 in mapping.items()):
                continue
            mapping[v] = w
            used.add(w)
            yield from extend(i + 1)
            del mapping[v]
            used.discard(w)

    yield from extend(0)


def reference_isomorphic(a, b) -> IsoResult:
    """The same decision on frozenset layers: every face is decoded to a
    vertex set before the counts, sizes and identity are compared."""
    kind_a, n_a, layers_a = _reference_layers(a)
    kind_b, n_b, layers_b = _reference_layers(b)
    if kind_a != kind_b:
        raise KindMismatch(f"cannot compare {kind_a} with {kind_b}")
    if n_a != n_b:
        return IsoResult(False, obstruction=f"vertex counts {n_a} != {n_b}")
    if set(layers_a) != set(layers_b):
        return IsoResult(False, obstruction="different face ranks present")
    for r in sorted(layers_a):
        ca, cb = len(layers_a[r]), len(layers_b[r])
        if ca != cb:
            return IsoResult(False, obstruction=f"rank {r} face counts {ca} != {cb}")
        if sorted(len(f) for f in layers_a[r]) != sorted(len(f) for f in layers_b[r]):
            return IsoResult(False, obstruction=f"rank {r} face sizes differ")
    n = n_a
    identity = tuple(range(n))
    if _reference_verified(layers_a, layers_b, identity):
        return IsoResult(True, witness=identity)
    prof_a = _reference_profiles(n, layers_a)
    prof_b = _reference_profiles(n, layers_b)
    if sorted(prof_a) != sorted(prof_b):
        return IsoResult(False, obstruction="vertex profile multisets differ")
    candidates = {v: [w for w in range(n) if prof_b[w] == prof_a[v]] for v in range(n)}
    order = sorted(range(n), key=lambda v: (len(candidates[v]), v))
    edges_a = [set() for _ in range(n)]
    edges_b = [set() for _ in range(n)]
    for edges, layers in ((edges_a, layers_a), (edges_b, layers_b)):
        for e in layers.get(1, ()):
            u, v = sorted(e)
            edges[u].add(v)
            edges[v].add(u)
    for perm in _reference_graph_isomorphisms(n, edges_a, edges_b, candidates, order):
        if _reference_verified(layers_a, layers_b, perm):
            return IsoResult(True, witness=perm)
    return IsoResult(False, obstruction="search exhausted")


def reference_parse(fmt: str, text: str):
    """``text`` read as an incidence ("spec"), skeleton or edge list
    ("edges") file in separate passes: every line is split and its field
    count checked before any is read, then the lines are read in order,
    then the face lines are checked, then the edges."""
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < {"d": 2, "vertices": 2, "edge": 3}.get(parts[0], 1):
            raise ValueError(f"too few fields in line: {line}")
        rows.append(parts)

    def bad(what, parts):
        return ValueError(f"{what} in line: {' '.join(parts)}")

    def num(field, parts):
        try:
            return int(field)
        except ValueError:
            raise bad("non-integer field", parts) from None

    headers = ("vertices",) if fmt == "edges" else ("d", "vertices")
    head, edges, facets, faces = {}, [], [], []
    for parts in rows:
        key = parts[0]
        if key in headers:
            if key in head:
                raise bad("repeated header", parts)
            head[key] = num(parts[1], parts)
            if key == "vertices" and head[key] < 0:
                raise bad("negative vertex count", parts)
        elif key == "edge" and fmt != "spec":
            edges.append((num(parts[1], parts), num(parts[2], parts), parts))
        elif key == "facet" and fmt == "spec":
            facets.append([num(v, parts) for v in parts[1:]])
        elif key.startswith("face") and fmt == "skeleton":
            faces.append((num(key[4:], parts), parts))
        else:
            raise ValueError(f"unexpected line: {' '.join(parts)}")
    if fmt == "edges":
        n = head.get("vertices", max((max(u, v) for u, v, _ in edges), default=-1) + 1)
    elif len(head) < 2:
        raise ValueError("missing d or vertices header")
    else:
        d, n = head["d"], head["vertices"]
    if fmt == "spec":
        return PolytopeSpec(d, n, facets)
    by_rank: dict[int, list[frozenset[int]]] = {}
    for r, parts in faces:
        if not 2 <= r <= d - 1:
            raise bad(f"face rank outside 2..{d - 1}", parts)
        face = frozenset(num(v, parts) for v in parts[1:])
        if not face:
            raise bad("too few fields", parts)
        if min(face) < 0 or max(face) >= n:
            raise bad(f"vertex outside 0..{n - 1}", parts)
        by_rank.setdefault(r, []).append(face)
    for u, v, parts in edges:
        if u == v:
            raise bad("loop", parts)
        if not (0 <= u < n and 0 <= v < n):
            raise bad(f"vertex outside 0..{n - 1}", parts)
    graph = Graph(n, [(u, v) for u, v, _ in edges])
    if fmt == "edges":
        return graph
    faces_by_dim = {r: tuple(sorted(fs, key=sorted)) for r, fs in by_rank.items()}
    return KSkeleton(k=max(by_rank, default=1), graph=graph, faces_by_dim=faces_by_dim), d
