"""Facet reconstruction from 2-skeletons by simple-frame propagation.

A (d-1)-frame rooted at a simple vertex lies in exactly one facet, and
knowing the 2-faces lets us hop from such a frame to the frame of the same
facet at any simple neighbor inside it: the neighbor's frame omits exactly
the vertex that continues the shared 2-face past the neighbor.  That move
is Kaibel's step, and :class:`FrameGraph` stores it in one byte per frame
and neighbour slot: for four consecutive vertices x-w-y-z of a 2-face
with w simple, the entry for w's frame omitting x and for y's slot among
w's neighbours gives z's slot among y's.  Sweeping every simple frame
once traces every facet, one lookup per move, in time linear in the
number of vertices (for fixed d), provided each facet keeps at most d-2
nonsimple vertices.  At every d one pass over the listed 2-faces,
:func:`_two_face_pass`, checks that each is an induced cycle and that
each neighbour pair of a simple vertex, a 2-frame, lies in exactly one.
One pass per facet then traces, collects and checks it (:func:`_facet`).

From d = 4 on, with d-1 nonsimple vertices in total, the sweep can leave
one genuine two-way ambiguity: a pair of traced regions meeting exactly in
the nonsimple set N with N inducing a complete graph is either two
simplex-ish facets sharing the ridge N or a single merged facet with N as
a missing internal ridge.  Both completions are reported; the parity of
the facet count picks one.  Beyond that the 2-skeleton need not determine
the lattice, and a checked run refuses any other traced facet holding
more than d-2 nonsimple vertices with ``TooManyNonsimple``.

At d = 3 the facets are the 2-faces themselves, so nothing is traced and
no :class:`FrameGraph` is built: after the 2-face pass the listed
2-faces are the answer.  A checked run asks that they close into
a sphere: each edge lies in exactly two of them, the 2-faces through
each vertex close into one cycle around it, the graph is connected and
n - |E| + |F| = 2.  Then it asks that any two 2-faces meet in nothing,
one vertex or one edge, which makes the sphere polyhedral and so, by
Steinitz, the boundary of a 3-polytope.  On an input with no nonsimple
vertex only the last three rules do any work: one walk of the graph, one
count and one pass over the 2-faces of six vertices or more.
"""

from __future__ import annotations

from array import array
from collections import Counter, defaultdict, namedtuple
from itertools import chain, combinations, islice

from .errors import FrameNotInUniqueTwoFace, NotASkeleton, TooManyNonsimple
from .graphs import is_feasible, mask_of
from .lattice import KSkeleton, classify_vertices


def _two_face_pass(graph, faces, d: int, nonsimple, nsets):
    """Check the 2-faces ``faces`` of ``graph`` in the order listed.  Yield
    first the scratch lists ``(first, second, pair)``, then each 2-face
    that passes as its sorted vertex tuple; after the last, raise at the
    least 2-frame, a neighbour pair of a simple vertex, that no 2-face
    holds.  ``nonsimple`` holds the vertices of degree above d (none has
    less), and ``nsets`` caches their neighbour sets.

    The scratch is flat and per vertex, allocated once: a stamp
    ``mark[v]``, the index of the last 2-face through v, so that w lies on
    the current 2-face exactly when its stamp is that index; and the lists
    yielded first, which hold for the 2-face just yielded v's two
    neighbours on it, ``first[v]`` before ``second[v]`` in ``adj[v]``, and
    ``pair[v]``, the index of their slots i < j among the pairs in
    lexicographic order, or C(d,2) when v is nonsimple.  A simple vertex
    finds its two by stamp among its d neighbours (unrolled at d = 3), in
    O(d).  A nonsimple vertex scans whichever side is smaller, its
    neighbours by stamp or the 2-face against its neighbour set, in
    O(min(deg, |F|)).  A vertex listed twice counts once either way.

    Each 2-face must be an induced cycle: each of its vertices has two
    neighbours on it, and one walk around the cycle meets them all.  A
    2-face of five vertices or fewer that passes the first test is one
    cycle unless it lists a vertex twice (two cycles need six vertices),
    and a simple vertex listed twice finds its frame taken the second
    time; so such a 2-face is walked only when it has a nonsimple vertex
    or a taken frame.  The frame at a simple v with pair index k has the
    code v*C(d,2) + k, and ``covered`` holds a byte per code.  A nonsimple
    vertex roots no frame, so its codes are set from the start and the
    least gap is one ``find``.  Those bytes are only allocated when the
    2-face lines hold n*C(d,2) vertex entries or more, as a d-polytope's
    do; other inputs mark their frames in a dict, which grows with the
    2-face lines alone.

    The errors, per 2-face in turn: one that is empty or holds a vertex
    outside 0..n-1 (see :func:`_off_the_vertices`); a vertex without two
    neighbours on it; a union of cycles; then a frame that an earlier
    2-face took, naming the first such vertex in the 2-face's order.
    After the last 2-face, the least frame that none took.
    """
    adj = graph.adj
    n = graph.n
    first, second, pair = scratch = [[0] * n for _ in range(3)]
    yield scratch
    mark = [-1] * n
    pairs = d * (d - 1) // 2
    # The index of the slots i < j is offset[i] + j.
    offset = [i * (2 * d - 3 - i) // 2 - 1 for i in range(d)]
    if sum(map(len, faces)) >= n * pairs:
        covered = bytearray(n * pairs)
        for v in nonsimple:
            covered[v * pairs : v * pairs + pairs] = b"\x01" * pairs
    else:
        covered = defaultdict(int)
    for fi, face in enumerate(faces):
        cf = tuple(sorted(face))
        if not cf or cf[0] < 0 or cf[-1] >= n:
            raise _off_the_vertices(cf, n)
        for v in face:
            mark[v] = fi
        size = len(face)
        walk = size > 5  # a shorter face: see the docstring
        taken = None  # the face's first simple vertex whose frame was taken
        for v in face:
            nbrs = adj[v]
            # v's two neighbours on the face, a before b in adj[v], at pair k.
            if len(nbrs) == 3:  # simple at d = 3, as no vertex has fewer than d
                x, y, z = nbrs  # unrolled, for speed at d = 3
                if mark[z] != fi:
                    if mark[x] != fi or mark[y] != fi:
                        raise _not_a_cycle(face, v)
                    a, b, k = x, y, 0
                elif mark[x] == fi:
                    if mark[y] == fi:
                        raise _not_a_cycle(face, v)
                    a, b, k = x, z, 1
                elif mark[y] == fi:
                    a, b, k = y, z, 2
                else:
                    raise _not_a_cycle(face, v)
            elif len(nbrs) == d:
                a = b = None  # b stays None unless exactly two are found
                for w in nbrs:
                    if mark[w] == fi:
                        if a is None:
                            a = w
                        elif b is None:
                            b = w
                        else:
                            b = None
                            break
                if b is None:
                    raise _not_a_cycle(face, v)
                k = offset[nbrs.index(a)] + nbrs.index(b)
            else:
                if len(nbrs) <= size:
                    inside = [w for w in nbrs if mark[w] == fi]
                else:
                    if v not in nsets:
                        nsets[v] = frozenset(nbrs)
                    inside = nsets[v].intersection(face)
                if len(inside) != 2:
                    raise _not_a_cycle(face, v)
                first[v], second[v] = inside
                pair[v] = pairs
                walk = True
                continue
            code = v * pairs + k
            if covered[code]:
                if taken is None:
                    taken = v
            else:
                covered[code] = 1
            first[v] = a
            second[v] = b
            pair[v] = k
        if walk or taken is not None:
            # Walk the cycle through the last vertex and count its length.
            prev, w = v, first[v]
            length = 1
            while w != v:
                a = first[w]
                prev, w = w, (second[w] if a == prev else a)
                length += 1
            if length != size:
                raise NotASkeleton(f"2-face {cf} is not a single cycle")
        if taken is not None:
            raise FrameNotInUniqueTwoFace(
                f"2-frame ({taken}, {first[taken]}, {second[taken]}) lies in more than one 2-face"
            )
        yield cf
    if type(covered) is bytearray:
        gap = covered.find(0)
    else:  # every code read was set to 1
        codes = (range(v * pairs, v * pairs + pairs) for v in range(n) if len(adj[v]) == d)
        gap = next((c for c in chain.from_iterable(codes) if c not in covered), -1)
    if gap >= 0:
        v, k = divmod(gap, pairs)
        i, j = next(islice(combinations(range(d), 2), k, None))
        raise FrameNotInUniqueTwoFace(f"2-frame ({v}, {adj[v][i]}, {adj[v][j]}) lies in no 2-face")


class FrameGraph:
    """The Kaibel move of every simple-rooted 2-frame, one byte per slot.

    A simple vertex w has exactly d neighbours ``adj[w]``, and its frame
    that omits ``adj[w][i]`` has the code w*d + i.  Let a-w-b be three
    consecutive vertices of a 2-face, a = adj[w][i] and b = adj[w][j].
    The move from the frame at w that omits a to the frame at b omits the
    vertex following b on that face, and ``step[(w*d + i)*d + j]`` is that
    vertex's index in ``adj[b]``, or d when b is nonsimple and roots no
    frame; symmetrically for a.  So one lookup realises the frame move and
    a full reconstruction visits each simple (d-1)-frame at constant cost.
    Slots no 2-face fills hold 255, or 65535 in the two-byte table that
    d >= 255 needs.  The n*d*d slots are only allocated when the 2-face
    lines hold n*C(d,2) vertex entries or more, as a d-polytope's do; so
    the table takes at most three slots per face entry.  Other inputs keep
    their moves in a dict, which grows with the face lines alone.

    The build is :func:`_two_face_pass` plus the two moves of each simple
    vertex on each 2-face, read off its scratch; ``neighbour_sets`` holds
    its neighbour sets of nonsimple vertices, which :func:`_facet` shares.
    """

    __slots__ = (
        "skeleton", "d", "simple", "nonsimple", "step", "node_count", "neighbour_sets"
    )

    def __init__(self, skeleton: KSkeleton, d: int):
        graph = skeleton.graph
        self.skeleton = skeleton
        self.d = d
        self.simple, self.nonsimple = classify_vertices(graph, d)
        pairs = d * (d - 1) // 2
        self.node_count = len(self.simple) * pairs
        faces = skeleton.two_faces
        n = graph.n
        # d >= 65535 would take over 2**31 edges (every vertex has d
        # neighbours or more), so two bytes always hold d and the sentinel.
        empty = 255 if d < 255 else 65535
        if sum(map(len, faces)) >= n * pairs:
            table = bytearray(b"\xff") if d < 255 else array("H", [empty])
            step = table * (n * d * d)
        else:
            step = defaultdict(lambda: empty)
        self.step = step
        self.neighbour_sets = nsets = {}
        # The slots i < j of each of the C(d,2) < |E| pairs, then d for nonsimple.
        lo = [i for i in range(d) for _ in range(i + 1, d)] + [d]
        hi = [j for i in range(d) for j in range(i + 1, d)] + [d]
        passed = _two_face_pass(graph, faces, d, self.nonsimple, nsets)
        first, second, pair = next(passed)
        for face in passed:
            for v in face:
                k = pair[v]
                if k != pairs:
                    # The slot in adj[b] of b's other neighbour on the face.
                    a = first[v]
                    b = second[v]
                    i = lo[k]
                    j = hi[k]
                    step[(v * d + i) * d + j] = hi[pair[b]] if first[b] == v else lo[pair[b]]
                    step[(v * d + j) * d + i] = hi[pair[a]] if first[a] == v else lo[pair[a]]


def build_frame_graph(sk: KSkeleton, d: int) -> FrameGraph:
    """The Kaibel move of every simple-rooted 2-frame of a 2-skeleton."""
    return FrameGraph(sk, d)


class Ambiguity(namedtuple("Ambiguity", "region_a region_b completions")):
    """The two-way completion left open by a separating nonsimple set:
    the regions a and b either stay two facets (the first completion) or
    make one, ``merged`` (the second)."""

    __slots__ = ()

    @property
    def merged(self) -> tuple[int, ...]:
        return tuple(sorted({*self.region_a, *self.region_b}))


class ReconstructionOutcome(
    namedtuple("ReconstructionOutcome", "facets ambiguity", defaults=(None,))
):
    """Facet list of one reconstruction run, with the ambiguity it met.

    ``status`` is "ambiguous" when ``ambiguity`` is set and ``facets`` is
    empty: no parity hint picked one of the two candidate facet lists in
    ``ambiguity.completions`` (split first, merged second).  Otherwise it
    is "complete".
    """

    __slots__ = ()

    @property
    def status(self) -> str:
        return "ambiguous" if self.ambiguity is not None and not self.facets else "complete"


def _facet(fg: FrameGraph, root: int, slot: int, t: int, scratch, check) -> tuple[int, ...]:
    """Trace, collect and check the facet of the frame at ``root`` that
    omits ``adj[root][slot]``, the trace of index ``t``, in one pass;
    returns its sorted vertex tuple.

    Each frame (w, ex), w's frame omitting its neighbour in slot ex, taken
    in breadth-first order, adds w to the facet and sets ``omitted[w]`` to
    the omitted neighbour.  Of w's leaves only the nonsimple ones are
    added: a simple leaf roots a frame of this trace (see below) and is
    added as its root.  A vertex joins the list ``members`` once, guarded
    by its stamp: ``stamp[v] == t`` exactly when v is in this facet, so
    the check reads one stamp per simple vertex.  The scratch is flat and
    shared by every trace: ``visited`` holds a byte per frame code
    w*d + ex, ``omitted`` is -1 at each nonsimple vertex, ``stamp`` holds
    the index of the last trace through each vertex, and ``others[ex]`` is
    the tuple of the d-1 slots other than ex, so each move costs one
    lookup.  The list is sorted before the check, which goes through it in
    ascending order and raises at the first vertex that fails.  The check
    costs O(1) per simple vertex and O(min(deg, |F|)) per nonsimple one;
    only a facet with a nonsimple vertex is made a frozenset, for that
    check.
    """
    adj = fg.skeleton.graph.adj
    d = fg.d
    step = fg.step
    visited, omitted, stamp, others = scratch
    members: list[int] = []
    put = members.append
    visited[root * d + slot] = 1
    frames = [(root, slot)]
    push = frames.append
    for w, ex in frames:  # also yields the frames pushed below
        nbrs = adj[w]
        omitted[w] = nbrs[ex]
        if stamp[w] != t:  # else w roots two frames here, which the check refuses
            stamp[w] = t
            put(w)
        base = (w * d + ex) * d
        for j in others[ex]:
            # w is simple, and the 2-face pass saw each of its frames in a
            # 2-face, so this move is in; k == d marks a nonsimple leaf,
            # which roots no frame.  Every move is undone by the move back:
            # the 2-face F through ex-w-u2-u_hat is the only 2-face holding
            # the 2-frame (u2; u_hat, w), as the pass checked, so the move from
            # (u2, u_hat) to w follows F back and gives (w, ex).  Each trace
            # is therefore a whole component of the move graph, disjoint
            # from earlier traces, and a simple u2's frame, pushed now or
            # visited already, is a frame of this trace.
            u2 = nbrs[j]
            k = step[base + j]
            if k == d:
                if stamp[u2] != t:
                    stamp[u2] = t
                    put(u2)
            elif not visited[code := u2 * d + k]:
                visited[code] = 1
                push((u2, k))
    members.sort()
    if check:
        nsets = fg.neighbour_sets
        # Each simple v in the facet roots a frame of this trace, which set
        # omitted[v]: a simple leaf's frame is pushed, or this trace
        # reached it already.  That frame's d-1 leaves are inside, so v
        # has d-1 neighbours inside exactly when the one it omits is
        # outside, which also makes this the frame omitting that
        # neighbour.  A nonsimple v's neighbours inside are its neighbour
        # set met with the facet, an intersection that walks the smaller
        # of the two.
        facet = None
        for v in members:
            x = omitted[v]
            if x >= 0:
                if stamp[x] == t:
                    inside = sum(stamp[w] == t for w in adj[v])
                    raise NotASkeleton(
                        f"simple vertex {v} has {inside} neighbors in region "
                        f"{tuple(members)}"
                    )
            else:
                if facet is None:
                    facet = frozenset(members)
                nset = nsets.get(v)
                if nset is None:
                    nset = nsets[v] = frozenset(adj[v])
                inside = len(nset & facet)
                if inside < d - 1:
                    raise NotASkeleton(
                        f"nonsimple vertex {v} has {inside} < d-1 neighbors in region"
                    )
    return tuple(members)


def _regions(fg: FrameGraph, check: bool) -> list[tuple[int, ...]]:
    """The sorted vertex tuple of every facet trace, each checked unless
    ``check`` is False, in the order of the frame codes the traces start
    from."""
    d = fg.d
    n = fg.skeleton.graph.n
    # A nonsimple vertex roots no frame: its codes count as visited, so
    # each next unvisited code is the next frame to trace from.
    visited = bytearray(n * d)
    taken = b"\x01" * d
    for v in fg.nonsimple:
        visited[v * d : v * d + d] = taken
    others = [(*range(ex), *range(ex + 1, d)) for ex in range(d)]
    scratch = (visited, [-1] * n, [-1] * n, others)
    regions = []
    code = visited.find(0)
    while code >= 0:
        root, slot = divmod(code, d)
        regions.append(_facet(fg, root, slot, len(regions), scratch, check))
        code = visited.find(0, code + 1)
    return regions


def _off_the_vertices(face, n: int) -> NotASkeleton:
    """The refusal of a 2-face that is empty or holds a vertex outside
    0..n-1, naming the least such vertex.  A hand-built skeleton can list
    one, and the scratch indexed by vertex would read it wrong: a vertex
    of n or more is out of its range, and a negative one stands for
    another vertex."""
    if not face:
        return NotASkeleton("2-face () has no vertex")
    v = min(v for v in face if not 0 <= v < n)
    return NotASkeleton(f"2-face {tuple(sorted(face))} holds vertex {v} outside 0..{n - 1}")


def _not_a_cycle(face, v: int) -> NotASkeleton:
    return NotASkeleton(f"2-face {tuple(sorted(face))} is not an induced cycle at {v}")


def _meet(f: tuple[int, ...], g: tuple[int, ...]) -> NotASkeleton:
    """The refusal of two 2-faces that meet in more than one vertex or edge."""
    common = tuple(sorted(set(f).intersection(g)))
    return NotASkeleton(f"2-faces {f} and {g} meet in {common}, not in one vertex or one edge")


def _two_faces(sk: KSkeleton, check: bool) -> tuple[tuple[int, ...], ...]:
    """The facets of a 3-polytope from its 2-skeleton: the listed 2-faces,
    sorted tuples in lexicographic order, a 2-face listed twice once.

    First :func:`_two_face_pass`, whose sorted tuples are the answer.  It
    adds one thing here: a nonsimple vertex's two neighbours on each
    2-face are a link pair, kept for the rules below.

    So at each simple vertex v the 2-faces through v hold each of its
    three neighbour pairs once, and at each nonsimple v, with ``check``,
    the link rule asks the same of its link pairs: in both cases the
    2-faces through v close into one cycle around it.  Each edge then
    lies in exactly two 2-faces.  The link pairs are the edges of v's link,
    a graph on N(v), in which w has one partner per 2-face through the
    edge vw.  So the edge rule reads its counts off the links of the
    nonsimple ends (an edge with a simple end lies in two 2-faces, one
    per frame at that end that holds the other), and once every neighbour
    of v has two partners the link is a union of cycles, walked once to
    see that it is one.  Both rules take the nonsimple vertices in
    ascending order, each v's edges to greater nonsimple vertices before
    its link.  Then the graph must be connected and n - |E| + |F| = 2.

    Last, the face rule: two 2-faces meet in nothing, one vertex or one
    edge.  A sphere map that keeps it is polyhedral, so its graph is
    3-connected and, by Steinitz, a 3-polytope's, whose 2-faces these are.
    Two induced cycles meet in their common edges and in vertices on no
    common edge; a simple vertex they share lies on exactly one common
    edge, as two of its three neighbour pairs share one neighbour.  So a
    pair that breaks the rule either shares a nonsimple v and a vertex
    outside N(v) and v (a vertex of N(v) would span a common edge, and
    two of them a cycle of two in v's link), or meets in two edges with
    simple ends.  The first is seen from v: for each nonsimple v in
    ascending order, each vertex of each 2-face through v is filed under
    the 2-faces that hold it, and the least pair filed together is named.
    The second is seen from the simple vertices: such a pair holds six
    vertices or more in each 2-face, and is filed together at four
    simple vertices or more, while any other pair of 2-faces through a
    simple vertex meets in one edge and is filed at two at most; the
    least pair filed more often is named.  Each rule raises
    ``NotASkeleton``.  The largest 2-face through v is met as a set, built
    once per 2-face, rather than filed.  So the filing costs, at each
    nonsimple v, the sizes of the other 2-faces through v, and among the
    simple vertices the sizes of the 2-faces of six vertices or more.  On
    an m-antiprism that is linear in m: each m-gon is the largest 2-face
    at each of its vertices, and each triangle is filed at three.
    """
    graph = sk.graph
    adj = graph.adj
    n = graph.n
    nonsimple = classify_vertices(graph, 3).nonsimple
    nsets: dict[int, frozenset[int]] = {}
    links = {v: defaultdict(list) for v in nonsimple}
    through = {v: [] for v in nonsimple}  # the 2-faces through each nonsimple v, by index
    passed = _two_face_pass(graph, sk.two_faces, 3, nonsimple, nsets)
    first, second, _ = next(passed)
    canon = []  # each 2-face as a sorted tuple, in the order listed
    for face in passed:
        if nonsimple:
            for v in nonsimple.intersection(face):
                link = links[v]
                link[first[v]].append(second[v])
                link[second[v]].append(first[v])
                through[v].append(len(canon))
        canon.append(face)
    facets = tuple(sorted(canon))
    if not check:
        return tuple(dict.fromkeys(facets))
    # Checked, a 2-face listed twice stays, for the edge or link rule to refuse.
    for v in sorted(nonsimple):
        link = links[v]
        # An edge to a simple vertex lies in two 2-faces, and one to a
        # lesser nonsimple vertex was counted there.
        for w in adj[v]:
            if w > v and w in nonsimple and len(link[w]) != 2:
                raise NotASkeleton(f"edge ({v}, {w}) lies in {len(link[w])} facets, not 2")
        # So every neighbour has two partners: walk the cycle through one.
        start = w = adj[v][0]
        prev = None
        length = 0
        while True:
            a, b = link[w]
            prev, w = w, (b if a == prev else a)
            length += 1
            if w == start:
                break
        if length != len(adj[v]):
            raise NotASkeleton(
                f"the 2-faces through vertex {v} close into more than one cycle around it"
            )
    seen = bytearray(n)
    reached = []
    if n:
        seen[0] = 1
        reached.append(0)
    for v in reached:  # also yields the vertices appended below
        for w in adj[v]:
            if not seen[w]:
                seen[w] = 1
                reached.append(w)
    if len(reached) != n:
        raise NotASkeleton(f"vertex {seen.index(0)} is not connected to vertex 0")
    edges = sum(map(len, adj)) // 2
    euler = n - edges + len(facets)
    if euler != 2:
        raise NotASkeleton(
            f"n - |E| + |F| = {n} - {edges} + {len(facets)} = {euler}, not 2"
        )
    # The face rule through each nonsimple v: the vertices outside N(v)
    # and v of each 2-face through v are filed under the 2-faces that hold
    # them, but the largest 2-face's, which is met as a set.
    bsets: dict[int, frozenset[int]] = {}
    for v in sorted(nonsimple):
        nset = nsets.get(v) or frozenset(adj[v])
        faces = through[v]
        big = max(faces, key=lambda fi: len(canon[fi]))
        holders = defaultdict(list)
        for fi in faces:
            if fi != big:
                for w in canon[fi]:
                    if w != v and w not in nset:
                        holders[w].append(canon[fi])
        bset = bsets.get(big)
        if bset is None:
            bset = bsets[big] = frozenset(canon[big])
        shared = []
        for w, held in holders.items():
            if w in bset:
                held = held + [canon[big]]
            if len(held) > 1:
                shared.append(sorted(held)[:2])
        if shared:
            raise _meet(*min(shared))
    # Two 2-faces that meet in two edges with simple ends each hold six
    # vertices or more: each of the two arcs between the edges holds a
    # vertex, or a simple end of one edge would have the same two
    # neighbours on both 2-faces.  Any two 2-faces through a simple
    # vertex meet in an edge at it, so such a pair is filed together at
    # four simple vertices or more, any other pair at two at most.  Only
    # the simple vertices in two such long 2-faces or more are filed.
    long = [fi for fi, f in enumerate(facets) if len(f) >= 6]
    long_faces = [facets[fi] for fi in long]
    if sum(map(len, long_faces)) != len(set().union(*long_faces)):
        counts = Counter(chain.from_iterable(long_faces))
        multi = {v for v, k in counts.items() if k > 1}.difference(nonsimple)
        long_at = defaultdict(list)
        for fi in long:
            for v in multi.intersection(facets[fi]):
                long_at[v].append(fi)
        filed = Counter(pair for faces in long_at.values() for pair in combinations(faces, 2))
        twice = [pair for pair, k in filed.items() if k > 2]
        if twice:
            fa, fb = min(twice)
            raise _meet(facets[fa], facets[fb])
    return facets


def reconstruct(
    sk: KSkeleton,
    d: int,
    parity_hint: str | None = None,
    check: bool = True,
) -> ReconstructionOutcome:
    """Recover the facet list of a d-polytope from its 2-skeleton.

    At d = 3 the facets are the listed 2-faces: nothing is traced and no
    :class:`FrameGraph` is built, as the 2-face pass alone checks them
    (see :func:`_two_faces`).  With ``check`` they must be the 2-faces of
    a 3-polytope, so the run is complete whatever the nonsimple vertices.

    From d = 4 the run is complete whenever every facet contains at most
    d-2 nonsimple vertices.  With exactly d-1 nonsimple vertices in total,
    the one recoverable ambiguity (see module docstring) is reported with
    both completions; parity_hint ("even"/"odd", the parity of the facet
    count) resolves it.  ``check`` refuses any other traced facet past d-2
    nonsimple vertices with ``TooManyNonsimple``, naming the least, and no
    simple vertex at all raises ``TooManyNonsimple``.  Each facet is
    traced, collected and, unless ``check`` is False, checked in one pass
    (see :func:`_facet`); one that fails raises ``NotASkeleton`` naming
    its least failing vertex, and the first facet traced that fails is the
    one named.  When each facet keeps at most d-2 nonsimple vertices, so
    does each 2-face, and with the costs of :class:`FrameGraph` the whole
    run takes time linear in the size of the 2-face lines for fixed d,
    whatever the degrees of the nonsimple vertices.

    With ``check`` the facet lists returned (``facets``, and both
    completions of an ambiguity) already hold every invariant of
    ``lattice.PolytopeSpec``, so callers need not build one to check them:

    * No traced region contains another, nor has the same vertex set.
      Say r1 is inside r2, equal to it or not, and let (w, x) be the frame
      r1's trace started from, w simple.  The d-1 neighbours of w other
      than x lie in r1, so in r2.  r2's trace also holds a frame of w, and
      the check put the neighbour that frame omits outside r2; that
      neighbour can only be x.  So both traces hold the frame (w, x), yet
      traces are disjoint components of the move graph (see ``_facet``).
      So only without ``check`` are the traces tested for repeats.
    * The merged completion a | b contains no other region r (nor does any
      region contain it, since it contains a).  r's root w is simple, so
      it lies in a or in b outside N, say in a.  Its frame in r is not its
      frame in a, or r would be a, so the neighbour of w that a omits is
      among the leaves of its frame in r, inside a | b and so in b.  Then
      w has d neighbours in a | b, which ``degrees_fit`` in
      :func:`is_feasible` refused when the pair was found.
    * At d = 3 no 2-face holds another's vertices: each is an induced
      cycle, and a proper subset of an induced cycle induces paths.  A
      2-face listed twice has no simple vertex, whose frames would lie in
      both; so the edge rule counts all its edges and keeps them out of
      any third 2-face, and at each vertex v of it the link holds one pair
      twice: a cycle of two, while N(v) has four vertices or more.  The
      link rule refuses that, and without ``check`` it comes back once.
    * Every region holds vertices of 0..n-1 (n >= 1: there is a simple
      vertex from d = 4, and n - |E| + |F| = 2 at d = 3), d >= 3, and the
      lists are sorted tuples in sorted order.
    """
    if d < 3:
        raise ValueError("d must be at least 3")
    if parity_hint not in (None, "even", "odd"):
        raise ValueError("parity_hint must be 'even' or 'odd'")
    graph = sk.graph
    if d == 3:
        return ReconstructionOutcome(_two_faces(sk, check))
    fg = FrameGraph(sk, d)
    if not fg.simple:
        raise TooManyNonsimple(
            f"every vertex is nonsimple, so every facet holds more than d-2 = {d - 2} of them"
        )

    regions = _regions(fg, check)
    if not check and len(set(regions)) != len(regions):
        raise NotASkeleton("two facet traces produced the same vertex set")
    # Sorting the list in trace order is quicker than sorting the set: the
    # traces start from frame codes in increasing order.
    facets = tuple(sorted(regions))

    nonsimple = fg.nonsimple
    ambiguity = None
    if len(nonsimple) > d - 2:
        # The traced facets past d-2, in trace order: with d-1 nonsimple
        # vertices, those that hold all of them.
        past = [r for r in regions if len(nonsimple.intersection(r)) > d - 2]
        pairs = []
        if len(nonsimple) == d - 1 and all(
            graph.has_edge(u, v) for u in nonsimple for v in nonsimple if u < v
        ):
            simple_mask = mask_of(fg.simple)
            for i, a in enumerate(past):
                for b in past[i + 1 :]:
                    if set(a).intersection(b) == nonsimple and is_feasible(
                        graph, mask_of(a + b), d, simple_mask
                    ):
                        pairs.append((a, b))
        if len(pairs) > 1:
            raise NotASkeleton(
                "more than one candidate pair meets exactly in the nonsimple set"
            )
        pair = pairs[0] if pairs else ()
        if pair:
            a, b = pair
            merged = tuple(sorted({*a, *b}))
            merged_list = tuple(sorted([r for r in facets if r != a and r != b] + [merged]))
            ambiguity = Ambiguity(a, b, completions=(facets, merged_list))
        refused = [r for r in past if r not in pair]
        if check and refused:
            r = min(refused)
            held = len(nonsimple.intersection(r))
            raise TooManyNonsimple(
                f"facet {r} holds {held} nonsimple vertices, more than d-2 = {d - 2}"
            )

    if ambiguity is not None:
        if parity_hint is None:
            return ReconstructionOutcome((), ambiguity)
        want = 0 if parity_hint == "even" else 1
        # a | b replaces the two regions a and b, so the completions differ in parity.
        completion = next(c for c in ambiguity.completions if len(c) % 2 == want)
        return ReconstructionOutcome(completion, ambiguity)

    return ReconstructionOutcome(facets)
