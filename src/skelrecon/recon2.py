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
nonsimple vertices.  One pass per facet traces its frames, collects its
vertices in a list guarded by a per-vertex stamp and checks them: a
simple vertex's omitted neighbour must lie outside (one stamp read), and
a nonsimple vertex needs d-1 neighbours inside.

From d = 4 on, with d-1 nonsimple vertices in total, the sweep can leave
one genuine two-way ambiguity: a pair of traced regions meeting exactly in
the nonsimple set N with N inducing a complete graph is either two
simplex-ish facets sharing the ridge N or a single merged facet with N as
a missing internal ridge.  Both completions are reported; the parity of
the facet count picks one.  Beyond that the 2-skeleton need not determine
the lattice, and a checked run refuses any other traced facet holding
more than d-2 nonsimple vertices with ``TooManyNonsimple``.

At d = 3 no pair is sought.  A checked trace is a whole 2-face, but one
with no simple vertex roots no frame, so a checked run answers only when
every listed 2-face is traced and every edge lies in two of them.
"""

from __future__ import annotations

from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .errors import FrameNotInUniqueTwoFace, NotASkeleton, TooManyNonsimple
from .graphs import is_feasible, mask_of
from .lattice import KSkeleton, classify_vertices


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
    lines hold n*C(d,2) vertex entries or more, as a d-polytope's do (each
    vertex lies in at least C(d,2) 2-faces); so the table takes at most
    three slots per face entry.  Other inputs keep their moves in a dict,
    which grows with the face lines alone.

    The build keeps flat per-vertex scratch, allocated once and reused by
    every face: a stamp ``mark[v]``, the index of the last face through v,
    so that w lies on the current face exactly when its stamp is that
    index; and v's two neighbours on the current face with their slots in
    ``adj[v]`` (d for a nonsimple v).  A simple vertex finds its face
    neighbours by stamp among its d neighbours, so each (vertex, face)
    pair costs O(d).  A nonsimple vertex scans whichever side is smaller:
    its neighbours by stamp, or the face against its neighbour set; so it
    costs O(min(deg, |F|)).  The neighbour sets, ``neighbour_sets``, are
    built on first use and only for nonsimple vertices; :func:`_facet`
    shares them.  Then one walk around the face's cycle counts its length
    and writes the two moves of each simple vertex on it, so each face is
    walked once.  A frame that an earlier face took is noted on the way
    and raises only after the length check, naming the first such vertex
    in the face's own order.
    """

    __slots__ = (
        "skeleton", "d", "simple", "nonsimple", "step", "node_count", "neighbour_sets"
    )

    def __init__(self, skeleton: KSkeleton, d: int):
        graph = skeleton.graph
        classes = classify_vertices(graph, d)
        self.skeleton = skeleton
        self.d = d
        self.simple = simple = classes.simple
        self.nonsimple = classes.nonsimple
        self.node_count = len(simple) * d * (d - 1) // 2
        # d >= 65535 would take over 2**31 edges (every vertex has d
        # neighbours or more), so two bytes always hold d and the sentinel.
        empty = 255 if d < 255 else 65535
        faces = skeleton.two_faces
        n = graph.n
        if 2 * sum(map(len, faces)) >= n * d * (d - 1):
            table = bytearray(b"\xff") if d < 255 else array("H", [empty])
            step = table * (n * d * d)
        else:
            step = defaultdict(lambda: empty)
        self.step = step
        self.neighbour_sets: dict[int, frozenset[int]] = {}
        nsets = self.neighbour_sets
        adj = graph.adj
        # The scratch: on the current face v's two neighbours are first[v]
        # and second[v], at slots slot1[v] < slot2[v] of adj[v] when v is
        # simple; d marks a nonsimple v.
        degree = list(map(len, adj))
        mark = [-1] * n
        first = [0] * n
        second = [0] * n
        slot1 = [0] * n
        slot2 = [0] * n
        taken: list[int] = []  # the current face's simple vertices whose frame was taken
        frames = 0  # the simple (vertex, face) pairs, each one frame written
        for fi, face in enumerate(faces):
            for v in face:
                mark[v] = fi
            size = len(face)
            for v in face:
                nbrs = adj[v]
                deg = degree[v]
                # v's two neighbours on the face, a and b; b is None when v
                # has fewer or more, and that raises below.
                a = b = None
                if deg == d or deg <= size:
                    # By stamp, in slot order.
                    for w in nbrs:
                        if mark[w] == fi:
                            if a is None:
                                a = w
                            elif b is None:
                                b = w
                            else:
                                b = None
                                break
                    if deg != d:
                        i = j = d
                    elif b is not None:
                        i = nbrs.index(a)
                        j = nbrs.index(b)
                else:
                    # A nonsimple v with more neighbours than the face has
                    # vertices.  A repeated face vertex counts once, as it
                    # does by stamp.
                    nset = nsets.get(v)
                    if nset is None:
                        nset = nsets[v] = frozenset(nbrs)
                    for w in face:
                        if w in nset and w != a and w != b:
                            if a is None:
                                a = w
                            elif b is None:
                                b = w
                            else:
                                b = None
                                break
                    i = j = d
                if b is None:
                    raise NotASkeleton(
                        f"2-face {tuple(sorted(face))} is not an induced cycle at {v}"
                    )
                first[v] = a
                second[v] = b
                slot1[v] = i
                slot2[v] = j
            # A 2-regular induced subgraph could still be a union of cycles:
            # walk the cycle through one vertex, counting its length and
            # writing the moves of each simple vertex on the way.  A frame
            # that an earlier face took is only noted, as the length check
            # comes first; a face that raises leaves its writes unused.
            start = v = next(iter(face))
            prev = second[start]
            length = 0
            while True:
                a = first[v]
                b = second[v]
                i = slot1[v]
                if i != d:
                    j = slot2[v]
                    key = (v * d + i) * d + j
                    if step[key] != empty:
                        taken.append(v)
                    step[key] = slot2[b] if first[b] == v else slot1[b]
                    step[(v * d + j) * d + i] = slot2[a] if first[a] == v else slot1[a]
                else:
                    frames -= 1  # a nonsimple vertex roots no frame
                length += 1
                prev, v = v, (b if a == prev else a)
                if v == start:
                    break
            if length != size:
                raise NotASkeleton(
                    f"2-face {tuple(sorted(face))} is not a single cycle"
                )
            if taken:
                # The error names the first such vertex in the face's order.
                w = next(w for w in face if w in taken)
                raise FrameNotInUniqueTwoFace(
                    f"2-frame ({w}, {first[w]}, {second[w]}) lies in more than one 2-face"
                )
            frames += length
        # Every neighbour pair of a simple root must span exactly one 2-face.
        # No pair is counted twice, so the count falls short exactly when a
        # frame is not covered; then scan in order for the first gap.
        if frames != self.node_count:
            for v, nbrs in enumerate(adj):
                if len(nbrs) != d:
                    continue
                for i in range(d):
                    for j in range(i + 1, d):
                        if step[(v * d + i) * d + j] == empty:
                            raise FrameNotInUniqueTwoFace(
                                f"2-frame ({v}, {nbrs[i]}, {nbrs[j]}) lies in no 2-face"
                            )


def build_frame_graph(sk: KSkeleton, d: int) -> FrameGraph:
    """The Kaibel move of every simple-rooted 2-frame of a 2-skeleton."""
    return FrameGraph(sk, d)


@dataclass(frozen=True)
class Ambiguity:
    """The two-way completion left open by a separating nonsimple set."""

    region_a: tuple[int, ...]
    region_b: tuple[int, ...]
    merged: tuple[int, ...]
    completions: tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]


@dataclass(frozen=True)
class ReconstructionOutcome:
    """Facet list plus completion status of one reconstruction run.

    When status is "ambiguous", ``facets`` is empty and both candidate
    facet lists sit in ``ambiguity.completions`` (split first, merged
    second).
    """

    facets: tuple[tuple[int, ...], ...]
    status: str
    ambiguity: Optional[Ambiguity] = None


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
            # w is simple, so FrameGraph's coverage check put this move in;
            # k == d marks a nonsimple leaf, which roots no frame.  Every
            # move is undone by the move back: the 2-face F through
            # ex-w-u2-u_hat is the only 2-face holding the 2-frame
            # (u2; u_hat, w), as FrameGraph checked, so the move from
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


def reconstruct(
    sk: KSkeleton,
    d: int,
    parity_hint: Optional[str] = None,
    check: bool = True,
) -> ReconstructionOutcome:
    """Recover the facet list of a d-polytope from its 2-skeleton.

    Complete whenever every facet contains at most d-2 nonsimple vertices.
    From d = 4 on, with exactly d-1 nonsimple vertices in total, the one
    recoverable ambiguity (see module docstring) is reported with both
    completions; parity_hint ("even"/"odd", the parity of the facet count)
    resolves it.  From d = 4 on ``check`` refuses any other traced facet
    past d-2 nonsimple vertices with ``TooManyNonsimple``, naming the least;
    at d = 3 it refuses the least listed 2-face no trace reaches the same
    way, and an edge in other than two traced facets with ``NotASkeleton``.
    No simple vertex at all raises ``TooManyNonsimple``.  Each facet is
    traced, collected and, unless ``check`` is False, checked in one pass:
    collecting it costs one stamp test per frame and one per nonsimple leaf,
    and checking it one stamp read per simple vertex and one set
    intersection per nonsimple vertex.  A facet that fails the check raises
    ``NotASkeleton`` naming its least failing vertex, and the first facet
    traced that fails is the one named.  When each facet keeps at most d-2
    nonsimple vertices, so does each 2-face, and with the costs of
    :class:`FrameGraph` the whole run takes time linear in the size of the
    2-face lines for fixed d, whatever the degrees of the nonsimple
    vertices.

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
    * Every region holds vertices of 0..n-1 (n >= 1, as there is a simple
      vertex), d >= 3, and the lists are sorted tuples in sorted order.
    """
    if d < 3:
        raise ValueError("d must be at least 3")
    if parity_hint not in (None, "even", "odd"):
        raise ValueError("parity_hint must be 'even' or 'odd'")
    graph = sk.graph
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
    if check and d == 3:
        if len(regions) < len(sk.two_faces):
            # A checked trace is a whole 2-face, and each 2-face with a
            # simple vertex is traced from it; the 2-faces left over have none.
            face = min({tuple(sorted(f)) for f in sk.two_faces}.difference(regions))
            raise TooManyNonsimple(f"2-face {face} has no simple vertex, so no trace reaches it")
        if len(nonsimple) > 1:
            # Every 2-face is traced, so an edge with a simple end lies in
            # two, one per other neighbour of that end; check the others.
            count = Counter(
                e for r in regions for e in combinations([v for v in r if v in nonsimple], 2)
            )
            for u in sorted(nonsimple):
                for v in graph.adj[u]:
                    if v > u and v in nonsimple and count[u, v] != 2:
                        raise NotASkeleton(f"edge ({u}, {v}) lies in {count[u, v]} facets, not 2")
    if d > 3 and len(nonsimple) > d - 2:
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
            ambiguity = Ambiguity(a, b, merged, completions=(facets, merged_list))
        refused = [r for r in past if r not in pair]
        if check and refused:
            r = min(refused)
            held = len(nonsimple.intersection(r))
            raise TooManyNonsimple(
                f"facet {r} holds {held} nonsimple vertices, more than d-2 = {d - 2}"
            )

    if ambiguity is not None:
        if parity_hint is None:
            return ReconstructionOutcome((), "ambiguous", ambiguity)
        want = 0 if parity_hint == "even" else 1
        # a | b replaces the two regions a and b, so the completions differ in parity.
        completion = next(c for c in ambiguity.completions if len(c) % 2 == want)
        return ReconstructionOutcome(completion, "complete", ambiguity)

    return ReconstructionOutcome(facets, "complete")
