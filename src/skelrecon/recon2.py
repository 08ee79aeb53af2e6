"""Facet reconstruction from 2-skeletons by simple-frame propagation.

A (d-1)-frame rooted at a simple vertex lies in exactly one facet, and
knowing the 2-faces lets us hop from such a frame to the frame of the same
facet at any simple neighbor inside it: the neighbor's frame omits exactly
the vertex that continues the shared 2-face past the neighbor.  That move
is Kaibel's step, and :class:`FrameGraph` stores it as one int map: for
four consecutive vertices x-w-y-z of a 2-face with w simple, the key of
(x, w, y) gives z.  Sweeping every simple frame once traces every facet,
one lookup per move, in time linear in the number of vertices (for fixed
d), provided each facet keeps at most d-2 nonsimple vertices.  One pass
per facet traces its frames, collects its vertices and checks them: a
simple vertex's omitted neighbour must lie outside (one set lookup), and
a nonsimple vertex needs d-1 neighbours inside.

With d-1 nonsimple vertices in total the sweep can leave one genuine
two-way ambiguity: a pair of traced regions meeting exactly in the
nonsimple set N with N inducing a complete graph is either two simplex-ish
facets sharing the ridge N or a single merged facet with N as a missing
internal ridge.  Both completions are reported; the parity of the facet
count picks one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .errors import (
    FrameNotInUniqueTwoFace,
    NonSimpleRoot,
    NotASkeleton,
)
from .graphs import Frame, is_feasible, mask_of
from .lattice import KSkeleton, classify_vertices


class FrameGraph:
    """The Kaibel move of every simple-rooted 2-frame, in one int map.

    Let a-w-b be three consecutive vertices of a 2-face, w simple and
    a < b.  The move from a frame at w that omits a to the frame at b
    omits the vertex following b on that face, and symmetrically for a.
    ``step`` maps (a*n + w)*n + b to the vertex following b and
    (b*n + w)*n + a to the vertex following a, so one lookup realises the
    frame move and a full reconstruction visits each simple (d-1)-frame
    at constant cost.
    """

    __slots__ = ("skeleton", "d", "simple", "nonsimple", "step")

    def __init__(self, skeleton: KSkeleton, d: int):
        graph = skeleton.graph
        n = graph.n
        classes = classify_vertices(graph, d)
        self.skeleton = skeleton
        self.d = d
        self.simple = simple = classes.simple
        self.nonsimple = classes.nonsimple
        self.step: dict[int, int] = {}
        step = self.step
        adj = graph.adj
        for face in skeleton.two_faces:
            cycle: dict[int, tuple[int, int]] = {}
            for v in face:
                inside = [w for w in adj[v] if w in face]
                if len(inside) != 2:
                    raise NotASkeleton(
                        f"2-face {tuple(sorted(face))} is not an induced cycle at {v}"
                    )
                cycle[v] = (inside[0], inside[1])
            # A 2-regular induced subgraph could still be a union of cycles:
            # walk the cycle through one vertex and count its length.
            start = next(iter(face))
            prev, v = start, cycle[start][0]
            length = 1
            while v != start:
                a, b = cycle[v]
                prev, v = v, (b if a == prev else a)
                length += 1
            if length != len(face):
                raise NotASkeleton(
                    f"2-face {tuple(sorted(face))} is not a single cycle"
                )
            for w in face:
                if w not in simple:
                    continue
                a, b = cycle[w]
                key = (a * n + w) * n + b
                if key in step:
                    raise FrameNotInUniqueTwoFace(
                        f"2-frame ({w}, {a}, {b}) lies in more than one 2-face"
                    )
                x, y = cycle[b]
                step[key] = y if x == w else x
                x, y = cycle[a]
                step[(b * n + w) * n + a] = y if x == w else x
        # Every neighbor pair of a simple root must span exactly one 2-face.
        # The keys are distinct ordered neighbor pairs, so there are twice
        # as many as simple frames exactly when every frame is covered;
        # otherwise scan in order for the first gap.
        if len(step) != sum(len(adj[v]) * (len(adj[v]) - 1) for v in simple):
            for v in sorted(simple):
                nbrs = adj[v]
                for i in range(len(nbrs)):
                    for j in range(i + 1, len(nbrs)):
                        if (nbrs[i] * n + v) * n + nbrs[j] not in step:
                            raise FrameNotInUniqueTwoFace(
                                f"2-frame ({v}, {nbrs[i]}, {nbrs[j]}) lies in no 2-face"
                            )

    @property
    def node_count(self) -> int:
        return len(self.step) // 2


def build_frame_graph(sk: KSkeleton, d: int) -> FrameGraph:
    """The Kaibel move of every simple-rooted 2-frame of a 2-skeleton."""
    return FrameGraph(sk, d)


def kaibel_step(
    fg: Union[FrameGraph, KSkeleton],
    frame: Frame,
    u2: int,
    d: Optional[int] = None,
) -> Frame:
    """Move a facet-defining frame from its root to a simple member u2.

    With u the root, u' the unique neighbor of u outside the frame, and W
    the 2-face containing the 2-frame (u; u', u2), the vertex continuing W
    past u2 is not in the facet; the frame at u2 therefore consists of all
    other neighbors of u2.  That vertex is ``fg.step[(u'*n + u)*n + u2]``.
    """
    if isinstance(fg, KSkeleton):
        if d is None:
            raise ValueError("d is required when passing a bare skeleton")
        fg = FrameGraph(fg, d)
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
    u_prime = outside[0]
    n = graph.n
    u_hat = fg.step.get((u_prime * n + u) * n + u2)
    if u_hat is None:
        raise FrameNotInUniqueTwoFace(
            f"2-frame ({u}, {u_prime}, {u2}) lies in no 2-face"
        )
    return Frame(u2, tuple(w for w in graph.adj[u2] if w != u_hat))


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


def _facet(fg: FrameGraph, root: int, excluded: int, visited, omitted, check):
    """Trace, collect and check the facet of frame (root, excluded) in one
    pass; returns its vertex set.

    Each frame (w, ex), taken in breadth-first order, adds w and its leaves
    to the region and sets ``omitted[w] = ex``.  ``visited`` holds every
    frame traced so far as a key, root*n + excluded, so the hot loop hashes
    plain ints only; it is a dict rather than a set because a dict of
    24,576 ints takes 1.25 MB and a set 2 MB.
    """
    graph = fg.skeleton.graph
    n = graph.n
    step = fg.step
    simple = fg.simple
    adj = graph.adj
    region: set[int] = set()
    add = region.add
    visited[root * n + excluded] = None
    frames = [(root, excluded)]
    push = frames.append
    for w, ex in frames:  # also yields the frames pushed below
        omitted[w] = ex
        add(w)
        base = (ex * n + w) * n
        for u2 in adj[w]:
            if u2 == ex:
                continue
            add(u2)
            if u2 not in simple:
                continue
            # w is simple, so FrameGraph's coverage check put this move in.
            # Every move is undone by the move back: the 2-face F through
            # ex-w-u2-u_hat is the only 2-face holding the 2-frame
            # (u2; u_hat, w), as FrameGraph checked, so the move from
            # (u2, u_hat) to w follows F back and gives (w, ex).  Each trace
            # is therefore a whole component of the move graph, disjoint
            # from earlier traces, and a frame visited already was visited
            # by this trace.
            u_hat = step[base + u2]
            code = u2 * n + u_hat
            if code not in visited:
                visited[code] = None
                push((u2, u_hat))
    facet = frozenset(region)
    if check:
        # Each simple v in the facet roots a frame of this trace: a simple
        # leaf's frame is pushed, or this trace reached it already.  That
        # frame's d-1 leaves are inside, so v has d-1 neighbours inside
        # exactly when the one it omits is outside, which also makes this
        # the frame omitting that neighbour.
        for v in facet:
            if v in simple:
                if omitted[v] in facet:
                    inside = sum(w in facet for w in adj[v])
                    raise NotASkeleton(
                        f"simple vertex {v} has {inside} neighbors in region "
                        f"{tuple(sorted(facet))}"
                    )
            else:
                inside = sum(w in facet for w in adj[v])
                if inside < fg.d - 1:
                    raise NotASkeleton(
                        f"nonsimple vertex {v} has {inside} < d-1 neighbors in region"
                    )
    return facet


def reconstruct(
    sk: KSkeleton,
    d: int,
    parity_hint: Optional[str] = None,
    check: bool = True,
) -> ReconstructionOutcome:
    """Recover the facet list of a d-polytope from its 2-skeleton.

    Complete whenever every facet contains at most d-2 nonsimple vertices.
    With exactly d-1 nonsimple vertices in total, the one recoverable
    ambiguity (see module docstring) is reported with both completions;
    parity_hint ("even"/"odd", the parity of the facet count) resolves it.
    Each facet is traced, collected and, unless ``check`` is False,
    checked in one pass, at one set lookup per simple vertex.

    With ``check`` the facet lists returned (``facets``, and both
    completions of an ambiguity) already hold every invariant of
    ``lattice.PolytopeSpec``, so callers need not build one to check them:

    * No traced region contains another.  Say r1 is inside r2 and not
      equal to it, and let (w, x) be the frame r1's trace started from, w
      simple.  The d-1 neighbours of w other than x lie in r1, so in r2.
      r2's trace also holds a frame of w, and the check put the neighbour
      that frame omits outside r2; that neighbour can only be x.  So both
      traces hold the frame (w, x), yet traces are disjoint components of
      the move graph (see ``_facet``).
    * The merged completion a | b contains no other region r (nor does any
      region contain it, since it contains a).  r's root w is simple, so
      it lies in a or in b outside N, say in a.  Its frame in r is not its
      frame in a, or r would be a, so the neighbour of w that a omits is
      among the leaves of its frame in r, inside a | b and so in b.  Then
      w has d neighbours in a | b, which ``degrees_fit`` in
      :func:`is_feasible` refused when the pair was found.
    * Two traces with the same vertex set raise.  Every region holds
      vertices of 0..n-1 (n >= 1, as there is a simple vertex), d >= 3,
      and the lists are sorted tuples in sorted order.
    """
    if d < 3:
        raise ValueError("d must be at least 3")
    if parity_hint not in (None, "even", "odd"):
        raise ValueError("parity_hint must be 'even' or 'odd'")
    graph = sk.graph
    fg = FrameGraph(sk, d)
    if not fg.simple:
        raise NotASkeleton("no simple vertex to seed the propagation")

    n = graph.n
    visited: dict[int, None] = {}
    omitted = [0] * n
    regions: list[frozenset[int]] = []
    for root in sorted(fg.simple):
        for excluded in graph.adj[root]:
            if root * n + excluded in visited:
                continue
            regions.append(_facet(fg, root, excluded, visited, omitted, check))
    if len(set(regions)) != len(regions):
        raise NotASkeleton("two facet traces produced the same vertex set")

    nonsimple = fg.nonsimple
    ambiguity = None
    if len(nonsimple) == d - 1:
        ncomplete = all(
            graph.has_edge(u, v)
            for u in nonsimple
            for v in nonsimple
            if u < v
        )
        pairs = []
        if ncomplete:
            holders = [r for r in regions if nonsimple <= r]
            simple_mask = mask_of(fg.simple)
            for i, a in enumerate(holders):
                for b in holders[i + 1 :]:
                    if a & b == nonsimple and is_feasible(
                        graph, mask_of(a | b), d, simple_mask
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
