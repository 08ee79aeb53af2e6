"""Facet reconstruction from 2-skeletons by simple-frame propagation.

A (d-1)-frame rooted at a simple vertex lies in exactly one facet, and
knowing the 2-faces lets us hop from such a frame to the frame of the same
facet at any simple neighbor inside it: the neighbor's frame omits exactly
the vertex that continues the shared 2-face past the neighbor.  Sweeping
every simple frame once traces every facet, in time linear in the number
of vertices (for fixed d), provided each facet keeps at most d-2 nonsimple
vertices.

With d-1 nonsimple vertices in total the sweep can leave one genuine
two-way ambiguity: a pair of traced regions meeting exactly in the
nonsimple set N with N inducing a complete graph is either two simplex-ish
facets sharing the ridge N or a single merged facet with N as a missing
internal ridge.  Both completions are reported; the parity of the facet
count picks one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Union

from .errors import (
    FrameNotInUniqueTwoFace,
    NonSimpleRoot,
    NotASkeleton,
)
from .graphs import Frame, Graph, is_feasible, mask_of
from .lattice import KSkeleton, classify_vertices


class FrameGraph:
    """Constant-time lookup structure over the simple-rooted 2-frames.

    For every 2-face we keep its boundary cycle as a neighbor-pair map, and
    for every simple root w with neighbors a, b sharing a 2-face we index
    that face under (w, a, b).  One lookup plus one cycle step realises the
    frame move, so a full reconstruction visits each simple (d-1)-frame at
    constant cost.
    """

    __slots__ = ("skeleton", "d", "simple", "nonsimple", "face_sets", "face_cycle", "index")

    def __init__(self, skeleton: KSkeleton, d: int):
        graph = skeleton.graph
        n = graph.n
        classes = classify_vertices(graph, d)
        self.skeleton = skeleton
        self.d = d
        self.simple = classes.simple
        self.nonsimple = classes.nonsimple
        self.face_sets: tuple[frozenset[int], ...] = skeleton.two_faces
        self.face_cycle: list[dict[int, tuple[int, int]]] = []
        # 2-frame (root, {a, b}) with a < b is keyed as (root*n + a)*n + b.
        self.index: dict[int, int] = {}
        index = self.index
        simple = self.simple
        adj = graph.adj
        frames_at = [0] * n
        for fi, face in enumerate(self.face_sets):
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
            self.face_cycle.append(cycle)
            for v in face:
                if v not in simple:
                    continue
                a, b = cycle[v]
                key = (v * n + a) * n + b if a < b else (v * n + b) * n + a
                if key in index:
                    raise FrameNotInUniqueTwoFace(
                        f"2-frame ({v}, {a}, {b}) lies in more than one 2-face"
                    )
                index[key] = fi
                frames_at[v] += 1
        # Every neighbor pair of a simple root must span exactly one 2-face.
        # The keys are distinct, so a root is covered when it holds
        # C(deg, 2) of them; otherwise scan in order for the first gap.
        if any(
            frames_at[v] != len(adj[v]) * (len(adj[v]) - 1) // 2 for v in simple
        ):
            for v in sorted(simple):
                nbrs = adj[v]
                for i in range(len(nbrs)):
                    for j in range(i + 1, len(nbrs)):
                        if (v * n + nbrs[i]) * n + nbrs[j] not in index:
                            raise FrameNotInUniqueTwoFace(
                                f"2-frame ({v}, {nbrs[i]}, {nbrs[j]}) lies in no 2-face"
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
        """The neighbor of v on the face cycle other than origin."""
        a, b = self.face_cycle[face_id][v]
        if a == origin:
            return b
        if b == origin:
            return a
        raise NotASkeleton(
            f"{origin} is not a cycle neighbor of {v} on face {face_id}"
        )


def build_frame_graph(sk: KSkeleton, d: int) -> FrameGraph:
    """Index the simple-rooted 2-frames of a 2-skeleton by containing face."""
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
    other neighbors of u2.
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
    face_id = fg.face_of(u, u_prime, u2)
    u_hat = fg.continue_past(face_id, u2, u)
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


def _trace(fg: FrameGraph, graph: Graph, root: int, excluded: int, visited, trace_id):
    """Propagate one seed frame; returns the region's (root, excluded) frames.

    ``visited`` is keyed by root*n + excluded so the hot loop hashes plain
    ints only.
    """
    n = graph.n
    index = fg.index
    cycles = fg.face_cycle
    simple = fg.simple
    adj = graph.adj
    frames = [(root, excluded)]
    visited[root * n + excluded] = trace_id
    queue = deque(frames)
    pop = queue.popleft
    push = queue.append
    while queue:
        w, ex = pop()
        wn = w * n
        for u2 in adj[w]:
            if u2 == ex or u2 not in simple:
                continue
            face_id = index.get((wn + ex) * n + u2 if ex < u2 else (wn + u2) * n + ex)
            if face_id is None:
                raise FrameNotInUniqueTwoFace(
                    f"2-frame ({w}, {ex}, {u2}) lies in no 2-face"
                )
            a, b = cycles[face_id][u2]
            if a == w:
                u_hat = b
            elif b == w:
                u_hat = a
            else:
                raise NotASkeleton(
                    f"{w} is not a cycle neighbor of {u2} on face {face_id}"
                )
            code = u2 * n + u_hat
            prev = visited.get(code)
            if prev is None:
                visited[code] = trace_id
                frames.append((u2, u_hat))
                push((u2, u_hat))
            elif prev != trace_id:
                raise NotASkeleton(
                    f"frame ({u2}, {u_hat}) reached from two different facet traces"
                )
    return frames


def _region_vertices(graph: Graph, frames) -> frozenset[int]:
    region: set[int] = set()
    for w, ex in frames:
        region.add(w)
        region.update(v for v in graph.adj[w] if v != ex)
    return frozenset(region)


def _check_region(fg: FrameGraph, graph: Graph, d, region, visited, trace_id):
    """Cheap per-region consistency: induced degrees and frame coverage.

    ``visited`` maps root*n + excluded to the trace that reached the frame,
    as :func:`_trace` fills it; the region's frames are those of ``trace_id``.
    """
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
    visited: dict[int, int] = {}
    regions: list[frozenset[int]] = []
    for root in sorted(fg.simple):
        for excluded in graph.adj[root]:
            if root * n + excluded in visited:
                continue
            trace_id = len(regions)
            frames = _trace(fg, graph, root, excluded, visited, trace_id)
            region = _region_vertices(graph, frames)
            if check:
                _check_region(fg, graph, d, region, visited, trace_id)
            regions.append(region)
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
