"""Face lattices from vertex-facet incidences.

A polytope is handed around as a :class:`PolytopeSpec` (dimension, vertex
count, facet list).  The full face lattice is built top down over vertex
bitmasks, largest faces first: each face's lower covers are the maximal
intersections of it with the facets, so every face and cover is found
once.  Below a face whose covers are its one-vertex-smaller subsets every
face is a simplex, whose covers and rank (size minus one) need no facet
scan; the other faces are ranked by their longest chains of covers.
Skeleta, f-vectors, and the simple/nonsimple vertex classification are
read off the lattice.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from .errors import DegreeBelowDimension, NotAnEdge, NotGraded, RankOutOfRange
from .graphs import Graph, k_connected, vertices_of


class PolytopeSpec:
    """Dimension, vertex count, and facet list: the interchange object.

    Facets are stored as sorted tuples in lexicographic order, so equal
    specs compare equal and serialise identically.  For genuine polytope
    incidences every vertex lies in at least d facets; that is deliberately
    not enforced here so that broken inputs can still be run through
    :func:`validate` and reported on.

    No facet may contain another.  A facet containing facet F also holds
    F's rarest vertex (the one in fewest facets), so F is tested for
    containment only against the facets that hold that vertex.  With I
    incidences and at most c facets through the rarest vertex of each
    facet, the check costs O(c * I): linear when vertices lie in few
    facets, as on a prism, and never more subset tests than comparing all
    pairs.  The first offending pair, and so the error, is the one an
    all-pairs scan in canonical order meets first.
    """

    __slots__ = ("d", "n", "facets")

    def __init__(self, d: int, n: int, facets: Iterable[Iterable[int]]):
        if d < 2:
            raise ValueError("dimension must be at least 2")
        if n < 1:
            raise ValueError("vertex count must be positive")
        canon = sorted(tuple(sorted(set(f))) for f in facets)
        sets = [frozenset(f) for f in canon]
        for f in canon:
            if not f:
                raise ValueError("empty facet")
            if f[0] < 0 or f[-1] >= n:
                raise ValueError(f"facet {f} outside 0..{n - 1}")
        holders: defaultdict[int, list[int]] = defaultdict(list)
        for j, f in enumerate(canon):
            for v in f:
                holders[v].append(j)
        for i, a in enumerate(sets):
            # The ascending indices of the facets through a's rarest vertex.
            for j in min(map(holders.__getitem__, canon[i]), key=len):
                if i != j and a <= sets[j]:
                    raise ValueError(
                        f"facet {canon[i]} contained in facet {canon[j]}"
                        if a < sets[j]
                        else f"duplicate facet {canon[i]}"
                    )
        self.d = d
        self.n = n
        self.facets: tuple[tuple[int, ...], ...] = tuple(canon)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolytopeSpec)
            and (self.d, self.n, self.facets) == (other.d, other.n, other.facets)
        )

    def __hash__(self) -> int:
        return hash((self.d, self.n, self.facets))

    def __repr__(self) -> str:
        return f"PolytopeSpec(d={self.d}, n={self.n}, facets={len(self.facets)})"


class FaceLattice:
    """All faces of a polytope, by dimension, with cover relations.

    Faces are identified with their vertex sets (frozensets); rank -1 is
    the empty face and rank d the whole vertex set.  ``upper[f]`` lists the
    faces covering f.
    """

    __slots__ = ("d", "n", "faces_by_rank", "rank_of", "upper")

    def __init__(self, d, n, faces_by_rank, rank_of, upper):
        self.d = d
        self.n = n
        self.faces_by_rank = faces_by_rank
        self.rank_of = rank_of
        self.upper = upper

    @property
    def f_vector(self) -> tuple[int, ...]:
        """Counts of proper nonempty faces, ranks 0..d-1."""
        return tuple(len(self.faces_by_rank[r]) for r in range(self.d))

    @property
    def facets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(sorted(f)) for f in self.faces_by_rank[self.d - 1])

    def graph(self) -> Graph:
        """The rank-1 faces as a graph; NotAnEdge names the first non-pair."""
        edges = self.faces_by_rank.get(1, ())
        for e in edges:
            if len(e) != 2:
                raise NotAnEdge(
                    f"rank-1 face {tuple(sorted(e))} has {len(e)} vertices, "
                    "so it is not an edge"
                )
        return Graph(self.n, edges)

    def spec(self) -> PolytopeSpec:
        return PolytopeSpec(self.d, self.n, self.facets)

    def __repr__(self) -> str:
        return f"FaceLattice(d={self.d}, n={self.n}, f={self.f_vector})"


@dataclass(frozen=True)
class KSkeleton:
    """A graph together with all faces of dimension 2..k."""

    k: int
    graph: Graph
    faces_by_dim: dict[int, tuple[frozenset[int], ...]] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def two_faces(self) -> tuple[frozenset[int], ...]:
        return self.faces_by_dim.get(2, ())


def build_face_lattice(spec: PolytopeSpec) -> FaceLattice:
    """All faces and covers, found top down over vertex bitmasks.

    The sweep starts from the full vertex set and takes the faces found in
    order of decreasing size.  The faces a face F covers are the
    inclusion-maximal sets among F & H over the facets H not containing F,
    or the empty face when every facet contains F (Kaibel and Pfetsch,
    Comput. Geom. 2002); each face found is swept in turn, so the
    intersection closure and the cover relation come out together.

    F is Boolean when its lower covers are exactly the |F| sets F - v.
    The faces are closed under intersection, so every subset of a Boolean
    F, being an intersection of those covers, is a face, and the interval
    below F is the Boolean lattice of F's subsets.  This holds for any
    facet list, polytope or not.  So every face G below a Boolean face is
    Boolean too: its covers are the sets G - v, taken without a facet
    scan, and its rank is |G| - 1.  The other faces have as rank the
    length of the longest chain of covers strictly below them, minus one,
    found in order of increasing size.

    NotGraded is raised when the full vertex set does not get rank d, when
    a facet does not get rank d-1, or when a cover spans more than one
    rank.  A Boolean face's covers never do, and another face's do exactly
    when its covers' ranks differ; only then are the covers scanned in
    rank and then vertex order, so that the first offending one is
    reported.  Every face list is in vertex-tuple order: the faces are
    sorted once, and the layers and the upper covers are filled in that
    order.
    """
    n = spec.n
    facet_masks = [sum(1 << v for v in f) for f in spec.facets]
    full = (1 << n) - 1
    # Each face found maps to its vertex tuple; a swept face (and the empty
    # face, which never is) to its lower covers; a Boolean face to its rank
    # as soon as it is known to be Boolean.
    verts: dict[int, tuple[int, ...]] = {full: tuple(range(n)), 0: ()}
    lower: dict[int, list[int]] = {0: []}
    rank: dict[int, int] = {0: -1}
    by_size: list[list[int]] = [[] for _ in range(n + 1)]
    by_size[n].append(full)
    general: list[int] = []
    for size in range(n, 0, -1):
        for face in by_size[size]:
            if face not in rank:
                meets = {face & h for h in facet_masks}
                meets.discard(face)
                covers: list[int] = []
                # Largest first: a set is maximal iff no maximal set found
                # so far holds it.
                for m in sorted(meets, key=int.bit_count, reverse=True) or [0]:
                    for c in covers:
                        if m & c == m:
                            break
                    else:
                        covers.append(m)
                if len(covers) != size or covers[-1].bit_count() != size - 1:
                    general.append(face)
                    lower[face] = covers
                    for m in covers:
                        if m not in verts:
                            verts[m] = vertices_of(m)
                            by_size[m.bit_count()].append(m)
                    continue
                rank[face] = size - 1
            vs = verts[face]
            lower[face] = covers = [face ^ (1 << v) for v in vs]
            for i, m in enumerate(covers):
                rank[m] = size - 2
                if m not in verts:
                    verts[m] = vs[:i] + vs[i + 1 :]
                    by_size[size - 1].append(m)

    skewed = False
    for f in reversed(general):
        below = [rank[m] for m in lower[f]]
        top = rank[f] = max(below) + 1
        if min(below) != top - 1:
            skewed = True
    if rank[full] != spec.d:
        raise NotGraded(
            f"longest chain gives the full vertex set rank {rank[full]}, "
            f"expected {spec.d}"
        )
    for f, m in zip(spec.facets, facet_masks):
        if rank[m] != spec.d - 1:
            raise NotGraded(f"facet {f} has rank {rank[m]}")

    order = sorted(verts, key=verts.__getitem__)
    layers: dict[int, list[frozenset[int]]] = {r: [] for r in range(-1, spec.d + 1)}
    rank_of: dict[frozenset[int], int] = {}
    ups: dict[int, list[frozenset[int]]] = {f: [] for f in order}
    sets: dict[int, frozenset[int]] = {}
    for f in order:
        s = sets[f] = frozenset(verts[f])
        r = rank_of[s] = rank[f]
        layers[r].append(s)
        for m in lower[f]:
            ups[m].append(s)
    faces_by_rank = {r: tuple(layer) for r, layer in layers.items()}
    upper = {sets[f]: tuple(ups[f]) for f in order}
    if skewed:
        for layer in faces_by_rank.values():
            for f in layer:
                for h in upper[f]:
                    if rank_of[h] != rank_of[f] + 1:
                        raise NotGraded(
                            f"{tuple(sorted(h))} covers {tuple(sorted(f))} "
                            f"but spans ranks {rank_of[f]}..{rank_of[h]}"
                        )
    return FaceLattice(spec.d, n, faces_by_rank, rank_of, upper)


def k_skeleton(lattice: FaceLattice, k: int) -> KSkeleton:
    """Restrict a lattice to the faces of dimension at most k."""
    if not 1 <= k <= lattice.d - 1:
        raise RankOutOfRange(f"k must be in 1..{lattice.d - 1}, got {k}")
    faces_by_dim = {
        r: lattice.faces_by_rank[r] for r in range(2, k + 1)
    }
    return KSkeleton(k=k, graph=lattice.graph(), faces_by_dim=faces_by_dim)


@dataclass(frozen=True)
class VertexClasses:
    simple: frozenset[int]
    nonsimple: frozenset[int]
    degrees: dict[int, int]


def classify_vertices(
    obj: Union[PolytopeSpec, FaceLattice, Graph], d: Optional[int] = None
) -> VertexClasses:
    """Partition vertices into simple (degree d) and nonsimple (degree > d).

    Accepts a spec or lattice (dimension taken from the object) or a bare
    graph plus d.  Raises DegreeBelowDimension when some vertex has fewer
    than d incident edges, which rules out a polytope graph.
    """
    if isinstance(obj, PolytopeSpec):
        lattice = build_face_lattice(obj)
        graph, dim = lattice.graph(), lattice.d
    elif isinstance(obj, FaceLattice):
        graph, dim = obj.graph(), obj.d
    else:
        if d is None:
            raise ValueError("d is required when classifying a bare graph")
        graph, dim = obj, d
    degrees = {v: graph.degree(v) for v in range(graph.n)}
    bad = [v for v, deg in degrees.items() if deg < dim]
    if bad:
        raise DegreeBelowDimension(
            f"vertices {bad} have degree below d={dim}"
        )
    simple = frozenset(v for v, deg in degrees.items() if deg == dim)
    nonsimple = frozenset(v for v, deg in degrees.items() if deg > dim)
    return VertexClasses(simple, nonsimple, degrees)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    """Pass/fail results of the necessary-condition checks.

    These checks are necessary for polytopality, never sufficient; a clean
    report does not certify that the incidence comes from a polytope.
    """

    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def summary(self) -> str:
        lines = [
            f"{'PASS' if c.passed else 'FAIL'}  {c.name}: {c.detail}"
            for c in self.checks
        ]
        lines.append("note: necessary conditions only")
        return "\n".join(lines)


def _check_diamond(lattice: FaceLattice) -> CheckResult:
    # The lattice is graded (the build checks), so the faces two ranks above
    # f are those two covers above it, and each path there passes one
    # intermediate face.  Intervals are tried in rank and vertex order.
    upper = lattice.upper
    for r in range(-1, lattice.d - 1):
        for f in lattice.faces_by_rank[r]:
            counts = Counter(h for g in upper[f] for h in upper[g])
            bad = [h for h, c in counts.items() if c != 2]
            if bad:
                h = min(bad, key=sorted)
                return CheckResult(
                    "diamond",
                    False,
                    f"interval {sorted(f)}..{sorted(h)} has {counts[h]} intermediate faces",
                )
    return CheckResult("diamond", True, "every rank-2 interval has exactly 2 intermediates")


def _check_euler(lattice: FaceLattice) -> CheckResult:
    total = sum((-1) ** k * fk for k, fk in enumerate(lattice.f_vector))
    want = 1 - (-1) ** lattice.d
    ok = total == want
    return CheckResult(
        "euler", ok, f"alternating sum {total}, expected {want}"
    )


def _check_graph_connectivity(lattice: FaceLattice, g: Graph) -> CheckResult:
    ok = k_connected(g, lattice.d)
    return CheckResult(
        "graph_connectivity", ok, f"graph {'is' if ok else 'is not'} {lattice.d}-connected"
    )


def _check_facet_connectivity(lattice: FaceLattice, g: Graph) -> CheckResult:
    for f in lattice.faces_by_rank[lattice.d - 1]:
        sub, _ = g.induced(f)
        if not k_connected(sub, lattice.d - 1):
            return CheckResult(
                "facet_connectivity",
                False,
                f"facet {tuple(sorted(f))} is not {lattice.d - 1}-connected",
            )
    return CheckResult(
        "facet_connectivity", True, f"every facet graph is {lattice.d - 1}-connected"
    )


def validate(lattice: FaceLattice) -> ValidationReport:
    """Run the necessary-condition checks and collect a report.

    The graded check scans nothing: build_face_lattice raises NotGraded
    for any cover that spans more than one rank.  Both connectivity checks
    share one graph.
    """
    g = lattice.graph()
    return ValidationReport(
        (
            CheckResult("graded", True, "every cover spans exactly one rank"),
            _check_diamond(lattice),
            _check_euler(lattice),
            _check_graph_connectivity(lattice, g),
            _check_facet_connectivity(lattice, g),
        )
    )
