"""Face lattices from vertex-facet incidences.

A polytope is handed around as a :class:`PolytopeSpec` (dimension, vertex
count, facet list).  The full face lattice is the closure of the facet sets
under intersection, ranked by longest containment chains; skeleta,
f-vectors, and the simple/nonsimple vertex classification are read off the
lattice.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from .errors import DegreeBelowDimension, NotGraded, RankOutOfRange
from .graphs import Graph, k_connected


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

    def facet_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(f) for f in self.facets)

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
    faces covering f, ``lower[f]`` the faces f covers.
    """

    __slots__ = ("d", "n", "faces_by_rank", "rank_of", "upper", "lower")

    def __init__(self, d, n, faces_by_rank, rank_of, upper, lower):
        self.d = d
        self.n = n
        self.faces_by_rank = faces_by_rank
        self.rank_of = rank_of
        self.upper = upper
        self.lower = lower

    @property
    def f_vector(self) -> tuple[int, ...]:
        """Counts of proper nonempty faces, ranks 0..d-1."""
        return tuple(len(self.faces_by_rank[r]) for r in range(self.d))

    @property
    def facets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(sorted(f)) for f in self.faces_by_rank[self.d - 1])

    def graph(self) -> Graph:
        edges = [tuple(sorted(e)) for e in self.faces_by_rank.get(1, ())]
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
    """Close the facet sets under intersection and rank by longest chains.

    The dimension of a face is the length of the longest containment chain
    strictly below it, minus one; NotGraded is raised when the resulting
    ranks are inconsistent with a polytope of the declared dimension.
    """
    full = frozenset(range(spec.n))
    facet_sets = spec.facet_sets()
    faces: set[frozenset[int]] = {full, frozenset()}
    faces.update(facet_sets)
    frontier = list(facet_sets)
    while frontier:
        new: set[frozenset[int]] = set()
        for f in frontier:
            for g in facet_sets:
                h = f & g
                if h not in faces and h not in new:
                    new.add(h)
        faces.update(new)
        frontier = list(new)

    by_size = sorted(faces, key=len)
    rank_of: dict[frozenset[int], int] = {}
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
            raise NotGraded(f"facet {tuple(sorted(f))} has rank {rank_of[f]}")

    faces_by_rank: dict[int, tuple[frozenset[int], ...]] = {}
    for r in range(-1, spec.d + 1):
        layer = [f for f in faces if rank_of[f] == r]
        faces_by_rank[r] = tuple(sorted(layer, key=lambda s: tuple(sorted(s))))

    # Upper covers: the minimal faces strictly containing each face.  In a
    # graded lattice every cover must span exactly one rank.
    upper: dict[frozenset[int], tuple[frozenset[int], ...]] = {}
    lower: dict[frozenset[int], list[frozenset[int]]] = {f: [] for f in faces}
    for f in faces:
        ups: list[frozenset[int]] = []
        for h in by_size:
            if len(h) <= len(f) or not f < h:
                continue
            if not any(u < h for u in ups):
                ups.append(h)
        for h in ups:
            if rank_of[h] != rank_of[f] + 1:
                raise NotGraded(
                    f"{tuple(sorted(h))} covers {tuple(sorted(f))} but spans "
                    f"ranks {rank_of[f]}..{rank_of[h]}"
                )
            lower[h].append(f)
        upper[f] = tuple(sorted(ups, key=lambda s: tuple(sorted(s))))
    lower_t = {
        f: tuple(sorted(ls, key=lambda s: tuple(sorted(s)))) for f, ls in lower.items()
    }
    return FaceLattice(spec.d, spec.n, faces_by_rank, rank_of, upper, lower_t)


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


def _check_graded(lattice: FaceLattice) -> CheckResult:
    for f, ups in lattice.upper.items():
        for h in ups:
            if lattice.rank_of[h] != lattice.rank_of[f] + 1:
                return CheckResult("graded", False, f"cover spans more than one rank at {sorted(f)}")
    return CheckResult("graded", True, "every cover spans exactly one rank")


def _check_diamond(lattice: FaceLattice) -> CheckResult:
    # Count intermediates of every rank-2 interval through the middle face.
    counts: dict[tuple[frozenset, frozenset], int] = {}
    for g in lattice.rank_of:
        for f in lattice.lower[g]:
            for h in lattice.upper[g]:
                counts[(f, h)] = counts.get((f, h), 0) + 1
    for r in range(-1, lattice.d - 1):
        for f in lattice.faces_by_rank[r]:
            for h in lattice.faces_by_rank[r + 2]:
                if f < h:
                    c = counts.get((f, h), 0)
                    if c != 2:
                        return CheckResult(
                            "diamond",
                            False,
                            f"interval {sorted(f)}..{sorted(h)} has {c} intermediate faces",
                        )
    return CheckResult("diamond", True, "every rank-2 interval has exactly 2 intermediates")


def _check_euler(lattice: FaceLattice) -> CheckResult:
    total = sum((-1) ** k * fk for k, fk in enumerate(lattice.f_vector))
    want = 1 - (-1) ** lattice.d
    ok = total == want
    return CheckResult(
        "euler", ok, f"alternating sum {total}, expected {want}"
    )


def _check_graph_connectivity(lattice: FaceLattice) -> CheckResult:
    g = lattice.graph()
    ok = k_connected(g, lattice.d)
    return CheckResult(
        "graph_connectivity", ok, f"graph {'is' if ok else 'is not'} {lattice.d}-connected"
    )


def _check_facet_connectivity(lattice: FaceLattice) -> CheckResult:
    g = lattice.graph()
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
    """Run the necessary-condition checks and collect a report."""
    return ValidationReport(
        (
            _check_graded(lattice),
            _check_diamond(lattice),
            _check_euler(lattice),
            _check_graph_connectivity(lattice),
            _check_facet_connectivity(lattice),
        )
    )
