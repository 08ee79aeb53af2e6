"""Face lattices from vertex-facet incidences.

A polytope is handed around as a :class:`PolytopeSpec` (dimension, vertex
count, facet list).  The full face lattice is built top down over vertex
bitmasks, largest faces first: each face's lower covers are the maximal
intersections of it with the facets, so every face and cover is found
once.  A face whose covers are its one-vertex-smaller subsets is Boolean:
every subset of it is a face, added at once and never swept.

:class:`FaceLattice` keeps int masks only.  Boolean faces are one set;
their covers (F - v) and ranks (|F| - 1) stay implicit.  The other,
general faces keep their covers and their ranks, the lengths of their
longest chains of covers.  ``layer`` is the one decoder from masks to
vertex tuples, one rank at a time, cached; the views ``faces_by_rank``
and ``rank_of`` and every :class:`KSkeleton` are built from it.  Outside
the algorithms (this store, recong, iso) a face is its sorted vertex
tuple, and a list of faces is in lexicographic order.  Skeleta,
f-vectors, the simple/nonsimple vertex classification and the validation
checks read the masks and single layers, never the full views.
"""

from __future__ import annotations

from collections import defaultdict, namedtuple
from collections.abc import Iterable
from itertools import groupby
from operator import eq
from types import MappingProxyType

from .errors import DegreeBelowDimension, NotAnEdge, NotGraded, RankOutOfRange
from .graphs import Graph, k_connected, mask_of, vertices_of


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
    """All faces of a polytope, by rank, with cover relations, on vertex bitmasks.

    A face is the int mask of its vertex set.  ``boolean`` holds the
    Boolean faces, those whose lower covers are the sets F - v, one per
    vertex v of F; their covers and their rank, |F| - 1, stay implicit.
    The empty face is one of them.  Every other face is general:
    ``covers`` maps it to its lower covers and ``ranks`` to its rank.
    Rank -1 is the empty face and rank d the full vertex set.

    ``layer(r)`` decodes the rank-r faces to sorted vertex tuples, in
    lexicographic order, once per rank.  The views ``faces_by_rank``
    (ranks -1..d, each a layer) and ``rank_of`` (keyed by the same tuples)
    are built from the layers on each read, for library callers;
    ``f_vector``, ``facets``, ``graph`` and this module's functions use the
    masks and single layers only.
    """

    __slots__ = ("d", "n", "boolean", "covers", "ranks", "_by_rank", "_layers")

    def __init__(self, d: int, n: int, boolean: set[int],
                 covers: dict[int, list[int]], ranks: dict[int, int]):
        self.d = d
        self.n = n
        self.boolean = boolean
        self.covers = covers
        self.ranks = ranks
        self._by_rank: dict[int, list[int]] | None = None
        self._layers: dict[int, tuple[tuple[int, ...], ...]] = {}

    def is_face(self, mask: int) -> bool:
        return mask in self.boolean or mask in self.covers

    def rank(self, face: int) -> int:
        """The rank of a face, given as its mask."""
        return self.ranks.get(face, face.bit_count() - 1)

    def lower_covers(self, face: int) -> list[int]:
        """The faces a face covers, as masks."""
        below = self.covers.get(face)
        if below is None:
            below = boolean_covers(face)
        return below

    def masks_of_rank(self, r: int) -> list[int]:
        """The masks of the rank-r faces, in no particular order."""
        if self._by_rank is None:
            by_rank: dict[int, list[int]] = {s: [] for s in range(-1, self.d + 1)}
            for m in self.boolean:
                by_rank[m.bit_count() - 1].append(m)
            for m, s in self.ranks.items():
                by_rank[s].append(m)
            self._by_rank = by_rank
        return self._by_rank[r]

    def layer(self, r: int) -> tuple[tuple[int, ...], ...]:
        """The rank-r faces as vertex tuples, in order."""
        got = self._layers.get(r)
        if got is None:
            got = self._layers[r] = tuple(sorted(map(vertices_of, self.masks_of_rank(r))))
        return got

    @property
    def faces_by_rank(self) -> dict[int, tuple[tuple[int, ...], ...]]:
        return {r: self.layer(r) for r in range(-1, self.d + 1)}

    @property
    def rank_of(self) -> dict[tuple[int, ...], int]:
        return {f: r for r in range(-1, self.d + 1) for f in self.layer(r)}

    @property
    def f_vector(self) -> tuple[int, ...]:
        """Counts of proper nonempty faces, ranks 0..d-1."""
        return tuple(len(self.masks_of_rank(r)) for r in range(self.d))

    @property
    def facets(self) -> tuple[tuple[int, ...], ...]:
        return self.layer(self.d - 1)

    def graph(self) -> Graph:
        """The rank-1 faces as a graph; NotAnEdge names the first non-pair."""
        return Graph(self.n, map(vertices_of, require_edges(self.masks_of_rank(1))))

    def skeleton_masks(self, k: int) -> dict[int, list[int]]:
        """The masks of the faces of rank 1..k, the layers of the k-skeleton.

        RankOutOfRange unless 1 <= k <= d-1, then NotAnEdge as in graph().
        """
        if not 1 <= k <= self.d - 1:
            raise RankOutOfRange(f"k must be in 1..{self.d - 1}, got {k}")
        layers = {1: require_edges(self.masks_of_rank(1))}
        for r in range(2, k + 1):
            layers[r] = self.masks_of_rank(r)
        return layers

    def __repr__(self) -> str:
        return f"FaceLattice(d={self.d}, n={self.n}, f={self.f_vector})"


class KSkeleton(
    namedtuple("KSkeleton", "graph faces_by_dim", defaults=(MappingProxyType({}),))
):
    """A graph together with all faces of dimension 2..k.

    ``faces_by_dim[r]`` holds the r-faces as sorted vertex tuples, in
    lexicographic order, as ``FaceLattice.layer`` and the text formats
    give them.  It defaults to an empty read-only mapping.  The rank k is
    not stored: it is the largest key of ``faces_by_dim``, or 1 when
    there is none, so a layer listed empty still counts.
    """

    __slots__ = ()

    @property
    def k(self) -> int:
        return max(self.faces_by_dim, default=1)

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def two_faces(self) -> tuple[tuple[int, ...], ...]:
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
    facet list, polytope or not.  So when the sweep finds F Boolean, it
    adds each subset of F to the Boolean faces with one set insert and
    never sweeps them: their covers (G - v) and ranks (|G| - 1) stay
    implicit.  Only the other, general faces keep their covers, and get
    as rank the length of the longest chain of covers strictly below
    them, minus one, found in order of increasing size.  No vertex tuple
    is built; :class:`FaceLattice` decodes them on demand.

    NotGraded is raised when the full vertex set does not get rank d, when
    a facet does not get rank d-1, or when a cover spans more than one
    rank.  A Boolean face's covers never do, and a general face's do
    exactly when its covers' ranks differ; only then are the covers of
    the general faces searched for the first offending one in rank and
    then vertex order of the covered face, then vertex order of the cover.
    """
    n = spec.n
    facet_masks = [mask_of(f) for f in spec.facets]
    full = (1 << n) - 1
    boolean = {0}
    covers: dict[int, list[int]] = {}
    by_size: list[list[int]] = [[] for _ in range(n + 1)]
    by_size[n].append(full)
    for size in range(n, 0, -1):
        for face in by_size[size]:
            # A face can be queued more than once, or be found Boolean
            # after it was queued.
            if face in boolean or face in covers:
                continue
            meets = {face & h for h in facet_masks}
            meets.discard(face)
            below: list[int] = []
            # Largest first: a set is maximal iff no maximal set found so
            # far holds it.
            for m in sorted(meets, key=int.bit_count, reverse=True) or [0]:
                for c in below:
                    if m & c == m:
                        break
                else:
                    below.append(m)
            if len(below) == size and below[-1].bit_count() == size - 1:
                sub = face
                while sub:
                    boolean.add(sub)
                    sub = (sub - 1) & face
            else:
                covers[face] = below
                for m in below:
                    if m not in boolean:
                        by_size[m.bit_count()].append(m)

    # The general faces in order of increasing size: each one's general
    # covers are ranked before it.
    ranks: dict[int, int] = {}
    skewed = False
    for f in reversed(covers):
        below = [ranks[m] if m in ranks else m.bit_count() - 1 for m in covers[f]]
        top = ranks[f] = max(below) + 1
        if min(below) != top - 1:
            skewed = True
    lattice = FaceLattice(spec.d, n, boolean, covers, ranks)
    rank = lattice.rank
    if rank(full) != spec.d:
        raise NotGraded(
            f"longest chain gives the full vertex set rank {rank(full)}, "
            f"expected {spec.d}"
        )
    for f, m in zip(spec.facets, facet_masks):
        if rank(m) != spec.d - 1:
            raise NotGraded(f"facet {f} has rank {rank(m)}")
    if skewed:
        r, low, high, top = min(
            (rank(m), vertices_of(m), vertices_of(h), ranks[h])
            for h, below in covers.items()
            for m in below
            if rank(m) != ranks[h] - 1
        )
        raise NotGraded(f"{high} covers {low} but spans ranks {r}..{top}")
    return lattice


def boolean_covers(face: int) -> list[int]:
    """The masks F - v of a Boolean face F, v ascending: each low bit of F
    stripped in turn, with no vertex decoded."""
    below = []
    rest = face
    while rest:
        low = rest & -rest
        below.append(face ^ low)
        rest ^= low
    return below


def require_edges(faces: list[int]) -> list[int]:
    """Rank-1 face masks, unchanged when each is a vertex pair.

    Otherwise NotAnEdge names the first other face in vertex order.
    """
    bad = [vertices_of(m) for m in faces if m.bit_count() != 2]
    if bad:
        e = min(bad)
        raise NotAnEdge(f"rank-1 face {e} has {len(e)} vertices, so it is not an edge")
    return faces


def k_skeleton(lattice: FaceLattice, k: int) -> KSkeleton:
    """Restrict a lattice to the faces of dimension at most k."""
    edges = lattice.skeleton_masks(k)[1]
    faces_by_dim = {r: lattice.layer(r) for r in range(2, k + 1)}
    return KSkeleton(graph=Graph(lattice.n, map(vertices_of, edges)), faces_by_dim=faces_by_dim)


VertexClasses = namedtuple("VertexClasses", "simple nonsimple")


def classify_vertices(obj: FaceLattice | Graph, d: int | None = None) -> VertexClasses:
    """Partition vertices into simple (degree d) and nonsimple (degree > d).

    Accepts a lattice (dimension taken from it) or a bare graph plus d.
    Raises DegreeBelowDimension when some vertex has fewer than d incident
    edges, which rules out a polytope graph.
    """
    if isinstance(obj, FaceLattice):
        graph, dim = obj.graph(), obj.d
    else:
        if d is None:
            raise ValueError("d is required when classifying a bare graph")
        graph, dim = obj, d
    degrees = list(map(len, graph.adj))
    vertices = range(graph.n)
    # Most graphs here are simple polytope graphs, and the count runs at C
    # speed.
    if degrees.count(dim) == graph.n:
        simple, nonsimple = frozenset(vertices), frozenset()
    else:
        bad = [v for v in vertices if degrees[v] < dim]
        if bad:
            raise DegreeBelowDimension(
                f"vertices {bad} have degree below d={dim}"
            )
        nonsimple = frozenset(v for v in vertices if degrees[v] > dim)
        simple = frozenset(vertices).difference(nonsimple)
    return VertexClasses(simple, nonsimple)


CheckResult = namedtuple("CheckResult", "name passed detail")


class ValidationReport(namedtuple("ValidationReport", "checks")):
    """Pass/fail results of the necessary-condition checks.

    These checks are necessary for polytopality, never sufficient; a clean
    report does not certify that the incidence comes from a polytope.
    ``report[name]`` is the check of that name; an int or slice indexes
    the tuple as usual.
    """

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> CheckResult:
        if not isinstance(name, str):
            return tuple.__getitem__(self, name)
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
    # The lattice is graded (the build checks), so the faces two ranks below
    # a face h are the covers of its covers, and each path there passes one
    # intermediate face.  Below a Boolean h, h - u - v lies under h - u and
    # h - v only, so only intervals with a general top are counted.  The
    # failure reported is the first in rank and vertex order of the bottom
    # face, then vertex order of the top.
    covers = lattice.covers
    # The covers of the Boolean faces met, each written out once: a Boolean
    # face lies below several general tops.  boolean_covers strips g's bits
    # straight off the mask, never decoding g to vertices.
    implicit: dict[int, list[int]] = {}
    first = None
    for h, below in covers.items():
        under: list[int] = []
        for g in below:
            lower = covers.get(g)
            if lower is None:
                lower = implicit.get(g)
                if lower is None:
                    lower = implicit[g] = boolean_covers(g)
            under += lower
        # Sorted, each face's run is its count of intermediates: all are 2
        # iff the pairs match and no pair's second face equals the next
        # pair's first.
        under.sort()
        if under[::2] == under[1::2] and not any(map(eq, under[1::2], under[2::2])):
            continue
        for f, run in groupby(under):
            count = len(list(run))
            if count != 2:
                key = (lattice.rank(f), vertices_of(f), vertices_of(h), count)
                if first is None or key < first:
                    first = key
    if first is not None:
        _, f, h, count = first
        return CheckResult(
            "diamond",
            False,
            f"interval {list(f)}..{list(h)} has {count} intermediate faces",
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
    for f in lattice.facets:
        sub, _ = g.induced(f)
        if not k_connected(sub, lattice.d - 1):
            return CheckResult(
                "facet_connectivity",
                False,
                f"facet {f} is not {lattice.d - 1}-connected",
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
