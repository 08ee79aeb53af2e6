"""Exact isomorphism of graphs, k-skeletons, and face lattices.

A skeleton or lattice is treated as a ranked family of vertex sets, each
an int bitmask as in the lattice; an isomorphism is a vertex bijection
carrying every layer onto the matching layer.  Face counts, size
multisets and the identity map are decided on the masks alone; vertices
are decoded only for the profiles and the witness search, which few
pairs reach.  Those read neighbours from the argument's own graph (a
lattice's ``graph()``, a skeleton's ``graph``): the profiles its
adjacency lists, the search its masks.  The decision procedure is exact
backtracking over vertex classes refined by degree and face-membership
profiles, on an explicit stack: a relabeled cube(10), 1,024 vertices,
runs in CI, but relabeled prisms still take exponential time (ROADMAP
item 12).
"""

from __future__ import annotations

from collections import namedtuple

from .errors import KindMismatch
from .graphs import Graph, mask_of, vertices_of
from .lattice import FaceLattice, KSkeleton


class IsoResult(namedtuple("IsoResult", "isomorphic witness obstruction", defaults=(None, None))):
    """Outcome of an isomorphism test.

    ``witness`` maps vertex v of the first object to witness[v] in the
    second; ``obstruction`` names the first distinguishing invariant when
    the verdict is negative.
    """

    __slots__ = ()


def _layers(
    obj: KSkeleton | FaceLattice, rank: int | None
) -> tuple[tuple, int, dict[int, list[int]]]:
    """Normalise to (kind tag, n, {rank: face masks}) with rank >= 1 layers.

    With ``rank`` set, a lattice gives the layers of its rank-skeleton,
    with k_skeleton's errors.
    """
    if isinstance(obj, FaceLattice):
        if rank is not None:
            return ("skeleton", rank), obj.n, obj.skeleton_masks(rank)
        layers = {r: obj.masks_of_rank(r) for r in range(1, obj.d)}
        return ("lattice", obj.d), obj.n, layers
    if isinstance(obj, KSkeleton):
        layers = {1: [(1 << u) | (1 << v) for u, v in obj.graph.edges]}
        for r, fs in obj.faces_by_dim.items():
            layers[r] = list(map(mask_of, fs))
        return ("skeleton", obj.k), obj.graph.n, layers
    raise KindMismatch(f"cannot compare objects of type {type(obj).__name__}")


def _graph(obj: KSkeleton | FaceLattice) -> Graph:
    """The graph of a skeleton or lattice; NotAnEdge names a rank-1 face
    of a lattice that is not a vertex pair."""
    return obj.graph() if isinstance(obj, FaceLattice) else obj.graph


def _profiles(n: int, layers: dict[int, list[tuple[int, ...]]], graph: Graph) -> list:
    """Per-vertex colors refined by layer membership and adjacency, in three rounds."""
    member: dict[int, list[list[int]]] = {}
    for r, faces in layers.items():
        per = [[] for _ in range(n)]
        for f in faces:
            size = len(f)
            for v in f:
                per[v].append(size)
        member[r] = [tuple(sorted(s)) for s in per]
    colors = [
        tuple((r, member[r][v]) for r in sorted(member)) for v in range(n)
    ]
    near = graph.adj
    for _ in range(3):
        palette = {c: i for i, c in enumerate(sorted(set(colors)))}
        coded = [palette[c] for c in colors]
        colors = [
            (coded[v], tuple(sorted(coded[w] for w in near[v]))) for v in range(n)
        ]
    return colors


def _verified(faces_a, masks_b, mapping: tuple[int, ...]) -> bool:
    """Re-check that the mapping carries every layer of vertex tuples onto
    its counterpart, a set of masks."""
    bit = [1 << w for w in mapping]
    for r, faces in faces_a.items():
        image = set()
        for f in faces:
            m = 0
            for v in f:
                m |= bit[v]
            image.add(m)
        if image != masks_b[r]:
            return False
    return True


def isomorphic(
    a: KSkeleton | FaceLattice,
    b: KSkeleton | FaceLattice,
    rank: int | None = None,
) -> IsoResult:
    """Decide isomorphism exactly; returns a verified witness or an obstruction.

    ``rank=k`` compares each lattice by its faces of rank 1..k, exactly as
    ``k_skeleton(lattice, k)`` would be compared, errors included; a
    KSkeleton argument is compared as it is.
    """
    kind_a, n_a, layers_a = _layers(a, rank)
    kind_b, n_b, layers_b = _layers(b, rank)
    if kind_a != kind_b:
        raise KindMismatch(f"cannot compare {kind_a} with {kind_b}")
    if n_a != n_b:
        return IsoResult(False, obstruction=f"vertex counts {n_a} != {n_b}")
    if set(layers_a) != set(layers_b):
        return IsoResult(False, obstruction="different face ranks present")
    for r in sorted(layers_a):
        ca = len(layers_a[r])
        cb = len(layers_b[r])
        if ca != cb:
            return IsoResult(False, obstruction=f"rank {r} face counts {ca} != {cb}")
        sa = sorted(f.bit_count() for f in layers_a[r])
        sb = sorted(f.bit_count() for f in layers_b[r])
        if sa != sb:
            return IsoResult(False, obstruction=f"rank {r} face sizes differ")

    n = n_a
    masks_b = {r: set(faces) for r, faces in layers_b.items()}
    if all(set(faces) == masks_b[r] for r, faces in layers_a.items()):
        return IsoResult(True, witness=tuple(range(n)))

    graph_a = _graph(a)
    graph_b = _graph(b)
    # Decode each face once, for the profiles and the witness checks.
    faces_a = {r: list(map(vertices_of, faces)) for r, faces in layers_a.items()}
    faces_b = {r: list(map(vertices_of, faces)) for r, faces in layers_b.items()}
    prof_a = _profiles(n, faces_a, graph_a)
    prof_b = _profiles(n, faces_b, graph_b)
    if sorted(prof_a) != sorted(prof_b):
        return IsoResult(False, obstruction="vertex profile multisets differ")

    candidates = {
        v: [w for w in range(n) if prof_b[w] == prof_a[v]] for v in range(n)
    }
    order = sorted(range(n), key=lambda v: (len(candidates[v]), v))

    # Every layer bijection restricts to a graph isomorphism, so enumerate
    # those within the refined classes and keep the first one that carries
    # all higher layers as well.
    for perm in _graph_isomorphisms(n, graph_a.masks, graph_b.masks, candidates, order):
        if _verified(faces_a, masks_b, perm):
            return IsoResult(True, witness=perm)
    return IsoResult(False, obstruction="search exhausted")


def _graph_isomorphisms(n, adj_a, adj_b, candidates, order):
    """All graph isomorphisms within the refined classes, by backtracking
    over an explicit stack of candidate iterators, one per mapped vertex,
    so the depth is not bounded by the recursion limit.  The identity map
    settles n = 0 before any search."""
    mapping: dict[int, int] = {}
    used: set[int] = set()
    stack = [iter(candidates[order[0]])]
    while stack:
        i = len(stack) - 1
        v = order[i]
        if v in mapping:  # back at v: undo its last choice
            used.discard(mapping.pop(v))
        for w in stack[i]:
            if w in used:
                continue
            if any((adj_a[v] >> v2 & 1) != (adj_b[w] >> w2 & 1) for v2, w2 in mapping.items()):
                continue
            mapping[v] = w
            used.add(w)
            break
        else:
            stack.pop()
            continue
        if i + 1 < n:
            stack.append(iter(candidates[order[i + 1]]))
        else:
            yield tuple(mapping[u] for u in range(n))
