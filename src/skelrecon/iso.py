"""Exact isomorphism of graphs, k-skeletons, and face lattices.

A skeleton or lattice is treated as a ranked family of vertex sets; an
isomorphism is a vertex bijection carrying every layer onto the matching
layer.  The decision procedure is exact backtracking over vertex classes
refined by degree and face-membership profiles; instances here have at
most a few dozen vertices, so no canonical-form machinery is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .errors import KindMismatch
from .lattice import FaceLattice, KSkeleton


@dataclass(frozen=True)
class IsoResult:
    """Outcome of an isomorphism test.

    ``witness`` maps vertex v of the first object to witness[v] in the
    second; ``obstruction`` names the first distinguishing invariant when
    the verdict is negative.
    """

    isomorphic: bool
    witness: Optional[tuple[int, ...]] = None
    obstruction: Optional[str] = None


def _layers(obj: Union[KSkeleton, FaceLattice]) -> tuple[tuple, int, dict[int, tuple[frozenset, ...]]]:
    """Normalise to (kind tag, n, {rank: faces}) with rank >= 1 layers."""
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


def _profiles(n: int, layers: dict[int, tuple[frozenset, ...]], rounds: int = 3) -> list:
    """Per-vertex colors refined by layer membership and adjacency."""
    member: dict[int, list[list[int]]] = {}
    for r, faces in layers.items():
        per = [[] for _ in range(n)]
        for f in faces:
            for v in f:
                per[v].append(len(f))
        member[r] = [tuple(sorted(s)) for s in per]
    colors = [
        tuple((r, member[r][v]) for r in sorted(member)) for v in range(n)
    ]
    edges = layers.get(1, ())
    adj = [[] for _ in range(n)]
    for e in edges:
        u, v = sorted(e)
        adj[u].append(v)
        adj[v].append(u)
    for _ in range(rounds):
        palette = {c: i for i, c in enumerate(sorted(set(colors)))}
        coded = [palette[c] for c in colors]
        colors = [
            (coded[v], tuple(sorted(coded[w] for w in adj[v]))) for v in range(n)
        ]
    return colors


def _verified(layers_a, layers_b, mapping: tuple[int, ...]) -> bool:
    """Re-check that the mapping carries every layer onto its counterpart."""
    for r, faces in layers_a.items():
        image = {frozenset(mapping[v] for v in f) for f in faces}
        if image != set(layers_b[r]):
            return False
    return True


def isomorphic(a: Union[KSkeleton, FaceLattice], b: Union[KSkeleton, FaceLattice]) -> IsoResult:
    """Decide isomorphism exactly; returns a verified witness or an obstruction."""
    kind_a, n_a, layers_a = _layers(a)
    kind_b, n_b, layers_b = _layers(b)
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
        sa = sorted(len(f) for f in layers_a[r])
        sb = sorted(len(f) for f in layers_b[r])
        if sa != sb:
            return IsoResult(False, obstruction=f"rank {r} face sizes differ")

    n = n_a
    identity = tuple(range(n))
    if _verified(layers_a, layers_b, identity):
        return IsoResult(True, witness=identity)

    prof_a = _profiles(n, layers_a)
    prof_b = _profiles(n, layers_b)
    if sorted(prof_a) != sorted(prof_b):
        return IsoResult(False, obstruction="vertex profile multisets differ")

    candidates = {
        v: [w for w in range(n) if prof_b[w] == prof_a[v]] for v in range(n)
    }
    order = sorted(range(n), key=lambda v: (len(candidates[v]), v))
    edges_a = [set() for _ in range(n)]
    for e in layers_a.get(1, ()):
        u, v = sorted(e)
        edges_a[u].add(v)
        edges_a[v].add(u)
    edges_b = [set() for _ in range(n)]
    for e in layers_b.get(1, ()):
        u, v = sorted(e)
        edges_b[u].add(v)
        edges_b[v].add(u)

    # Every layer bijection restricts to a graph isomorphism, so enumerate
    # those within the refined classes and keep the first one that carries
    # all higher layers as well.
    for perm in _graph_isomorphisms(n, edges_a, edges_b, candidates, order):
        if _verified(layers_a, layers_b, perm):
            return IsoResult(True, witness=perm)
    return IsoResult(False, obstruction="search exhausted")


def _graph_isomorphisms(n, edges_a, edges_b, candidates, order):
    """All graph isomorphisms within the refined classes (backtracking)."""
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def extend(i: int):
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
