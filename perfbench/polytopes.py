"""Fixture polytopes, their face-lattice oracles, and the benchmark's file I/O.

Nothing here imports skelrecon.  Facet lists come from the closed-form
rules the library documents, and faces come from intersection closure
over int bitmasks, ranked top down: the faces a face F covers are the
inclusion-maximal sets among F & G over the facets G.  The library ranks
by longest containment chains instead, so no oracle value goes through
the code the benchmark times.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Poly:
    """Dimension, vertex count and facets (sorted vertex tuples)."""

    d: int
    n: int
    facets: tuple[tuple[int, ...], ...]


def make(d: int, n: int, facets) -> Poly:
    return Poly(d, n, tuple(sorted(tuple(sorted(set(f))) for f in facets)))


def simplex(d: int) -> Poly:
    return make(d, d + 1, itertools.combinations(range(d + 1), d))


def cube(d: int) -> Poly:
    n = 1 << d
    facets = []
    for i in range(d):
        facets.append([v for v in range(n) if not v >> i & 1])
        facets.append([v for v in range(n) if v >> i & 1])
    return make(d, n, facets)


def prism_faces(m: int) -> list[tuple[int, ...]]:
    """Facets of the prism over an m-gon: bottom 0..m-1, top m..2m-1, m quads."""
    quads = [(i, (i + 1) % m, m + i, m + (i + 1) % m) for i in range(m)]
    return [tuple(range(m)), tuple(range(m, 2 * m))] + quads


def prism_edges(m: int) -> list[tuple[int, int]]:
    edges = []
    for i in range(m):
        j = (i + 1) % m
        edges += [(i, j), (m + i, m + j), (i, m + i)]
    return edges


def prism(m: int) -> Poly:
    return make(3, 2 * m, prism_faces(m))


def pyramid(base: Poly, t: int = 1) -> Poly:
    """t-fold pyramid: each apex joins every facet, the base stays a facet."""
    p = base
    for _ in range(t):
        p = make(p.d + 1, p.n + 1, [range(p.n)] + [f + (p.n,) for f in p.facets])
    return p


def bipyramid(base: Poly) -> Poly:
    a, b = base.n, base.n + 1
    return make(
        base.d + 1,
        base.n + 2,
        [f + (a,) for f in base.facets] + [f + (b,) for f in base.facets],
    )


def _twin_facets(d: int) -> tuple[set[int], list[set[int]]]:
    """Facets q1(d) and q2(d) share, with X = {2, 4, ..., 2d-2}."""
    x = set(range(2, 2 * d, 2))
    shared = []
    for k in range(1, d):
        shared.append({0} | {2 * i + 1 for i in range(k)} | (x - {2 * k}))
    for k in range(1, d - 1):
        shared.append({2 * d - 1} | {2 * i + 1 for i in range(k - 1, d - 1)} | (x - {2 * k}))
    shared.append({2 * d - 3, 2 * d - 1} | (x - {2 * (d - 1)}))
    return x, shared


def q1(d: int) -> Poly:
    """First twin: the shared facets plus the simplices {0}|X and {2d-1}|X."""
    x, shared = _twin_facets(d)
    return make(d, 2 * d, shared + [{0} | x, {2 * d - 1} | x])


def q2(d: int) -> Poly:
    """Second twin: the two simplices of q1 merged into {0, 2d-1}|X."""
    x, shared = _twin_facets(d)
    return make(d, 2 * d, shared + [{0, 2 * d - 1} | x])


# Facet lists of the two-nonsimple fixtures in tests/conftest.py.
SPLIT_CUBE = make(3, 8, [
    (0, 1, 2), (0, 2, 3), (4, 5, 6, 7), (0, 1, 4, 5), (1, 2, 5, 6),
    (2, 3, 6, 7), (0, 3, 4, 7),
])
SKEW_SOLID = make(3, 8, [
    (0, 2, 3), (1, 4, 6), (1, 5, 7), (0, 2, 4, 6), (0, 3, 5, 7),
    (0, 1, 4, 5), (1, 2, 3, 6, 7),
])
PRISM_OVER_PYRAMID = make(4, 10, [
    (0, 1, 2, 3, 4), (5, 6, 7, 8, 9), (0, 1, 2, 3, 5, 6, 7, 8),
    (0, 1, 4, 5, 6, 9), (1, 2, 4, 6, 7, 9), (2, 3, 4, 7, 8, 9),
    (0, 3, 4, 5, 8, 9),
])


def _mask(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _members(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def faces_by_rank(p: Poly) -> dict[int, list[tuple[int, ...]]]:
    """Every face of p by rank -1..d, each layer sorted.

    Raises ValueError when a face is reached at two ranks or the Euler
    relation fails, so a broken fixture never becomes an oracle.
    """
    facets = [_mask(f) for f in p.facets]
    full = (1 << p.n) - 1
    rank = {full: p.d}
    layer = {full}
    for r in range(p.d - 1, -2, -1):
        below = set()
        for face in layer:
            cands = {face & g for g in facets} - {face}
            below.update(c for c in cands if not any(c != o and c & o == c for o in cands))
        for c in below:
            if rank.setdefault(c, r) != r:
                raise ValueError(f"face {_members(c)} reached at ranks {rank[c]} and {r}")
        layer = below
    out: dict[int, list[tuple[int, ...]]] = {r: [] for r in range(-1, p.d + 1)}
    for mask, r in rank.items():
        out[r].append(_members(mask))
    for r in out:
        out[r].sort()
    euler = sum((-1) ** k * len(out[k]) for k in range(p.d))
    if out[-1] != [()] or euler != 1 - (-1) ** p.d:
        raise ValueError(f"not a polytope lattice: Euler sum {euler}")
    return out


def degrees(n: int, edges) -> list[int]:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


# -- relabeling --------------------------------------------------------------

def permutation(seed: int, fixture: str, index: int, n: int) -> list[int]:
    """The index-th relabeling of a fixture under a workload seed.

    String seeds hash through SHA-512, so the result does not depend on
    PYTHONHASHSEED.
    """
    perm = list(range(n))
    random.Random(f"{seed}/{fixture}/{index}").shuffle(perm)
    return perm


def relabel(sets, perm) -> list[tuple[int, ...]]:
    """Map every vertex v to perm[v]; each set sorted, the list sorted."""
    return sorted(tuple(sorted(perm[v] for v in s)) for s in sets)


# -- input files ----------------------------------------------------------

def _lines(words) -> str:
    return "".join(" ".join(map(str, w)) + "\n" for w in words)


def incidence_text(d: int, n: int, facets) -> str:
    return _lines([("d", d), ("vertices", n)] + [("facet",) + tuple(f) for f in facets])


def skeleton_text(d: int, n: int, edges, two_faces) -> str:
    return _lines(
        [("d", d), ("vertices", n)]
        + [("edge",) + tuple(e) for e in edges]
        + [("face2",) + tuple(f) for f in two_faces]
    )


def edge_list_text(n: int, edges) -> str:
    return _lines([("vertices", n)] + [("edge",) + tuple(e) for e in edges])


# -- program output ----------------------------------------------------------

def records(text: str) -> dict[str, list[tuple[int, ...]]]:
    """Non-comment lines of an incidence or skeleton text, keyed by first word."""
    out: dict[str, list[tuple[int, ...]]] = {}
    for raw in text.splitlines():
        parts = raw.split()
        if parts and not parts[0].startswith("#"):
            out.setdefault(parts[0], []).append(tuple(int(w) for w in parts[1:]))
    return out
