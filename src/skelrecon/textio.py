"""Text formats for incidences, skeleta, and edge lists.

All writers emit UTF-8 text with LF line endings and canonical ordering,
so identical inputs always serialise byte-identically.  Lines starting
with ``#`` are comments.

incidence   ``d <dim>`` / ``vertices <n>`` / one ``facet v1 v2 ...`` per facet
skeleton    ``d`` / ``vertices`` / ``edge u v`` lines / ``face<r> v1 ...`` lines,
            r in 2..d-1
edge list   optional ``vertices <n>`` / ``edge u v`` lines
"""

from __future__ import annotations

from operator import itemgetter

from .graphs import Graph
from .lattice import KSkeleton, PolytopeSpec


#: Fields a line must have, counting its key, for the keys that take fixed ones.
_MIN_FIELDS = {"d": 2, "vertices": 2, "edge": 3}


def _content_lines(text: str) -> list[list[str]]:
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < _MIN_FIELDS.get(parts[0], 1):
            raise ValueError(f"too few fields in line: {line}")
        out.append(parts)
    return out


def _non_integer(parts: list[str]) -> ValueError:
    return ValueError(f"non-integer field in line: {' '.join(parts)}")


def _int(field: str, parts: list[str]) -> int:
    """One integer field of a line; the error names the line."""
    try:
        return int(field)
    except ValueError:
        raise _non_integer(parts) from None


def _header(seen: int | None, parts: list[str]) -> int:
    """The value of a ``d`` or ``vertices`` line, which may appear once."""
    if seen is not None:
        raise ValueError(f"repeated header in line: {' '.join(parts)}")
    return _int(parts[1], parts)


def _vertex_count(seen: int | None, parts: list[str]) -> int:
    """The value of the ``vertices`` line, which may not be negative."""
    n = _header(seen, parts)
    if n < 0:
        raise ValueError(f"negative vertex count in line: {' '.join(parts)}")
    return n


def _graph(text: str, n: int, edges: list[tuple[int, int]]) -> Graph:
    """The graph of the ``edge u v`` lines of ``text``.  A loop or an
    endpoint outside 0..n-1 names its line; the text is scanned again for
    that line only then, so parsing keeps no line once it is read."""
    try:
        return Graph(n, edges)
    except ValueError:
        edge_lines = [parts for parts in _content_lines(text) if parts[0] == "edge"]
        for (u, v), parts in zip(edges, edge_lines):
            if u == v:
                raise ValueError(f"loop in line: {' '.join(parts)}") from None
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(
                    f"vertex outside 0..{n - 1} in line: {' '.join(parts)}"
                ) from None
        raise


def format_spec(spec: PolytopeSpec) -> str:
    lines = [f"d {spec.d}", f"vertices {spec.n}"]
    for f in spec.facets:
        lines.append("facet " + " ".join(str(v) for v in f))
    return "\n".join(lines) + "\n"


def parse_spec(text: str) -> PolytopeSpec:
    d = n = None
    facets = []
    for parts in _content_lines(text):
        key = parts[0]
        if key == "d":
            d = _header(d, parts)
        elif key == "vertices":
            n = _vertex_count(n, parts)
        elif key == "facet":
            facets.append([_int(v, parts) for v in parts[1:]])
        else:
            raise ValueError(f"unexpected line: {' '.join(parts)}")
    if d is None or n is None:
        raise ValueError("missing d or vertices header")
    return PolytopeSpec(d, n, facets)


def format_skeleton(sk: KSkeleton, d: int) -> str:
    lines = [f"d {d}", f"vertices {sk.graph.n}"]
    for u, v in sk.graph.edges:
        lines.append(f"edge {u} {v}")
    for r in sorted(sk.faces_by_dim):
        for f in sk.faces_by_dim[r]:
            lines.append(f"face{r} " + " ".join(str(v) for v in sorted(f)))
    return "\n".join(lines) + "\n"


def parse_skeleton(text: str) -> tuple[KSkeleton, int]:
    """Parse a skeleton file; returns (skeleton, polytope dimension)."""
    d = n = None
    edges = []
    face_lines: list[tuple[int, list[str]]] = []
    for parts in _content_lines(text):
        key = parts[0]
        if key == "d":
            d = _header(d, parts)
        elif key == "vertices":
            n = _vertex_count(n, parts)
        elif key == "edge":
            try:
                edges.append((int(parts[1]), int(parts[2])))
            except ValueError:
                raise _non_integer(parts) from None
        elif key.startswith("face"):
            face_lines.append((_int(key[4:], parts), parts))
        else:
            raise ValueError(f"unexpected line: {' '.join(parts)}")
    if d is None or n is None:
        raise ValueError("missing d or vertices header")
    # Each face line is converted once, to its sorted vertex list, which is
    # also the face's sort key; a repeated vertex is dropped from the key.
    faces: dict[int, list[tuple[list[int], frozenset[int]]]] = {}
    for r, parts in face_lines:
        if not 2 <= r <= d - 1:
            raise ValueError(f"face rank outside 2..{d - 1} in line: {' '.join(parts)}")
        try:
            vs = sorted(map(int, parts[1:]))
        except ValueError:
            raise _non_integer(parts) from None
        if not vs:
            raise ValueError(f"too few fields in line: {' '.join(parts)}")
        if vs[0] < 0 or vs[-1] >= n:
            raise ValueError(f"vertex outside 0..{n - 1} in line: {' '.join(parts)}")
        face = frozenset(vs)
        faces.setdefault(r, []).append((vs if len(vs) == len(face) else sorted(face), face))
    k = max(faces, default=1)
    faces_by_dim = {
        r: tuple(face for _, face in sorted(fs, key=itemgetter(0)))
        for r, fs in faces.items()
    }
    return KSkeleton(k=k, graph=_graph(text, n, edges), faces_by_dim=faces_by_dim), d


def format_edge_list(g: Graph) -> str:
    lines = [f"vertices {g.n}"]
    for u, v in g.edges:
        lines.append(f"edge {u} {v}")
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    n = None
    edges = []
    for parts in _content_lines(text):
        key = parts[0]
        if key == "vertices":
            n = _vertex_count(n, parts)
        elif key == "edge":
            try:
                edges.append((int(parts[1]), int(parts[2])))
            except ValueError:
                raise _non_integer(parts) from None
        else:
            raise ValueError(f"unexpected line: {' '.join(parts)}")
    if n is None:
        n = max((max(e) for e in edges), default=-1) + 1
    return _graph(text, n, edges)
