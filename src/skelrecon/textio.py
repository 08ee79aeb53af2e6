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

import functools
from collections.abc import Iterable, Iterator

from .graphs import Graph
from .lattice import KSkeleton, PolytopeSpec


#: Fields a line must have, counting its key, for the keys that take fixed ones.
_MIN_FIELDS = {"d": 2, "vertices": 2, "edge": 3}


def _fields(text: str) -> Iterator[list[str]]:
    """The fields of each content line of ``text``, one line at a time."""
    for parts in map(str.split, text.splitlines()):
        if parts and parts[0][0] != "#":
            yield parts


def _short_lines_first(parse):
    """Report the first line with too few fields ahead of any other parse
    error, as if every line had been checked before any was read.  ``parse``
    reads each line once, as it streams; the text is scanned for a short
    line only when ``parse`` fails, which a short line always makes it do:
    reading its missing field raises IndexError, or its key is unexpected."""

    @functools.wraps(parse)
    def checked(text: str):
        try:
            return parse(text)
        except (ValueError, IndexError):
            for line in map(str.strip, text.splitlines()):
                parts = line.split()
                if parts and parts[0][0] != "#" and len(parts) < _MIN_FIELDS.get(parts[0], 1):
                    raise ValueError(f"too few fields in line: {line}") from None
            raise

    return checked


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


def _misfit(text: str, n: int, d: int | None = None) -> ValueError | None:
    """The error of the first line of ``text`` that does not fit n vertices:
    first the ``face<r>`` lines in order, whose ranks must lie in 2..d-1
    (read only when ``d`` is given), then the ``edge`` lines, which may not
    be loops; None if every line fits.  The parsers keep no line's text,
    so they rescan it for the line to name only after they have found that
    one does not fit."""
    edges = []
    for parts in _fields(text):
        key = parts[0]
        if key == "edge":
            edges.append(parts)
        elif d is not None and key.startswith("face"):
            if not 2 <= int(key[4:]) <= d - 1:
                return ValueError(f"face rank outside 2..{d - 1} in line: {' '.join(parts)}")
            try:
                vs = sorted(map(int, parts[1:]))
            except ValueError:
                return _non_integer(parts)
            if not vs:
                return ValueError(f"too few fields in line: {' '.join(parts)}")
            if vs[0] < 0 or vs[-1] >= n:
                return ValueError(f"vertex outside 0..{n - 1} in line: {' '.join(parts)}")
    for parts in edges:
        u, v = int(parts[1]), int(parts[2])
        if u == v:
            return ValueError(f"loop in line: {' '.join(parts)}")
        if not (0 <= u < n and 0 <= v < n):
            return ValueError(f"vertex outside 0..{n - 1} in line: {' '.join(parts)}")
    return None


def _graph(text: str, n: int, edges: list[tuple[int, int]]) -> Graph:
    """The graph of the ``edge u v`` lines of ``text``; a loop or an
    endpoint outside 0..n-1 names its line (see :func:`_misfit`)."""
    try:
        return Graph(n, edges)
    except ValueError:
        misfit = _misfit(text, n)
        if misfit is not None:
            raise misfit from None
        raise


def facet_lines(facets: Iterable[Iterable[int]]) -> str:
    """One ``facet v1 v2 ...`` line per facet, in the order given."""
    return "".join(f"facet {' '.join(map(str, f))}\n" for f in facets)


def format_facets(d: int, n: int, facets: Iterable[Iterable[int]]) -> str:
    """The incidence text of a facet list that is already canonical: sorted
    vertex tuples in lexicographic order, as :class:`PolytopeSpec` keeps
    them and ``recon2.reconstruct`` returns them."""
    return f"d {d}\nvertices {n}\n" + facet_lines(facets)


def format_spec(spec: PolytopeSpec) -> str:
    return format_facets(spec.d, spec.n, spec.facets)


@_short_lines_first
def parse_spec(text: str) -> PolytopeSpec:
    d = n = None
    facets = []
    for parts in _fields(text):
        key = parts[0]
        if key == "facet":
            try:
                facets.append(list(map(int, parts[1:])))
            except ValueError:
                raise _non_integer(parts) from None
        elif key == "d":
            d = _header(d, parts)
        elif key == "vertices":
            n = _vertex_count(n, parts)
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
            lines.append(f"face{r} " + " ".join(map(str, f)))
    return "\n".join(lines) + "\n"


@_short_lines_first
def parse_skeleton(text: str) -> tuple[KSkeleton, int]:
    """Parse a skeleton file; returns (skeleton, polytope dimension)."""
    d = n = None
    edges = []
    # Each face line is converted once, to its rank and its face: the
    # sorted tuple of its vertices, a repeated one dropped (None when a
    # vertex is not an integer).  Faces are checked after every line is
    # read, as they need the headers, and so every line's own errors come
    # first.
    face_lines: list[tuple[int, tuple[int, ...] | None]] = []
    add_edge = edges.append
    add_face = face_lines.append
    # The rank of each distinct face<r> key, read once.
    ranks: dict[str, int] = {}
    for parts in map(str.split, text.splitlines()):
        if not parts:
            continue
        key = parts[0]
        if key == "edge":
            try:
                add_edge((int(parts[1]), int(parts[2])))
            except ValueError:
                raise _non_integer(parts) from None
        elif key.startswith("face"):
            r = ranks.get(key)
            if r is None:
                r = ranks[key] = _int(key[4:], parts)
            try:
                add_face((r, tuple(sorted(set(map(int, parts[1:]))))))
            except ValueError:
                add_face((r, None))
        elif key == "d":
            d = _header(d, parts)
        elif key == "vertices":
            n = _vertex_count(n, parts)
        elif key[0] != "#":  # no key above starts with "#"
            raise ValueError(f"unexpected line: {' '.join(parts)}")
    if d is None or n is None:
        raise ValueError("missing d or vertices header")
    faces: dict[int, list[tuple[int, ...]]] = {}
    for r, vs in face_lines:
        if not (2 <= r < d and vs and vs[0] >= 0 and vs[-1] < n):
            raise _misfit(text, n, d)
        faces.setdefault(r, []).append(vs)
    k = max(faces, default=1)
    faces_by_dim = {r: tuple(sorted(fs)) for r, fs in faces.items()}
    return KSkeleton(k=k, graph=_graph(text, n, edges), faces_by_dim=faces_by_dim), d


def format_edge_list(g: Graph) -> str:
    lines = [f"vertices {g.n}"]
    for u, v in g.edges:
        lines.append(f"edge {u} {v}")
    return "\n".join(lines) + "\n"


@_short_lines_first
def parse_edge_list(text: str) -> Graph:
    n = None
    edges = []
    for parts in _fields(text):
        key = parts[0]
        if key == "edge":
            try:
                edges.append((int(parts[1]), int(parts[2])))
            except ValueError:
                raise _non_integer(parts) from None
        elif key == "vertices":
            n = _vertex_count(n, parts)
        else:
            raise ValueError(f"unexpected line: {' '.join(parts)}")
    if n is None:
        n = max((max(e) for e in edges), default=-1) + 1
    return _graph(text, n, edges)
