"""Text formats for incidences, skeleta, and edge lists.

All writers emit UTF-8 text with LF line endings and canonical ordering,
so identical inputs always serialise byte-identically.  One loop,
:func:`_read`, reads all three formats.  A line is a key and its fields,
and a key starting with ``#`` makes it a comment.  ``d <dim>`` and
``vertices <n>`` are headers, each allowed once.  The formats differ only
in the table ``_FORMATS``: the keys each admits, and whether it requires
both headers.

incidence   ``d`` / ``vertices`` / one ``facet v1 v2 ...`` per facet
skeleton    ``d`` / ``vertices`` / ``edge u v`` lines / ``face<r> v1 ...`` lines,
            r in 2..d-1
edge list   optional ``vertices`` / ``edge u v`` lines
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import islice

from .graphs import Graph
from .lattice import KSkeleton, PolytopeSpec


#: The keys each format admits, and whether it requires both headers.
_FORMATS = {
    "incidence": ({"d", "vertices", "facet"}, True),
    "skeleton": ({"d", "vertices", "edge", "face<r>"}, True),
    "edge list": ({"vertices", "edge"}, False),
}

#: Fields a line must have, counting its key, for the keys that take fixed ones.
_MIN_FIELDS = {"d": 2, "vertices": 2, "edge": 3}


def _bad(what: str, parts: list[str]) -> ValueError:
    """The error of one line, named by its fields."""
    return ValueError(f"{what} in line: {' '.join(parts)}")


def _short_lines_first(read):
    """Report the first line with too few fields ahead of any other parse
    error, as if every line had been checked before any was read.  ``read``
    reads each line once, as it streams; the text is scanned for a short
    line only when ``read`` fails, which a short line always makes it do:
    reading its missing field raises IndexError, or its key is unexpected."""

    def checked(fmt: str, text: str):
        try:
            return read(fmt, text)
        except (ValueError, IndexError):
            for line in map(str.strip, text.splitlines()):
                parts = line.split()
                if parts and parts[0][0] != "#" and len(parts) < _MIN_FIELDS.get(parts[0], 1):
                    raise ValueError(f"too few fields in line: {line}") from None
            raise

    return checked


def _nth_line(text: str, is_key, k: int) -> list[str]:
    """The fields of the k-th line of ``text``, from 0, whose key passes
    ``is_key``.  :func:`_read` keeps no line's text, so it fetches the line
    to name only once it has found that the line does not fit."""
    keyed = (parts for parts in map(str.split, text.splitlines()) if parts and is_key(parts[0]))
    return next(islice(keyed, k, None))


@_short_lines_first
def _read(fmt: str, text: str):
    """Read ``text`` in format ``fmt`` line by line, keeping no line's text.
    Returns d, n (without a ``vertices`` line, the largest edge label + 1),
    the facets as vertex lists, the graph of the edges (None in a format
    without them) and the faces as {r: [sorted vertex tuple]}."""
    admits, headed = _FORMATS[fmt]
    headers: dict[str, int] = {}
    facets: list[list[int]] = []
    edges: list[tuple[int, int]] = []
    # Each face line is converted once, to its rank and the sorted tuple of
    # its distinct vertices (None when one is not an integer).  Faces are
    # checked after every line is read, as they need the headers, and so
    # every line's own errors come first.
    face_lines: list[tuple[int, tuple[int, ...] | None]] = []
    add_facet = "facet" in admits and facets.append
    add_edge = "edge" in admits and edges.append
    add_face = "face<r>" in admits and face_lines.append
    ranks: dict[str, int] = {}  # the rank of each distinct face<r> key, read once
    for parts in map(str.split, text.splitlines()):
        if not parts:
            continue
        key = parts[0]
        if key == "edge" and add_edge:
            try:
                add_edge((int(parts[1]), int(parts[2])))
            except ValueError:
                raise _bad("non-integer field", parts) from None
        elif add_face and key.startswith("face"):
            r = ranks.get(key)
            if r is None:
                try:
                    r = ranks[key] = int(key[4:])
                except ValueError:
                    raise _bad("non-integer field", parts) from None
            try:
                add_face((r, tuple(sorted(set(map(int, parts[1:]))))))
            except ValueError:
                add_face((r, None))
        elif key == "facet" and add_facet:
            try:
                add_facet(list(map(int, parts[1:])))
            except ValueError:
                raise _bad("non-integer field", parts) from None
        elif key in admits:  # a header: every admitted record key is above
            if key in headers:
                raise _bad("repeated header", parts)
            try:
                value = headers[key] = int(parts[1])
            except ValueError:
                raise _bad("non-integer field", parts) from None
            if value < 0 and key == "vertices":
                raise _bad("negative vertex count", parts)
        elif key[0] != "#":  # no key above starts with "#"
            raise ValueError(f"unexpected line: {' '.join(parts)}")
    if headed and len(headers) < 2:
        raise ValueError("missing d or vertices header")
    d, n = headers.get("d"), headers.get("vertices")
    if n is None:
        n = max((max(e) for e in edges), default=-1) + 1
    # The first face line that does not fit comes first, then the first
    # edge that Graph refuses, a loop or a vertex out of range.
    faces: dict[int, list[tuple[int, ...]]] = {}
    for r, vs in face_lines:
        if not (2 <= r < d and vs and vs[0] >= 0 and vs[-1] < n):
            why = (f"face rank outside 2..{d - 1}" if not 2 <= r < d
                   else "non-integer field" if vs is None
                   else "too few fields" if not vs
                   else f"vertex outside 0..{n - 1}")
            # An equal face line earlier would have failed first.
            i = face_lines.index((r, vs))
            raise _bad(why, _nth_line(text, lambda key: key.startswith("face"), i))
        faces.setdefault(r, []).append(vs)
    try:
        graph = Graph(n, edges) if add_edge else None
    except ValueError:
        i = next(i for i, (u, v) in enumerate(edges) if u == v or not (0 <= u < n and 0 <= v < n))
        u, v = edges[i]
        why = "loop" if u == v else f"vertex outside 0..{n - 1}"
        raise _bad(why, _nth_line(text, "edge".__eq__, i)) from None
    return d, n, facets, graph, faces


def _labels(n: int):
    """The text of each vertex label 0..n-1 by lookup: the writers render
    each label once per call, into this table of n strings, rather than
    once per incidence.  Every label written must lie in 0..n-1."""
    return list(map(str, range(n))).__getitem__


def _edge_lines(g: Graph, label) -> str:
    return "".join([f"edge {label(u)} {label(v)}\n" for u, v in g.edges])


def facet_lines(n: int, facets: Iterable[Iterable[int]]) -> str:
    """One ``facet v1 v2 ...`` line per facet over the vertices 0..n-1, in
    the order given, each label rendered once."""
    label = _labels(n)
    return "".join([f"facet {' '.join(map(label, f))}\n" for f in facets])


def format_facets(d: int, n: int, facets: Iterable[Iterable[int]]) -> str:
    """The incidence text of a facet list that is already canonical: sorted
    vertex tuples in lexicographic order, as :class:`PolytopeSpec` keeps
    them and ``recon2.reconstruct`` returns them.  Each label is rendered
    once, from a table of n strings."""
    return f"d {d}\nvertices {n}\n" + facet_lines(n, facets)


def format_spec(spec: PolytopeSpec) -> str:
    return format_facets(spec.d, spec.n, spec.facets)


def parse_spec(text: str) -> PolytopeSpec:
    d, n, facets, _, _ = _read("incidence", text)
    return PolytopeSpec(d, n, facets)


def format_skeleton(sk: KSkeleton, d: int) -> str:
    n = sk.graph.n
    label = _labels(n)
    parts = [f"d {d}\nvertices {n}\n", _edge_lines(sk.graph, label)]
    for r in sorted(sk.faces_by_dim):
        parts += [f"face{r} {' '.join(map(label, f))}\n" for f in sk.faces_by_dim[r]]
    return "".join(parts)


def parse_skeleton(text: str) -> tuple[KSkeleton, int]:
    """Parse a skeleton file; returns (skeleton, polytope dimension)."""
    d, _, _, graph, faces = _read("skeleton", text)
    faces_by_dim = {r: tuple(sorted(fs)) for r, fs in faces.items()}
    return KSkeleton(graph=graph, faces_by_dim=faces_by_dim), d


def format_edge_list(g: Graph) -> str:
    return f"vertices {g.n}\n" + _edge_lines(g, _labels(g.n))


def parse_edge_list(text: str) -> Graph:
    return _read("edge list", text)[3]
