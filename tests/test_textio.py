"""Properties of the three text formats: every value survives a round
trip through its writer and parser, and any soup of lines either parses
or raises ValueError, with the result or error text of the reference
parser in ``oracles.py``, which checks every line before reading any."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from skelrecon import Graph, KSkeleton, PolytopeSpec
from skelrecon.textio import (
    format_edge_list,
    format_facets,
    format_skeleton,
    format_spec,
    parse_edge_list,
    parse_skeleton,
    parse_spec,
)

from oracles import (
    per_incidence_format_edge_list,
    per_incidence_format_facets,
    per_incidence_format_skeleton,
    reference_parse,
)

PARSERS = {"spec": parse_spec, "skeleton": parse_skeleton, "edges": parse_edge_list}


@st.composite
def specs(draw):
    n = draw(st.integers(1, 9))
    sets = draw(st.lists(st.frozensets(st.integers(0, n - 1), min_size=1), min_size=1, max_size=8))
    # Keep the inclusion-maximal sets, each once: no facet may contain another.
    facets = {f for f in sets if not any(f < g for g in sets)}
    return PolytopeSpec(draw(st.integers(2, 7)), n, facets)


@st.composite
def graphs(draw, min_n=0):
    n = draw(st.integers(min_n, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, draw(st.lists(st.sampled_from(pairs), max_size=15)) if pairs else [])


@st.composite
def skeletons(draw):
    graph = draw(graphs(min_n=1))
    d = draw(st.integers(2, 6))
    faces_by_dim = {}
    for r in range(2, d):
        faces = draw(st.lists(st.frozensets(st.integers(0, graph.n - 1), min_size=1), max_size=4))
        if faces:
            faces_by_dim[r] = tuple(sorted(faces, key=sorted))
    return KSkeleton(k=max(faces_by_dim, default=1), graph=graph, faces_by_dim=faces_by_dim), d


def _shape(value):
    """A comparable form of a parse result; Graph compares by identity, and
    each face, whatever its type, becomes its sorted vertex tuple."""
    if isinstance(value, Graph):
        return "graph", value.n, value.edges
    if isinstance(value, tuple):
        sk, d = value
        faces = {r: tuple(tuple(sorted(f)) for f in fs) for r, fs in sk.faces_by_dim.items()}
        return "skeleton", d, sk.k, _shape(sk.graph), faces
    return value


@settings(max_examples=150, deadline=None)
@given(specs())
def test_spec_round_trip(spec):
    text = format_spec(spec)
    assert text == format_facets(spec.d, spec.n, spec.facets)
    assert parse_spec(text) == spec


@settings(max_examples=150, deadline=None)
@given(skeletons())
def test_skeleton_round_trip(pair):
    sk, d = pair
    assert _shape(parse_skeleton(format_skeleton(sk, d))) == _shape(pair)


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_edge_list_round_trip(g):
    assert _shape(parse_edge_list(format_edge_list(g))) == _shape(g)


@st.composite
def labelled_skeletons(draw):
    """A skeleton on up to 300 vertices, so labels have one to three
    digits, with up to 20 edges and a few faces of ranks 2..d-1, each
    a tuple of labels in any order."""
    n = draw(st.integers(1, 300))
    vertex = st.integers(0, n - 1)
    pairs = st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1])
    graph = Graph(n, draw(st.lists(pairs, max_size=20)))
    d = draw(st.integers(2, 6))
    faces = st.lists(st.lists(vertex, min_size=1, max_size=8).map(tuple), max_size=5)
    faces_by_dim = {r: tuple(draw(faces)) for r in range(2, d)}
    return KSkeleton(k=max(faces_by_dim, default=1), graph=graph, faces_by_dim=faces_by_dim), d


@settings(max_examples=150, deadline=None)
@given(labelled_skeletons())
def test_writers_give_the_bytes_of_the_per_incidence_writers(pair):
    """The writers render each label once per call, into a table; they
    write what one ``str`` call per incidence writes."""
    sk, d = pair
    n = sk.graph.n
    facets = sk.faces_by_dim.get(2, ())
    assert format_facets(d, n, facets) == per_incidence_format_facets(d, n, facets)
    assert format_skeleton(sk, d) == per_incidence_format_skeleton(sk, d)
    assert format_edge_list(sk.graph) == per_incidence_format_edge_list(sk.graph)


#: Each format's keys, common ones repeated, plus keys of other formats.
KEYS = {
    "spec": ["facet"] * 5 + ["d", "vertices", "edge", "face2"],
    "skeleton": ["edge"] * 3 + ["face2"] * 3 + ["face3", "face1", "faceX", "facet", "d",
                                                "vertices"],
    "edges": ["edge"] * 5 + ["vertices", "d", "facet", "face2"],
}
NUMBER = st.integers(-1, 5).map(str)
FIELD = st.one_of(*[NUMBER] * 20, st.sampled_from(["a", "#", "1_0"]))


def soups(fmt):
    """Texts of up to seven lines, most of them well formed, after an
    optional pair of headers."""
    line = st.one_of(
        *[st.builds(
            lambda indent, key, fields, gap: indent + gap.join([key, *fields]),
            st.sampled_from(["", " ", "\t"]),
            st.sampled_from(KEYS[fmt]),
            st.lists(FIELD, min_size=2, max_size=4),
            st.sampled_from([" ", " ", "  ", "\t", "\xa0"]),
        )] * 12,
        st.sampled_from(["", "# comment", "x 1", "face2", "edge 1"]),
    )
    # A vertical tab also ends a line.
    line = st.builds("\x0b".join, st.lists(line, min_size=1, max_size=2)) | line
    head = st.one_of(
        st.just(""),
        st.builds("d {} \nvertices {}\n".format, st.integers(2, 5), st.integers(0, 6)),
        st.builds("vertices {}\n".format, st.integers(0, 6)),
    )
    return st.builds(lambda h, lines: h + "\n".join(lines), head, st.lists(line, max_size=7))


def _outcome(parse, text):
    try:
        return _shape(parse(text))
    except ValueError as exc:
        return ValueError, str(exc)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(PARSERS)).flatmap(lambda fmt: st.tuples(st.just(fmt), soups(fmt))))
def test_line_soup_parses_or_raises_value_error(case):
    # Any other exception escapes _outcome and fails the test.
    fmt, text = case
    assert _outcome(PARSERS[fmt], text) == _outcome(lambda t: reference_parse(fmt, t), text)
