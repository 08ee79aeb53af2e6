"""Input checks that no other test reaches: each guard refuses a bad
argument with its own error type and text, or, for the one that
returns, gives the value its docstring names."""

from __future__ import annotations

import pytest

from skelrecon import (
    Graph,
    classify_vertices,
    cube,
    enumerate_acyclic_orientations,
    isomorphic,
    k_connected,
    min_two_face_score,
    simplex,
    validate,
)
from skelrecon.errors import DimensionTooSmall, EmptyFamily, KindMismatch
from skelrecon.recong import find_facets_avoiding, max_two_system

from conftest import lattice_of

CUBE3 = lattice_of(cube(3))


def _outcome(call):
    """The type and text of what ``call()`` raises, or else of what it returns."""
    try:
        result = call()
    except Exception as exc:
        return type(exc), str(exc)
    return type(result), str(result)


GUARDS = {
    "max_two_system_two_nonsimple": (
        lambda: max_two_system(CUBE3.graph(), 3, nonsimple=(0, 1)),
        ValueError, "max_two_system handles at most one nonsimple vertex",
    ),
    "find_facets_avoiding_mode": (
        lambda: find_facets_avoiding(CUBE3.graph(), 3, 0, 7, "both"),
        ValueError, "unknown mode 'both'",
    ),
    "enumeration_pins_a_vertex_twice": (
        lambda: next(enumerate_acyclic_orientations(CUBE3.graph(), first=(0,), last=(0,))),
        ValueError, "first/last vertices must be distinct",
    ),
    # A graph with no vertices is not connected.
    "k_connected_no_vertices": (lambda: k_connected(Graph(0, []), 1), bool, "False"),
    # Two adjacent sources: the edge between them gives one an in-arc.
    "two_face_score_adjacent_sources": (
        lambda: min_two_face_score(Graph(2, [(0, 1)]), (0, 1)),
        EmptyFamily, "no acyclic orientation satisfies the source constraints",
    ),
    "classify_bare_graph_without_d": (
        lambda: classify_vertices(CUBE3.graph()),
        ValueError, "d is required when classifying a bare graph",
    ),
    "report_unknown_check": (lambda: validate(CUBE3)["convexity"], KeyError, "'convexity'"),
    "isomorphic_other_type": (
        lambda: isomorphic(CUBE3.graph(), CUBE3),
        KindMismatch, "cannot compare objects of type Graph",
    ),
    "simplex_d1": (lambda: simplex(1), DimensionTooSmall, "simplex needs d >= 2"),
    "cube_d1": (lambda: cube(1), DimensionTooSmall, "cube needs d >= 2"),
}


@pytest.mark.parametrize("call, kind, text", GUARDS.values(), ids=GUARDS.keys())
def test_guard(call, kind, text):
    assert _outcome(call) == (kind, text)
