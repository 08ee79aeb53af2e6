import argparse
import ast
import os
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from skelrecon import (
    Graph,
    bipyramid,
    build_face_lattice,
    classify_vertices,
    cube,
    k_skeleton,
    multifold_pyramid,
    polygon_prism,
    pyramid,
    q1,
    simplex,
    truncate,
)
from skelrecon import cli, recong
from skelrecon.cli import main
from skelrecon.errors import RepairAmbiguous
from skelrecon.textio import (
    format_edge_list,
    format_skeleton,
    format_spec,
    parse_edge_list,
    parse_skeleton,
    parse_spec,
)

from conftest import K24_PLUS_MATCHING, K33_PLUS_EDGE, fixture_corpus, lattice_of

SRC = Path(__file__).resolve().parents[1] / "src"


# -- text formats -------------------------------------------------------------


def test_spec_round_trip_byte_identical():
    for spec in fixture_corpus().values():
        text = format_spec(spec)
        assert parse_spec(text) == spec
        assert format_spec(parse_spec(text)) == text
        assert text.endswith("\n") and "\r" not in text


def test_spec_parser_ignores_comments_and_blank_lines():
    text = "# fixture\nd 3\n\nvertices 4\nfacet 0 1 2\nfacet 0 1 3\nfacet 0 2 3\nfacet 1 2 3\n"
    assert parse_spec(text) == simplex(3)


def test_spec_parser_rejects_garbage():
    with pytest.raises(ValueError):
        parse_spec("d 3\nvertices 4\nfoo 1 2\n")
    with pytest.raises(ValueError):
        parse_spec("facet 0 1 2\n")


def test_skeleton_round_trip():
    lat = lattice_of(cube(3))
    sk = k_skeleton(lat, 2)
    text = format_skeleton(sk, 3)
    back, d = parse_skeleton(text)
    assert d == 3
    assert back.graph == sk.graph
    assert back.faces_by_dim == sk.faces_by_dim


def test_skeleton_faces_sort_by_their_vertex_sets():
    # A repeated vertex counts once: {5, 1} sorts after {1, 2, 3}, not
    # before it as the list 1 1 5 would.
    text = (
        "d 4\nvertices 6\nedge 0 1\n"
        "face2 5 1 1\nface2 3 2 1\nface3 4 0\nface2 0 5\nface2 1 2 3\n"
    )
    sk, d = parse_skeleton(text)
    assert d == 4
    assert sk.k == 3
    assert sk.faces_by_dim == {
        2: ((0, 5), (1, 2, 3), (1, 2, 3), (1, 5)),
        3: ((0, 4),),
    }


def test_edge_list_round_trip():
    g = lattice_of(cube(3)).graph()
    assert parse_edge_list(format_edge_list(g)) == g
    inferred = parse_edge_list("edge 0 2\nedge 1 2\n")
    assert inferred == Graph(3, [(0, 2), (1, 2)])


# -- CLI ----------------------------------------------------------------------


def run_cli(*argv):
    return main(list(argv))


def test_gen_writes_q1_fixture(tmp_path, capsys):
    out = tmp_path / "q1.poly"
    assert run_cli("gen", "--family", "q1", "--dim", "4", "-o", str(out)) == 0
    assert parse_spec(out.read_text()) == q1(4).spec


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli("gen", "--family", "cube", "--dim", "3", "-o", str(a))
    run_cli("gen", "--family", "cube", "--dim", "3", "-o", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_lattice_report(tmp_path, capsys):
    path = tmp_path / "s.poly"
    run_cli("gen", "--family", "simplex", "--dim", "4", "-o", str(path))
    assert run_cli("lattice", str(path)) == 0
    out = capsys.readouterr().out
    assert "5 10 10 5" in out
    assert "PASS  euler" in out


# A tetrahedron with LF and with CRLF line endings, each with the first 16
# hex digits of sha256sum's digest of its file: the CRLF copy parses as the
# LF original does, but its bytes differ.
TETRAHEDRON = "d 3\nvertices 4\nfacet 0 1 2\nfacet 0 1 3\nfacet 0 2 3\nfacet 1 2 3\n"
TETRAHEDRON_FILES = (
    ("lf.poly", "093bc4d9ffa5b438", "\n"),
    ("crlf.poly", "dd9792c5abfa3260", "\r\n"),
)


def test_lattice_digest_is_of_the_file_bytes(tmp_path, capsys):
    reports = {}
    for name, digest, newline in TETRAHEDRON_FILES:
        path = tmp_path / name
        path.write_bytes(TETRAHEDRON.replace("\n", newline).encode())
        assert run_cli("lattice", str(path)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == f"# input {path} sha256/16 {digest}"
        reports[name] = lines[2:]
    assert reports["crlf.poly"] == reports["lf.poly"]


def test_a_repeated_lattice_call_searches_for_no_module(tmp_path, monkeypatch):
    # A failed import is not cached in sys.modules: trying a SHA-256 module
    # this interpreter lacks would search sys.path on every call.
    path = tmp_path / "s.poly"
    path.write_text(format_spec(simplex(3)))
    assert run_cli("lattice", str(path)) == 0
    searched = []

    class Recorder:
        @staticmethod
        def find_spec(name, path=None, target=None):
            searched.append(name)

    monkeypatch.setattr(sys, "meta_path", [Recorder, *sys.meta_path])
    assert run_cli("lattice", str(path)) == 0
    assert searched == []


def test_skeleton_then_recon2_round_trip(tmp_path, capsys):
    poly = tmp_path / "pc.poly"
    skel = tmp_path / "pc.skel"
    run_cli("gen", "--family", "cube", "--dim", "3", "--pyramid", "1", "-o", str(poly))
    run_cli("skeleton", str(poly), "--rank", "2", "-o", str(skel))
    back = tmp_path / "back.poly"
    assert run_cli("recon2", str(skel), "-o", str(back)) == 0
    assert parse_spec(back.read_text()) == parse_spec(poly.read_text())


def test_recon2_ambiguous_exit_code(tmp_path, capsys):
    poly = tmp_path / "q1_5.poly"
    skel = tmp_path / "q1_5.skel"
    run_cli("gen", "--family", "q1", "--dim", "5", "-o", str(poly))
    run_cli("skeleton", str(poly), "--rank", "2", "-o", str(skel))
    assert run_cli("recon2", str(skel)) == 1
    out = capsys.readouterr().out
    assert "ambiguous" in out
    assert run_cli("recon2", str(skel), "--parity", "even", "-o", str(tmp_path / "r.poly")) == 0
    assert parse_spec((tmp_path / "r.poly").read_text()) == q1(5).spec


def _gen_skeleton(tmp_path, name, *gen_args):
    """gen with ``gen_args``, then its 2-skeleton: the two paths."""
    poly, skel = tmp_path / f"{name}.poly", tmp_path / f"{name}.skel"
    assert run_cli("gen", *gen_args, "-o", str(poly)) == 0
    assert run_cli("skeleton", str(poly), "--rank", "2", "-o", str(skel)) == 0
    return poly, skel


def test_recon2_gives_back_the_triangular_bipyramid(tmp_path):
    """d = 3: each facet holds two nonsimple vertices, more than d-2, yet
    the 2-faces listed are the facets, so recon2 answers."""
    poly, skel = _gen_skeleton(tmp_path, "bp", "--family", "bipyramid-simplex", "--dim", "3")
    back = tmp_path / "bp.back"
    assert run_cli("recon2", str(skel), "-o", str(back)) == 0
    assert back.read_bytes() == poly.read_bytes()


def test_recon2_gives_back_the_split_cube_and_the_octahedra(tmp_path):
    """d = 3: the split cube, the octahedron and the octahedron truncated
    at a vertex come back as their incidence files whatever --parity
    says.  The facets are the listed 2-faces, so neither the d = 4 pair
    search nor a 2-face with no simple vertex comes into it."""
    octahedron = build_face_lattice(bipyramid(cube(2)))
    specs = {"split": fixture_corpus()["split_cube"], "octa": bipyramid(cube(2)),
             "trunc": truncate(octahedron, (0,))[0]}
    for name, spec in specs.items():
        poly, skel, back = (tmp_path / f"{name}.{ext}" for ext in ("poly", "skel", "back"))
        poly.write_text(format_spec(spec))
        skel.write_text(format_skeleton(k_skeleton(build_face_lattice(spec), 2), 3))
        for parity in ((), ("--parity", "even"), ("--parity", "odd")):
            assert run_cli("recon2", str(skel), *parity, "-o", str(back)) == 0
            assert back.read_bytes() == poly.read_bytes()


@pytest.mark.parametrize("dim", [3, 4, 5, 6])
def test_recon2_refuses_a_pyramid_over_a_bipyramid(tmp_path, capsys, dim):
    """pyramid(bipyramid(simplex(d-2))), d = dim + 1: every facet holds d-1
    nonsimple vertices, where the 2-skeleton no longer fixes the facets,
    so recon2 exits 1 and names a facet with its count."""
    poly, skel = _gen_skeleton(
        tmp_path, "pbp", "--family", "bipyramid-simplex", "--dim", str(dim), "--pyramid", "1"
    )
    back = tmp_path / "pbp.back"
    assert run_cli("recon2", str(skel), "-o", str(back)) == 1
    assert not back.exists()
    d = dim + 1
    err = capsys.readouterr().err
    found = re.fullmatch(r"error: facet \(([\d, ]+)\) holds (\d+) nonsimple vertices, "
                         r"more than d-2 = (\d+)\n", err)
    assert found, err
    facet = tuple(map(int, found[1].split(", ")))
    lat = build_face_lattice(parse_spec(poly.read_text()))
    nonsimple = classify_vertices(lat).nonsimple
    assert int(found[2]) == len(nonsimple.intersection(facet)) == d - 1
    assert int(found[3]) == d - 2


def test_recon2_on_a_dense_skeleton_without_faces(tmp_path, capsys):
    """The edges of K_200 as a 199-dimensional 2-skeleton with no 2-face:
    every vertex is simple, with 199 * 198 / 2 frames to cover, and the run
    ends quickly in the typed error for the first uncovered frame."""
    n = 200
    lines = [f"d {n - 1}", f"vertices {n}"]
    lines += [f"edge {u} {v}" for u in range(n) for v in range(u + 1, n)]
    skel = tmp_path / "k200.skel"
    skel.write_text("\n".join(lines) + "\n")
    start = time.perf_counter()
    assert run_cli("recon2", str(skel)) == 1
    assert time.perf_counter() - start < 2.0
    assert capsys.readouterr().err == "error: 2-frame (0, 1, 2) lies in no 2-face\n"


def test_recong_both_methods(tmp_path, capsys):
    edges = tmp_path / "g.edges"
    lat = lattice_of(fixture_corpus()["twofold_square"])
    edges.write_text(format_edge_list(lat.graph()))
    out = tmp_path / "out.poly"
    rc = run_cli(
        "recong", str(edges), "--dim", "4", "--method", "both",
        "--certificate", "-o", str(out),
    )
    assert rc == 0
    assert parse_spec(out.read_text()).facets == lat.facets
    banner = capsys.readouterr().out
    assert "family counts" in banner


def test_recong_both_methods_on_the_pentagonal_twofold_pyramid(tmp_path, capsys):
    # 12 vertices; the truncation route cuts the edge between the apexes
    # and reconstructs a simple polytope on 30 vertices.
    edges = tmp_path / "g.edges"
    lat = lattice_of(multifold_pyramid(polygon_prism(5), 2))
    edges.write_text(format_edge_list(lat.graph()))
    out = tmp_path / "out.poly"
    rc = run_cli(
        "recong", str(edges), "--dim", "5", "--method", "both",
        "--certificate", "-o", str(out),
    )
    assert rc == 0
    assert parse_spec(out.read_text()).facets == lat.facets
    both = capsys.readouterr().out.splitlines()
    assert run_cli("recong", str(edges), "--dim", "5", "--method", "claims", "--certificate") == 0
    claims = [line for line in capsys.readouterr().out.splitlines() if line.startswith("# ")]
    assert both == claims
    assert claims[0] == "# family counts u/v/neither/both: 1 1 0 7"


def test_recong_truncation_on_the_square_prism_twofold_pyramid(tmp_path):
    # 10 vertices; the truncated graph has 24, above the DP bound.
    edges = tmp_path / "g.edges"
    lat = lattice_of(multifold_pyramid(polygon_prism(4), 2))
    edges.write_text(format_edge_list(lat.graph()))
    out = tmp_path / "out.poly"
    assert run_cli("recong", str(edges), "--dim", "5", "--method", "truncation", "-o", str(out)) == 0
    assert parse_spec(out.read_text()).facets == lat.facets


def test_recong_one_nonsimple(tmp_path):
    edges = tmp_path / "g.edges"
    lat = lattice_of(pyramid(cube(3)))
    edges.write_text(format_edge_list(lat.graph()))
    out = tmp_path / "out.poly"
    assert run_cli("recong", str(edges), "--dim", "4", "-o", str(out)) == 0
    assert parse_spec(out.read_text()).facets == lat.facets


@pytest.mark.parametrize("method", [(), ("--method", "both"), ("--method", "claims")])
def test_recong_claims_at_d3_is_a_typed_error(tmp_path, capsys, method):
    # The skew solid is a 3-polytope with two nonsimple vertices; the input
    # parses, so the family sweeps' d >= 4 requirement exits 1, not 2.
    edges = tmp_path / "g.edges"
    lat = lattice_of(fixture_corpus()["skew_solid"])
    edges.write_text(format_edge_list(lat.graph()))
    assert run_cli("recong", str(edges), "--dim", "3", *method) == 1
    err = capsys.readouterr().err
    assert err == "error: the family sweeps need d >= 4; use the truncation route\n"
    out = tmp_path / "out.poly"
    assert run_cli("recong", str(edges), "--dim", "3", "--method", "truncation", "-o", str(out)) == 0
    assert parse_spec(out.read_text()).facets == lat.facets


def test_recong_truncation_refuses_many_nonsimple_vertices_after_the_cut(tmp_path, capsys):
    # The input is well formed, so the refusal is a typed error (exit 1)
    # that names the truncated graph, not a malformed-input error (exit 2).
    edges = tmp_path / "g.edges"
    edges.write_text(format_edge_list(K33_PLUS_EDGE))
    assert run_cli("recong", str(edges), "--dim", "3", "--method", "truncation") == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: the truncated graph has 6 nonsimple vertices, not at most 1\n"
    assert "Traceback" not in err


def test_recong_truncation_refuses_an_ambiguous_repair(tmp_path, capsys):
    edges = tmp_path / "g.edges"
    edges.write_text(format_edge_list(K24_PLUS_MATCHING))
    assert run_cli("recong", str(edges), "--dim", "3", "--method", "truncation") == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: 4 vertices of degree d-1 after truncation\n"
    with pytest.raises(RepairAmbiguous):
        recong.reconstruct(K24_PLUS_MATCHING, 3, "truncation")


@pytest.mark.parametrize(
    "n, pairs, argv, text",
    [
        pytest.param(
            8, "0-2 0-3 0-4 0-7 1-2 1-4 1-5 1-6 2-3 2-7 3-6 3-7 4-5 4-6 5-6 5-7 6-7",
            ("--dim", "4"), "error: the facets found have no edge (6, 7), which the graph has",
            id="eight",
        ),
        pytest.param(
            11, "0-3 0-6 0-7 0-8 1-2 1-5 1-6 1-8 1-10 2-4 2-9 3-6 3-7 4-5 4-9 5-9 7-10 8-10",
            ("--dim", "3", "--method", "truncation"),
            "error: the 2-faces through vertex 0 close into more than one cycle around it",
            id="eleven",
        ),
    ],
)
def test_recong_refusals_the_ci_pins(tmp_path, capsys, n, pairs, argv, text):
    """The two graphs the CI step "The installed skelrecon script, and the
    two-nonsimple bound" writes with its edge_list helper exit 1 with the
    texts it pins.  The eight-vertex graph has two nonsimple vertices, and
    the facets found lack one of its edges.  The eleven-vertex graph is
    only 1-connected: vertex 1 cuts 0, 3, 6, 7, 8 and 10 from 2, 4, 5 and
    9, so no 3-polytope has it.  The truncation route hands its 2-system
    to recon2's d = 3 rules, and the link rule refuses it at vertex 0."""
    edges = tmp_path / "g.edges"
    lines = [f"vertices {n}"] + [f"edge {p.replace('-', ' ')}" for p in pairs.split()]
    edges.write_text("\n".join(lines) + "\n")
    assert run_cli("recong", str(edges), *argv) == 1
    assert capsys.readouterr() == ("", text + "\n")


def test_recong_reports_disagreeing_methods(tmp_path, capsys, monkeypatch):
    pullback = recong.pullback_facets
    monkeypatch.setattr(recong, "pullback_facets", lambda *args: pullback(*args)[1:])
    edges = tmp_path / "g.edges"
    edges.write_text(format_edge_list(lattice_of(fixture_corpus()["twofold_square"]).graph()))
    rc = run_cli("recong", str(edges), "--dim", "4", "--method", "both", "--certificate")
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "methods disagree" in err


def _count_sweeps(monkeypatch) -> Counter:
    """Count find_facets_avoiding calls by mode and max_two_system calls."""
    calls = Counter()
    sweep, two_system = recong.find_facets_avoiding, recong.max_two_system

    def counted_sweep(*args, **kwargs):
        calls[args[4] if len(args) > 4 else kwargs["mode"]] += 1
        return sweep(*args, **kwargs)

    def counted_two_system(*args, **kwargs):
        calls["max_two_system"] += 1
        return two_system(*args, **kwargs)

    monkeypatch.setattr(recong, "find_facets_avoiding", counted_sweep)
    monkeypatch.setattr(recong, "max_two_system", counted_two_system)
    return calls


@pytest.mark.parametrize("name,d", [("twofold_square", 4), ("twofold_triprism", 5)])
def test_recong_both_methods_share_the_one_vertex_sweeps(tmp_path, monkeypatch, name, d):
    edges = tmp_path / "g.edges"
    edges.write_text(format_edge_list(lattice_of(fixture_corpus()[name]).graph()))
    calls = _count_sweeps(monkeypatch)
    assert run_cli("recong", str(edges), "--dim", str(d), "--method", "both") == 0
    assert calls["u_minus_v"] == calls["v_minus_u"] == 1


@pytest.mark.parametrize("name,d", [("cube3", 3), ("pyr_cube3", 4), ("pyr_prism4", 4)])
def test_recong_one_nonsimple_computes_the_two_system_once(tmp_path, monkeypatch, name, d):
    edges = tmp_path / "g.edges"
    edges.write_text(format_edge_list(lattice_of(fixture_corpus()[name]).graph()))
    calls = _count_sweeps(monkeypatch)
    for method in ("claims", "truncation", "both"):
        calls.clear()
        assert run_cli("recong", str(edges), "--dim", str(d), "--method", method) == 0
        assert calls == {"max_two_system": 1}


def test_verify_runs_each_family_sweep_at_most_once(monkeypatch, capsys):
    calls = _count_sweeps(monkeypatch)
    assert run_cli("verify", "--dims", "4") == 0
    assert calls["u_minus_v"] == calls["v_minus_u"] == 1
    assert calls["uv"] <= 1


def test_cli_reads_no_private_name_of_a_skelrecon_module():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    package = [node for node in imports if node.level == 1]
    modules = {a.asname or a.name for node in package if node.module is None for a in node.names}
    assert {"cons", "recon2", "recong", "textio"} <= modules
    private = [a.name for node in package for a in node.names if a.name.startswith("_")]
    private += [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
        and node.attr.startswith("_")
    ]
    assert private == []


def test_iso_exit_codes(tmp_path, capsys):
    a, b = tmp_path / "a.poly", tmp_path / "b.poly"
    run_cli("gen", "--family", "q1", "--dim", "4", "-o", str(a))
    run_cli("gen", "--family", "q2", "--dim", "4", "-o", str(b))
    assert run_cli("iso", str(a), str(b), "--rank", "1") == 0
    assert "witness" in capsys.readouterr().out
    assert run_cli("iso", str(a), str(b), "--rank", "lattice") == 1
    assert "obstruction" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [("lattice",), ("skeleton", "--rank", "1")])
def test_rank_one_face_that_is_not_an_edge(tmp_path, capsys, argv):
    # Three triangles in a ring, declared 2-dimensional: the lattice is
    # graded with f-vector 3 3, but its rank-1 faces are the triangles.
    ring = tmp_path / "ring.poly"
    ring.write_text("d 2\nvertices 6\nfacet 0 1 2\nfacet 2 3 4\nfacet 4 5 0\n")
    assert build_face_lattice(parse_spec(ring.read_text())).f_vector == (3, 3)
    command, *options = argv
    assert run_cli(command, str(ring), *options) == 1
    out, err = capsys.readouterr()
    assert err == "error: rank-1 face (0, 1, 2) has 3 vertices, so it is not an edge\n"
    assert out == ""


def test_iso_lattice_names_a_rank_one_face_that_is_not_an_edge(tmp_path, capsys):
    # The ring against itself matches by the identity and never reads its
    # edges; against a relabeled copy the profiles need them.
    ring, other = tmp_path / "ring.poly", tmp_path / "other.poly"
    ring.write_text("d 2\nvertices 6\nfacet 0 1 2\nfacet 2 3 4\nfacet 4 5 0\n")
    other.write_text("d 2\nvertices 6\nfacet 0 1 2\nfacet 2 3 4\nfacet 4 5 1\n")
    assert run_cli("iso", str(ring), str(ring), "--rank", "lattice") == 0
    assert capsys.readouterr().out == "isomorphic\nwitness 0 1 2 3 4 5\n"
    assert run_cli("iso", str(ring), str(other), "--rank", "lattice") == 1
    out, err = capsys.readouterr()
    assert err == "error: rank-1 face (0, 1, 2) has 3 vertices, so it is not an edge\n"
    assert out == ""


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.poly"
    bad.write_text("nonsense\n")
    assert run_cli("lattice", str(bad)) == 2
    assert run_cli("lattice", str(tmp_path / "missing.poly")) == 2
    # Lines that parse, with values the incidence refuses.
    for text, message in (
        ("d 1\nvertices 3\nfacet 0 1\n", "dimension must be at least 2"),
        ("d 3\nvertices 4\nfacet\nfacet 0 1 2\n", "empty facet"),
    ):
        bad.write_text(text)
        capsys.readouterr()
        assert run_cli("lattice", str(bad)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "command, text, line",
    [
        ("lattice", "d\nvertices 4\nfacet 0 1 2\n", "d"),
        ("lattice", "d 3\nvertices\nfacet 0 1 2\n", "vertices"),
        ("recon2", "d 3\nvertices 4\nedge 0\n", "edge 0"),
        ("recong", "vertices 4\nedge 0\n", "edge 0"),
        ("recon2", "d 3\nvertices 4\nedge 0 1\nface2\n", "face2"),
        ("recon2", "d 3\nvertices 4\nedge 0 1\nface2 0 1 99\n", "face2 0 1 99"),
        ("recon2", "d 3\nvertices 4\nedge 0 1\nface2 0 1 -3\n", "face2 0 1 -3"),
        ("lattice", "d 3\nvertices 4\nd 4\nfacet 0 1 2\n", "d 4"),
        ("recon2", "d 3\nvertices 4\nvertices 5\nedge 0 1\n", "vertices 5"),
        ("recong", "vertices 4\nedge 0 1\nvertices 5\n", "vertices 5"),
        ("recon2", "d 3\nvertices 4\nedge 0 1\nface7 0 1\n", "face7 0 1"),
        ("recon2", "d 3\nvertices 4\nedge 0 1\nface1 0 1\n", "face1 0 1"),
        ("recon2", "d 3\nvertices 4\nedge 0 1\nface-1 0 1\n", "face-1 0 1"),
        ("recon2", "d 3\nvertices 4\nedge 0 1\nfaceX 0 1\n", "faceX 0 1"),
        ("recon2", "d 3\nvertices 4\nedge 0 1\nface2 0 a\n", "face2 0 a"),
        ("lattice", "d 3\nvertices 4\nfacet 0 1 b\n", "facet 0 1 b"),
        ("recong", "vertices 4\nedge 0 x\n", "edge 0 x"),
        ("lattice", "d three\nvertices 4\nfacet 0 1 2\n", "d three"),
        ("recon2", "d 3\nvertices 3\nedge 0 5\n", "edge 0 5"),
        ("recong", "vertices 3\nedge 0 5\n", "edge 0 5"),
        ("recon2", "d 3\nvertices 3\nedge 0 -1\n", "edge 0 -1"),
        ("recong", "edge -1 0\n", "edge -1 0"),
        ("recon2", "d 3\nvertices 3\nedge 1 1\n", "edge 1 1"),
        ("recong", "vertices 3\nedge 1 1\n", "edge 1 1"),
        ("recon2", "d 3\nvertices -2\nedge 0 1\n", "vertices -2"),
        ("recong", "vertices -2\nedge 0 1\n", "vertices -2"),
        ("lattice", "d 3\nvertices -2\nfacet 0 1 2\n", "vertices -2"),
    ],
)
def test_short_line_exit_code(tmp_path, capsys, command, text, line):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    extra = ("--dim", "3") if command == "recong" else ()
    assert run_cli(command, str(bad), *extra) == 2
    assert f"line: {line}\n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, option",
    [
        (("iso", "{poly}", "{poly}", "--rank", "x"), "--rank"),
        (("verify", "--dims", "x"), "--dims"),
        (("verify", "--dims", "5..4"), "--dims"),
        (("verify", "--dims", "3"), "--dims"),
        (("recong", "{edges}", "--dim", "0"), "--dim"),
        (("recong", "{edges}", "--dim", "1"), "--dim"),
        (("recong", "{edges}", "--dim", "2"), "--dim"),
        (("gen", "--family", "cube", "--dim", "0"), "--dim"),
        (("gen", "--family", "q1", "--dim", "2"), "--dim"),
        (("gen", "--family", "prism", "--m", "2"), "--m"),
        (("gen", "--family", "simplex", "--dim", "2", "--pyramid", "-1"), "--pyramid"),
        (("skeleton", "{poly}", "--rank", "x"), "--rank"),
        (("skeleton", "{poly}", "--rank", "0"), "--rank"),
        (("iso", "{poly}", "{poly}", "--rank", "0"), "--rank"),
        (("bench",), "cmd"),
    ],
    ids=["iso-rank", "verify-dims", "verify-empty-range", "verify-dims-below-4",
         "recong-dim-0", "recong-dim-1", "recong-dim-2",
         "gen-cube-dim-0", "gen-q1-dim-2", "gen-prism-m-2", "gen-pyramid-negative",
         "skeleton-rank-x", "skeleton-rank-0", "iso-rank-0", "unknown-subcommand"],
)
def test_bad_option_value_exit_code(tmp_path, capsys, argv, option):
    poly = tmp_path / "simplex.poly"
    poly.write_text(format_spec(simplex(3)))
    edges = tmp_path / "square.edges"
    edges.write_text(format_edge_list(Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])))
    files = {"{poly}": str(poly), "{edges}": str(edges)}
    argv = [files.get(a, a) for a in argv]
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert f"argument {option}: " in err
    assert "OK" not in out


def test_rank_options_share_one_message(tmp_path, capsys):
    poly = tmp_path / "simplex.poly"
    poly.write_text(format_spec(simplex(3)))
    for argv in (("skeleton", str(poly)), ("iso", str(poly), str(poly))):
        with pytest.raises(SystemExit):
            run_cli(*argv, "--rank", "x")
        assert "argument --rank: not an integer: 'x'" in capsys.readouterr().err


def test_gen_size_guard(tmp_path, capsys):
    out = tmp_path / "big.poly"
    assert run_cli("gen", "--family", "cube", "--dim", "30", "-o", str(out)) == 1
    assert run_cli("gen", "--family", "prism", "--m", "32768", "--pyramid", "1") == 1
    err = capsys.readouterr().err
    assert "1073741824 vertices, above the cap of 65536" in err
    assert "65537 vertices, above the cap of 65536" in err
    assert not out.exists()


def test_verify_small_range(capsys):
    assert run_cli("verify", "--dims", "4,4") == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.strip().endswith("OK")


def test_verify_counts_a_failed_check(monkeypatch, capsys):
    monkeypatch.setattr(cli, "validate", lambda lattice: SimpleNamespace(ok=False))
    assert run_cli("verify", "--dims", "4") == 1
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if not line.startswith("PASS")] == [
        "FAIL  truncation round trip at a cube vertex",
        "1 FAILURES",
    ]


def test_parser_is_built_at_most_once_per_process(monkeypatch, capsys):
    # Each build adds the subcommands once; parsing never does.
    builds = []
    add_subparsers = argparse.ArgumentParser.add_subparsers

    def spy(self, **kwargs):
        builds.append(self.prog)
        return add_subparsers(self, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", spy)
    cli.build_parser.cache_clear()
    try:
        for _ in range(3):
            assert run_cli("gen", "--family", "simplex", "--dim", "3") == 0
        with pytest.raises(SystemExit):
            run_cli("gen", "--family", "nope")
        assert run_cli("verify", "--dims", "4,4") == 0
    finally:
        cli.build_parser.cache_clear()
    assert builds == ["skelrecon"]


def _outcomes(calls, capsys):
    """Exit code, stdout and stderr of each call, in one process."""
    outcomes = []
    for argv in calls:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        outcomes.append((code, out, err))
    return outcomes


def test_reused_parser_matches_a_fresh_parser_per_call(tmp_path, monkeypatch, capsys):
    edges = tmp_path / "g.edges"
    edges.write_text(format_edge_list(lattice_of(pyramid(cube(3))).graph()))
    calls = [
        ("recong", str(edges), "--dim", "4", "--certificate"),
        ("recong", str(edges), "--dim", "4"),
        ("gen", "--family", "simplex", "--dim", "3", "--pyramid", "2"),
        ("gen", "--family", "simplex", "--dim", "3"),
        ("skeleton", str(edges), "--rank", "x"),
        ("gen", "--family", "cube", "--dim", "3"),
        ("verify",),
        ("verify",),
    ]
    reused = _outcomes(calls, capsys)
    assert [code for code, _, _ in reused] == [0, 0, 0, 0, 2, 0, 0, 0]
    assert reused[0][1].startswith("# two-system size ")
    assert not reused[1][1].startswith("#")
    assert reused[6] == reused[7]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert _outcomes(calls, capsys) == reused


# Run by a fresh interpreter (pytest's own process may hold hashlib
# already), in the directory argv[1]: every subcommand but lattice, then
# lattice.  It writes the exit codes and, after each of the two stages,
# which of hashlib, _hashlib, CPython's built-in SHA-256 modules (_sha2
# from 3.12, _sha256 before), statistics, dataclasses, typing and inspect
# are loaded.
_IMPORTS_SCRIPT = r"""
import os
import sys
from skelrecon.cli import main

os.chdir(sys.argv[1])
codes, loaded = [], {}


def run(*argv):
    codes.append(main(list(argv)))


def edges(name):
    run("skeleton", f"{name}.poly", "--rank", "1", "-o", f"{name}.skel1")
    with open(f"{name}.skel1") as fh:
        lines = [line for line in fh if not line.startswith("d ")]
    with open(f"{name}.edges", "w") as fh:
        fh.writelines(lines)
    return f"{name}.edges"


WATCHED = ("hashlib", "_hashlib", "_sha2", "_sha256", "statistics", "dataclasses", "typing", "inspect")


def stage(name):
    loaded[name] = [m for m in WATCHED if m in sys.modules]


run("gen", "--family", "cube", "--dim", "3", "--pyramid", "1", "-o", "pc.poly")
run("skeleton", "pc.poly", "--rank", "2", "-o", "pc.skel")
run("recon2", "pc.skel", "-o", "pc.back")
run("gen", "--family", "q1", "--dim", "5", "-o", "q1.poly")
run("skeleton", "q1.poly", "--rank", "2", "-o", "q1.skel")
run("recon2", "q1.skel")
run("recong", edges("pc"), "--dim", "4", "--certificate", "-o", "pc.g")
run("gen", "--family", "cube", "--dim", "2", "--pyramid", "2", "-o", "sq.poly")
run("recong", edges("sq"), "--dim", "4", "-o", "sq.g")
run("iso", "pc.poly", "pc.back", "--rank", "lattice")
run("verify", "--dims", "4..4")
with open("bad.skel", "w") as fh:
    fh.write("nonsense\n")
run("recon2", "bad.skel")
stage("others")
run("lattice", "pc.poly")
stage("lattice")
with open("result", "w") as fh:
    fh.write(repr((codes, loaded)))
"""


def test_no_subcommand_loads_openssl_or_statistics(tmp_path):
    # -S: no site-packages .pth file imports anything first.
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _IMPORTS_SCRIPT, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    codes, loaded = ast.literal_eval((tmp_path / "result").read_text())
    # recon2 on q1(5) is ambiguous; the last recon2 reads a bad file.
    assert codes == [0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0]
    assert proc.stderr.splitlines() == ["error: unexpected line: nonsense"]
    assert loaded["others"] == []
    # lattice's digest comes from a built-in module, never from hashlib.
    assert not {"hashlib", "_hashlib", "statistics"} & {*loaded["lattice"]}
    assert {"_sha2", "_sha256"} & {*loaded["lattice"]}
    # Nor does lattice load dataclasses, typing or inspect.
    assert not {"dataclasses", "typing", "inspect"} & {*loaded["lattice"]}


# Run by a fresh interpreter in the directory argv[1], with CPython's
# built-in SHA-256 modules blocked, as on an interpreter built without
# them: lattice on each file named after it, then whether hashlib loaded.
_FALLBACK_SCRIPT = r"""
import os
import sys

sys.modules["_sha2"] = sys.modules["_sha256"] = None
from skelrecon.cli import main

os.chdir(sys.argv[1])
codes = [main(["lattice", name]) for name in sys.argv[2:]]
print(codes, "hashlib" in sys.modules)
"""


def test_lattice_digest_falls_back_to_hashlib(tmp_path):
    for name, _, newline in TETRAHEDRON_FILES:
        (tmp_path / name).write_bytes(TETRAHEDRON.replace("\n", newline).encode())
    names = [name for name, _, _ in TETRAHEDRON_FILES]
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _FALLBACK_SCRIPT, str(tmp_path), *names],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line for line in lines if line.startswith("# input ")] == [
        f"# input {name} sha256/16 {digest}" for name, digest, _ in TETRAHEDRON_FILES
    ]
    assert lines[-1] == "[0, 0] True"


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "skelrecon.cli", "gen", "--family", "simplex", "--dim", "3"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert parse_spec(proc.stdout) == simplex(3)


def test_python_dash_m_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "skelrecon", "gen", "--family", "simplex", "--dim", "3"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert parse_spec(proc.stdout) == simplex(3)
