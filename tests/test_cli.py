import argparse
import ast
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from skelrecon import (
    Graph,
    build_face_lattice,
    cube,
    k_skeleton,
    multifold_pyramid,
    polygon_prism,
    pyramid,
    q1,
    simplex,
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


def test_lattice_digest_is_of_the_file_bytes(tmp_path, capsys):
    # The first 16 hex digits of sha256sum's digest of each file: the
    # CRLF copy parses as the LF original does, but its bytes differ.
    text = "d 3\nvertices 4\nfacet 0 1 2\nfacet 0 1 3\nfacet 0 2 3\nfacet 1 2 3\n"
    reports = {}
    for name, digest, newline in (
        ("lf.poly", "093bc4d9ffa5b438", "\n"),
        ("crlf.poly", "dd9792c5abfa3260", "\r\n"),
    ):
        path = tmp_path / name
        path.write_bytes(text.replace("\n", newline).encode())
        assert run_cli("lattice", str(path)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == f"# input {path} sha256/16 {digest}"
        reports[name] = lines[2:]
    assert reports["crlf.poly"] == reports["lf.poly"]


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
        (("bench", "--sizes", "64,x"), "--sizes"),
        (("bench", "--repeats", "0"), "--repeats"),
        (("verify", "--dims", "3"), "--dims"),
        (("bench", "--sizes", "2", "--repeats", "1"), "--sizes"),
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
    ],
    ids=["iso-rank", "verify-dims", "verify-empty-range", "bench-sizes", "bench-repeats",
         "verify-dims-below-4", "bench-sizes-below-3",
         "recong-dim-0", "recong-dim-1", "recong-dim-2",
         "gen-cube-dim-0", "gen-q1-dim-2", "gen-prism-m-2", "gen-pyramid-negative",
         "skeleton-rank-x", "skeleton-rank-0", "iso-rank-0"],
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


def test_bench_reports_csv_and_slope(capsys):
    assert run_cli("bench", "--sizes", "64,128", "--repeats", "2") == 0
    out = capsys.readouterr().out
    assert out.startswith("m,median_seconds")
    assert "# log-log slope estimate" in out


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
# already), in the directory argv[1]: every subcommand but lattice and
# bench, then bench, then lattice.  It writes the exit codes and, after
# each of the three stages, which of hashlib, _hashlib and statistics
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


def stage(name):
    loaded[name] = [m for m in ("hashlib", "_hashlib", "statistics") if m in sys.modules]


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
run("bench", "--sizes", "64,128", "--repeats", "1")
stage("bench")
run("lattice", "pc.poly")
stage("lattice")
with open("result", "w") as fh:
    fh.write(repr((codes, loaded)))
"""


def test_only_lattice_loads_hashlib_and_only_bench_statistics(tmp_path):
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
    assert codes == [0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0]
    assert proc.stderr.splitlines() == ["error: unexpected line: nonsense"]
    assert loaded["others"] == []
    assert "statistics" in loaded["bench"]
    assert "hashlib" in loaded["lattice"]


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
