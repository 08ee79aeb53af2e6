"""The CLI calls that the CI workflow checks by exit code, ``cmp`` or
``grep`` alone, run in-process through ``test_cli_golden.py``'s runner
on the files ``gen`` writes, with the workflow's own checks.

Other tests already hold the rest of the fast calls: ``gen`` one
``--dim`` below each family's least, the triangular bipyramid's round
trip and the pyramids over the bipyramid in ``test_cli.py``, and the
pinned ``error:`` texts in ``test_workflow.py``.
The slow calls stay in CI alone: ``recon2`` on prism(1024) and cube(7),
``recong`` on prism(1024/4096) and cube(8/10), ``verify --dims 11..12``,
``iso`` on a relabeled cube(10), and the forced ``recong`` round trips
of the twofold pyramids over the hexagonal and heptagonal prisms.
"""

from __future__ import annotations

import re

import pytest

from test_cli_golden import run_calls

#: Each gen family, the option that sizes it and that option's least value.
LEAST = [
    ("q1", "--dim", "3"),
    ("q2", "--dim", "4"),
    ("simplex", "--dim", "2"),
    ("cube", "--dim", "2"),
    ("bipyramid-simplex", "--dim", "3"),
    ("prism", "--m", "3"),
]


def _run(tmp_path, capsys, *calls) -> list[dict]:
    """Run ``calls`` in ``tmp_path``; each must exit 0."""
    outcomes = run_calls(tmp_path, capsys, {}, list(calls))
    assert [o["code"] for o in outcomes] == [0] * len(calls), outcomes
    return outcomes


def _passes(report: str) -> int:
    return sum(line.startswith("PASS") for line in report.splitlines())


@pytest.mark.parametrize("family, option, least", LEAST, ids=[row[0] for row in LEAST])
def test_gen_writes_each_family_from_its_least_size(tmp_path, capsys, family, option, least):
    for folds in ("0", "1"):
        _, report = _run(
            tmp_path, capsys,
            ("gen", "--family", family, option, least, "--pyramid", folds, "-o", "f.poly"),
            ("lattice", "f.poly"),
        )
        assert _passes(report["stdout"]) == 5


def test_lattice_validates_q1_9_q2_9_and_cube_6(tmp_path, capsys):
    for family, dim in (("q1", "9"), ("q2", "9"), ("cube", "6")):
        _, report = _run(
            tmp_path, capsys,
            ("gen", "--family", family, "--dim", dim, "-o", "f.poly"),
            ("lattice", "f.poly"),
        )
        assert _passes(report["stdout"]) == 5


def _skeleton(tmp_path, capsys, name, rank, *gen_args) -> None:
    """gen with ``gen_args`` to NAME.poly, then its rank skeleton to NAME.skel."""
    _run(
        tmp_path, capsys,
        ("gen", *gen_args, "-o", f"{name}.poly"),
        ("skeleton", f"{name}.poly", "--rank", rank, "-o", f"{name}.skel"),
    )


@pytest.mark.parametrize(
    "gen_args, parity",
    [(("--family", "q2", "--dim", "7"), ("--parity", "odd")),
     (("--family", "prism", "--m", "64"), ())],
    ids=["q2_7", "prism64"],
)
def test_recon2_gives_back_what_gen_wrote(tmp_path, capsys, gen_args, parity):
    _skeleton(tmp_path, capsys, "p", "2", *gen_args)
    _run(tmp_path, capsys, ("recon2", "p.skel", *parity, "-o", "p.back"))
    assert (tmp_path / "p.back").read_bytes() == (tmp_path / "p.poly").read_bytes()


def test_recon2_on_q1_6_needs_its_parity(tmp_path, capsys):
    _skeleton(tmp_path, capsys, "q1", "2", "--family", "q1", "--dim", "6")
    poly = (tmp_path / "q1.poly").read_text()
    facets = sum(line.startswith("facet") for line in poly.splitlines())
    parity = "even" if facets % 2 == 0 else "odd"
    _run(tmp_path, capsys, ("recon2", "q1.skel", "--parity", parity, "-o", "q1.back"))
    assert (tmp_path / "q1.back").read_text() == poly
    [ambiguous] = run_calls(tmp_path, capsys, {}, [("recon2", "q1.skel")])
    assert ambiguous["code"] == 1
    counts = re.findall(r"^# completion parity=[a-z]* facets=(\d+)$", ambiguous["stdout"], re.M)
    assert len(counts) == 2 and sum(map(int, counts)) % 2 == 1


def _round_trip(tmp_path, capsys, name, recong_args, *gen_args) -> str:
    """The workflow's round trip: gen, the edge list of its 1-skeleton, and
    recong on it, whose output must be the file gen wrote; returns
    recong's stdout."""
    _skeleton(tmp_path, capsys, name, "1", *gen_args)
    skel = (tmp_path / f"{name}.skel").read_text().splitlines(keepends=True)
    (tmp_path / f"{name}.edges").write_text("".join(s for s in skel if not s.startswith("d ")))
    [run] = _run(tmp_path, capsys, ("recong", f"{name}.edges", *recong_args, "-o", f"{name}.back"))
    assert (tmp_path / f"{name}.back").read_bytes() == (tmp_path / f"{name}.poly").read_bytes()
    return run["stdout"]


def test_recong_certificate_on_pyr_cube3_is_its_2_face_count(tmp_path, capsys):
    out = _round_trip(
        tmp_path, capsys, "pc", ("--dim", "4", "--certificate"),
        "--family", "cube", "--dim", "3", "--pyramid", "1",
    )
    [rank2] = _run(tmp_path, capsys, ("skeleton", "pc.poly", "--rank", "2"))
    faces = sum(line.startswith("face2 ") for line in rank2["stdout"].splitlines())
    assert out == f"# two-system size {faces}\n"


@pytest.mark.parametrize("method", [(), ("--method", "claims"), ("--method", "truncation"),
                                    ("--method", "both")], ids=["default", "claims",
                                                                "truncation", "both"])
@pytest.mark.parametrize(
    "dim, gen_args",
    [("4", ("--family", "cube", "--dim", "2", "--pyramid", "2")),
     ("5", ("--family", "prism", "--m", "3", "--pyramid", "2"))],
    ids=["twofold_square", "twofold_triprism"],
)
def test_recong_gives_back_the_twofold_pyramids(tmp_path, capsys, dim, gen_args, method):
    _round_trip(tmp_path, capsys, "tp", ("--dim", dim, *method), *gen_args)
