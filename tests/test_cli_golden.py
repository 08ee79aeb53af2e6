"""The lattice-reading CLI commands, byte for byte against recorded outputs.

``lattice``, ``skeleton`` and ``iso`` run on relabeled twins, three more
polytopes, two inputs that fail a validation check, and inputs that end
in ``NotGraded`` or ``NotAnEdge``; ``lattice`` alone runs on q1(8),
q2(8) and cube(6).  The outputs in ``golden/cli_lattice.json`` were
recorded when every face, cover and rank was still stored as a
frozenset, and the last three before the flows were seeded with
3-paths; regenerate them (only when an output is meant to change) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import sys
from pathlib import Path

import pytest

from skelrecon import FaceLattice, PolytopeSpec, cube, pyramid, q1, q2, simplex
from skelrecon.cli import main
from skelrecon.textio import format_spec

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_lattice.json"


def _relabeled(spec: PolytopeSpec, seed: int) -> str:
    perm = random.Random(seed).sample(range(spec.n), spec.n)
    return format_spec(PolytopeSpec(spec.d, spec.n, [[perm[v] for v in f] for f in spec.facets]))


def golden_inputs() -> dict[str, str]:
    """Input file name -> text."""
    files = {}
    for d in range(4, 8):
        files[f"q1_{d}.poly"] = _relabeled(q1(d).spec, 10 * d + 1)
        files[f"q2_{d}.poly"] = _relabeled(q2(d).spec, 10 * d + 2)
    for name, spec in (("cube5", cube(5)), ("simplex7", simplex(7)),
                       ("pyrcube4", pyramid(cube(4)))):
        files[f"{name}_a.poly"] = _relabeled(spec, spec.n)
        files[f"{name}_b.poly"] = _relabeled(spec, spec.n + 1)
    # ``lattice`` alone at the sizes where validate costs most.
    files["q1_8.poly"] = _relabeled(q1(8).spec, 81)
    files["q2_8.poly"] = _relabeled(q2(8).spec, 82)
    files["cube6.poly"] = _relabeled(cube(6), 64)
    # Covers spanning two ranks; the first is "(2, 3, 6) covers (3,)".
    files["skewed.poly"] = format_spec(PolytopeSpec(
        4, 7, [(0, 2, 3, 6), (0, 2, 4, 5), (1, 2, 4, 5, 6), (1, 3, 4, 5), (2, 3, 4, 6)]
    ))
    # A square cycle declared 3-dimensional: the full set gets rank 2.
    files["square.poly"] = "d 3\nvertices 4\nfacet 0 1\nfacet 1 2\nfacet 2 3\nfacet 0 3\n"
    # Three triangles in a ring: graded, but the rank-1 faces are triangles.
    files["ring.poly"] = "d 2\nvertices 6\nfacet 0 1 2\nfacet 2 3 4\nfacet 4 5 0\n"
    # Graded, but vertices 0 and 1 lie on three edges each: diamond fails.
    files["fan.poly"] = format_spec(PolytopeSpec(2, 4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]))
    # The 3-cube without its top facet: Euler fails.
    files["open_cube.poly"] = format_spec(
        PolytopeSpec(3, 8, [f for f in cube(3).facets if f != (4, 5, 6, 7)])
    )
    return files


def golden_calls() -> list[tuple[str, ...]]:
    calls = []

    def iso_ranks(a, b, d):
        for rank in (str(d - 3), str(d - 2), "lattice"):
            calls.append(("iso", a, b, "--rank", rank))

    for d in range(4, 8):
        for fam in ("q1", "q2"):
            calls.append(("lattice", f"{fam}_{d}.poly"))
            calls.append(("skeleton", f"{fam}_{d}.poly", "--rank", "2"))
        iso_ranks(f"q1_{d}.poly", f"q2_{d}.poly", d)
    for name, d in (("cube5", 5), ("simplex7", 7), ("pyrcube4", 5)):
        calls.append(("lattice", f"{name}_a.poly"))
        calls.append(("skeleton", f"{name}_a.poly", "--rank", "2"))
        iso_ranks(f"{name}_a.poly", f"{name}_b.poly", d)
    calls.append(("lattice", "fan.poly"))
    calls.append(("lattice", "open_cube.poly"))
    for name in ("skewed", "square", "ring"):
        calls.append(("lattice", f"{name}.poly"))
        calls.append(("skeleton", f"{name}.poly", "--rank", "1"))
        calls.append(("iso", f"{name}.poly", f"{name}.poly", "--rank", "lattice"))
    for name in ("q1_8", "q2_8", "cube6"):
        calls.append(("lattice", f"{name}.poly"))
    return calls


def run_calls(directory: Path, capsys, inputs=None, calls=None) -> list[dict]:
    """Exit code, stdout and stderr of every call, run inside ``directory``;
    the lattice commands' inputs and calls unless others are given."""
    for name, text in (inputs or golden_inputs()).items():
        (directory / name).write_text(text)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        outcomes = []
        for argv in calls or golden_calls():
            code = main(list(argv))
            out, err = capsys.readouterr()
            outcomes.append({"argv": list(argv), "code": code, "stdout": out, "stderr": err})
        return outcomes
    finally:
        os.chdir(cwd)


def _assert_golden(outcomes, golden=GOLDEN):
    want = json.loads(golden.read_text())
    assert [o["argv"] for o in outcomes] == [w["argv"] for w in want]
    for got, expected in zip(outcomes, want):
        assert got == expected, " ".join(got["argv"])


def test_lattice_commands_match_the_recorded_outputs(tmp_path, capsys):
    _assert_golden(run_calls(tmp_path, capsys))


def test_crlf_inputs_change_only_the_lattice_digest(tmp_path, capsys):
    # Every input with CRLF line endings: each call prints its golden
    # output and error, but for the digest, which is of the file's bytes.
    inputs = {name: text.replace("\n", "\r\n") for name, text in golden_inputs().items()}
    want = json.loads(GOLDEN.read_text())
    outcomes = run_calls(tmp_path, capsys, inputs=inputs)
    assert [o["argv"] for o in outcomes] == [w["argv"] for w in want]
    for got, expected in zip(outcomes, want):
        command, name = expected["argv"][:2]
        if command == "lattice" and expected["stdout"]:  # not an error
            data = (tmp_path / name).read_bytes()
            assert b"\r\n" in data
            lf, crlf = (
                f"# input {name} sha256/16 {hashlib.sha256(raw).hexdigest()[:16]}\n"
                for raw in (data.replace(b"\r\n", b"\n"), data)
            )
            assert lf in expected["stdout"] and lf != crlf
            expected["stdout"] = expected["stdout"].replace(lf, crlf)
        assert got == expected, " ".join(got["argv"])


def test_lattice_commands_never_decode_the_full_views(tmp_path, capsys, monkeypatch):
    # Every face, cover and rank as frozensets is a view for library
    # callers; the CLI reads the masks and decodes single ranks only.
    for view in ("faces_by_rank", "rank_of"):
        def refuse(self, view=view):
            raise AssertionError(f"the CLI decoded FaceLattice.{view}")

        monkeypatch.setattr(FaceLattice, view, property(refuse))
    _assert_golden(run_calls(tmp_path, capsys))


class _Capture:
    """Stands in for pytest's capsys when recording from the command line."""

    def __enter__(self):
        self.out, self.err = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
        return self

    def readouterr(self):
        out, err = sys.stdout.getvalue(), sys.stderr.getvalue()
        sys.stdout.seek(0), sys.stdout.truncate()
        sys.stderr.seek(0), sys.stderr.truncate()
        return out, err

    def __exit__(self, *exc):
        sys.stdout, sys.stderr = self.out, self.err


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, _Capture() as cap:
        outcomes = run_calls(Path(tmp), cap)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(outcomes, indent=1) + "\n")
    print(f"wrote {len(outcomes)} outcomes to {GOLDEN}")
