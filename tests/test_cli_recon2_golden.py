"""``skelrecon recon2``, byte for byte against recorded outputs.

It runs on relabeled q1/q2 skeletons for d = 4..7, plain and with each
``--parity``, on three more polytopes, on one malformed file per parse
error class and on two-bad-line files that pin which error is reported,
and on skeletons that end in ``NotASkeleton`` or
``FrameNotInUniqueTwoFace``.  The outputs in ``golden/cli_recon2.json``
were recorded while ``recon2`` still checked its facets a second time
through ``PolytopeSpec`` and the parser still split every line before
reading any; regenerate them (only when an output is meant to change)
with

    PYTHONPATH=src python tests/test_cli_recon2_golden.py
"""

from __future__ import annotations

import json
import random
import tempfile
from pathlib import Path

from skelrecon import (
    PolytopeSpec,
    build_face_lattice,
    cube,
    k_skeleton,
    polygon_prism,
    pyramid,
    q1,
    q2,
)
from skelrecon.textio import format_skeleton

from conftest import SKEW_SOLID
from test_cli_golden import _Capture, _assert_golden, run_calls

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_recon2.json"

HEAD = "d 3\nvertices 4\n"

#: One file per parse error class, then files with two bad lines.
MALFORMED = {
    "short_edge": HEAD + "edge 0 1\nedge  0\n",
    "short_header": "d\nvertices 4\nedge 0 1\n",
    "non_integer_edge": HEAD + "edge 0 a\n",
    "non_integer_header": "d three\nvertices 4\nedge 0 1\n",
    "non_integer_face_rank": HEAD + "edge 0 1\nfaceX 0 1\n",
    "non_integer_face_vertex": HEAD + "edge 0 1\nface2 0 a\n",
    "empty_face": HEAD + "edge 0 1\nface2\n",
    "face_rank_outside": HEAD + "edge 0 1\nface7 0 1\n",
    "face_rank_below": HEAD + "edge 0 1\nface1 0 1\n",
    "face_vertex_outside": HEAD + "edge 0 1\nface2 0 1 99\n",
    "face_vertex_negative": HEAD + "edge 0 1\nface2 0 1 -3\n",
    "edge_loop": HEAD + "edge 0 1\nedge 1 1\n",
    "edge_outside": HEAD + "edge 0 1\nedge 0 5\n",
    "edge_negative": HEAD + "edge 0 -1\n",
    "negative_vertices": "d 3\nvertices -2\nedge 0 1\n",
    "repeated_d": "d 3\nvertices 4\nd 4\nedge 0 1\n",
    "repeated_vertices": HEAD + "vertices 5\nedge 0 1\n",
    "unexpected_line": HEAD + "edge 0 1\nvertex 0 1 2\n",
    # Any key starting with "face" is a face line: "t" is its rank.
    "facet_line": HEAD + "edge 0 1\nfacet 0 1 2\n",
    "missing_d": "vertices 4\nedge 0 1\n",
    "empty_file": "# nothing but a comment\n\n",
    "d_two": "d 2\nvertices 4\nedge 0 1\n",
    # A short line anywhere beats every other error.
    "non_integer_then_short": HEAD + "edge 0 a\nedge 1 2\nedge\t3\n",
    "face_rank_then_short": HEAD + "faceX 0 1\nedge 0 1\nvertices\n",
    "repeated_then_short": "d 3\nd 3\nvertices 4\nedge 0 1\nedge 1\n",
    "loop_then_short": HEAD + "edge 1 1\nface2 0 1 2\nd\n",
    # Line errors, in file order, beat every face and edge check.
    "face_rank_outside_then_non_integer_rank": HEAD + "face9 0 1 2\nfaceX 0 1\n",
    "face_vertex_then_non_integer_edge": HEAD + "face2 0 a\nedge 0 b\n",
    "face_vertex_outside_then_repeated": HEAD + "face2 0 1 9\nd 4\n",
    "non_integer_rank_then_repeated": HEAD + "faceY 0 1\nvertices 4\n",
    "repeated_then_non_integer_edge": HEAD + "vertices 4\nedge 0 a\n",
    "non_integer_edge_then_repeated": HEAD + "edge 0 a\nd 3\n",
    "unexpected_then_non_integer": HEAD + "face 0 1\nedge x 1\n",
    # A missing header beats the face checks; face checks, in file order,
    # beat the edge checks.
    "missing_vertices_then_face": "d 3\nface9 0 1\nedge 0 1\n",
    "non_integer_vertex_then_rank": HEAD + "face2 0 a\nface9 0 1\n",
    "rank_then_non_integer_vertex": HEAD + "face9 0 1\nface2 0 a\n",
    "loop_then_face_outside": HEAD + "edge 1 1\nface2 0 1 7\n",
    "outside_then_loop": HEAD + "edge 0 9\nedge 2 2\n",
    # Headers may follow the lines they govern; spacing is normalised.
    "headers_last": "  face2   0 1\tq \nedge 0 1\nd 3\nvertices 4\n",
    "tetrahedron_headers_last": "edge 0 1\nedge 0 2\nedge 0 3\nedge 1 2\nedge 1 3\n"
                                "edge 2 3\nface2 0 1 2\nface2  0 1 3\nface2 0 2 3\n"
                                "face2\t1 2 3\nvertices 4\nd 3\n",
    "commented": "# a tetrahedron\nd 3\n\nvertices 4\n  # edges\nedge 0 1\nedge 0 2\n"
                 "edge 0 3\nedge 1 2\nedge 1 3\nedge 2 3\nface2 0 1 2\nface2 0 1 3\n"
                 "face2 0 2 3\nface2 1 2 3\n",
}


def _relabeled_skeleton(spec: PolytopeSpec, seed: int) -> str:
    perm = random.Random(seed).sample(range(spec.n), spec.n)
    spec = PolytopeSpec(spec.d, spec.n, [[perm[v] for v in f] for f in spec.facets])
    return format_skeleton(k_skeleton(build_face_lattice(spec), 2), spec.d)


def golden_inputs() -> dict[str, str]:
    """Input file name -> text."""
    files = {}
    for d in range(4, 8):
        files[f"q1_{d}.skel"] = _relabeled_skeleton(q1(d).spec, 10 * d + 1)
        files[f"q2_{d}.skel"] = _relabeled_skeleton(q2(d).spec, 10 * d + 2)
    for name, spec in (("prism8", polygon_prism(8)), ("cube4", cube(4)),
                       ("pyrcube3", pyramid(cube(3)))):
        files[f"{name}.skel"] = _relabeled_skeleton(spec, spec.n)
    for name, text in MALFORMED.items():
        files[f"{name}.skel"] = text
    cube3 = format_skeleton(k_skeleton(build_face_lattice(cube(3)), 2), 3)
    # The 2-frames at 0 spanned by the missing square lie in no 2-face.
    files["cube3_open.skel"] = cube3.replace("face2 0 1 2 3\n", "")
    # A square given twice: its 2-frames lie in two 2-faces.
    files["cube3_twice.skel"] = cube3 + "face2 0 1 2 3\n"
    # Two squares joined as one 2-face: every vertex has three neighbours in it.
    files["cube3_two_squares.skel"] = cube3 + "face2 0 1 2 3 4 5 6 7\n"
    # A triangle 0-1-2 across a square's diagonal: not an induced cycle.
    files["cube3_chord.skel"] = cube3.replace("face2 0 1 2 3", "face2 0 1 3")
    # Declared 4-dimensional: every vertex of the 3-cube is nonsimple.
    files["cube3_as_4.skel"] = cube3.replace("d 3\n", "d 4\n")
    # Two opposite squares of the 4-cube, with no edge between them.
    cube4 = format_skeleton(k_skeleton(build_face_lattice(cube(4)), 2), 4)
    files["cube4_two_cycles.skel"] = cube4 + "face2 0 1 2 3 12 13 14 15\n"
    # Vertex 0 is nonsimple, and the trace from 2 finds only one of its
    # neighbours in the region.
    files["skew_solid.skel"] = format_skeleton(k_skeleton(build_face_lattice(SKEW_SOLID), 2), 3)
    # A triangle declared 3-dimensional: every vertex has degree below d.
    files["no_simple.skel"] = "d 3\nvertices 3\nedge 0 1\nedge 0 2\nedge 1 2\nface2 0 1 2\n"
    return files


def golden_calls() -> list[tuple[str, ...]]:
    calls = []
    for d in range(4, 8):
        for fam in ("q1", "q2"):
            calls.append(("recon2", f"{fam}_{d}.skel"))
            calls.append(("recon2", f"{fam}_{d}.skel", "--parity", "even"))
            calls.append(("recon2", f"{fam}_{d}.skel", "--parity", "odd"))
    for name in ("prism8", "cube4", "pyrcube3"):
        calls.append(("recon2", f"{name}.skel"))
    calls.append(("recon2", "cube4.skel", "--parity", "odd"))
    for name in MALFORMED:
        calls.append(("recon2", f"{name}.skel"))
    for name in ("cube3_open", "cube3_twice", "cube3_two_squares", "cube3_chord",
                 "cube3_as_4", "cube4_two_cycles", "skew_solid", "no_simple"):
        calls.append(("recon2", f"{name}.skel"))
    return calls


def test_recon2_matches_the_recorded_outputs(tmp_path, capsys):
    _assert_golden(run_calls(tmp_path, capsys, golden_inputs(), golden_calls()), GOLDEN)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, _Capture() as cap:
        outcomes = run_calls(Path(tmp), cap, golden_inputs(), golden_calls())
    GOLDEN.write_text(json.dumps(outcomes, indent=1) + "\n")
    print(f"wrote {len(outcomes)} outcomes to {GOLDEN}")
