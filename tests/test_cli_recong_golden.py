"""``skelrecon recong --certificate``, byte for byte against recorded outputs.

It runs every ``--method`` on relabeled graphs of the shapes the graph
benchmark uses: pyramids with one nonsimple vertex, twofold pyramids and
the truncation fixtures with two, and the 4-cube with none.  Error cases:
four nonsimple vertices, the 14-vertex twofold pyramid over the
hexagonal prism with and without ``--force``, ``--force`` above the
22-vertex subset-DP bound, and ``--dim 3`` with the families asked for.
The outputs in ``golden/cli_recong.json`` were recorded while the
truncation route still checked the enumeration bound a second time;
regenerate them (only when an output is meant to change) with

    PYTHONPATH=src python tests/test_cli_recong_golden.py
"""

from __future__ import annotations

import json
import random
import tempfile
from pathlib import Path

from skelrecon import (
    Graph,
    PolytopeSpec,
    bipyramid,
    build_face_lattice,
    cube,
    multifold_pyramid,
    polygon_prism,
    pyramid,
    simplex,
)
from skelrecon.textio import format_edge_list

from conftest import PRISM_OVER_PYRAMID, SKEW_SOLID, SPLIT_CUBE
from test_cli_golden import _Capture, _assert_golden, run_calls

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_recong.json"

METHODS = ("claims", "truncation", "both")

#: Name -> polytope whose graph is reconstructed by every method.
FIXTURES = {
    "pyr_cube3": pyramid(cube(3)),
    **{f"pyr_prism{m}": pyramid(polygon_prism(m)) for m in range(5, 9)},
    "pyr_cube4": pyramid(cube(4)),
    "cube4": cube(4),
    "twofold_square": multifold_pyramid(cube(2), 2),
    "twofold_triprism": multifold_pyramid(polygon_prism(3), 2),
    # d = 3: the claims route refuses them.
    "split_cube": SPLIT_CUBE,
    "skew_solid": SKEW_SOLID,
    "prism_over_pyramid": PRISM_OVER_PYRAMID,
    # Four nonsimple vertices.
    "bipyr_simplex3": bipyramid(simplex(3)),
    # 14 vertices: above the enumeration bound 12, within the DP bound 22.
    "twofold_hexprism": multifold_pyramid(polygon_prism(6), 2),
}

#: Two nonsimple vertices and 24 vertices: refused even with --force.
ABOVE_DP_BOUND = multifold_pyramid(polygon_prism(11), 2)


def _relabeled_graph(spec: PolytopeSpec, seed: int) -> str:
    perm = random.Random(seed).sample(range(spec.n), spec.n)
    g = build_face_lattice(spec).graph()
    return format_edge_list(Graph(g.n, [(perm[a], perm[b]) for a, b in g.edges]))


def golden_inputs() -> dict[str, str]:
    """Input file name -> text."""
    files = {
        f"{name}.edges": _relabeled_graph(spec, seed)
        for seed, (name, spec) in enumerate(FIXTURES.items())
    }
    files["twofold_prism11.edges"] = _relabeled_graph(ABOVE_DP_BOUND, 99)
    return files


def golden_calls() -> list[tuple[str, ...]]:
    calls = []
    for name, spec in FIXTURES.items():
        for method in METHODS:
            calls.append(("recong", f"{name}.edges", "--dim", str(spec.d),
                          "--certificate", "--method", method))
    for method in METHODS:
        calls.append(("recong", "twofold_hexprism.edges", "--dim", "5",
                      "--certificate", "--method", method, "--force"))
        calls.append(("recong", "twofold_prism11.edges", "--dim", "5",
                      "--certificate", "--method", method, "--force"))
    return calls


def test_recong_matches_the_recorded_outputs(tmp_path, capsys):
    _assert_golden(run_calls(tmp_path, capsys, golden_inputs(), golden_calls()), GOLDEN)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, _Capture() as cap:
        outcomes = run_calls(Path(tmp), cap, golden_inputs(), golden_calls())
    GOLDEN.write_text(json.dumps(outcomes, indent=1) + "\n")
    print(f"wrote {len(outcomes)} outcomes to {GOLDEN}")
