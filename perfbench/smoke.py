"""Smoke test of the benchmark itself, on the smallest fixtures of each workload.

    python3 perfbench/smoke.py

Checks that the benchmark's own fixtures and face lattices agree with
skelrecon's constructions, that every job passes its oracle, that each run
emits exactly the metrics BENCHMARK.json names with their units, and that
two traced runs give identical machine-independent counts.  Exits 1 on the
first kind of problem found, listing every instance of it.
"""

from __future__ import annotations

import json
import sys

import polytopes as pt
import run as bench
import workloads

COUNT_UNITS = ("count", "calls/job", "B", "ratio")


def fixture_problems(program) -> list[str]:
    cons = program.constructions
    lattice = program.lattice
    pairs = [
        ("q1(4)", pt.q1(4), cons.q1(4).spec), ("q1(5)", pt.q1(5), cons.q1(5).spec),
        ("q2(4)", pt.q2(4), cons.q2(4).spec), ("q2(5)", pt.q2(5), cons.q2(5).spec),
        ("cube(4)", pt.cube(4), cons.cube(4)), ("simplex(4)", pt.simplex(4), cons.simplex(4)),
        ("prism(6)", pt.prism(6), cons.polygon_prism(6)),
        ("pyramid(cube(3))", pt.pyramid(pt.cube(3)), cons.pyramid(cons.cube(3))),
        ("twofold pyramid(prism(3))", pt.pyramid(pt.prism(3), 2),
         cons.multifold_pyramid(cons.polygon_prism(3), 2)),
        ("bipyramid(simplex(3))", pt.bipyramid(pt.simplex(3)), cons.bipyramid(cons.simplex(3))),
    ]
    out = []
    for name, mine, theirs in pairs:
        if (mine.d, mine.n, mine.facets) != (theirs.d, theirs.n, theirs.facets):
            out.append(f"{name}: facet lists differ")
            continue
        lat = lattice.build_face_lattice(theirs)
        ranks = pt.faces_by_rank(mine)
        for r in range(-1, mine.d + 1):
            if ranks[r] != sorted(tuple(sorted(f)) for f in lat.faces_by_rank[r]):
                out.append(f"{name}: rank-{r} faces differ from build_face_lattice")
    sk = cons.polygon_prism_skeleton(8)
    if sorted(sk.graph.edges) != sorted(tuple(sorted(e)) for e in pt.prism_edges(8)):
        out.append("prism(8): edges differ from polygon_prism_skeleton")
    if sorted(tuple(sorted(f)) for f in sk.two_faces) != list(pt.prism(8).facets):
        out.append("prism(8): 2-faces differ from polygon_prism_skeleton")
    return out


def metric_problems(result: dict, declared: list[dict], label: str) -> list[str]:
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    out = [f"{label}: {k} missing" for k in want if k not in got]
    out += [f"{label}: {k} not in BENCHMARK.json" for k in got if k not in want]
    out += [f"{label}: {k} in {got[k]}, declared {want[k]}"
            for k in want if k in got and got[k] != want[k]]
    return out


def run_problems(spec: dict) -> list[str]:
    out = []
    for workload in workloads.WORKLOADS:
        plain = bench.run(workload, seed=1, seconds=1, trace=False, small=True)["result"]
        traced = [bench.run(workload, seed=1, seconds=1, trace=True, small=True)["result"]
                  for _ in range(2)]
        for label, result in [(f"{workload}", plain)] + [
                (f"{workload} traced", r) for r in traced]:
            if result["failed"] or not result["correct"]:
                out.append(f"{label}: {result['failed']} of {result['attempted']} jobs failed")
        out += metric_problems(plain, spec["end_to_end"], workload)
        out += metric_problems(traced[0], spec["per_layer"], f"{workload} traced")
        first, second = (r["metrics"] for r in traced)
        for name, m in first.items():
            if m["unit"] in COUNT_UNITS and m["value"] != second[name]["value"]:
                out.append(f"{workload}: {name} {m['value']} then {second[name]['value']}")
        print(f"smoke: {workload} ran {plain['attempted']} jobs untraced, "
              f"{traced[0]['attempted']} per traced run")
    return out


def main() -> int:
    program = bench.import_program()
    with open(bench.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    for stage in (lambda: fixture_problems(program), lambda: run_problems(spec)):
        problems = stage()
        if problems:
            for p in problems:
                print(f"smoke: {p}")
            return 1
    print("smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
