"""The three workloads: CLI jobs on seeded input files, each with its oracle.

A job is one ``skelrecon.cli.main(argv)`` call.  Building a workload is
the set-up the benchmark times: it makes the fixtures, relabels each one
per seed, writes the input files and builds every expected outcome from
:mod:`polytopes`, never from skelrecon.  A check returns None when the
job's exit code and output match, else the reason it failed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Optional

import polytopes as pt
from polytopes import Poly

Check = Callable[[int, str, str], Optional[str]]


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    check: Check
    tag: str
    one_nonsimple: bool = False


WORKLOADS = ("prism_skeletons", "twin_lattices", "graph_sweeps")

# Run time budgeted per pass.  A run makes round(seconds / budget) passes,
# so the sample set, and with it the job at each percentile, is the same
# on every run.  With 30 seconds that is 8, 3 and 3 passes.  Those counts
# put the median and the tail percentile well inside groups of samples of
# one job (prism_skeletons: m = 2048 for both; twin_lattices: the small
# jobs and the d = 8 iso jobs; graph_sweeps: the ~50 ms sweeps and
# pyramid(prism(8))), not at a group's edge, where a run-to-run shift of
# the machine's speed moves an order statistic most.
SECONDS_PER_PASS = {"prism_skeletons": 3.75, "twin_lattices": 10.0, "graph_sweeps": 10.0}


# -- checks -------------------------------------------------------------------

def _want_rc(rc: int, want: int, err: str) -> Optional[str]:
    if rc != want:
        return f"exit {rc}, expected {want}: {err.strip()[:200]}"
    return None


def expect_facets(d: int, n: int, facets, certificate: tuple[str, ...] = ()) -> Check:
    """Exit 0 and the incidence (d, n, facet list in canonical order)."""
    want = {"d": [(d,)], "vertices": [(n,)], "facet": sorted(facets)}

    def check(rc, out, err):
        bad = _want_rc(rc, 0, err)
        if bad:
            return bad
        if pt.records(out) != want:
            return "facet list differs from the oracle"
        comments = [line for line in out.splitlines() if line.startswith("# ")]
        if comments != [f"# {c}" for c in certificate]:
            return f"certificate {comments} != {list(certificate)}"
        return None

    return check


def expect_skeleton(d: int, n: int, edges, two_faces) -> Check:
    want = {"d": [(d,)], "vertices": [(n,)], "edge": sorted(edges), "face2": sorted(two_faces)}

    def check(rc, out, err):
        bad = _want_rc(rc, 0, err)
        if bad:
            return bad
        return None if pt.records(out) == want else "2-skeleton differs from the oracle"

    return check


def expect_lattice(f_vector) -> Check:
    """Exit 0, the oracle's f-vector, and all five validation checks passing."""
    fv = " ".join(map(str, f_vector))

    def check(rc, out, err):
        bad = _want_rc(rc, 0, err)
        if bad:
            return bad
        lines = out.splitlines()
        head = "# f-vector (ranks 0..d-1)"
        if head not in lines or lines.index(head) + 1 >= len(lines):
            return "no f-vector section"
        got = lines[lines.index(head) + 1]
        if got != fv:
            return f"f-vector {got} != {fv}"
        passed = sum(line.startswith("PASS  ") for line in lines)
        if passed != 5 or any(line.startswith("FAIL") for line in lines):
            return f"{passed} of 5 validation checks passed"
        return None

    return check


def expect_ambiguous(even, odd) -> Check:
    """Exit 1 and both completions: the even facet count first, then the odd."""

    def check(rc, out, err):
        bad = _want_rc(rc, 1, err)
        if bad:
            return bad
        lines = out.splitlines()
        if not lines or not lines[0].startswith("# ambiguous"):
            return "no ambiguity header"
        blocks: list[list[tuple[int, ...]]] = []
        for line in lines[1:]:
            if line.startswith("# completion"):
                blocks.append([])
            elif line.startswith("facet ") and blocks:
                blocks[-1].append(tuple(int(w) for w in line.split()[1:]))
            else:
                return f"unexpected line {line!r}"
        if blocks != [sorted(even), sorted(odd)]:
            return "completions differ from the twin oracle"
        return None

    return check


def expect_iso(layers_a, layers_b, isomorphic: bool) -> Check:
    """The expected verdict; a witness must carry every layer of a onto b."""

    def check(rc, out, err):
        lines = out.splitlines()
        if not isomorphic:
            bad = _want_rc(rc, 1, err)
            if bad:
                return bad
            return None if lines[:1] == ["not isomorphic"] else "verdict is not 'not isomorphic'"
        bad = _want_rc(rc, 0, err)
        if bad:
            return bad
        if lines[:1] != ["isomorphic"] or len(lines) < 2 or not lines[1].startswith("witness"):
            return "no isomorphism witness"
        w = [int(x) for x in lines[1].split()[1:]]
        for r, faces in layers_a.items():
            if pt.relabel(faces, w) != layers_b[r]:
                return f"witness does not carry rank {r}"
        return None

    return check


def expect_error(text: str) -> Check:
    """Exit 1 with the documented error text on stderr."""

    def check(rc, out, err):
        bad = _want_rc(rc, 1, err)
        if bad:
            return bad
        return None if f"error: {text}" in err else f"stderr lacks {text!r}"

    return check


def expect_verify(checks: int) -> Check:
    def check(rc, out, err):
        bad = _want_rc(rc, 0, err)
        if bad:
            return bad
        lines = out.splitlines()
        passed = sum(line.startswith("PASS  ") for line in lines)
        if passed != checks or lines[-1:] != ["OK"]:
            return f"{passed} of {checks} claims passed"
        return None

    return check


# -- builders -----------------------------------------------------------------

def _writer(workdir: str) -> Callable[[str, str], str]:
    """A function that writes one input file into workdir and returns its path."""

    def write(name: str, text: str) -> str:
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        return path

    return write


def _prism_skeletons(seed, k, write, small):
    sizes = (16, 32, 64) if small else (1024, 2048, 4096)
    jobs = []
    for m in sizes:
        perm = pt.permutation(seed, f"prism{m}", k, 2 * m)
        faces = pt.relabel(pt.prism_faces(m), perm)
        path = write(
            f"prism{m}-{k}.skel",
            pt.skeleton_text(3, 2 * m, pt.relabel(pt.prism_edges(m), perm), faces),
        )
        jobs.append(Job(("recon2", path), expect_facets(3, 2 * m, faces), f"recon2 m={m}"))
    return jobs


def _layers(lat, k):
    return {r: lat[r] for r in range(1, k + 1)}


def _twin_lattices(seed, k, write, small):
    dims = (4, 5) if small else (4, 5, 6, 7, 8)
    twins = {}
    for d in dims:
        for fam, build in (("q1", pt.q1), ("q2", pt.q2)):
            p = build(d)
            twins[fam, d] = (p, pt.faces_by_rank(p))
    extra = [("cube4", pt.cube(4))] if small else [
        ("cube4", pt.cube(4)), ("cube5", pt.cube(5)), ("simplex7", pt.simplex(7))
    ]
    extra = [(name, p, pt.faces_by_rank(p)) for name, p in extra]
    verify_dims = (4, 4) if small else (4, 6)
    # Claims verify prints: per d four twin checks, the ambiguity check from
    # d = 5, two 2-skeleton reconstructions; then four checks at fixed size.
    verify_checks = sum(6 + (d >= 5) for d in range(verify_dims[0], verify_dims[1] + 1)) + 4

    jobs = []
    for d in dims:
        files = {}
        for fam, parity in (("q1", "even"), ("q2", "odd")):
            p, lat = twins[fam, d]
            perm = pt.permutation(seed, f"{fam}_{d}", k, p.n)
            facets = pt.relabel(p.facets, perm)
            inc = write(f"{fam}_{d}-{k}.poly", pt.incidence_text(d, p.n, facets))
            edges, two = pt.relabel(lat[1], perm), pt.relabel(lat[2], perm)
            skel = write(f"{fam}_{d}-{k}.skel", pt.skeleton_text(d, p.n, edges, two))
            even = pt.relabel(twins["q1", d][0].facets, perm)
            odd = pt.relabel(twins["q2", d][0].facets, perm)
            files[fam] = (inc, perm)
            jobs += [
                Job(("gen", "--family", fam, "--dim", str(d)),
                    expect_facets(d, p.n, p.facets), f"gen {fam}({d})"),
                Job(("lattice", inc),
                    expect_lattice([len(lat[r]) for r in range(d)]), f"lattice {fam}({d})"),
                Job(("skeleton", inc, "--rank", "2"),
                    expect_skeleton(d, p.n, edges, two), f"skeleton {fam}({d})"),
                Job(("recon2", skel), expect_ambiguous(even, odd), f"recon2 {fam}({d})"),
                Job(("recon2", skel, "--parity", parity),
                    expect_facets(d, p.n, facets), f"recon2 --parity {fam}({d})"),
            ]
        (inc1, perm1), (inc2, perm2) = files["q1"], files["q2"]
        lat1, lat2 = twins["q1", d][1], twins["q2", d][1]
        for rank in (d - 3, d - 2, d - 1):
            a, b = _layers(lat1, rank), _layers(lat2, rank)
            iso = a == b
            if not iso and all(len(a[r]) == len(b[r]) for r in a):
                raise ValueError(f"the oracle cannot decide q1({d}) ~ q2({d}) at rank {rank}")
            arg = "lattice" if rank == d - 1 else str(rank)
            jobs.append(Job(
                ("iso", inc1, inc2, "--rank", arg),
                expect_iso(
                    {r: pt.relabel(fs, perm1) for r, fs in a.items()},
                    {r: pt.relabel(fs, perm2) for r, fs in b.items()},
                    iso,
                ),
                f"iso {arg} q1({d}) q2({d})",
            ))
    for name, p, lat in extra:
        perm = pt.permutation(seed, name, k, p.n)
        inc = write(f"{name}-{k}.poly", pt.incidence_text(p.d, p.n, pt.relabel(p.facets, perm)))
        jobs.append(Job(("lattice", inc), expect_lattice([len(lat[r]) for r in range(p.d)]),
                        f"lattice {name}"))
    jobs.append(Job(("verify", "--dims", "%d..%d" % verify_dims),
                    expect_verify(verify_checks), "verify"))
    return jobs


def _graph_fixtures(small):
    """(name, polytope, extra recong flags, documented error or None)."""
    one = [("pyr_cube3", pt.pyramid(pt.cube(3)))]
    if not small:
        one += [(f"pyr_prism{m}", pt.pyramid(pt.prism(m))) for m in range(5, 9)]
        one += [("pyr_cube4", pt.pyramid(pt.cube(4))), ("cube4", pt.cube(4))]
    out = [(name, p, (), None) for name, p in one]
    both = [("twofold_square", pt.pyramid(pt.cube(2), 2))]
    if not small:
        both.append(("twofold_triprism", pt.pyramid(pt.prism(3), 2)))
    out += [(name, p, ("--method", "both"), None) for name, p in both]
    trunc = [("split_cube", pt.SPLIT_CUBE), ("skew_solid", pt.SKEW_SOLID)]
    if not small:
        trunc.append(("prism_over_pyramid", pt.PRISM_OVER_PYRAMID))
    out += [(name, p, ("--method", "truncation"), None) for name, p in trunc]
    out.append(("bipyr_simplex3", pt.bipyramid(pt.simplex(3)), (),
                "4 nonsimple vertices: graph reconstruction covers at most 2"))
    if not small:
        out.append(("twofold_hexprism", pt.pyramid(pt.prism(6), 2), (),
                    "14 vertices exceed the enumeration bound 12"))
    return out


def _certificate(p: Poly, lat, nonsimple, perm, claims: bool) -> tuple[str, ...]:
    """Certificate lines recong prints, from the oracle facets."""
    if len(nonsimple) <= 1:
        return (f"two-system size {len(lat[2])}",)
    if not claims:
        return ()
    u, v = sorted(perm[x] for x in nonsimple)
    facets = pt.relabel(p.facets, perm)
    u_only = sum(u in f and v not in f for f in facets)
    v_only = sum(v in f and u not in f for f in facets)
    both = sum(u in f and v in f for f in facets)
    neither = len(facets) - u_only - v_only - both
    lines = (
        f"family counts u/v/neither/both: {u_only} {v_only} {neither} {both}",
        f"minimum avoiding v: {u_only + neither}",
        f"minimum avoiding u: {v_only + neither}",
    )
    return lines + ((f"shared-family minimum: {len(facets)}",) if both else ())


def _graph_sweeps(seed, k, write, small):
    fixtures = []
    for name, p, flags, error in _graph_fixtures(small):
        lat = pt.faces_by_rank(p)
        deg = pt.degrees(p.n, lat[1])
        nonsimple = [x for x in range(p.n) if deg[x] > p.d]
        fixtures.append((name, p, flags, error, lat, nonsimple))
    jobs = []
    for name, p, flags, error, lat, nonsimple in fixtures:
        perm = pt.permutation(seed, name, k, p.n)
        path = write(f"{name}-{k}.edges", pt.edge_list_text(p.n, pt.relabel(lat[1], perm)))
        if error is not None:
            check = expect_error(error)
        else:
            cert = _certificate(p, lat, nonsimple, perm, "truncation" not in flags)
            check = expect_facets(p.d, p.n, pt.relabel(p.facets, perm), cert)
        jobs.append(Job(
            ("recong", path, "--dim", str(p.d), "--certificate") + flags,
            check,
            f"recong {name}",
            one_nonsimple=error is None and len(nonsimple) <= 1,
        ))
    return jobs


_BUILDERS = {
    "prism_skeletons": _prism_skeletons,
    "twin_lattices": _twin_lattices,
    "graph_sweeps": _graph_sweeps,
}


def build(workload: str, seed: int, k: int, workdir: str, small: bool = False) -> list[Job]:
    """Write the inputs of the k-th relabeling into workdir; its job list."""
    return _BUILDERS[workload](seed, k, _writer(workdir), small)
