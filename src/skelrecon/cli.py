"""Command-line front end.

Subcommands: gen (emit fixture incidences), lattice (f-vector and
validation report), skeleton (extract rank <= k), recon2 (facets from a
2-skeleton), recong (facets from a graph), iso (compare two incidences),
verify (run the claim suite over a dimension range), bench (prism scaling
study).  All output is deterministic given inputs and flags; timings are
the only exception and never interleave with result sections.

``main(argv)`` may be called many times in one process: the parser is
built on the first call and reused by every later one.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import statistics
import sys
import time
from dataclasses import dataclass, field

from . import constructions as cons
from . import recon2, recong, textio
from .errors import SkelreconError, TooLarge
from .iso import isomorphic
from .lattice import build_face_lattice, classify_vertices, k_skeleton, validate


@dataclass
class RunReport:
    """Command echo, input digests, and output sections of one run."""

    command: str
    digests: dict[str, str] = field(default_factory=dict)
    sections: list[tuple[str, str]] = field(default_factory=list)

    def add_input(self, name: str, text: str):
        self.digests[name] = hashlib.sha256(text.encode()).hexdigest()[:16]

    def add(self, title: str, body: str):
        self.sections.append((title, body))

    def render(self) -> str:
        lines = [f"# command: {self.command}"]
        for name, digest in sorted(self.digests.items()):
            lines.append(f"# input {name} sha256/16 {digest}")
        for title, body in self.sections:
            lines.append(f"# {title}")
            lines.append(body.rstrip("\n"))
        return "\n".join(lines) + "\n"


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


#: The most vertices ``gen`` builds; ``bench``'s largest prism has 32768.
MAX_GEN_VERTICES = 1 << 16


def _gen_vertex_count(args) -> int:
    """The vertex count of the polytope ``gen`` builds, found without building it."""
    d = args.dim
    count = {
        "q1": 2 * d,
        "q2": 2 * d,
        "simplex": d + 1,
        # Clipped at 2**64 (hence "at least" below), so that a huge --dim
        # cannot make a huge int.
        "cube": 1 << min(max(d, 0), 64),
        "prism": 2 * args.m,
        "bipyramid-simplex": d + 2,
    }[args.family]
    return count + args.pyramid


def _gen_spec(args) -> "cons.PolytopeSpec":
    count = _gen_vertex_count(args)
    if count > MAX_GEN_VERTICES:
        raise TooLarge(
            f"{args.family} would have at least {count} vertices, "
            f"above the cap of {MAX_GEN_VERTICES}"
        )
    fam = args.family
    if fam == "q1":
        spec = cons.q1(args.dim).spec
    elif fam == "q2":
        spec = cons.q2(args.dim).spec
    elif fam == "simplex":
        spec = cons.simplex(args.dim)
    elif fam == "cube":
        spec = cons.cube(args.dim)
    elif fam == "prism":
        spec = cons.polygon_prism(args.m)
    elif fam == "bipyramid-simplex":
        spec = cons.bipyramid(cons.simplex(args.dim - 1))
    else:
        raise SkelreconError(f"unknown family {fam}")
    if args.pyramid:
        spec = cons.multifold_pyramid(spec, args.pyramid)
    return spec


def cmd_gen(args) -> int:
    spec = _gen_spec(args)
    _emit(textio.format_spec(spec), args.output)
    return 0


def cmd_lattice(args) -> int:
    text = _read(args.file)
    spec = textio.parse_spec(text)
    lattice = build_face_lattice(spec)
    report = RunReport(command="lattice")
    report.add_input(args.file, text)
    report.add("f-vector (ranks 0..d-1)", " ".join(map(str, lattice.f_vector)))
    vr = validate(lattice)
    report.add("validation", vr.summary())
    sys.stdout.write(report.render())
    return 0 if vr.ok else 1


def cmd_skeleton(args) -> int:
    spec = textio.parse_spec(_read(args.file))
    lattice = build_face_lattice(spec)
    sk = k_skeleton(lattice, args.rank)
    _emit(textio.format_skeleton(sk, lattice.d), args.output)
    return 0


def cmd_recon2(args) -> int:
    sk, d = textio.parse_skeleton(_read(args.file))
    outcome = recon2.reconstruct(sk, d, parity_hint=args.parity)
    if outcome.status == "ambiguous":
        amb = outcome.ambiguity
        sys.stdout.write("# ambiguous: two completions, pass --parity to choose\n")
        for tag, completion in zip(("even", "odd"), _by_parity(amb.completions)):
            sys.stdout.write(f"# completion parity={tag} facets={len(completion)}\n")
            sys.stdout.write(textio.facet_lines(completion))
        return 1
    # reconstruct's checks already give every PolytopeSpec invariant (see
    # its docstring), so the facets are written as they are.
    _emit(textio.format_facets(d, sk.graph.n, outcome.facets), args.output)
    return 0


def _by_parity(completions):
    even = next(c for c in completions if len(c) % 2 == 0)
    odd = next(c for c in completions if len(c) % 2 == 1)
    return even, odd


def cmd_recong(args) -> int:
    g = textio.parse_edge_list(_read(args.file))
    d = args.dim
    classes = classify_vertices(g, d)
    k = len(classes.nonsimple)
    results = {}
    certificates = []
    if k <= 1:
        system, facets = recong._two_system_facets(g, d, classes.nonsimple)
        certificates.append(f"two-system size {system.size}")
        results["claims"] = results["truncation"] = facets
    elif k == 2:
        methods = (
            ("claims", "truncation")
            if args.method == "both"
            else (args.method,)
        )
        families, truncated = recong._two_nonsimple_routes(
            g, d, claims="claims" in methods, truncation="truncation" in methods,
            force=args.force,
        )
        if families is not None:
            results["claims"] = families.all_facets
            certificates.append(
                "family counts u/v/neither/both: %d %d %d %d" % families.counts
            )
            certificates.append(f"minimum avoiding v: {families.min_u}")
            certificates.append(f"minimum avoiding u: {families.min_v}")
            if families.min_both is not None:
                certificates.append(f"shared-family minimum: {families.min_both}")
        if truncated is not None:
            results["truncation"] = truncated
    else:
        raise SkelreconError(
            f"{k} nonsimple vertices: graph reconstruction covers at most 2"
        )
    distinct = {facets for facets in results.values()}
    if len(distinct) > 1:
        sys.stderr.write("methods disagree\n")
        return 1
    facets = distinct.pop()
    if args.certificate:
        for line in certificates:
            sys.stdout.write(f"# {line}\n")
    spec = cons.PolytopeSpec(d, g.n, facets)
    _emit(textio.format_spec(spec), args.output)
    return 0


def cmd_iso(args) -> int:
    la = build_face_lattice(textio.parse_spec(_read(args.a)))
    lb = build_face_lattice(textio.parse_spec(_read(args.b)))
    result = isomorphic(la, lb, rank=None if args.rank == "lattice" else args.rank)
    if result.isomorphic:
        sys.stdout.write(
            "isomorphic\nwitness " + " ".join(map(str, result.witness)) + "\n"
        )
        return 0
    sys.stdout.write(f"not isomorphic\nobstruction: {result.obstruction}\n")
    return 1


def cmd_verify(args) -> int:
    """Desk-scale verification of the combinatorial claims."""
    failures = 0

    def check(name: str, ok: bool):
        nonlocal failures
        sys.stdout.write(f"{'PASS' if ok else 'FAIL'}  {name}\n")
        if not ok:
            failures += 1

    for d in args.dims:
        c1, c2 = cons.q1(d), cons.q2(d)
        l1, l2 = build_face_lattice(c1.spec), build_face_lattice(c2.spec)
        n1 = classify_vertices(l1).nonsimple
        n2 = classify_vertices(l2).nonsimple
        check(
            f"d={d} twin counts (2d vertices; 2d vs 2d-1 facets)",
            c1.spec.n == 2 * d
            and c2.spec.n == 2 * d
            and len(l1.facets) == 2 * d
            and len(l2.facets) == 2 * d - 1,
        )
        check(
            f"d={d} twins have d-1 nonsimple vertices",
            len(n1) == d - 1 and len(n2) == d - 1 and n1 == c1.x_set,
        )
        low = isomorphic(l1, l2, rank=d - 3)
        mid = isomorphic(l1, l2, rank=d - 2)
        lat = isomorphic(l1, l2)
        check(f"d={d} (d-3)-skeleta isomorphic", low.isomorphic)
        check(
            f"d={d} (d-2)-skeleta and lattices distinct",
            not mid.isomorphic and not lat.isomorphic,
        )
        sk = k_skeleton(l1, 2)
        if d >= 5:
            same = k_skeleton(l2, 2).faces_by_dim == sk.faces_by_dim
            out = recon2.reconstruct(sk, d)
            pick1 = recon2.reconstruct(sk, d, parity_hint="even")
            pick2 = recon2.reconstruct(sk, d, parity_hint="odd")
            check(
                f"d={d} shared 2-skeleton is ambiguous, parity resolves",
                same
                and out.status == "ambiguous"
                and pick1.facets == l1.facets
                and pick2.facets == l2.facets,
            )
        for spec, label in (
            (cons.simplex(d), f"simplex({d})"),
            (cons.pyramid(cons.cube(d - 1)), f"pyramid(cube({d - 1}))"),
        ):
            lat_o = build_face_lattice(spec)
            got = recon2.reconstruct(k_skeleton(lat_o, 2), d)
            check(
                f"d={d} 2-skeleton reconstruction of {label}",
                got.status == "complete" and got.facets == lat_o.facets,
            )

    lat_p = build_face_lattice(cons.pyramid(cons.cube(3)))
    check(
        "graph reconstruction, one nonsimple vertex (pyramid over the 3-cube)",
        recong.reconstruct_one_nonsimple(lat_p.graph(), 4) == lat_p.facets,
    )
    two = cons.multifold_pyramid(cons.cube(2), 2)
    lat_t = build_face_lattice(two)
    g = lat_t.graph()
    claims = recong.reconstruct_two_nonsimple(g, 4)
    truncation = recong.reconstruct_two_nonsimple_via_truncation(g, 4)
    check(
        "graph reconstruction, two nonsimple vertices (both methods agree)",
        claims == lat_t.facets and truncation == lat_t.facets,
    )
    bp = build_face_lattice(cons.bipyramid(cons.simplex(3)))
    pb = build_face_lattice(cons.pyramid(cons.bipyramid(cons.simplex(2))))
    gi = isomorphic(bp, pb, rank=1)
    li = isomorphic(bp, pb)
    check(
        "negative control: 4 nonsimple vertices, same graph, different lattices",
        gi.isomorphic and not li.isomorphic,
    )
    lat_c = build_face_lattice(cons.cube(3))
    trunc, tmap = cons.truncate(lat_c, (0,))
    check(
        "truncation round trip at a cube vertex",
        cons.pullback_facets(trunc.facets, tmap) == lat_c.facets
        and validate(build_face_lattice(trunc)).ok,
    )
    if args.with_bench:
        rc = cmd_bench(argparse.Namespace(sizes=[1024, 2048, 4096], repeats=3))
        failures += rc
    sys.stdout.write(f"{'OK' if failures == 0 else f'{failures} FAILURES'}\n")
    return 0 if failures == 0 else 1


def cmd_bench(args) -> int:
    """Prism scaling study; reports medians, ratios, and a log-log slope."""
    sizes = args.sizes
    medians = []
    sys.stdout.write("m,median_seconds\n")
    for m in sizes:
        sk = cons.polygon_prism_skeleton(m)
        recon2.reconstruct(sk, 3)  # warm-up
        times = []
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(args.repeats):
                t0 = time.perf_counter()
                recon2.reconstruct(sk, 3)
                times.append(time.perf_counter() - t0)
        finally:
            if gc_was_enabled:
                gc.enable()
        med = statistics.median(times)
        medians.append(med)
        sys.stdout.write(f"{m},{med:.6f}\n")
    import math

    ratios = [b / a for a, b in zip(medians, medians[1:])]
    for (m, r) in zip(sizes[1:], ratios):
        sys.stdout.write(f"# ratio at m={m}: {r:.2f}\n")
    if len(medians) >= 2:
        slope = statistics.mean(math.log2(r) for r in ratios)
        sys.stdout.write(f"# log-log slope estimate: {slope:.3f}\n")
    return 0


# Option types: argparse names the option of a rejected value and exits 2.
def _int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {raw!r}") from None


def _int_list(raw: str) -> list[int]:
    return [_int(x) for x in raw.split(",")]


def _at_least(low: int, values: list[int], raw: str) -> list[int]:
    if min(values) < low:
        raise argparse.ArgumentTypeError(f"values must be >= {low}: {raw!r}")
    return values


def _dims(raw: str) -> list[int]:
    lo, dots, hi = raw.partition("..")
    dims = list(range(_int(lo), _int(hi) + 1)) if dots else _int_list(raw)
    if not dims:
        raise argparse.ArgumentTypeError(f"empty range: {raw!r}")
    return _at_least(4, dims, raw)  # q2 needs d >= 4


def _sizes(raw: str) -> list[int]:
    return _at_least(3, _int_list(raw), raw)  # polygon_prism needs m >= 3


def _recong_dim(raw: str) -> int:
    return _at_least(3, [_int(raw)], raw)[0]  # graph reconstruction needs d >= 3


def _prism_m(raw: str) -> int:
    return _at_least(3, [_int(raw)], raw)[0]  # polygon_prism needs m >= 3


def _pyramid_folds(raw: str) -> int:
    return _at_least(0, [_int(raw)], raw)[0]  # 0 means no pyramid


#: The least ``gen --dim`` of each family that reads it (prism does not).
_GEN_MIN_DIM = {"q1": 3, "q2": 4, "simplex": 2, "cube": 2, "bipyramid-simplex": 3}


def _positive_int(raw: str) -> int:
    if _int(raw) < 1:
        raise argparse.ArgumentTypeError(f"not positive: {raw!r}")
    return int(raw)


def _rank(raw: str) -> int:
    # Ranks above d-1 depend on the input file: k_skeleton refuses them.
    return _at_least(1, [_int(raw)], raw)[0]


def _rank_or_lattice(raw: str) -> int | str:
    return raw if raw == "lattice" else _rank(raw)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: parsing changes none of its state."""
    p = argparse.ArgumentParser(prog="skelrecon", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="generate a fixture incidence file")
    g.add_argument("--family", required=True,
                   choices=["q1", "q2", "simplex", "cube", "prism", "bipyramid-simplex"])
    g.add_argument("--dim", type=_int, default=4)
    g.add_argument("--m", type=_prism_m, default=4, help="polygon size for prism")
    g.add_argument("--pyramid", type=_pyramid_folds, default=0, metavar="T",
                   help="wrap the family in a T-fold pyramid")
    g.add_argument("-o", "--output")
    g.set_defaults(fn=cmd_gen)

    l = sub.add_parser("lattice", help="f-vector and validation report")
    l.add_argument("file")
    l.set_defaults(fn=cmd_lattice)

    s = sub.add_parser("skeleton", help="extract the k-skeleton")
    s.add_argument("file")
    s.add_argument("--rank", type=_rank, required=True)
    s.add_argument("-o", "--output")
    s.set_defaults(fn=cmd_skeleton)

    r2 = sub.add_parser("recon2", help="reconstruct facets from a 2-skeleton")
    r2.add_argument("file")
    r2.add_argument("--parity", choices=["even", "odd"])
    r2.add_argument("-o", "--output")
    r2.set_defaults(fn=cmd_recon2)

    rg = sub.add_parser("recong", help="reconstruct facets from a graph")
    rg.add_argument("file")
    rg.add_argument("--dim", type=_recong_dim, required=True)
    rg.add_argument("--method", choices=["claims", "truncation", "both"], default="both")
    rg.add_argument("--certificate", action="store_true",
                    help="print objective minima and family counts")
    rg.add_argument("--force", action="store_true",
                    help="lift the bound of 12 vertices on the family sweeps "
                         "up to the subset-DP bound of 22")
    rg.add_argument("-o", "--output")
    rg.set_defaults(fn=cmd_recong)

    i = sub.add_parser("iso", help="compare two incidence files")
    i.add_argument("a")
    i.add_argument("b")
    i.add_argument("--rank", type=_rank_or_lattice, required=True,
                   help="skeleton rank, or 'lattice'")
    i.set_defaults(fn=cmd_iso)

    v = sub.add_parser("verify", help="run the claim suite for a dimension range")
    v.add_argument("--dims", type=_dims, default="4..6", help="e.g. 4..6 or 4,5")
    v.add_argument("--with-bench", action="store_true")
    v.set_defaults(fn=cmd_verify)

    b = sub.add_parser("bench", help="prism scaling study")
    b.add_argument("--sizes", type=_sizes, default="1024,2048,4096,8192,16384")
    b.add_argument("--repeats", type=_positive_int, default=5)
    b.set_defaults(fn=cmd_bench)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.cmd == "gen" and args.dim < _GEN_MIN_DIM.get(args.family, args.dim):
        parser.error(
            f"argument --dim: {args.family} needs d >= {_GEN_MIN_DIM[args.family]}: "
            f"{str(args.dim)!r}"
        )
    try:
        return args.fn(args)
    except (SkelreconError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2 if isinstance(exc, (ValueError, OSError)) else 1


if __name__ == "__main__":
    sys.exit(main())
