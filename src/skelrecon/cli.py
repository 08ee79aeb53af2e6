"""Command-line front end.

Subcommands: gen (emit fixture incidences), lattice (f-vector and
validation report), skeleton (extract rank <= k), recon2 (facets from a
2-skeleton), recong (facets from a graph), iso (compare two incidences),
verify (run the claim suite over a dimension range), bench (prism scaling
study).  All output is deterministic given inputs and flags; timings are
the only exception and never interleave with result sections.
A module that one subcommand alone needs is imported by that subcommand:
only ``lattice`` loads ``hashlib`` (and with it OpenSSL) for its digest of
the file's bytes, and only ``bench`` loads ``statistics``.

``main(argv)`` may be called many times in one process: the parser is
built on the first call and reused by every later one.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Callable, NamedTuple

from . import constructions as cons
from . import recon2, recong, textio
from .errors import SkelreconError, TooLarge
from .iso import isomorphic
from .lattice import build_face_lattice, classify_vertices, k_skeleton, validate


def _read(path: str) -> str:
    # newline="" keeps the file's line endings, so the text encodes back to
    # the file's bytes; the parsers' str.splitlines reads "\r\n" as one break.
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return fh.read()


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


#: The most vertices ``gen`` builds; ``bench``'s largest prism has 32768.
MAX_GEN_VERTICES = 1 << 16


class _Family(NamedTuple):
    """A ``gen`` family: the least ``--dim`` it reads (None if it reads
    ``--m``), its vertex count found without building it, and its builder."""

    least_dim: int | None
    vertex_count: Callable[[argparse.Namespace], int]
    build: Callable[[argparse.Namespace], cons.PolytopeSpec]


_GEN_FAMILIES = {
    "q1": _Family(3, lambda a: 2 * a.dim, lambda a: cons.q1(a.dim).spec),
    "q2": (_Q2 := _Family(4, lambda a: 2 * a.dim, lambda a: cons.q2(a.dim).spec)),
    "simplex": _Family(2, lambda a: a.dim + 1, lambda a: cons.simplex(a.dim)),
    # Clipped at 2**64 (hence "at least" below): a huge --dim makes no huge int.
    "cube": _Family(2, lambda a: 1 << min(a.dim, 64), lambda a: cons.cube(a.dim)),
    "prism": _Family(None, lambda a: 2 * a.m, lambda a: cons.polygon_prism(a.m)),
    "bipyramid-simplex": _Family(
        3, lambda a: a.dim + 2, lambda a: cons.bipyramid(cons.simplex(a.dim - 1))
    ),
}


def _gen_spec(args) -> "cons.PolytopeSpec":
    family = _GEN_FAMILIES[args.family]
    count = family.vertex_count(args) + args.pyramid
    if count > MAX_GEN_VERTICES:
        raise TooLarge(
            f"{args.family} would have at least {count} vertices, "
            f"above the cap of {MAX_GEN_VERTICES}"
        )
    spec = family.build(args)
    if args.pyramid:
        spec = cons.multifold_pyramid(spec, args.pyramid)
    return spec


def cmd_gen(args) -> int:
    spec = _gen_spec(args)
    _emit(textio.format_spec(spec), args.output)
    return 0


def cmd_lattice(args) -> int:
    """The input's digest, the f-vector and the validation report."""
    import hashlib

    text = _read(args.file)
    lattice = build_face_lattice(textio.parse_spec(text))
    vr = validate(lattice)
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    sys.stdout.write(
        "# command: lattice\n"
        f"# input {args.file} sha256/16 {digest}\n"
        "# f-vector (ranks 0..d-1)\n"
        f"{' '.join(map(str, lattice.f_vector))}\n"
        "# validation\n"
        f"{vr.summary()}\n"
    )
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
            sys.stdout.write(textio.facet_lines(sk.graph.n, completion))
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
    result = recong.reconstruct(g, args.dim, args.method, force=args.force)
    if args.certificate:
        sys.stdout.write("".join(f"# {line}\n" for line in result.certificate))
    # Every PolytopeSpec invariant holds already (see reconstruct).
    _emit(textio.format_facets(args.dim, g.n, result.facets), args.output)
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
            check(
                f"d={d} shared 2-skeleton is ambiguous, parity resolves",
                same
                and out.status == "ambiguous"
                and _by_parity(out.ambiguity.completions) == (l1.facets, l2.facets),
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
        recong.reconstruct(lat_p.graph(), 4).facets == lat_p.facets,
    )
    # "both" raises MethodsDisagree unless the two routes agree.
    lat_t = build_face_lattice(cons.multifold_pyramid(cons.cube(2), 2))
    check(
        "graph reconstruction, two nonsimple vertices (both methods agree)",
        recong.reconstruct(lat_t.graph(), 4).facets == lat_t.facets,
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
    sys.stdout.write(f"{'OK' if failures == 0 else f'{failures} FAILURES'}\n")
    return 0 if failures == 0 else 1


def cmd_bench(args) -> int:
    """Prism scaling study; reports medians, ratios, and a log-log slope."""
    import gc
    import math
    import statistics
    import time

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
    return _at_least(_Q2.least_dim, dims, raw)  # verify builds q2(d)


def _sizes(raw: str) -> list[int]:
    return _at_least(3, _int_list(raw), raw)  # polygon_prism needs m >= 3


def _int_at_least(low: int):
    """The option type of one integer of at least ``low``."""
    return lambda raw: _at_least(low, [_int(raw)], raw)[0]


# Ranks above d-1 depend on the input file: k_skeleton refuses them.
_rank = _int_at_least(1)


def _rank_or_lattice(raw: str) -> int | str:
    return raw if raw == "lattice" else _rank(raw)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: parsing changes none of its state."""
    p = argparse.ArgumentParser(prog="skelrecon", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="generate a fixture incidence file")
    g.add_argument("--family", required=True, choices=list(_GEN_FAMILIES))
    g.add_argument("--dim", type=_int, default=4)
    g.add_argument("--m", type=_int_at_least(3), default=4,  # polygon_prism needs m >= 3
                   help="polygon size for prism")
    g.add_argument("--pyramid", type=_int_at_least(0), default=0, metavar="T",
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
    # graph reconstruction needs d >= 3
    rg.add_argument("--dim", type=_int_at_least(3), required=True)
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
    v.set_defaults(fn=cmd_verify)

    b = sub.add_parser("bench", help="prism scaling study")
    b.add_argument("--sizes", type=_sizes, default="1024,2048,4096,8192,16384")
    b.add_argument("--repeats", type=_int_at_least(1), default=5)
    b.set_defaults(fn=cmd_bench)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.cmd == "gen":
        least = _GEN_FAMILIES[args.family].least_dim
        if least is not None and args.dim < least:
            parser.error(f"argument --dim: {args.family} needs d >= {least}: {str(args.dim)!r}")
    try:
        return args.fn(args)
    except (SkelreconError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2 if isinstance(exc, (ValueError, OSError)) else 1


if __name__ == "__main__":
    sys.exit(main())
