"""Spans and counters at skelrecon's module boundaries, for the traced run.

:meth:`Tracer.install` replaces each public function listed in
``BOUNDARIES`` wherever a skelrecon module binds it, so calls from other
modules and from the CLI go through a wrapper that records a span (name,
start, end, parent, job id); cross-module calls therefore nest.  The
program's source is untouched, and :meth:`Tracer.uninstall` puts every
original back.  Untraced runs never install anything.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

from skelrecon.errors import SkelreconError
from skelrecon.lattice import PolytopeSpec
from skelrecon.recon2 import FrameGraph

LAYERS = ("cli", "textio", "constructions", "lattice", "graphs", "iso", "recon2", "recong")

_FAMILY_SPAN = {
    "u_minus_v": "recong.family_u",
    "v_minus_u": "recong.family_v",
    "uv": "recong.family_both",
}


def _faces(c, args, result):
    c["lattice.faces"] += len(result.rank_of)


def _bytes_in(c, args, result):
    c["textio.bytes_in"] += len(args[0].encode())


def _feasible(c, args, result):
    c["graphs.feasible_true"] += bool(result)


def _dp_states(c, args, result):
    c["graphs.dp_states"] += 1 << args[0].n


def _cycles(c, args, result):
    c["graphs.cycles"] += len(result)


def _regions(c, args, result):
    amb = result.ambiguity
    c["recon2.regions"] += len(amb.completions[0] if amb is not None else result.facets)


# (module, function, span name or name-from-arguments, counter update)
BOUNDARIES = [
    ("cli", "main", "cli.main", None),
    ("textio", "parse_spec", "textio.parse", _bytes_in),
    ("textio", "parse_skeleton", "textio.parse", _bytes_in),
    ("textio", "parse_edge_list", "textio.parse", _bytes_in),
    ("textio", "format_spec", "textio.format", None),
    ("textio", "format_skeleton", "textio.format", None),
    ("textio", "format_edge_list", "textio.format", None),
    *[
        ("constructions", f, "constructions.build", None)
        for f in ("q1", "q2", "simplex", "cube", "polygon_prism", "pyramid",
                  "bipyramid", "multifold_pyramid")
    ],
    ("constructions", "truncate", "constructions.truncate", None),
    ("constructions", "pullback_facets", "constructions.pullback", None),
    ("lattice", "build_face_lattice", "lattice.build", _faces),
    ("lattice", "k_skeleton", "lattice.skeleton", None),
    ("lattice", "classify_vertices", "lattice.classify", None),
    ("lattice", "validate", "lattice.validate", None),
    ("graphs", "k_connected", "graphs.k_connected", None),
    ("graphs", "is_feasible", "graphs.is_feasible", _feasible),
    ("graphs", "min_two_face_score", "graphs.dp", _dp_states),
    ("graphs", "induced_cycles", "graphs.induced_cycles", _cycles),
    ("iso", "isomorphic", "iso.isomorphic", None),
    ("recon2", "reconstruct", "recon2.reconstruct", _regions),
    ("recong", "max_two_system", "recong.max_two_system", None),
    ("recong", "reconstruct_one_nonsimple", "recong.one_nonsimple", None),
    ("recong", "facet_families", "recong.families", None),
    ("recong", "find_facets_avoiding",
     lambda args, kwargs: _FAMILY_SPAN[args[4] if len(args) > 4 else kwargs["mode"]], None),
    ("recong", "find_facets_empty", "recong.family_neither", None),
    ("recong", "reconstruct_two_nonsimple", "recong.two_nonsimple", None),
    ("recong", "reconstruct_two_nonsimple_via_truncation", "recong.truncation", None),
]

# Generators get one span per item drawn, so consumer time between items
# stays with the consumer.
GENERATORS = [
    ("graphs", "enumerate_acyclic_orientations", "graphs.enumerate", "graphs.orientations"),
]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Keeps spans and counters in memory; ``job`` tags the spans opened."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job]
        self.counters: Counter = Counter()
        self.job = None
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.job])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, exc: BaseException | None = None):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        if isinstance(exc, SkelreconError):
            # Count a typed error once, where it leaves its layer.
            parent = span[3]
            layer = layer_of(span[0])
            if parent is None or layer_of(self.spans[parent][0]) != layer:
                self.counters[layer + ".errors"] += 1

    def record(self, name: str, start: float, end: float):
        """Add a root span measured outside the wrappers (a probe)."""
        self.spans.append([name, start, end, None, None])

    def _wrap(self, fn, name, count):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(idx, exc)
                raise
            tracer._close(idx)
            if count is not None:
                count(tracer.counters, args, result)
            return result

        return traced

    def _wrap_generator(self, fn, name, counter):
        tracer = self

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = tracer._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    tracer._close(idx)
                    return
                except BaseException as exc:
                    tracer._close(idx, exc)
                    raise
                tracer._close(idx)
                tracer.counters[counter] += 1
                yield item

        return traced

    # -- installation ---------------------------------------------------------

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "skelrecon" or name.startswith("skelrecon.")]
        for mod, fn_name, name, count in BOUNDARIES:
            orig = getattr(sys.modules[f"skelrecon.{mod}"], fn_name)
            self._rebind(modules, orig, self._wrap(orig, name, count))
        for mod, fn_name, name, counter in GENERATORS:
            orig = getattr(sys.modules[f"skelrecon.{mod}"], fn_name)
            self._rebind(modules, orig, self._wrap_generator(orig, name, counter))

        spec_init = PolytopeSpec.__init__
        self._undo.append((PolytopeSpec, "__init__", spec_init))
        PolytopeSpec.__init__ = self._wrap(spec_init, "lattice.spec", None)

        fg_init = FrameGraph.__init__
        counters = self.counters

        def counted_init(fg, *args, **kwargs):
            fg_init(fg, *args, **kwargs)
            counters["recon2.frames"] += fg.node_count

        self._undo.append((FrameGraph, "__init__", fg_init))
        FrameGraph.__init__ = counted_init

    def _rebind(self, modules, orig, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own
