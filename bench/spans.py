"""Spans and counters at the module boundaries of toralg, recorded from
outside the package.

A traced round installs wrappers on the public functions listed in
SPANS and COUNTS, runs, and restores the originals. Each wrapper is put
into every namespace that bound the original object: the defining
module, every toralg module that imported the name, and every class
attribute that aliases it (RepOperator.__call__ is RepOperator.apply).

A span records its name, start, end and parent. Self time is the span
minus its children. Hot leaf functions (LinComb add and scale, the
scalar constructor Q, ...) are only counted, so that timing them does
not swamp the run; their time stays inside their callers' self time.
"""

from __future__ import annotations

import json
import re
import sys
from array import array

# (module, qualified name, span name): timed wrappers
SPANS = [
    ("toralg.cli", "action_suite", "cli.action_suite"),
    ("toralg.cli", "char_suite_thm56", "cli.char_suite_thm56"),
    ("toralg.cli", "scan_suite", "cli.scan_suite"),
    ("toralg.cli", "toroidal_suite", "cli.toroidal_suite"),
    ("toralg.cli", "embedding_suite", "cli.embedding_suite"),
    ("toralg.cli", "sugawara_suite", "cli.sugawara_suite"),
    ("toralg.rep", "RepOperator.apply", "rep.apply"),
    ("toralg.rep", "verify_commutator", "rep.verify_commutator"),
    ("toralg.rep", "verify_virasoro_rank", "rep.verify_virasoro_rank"),
    ("toralg.rep", "singular_scan", "rep.singular_scan"),
    ("toralg.vertex", "VertexSpace.mom", "vertex.mom"),
    ("toralg.fock", "base_weight", "fock.base_weight"),
    ("toralg.qlinalg", "nullspace", "qlinalg.nullspace"),
    ("toralg.lie_table", "build_slN_table", "lie_table.build_slN_table"),
    ("toralg.toroidal", "bracket", "toroidal.bracket"),
    ("toralg.toroidal", "invariant_form", "toroidal.invariant_form"),
    ("toralg.hvir", "VermaModule.apply", "hvir.verma_apply"),
    ("toralg.hvir", "SugawaraOperator.apply_mode", "hvir.sugawara_apply_mode"),
    ("toralg.hvir", "symbolic_bracket", "hvir.symbolic_bracket"),
    ("toralg.characters", "colored_partition_series", "characters.series"),
    ("toralg.characters", "oscillator_dimensions", "characters.series"),
]

# (module, qualified name, counter name): call counts only
COUNTS = [
    ("toralg.rep", "represent", "rep.represent"),
    ("toralg.fock", "oscillator_apply", "fock.oscillator_apply"),
    ("toralg.toroidal", "kreduce", "toroidal.kreduce"),
    ("toralg.linear", "LinComb.__add__", "linear.add"),
    ("toralg.linear", "LinComb.scale", "linear.scale"),
    ("toralg.scalar", "Q", "scalar.q"),
]

ROOT = "bench.round"


def check_span_name(name: str) -> str:
    """Span name of one check of a CLI suite, usable in a metric name."""
    return "cli.check." + re.sub(r"[^A-Za-z0-9_.-]+", "_", name)


def _resolve(modname: str, qualname: str):
    obj = sys.modules[modname]
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def _bindings(orig):
    """Every (namespace, attribute) in the toralg package bound to orig."""
    found = []
    for modname, mod in sorted(sys.modules.items()):
        if modname != "toralg" and not modname.startswith("toralg."):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                found.append((mod, attr))
            elif isinstance(val, type) and val.__module__ == modname:
                for cattr, cval in list(vars(val).items()):
                    if cval is orig:
                        found.append((val, cattr))
    return found


class Tracer:
    """Spans kept in memory as parallel arrays, with running totals per
    name: calls, inclusive time of the outermost span of that name (so
    recursion is not counted twice), self time and raised exceptions.
    Times are read from clock, in seconds."""

    def __init__(self, clock):
        self.clock = clock
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = []
        self.inclusive = []
        self.self_time = []
        self.raised = []
        self._active = []
        self._stack = []
        self._child = []
        self.counts = {name: 0 for _m, _q, name in COUNTS}
        self.matrix = {"rows": 0, "cols": 0, "nonzeros": 0}
        self.spaces = []
        self.bindings = {}
        self._patches = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            for col in (self.calls, self.raised, self._active):
                col.append(0)
            self.inclusive.append(0.0)
            self.self_time.append(0.0)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(i)
        self._child.append(0.0)
        self._active[nid] += 1
        self.span_start.append(self.clock())
        return i

    def close(self, i: int):
        t = self.clock()
        self.span_end[i] = t
        dur = t - self.span_start[i]
        self._stack.pop()
        nid = self.span_name[i]
        self.self_time[nid] += dur - self._child.pop()
        self.calls[nid] += 1
        self._active[nid] -= 1
        if not self._active[nid]:
            self.inclusive[nid] += dur
        if self._child:
            self._child[-1] += dur

    # -- wrappers -------------------------------------------------------------

    def _span(self, fn, name, before=None):
        nid = self.name_id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            i = tracer.open(nid)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.raised[nid] += 1
                raise
            finally:
                tracer.close(i)
        return wrapper

    def _count(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _matrix_sizes(self, mat, cols=None):
        self.matrix["rows"] += len(mat)
        self.matrix["cols"] += len(mat[0]) if mat else (cols or 0)
        self.matrix["nonzeros"] += sum(1 for row in mat for x in row if x != 0)

    def _run_checks(self, run_checks):
        def wrapper(tasks):
            return run_checks([(name, self._span(fn, check_span_name(name)))
                               for name, fn in tasks])
        return wrapper

    def _space_init(self, init):
        spaces = self.spaces

        def wrapper(space, *args, **kwargs):
            init(space, *args, **kwargs)
            spaces.append(space)
        return wrapper

    def _patch(self, modname, qualname, make, label):
        orig = _resolve(modname, qualname)
        wrapped = make(orig)
        sites = _bindings(orig)
        for owner, attr in sites:
            self._patches.append((owner, attr, orig))
            setattr(owner, attr, wrapped)
        self.bindings.setdefault(label, []).extend(
            f"{owner.__module__}.{owner.__qualname__}.{attr}"
            if isinstance(owner, type) else f"{owner.__name__}.{attr}"
            for owner, attr in sites)

    def install(self):
        """Wrap every boundary; undone by uninstall()."""
        for modname, qualname, name in SPANS:
            before = self._matrix_sizes if name == "qlinalg.nullspace" else None
            self._patch(modname, qualname,
                        lambda fn, name=name, before=before:
                        self._span(fn, name, before), name)
        for modname, qualname, name in COUNTS:
            self._patch(modname, qualname,
                        lambda fn, name=name: self._count(fn, name), name)
        self._patch("toralg.cli", "run_checks", self._run_checks,
                    "cli.run_checks")
        self._patch("toralg.vertex", "VertexSpace.__init__",
                    self._space_init, "vertex.VertexSpace.__init__")

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results ----------------------------------------------------------------

    def per_name(self, name):
        nid = self._ids.get(name)
        if nid is None:
            return {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0, "raised": 0}
        return {"calls": self.calls[nid], "inclusive_s": self.inclusive[nid],
                "self_s": self.self_time[nid], "raised": self.raised[nid]}

    def cache_entries(self) -> int:
        return sum(len(space._cache) for space in self.spaces)

    def write(self, stem, meta):
        """Write the spans to <stem>.spans as four whole columns, one
        after the other, in native byte order: int32 name index, int32
        parent span index (-1 for none), float64 start, float64 end.
        <stem>.json holds meta, the names, counters, per-name totals and
        the patched bindings."""
        n = len(self.span_name)
        with open(f"{stem}.spans", "wb") as fh:
            for col in (self.span_name, self.span_parent,
                        self.span_start, self.span_end):
                col.tofile(fh)
        doc = {"meta": meta, "spans": n, "byteorder": sys.byteorder,
               "columns": ["name:int32", "parent:int32",
                           "start:float64", "end:float64"],
               "names": self.names,
               "per_name": {name: self.per_name(name) for name in self.names},
               "counts": self.counts, "matrix": self.matrix,
               "cache_entries": self.cache_entries(),
               "bindings": self.bindings}
        with open(f"{stem}.json", "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
