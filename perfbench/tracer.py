"""Per-layer tracing of nivatk from outside the package.

`Tracer.install(nk)` wraps the public entry points of each nivatk module,
and `uninstall()` puts the originals back.  Class methods are patched on
the class (`value` of every descriptor, `Lattice.reduce`,
`LaurentPolynomial.__mul__`).  A module-level function is rebound in every
nivatk module that holds it under any name, since `from .x import f` makes
a private copy of the reference (`annihilator.pattern_difference` is
`decomposition.difference`, `cli.pattern_complexity` is
`configurations.pattern_complexity`, and so on).

A span is kept in memory as (job, layer, start, end, parent) and its self
time, the duration minus the time covered by its child spans, is summed per
layer.  The hot leaf spans, `value()` and `Lattice.reduce`, are only summed,
not kept one by one.  A `value()` called inside another `value()` (a `Sum`
evaluating its terms, the quadratic floors of `Mechanical`) is part of the
outer span, so `configurations.value.calls` counts top-level calls.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# layer -> [(module, function name)], each traced as one span of that layer
FUNCTION_LAYERS = {
    "configurations.pattern_complexity": [("configurations", "pattern_complexity")],
    "nivat.nivat_scan": [("nivat", "nivat_scan")],
    "nivat.census": [("nivat", "line_pattern_census"),
                     ("nivat", "disjoint_pattern_line_count")],
    "laurent.apply": [("laurent", "apply")],
    "laurent.line_factorization": [("laurent", "line_factorization")],
    "linalg.nullspace_basis": [("linalg", "nullspace_basis")],
    "linalg.solve_sparse": [("linalg", "solve_sparse")],
    "annihilator.find_annihilator": [("annihilator", "find_annihilator")],
    "annihilator.search": [("annihilator", "search_difference_annihilator")],
    "decomposition.decompose": [("decomposition", "decompose")],
    "tiling.search": [("tiling", "search_periodic_cotiler")],
    "tiling.verify_cotiler": [("tiling", "verify_cotiler")],
    "textio.parse": [("textio", n) for n in ("parse_config", "parse_poly", "parse_tile",
                                             "parse_window", "parse_vectors")],
    "textio.format": [("textio", n) for n in ("format_poly", "format_config", "format_tile")],
    "cli.run": [("cli", "run")],
}
HOT_LAYERS = ("configurations.value", "lattice.reduce")
METHOD_LAYERS = ("laurent.mul",)
SELF_LAYERS = tuple(FUNCTION_LAYERS) + HOT_LAYERS + METHOD_LAYERS


class Tracer:
    def __init__(self):
        self.stack = []            # frames [child time, span id, layer]
        self.active = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = []
        self.job = None
        self.cells = set()
        self.in_value = False
        self._patches = []

    # --- jobs --------------------------------------------------------------------

    def begin_job(self, name):
        self.job = name
        self.cells = set()

    def end_job(self):
        self.counts["configurations.value.cells"] += len(self.cells)
        self.job = None

    # --- spans -------------------------------------------------------------------

    def _span(self, layer, fn, before=None, after=None):
        tr = self

        def traced(*args, **kwargs):
            if before is not None:
                before(tr, *args, **kwargs)
            stack = tr.stack
            sid = len(tr.spans)
            parent = stack[-1][1] if stack else -1
            frame = [0.0, sid, layer]
            tr.spans.append(None)
            stack.append(frame)
            tr.active[layer] += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tr.active[layer] -= 1
                stack.pop()
                dt = t1 - t0
                tr.self_s[layer] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                tr.spans[sid] = (tr.job, layer, t0, t1, parent)
            if after is not None:
                after(tr, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _hot(self, layer, fn, is_value):
        tr = self
        calls = layer + ".calls"

        def traced(obj, v):
            if is_value:
                if tr.in_value:
                    return fn(obj, v)
                tr.in_value = True
                tr.cells.add(v if type(v) is tuple else tuple(v))
            tr.counts[calls] += 1
            stack = tr.stack
            frame = [0.0, stack[-1][1] if stack else -1, layer]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(obj, v)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                tr.self_s[layer] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if is_value:
                    tr.in_value = False

        traced.__wrapped__ = fn
        return traced

    def _counter(self, fn, when_active, counter):
        tr = self

        def counted(*args, **kwargs):
            if tr.active[when_active]:
                tr.counts[counter] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # --- installation ------------------------------------------------------------

    def _set(self, owner, name, new):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def _rebind(self, fn, new):
        """Replace fn by new in every loaded nivatk module, under any name."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "nivatk" or mod_name.startswith("nivatk.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._set(mod, attr, new)

    def install(self, nk):
        mods = {name: sys.modules[f"nivatk.{name}"] for name in
                ("configurations", "nivat", "laurent", "linalg", "annihilator",
                 "decomposition", "tiling", "textio", "cli", "lattice")}
        hooks = {
            "nivat_scan": dict(after=_count_blocks),
            "apply": dict(before=_count_apply),
            "nullspace_basis": dict(before=_count_nullspace),
            "solve_sparse": dict(before=_count_solve),
            "find_annihilator": dict(before=_count_anchors),
        }
        for layer, entries in FUNCTION_LAYERS.items():
            for mod, name in entries:
                fn = getattr(mods[mod], name)
                self._rebind(fn, self._span(layer, fn, **hooks.get(name, {})))

        configurations = mods["configurations"]
        for cls in vars(configurations).values():
            if (isinstance(cls, type) and issubclass(cls, configurations.Configuration)
                    and cls is not configurations.Configuration and "value" in vars(cls)):
                self._set(cls, "value",
                          self._hot("configurations.value", vars(cls)["value"], True))

        Lattice = mods["lattice"].Lattice
        self._set(Lattice, "reduce", self._hot("lattice.reduce", Lattice.reduce, False))
        self._set(Lattice, "__init__", self._counter(
            Lattice.__init__, "tiling.search", "tiling.search.lattices_tried"))

        LP = mods["laurent"].LaurentPolynomial
        mul = self._span("laurent.mul", LP.__mul__, before=_count_mul)
        self._set(LP, "__mul__", mul)
        self._set(LP, "__rmul__", mul)

        difference = mods["annihilator"].pattern_difference
        self._rebind(difference, self._counter(
            difference, "annihilator.search", "annihilator.search.nodes"))

    def uninstall(self):
        while self._patches:
            owner, name, old = self._patches.pop()
            setattr(owner, name, old)

    def recorded_spans(self):
        return [s for s in self.spans if s is not None]


def _count_blocks(tr, rows):
    tr.counts["nivat.distinct_blocks"] += sum(r.lower_bound_count for r in rows)


def _count_apply(tr, f, c, window):
    tr.counts["laurent.apply.cells"] += len(window) * len(f.terms)


def _count_nullspace(tr, rows):
    tr.counts["linalg.nullspace_basis.entries"] += len(rows) * (len(rows[0]) if rows else 0)
    if tr.stack and tr.stack[-1][2] == "annihilator.find_annihilator":
        tr.counts["annihilator.rows"] += len(rows)


def _count_solve(tr, rows, rhs, ncols):
    tr.counts["linalg.solve_sparse.nnz"] += sum(len(r) for r in rows)
    tr.counts["linalg.solve_sparse.unknowns"] += ncols


def _count_anchors(tr, c, shape, sample, verify):
    tr.counts["annihilator.anchors_sampled"] += len(sample)


def _count_mul(tr, a, b):
    tr.counts["laurent.mul.calls"] += 1
    other = b.terms if hasattr(b, "terms") else (0,)
    tr.counts["laurent.mul.term_pairs"] += len(a.terms) * len(other)
