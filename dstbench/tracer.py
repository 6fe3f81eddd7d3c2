"""Outside-in tracing of dstlab, layer by layer.

The tracer wraps public functions of the dstlab modules from here, without
touching the package.  Each wrapped function is rebound in every namespace
that holds it (module globals, class attributes, and module-level dicts such
as ``verify.SUITES``), so a call made through any import path is seen.

Two kinds of hook:

* span: a recorded interval with a name, start, end, parent span and unit
  id.  Used where calls are few (identity checks, suites, CLI commands).
* leaf: calls, busy seconds and counters, aggregated per (name, innermost
  open span).  Used where calls are many (kernel products, RK4 steps),
  so that tracing stays in memory without a record per call.

Spans are kept in memory and written out by the caller when the run ends.
"""
from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager

clock = time.perf_counter

SPAN = "span"
LEAF = "leaf"

# The checks of the quantum ladder, with the site counts each runs at.
LADDER_CHECKS = (
    ("rtt_residual", (1, 2, 3)),
    ("tau_commutes", (1, 2, 3)),
    ("abd_commutation_residual", (1, 2)),
    ("q_reflection_dressed", (1, 2)),
    ("hq_extract", (1, 2, 3)),
    ("hq_classical_limit_residual", (2,)),
)
# Span-name prefixes of the ladder checks; a check called inside another is
# part of the outer check's time, not of its own.
CHECK_PREFIXES = tuple(f"quantum.{check}.n" for check, _ in LADDER_CHECKS)
SUITE_NAMES = ("classical", "rmatrix", "backlund", "quantum", "baxter")
REGIME_LABELS = ("periodic", "quasiperiodic", "open")
SIMULATE_UNITS = (("periodic", 6), ("quasi", 6), ("open", 6), ("periodic", 24))
KERNEL_LEAVES = ("kernel.mul_into", "kernel.add_into", "kernel.trim")


def _arg(args, kwargs, i, key):
    return args[i] if len(args) > i else kwargs[key]


def _site_name(prefix):
    return lambda a, k: f"{prefix}.n{_arg(a, k, 0, 'n_sites')}"


def _dressed_terms(result):
    return {"terms": sum(len(w.terms) for e in result.entries() for w in e.c)}


def hook_table():
    """(module, owner class or None, function attribute, kind, name, result
    counter).  ``name`` is a string or a function of (args, kwargs).  The
    kernel's own hooks are made by Tracer.wrap_kernel."""
    q = "dstlab.quantum"
    table = [
        ("dstlab.weyl", "WeylOp", "__mul__", LEAF, "weyl.WeylOp.mul", None),
        ("dstlab.weyl", "WeylOp", "apply", LEAF, "weyl.WeylOp.apply", None),
        ("dstlab.poly", "Poly", "__mul__", LEAF, "poly.Poly.mul", None),
        ("dstlab.poly", "Mat2", "__matmul__", LEAF, "poly.Mat2.matmul", None),
        ("dstlab.lattice", None, "step_rk4", LEAF, "lattice.step_rk4", None),
        ("dstlab.lattice", None, "eom", LEAF, "lattice.eom", None),
        ("dstlab.lattice", "LatticeState", "__init__", LEAF,
         "lattice.LatticeState.init", None),
        ("dstlab.monodromy", None, "generator", LEAF,
         lambda a, k: f"monodromy.generator.{_arg(a, k, 1, 'bc').label}", None),
        ("dstlab.monodromy", None, "conserved_coeffs", LEAF,
         "monodromy.conserved_coeffs", None),
        (q, None, "dressed_U_op", SPAN, _site_name("quantum.dressed_U_op"),
         _dressed_terms),
        (q, None, "q_reflection_minus", SPAN, "quantum.q_reflection_minus", None),
        (q, None, "q_reflection_plus", SPAN, "quantum.q_reflection_plus", None),
        ("dstlab.rmatrix", None, "cism2_residual_U", SPAN,
         "rmatrix.cism2_residual_U", None),
        ("dstlab.backlund", None, "bt_solve", SPAN, "backlund.bt_solve", None),
        ("dstlab.baxter", None, "bethe_solve", SPAN, "baxter.bethe_solve", None),
        ("dstlab.baxter", None, "eigen_membership_residual", SPAN,
         "baxter.eigen_membership_residual", None),
        ("dstlab.verify", None, "run_suites", SPAN, "verify.run_suites", None),
        ("dstlab.verify", None, "conservation_run", SPAN,
         lambda a, k: f"verify.conservation_run.{_arg(a, k, 1, 'bc').label}", None),
        ("dstlab.cli", None, "_dump", SPAN, "verify.report_writer", None),
        ("dstlab.cli", None, "main", SPAN, "cli.main", None),
        ("dstlab.cli", None, "cmd_verify", SPAN, "cli.verify", None),
        ("dstlab.cli", None, "cmd_simulate", SPAN,
         lambda a, k: "cli.simulate.{0.bc}-n{0.n}".format(_arg(a, k, 0, "args")), None),
    ]
    for check, _ in LADDER_CHECKS:
        table.append((q, None, check, SPAN, _site_name(f"quantum.{check}"), None))
    for suite in SUITE_NAMES:
        table.append(("dstlab.verify", None, f"suite_{suite}", SPAN,
                      f"verify.suite.{suite}", None))
    return table


class Tracer:
    """In-memory spans and leaf aggregates for one traced pass."""

    def __init__(self):
        self.spans = []      # [span id, name, unit id, parent id, start, end]
        self.counters = {}   # span id -> {counter: value}
        self.leaves = {}     # (name, span id) -> [calls, seconds, {counter: value}]
        self.stack = []
        self.unit = None
        self._depth = {}

    # -- recording ------------------------------------------------------
    def open(self, name):
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([sid, name, self.unit, parent, clock(), None])
        self.stack.append(sid)
        return sid

    def close(self, sid, counters=None):
        self.spans[sid][5] = clock()
        self.stack.pop()
        if counters:
            self.counters[sid] = counters

    def _leaf(self, name):
        key = (name, self.stack[-1] if self.stack else None)
        rec = self.leaves.get(key)
        if rec is None:
            rec = self.leaves[key] = [0, 0.0, {}]
        return rec

    def add(self, name, counter, value):
        """Add to a counter of the named leaf in the innermost open span."""
        extra = self._leaf(name)[2]
        extra[counter] = extra.get(counter, 0) + value

    # -- wrappers ---------------------------------------------------------
    def wrap_span(self, fn, name, counter_fn=None):
        tracer = self

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            sid = tracer.open(label)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(sid)
                raise
            tracer.close(sid, counter_fn(result) if counter_fn else None)
            return result
        traced.__wrapped__ = fn
        return traced

    def wrap_leaf(self, fn, name):
        tracer = self
        depth = self._depth

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            rec = tracer._leaf(label)
            rec[0] += 1
            if depth.get(label):
                return fn(*args, **kwargs)
            depth[label] = 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[1] += clock() - t0
                depth[label] = 0
        traced.__wrapped__ = fn
        return traced

    def wrap_kernel(self, kmod):
        """Kernel leaves with their work counters: term pairs for products,
        terms inspected and dropped for trims."""
        tracer = self
        mul_into, add_into, trim = kmod.mul_into, kmod.add_into, kmod.trim

        def traced_mul_into(out, ta, tb, n, factor=1):
            rec = tracer._leaf("kernel.mul_into")
            rec[0] += 1
            extra = rec[2]
            extra["term_pairs"] = extra.get("term_pairs", 0) + len(ta) * len(tb)
            t0 = clock()
            try:
                return mul_into(out, ta, tb, n, factor)
            finally:
                rec[1] += clock() - t0

        def traced_add_into(out, t, factor=1):
            rec = tracer._leaf("kernel.add_into")
            rec[0] += 1
            t0 = clock()
            try:
                return add_into(out, t, factor)
            finally:
                rec[1] += clock() - t0

        def traced_trim(t):
            rec = tracer._leaf("kernel.trim")
            rec[0] += 1
            before = len(t)
            t0 = clock()
            try:
                return trim(t)
            finally:
                rec[1] += clock() - t0
                extra = rec[2]
                extra["inspected"] = extra.get("inspected", 0) + before
                extra["dropped"] = extra.get("dropped", 0) + before - len(t)

        return {"mul_into": traced_mul_into, "add_into": traced_add_into,
                "trim": traced_trim}

    def wrap_state_init(self, fn):
        """LatticeState.__init__, also counting the states built inside RK4 steps."""
        tracer = self
        depth = self._depth

        def traced(*args, **kwargs):
            tracer._leaf("lattice.LatticeState.init")[0] += 1
            if depth.get("lattice.step_rk4"):
                tracer.add("lattice.step_rk4", "states", 1)
            return fn(*args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    # -- installation -------------------------------------------------------
    @contextmanager
    def installed(self):
        """Patch every hook into every dstlab namespace; restore on exit."""
        undo = []
        try:
            _install(self, undo)
            yield self
        finally:
            for container, key, old in reversed(undo):
                if isinstance(container, dict):
                    container[key] = old
                else:
                    setattr(container, key, old)


def _dstlab_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "dstlab" or name.startswith("dstlab."))]


def _rebind(modules, old, new, undo):
    """Replace ``old`` by ``new`` wherever a dstlab module binds it."""
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is old:
                undo.append((mod, key, old))
                setattr(mod, key, new)
            elif isinstance(value, dict) and not key.startswith("__"):
                for dkey, dvalue in list(value.items()):
                    if dvalue is old:
                        undo.append((value, dkey, old))
                        value[dkey] = new


def _install(tracer, undo):
    table = hook_table()
    for modname in {row[0] for row in table}:
        importlib.import_module(modname)
    modules = _dstlab_modules()
    weyl, quantum = sys.modules["dstlab.weyl"], sys.modules["dstlab.quantum"]
    kernels = {id(m): m for m in (weyl._kernel, quantum._kernel)}
    for kmod in kernels.values():
        for attr, new in tracer.wrap_kernel(kmod).items():
            _rebind(modules, getattr(kmod, attr), new, undo)

    for modname, owner, attr, kind, name, counter_fn in table:
        mod = sys.modules[modname]
        if owner is not None:
            cls = getattr(mod, owner)
            old = vars(cls)[attr]
            if owner == "LatticeState":
                new = tracer.wrap_state_init(old)
            else:
                new = tracer.wrap_leaf(old, name)
            for key, value in list(vars(cls).items()):  # aliases such as Mat2.__mul__
                if value is old:
                    undo.append((cls, key, old))
                    setattr(cls, key, new)
            continue
        old = getattr(mod, attr)
        if kind == SPAN:
            new = tracer.wrap_span(old, name, counter_fn)
        else:
            new = tracer.wrap_leaf(old, name)
        _rebind(modules, old, new, undo)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

class _Tree:
    """Span tree queries: totals of outermost spans, leaf sums in subtrees."""

    def __init__(self, tracer):
        self.t = tracer
        self.children = {}
        for sid, _, _, parent, _, _ in tracer.spans:
            self.children.setdefault(parent, []).append(sid)

    def duration(self, sid):
        s = self.t.spans[sid]
        return s[5] - s[4]

    def outermost(self, name, enclosing=()):
        """Spans of ``name`` with no ancestor of the same name, nor one whose
        name starts with a prefix in ``enclosing``."""
        spans = self.t.spans
        out = []
        for sid, nm, _, parent, _, _ in spans:
            if nm != name:
                continue
            p = parent
            while p is not None and not (spans[p][1] == name
                                         or spans[p][1].startswith(enclosing)):
                p = spans[p][3]
            if p is None:
                out.append(sid)
        return out

    def subtree(self, sid):
        out, todo = set(), [sid]
        while todo:
            s = todo.pop()
            out.add(s)
            todo.extend(self.children.get(s, ()))
        return out

    def span_s(self, name):
        return sum(self.duration(s) for s in self.outermost(name))

    def leaf(self, name, within=None):
        """(calls, seconds, counters) of a leaf, optionally inside span ids."""
        calls, secs, extra = 0, 0.0, {}
        for (nm, sid), (c, s, e) in self.t.leaves.items():
            if nm != name or (within is not None and sid not in within):
                continue
            calls += c
            secs += s
            for k, v in e.items():
                extra[k] = extra.get(k, 0) + v
        return calls, secs, extra

    def kernel_s(self, within):
        return sum(self.leaf(nm, within)[1] for nm in KERNEL_LEAVES)

    def self_times(self):
        """Self seconds per span name: duration minus child-span coverage."""
        out = {}
        for sid, nm, _, _, _, _ in self.t.spans:
            own = self.duration(sid) - sum(self.duration(c)
                                           for c in self.children.get(sid, ()))
            out[nm] = out.get(nm, 0.0) + own
        return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, csv_rows=0, csv_bytes=0, report_bytes=0, micro=None):
    """Per-layer metric values {name: (value, unit)} from one traced pass."""
    tree = _Tree(tracer)
    m = {}

    def put(name, value, unit):
        m[name] = (value if unit in ("count", "bytes") else float(value), unit)

    calls, secs, extra = tree.leaf("kernel.mul_into")
    pairs = extra.get("term_pairs", 0)
    put("kernel.mul_into.calls", calls, "count")
    put("kernel.mul_into.term_pairs", pairs, "count")
    put("kernel.mul_into.s", secs, "s")
    put("kernel.mul_into.pairs_per_s", _ratio(pairs, secs), "1/s")
    calls, secs, _ = tree.leaf("kernel.add_into")
    put("kernel.add_into.calls", calls, "count")
    put("kernel.add_into.s", secs, "s")
    calls, secs, extra = tree.leaf("kernel.trim")
    put("kernel.trim.calls", calls, "count")
    put("kernel.trim.s", secs, "s")
    put("kernel.trim.dropped_frac",
        _ratio(extra.get("dropped", 0), extra.get("inspected", 0)), "ratio")
    for n in (1, 2, 3):
        put(f"kernel.micro.n{n}.pairs_per_s", (micro or {}).get(n, 0.0), "1/s")

    for leaf in ("weyl.WeylOp.mul", "weyl.WeylOp.apply",
                 "poly.Mat2.matmul", "poly.Poly.mul"):
        calls, secs, _ = tree.leaf(leaf)
        put(f"{leaf}.calls", calls, "count")
        put(f"{leaf}.s", secs, "s")

    for check, sites in LADDER_CHECKS:
        for n in sites:
            name = f"quantum.{check}.n{n}"
            spans = tree.outermost(name, CHECK_PREFIXES)
            total = sum(tree.duration(s) for s in spans)
            kernel = sum(tree.kernel_s(tree.subtree(s)) for s in spans)
            put(f"{name}.s", total, "s")
            put(f"{name}.self_s", total - kernel, "s")
    for n in (1, 2):
        terms = [tracer.counters[s]["terms"]
                 for s in tree.outermost(f"quantum.dressed_U_op.n{n}")
                 if s in tracer.counters]
        put(f"quantum.dressed_U_op.n{n}.terms", max(terms, default=0), "count")

    calls, secs, extra = tree.leaf("lattice.step_rk4")
    put("lattice.step_rk4.calls", calls, "count")
    put("lattice.step_rk4.s", secs, "s")
    put("lattice.step_rk4.steps_per_s", _ratio(calls, secs), "1/s")
    put("lattice.states_per_step", _ratio(extra.get("states", 0), calls), "ratio")
    calls, secs, _ = tree.leaf("lattice.eom")
    put("lattice.eom.calls", calls, "count")
    put("lattice.eom.s", secs, "s")
    put("lattice.LatticeState.init.calls",
        tree.leaf("lattice.LatticeState.init")[0], "count")

    for label in REGIME_LABELS:
        calls, secs, _ = tree.leaf(f"monodromy.generator.{label}")
        put(f"monodromy.generator.{label}.calls", calls, "count")
        put(f"monodromy.generator.{label}.s", secs, "s")
    in_simulate = set()
    for bc, n in SIMULATE_UNITS:
        for s in tree.outermost(f"cli.simulate.{bc}-n{n}"):
            in_simulate |= tree.subtree(s)
    sim_calls = sum(tree.leaf(f"monodromy.generator.{label}", in_simulate)[0]
                    for label in REGIME_LABELS)
    put("monodromy.generator.calls_per_sample", _ratio(sim_calls, csv_rows), "ratio")
    put("monodromy.conserved_coeffs.s", tree.leaf("monodromy.conserved_coeffs")[1], "s")

    for suite in SUITE_NAMES:
        put(f"verify.suite.{suite}.s", tree.span_s(f"verify.suite.{suite}"), "s")
    for label in REGIME_LABELS:
        put(f"verify.conservation_run.{label}.s",
            tree.span_s(f"verify.conservation_run.{label}"), "s")
    put("verify.report_writer.s", tree.span_s("verify.report_writer"), "s")
    put("verify.report.bytes", report_bytes, "bytes")

    put("rmatrix.cism2_residual_U.s", tree.span_s("rmatrix.cism2_residual_U"), "s")
    put("backlund.bt_solve.calls", len(tree.outermost("backlund.bt_solve")), "count")
    put("backlund.bt_solve.s", tree.span_s("backlund.bt_solve"), "s")
    put("baxter.bethe_solve.s", tree.span_s("baxter.bethe_solve"), "s")
    put("baxter.eigen_membership_residual.s",
        tree.span_s("baxter.eigen_membership_residual"), "s")

    for bc, n in SIMULATE_UNITS:
        put(f"cli.simulate.{bc}-n{n}.s", tree.span_s(f"cli.simulate.{bc}-n{n}"), "s")
    put("cli.simulate.csv.bytes", csv_bytes, "bytes")
    return m


def dump(tracer):
    """JSON-ready spans, leaf aggregates and self times."""
    return {
        "spans": [{"id": sid, "name": name, "unit": unit, "parent": parent,
                   "start": t0, "end": t1, **tracer.counters.get(sid, {})}
                  for sid, name, unit, parent, t0, t1 in tracer.spans],
        "leaves": [{"name": name, "span": sid, "calls": c, "s": s, **extra}
                   for (name, sid), (c, s, extra) in tracer.leaves.items()],
        "self_s": _Tree(tracer).self_times(),
    }
