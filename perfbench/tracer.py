"""Spans around the public functions of the lame3trf modules.

A traced run replaces every binding of a module's public function (its own
module attribute and each `from ... import` copy in the other modules) with a
wrapper.  Most wrappers record one span per call: name, parent span, start
and end.  Leaf functions hit thousands of times per operation (`pochhammer`,
`gauss_2f1`, ...) only keep a call count and summed time; that time is also
charged to the span they were called from, so its self time excludes them.

Spans live in memory for one operation.  `op_metrics` folds them into the
per-layer numbers and `Tracer.reset` drops them before the next operation.

Run as a script, this file is the traced twin of `python -m lame3trf.cli`:
it installs the tracer, calls `lame3trf.cli.main` with its arguments, and
writes the operation's per-layer numbers to stderr after TRACE_MARKER.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import sys
from time import perf_counter

MODULES = ("cli", "generating_functions", "integral_forms", "lame_series",
           "scalar_kernels")

# Hot functions that call no other public function: counted, not spanned.
LEAVES = frozenset({
    "scalar_kernels.pochhammer",
    "scalar_kernels.gauss_2f1",
    "scalar_kernels.jacobi_sn_cn_dn",
    "lame_series.recurrence_coeffs",
    "integral_forms.s_partial_product",
    "integral_forms.diag_operator_multipliers",
})

TRACE_MARKER = "perfbench-trace "

NO_PARENT = -1


class Tracer:
    """Wraps the public functions of the lame3trf modules while installed."""

    def __init__(self):
        self.spans = []  # [name, parent, start, end, leaf_s]
        self.leaves = {}  # name -> [calls, seconds]
        self._stack = [NO_PARENT]
        self._in_leaf = [False]
        self._restore = []

    def install(self):
        mods = [importlib.import_module(f"lame3trf.{m}") for m in MODULES]
        wrappers = {}
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(f"{short}.{attr}", fn)
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        return self

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def uninstall(self):
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def reset(self):
        """Drop the spans and leaf counts recorded so far."""
        self.spans.clear()
        self.leaves.clear()
        self._stack[:] = [NO_PARENT]

    def _wrap(self, name, fn):
        spans, stack, in_leaf = self.spans, self._stack, self._in_leaf
        if name in LEAVES:
            leaves = self.leaves

            def counted(*args, **kwargs):
                in_leaf[0] = True
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    in_leaf[0] = False
                    stat = leaves.get(name)
                    if stat is None:
                        stat = leaves[name] = [0, 0.0]
                    stat[0] += 1
                    stat[1] += dt
                    if stack[-1] != NO_PARENT:
                        spans[stack[-1]][4] += dt

            return counted

        order_pos = _order_position(fn)

        def traced(*args, **kwargs):
            if in_leaf[0]:
                raise RuntimeError(f"leaf function called traced {name}")
            label = name
            if order_pos is not None:
                order = kwargs.get("order_n", args[order_pos] if len(args) > order_pos else None)
                label = f"{name}[{order}]"
            rec = [label, stack[-1], 0.0, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()

        return traced


def _order_position(fn):
    """Positional index of an `order_n` parameter, so spans carry the order."""
    params = list(inspect.signature(fn).parameters)
    return params.index("order_n") if "order_n" in params else None


def fold(spans):
    """Per span name: [calls, inclusive seconds, self seconds].

    A span's self time is its duration minus its child spans' durations
    minus the counted leaf time charged to it.
    """
    child = [0.0] * len(spans)
    for _, parent, start, end, _ in spans:
        if parent != NO_PARENT:
            child[parent] += end - start
    out = {}
    for i, (name, _, start, end, leaf_s) in enumerate(spans):
        dur = end - start
        stat = out.setdefault(name, [0, 0.0, 0.0])
        stat[0] += 1
        stat[1] += dur
        stat[2] += dur - child[i] - leaf_s
    return out


def verify_lhs_seconds(spans):
    """Left-side time inside `gf_verify_order`, per order.

    `gf_verify_order` computes its left side in a private helper, so the left
    side is the span's duration minus its `gf_rhs_order` children.
    """
    out = {}
    rhs_child = {}
    for name, parent, start, end, _ in spans:
        if parent != NO_PARENT and name.startswith("generating_functions.gf_rhs_order["):
            rhs_child[parent] = rhs_child.get(parent, 0.0) + end - start
    for i, (name, _, start, end, _) in enumerate(spans):
        if name.startswith("generating_functions.gf_verify_order["):
            order = name[name.index("[") + 1:-1]
            out[order] = out.get(order, 0.0) + end - start - rhs_child.get(i, 0.0)
    return out


def op_metrics(spans, leaves):
    """Per-layer seconds and counts of one operation, keyed by metric name."""
    folded = fold(spans)

    def incl(name):
        return folded.get(name, (0, 0.0, 0.0))[1]

    def calls(name):
        return folded.get(name, (0, 0.0, 0.0))[0]

    def leaf(name):
        return leaves.get(name, (0, 0.0))

    verify_lhs = verify_lhs_seconds(spans)
    gf = "generating_functions"
    m = {}
    for n in ("0", "1", "2"):
        m[f"{gf}.lhs{n}_s"] = incl(f"{gf}.gf_lhs_order[{n}]") + verify_lhs.get(n, 0.0)
        m[f"{gf}.rhs{n}_s"] = incl(f"{gf}.gf_rhs_order[{n}]")
    m[f"{gf}.origin_residue_s"] = incl(f"{gf}.gf_order1_origin_residue")
    m["integral_forms.y_n_term_closed_s"] = incl("integral_forms.y_n_term_closed")
    m["integral_forms.y_n_term_closed.calls"] = calls("integral_forms.y_n_term_closed")
    m["integral_forms.base_series_s"] = incl("integral_forms.base_series_coefficients")
    m["integral_forms.base_series.calls"] = calls("integral_forms.base_series_coefficients")
    m["integral_forms.quadrature_grid_s"] = incl("integral_forms.make_quadrature_grid")
    m["integral_forms.contour_s"] = incl("integral_forms.contour_integral")
    m["scalar_kernels.pochhammer_s"] = leaf("scalar_kernels.pochhammer")[1]
    m["scalar_kernels.pochhammer.calls"] = leaf("scalar_kernels.pochhammer")[0]
    m["scalar_kernels.gauss_2f1_s"] = leaf("scalar_kernels.gauss_2f1")[1]
    m["scalar_kernels.lemma1_s"] = incl("scalar_kernels.lemma1_identity")
    m["scalar_kernels.sn_s"] = (leaf("scalar_kernels.jacobi_sn_cn_dn")[1]
                                + folded.get("scalar_kernels.jacobi_sn", (0, 0.0, 0.0))[2])
    m["lame_series.series_s"] = incl("lame_series.series_coefficients")
    m["cli.main_s"] = incl("cli.main")
    for mod in MODULES:
        m[f"{mod}.self_s"] = 0.0
    for name, (_, _, self_s) in folded.items():
        m[f"{name.split('.', 1)[0]}.self_s"] += self_s
    for name, (_, seconds) in leaves.items():
        m[f"{name.split('.', 1)[0]}.self_s"] += seconds
    return m


def _child_main(argv):
    """Traced `lame3trf.cli` call: program output on stdout, trace on stderr."""
    tracer = Tracer().install()
    cli = importlib.import_module("lame3trf.cli")
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        metrics = op_metrics(tracer.spans, tracer.leaves)
        sys.stderr.write(TRACE_MARKER + json.dumps(metrics) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1:]))
