"""Per-layer tracing of the logdiv library from outside it.

``Tracer.install()`` wraps the public functions listed in ``SPANS`` and
rebinds every module or class attribute of the ``logdiv`` package that
holds the same function object, because the modules from-import each
other (``symalg.buchberger`` is ``groebner.buchberger``).  Each wrapper
records a span: its call count and its self time, which is the span's
duration minus the time covered by its child spans.  Counters computed
from arguments and results are taken after the span has ended and are
excluded from every span's self time.  Everything stays in memory;
``metrics()`` reports it at the end.  ``uninstall()`` restores the
original objects, so untraced runs pay nothing.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from time import perf_counter

# (layer, attribute path inside logdiv.<layer>)
SPANS = [
    ("groebner", "buchberger"),
    ("groebner", "syzygies"),
    ("groebner", "normal_form"),
    ("groebner", "in_submodule"),
    ("groebner", "ideal_member"),
    ("groebner", "gb_equal"),
    ("groebner", "graded_min_generators"),
    ("groebner", "ideal_quotient"),
    ("groebner", "eliminate"),
    ("groebner", "local_membership_at_origin"),
    ("symalg", "torsion_test_symk"),
    ("symalg", "module_quotient_by_poly"),
    ("symalg", "grade_criterion"),
    ("symalg", "sym_presentation"),
    ("symalg", "rees_kernel"),
    ("logder", "log_derivations"),
    ("logder", "ann_theta"),
    ("logder", "euler_field"),
    ("logder", "saito_freeness_test"),
    ("logder", "DerivationModule.minimalized"),
    ("linalg", "rref"),
    ("linalg", "kernel_basis"),
    ("linalg", "residual"),
    ("vfilt", "vk_graded_basis"),
    ("vfilt", "logder_generated_graded"),
    ("vfilt", "compare_v0"),
    ("vfilt", "v_membership"),
    ("vfilt", "GradedOperatorSpace.contains"),
    ("weyl", "compose"),
    ("weyl", "apply_op"),
    ("poly", "Polynomial.__mul__"),
    ("poly", "divide_exact"),
    ("grammar", "parse_polynomial"),
    ("grammar", "parse_operator"),
    ("cli", "run"),
    ("cli", "criterion_certificate"),
    ("arrangements", "generic_dn"),
    ("arrangements", "example9_objects"),
    ("arrangements", "lemma19_check"),
    ("arrangements", "prop17_check"),
]

LAYERS = sorted({layer for layer, _ in SPANS})

# Counters measured at layer boundaries: name -> (unit, better).
COUNTERS = {
    "groebner.gens_in": ("count", "lower"),
    "groebner.gens_out": ("count", "lower"),
    "groebner.max_coeff_bits": ("bits", "lower"),
    "groebner.member_ratio": ("ratio", "higher"),
    "symalg.witness_ratio": ("ratio", "higher"),
    "logder.kept_ratio": ("ratio", "higher"),
    "linalg.cells": ("count", "lower"),
    "linalg.max_cells": ("count", "lower"),
    "linalg.rank_ratio": ("ratio", "higher"),
    "vfilt.equal_ratio": ("ratio", "higher"),
}


def span_name(layer, path):
    return f"{layer}.{path}"


def metric_specs():
    """Every per-layer metric the traced run reports, as (name, unit,
    better), in a fixed order."""
    out = []
    for layer, path in SPANS:
        name = span_name(layer, path)
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    for layer in LAYERS:
        out.append((f"{layer}.self_s", "s", "lower"))
    for name, (unit, better) in COUNTERS.items():
        out.append((name, unit, better))
    out.append(("trace.wall_s", "s", "lower"))
    out.append(("trace.overhead_frac", "ratio", "lower"))
    return out


def _coeff_bits(gb):
    bits = 0
    for v in gb.generators:
        for p in v.components:
            for c in p.terms.values():
                bits = max(bits, c.numerator.bit_length(),
                           c.denominator.bit_length())
    return bits


class Tracer:
    def __init__(self):
        self.stats = {span_name(l, p): [0, 0.0] for l, p in SPANS}
        self.counts = dict.fromkeys(
            ["gens_in", "gens_out", "max_coeff_bits", "members",
             "member_tests", "witnesses", "variables_tested", "kept",
             "offered", "cells", "max_cells", "rank", "rows", "equal",
             "compared"], 0)
        self._stack = [0.0]
        self._saved = []

    # -- counters taken from arguments and results --------------------------

    def _count(self, name, args, result):
        c = self.counts
        if name == "groebner.buchberger":
            c["gens_in"] += len(args[0])
            c["gens_out"] += len(result)
            c["max_coeff_bits"] = max(c["max_coeff_bits"], _coeff_bits(result))
        elif name in ("groebner.in_submodule", "groebner.ideal_member"):
            c["member_tests"] += 1
            c["members"] += bool(result)
        elif name == "symalg.torsion_test_symk":
            c["witnesses"] += len(result.witnesses)
            c["variables_tested"] += args[0].base_dim
        elif name == "logder.DerivationModule.minimalized":
            c["offered"] += len(args[0].generators)
            c["kept"] += len(result.generators)
        elif name == "linalg.rref":
            rows = len(args[0])
            cells = rows * args[1]
            c["cells"] += cells
            c["max_cells"] = max(c["max_cells"], cells)
            c["rows"] += rows
            c["rank"] += len(result[1])
        elif name == "vfilt.compare_v0":
            c["compared"] += 1
            c["equal"] += bool(result.equal)

    # -- spans --------------------------------------------------------------

    def _wrap(self, name, fn):
        stat = self.stats[name]
        stack = self._stack
        count = self._count

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                child = stack.pop()
                stat[0] += 1
                stat[1] += perf_counter() - t0 - child
                stack[-1] += perf_counter() - t0
                raise
            t1 = perf_counter()
            child = stack.pop()
            stat[0] += 1
            stat[1] += t1 - t0 - child
            count(name, args, result)
            stack[-1] += perf_counter() - t0
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every function of ``SPANS`` wherever logdiv binds it."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "logdiv" or k.startswith("logdiv.")]
        owners = list(modules)
        for m in modules:
            for v in vars(m).values():
                if inspect.isclass(v) and v.__module__.startswith("logdiv"):
                    owners.append(v)
        for layer, path in SPANS:
            mod = importlib.import_module(f"logdiv.{layer}")
            *outer, attr = path.split(".")
            holder = mod
            for part in outer:
                holder = getattr(holder, part)
            fn = vars(holder)[attr]
            wrapper = self._wrap(span_name(layer, path), fn)
            for owner in dict.fromkeys(owners):
                for key, value in list(vars(owner).items()):
                    if value is fn:
                        self._saved.append((owner, key, fn))
                        setattr(owner, key, wrapper)

    def uninstall(self):
        while self._saved:
            owner, key, fn = self._saved.pop()
            setattr(owner, key, fn)

    # -- report -------------------------------------------------------------

    def metrics(self, scale, traced_wall, untraced_wall):
        """Per-layer metrics of the traced pass.  ``scale`` converts its
        measured seconds to adjusted seconds (run.Outcome.scale),
        ``traced_wall`` is its wall time in adjusted seconds, and
        ``untraced_wall`` the untraced wall_s."""
        c = self.counts
        out = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for layer, path in SPANS:
            name = span_name(layer, path)
            calls, self_s = self.stats[name]
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s * scale
            layer_self[layer] += self_s * scale
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]

        def ratio(a, b):
            return c[a] / c[b] if c[b] else 0.0

        out.update({
            "groebner.gens_in": c["gens_in"],
            "groebner.gens_out": c["gens_out"],
            "groebner.max_coeff_bits": c["max_coeff_bits"],
            "groebner.member_ratio": ratio("members", "member_tests"),
            "symalg.witness_ratio": ratio("witnesses", "variables_tested"),
            "logder.kept_ratio": ratio("kept", "offered"),
            "linalg.cells": c["cells"],
            "linalg.max_cells": c["max_cells"],
            "linalg.rank_ratio": ratio("rank", "rows"),
            "vfilt.equal_ratio": ratio("equal", "compared"),
            "trace.wall_s": traced_wall,
            "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        })
        return out
