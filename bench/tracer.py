"""Outside-in span tracing of funcfield, installed from the benchmark.

`Tracer.install()` replaces the library's entry points by timing wrappers:
module-level functions in every `funcfield` module (each module's own
imported binding too, e.g. `ratfun.poly_gcd` as well as `poly.poly_gcd`,
and the `verify.ALL_SUITES` table) and the operator attributes of `Poly`,
`RatFun` and `FpElement`.  Nothing under `src/` changes; `uninstall()` puts
the originals back.

Each call of a layer entry point records one span: a name id, the parent
span id, and start and end in perf_counter nanoseconds, kept in compact
arrays and written out once at the end.  Calls that run millions of times
(scalar and Poly operators, per-term helpers) are folded: each is timed the
same way, but recorded as a (nearest stored span, name, calls, total, self)
record.  Self time is a span's duration minus the time of its direct
children, stored or folded.  A few boundaries also update counters (largest
gcd degree, coefficient bits, candidates enumerated); those updates run as
folded `trace.hook` calls, so they never inflate a layer's self time.
"""

from __future__ import annotations

import functools
import json
import os
import time
import types
from array import array
from fractions import Fraction

import refmath

MODULES = ("fields", "poly", "ratfun", "textio", "divisors", "elliptic",
           "analytic", "definability", "verify", "cli")

# Span names that differ from "<module>.<function>".
RENAMED = {
    ("poly", "poly_gcd"): "poly.gcd",
    ("poly", "squarefree_decomposition"): "poly.sqf",
    ("elliptic", "_add"): "elliptic.add",
    ("elliptic", "bad_fibers"): "elliptic.fibers",
    ("analytic", "series_of_g"): "analytic.series",
    ("analytic", "eval_interval"): "analytic.interval",
    ("definability", "hermite_reduce"): "definability.hermite",
    ("cli", "_run_command"): "cli.run",
    ("verify", "verify_elliptic"): "verify.suite",
    ("verify", "verify_analytic"): "verify.suite",
    ("verify", "verify_divisors"): "verify.suite",
    ("verify", "verify_slicer"): "verify.suite",
}
# Private functions that are layer boundaries all the same.
PRIVATE = {("elliptic", "_add"), ("cli", "_run_command")}
# Called once per coefficient operation; a span each would only add noise.
SKIPPED = {("fields", "same_field")}

# (module, class, attribute, span name)
METHODS = [("poly", "Poly", name, "poly." + label) for name, label in (
    ("__init__", "init"), ("__add__", "add"), ("__sub__", "sub"),
    ("__neg__", "neg"), ("__mul__", "mul"), ("__divmod__", "divmod"),
    ("__pow__", "pow"), ("__call__", "eval"), ("derivative", "derivative"),
    ("monic", "monic"), ("scale", "scale"))]
METHODS += [("ratfun", "RatFun", "__init__", "ratfun.init"),
            ("ratfun", "RatFun", "_coprime", "ratfun.init"),
            ("ratfun", "RatFun", "is_square", "ratfun.is_square"),
            ("ratfun", "RatFun", "valuation_at", "ratfun.valuation")]
METHODS += [("ratfun", "RatFun", name, "ratfun.arith") for name in (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__", "derivative")]
METHODS += [("fields", "FpElement", name, "fields.fp") for name in (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__")]
METHODS += [("definability", "DioSystem", "evaluate", "definability.evaluate"),
            ("divisors", "Divisor", "__init__", "divisors.divisor_init"),
            ("divisors", "Divisor", "__add__", "divisors.divisor_add"),
            ("divisors", "Place", "finite", "divisors.place_finite"),
            ("cli", "Report", "to_json", "cli.render"),
            ("cli", "Report", "to_text", "cli.render")]


def _coeff_bits(c):
    if isinstance(c, Fraction):
        return max(c.numerator.bit_length(), c.denominator.bit_length())
    return c.p.bit_length()  # FpElement


# Span names folded beyond the "fields." and "poly." ones, and the
# "poly." ones kept as stored spans.
FOLDED = {"definability.evaluate", "analytic.q_n", "analytic.cw_rational",
          "analytic.enumerated_rational", "analytic.square_index",
          "analytic.cw_index"}
UNFOLDED = {"poly.gcd", "poly.sqf", "poly.radical"}


def folded(name):
    """Whether calls of this span name are folded into per-parent records.

    Scalar, Poly-operator and per-term helper calls run millions of times
    in a run; each is still timed, but recorded as (nearest stored span,
    name, calls, total, self) instead of one span per call.
    """
    if name in FOLDED:
        return True
    return name.startswith(("fields.", "poly.")) and name not in UNFOLDED


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        # 1 when the caller was itself a stored span (or the job loop)
        self.span_direct = array("b")
        # time spent in folded calls made directly by this span
        self.span_folded = array("q")
        # (anchor span id, name id) -> [calls, total ns, self ns]
        self.folded = {}
        # stack entries: a stored span id (-1 for none), or a folded frame
        # [child ns, anchor span id]
        self.stack = [-1]
        self.counters = dict.fromkeys(
            ("poly.gcd.max_degree", "poly.gcd.max_coeff_bits",
             "poly.mul.max_degree", "elliptic.max_deg_x",
             "definability.candidates", "definability.solutions",
             "analytic.terms", "analytic.max_bits"), 0)
        self._restore = []
        self.hook_id = self._name_id("trace.hook")

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    # -- spans -------------------------------------------------------

    def open(self, name_id):
        parent = self.stack[-1]
        sid = len(self.span_name)
        self.span_name.append(name_id)
        self.span_end.append(0)
        self.span_folded.append(0)
        if type(parent) is int:
            self.span_parent.append(parent)
            self.span_direct.append(1)
        else:
            self.span_parent.append(parent[1])
            self.span_direct.append(0)
        self.stack.append(sid)
        self.span_start.append(time.perf_counter_ns())
        return sid

    def close(self, sid):
        end = time.perf_counter_ns()
        self.span_end[sid] = end
        self.stack.pop()
        parent = self.stack[-1]
        if type(parent) is not int:
            parent[0] += end - self.span_start[sid]

    def wrap(self, name, fn, hook=None):
        name_id = self._name_id(name)
        if folded(name):
            body = self._folded_call(name_id, fn)
        else:
            body = self._stored_call(name_id, fn)
        if hook is None:
            return functools.wraps(fn)(body)
        hook_call = self._folded_call(self.hook_id, hook)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = body(*args, **kwargs)
            hook_call(args, result)
            return result
        return traced

    def _stored_call(self, name_id, fn):
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            sid = open_(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(sid)
        return traced

    def _folded_call(self, name_id, fn):
        stack, records, span_folded = self.stack, self.folded, self.span_folded
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1]
            anchor = parent if type(parent) is int else parent[1]
            frame = [0, anchor]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                key = (anchor, name_id)
                record = records.get(key)
                if record is None:
                    records[key] = [1, elapsed, elapsed - frame[0]]
                else:
                    record[0] += 1
                    record[1] += elapsed
                    record[2] += elapsed - frame[0]
                if type(parent) is int:
                    if parent >= 0:
                        span_folded[parent] += elapsed
                else:
                    parent[0] += elapsed
        return traced

    # -- counters at boundaries ----------------------------------------

    def _bump(self, key, value):
        if value > self.counters[key]:
            self.counters[key] = value

    def _gcd_hook(self, args, result):
        a, b = args[0], args[1]
        self._bump("poly.gcd.max_degree", max(a.degree, b.degree))
        bits = max((_coeff_bits(c) for c in a.coeffs + b.coeffs), default=0)
        self._bump("poly.gcd.max_coeff_bits", bits)

    def _mul_hook(self, args, result):
        self._bump("poly.mul.max_degree", max(args[0].degree, args[1].degree))

    def _add_hook(self, args, result):
        if not result.is_identity:
            self._bump("elliptic.max_deg_x", result.x.map_degree())

    def _slice_hook(self, args, result):
        system, alpha, beta = args[0], args[1], args[2]
        self.counters["definability.candidates"] += system.field.p ** (
            (alpha + 1) * system.n + (beta + 1) * system.m)
        self.counters["definability.solutions"] += len(result.solutions)

    def _eval_hook(self, args, result):
        a = Fraction(args[0])
        self.counters["analytic.terms"] += refmath.term_count(a.numerator,
                                                              a.denominator)
        self._bump("analytic.max_bits", max(result.numerator.bit_length(),
                                            result.denominator.bit_length()))

    def _series_hook(self, args, result):
        self.counters["analytic.terms"] += args[0] // 2 + 8

    def _interval_hook(self, args, result):
        self.counters["analytic.terms"] += args[2]

    # -- patching ----------------------------------------------------

    def _hooks(self):
        return {"poly.gcd": self._gcd_hook, "poly.mul": self._mul_hook,
                "elliptic.add": self._add_hook,
                "definability.enumerate_slice": self._slice_hook,
                "analytic.eval_exact": self._eval_hook,
                "analytic.series": self._series_hook,
                "analytic.interval": self._interval_hook}

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        import importlib
        hooks = self._hooks()
        modules = {name: importlib.import_module("funcfield." + name)
                   for name in MODULES}
        package = importlib.import_module("funcfield")
        wrapped = {}  # id(original function) -> wrapper
        for mod_name, module in modules.items():
            for attr, value in list(vars(module).items()):
                if not isinstance(value, types.FunctionType) \
                        or value.__module__ != module.__name__:
                    continue
                key = (mod_name, attr)
                if key in SKIPPED or (attr.startswith("_")
                                      and key not in PRIVATE):
                    continue
                name = RENAMED.get(key, f"{mod_name}.{attr}")
                wrapped[id(value)] = self.wrap(name, value, hooks.get(name))
        for module in list(modules.values()) + [package]:
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) \
                        and id(value) in wrapped:
                    self._set(module, attr, wrapped[id(value)])
                elif isinstance(value, dict):
                    for key, item in value.items():
                        if isinstance(item, types.FunctionType) \
                                and id(item) in wrapped:
                            self._restore.append((value, key, item))
                            value[key] = wrapped[id(item)]
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(modules[mod_name], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                value = type(raw)(self.wrap(name, raw.__func__,
                                            hooks.get(name)))
            else:
                value = self.wrap(name, raw, hooks.get(name))
            self._set(cls, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._restore.clear()

    # -- analysis ----------------------------------------------------

    def job_span(self, kind):
        return self.open(self._name_id("job." + kind))

    def summarize(self):
        """Per span name: calls, inclusive and self seconds (stored and
        folded calls together); plus each stored span's duration and root
        (job) span id for breakdowns by job."""
        count = len(self.span_name)
        names, parents = self.span_name, self.span_parent
        dur = [self.span_end[i] - self.span_start[i] for i in range(count)]
        child = list(self.span_folded)
        root = [0] * count
        for i in range(count):
            p = parents[i]
            if p >= 0:
                if self.span_direct[i]:
                    child[p] += dur[i]
                root[i] = root[p]
            else:
                root[i] = i
        stats = {}
        for i in range(count):
            entry = stats.setdefault(self.names[names[i]], [0, 0, 0])
            entry[0] += 1
            entry[1] += dur[i]
            entry[2] += dur[i] - child[i]
        for (_, name_id), (calls, total, own) in self.folded.items():
            entry = stats.setdefault(self.names[name_id], [0, 0, 0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        return {name: {"calls": c, "total_s": t / 1e9, "self_s": s / 1e9}
                for name, (c, t, s) in stats.items()}, dur, root

    def within(self, dur, root, inner, outer_roots):
        """Inclusive seconds of spans named `inner` under the given roots."""
        inner_id = self.name_ids.get(inner)
        return sum(dur[i] for i in range(len(dur))
                   if self.span_name[i] == inner_id and root[i] in outer_roots
                   ) / 1e9

    def nested_total(self, dur, inner, outer):
        """Inclusive seconds of `inner` spans that have an `outer` ancestor."""
        inner_id, outer_id = self.name_ids.get(inner), self.name_ids.get(outer)
        inside = [False] * len(dur)
        total = 0
        for i in range(len(dur)):
            p = self.span_parent[i]
            inside[i] = p >= 0 and (inside[p] or self.span_name[p] == outer_id)
            if self.span_name[i] == inner_id and inside[i]:
                total += dur[i]
        return total / 1e9

    def write(self, path):
        """A JSON header line (names, counters, folded records) followed by
        the raw arrays of the stored spans."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        header = {"names": self.names, "spans": len(self.span_name),
                  "arrays": ["name:uint16", "parent:int32", "start_ns:int64",
                             "end_ns:int64", "direct:int8",
                             "folded_child_ns:int64"],
                  "folded": [[anchor, name_id] + record for
                             (anchor, name_id), record in self.folded.items()],
                  "counters": self.counters}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start,
                        self.span_end, self.span_direct, self.span_folded):
                arr.tofile(handle)
