"""Spans and counters around the package's public functions.

The wrappers are installed from outside: each one replaces a function in
its own module and in every hypercount module that imported it by name,
so nothing in the package changes.  A function that no longer exists is
reported as absent instead of failing the run.

Spans (name, start, end, parent span, operation id) are kept for the
outer layers.  The hot inner calls (polys, Cantor addition) are only
aggregated: calls and seconds.  Field inversion is counted, not timed,
so its time falls into its callers' self time.  A module's self time is
the time of its wrapped calls minus the time of the wrapped calls they
made, whatever module those belong to.
"""

import sys
from collections import defaultdict
from time import perf_counter

SPAN, HOT = "span", "hot"

# (module, function, kind)
TARGETS = [
    ("counting", "chi_genus3", SPAN),
    ("counting", "chi_genus4", SPAN),
    ("counting", "chi_generic", SPAN),
    ("counting", "frobenius_trace", SPAN),
    ("curves", "zeta_oracle", SPAN),
    ("curves", "count_points", SPAN),
    ("curves", "jacobian_order_check", SPAN),
    ("curves", "jac_add", HOT),
    ("enumeration", "count_curve_points", SPAN),
    ("descent", "weil_filter", SPAN),
    ("descent", "genus4_descend", SPAN),
    ("descent", "generic_descend", SPAN),
    ("cartier", "chi_mod_p", SPAN),
    ("cartier", "chi_mod_p_table", SPAN),
    ("cartier", "cm_matrix_naive", SPAN),
    ("fields", "nth_root", SPAN),
    ("polys", "legendre_eval", HOT),
    ("polys", "roots_in_field", HOT),
    ("polys", "powmod", HOT),
    ("polys", "mul", HOT),
    ("polys", "divmod_poly", HOT),
    ("polys", "xgcd_poly", HOT),
    ("polys", "rem", HOT),
]

# counted, not timed: (module, class, method) -> counter name
COUNTED = [("fields", "PrimeField", "inv", "fields.inv.calls"),
           ("fields", "ExtensionField", "inv", "fields.inv.calls")]


def _before(name, args, counts):
    if name == "descent.weil_filter":
        counts["descent.weil_filter.in"] += len(args[0].tuples)
    elif name == "polys.legendre_eval":
        counts["polys.legendre_eval.steps"] += max(int(args[1]), 0)


def _after(name, args, result, counts):
    if name == "descent.weil_filter":
        counts["descent.weil_filter.out"] += len(result.tuples)
    elif name == "curves.jacobian_order_check":
        counts["curves.jacobian_order_check.passed"] += bool(result)
    elif name == "enumeration.count_curve_points":
        counts["enumeration.elements"] += int(args[0].q)


class Tracer:
    def __init__(self, package="hypercount"):
        self.package = package
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = []          # (name, start, end, parent, op)
        self.absent = []
        self.op = None
        self._stack = []         # per active call: [seconds of its children]
        self._span_ids = []
        self._undo = []

    # --- installation ---

    def _modules(self):
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == self.package
                                      or n.startswith(self.package + "."))]

    def _replace(self, orig, new):
        for mod in self._modules():
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, new)
                    self._undo.append((mod, attr, orig))

    def install(self):
        for modname, fname, kind in TARGETS:
            mod = sys.modules.get(f"{self.package}.{modname}")
            orig = getattr(mod, fname, None) if mod else None
            if not callable(orig):
                self.absent.append(f"{modname}.{fname}")
                continue
            self._replace(orig, self._wrap(modname, fname, kind, orig))
        for modname, cls, meth, counter in COUNTED:
            mod = sys.modules.get(f"{self.package}.{modname}")
            klass = getattr(mod, cls, None) if mod else None
            orig = getattr(klass, meth, None) if klass else None
            if not callable(orig):
                self.absent.append(f"{modname}.{cls}.{meth}")
                continue
            setattr(klass, meth, self._counter(counter, orig))
            self._undo.append((klass, meth, orig))

    def uninstall(self):
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()

    # --- wrappers ---

    def _counter(self, counter, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)
        return counted

    def _wrap(self, module, fname, kind, fn):
        name = f"{module}.{fname}"
        stack, span_ids, spans = self._stack, self._span_ids, self.spans
        calls, seconds, self_s = self.calls, self.seconds, self.self_s
        counts = self.counts
        hooked = name in ("descent.weil_filter", "polys.legendre_eval",
                          "curves.jacobian_order_check",
                          "enumeration.count_curve_points")
        is_span = kind == SPAN

        def wrapper(*args, **kwargs):
            if hooked:
                _before(name, args, counts)
            frame = [0.0]
            stack.append(frame)
            if is_span:
                span_ids.append(len(spans))
                spans.append(None)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                d = t1 - t0
                self_s[module] += d - frame[0]
                if stack:
                    stack[-1][0] += d
                calls[name] += 1
                seconds[name] += d
                if is_span:
                    sid = span_ids.pop()
                    parent = span_ids[-1] if span_ids else None
                    spans[sid] = (name, t0, t1, parent, self.op)
            if hooked:
                _after(name, args, result, counts)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def operation(self, op_id, fn):
        """Run one operation as the root span of op_id."""
        self.op = op_id
        name = "op"
        sid = len(self.spans)
        self.spans.append(None)
        self._span_ids.append(sid)
        frame = [0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            return fn()
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self._span_ids.pop()
            self.spans[sid] = (name, t0, t1, None, op_id)
            self.op = None

    # --- metrics ---

    def _s(self, name):
        return self.seconds.get(name, 0.0)

    def metrics(self):
        c, n = self.counts, self.calls
        checks = n.get("curves.jacobian_order_check", 0)
        adds = n.get("curves.jac_add", 0)
        elems = c.get("enumeration.elements", 0)
        steps = c.get("polys.legendre_eval.steps", 0)
        out = {
            "counting.frobenius_trace.s": (self._s("counting.frobenius_trace"), "s"),
            "counting.self_s": (self.self_s.get("counting", 0.0), "s"),
            "curves.jacobian_order_check.calls": (checks, "count"),
            "curves.jacobian_order_check.pass_ratio": (
                c.get("curves.jacobian_order_check.passed", 0) / checks
                if checks else 0.0, "ratio"),
            "curves.jacobian_order_check.s": (
                self._s("curves.jacobian_order_check"), "s"),
            "curves.jac_add.calls": (adds, "count"),
            "curves.jac_add.us_per_call": (
                1e6 * self._s("curves.jac_add") / adds if adds else 0.0, "us"),
            "curves.zeta_oracle.s": (self._s("curves.zeta_oracle"), "s"),
            "curves.self_s": (self.self_s.get("curves", 0.0), "s"),
            "enumeration.elements": (elems, "count"),
            "enumeration.ns_per_element": (
                1e9 * self._s("enumeration.count_curve_points") / elems
                if elems else 0.0, "ns"),
            "enumeration.self_s": (self.self_s.get("enumeration", 0.0), "s"),
            "descent.weil_filter.in": (c.get("descent.weil_filter.in", 0), "count"),
            "descent.weil_filter.out": (c.get("descent.weil_filter.out", 0), "count"),
            "descent.genus4_descend.s": (self._s("descent.genus4_descend"), "s"),
            "descent.generic_descend.s": (self._s("descent.generic_descend"), "s"),
            "descent.self_s": (self.self_s.get("descent", 0.0), "s"),
            "cartier.chi_mod_p.s": (self._s("cartier.chi_mod_p"), "s"),
            "cartier.chi_mod_p_table.s": (self._s("cartier.chi_mod_p_table"), "s"),
            "cartier.self_s": (self.self_s.get("cartier", 0.0), "s"),
            "polys.legendre_eval.steps": (steps, "count"),
            "polys.legendre_eval.us_per_step": (
                1e6 * self._s("polys.legendre_eval") / steps if steps else 0.0,
                "us"),
            "polys.roots_in_field.s": (self._s("polys.roots_in_field"), "s"),
            "polys.mul.calls": (n.get("polys.mul", 0), "count"),
            "polys.divmod_poly.calls": (n.get("polys.divmod_poly", 0), "count"),
            "polys.xgcd_poly.calls": (n.get("polys.xgcd_poly", 0), "count"),
            "polys.self_s": (self.self_s.get("polys", 0.0), "s"),
            "fields.inv.calls": (c.get("fields.inv.calls", 0), "count"),
            "fields.nth_root.s": (self._s("fields.nth_root"), "s"),
            "trace.absent": (len(self.absent), "count"),
        }
        return out

    def span_records(self):
        return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                 "op": s[4]} for s in self.spans if s is not None]
