"""Span tracing of legderiv from outside its source tree.

legderiv's modules call each other through module globals, which Python
looks up at call time.  ``traced`` swaps each such binding for a wrapper
that records a span (name, start, end, parent span, op id) and restores
the original binding on exit, so nothing under ``src/`` is edited.  The
``polylog`` global inside the polylog module is wrapped as well, so the
module's own recursive sub-evaluations ("hops") show up as child spans.

Note that ``legderiv.polylog`` is the function (``__init__`` shadows the
submodule name); the modules are reached through ``sys.modules``.

A span's self time is its duration minus the part its child spans cover.
Aggregates are kept for every span; the span records themselves are kept
in memory up to ``SPAN_CAP`` and written out when the run ends.
"""

from __future__ import annotations

import json
import time
from array import array
from contextlib import contextmanager

SPAN_CAP = 100_000

POLYLOG_REGIONS = ("exact", "series", "near_one", "dup", "inv")
SUITE_CHECKS = (
    "check_closed_forms",
    "check_quadrature_recurrence",
    "check_inner_integral_origin",
    "check_identities",
    "check_appendix_a",
    "check_appendix_b",
)

# (module, attribute, span name).  Only bindings that exist are wrapped, so
# the tracer survives a later refactor that deletes one of them.
_PLAIN_BINDINGS = (
    ("verify", "trigamma", "polylog.trigamma"),
    ("verify", "frak_I", "orderderiv.frak_I"),
    ("verify", "first_integral", "orderderiv.first_integral"),
    ("verify", "inner_integral_I", "orderderiv.inner_integral_I"),
    ("verify", "dilog_reflection", "orderderiv.dilog_reflection"),
    ("verify", "dilog_landen", "orderderiv.dilog_landen"),
    ("verify", "trilog_identity", "orderderiv.trilog_identity"),
    ("oracle", "legendre_p", "oracle.legendre_p"),
    ("verify", "order_derivative_fd", "oracle.order_derivative_fd"),
    ("verify", "ode_residual", "oracle.ode_residual"),
    ("verify", "run_suite", "verify.run_suite"),
    ("verify", "trigamma_sum", "verify.trigamma_sum"),
    ("cli", "render_table", "cli.render_table"),
) + tuple(("verify", name, f"verify.{name}") for name in SUITE_CHECKS)
_POLYLOG_TOP = (("orderderiv", "polylog"), ("verify", "polylog"))
_POLYLOG_HOP = (("polylog", "polylog"),)
_P_DERIV = (("orderderiv", "p_deriv"), ("oracle", "p_deriv"), ("verify", "p_deriv"), ("cli", "p_deriv"))
_INTEGRATE = (("verify", "integrate"),)


def polylog_region(s: int, x: float) -> str:
    """Evaluation region of Li_s(x), per the table in legderiv.polylog."""
    if s == 1 or x == 1.0:
        return "exact"
    if abs(x) <= 0.75:
        return "series"
    if x > 0.0:
        return "near_one"
    return "dup" if x >= -1.0 else "inv"


class Tracer:
    """Span recorder with per-name aggregates and layer counters."""

    def __init__(self, cap: int = SPAN_CAP) -> None:
        self.cap = cap
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        self.stack: list[list] = []  # [span id, name id, parent id, child ns, tag, start ns]
        self.op = -1
        self.spans = 0
        self._rec_name = array("i", bytes(4 * cap))
        self._rec_parent = array("q", bytes(8 * cap))
        self._rec_op = array("q", bytes(8 * cap))
        self._rec_start = array("q", bytes(8 * cap))
        self._rec_end = array("q", bytes(8 * cap))
        self.polylog_top = 0
        self.polylog_regions = dict.fromkeys(POLYLOG_REGIONS, 0)
        self.p_deriv_calls = [0] * 5
        self.polylog_under_p_deriv = [0] * 5
        self.integrand_evals = 0
        self.panels = 0
        self.err_est_max = 0.0
        self.p_deriv_id = self.name_id("orderderiv.p_deriv")

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
        return nid

    def enter(self, nid: int, tag: int = 0) -> list:
        sid = self.spans
        self.spans = sid + 1
        stack = self.stack
        frame = [sid, nid, stack[-1][0] if stack else -1, 0, tag, 0]
        stack.append(frame)
        frame[5] = time.perf_counter_ns()
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter_ns()
        stack = self.stack
        stack.pop()
        sid, nid, parent, child, _, start = frame
        duration = end - start
        self.calls[nid] += 1
        self.total_ns[nid] += duration
        self.self_ns[nid] += duration - child
        if stack:
            stack[-1][3] += duration
        if sid < self.cap:
            self._rec_name[sid] = nid
            self._rec_parent[sid] = parent
            self._rec_op[sid] = self.op
            self._rec_start[sid] = start
            self._rec_end[sid] = end

    # -- wrappers ----------------------------------------------------------

    def _span(self, fn, name: str):
        nid = self.name_id(name)
        enter, leave = self.enter, self.exit

        def wrapper(*args, **kwargs):
            frame = enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)

        return wrapper

    def _polylog(self, fn, top_level: bool):
        nid = self.name_id("polylog")
        enter, leave, stack, regions = self.enter, self.exit, self.stack, self.polylog_regions
        under = self.polylog_under_p_deriv
        p_deriv_id = self.p_deriv_id

        def polylog(s, x):
            regions[polylog_region(s, x)] += 1
            if top_level:
                self.polylog_top += 1
                if stack and stack[-1][1] == p_deriv_id:
                    under[stack[-1][4]] += 1
            frame = enter(nid)
            try:
                return fn(s, x)
            finally:
                leave(frame)

        return polylog

    def _p_deriv(self, fn):
        enter, leave, calls, nid = self.enter, self.exit, self.p_deriv_calls, self.p_deriv_id

        def p_deriv(n, z):
            order = n if n in (0, 1, 2, 3, 4) else 0  # the library rejects the rest
            calls[order] += 1
            frame = enter(nid, order)
            try:
                return fn(n, z)
            finally:
                leave(frame)

        return p_deriv

    def _integrate(self, fn):
        nid = self.name_id("quadrature.integrate")
        integrand_id = self.name_id("verify.integrand")
        enter, leave = self.enter, self.exit

        def integrate(f, *args, **kwargs):
            def integrand(x):
                self.integrand_evals += 1
                frame = enter(integrand_id)
                try:
                    return f(x)
                finally:
                    leave(frame)

            frame = enter(nid)
            try:
                result = fn(integrand, *args, **kwargs)
            finally:
                leave(frame)
            self.panels += result.subdivisions
            self.err_est_max = max(self.err_est_max, result.abs_error_estimate)
            return result

        return integrate

    def wrappers(self, modules: dict) -> list[tuple[object, str, object]]:
        """(module, attribute, wrapper) for every binding present in ``modules``."""
        plan = [(m, a, lambda fn, n=n: self._span(fn, n)) for m, a, n in _PLAIN_BINDINGS]
        plan += [(m, a, lambda fn: self._polylog(fn, True)) for m, a in _POLYLOG_TOP]
        plan += [(m, a, lambda fn: self._polylog(fn, False)) for m, a in _POLYLOG_HOP]
        plan += [(m, a, self._p_deriv) for m, a in _P_DERIV]
        plan += [(m, a, self._integrate) for m, a in _INTEGRATE]
        out = []
        for mod_name, attr, make in plan:
            module = modules.get(mod_name)
            if module is not None and hasattr(module, attr):
                out.append((module, attr, make(getattr(module, attr))))
        return out

    # -- results -----------------------------------------------------------

    def _sum(self, table: list[int], match) -> float:
        return sum(v for name, v in zip(self.names, table) if match(name)) / 1e9

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-layer metrics, normalised per traced op where they are totals."""
        ops = max(ops, 1)

        def calls(name: str) -> int:
            nid = self._ids.get(name)
            return self.calls[nid] if nid is not None else 0

        def self_s(prefix: str, exact: bool = True) -> float:
            if exact:
                return self._sum(self.self_ns, lambda n: n == prefix) / ops
            return self._sum(self.self_ns, lambda n: n.startswith(prefix)) / ops

        def total_s(name: str) -> float:
            return self._sum(self.total_ns, lambda n: n == name) / ops

        polylog_all = calls("polylog")
        fd_calls = calls("oracle.order_derivative_fd")
        m = {
            "polylog.calls": self.polylog_top / ops,
            "polylog.self_s": self_s("polylog"),
            "polylog.hops_per_call": polylog_all / self.polylog_top if self.polylog_top else 0.0,
        }
        for region in POLYLOG_REGIONS:
            m[f"polylog.calls.{region}"] = self.polylog_regions[region] / ops
        m["polylog.trigamma.calls"] = calls("polylog.trigamma") / ops
        m["polylog.trigamma.self_s"] = self_s("polylog.trigamma")
        for n in range(5):
            m[f"orderderiv.p_deriv.calls.n{n}"] = self.p_deriv_calls[n] / ops
        m["orderderiv.p_deriv.self_s"] = self_s("orderderiv.p_deriv")
        m["orderderiv.polylog_per_row"] = sum(
            under / made
            for under, made in zip(self.polylog_under_p_deriv, self.p_deriv_calls)
            if made
        )
        m["orderderiv.frak_I.calls"] = calls("orderderiv.frak_I") / ops
        m["orderderiv.frak_I.self_s"] = self_s("orderderiv.frak_I")
        m["orderderiv.self_s"] = self_s("orderderiv.", exact=False)
        m["oracle.order_derivative_fd.calls"] = fd_calls / ops
        m["oracle.legendre_p.calls"] = calls("oracle.legendre_p") / ops
        m["oracle.legendre_p_per_fd"] = calls("oracle.legendre_p") / fd_calls if fd_calls else 0.0
        m["oracle.self_s"] = self_s("oracle.", exact=False)
        m["quadrature.integrate.calls"] = calls("quadrature.integrate") / ops
        m["quadrature.panels"] = self.panels / ops
        m["quadrature.integrand_evals"] = self.integrand_evals / ops
        m["quadrature.self_s"] = self_s("quadrature.integrate")
        m["quadrature.err_est_max"] = self.err_est_max
        for check in SUITE_CHECKS:
            m[f"verify.{check}.s"] = total_s(f"verify.{check}")
        m["verify.self_s"] = self_s("verify.", exact=False)
        m["cli.render_table.self_s"] = self_s("cli.render_table")
        return m

    def write(self, path: str) -> None:
        """Write the kept spans as JSON lines: a header, then one span per line."""
        kept = min(self.spans, self.cap)
        with open(path, "w", encoding="utf-8") as fh:
            header = {"names": self.names, "spans_total": self.spans, "spans_kept": kept,
                      "fields": ["id", "name", "parent", "op", "start_ns", "end_ns"]}
            fh.write(json.dumps(header) + "\n")
            for sid in range(kept):
                fh.write(json.dumps([sid, self.names[self._rec_name[sid]], self._rec_parent[sid],
                                     self._rec_op[sid], self._rec_start[sid],
                                     self._rec_end[sid]]) + "\n")


@contextmanager
def traced(tracer: Tracer, modules: dict):
    """Install the tracer's wrappers for the duration of the block."""
    saved = []
    try:
        for module, attr, wrapper in tracer.wrappers(modules):
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
