"""Span tracing of driftrecords from outside the package.

The tracer replaces each layer entry point with a timing wrapper.  A
function is found by object identity in every ``driftrecords.*`` module
namespace, so a name that one module imports from another (for example
``record_scan`` in ``estimation`` or ``_log_product`` in
``correlation``) is wrapped wherever callers look it up.  Distribution
methods are wrapped on each concrete class.  The integrand handed to
``integrate`` is wrapped too, to count integrand calls and nodes.

Each span knows its thread and its parent (the innermost open span of
the same thread).  To keep memory bounded on workloads that open
millions of spans, spans are folded into one node per
(thread, parent, name) edge as they close; a node holds the call count,
the summed duration, the summed self time (duration minus the time
covered by child spans) and the work counts.  The node table is kept in
memory and written out when the run ends.
"""
import importlib
import math
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# (module, attribute) of every wrapped function, named "<module>.<attr>".
ENTRY_POINTS = (
    ("quadrature", "integrate"),
    ("probability", "_log_product"),
    ("probability", "p_n_delta"),
    ("probability", "p_delta"),
    ("probability", "classify_finiteness"),
    ("correlation", "joint_prob_consecutive"),
    ("_special", "norm_quantile"),
    ("simulate", "replication_rng"),
    ("simulate", "mc_record_rate"),
    ("_kernels", "drift_count"),
    ("_kernels", "record_scan"),
    ("_kernels", "lag_products"),
    ("estimation", "asymptotic_variance_mc"),
    ("estimation", "variance_estimator"),
    ("analysis", "analyze"),
    ("analysis", "bootstrap_histogram"),
    ("cli", "main"),
)

DIST_CLASSES = ("Normal", "Gumbel", "ParetoUnit", "Dagum", "Uniform", "Exponential")
DIST_METHODS = (
    "cdf", "log_cdf", "log_sf", "pdf", "log_pdf", "quantile", "sample",
    "tail_integral_bound",
)

INTEGRATE = "quadrature.integrate"
INTEGRAND = "quadrature.integrand"


def _size(a):
    """Number of evaluation points in an array-like or a ``size`` argument."""
    if a is None:
        return 1
    if isinstance(a, (int, np.integer)):
        return int(a)
    if isinstance(a, tuple):
        return int(math.prod(a))
    return int(np.size(a))


def _points_first(args, kwargs):
    return _size(args[0]) if args else 0


def _points_second(args, kwargs):
    # methods called as (self, x) and functions called as (dist, x, ...)
    return _size(args[1]) if len(args) > 1 else 0


def _sample_points(args, kwargs):
    size = args[2] if len(args) > 2 else kwargs.get("size")
    return _size(size)


def _log_product_cells(args, kwargs):
    _, x, offsets = args[:3]
    return _size(x) * _size(offsets)


_WORK_COUNTERS = {
    "probability._log_product": _log_product_cells,
    "_special.norm_quantile": _points_first,
    "_kernels.drift_count": _points_first,
    "_kernels.record_scan": _points_first,
    "distributions.sample": _sample_points,
}

_TRUNCATION_SOURCES = ("probability.p_n_delta", "probability.p_delta")


class Tracer:
    """Collects aggregated spans while installed; see the module docstring."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        # (thread id, parent name, name, nested-in-integrate) ->
        #   [calls, total_s, self_s, work, failed]
        self.nodes = defaultdict(lambda: [0, 0.0, 0.0, 0, 0])
        self.integrand_nodes = 0
        self.integrand_calls = 0
        self.truncation_max = 0
        self.absent = {}
        self._restore = []

    # -- span bookkeeping -------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name, fn, work_of=None, on_result=None):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            nested = any(f[0] == INTEGRATE for f in stack) if name == INTEGRATE else False
            frame = [name, 0.0]
            stack.append(frame)
            failed = 0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed = 1
                raise
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                if parent is not None:
                    parent[1] += dur
                key = (
                    threading.get_ident(),
                    parent[0] if parent is not None else None,
                    name,
                    nested,
                )
                work = work_of(args, kwargs) if work_of is not None else 0
                with tracer._lock:
                    node = tracer.nodes[key]
                    node[0] += 1
                    node[1] += dur
                    node[2] += dur - frame[1]
                    node[3] += work
                    node[4] += failed
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _record_truncation(self, result):
        n = getattr(result, "truncation_n", 0)
        if n > self.truncation_max:
            self.truncation_max = n

    def _integrate_wrapper(self, integrate):
        tracer = self

        def counting_integrate(fn, *args, **kwargs):
            def integrand(x):
                with tracer._lock:
                    tracer.integrand_calls += 1
                    tracer.integrand_nodes += _size(x)
                return fn(x)

            return integrate(tracer._span(INTEGRAND, integrand), *args, **kwargs)

        return self._span(INTEGRATE, counting_integrate)

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every entry point; names the package no longer has are
        recorded in ``absent`` instead of failing."""
        homes = {}
        for mod_name in {m for m, _ in ENTRY_POINTS} | {"distributions"}:
            try:
                homes[mod_name] = importlib.import_module(f"driftrecords.{mod_name}")
            except ModuleNotFoundError:
                pass
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "driftrecords" or name.startswith("driftrecords."))
        ]
        for mod_name, attr in ENTRY_POINTS:
            full = f"{mod_name}.{attr}"
            original = getattr(homes.get(mod_name), attr, None)
            if original is None:
                self.absent[full] = f"driftrecords.{mod_name} has no attribute {attr!r}"
                continue
            if full == INTEGRATE:
                wrapper = self._integrate_wrapper(original)
            else:
                wrapper = self._span(
                    full,
                    original,
                    work_of=_WORK_COUNTERS.get(full),
                    on_result=self._record_truncation if full in _TRUNCATION_SOURCES else None,
                )
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

        for cls_name in DIST_CLASSES:
            cls = getattr(homes.get("distributions"), cls_name, None)
            if cls is None:
                self.absent[f"distributions.{cls_name}"] = "class not found"
                continue
            for meth in DIST_METHODS:
                original = getattr(cls, meth, None)
                if original is None:
                    self.absent[f"distributions.{meth}"] = f"{cls_name} has no method {meth!r}"
                    continue
                full = f"distributions.{meth}"
                work_of = _WORK_COUNTERS.get(full, _points_second)
                had_own = meth in vars(cls)
                setattr(cls, meth, self._span(full, original, work_of=work_of))
                self._restore.append((cls, meth, original if had_own else None))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            if original is None:
                delattr(owner, key)
            else:
                setattr(owner, key, original)
        self._restore.clear()

    # -- summaries --------------------------------------------------------

    def by_name(self):
        """Per span name: calls, total, self, work, failed, and the calls
        opened inside another integrate span."""
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                   "work": 0, "failed": 0, "nested_calls": 0})
        for (_, _, name, nested), (calls, total, self_s, work, failed) in self.nodes.items():
            agg = out[name]
            agg["calls"] += calls
            agg["total_s"] += total
            agg["self_s"] += self_s
            agg["work"] += work
            agg["failed"] += failed
            if nested:
                agg["nested_calls"] += calls
        return out

    def worker_thread_time(self, main_ident):
        """Summed duration of root spans opened on threads other than
        ``main_ident`` (the pool workers)."""
        return sum(
            total for (tid, parent, _, _), (_, total, _, _, _) in self.nodes.items()
            if tid != main_ident and parent is None
        )

    def node_table(self):
        """The aggregated span edges as JSON-ready rows."""
        return [
            {"thread": tid, "parent": parent, "name": name, "nested_in_integrate": nested,
             "calls": calls, "total_s": total, "self_s": self_s, "work": work,
             "failed": failed}
            for (tid, parent, name, nested), (calls, total, self_s, work, failed)
            in sorted(self.nodes.items(), key=lambda kv: -kv[1][1])
        ]
