"""In-memory spans around bifold's public callables, installed from outside.

A :class:`Tracer` wraps each traced callable once and can then be switched
on and off around single ops:

- a module-level function is rebound under every name that any loaded
  ``bifold`` module holds for it (``explore`` keeps its own ``_solve``,
  ``constrained_pair`` and ``realizable_pair``; ``derivation`` its own
  ``with_moments``, ``sample`` and ``sample_exact``; ``membership`` and
  ``derivation`` both hold ``phi``; the package re-exports most names);
- a method is replaced on its class under every attribute that aliases it
  (``__rmul__`` is ``__mul__``, ``__radd__`` is ``__add__``, ``__pow__`` is
  ``pow``).

Nothing under ``src/`` changes, and with the tracer off bifold runs its own
functions with no wrapper in between.

Each call becomes one span: name id, op id, parent span index, start and end
in nanoseconds, self time, and flags.  Self time is the span's duration
minus the durations of its direct children, so a recursive call (``catalog``
building its base entry, ``__truediv__`` after factoring out ``z^v``) is
not counted twice.  A span closes when its call raises; the flags keep
whether it raised a ``ValueError`` (``with_moments`` rejects targets that
way by design) or another exception, and whether it is the outermost span
of its name on the stack.  Spans stay in compact arrays until
:meth:`Tracer.save` writes them out.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

__all__ = ["Tracer", "SPAN_NAMES", "TOP_LEVEL_SPANS", "COUNTER_NAMES"]

# TruncatedSeries methods, each split into an exact and a float span.
SERIES_METHODS = {
    "__add__": "add",
    "__mul__": "mul",
    "__truediv__": "truediv",
    "pow": "pow",
    "exp0": "exp0",
    "log1": "log1",
    "revert": "revert",
    "compose": "compose",
    "eval_many": "eval_many",
}
SERIES_BACKENDS = ("exact", "float")

# (module, class or None, attribute, span name)
CALLABLES = (
    ("mfold", None, "catalog", "mfold.catalog"),
    ("mfold", None, "root_transform", "mfold.root_transform"),
    ("mfold", "MFoldFunction", "inverse_closed_form",
     "mfold.inverse_closed_form"),
    ("mfold", "MFoldFunction", "inverse_by_reversion",
     "mfold.inverse_by_reversion"),
    ("caratheodory", None, "constrained_pair",
     "caratheodory.constrained_pair"),
    ("caratheodory", None, "sample", "caratheodory.sample"),
    ("caratheodory", None, "sample_exact", "caratheodory.sample_exact"),
    ("caratheodory", None, "with_moments", "caratheodory.with_moments"),
    ("caratheodory", "CaratheodoryFunction", "coefficient",
     "caratheodory.coefficient"),
    ("caratheodory", "CaratheodoryFunction", "__init__", "caratheodory.init"),
    ("derivation", None, "_solve", "derivation.solve"),
    ("derivation", None, "realizable_pair", "derivation.realizable_pair"),
    ("derivation", None, "forward_verify", "derivation.forward_verify"),
    ("derivation", None, "bound_consistency", "derivation.bound_consistency"),
    ("membership", None, "check_membership", "membership.check_membership"),
    ("membership", None, "phi", "membership.phi"),
    ("membership", None, "tail_estimate", "membership.tail_estimate"),
    ("bounds", None, "bound_alpha", "bounds.bound_alpha"),
    ("bounds", None, "bound_beta", "bounds.bound_beta"),
    ("bounds", None, "structural_ceiling", "bounds.structural_ceiling"),
    ("explore", None, "sweep_cell", "explore.sweep_cell"),
)

SPAN_NAMES = tuple(
    f"series.{backend}.{short}"
    for backend in SERIES_BACKENDS for short in SERIES_METHODS.values()
) + tuple(span for *_, span in CALLABLES)

# Spans the workloads call directly; they also report inclusive time.
TOP_LEVEL_SPANS = (
    "explore.sweep_cell",
    "mfold.catalog",
    "membership.check_membership",
    "caratheodory.constrained_pair",
    "derivation.solve",
    "derivation.realizable_pair",
    "derivation.forward_verify",
    "derivation.bound_consistency",
    "mfold.inverse_closed_form",
    "mfold.inverse_by_reversion",
    "series.exact.compose",
)

COUNTER_NAMES = (
    "explore.samples",
    "explore.filtered",
    "membership.grid_points",
    "membership.verdict.pass",
    "membership.verdict.fail",
    "membership.verdict.inconclusive",
    "series.exact.mul.coeff_products",
)

OUTERMOST = 1
RAISED_VALUE_ERROR = 2
RAISED_OTHER = 4


class Tracer:
    """Span recorder for bifold's public callables; off until activated."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self._id = {name: i for i, name in enumerate(self.names)}
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self._op = -1
        self._stack = []  # open spans: [index, start_ns, child_ns]
        self._depth = [0] * len(self.names)  # open spans per name
        self._sid = array("H")
        self._opid = array("i")
        self._parent = array("i")
        self._start = array("q")
        self._end = array("q")
        self._self = array("q")
        self._flags = array("b")
        self._sites = self._bind()

    # ------------------------------------------------------------------
    # wrapping

    def _bind(self):
        """Every (owner, attribute, original, wrapper) the tracer patches."""
        from bifold.series import TruncatedSeries

        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == "bifold" or name.startswith("bifold.")]
        sites = []
        for attr, short in SERIES_METHODS.items():
            original = vars(TruncatedSeries)[attr]
            ids = {b: self._id[f"series.{b}.{short}"]
                   for b in SERIES_BACKENDS}
            wrapper = self._series_wrapper(original, ids, short)
            sites += [(TruncatedSeries, key, original, wrapper)
                      for key, value in vars(TruncatedSeries).items()
                      if value is original]
        for module_name, class_name, attr, span in CALLABLES:
            module = importlib.import_module(f"bifold.{module_name}")
            owner = getattr(module, class_name) if class_name else None
            original = vars(owner)[attr] if owner else getattr(module, attr)
            wrapper = self._wrapper(original, self._id[span], span)
            owners = [owner] if owner else modules
            sites += [(o, key, original, wrapper) for o in owners
                      for key, value in vars(o).items() if value is original]
        return sites

    def _call(self, sid, fn, args, kwargs):
        stack = self._stack
        depth = self._depth
        index = len(self._sid)
        self._sid.append(sid)
        self._opid.append(self._op)
        self._parent.append(stack[-1][0] if stack else -1)
        self._end.append(0)
        self._self.append(0)
        self._flags.append(0)
        flags = OUTERMOST if depth[sid] == 0 else 0
        depth[sid] += 1
        frame = [index, 0]  # own index, time covered by child spans
        stack.append(frame)
        start = time.perf_counter_ns()
        self._start.append(start)
        try:
            return fn(*args, **kwargs)
        except ValueError:
            flags |= RAISED_VALUE_ERROR
            raise
        except BaseException:
            flags |= RAISED_OTHER
            raise
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            depth[sid] -= 1
            duration = end - start
            if stack:
                stack[-1][1] += duration
            self._end[index] = end
            self._self[index] = duration - frame[1]
            self._flags[index] = flags

    def _series_wrapper(self, fn, ids, short):
        call = self._call
        counters = self.counters
        if short == "mul":
            def wrapper(series, *args, **kwargs):
                other = args[0] if args else None
                if series.backend == "exact" and hasattr(other, "order"):
                    # products the schoolbook kernel may form, computed
                    # from the operand orders (zero terms are skipped)
                    n = min(series.order, other.order)
                    counters["series.exact.mul.coeff_products"] += \
                        (n + 1) * (n + 2) // 2
                return call(ids[series.backend], fn, (series, *args), kwargs)
        elif short == "eval_many":
            def wrapper(series, points, *args, **kwargs):
                counters["membership.grid_points"] += int(np.size(points))
                return call(ids[series.backend], fn, (series, points, *args),
                            kwargs)
        else:
            def wrapper(series, *args, **kwargs):
                return call(ids[series.backend], fn, (series, *args), kwargs)
        return wrapper

    def _wrapper(self, fn, sid, span):
        call = self._call
        counters = self.counters
        if span == "explore.sweep_cell":
            def wrapper(*args, **kwargs):
                record = call(sid, fn, args, kwargs)
                counters["explore.samples"] += record.samples
                counters["explore.filtered"] += record.filtered_count
                return record
        elif span == "membership.check_membership":
            def wrapper(*args, **kwargs):
                report = call(sid, fn, args, kwargs)
                counters[f"membership.verdict.{report.verdict}"] += 1
                return report
        else:
            def wrapper(*args, **kwargs):
                return call(sid, fn, args, kwargs)
        return wrapper

    @contextmanager
    def active(self, op):
        """Trace every call made inside the block as part of op ``op``."""
        self._op = op
        for owner, key, _original, wrapper in self._sites:
            setattr(owner, key, wrapper)
        try:
            yield self
        finally:
            for owner, key, original, _wrapper in self._sites:
                setattr(owner, key, original)
            self._op = -1

    # ------------------------------------------------------------------
    # results

    def _columns(self):
        return {
            "span": np.array(self._sid, dtype=np.uint16),
            "op": np.array(self._opid, dtype=np.int32),
            "parent": np.array(self._parent, dtype=np.int32),
            "start_ns": np.array(self._start, dtype=np.int64),
            "end_ns": np.array(self._end, dtype=np.int64),
            "self_ns": np.array(self._self, dtype=np.int64),
            "flags": np.array(self._flags, dtype=np.int8),
        }

    def metrics(self, ops):
        """Per-op means of every span and counter over ``ops`` traced ops."""
        cols = self._columns()
        n = len(self.names)
        span = cols["span"]
        calls = np.bincount(span, minlength=n)
        self_ns = np.bincount(span, weights=cols["self_ns"], minlength=n)
        outer = (cols["flags"] & OUTERMOST) != 0
        total_ns = np.bincount(
            span[outer], weights=(cols["end_ns"] - cols["start_ns"])[outer],
            minlength=n)
        value_errors = np.bincount(
            span[(cols["flags"] & RAISED_VALUE_ERROR) != 0], minlength=n)
        raised = np.bincount(
            span[(cols["flags"] & (RAISED_VALUE_ERROR | RAISED_OTHER)) != 0],
            minlength=n)
        ops = max(ops, 1)
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = (calls[i] / ops, "count")
            out[f"{name}.self_ms"] = (self_ns[i] / ops / 1e6, "ms")
        for name in TOP_LEVEL_SPANS:
            out[f"{name}.total_ms"] = (total_ns[self._id[name]] / ops / 1e6,
                                       "ms")

        moments = self._id["caratheodory.with_moments"]
        pairs = self._id["derivation.realizable_pair"]
        attempts = int(calls[moments])
        successes = int(calls[pairs] - raised[pairs])
        out["derivation.realizable_pair.attempts"] = (
            attempts / calls[pairs] if calls[pairs] else 0.0, "count")
        out["caratheodory.with_moments.rejected"] = (
            value_errors[moments] / ops, "count")
        out["derivation.realizable_pair.useful_ratio"] = (
            successes / attempts if attempts else 0.0, "ratio")

        c = self.counters
        for name in COUNTER_NAMES:
            out[name] = (c[name] / ops, "count")
        out["explore.filtered_ratio"] = (
            c["explore.filtered"] / c["explore.samples"]
            if c["explore.samples"] else 0.0, "ratio")
        return {k: (float(v), unit) for k, (v, unit) in out.items()}

    def save(self, path):
        """Write every recorded span, plus the name table, as ``.npz``."""
        np.savez_compressed(path, names=np.array(self.names),
                            **self._columns())
