"""Spans around the library's public calls, recorded from outside the library.

A :class:`Tracer` replaces each traced function at every binding that holds
it (the defining module and every module that imported the name, or the
class for methods) by a wrapper that records a span: name, start, end and the
index of the enclosing span.  Very hot predicates only count calls.  Spans
stay in memory until :meth:`Tracer.dump`; :func:`layer_metrics` turns a dump
into the per-layer metrics.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# (span name, module, attribute; "Class.method" for methods, work counter)
SPANS: List[Tuple[str, str, str, Optional[str]]] = [
    ("cli", "zeromodes.cli", "main", None),
    ("field.smooth_amplitude", "zeromodes.field", "smooth_profile_amplitude", None),
    ("field.normalize_flux", "zeromodes.field", "normalize_flux", None),
    ("potential.build", "zeromodes.potential", "PotentialField.__init__", None),
    ("potential.eval_h", "zeromodes.potential", "PotentialField.eval_h", "points"),
    ("potential.eval_a", "zeromodes.potential", "PotentialField.eval_a", "points"),
    ("potential.boundary_phase", "zeromodes.potential",
     "PotentialField.boundary_phase_exponent", None),
    ("zero_modes.count", "zeromodes.zero_modes", "count_zero_modes", None),
    ("zero_modes.verify_mode", "zeromodes.zero_modes", "verify_mode", "tolerances"),
    ("aps_boundary.trace", "zeromodes.aps_boundary", "trace_from_samples", "samples"),
    ("aps_boundary.leakage", "zeromodes.aps_boundary", "leakage", None),
    ("conformal.sphere_to_disc", "zeromodes.conformal", "sphere_to_disc", None),
    ("conformal.conformal_factor", "zeromodes.conformal", "conformal_factor", None),
    ("eta_index.index_formula", "zeromodes.eta_index", "index_formula", None),
    ("eta_index.eta_series", "zeromodes.eta_index", "eta_series", "terms"),
    ("berry_mondragon.sweep", "zeromodes.berry_mondragon", "bm_flux_sweep", None),
    ("berry_mondragon.verify", "zeromodes.berry_mondragon", "bm_verify", None),
]
# called ~10^5 times per pass: a span each would dwarf the work they do
COUNTED: List[Tuple[str, str, str]] = [
    ("aps_boundary.allowed", "zeromodes.aps_boundary", "BoundarySpectrum.allowed"),
    ("numutil.floor_strict", "zeromodes.numutil", "floor_strict"),
]


def _work(kind: str, args, kwargs) -> Dict[str, float]:
    """The work one call did, by counter name."""
    if kind == "points":  # eval_h(self, z) / eval_a(self, z)
        return {"points": getattr(args[1], "size", 1)}
    if kind == "samples":  # trace_from_samples(spec, phis, ...)
        return {"samples": len(args[1])}
    if kind == "terms":  # eta_series(c, s, n_terms)
        return {"terms": args[2] if len(args) > 2 else kwargs["n_terms"]}
    return {}


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent index]
        self.counts: Dict[str, float] = defaultdict(int)
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    def _add_work(self, name: str, work: Optional[str], args, kwargs, result) -> None:
        if work == "tolerances":  # verify_mode reports the ones it applied
            for key, value in result.tolerances.items():
                self.counts[f"{name}.tol_{key}"] = value
        elif work is not None:
            for key, value in _work(work, args, kwargs).items():
                self.counts[f"{name}.{key}"] += value

    def _span(self, name: str, fn: Callable, work: Optional[str]) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            self._add_work(name, work, args, kwargs, result)
            return result
        return wrapper

    def _work_only(self, name: str, fn: Callable, work: str) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._add_work(name, work, args, kwargs, result)
            return result
        return wrapper

    def _counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[f"{name}.calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _replace(self, module: str, attr: str, make: Callable[[Callable], Callable]) -> None:
        owner_name, _, method = attr.rpartition(".")
        if owner_name:  # a method: the class is its only binding
            owner = getattr(sys.modules[module], owner_name)
            original = owner.__dict__[method]
            self._undo.append((owner, method, original))
            setattr(owner, method, make(original))
            return
        original = getattr(sys.modules[module], attr)
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if name == "zeromodes" or name.startswith("zeromodes."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def install(self, work_only: bool = False) -> None:
        """Wrap every traced name; the zeromodes package must be imported.

        With ``work_only`` just the calls that carry a work counter are
        wrapped, without spans: a few hundred cheap wrappers per pass, so
        timed passes can keep them on.
        """
        if work_only:
            for name, module, attr, work in SPANS:
                if work is not None:
                    self._replace(module, attr,
                                  lambda fn, n=name, w=work: self._work_only(n, fn, w))
            return
        for name, module, attr, work in SPANS:
            self._replace(module, attr, lambda fn, n=name, w=work: self._span(n, fn, w))
        for name, module, attr in COUNTED:
            self._replace(module, attr, lambda fn, n=name: self._counter(n, fn))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def layer_metrics(dump: dict) -> Dict[str, float]:
    """Per-layer totals: ``<span>.s``, ``.self_s``, ``.calls`` and work counts.

    A span nested inside a span of the same name adds nothing to that name's
    total, so re-entrant calls are not counted twice.  Self time is a span's
    duration minus the durations of its direct children.
    """
    spans = dump["spans"]
    total: Dict[str, float] = defaultdict(float)
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            total[name] += end - start
    out: Dict[str, float] = {}
    for name, *_ in SPANS:
        out[f"{name}.s"] = total.get(name, 0.0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out[f"{name}.calls"] = calls.get(name, 0)
    out.update(dump["counts"])
    return out
