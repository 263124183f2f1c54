"""Spans around the public functions of each hrbounds module, kept in memory.

`Tracer.install()` replaces each traced function, wherever a module of the
package holds a reference to it, by a wrapper that records a span (name,
start, end, parent).  Nothing under ``src/`` changes; `uninstall()` puts the
originals back.  The package's thread pools are replaced by a subclass whose
tasks run inside a ``worker`` span on their own thread, with the span that
submitted them as parent.

Per-name totals are aggregated as spans close:

* ``time[g]``: time in metric group g, counting only spans with no ancestor
  in the same group, so recursion and nesting inside a group count once;
* ``self_time[name]``: per thread, duration minus the union of the child
  spans' intervals.  A ``worker`` span adds its own self time to its
  parent's, and its interval covers the parent while the parent waits, so
  the work of each thread is counted once and only against its own spans;
* ``calls[name]`` and free-form ``counts``.

Full span records are kept up to ``keep`` spans and written out at the end.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

# (module, attribute, span name, metric group, mode).  A dotted attribute is a
# method.  Mode "span" records the span; "light" spans, on calls made once per
# trajectory row, are aggregated but not recorded; "count" only counts calls.
TRACED = [
    ("distributions", "SeedSpec.generator", "distributions.generator", None, "count"),
    ("distributions", "sample_iid", "distributions.sample_iid", "distributions.sample_iid", "light"),
    ("distributions", "stable_sample", "distributions.stable_sample", "distributions.stable_sample", "light"),
    ("sequences", "TrajectoryBatch.generate", "sequences.generate", "sequences.generate", "span"),
    ("sequences", "partial_sums", "sequences.partial_sums", "sequences.partial_sums", "light"),
    ("sequences", "decompose", "sequences.decompose", "sequences.partial_sums", "light"),
    ("sequences", "compensated_cumsum", "sequences.compensated_cumsum", "sequences.compensated_cumsum", "light"),
    ("shape_functions", "phi_eval", "shape_functions.phi_eval", "shape_functions.eval", "light"),
    ("shape_functions", "chi_eval", "shape_functions.chi_eval", "shape_functions.eval", "light"),
    ("shape_functions", "weights_materialize", "shape_functions.weights_materialize", "shape_functions.weights", "span"),
    ("shape_functions", "subadditivity_constant", "shape_functions.subadditivity_constant", "shape_functions.certificate", "span"),
    ("bounds", "analytic_moment_profile", "bounds.analytic_moment_profile", "bounds.profile", "span"),
    ("bounds", "estimate_moment_profile", "bounds.estimate_moment_profile", "bounds.profile", "span"),
    ("bounds", "bound_theorem1", "bounds.bound_theorem1", "bounds.bound", "span"),
    ("bounds", "bound_rao", "bounds.bound_rao", "bounds.bound", "span"),
    ("bounds", "bound_hajek_renyi_classic", "bounds.bound_hajek_renyi_classic", "bounds.bound", "span"),
    ("bounds", "bound_amini", "bounds.bound_amini", "bounds.bound", "span"),
    ("bounds", "slln_series_check", "bounds.slln_series_check", "bounds.series", "span"),
    ("simulation", "estimate_event_An", "simulation.estimate_event_An", "simulation.estimate", "span"),
    ("simulation", "estimate_max_event", "simulation.estimate_max_event", "simulation.estimate", "span"),
    ("simulation", "binomial_estimate", "simulation.binomial_estimate", "simulation.estimate", "span"),
    ("simulation", "verify_bound", "simulation.verify_bound", "simulation.verify_bound", "span"),
    ("simulation", "demi_check", "simulation.demi_check", "simulation.demi", "span"),
    ("simulation", "enumerate_exact", "simulation.enumerate_exact", "simulation.enumerate", "span"),
    ("simulation", "slln_trajectory", "simulation.slln_trajectory", "simulation.slln", "span"),
    ("_digest", "digest_of", "_digest.digest_of", "digest", "span"),
    ("_digest", "canonical_json", "_digest.canonical_json", "digest", "span"),
    ("_digest", "event_a_n", "_digest.event_a_n", "digest", "span"),
    ("_digest", "event_max_ratio", "_digest.event_max_ratio", "digest", "span"),
    ("_digest", "_weights_form", "_digest._weights_form", "digest", "span"),
    ("cli", "load_config", "cli.load_config", "cli.config", "span"),
    ("cli", "_write_json", "cli._write_json", "cli.render", "span"),
]


class _Span:
    __slots__ = ("sid", "name", "group", "parent", "start", "children", "record")

    def __init__(self, sid, name, group, parent, start, record):
        self.sid, self.name, self.group, self.parent = sid, name, group, parent
        self.start, self.record = start, record
        self.children: list[tuple[float, float]] = []


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of possibly overlapping intervals."""
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class Tracer:
    def __init__(self, keep: int = 100_000):
        self.keep = keep
        self.records: list[tuple] = []
        self.dropped = 0
        self.time = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.enabled = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def open(self, name: str, group: str | None, record: bool = True,
             parent: _Span | None = None) -> _Span | None:
        if not self.enabled:
            return None
        st = self._stack()
        if st:
            parent = st[-1]
        span = _Span(next(self._ids), name, group, parent, time.perf_counter(), record)
        st.append(span)
        return span

    def current(self) -> _Span | None:
        st = self._stack()
        return st[-1] if st else None

    def close(self, span: _Span | None) -> None:
        if span is None:
            return
        end = time.perf_counter()
        self._stack().pop()
        dur = end - span.start
        children = span.children
        covered = _covered(children) if len(children) > 1 else (
            children[0][1] - children[0][0] if children else 0.0)
        with self._lock:
            self.calls[span.name] += 1
            # a worker's untraced work belongs to the span that started it
            owner = span.parent if span.name == "worker" and span.parent else span
            self.self_time[owner.name] += dur - covered
            if span.group is not None:
                p = span.parent
                while p is not None and p.group != span.group:
                    p = p.parent
                if p is None:
                    self.time[span.group] += dur
            if span.parent is not None:
                span.parent.children.append((span.start, end))
            if span.record and len(self.records) < self.keep:
                pid = span.parent.sid if span.parent is not None else None
                self.records.append((span.sid, span.name, span.start, end, pid))
            elif span.record:
                self.dropped += 1

    def count(self, key: str, amount: float = 1) -> None:
        if self.enabled:
            with self._lock:
                self.counts[key] += amount

    # -- installation --------------------------------------------------------

    def _wrap(self, fn, name, group, mode, hook=None):
        tracer = self
        record = mode == "span"
        if mode == "count":
            @functools.wraps(fn)
            def counter(*args, **kwargs):
                if tracer.enabled:
                    with tracer._lock:
                        tracer.calls[name] += 1
                return fn(*args, **kwargs)
            return counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name, group, record)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if hook is not None and tracer.enabled:
                hook(result, *args, **kwargs)
            return result
        return wrapper

    def _executor(self):
        """ThreadPoolExecutor whose tasks run in a worker span under the submitter."""
        tracer = self

        def in_worker(parent, fn, *args, **kwargs):
            span = tracer.open("worker", None, parent=parent) if parent is not None else None
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)

        class TracedThreadPoolExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(in_worker, tracer.current(), fn, *args, **kwargs)

        return TracedThreadPoolExecutor

    def install(self, hooks: dict | None = None) -> None:
        """Wrap every TRACED function in every package module that refers to it."""
        hooks = hooks or {}
        modules = [m for k, m in list(sys.modules.items())
                   if k == "hrbounds" or k.startswith("hrbounds.")]
        pool = self._executor()
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is ThreadPoolExecutor:
                    self._patched.append((mod, key, value))
                    setattr(mod, key, pool)
        for modname, attr, name, group, mode in TRACED:
            home = sys.modules[f"hrbounds.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name, group, mode, hooks.get(name)))
                else:
                    wrapped = self._wrap(raw, name, group, mode, hooks.get(name))
                self._patched.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
                continue
            original = getattr(home, attr)
            wrapped = self._wrap(original, name, group, mode, hooks.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # -- output ----------------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": [dict(zip(("id", "name", "start", "end", "parent"), r))
                                 for r in self.records],
                       "dropped": self.dropped}, fh)

