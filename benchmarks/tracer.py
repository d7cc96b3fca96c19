"""In-memory span tracer that times dpconic's public functions from outside.

A wrapper is installed at every name a loaded ``dpconic`` module binds to a
target function, so a call made through ``from .solver import solve`` in an
application module is caught without editing the package.  Each call records
one span: id, parent span on the same thread, name, layer, thread id, start,
end and an optional ``info`` dict filled by a hook after the call returned.
Spans stay in memory until the caller writes them out.

Self time of a span is its duration minus the durations of its direct
children.  Parents are tracked per thread, so work a thread pool runs for a
traced call shows up as root spans on the worker threads, not as children.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    layer: str
    thread: int
    t0: float
    t1: float
    info: dict | None = None

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


@dataclass(frozen=True)
class Target:
    """A function to wrap, the span name and layer it records under, and an
    optional hook ``hook(args, kwargs, result) -> dict | None`` run after the
    call (inside the parent's span, outside this one)."""

    fn: Callable
    name: str
    layer: str
    hook: Callable[[tuple, dict, Any], dict | None] | None = None


class Tracer:
    def __init__(self, package: str = "dpconic"):
        self.package = package
        self._raw: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Callable]] = []
        # every wrapper made, kept alive so that an id() here names only it
        self._wrappers: dict[int, Callable] = {}

    # --- recording -----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, sid, parent, name, layer, t0, t1, info):
        # a plain tuple keeps the per-call cost low; list.append is atomic
        # under the interpreter lock
        self._raw.append((sid, parent, name, layer, threading.get_ident(),
                          t0, t1, info))

    @property
    def spans(self) -> list[Span]:
        return [Span(*raw) for raw in self._raw]

    @contextmanager
    def span(self, name: str, layer: str):
        """Record a span around a block of the benchmark's own code."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self._record(sid, parent, name, layer, t0, t1, None)

    def _wrapper(self, target: Target) -> Callable:
        fn, name, layer, hook = target.fn, target.name, target.layer, target.hook
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = time.perf_counter()
                stack.pop()
                tracer._record(sid, parent, name, layer, t0, t1,
                               {"error": type(exc).__name__})
                raise
            t1 = time.perf_counter()
            stack.pop()
            info = hook(args, kwargs, result) if hook is not None else None
            tracer._record(sid, parent, name, layer, t0, t1, info)
            return result

        self._wrappers[id(wrapper)] = wrapper
        return wrapper

    # --- installing and removing wrappers ------------------------------------

    def _modules(self):
        pkg = self.package
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == pkg or n.startswith(pkg + "."))]

    def install(self, targets: list[Target]) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        for target in targets:
            wrapper = self._wrapper(target)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is target.fn:
                        self._patches.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> list[str]:
        """Put every original back; return the names that did not restore,
        and any name in a dpconic module still bound to one of our wrappers
        (say, by an import made while the wrappers were in place)."""
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        bad = [f"{mod.__name__}.{attr}" for mod, attr, original in self._patches
               if getattr(mod, attr) is not original]
        bad += [f"{mod.__name__}.{attr}" for mod in self._modules()
                for attr, value in list(vars(mod).items())
                if id(value) in self._wrappers]
        self._patches = []
        return sorted(set(bad))

    @property
    def patched_names(self) -> list[str]:
        return sorted(f"{mod.__name__}.{attr}" for mod, attr, _ in self._patches)

    # --- output --------------------------------------------------------------

    def write(self, path) -> None:
        """One JSON array per span: id, parent, name, layer, thread, t0, t1, info."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for raw in self._raw:
                fh.write(json.dumps(raw) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    return {s.id: s.duration - child[s.id] for s in spans}


def check_spans(spans: list[Span], tol: float = 1e-9) -> list[str]:
    """Self-check of a finished trace.

    Every child lies inside its parent on the same thread, every self time is
    non-negative, and per thread the self times add up to the thread's traced
    wall time (the summed durations of its root spans).
    """
    problems = []
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    per_thread_self = defaultdict(float)
    per_thread_wall = defaultdict(float)
    for s in spans:
        per_thread_self[s.thread] += selfs[s.id]
        if s.parent is None:
            per_thread_wall[s.thread] += s.duration
            continue
        p = by_id.get(s.parent)
        if p is None:
            problems.append(f"span {s.name} has a parent that was not recorded")
        elif p.thread != s.thread or s.t0 < p.t0 or s.t1 > p.t1:
            problems.append(f"span {s.name} is not nested inside its parent {p.name}")
    for s in spans:
        if selfs[s.id] < -tol:
            problems.append(f"span {s.name} has negative self time {selfs[s.id]:.3g}")
    for tid, wall in per_thread_wall.items():
        total = per_thread_self[tid]
        if abs(total - wall) > tol * max(1, len(spans)) + 1e-12 * wall:
            problems.append(f"thread {tid}: self times sum to {total!r}, "
                            f"traced wall time is {wall!r}")
    return problems
