"""In-memory spans around the benchmark's calls into each layer.

Nothing here touches ``src/``: the traced run swaps, for the length of
one request, the public entry points a :class:`~repro.api.Session`
calls into (its builder's ``build``, its plan cache's ``get``, the
registered backends' ``execute`` and ``repro.runtime.schedule.
schedule_stats``) for wrappers that record a span and call through.
Everything is restored when the request ends, so the untraced requests
interleaved with the traced ones run the program unchanged.

A span is ``(id, name, parent, request, start, end)``.  A layer's self
time is its span's duration minus the part its child spans cover.  If a
later version of the program stops calling one of these entry points,
that span simply never opens and its time shows up in the parent's
self time; the benchmark never fails because of it.
"""

from __future__ import annotations

import threading
import time
from contextlib import ExitStack, contextmanager
from typing import Dict, List, Optional

__all__ = ["Tracer", "session_hooks", "self_times"]


class Tracer:
    """Spans of every traced request, kept in memory until the end."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: Optional[str] = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent["request"]
        with self._lock:
            rec = {"id": len(self.spans), "name": name,
                   "parent": None if parent is None else parent["id"],
                   "request": request, "start": time.perf_counter(),
                   "end": None}
            self.spans.append(rec)
        stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced


def self_times(spans: List[dict]) -> Dict[str, Dict[str, float]]:
    """``{request: {span name: summed self seconds}}``."""
    covered: Dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] = (covered.get(s["parent"], 0.0)
                                    + s["end"] - s["start"])
    out: Dict[str, Dict[str, float]] = {}
    for s in spans:
        own = s["end"] - s["start"] - covered.get(s["id"], 0.0)
        per = out.setdefault(s["request"], {})
        per[s["name"]] = per.get(s["name"], 0.0) + own
    return out


@contextmanager
def _patched(obj, attr: str, value):
    had_own = attr in vars(obj)
    old = vars(obj).get(attr)
    setattr(obj, attr, value)
    try:
        yield
    finally:
        if had_own:
            setattr(obj, attr, old)
        else:
            delattr(obj, attr)


@contextmanager
def session_hooks(tracer: Tracer, session):
    """Record layer spans for every call ``session`` makes while active.

    * ``core.schedule_build`` — ``session.builder.build``;
    * ``engine.compile`` / ``engine.lookup`` — ``session.cache.get``,
      named by whether the call missed (lowered a plan) or hit;
    * ``engine.execute`` — the compiled and batched backends' execute;
    * ``runtime.schedule_stats`` — the stats summary of the schedule.
    """
    import repro.runtime.schedule as schedule_mod
    from repro.api.backends import get_backend

    cache = session.cache
    cache_get = cache.get

    def traced_get(*args, **kwargs):
        misses = cache.stats.misses
        with tracer.span("engine.lookup") as rec:
            plan = cache_get(*args, **kwargs)
        if cache.stats.misses > misses:
            rec["name"] = "engine.compile"
        return plan

    patches = [
        (session.builder, "build",
         tracer.wrap(session.builder.build, "core.schedule_build")),
        (cache, "get", traced_get),
    ]
    for name in ("compiled", "batched"):
        backend = get_backend(name)
        patches.append((backend, "execute",
                        tracer.wrap(backend.execute, "engine.execute")))
    if hasattr(schedule_mod, "schedule_stats"):
        patches.append((schedule_mod, "schedule_stats",
                        tracer.wrap(schedule_mod.schedule_stats,
                                    "runtime.schedule_stats")))
    with ExitStack() as stack:
        for obj, attr, value in patches:
            stack.enter_context(_patched(obj, attr, value))
        yield
