"""Span recorder wrapped around public calls into each serving layer.

The program under test is not changed: :func:`instrument` replaces a
few bound methods on the server's *instances* with timing wrappers and
:meth:`Tracer.close` removes them again.  Each span records its name,
start, end, thread and parent span (the span open on the same thread
when it began); spans that name a session also carry the id of the
request that session is serving, so one request's spans share an id.
Restores run on their own threads, so their spans have no parent and are
linked to the request through the session id.

Spans stay in memory and are written at exit as Chrome trace-event
JSON, which Perfetto and chrome://tracing open.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.core.hcache import RestoreBreakdown
from repro.simulator.pipeline import LayerMethod

#: Spans whose time counts as "the serving thread is inside a model call".
MODEL_SPANS = ("models.forward_fused", "models.decode_batch")


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    thread: int
    span_id: int
    parent: int
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    """Collects spans from wrapped instance methods."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Session id -> id of the request that session is serving.
        self.request_of: dict[str, str] = {}
        self.main_thread = threading.get_ident()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patched: list[tuple[object, str]] = []
        self._thread_names: dict[int, str] = {}

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        attrs: Callable[..., dict] | None = None,
        prepare: Callable[[dict], dict] | None = None,
    ) -> None:
        """Time ``owner.attr`` as span ``name``.

        ``attrs(args, kwargs, result)`` returns the span's attributes;
        ``prepare(kwargs)`` may add keyword arguments to the call.
        """
        original = getattr(owner, attr)

        def traced(*args: Any, **kwargs: Any) -> Any:
            if prepare is not None:
                kwargs = prepare(kwargs)
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
            thread = threading.get_ident()
            self.spans.append(
                Span(
                    name,
                    start,
                    end,
                    thread,
                    span_id,
                    parent,
                    attrs(args, kwargs, result) if attrs is not None else {},
                )
            )
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr))

    def close(self) -> None:
        """Remove every wrapper; the instances use their class methods again."""
        for owner, attr in reversed(self._patched):
            delattr(owner, attr)
        self._patched.clear()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._thread_names[threading.get_ident()] = threading.current_thread().name
        return stack

    def session_attrs(self, session_id: str, **extra: Any) -> dict:
        return {"session": session_id, "request": self.request_of.get(session_id), **extra}

    # -- export ----------------------------------------------------------

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_seconds(self) -> dict[str, float]:
        """Per span name: time minus the time of its direct child spans."""
        child_ns: dict[int, int] = {}
        for span in self.spans:
            if span.parent:
                child_ns[span.parent] = child_ns.get(span.parent, 0) + (
                    span.end_ns - span.start_ns
                )
        totals: dict[str, float] = {}
        for span in self.spans:
            own = span.end_ns - span.start_ns - child_ns.get(span.span_id, 0)
            totals[span.name] = totals.get(span.name, 0.0) + own / 1e9
        return totals

    def layer_table(self) -> list[dict]:
        """Calls, busy and self seconds of every span name."""
        self_s = self.self_seconds()
        rows: dict[str, dict] = {}
        for span in self.spans:
            row = rows.setdefault(span.name, {"span": span.name, "calls": 0, "busy_s": 0.0})
            row["calls"] += 1
            row["busy_s"] += span.seconds
        for name, row in rows.items():
            row["self_s"] = self_s[name]
        return sorted(rows.values(), key=lambda r: -r["busy_s"])

    def write_chrome_trace(self, path: Path) -> None:
        origin = min((s.start_ns for s in self.spans), default=0)
        events: list[dict] = [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid, "args": {"name": name}}
            for tid, name in self._thread_names.items()
        ]
        for span in self.spans:
            events.append(
                {
                    "name": span.name,
                    "cat": span.name.split(".")[0],
                    "ph": "X",
                    "pid": 1,
                    "tid": span.thread,
                    "ts": (span.start_ns - origin) / 1e3,
                    "dur": (span.end_ns - span.start_ns) / 1e3,
                    "args": {"span": span.span_id, "parent": span.parent, **span.attrs},
                }
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def instrument(tracer: Tracer, server) -> None:
    """Wrap the public calls of every serving layer of ``server``."""
    n_hidden = len(server.hcache.scheme.layers_with(LayerMethod.HIDDEN))

    def with_breakdown(kwargs: dict) -> dict:
        if kwargs.get("stats") is None:
            kwargs = {**kwargs, "stats": RestoreBreakdown()}
        return kwargs

    def restore_attrs(args, kwargs, cache) -> dict:
        breakdown = kwargs["stats"]
        return tracer.session_attrs(
            args[0],
            tokens=len(cache),
            token_layers=breakdown.n_tokens * n_hidden,
            projection_s=breakdown.projection.total_s,
            modelled_io_s=breakdown.modelled_io_s,
        )

    frontend = server.frontend
    tracer.wrap(frontend, "step", "engine.step")
    tracer.wrap(
        frontend,
        "submit",
        "engine.submit",
        lambda a, k, r: {"request": r.request_id, "session": r.session_id},
    )
    tracer.wrap(
        server.model,
        "forward_fused",
        "models.forward_fused",
        lambda a, k, r: {
            "segments": len(a[0]),
            "tokens": int(sum(np.asarray(seg).size for seg in a[0])),
        },
    )
    tracer.wrap(
        server.model, "decode_batch", "models.decode_batch", lambda a, k, r: {"rows": len(a[0])}
    )
    tracer.wrap(server.hcache, "restore", "core.restore", restore_attrs, with_breakdown)
    tracer.wrap(
        server.hcache,
        "save_states",
        "core.save_states",
        lambda a, k, r: tracer.session_attrs(a[0], rows=int(a[1][0].shape[0])),
    )
    tracer.wrap(
        server.hcache, "seal", "core.seal", lambda a, k, r: tracer.session_attrs(a[0])
    )
    tracer.wrap(
        server.executor,
        "restore_contexts_async",
        "runtime.restore_contexts_async",
        lambda a, k, r: {"sessions": list(a[1])},
    )
    tracer.wrap(server.pool, "submit", "runtime.io_pool.submit")
    tracer.wrap(
        server.storage,
        "read_granule_into",
        "storage.read",
        lambda a, k, r: tracer.session_attrs(a[0], bytes=int(a[2].nbytes)),
    )
    tracer.wrap(
        server.storage,
        "append",
        "storage.append",
        lambda a, k, r: tracer.session_attrs(a[0], bytes=int(a[2].nbytes)),
    )
    tracer.wrap(
        server.storage,
        "seal_context",
        "storage.seal_context",
        lambda a, k, r: tracer.session_attrs(a[0]),
    )


def overlap_frac(tracer: Tracer) -> float:
    """Share of restore time during which the serving thread ran a model call."""
    model = sorted(
        (s.start_ns, s.end_ns)
        for s in tracer.spans
        if s.name in MODEL_SPANS and s.thread == tracer.main_thread
    )
    merged: list[list[int]] = []
    for start, end in model:
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    restore_ns = 0
    covered_ns = 0
    for span in tracer.by_name("core.restore"):
        restore_ns += span.end_ns - span.start_ns
        for start, end in merged:
            covered_ns += max(0, min(end, span.end_ns) - max(start, span.start_ns))
    return covered_ns / restore_ns if restore_ns else 0.0
