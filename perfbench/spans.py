"""Span tracing around the calls the benchmark makes into each layer.

The tracer never edits the program: :meth:`Tracer.installed` swaps a
timing wrapper in for each public entry point listed in
:data:`TRACED_CALLS` (and for every stage object
``StagedPipeline.stages()`` returns), then restores the originals on
exit.  Spans started on pool worker threads have no parent on their own
thread; they are parented to the innermost span open on the thread that
installed the tracer, which is the ``ShardRunner.run`` span that
dispatched them.

Spans are kept in memory and written out at the end as Chrome
trace-event JSON (``chrome://tracing`` / Perfetto read it offline).
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

__all__ = ["Span", "Tracer", "TRACED_CALLS", "layer_of", "self_seconds"]

#: ``(module, attribute, span name)`` for every traced entry point.  A
#: function imported by name into another module is patched there too,
#: because callers resolve it through their own namespace.
TRACED_CALLS: tuple[tuple[str, str, str], ...] = (
    ("repro.index.base", "NNIndex.build", "index.build"),
    ("repro.core.nn_phase", "prepare_nn_lists", "nn_phase.prepare_nn_lists"),
    ("repro.run.stages", "prepare_nn_lists", "nn_phase.prepare_nn_lists"),
    ("repro.shard.runner", "prepare_nn_lists", "nn_phase.prepare_nn_lists"),
    ("repro.shard.plan", "plan_shards", "shard.plan_shards"),
    ("repro.shard.runner", "ShardRunner.run", "shard.ShardRunner.run"),
    ("repro.shard.merge", "merge_partitions", "shard.merge_partitions"),
    ("repro.core.incremental", "IncrementalDeduplicator.add", "incremental.add"),
    (
        "repro.core.incremental",
        "IncrementalDeduplicator.remove",
        "incremental.remove",
    ),
    (
        "repro.core.incremental",
        "IncrementalDeduplicator.partition",
        "incremental.partition",
    ),
)

#: Stage spans whose whole duration belongs to one layer module; every
#: other stage (phase1, shard, merge, postprocess, ...) is stage glue of
#: the ``run`` layer and only its self time is its own.
_STAGE_LAYERS = {
    "stage.spill": "storage",
    "stage.cspairs": "core.cspairs",
    "stage.partition": "core.partitioner",
}


def layer_of(name: str) -> str:
    """The repo module a span name is attributed to."""
    if name in _STAGE_LAYERS:
        return _STAGE_LAYERS[name]
    prefix = name.split(".", 1)[0]
    return {
        "index": "index",
        "nn_phase": "core.nn_phase",
        "shard": "shard",
        "incremental": "core.incremental",
    }.get(prefix, "run")


@dataclass(frozen=True)
class Span:
    """One timed call: ``start``/``end`` are ``perf_counter`` seconds."""

    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    #: ``"setup"`` or ``"op"``: which part of the run caused the span.
    phase: str

    @property
    def seconds(self) -> float:
        return self.end - self.start


class _TracedStage:
    """A pipeline stage whose ``run`` is recorded as ``stage.<name>``."""

    def __init__(self, stage, tracer: "Tracer"):
        self._stage = stage
        self._tracer = tracer
        self.name = stage.name

    def run(self, ctx, state) -> None:
        with self._tracer.span(f"stage.{self.name}"):
            self._stage.run(ctx, state)


class Tracer:
    """In-memory span recorder; thread-safe."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "setup"
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home_thread = threading.get_ident()
        self._home_stack: list[int] = []
        self._next_sid = 0

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._home_thread:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed block as one span named ``name``."""
        stack = self._stack()
        if stack:
            parent: int | None = stack[-1]
        else:
            # A worker thread's first span: parent it to the dispatcher.
            home = self._home_stack
            parent = home[-1] if home else None
        with self._lock:
            sid = self._next_sid
            self._next_sid += 1
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            record = Span(
                sid, name, start, end, parent, threading.get_ident(), self.phase
            )
            with self._lock:
                self.spans.append(record)

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Route every :data:`TRACED_CALLS` entry point through a span."""
        from repro.run.pipeline import StagedPipeline

        # Import every module before patching any: a module imported
        # later would bind a wrapper by name and keep it after restore.
        modules = {name: importlib.import_module(name) for name, _, _ in TRACED_CALLS}
        saved: list[tuple[object, str, object]] = []
        for module_name, attribute, span_name in TRACED_CALLS:
            owner: object = modules[module_name]
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, span_name))

        original_stages = StagedPipeline.stages
        tracer = self

        @functools.wraps(original_stages)
        def stages(pipeline, *args, **kwargs):
            return [
                _TracedStage(stage, tracer)
                for stage in original_stages(pipeline, *args, **kwargs)
            ]

        saved.append((StagedPipeline, "stages", original_stages))
        StagedPipeline.stages = stages
        try:
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)

    def write_chrome(self, path: Path) -> Path:
        """Write the spans as Chrome trace-event JSON (complete events)."""
        base = min((span.start for span in self.spans), default=0.0)
        names = {span.sid: span.name for span in self.spans}
        own = self_seconds(self.spans)
        events = [
            {
                "name": span.name,
                "cat": layer_of(span.name),
                "ph": "X",
                "ts": (span.start - base) * 1e6,
                "dur": span.seconds * 1e6,
                "pid": 1,
                "tid": span.thread,
                "args": {
                    "id": span.sid,
                    "parent": span.parent,
                    "parent_name": names.get(span.parent),
                    "phase": span.phase,
                    "self_s": own[span.sid],
                },
            }
            for span in sorted(self.spans, key=lambda span: span.start)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}) + "\n")
        return path


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children on worker threads overlap one another, so the covered part
    is the union of their intervals, clipped to the parent's.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.sid, ()), key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span.sid] = span.seconds - covered
    return result
