"""The traced pass: span hooks around each layer's public functions.

Each hook replaces one attribute where the caller looks it up (a
module-level name the drivers imported, or a method on its class) with
a wrapper that records a span: name, start, end, parent span (a
thread-local stack) and the id of the sample it ran in.  Spans stay in
memory until the sample ends.  A layer's self time is its spans'
duration minus the child spans on the same thread.

The hooks live here, in the benchmark, not in the program: an untraced
sample runs the program exactly as a user would.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Hook:
    """One patched attribute: ``module:Owner.attr`` or ``module:attr``."""

    layer: str
    target: str

    @property
    def span(self) -> str:
        """The span name; a function imported into several modules
        records one name wherever it is patched."""
        return self.target.split(":", 1)[1]


def _hooks(layer: str, *targets: str) -> list[Hook]:
    return [Hook(layer, f"repro.{target}") for target in targets]


#: every hooked call, by layer.  The drivers import ``plan_batch`` and
#: ``reexecute_poisoned`` by name, so those are patched in the driver
#: modules that look them up, not where they are defined.
HOOKS: tuple[Hook, ...] = tuple(
    _hooks(
        "planner",
        "planner.driver:plan_batch",
        "planner.pipeline:plan_batch",
        "planner.executor:PlanExecutor.execute",
        "planner.driver:reexecute_poisoned",
        "planner.pipeline:reexecute_poisoned",
        "planner.driver:BatchPlanner.run",
        "planner.pipeline:PipelinedPlanner.run",
    )
    + _hooks(
        "storage",
        "storage.sharded:ShardedMultiversionStore.reserve",
        "storage.sharded:ShardedMultiversionStore.fill",
        "storage.sharded:ShardedMultiversionStore.remove",
        "storage.sharded:ShardedMultiversionStore.install",
        "storage.mvstore:PlaceholderVersion.wait",
    )
    + _hooks("engine.gc", "engine.gc:WatermarkGC.collect")
    + _hooks(
        "engine",
        "engine.engine:OnlineEngine.submit",
        "engine.engine:OnlineEngine.finish",
    )
    + _hooks("schedulers", "schedulers.base:Scheduler.submit")
    + _hooks(
        "runtime",
        "runtime.dispatch:ShardRuntime.run",
        "runtime.worker:ShardWorker.execute",
        "runtime.worker:ShardWorker.flush_votes",
        "runtime.worker:ShardWorker.flush_apply",
        "runtime.group_commit:GroupCommitLog.commit_closure",
        "runtime.worker:WorkerFuture.wait",
    )
    + _hooks("audit", "audit.auditor:Auditor.feed")
    + _hooks("classes", "classes.mvsr:is_mvsr_fixed")
    + _hooks("graphs", "graphs.digraph:Digraph.would_close_cycle")
    + _hooks(
        "obs",
        "obs.tracer:Tracer.instant",
        "obs.tracer:Tracer.begin",
        "obs.tracer:Tracer.end",
    )
    + _hooks("db", "db.backends:BackendAdapter.run")
)

#: spans the benchmark records around its own calls: the sample's root
#: (``backend.run``) and materialising one workload stream.
SAMPLE_SPAN = "sample"
STREAM_SPAN = "transaction_stream"


def _namespace(owner: Any) -> dict:
    return owner.__dict__ if isinstance(owner, type) else vars(owner)


def _resolve(target: str) -> tuple[Any, str, Any] | None:
    """``(owner, attr, original)`` for a hook target, None if it is gone.

    A method must be defined on the named class itself: patching an
    inherited one would shadow it for that class only.
    """
    module_name, path = target.split(":", 1)
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    namespace = _namespace(owner)
    if attr not in namespace or not callable(namespace[attr]):
        return None
    return owner, attr, namespace[attr]


def missing_hooks() -> list[str]:
    """Targets that no longer exist, by name."""
    return [hook.target for hook in HOOKS if _resolve(hook.target) is None]


class SpanRecorder:
    """Collects spans from hooked calls on any thread.

    A span is ``(id, name, start, end, parent id or -1, thread ident,
    sample id)``; times are ``time.perf_counter`` seconds.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.sample = 0
        self._local = threading.local()
        self._ids = itertools.count()
        self._patched: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording one span named ``name`` per call."""
        stack_of = self._stack
        ids = self._ids
        spans = self.spans
        clock = time.perf_counter
        ident = threading.get_ident
        recorder = self

        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent, ident(),
                              recorder.sample))

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Patch every hook target (all must resolve: check
        :func:`missing_hooks` first)."""
        for hook in HOOKS:
            owner, attr, original = _resolve(hook.target)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(hook.span, original))

    def uninstall(self) -> list[str]:
        """Restore every patched attribute; return those not restored."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        leftover = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._patched
            if _namespace(owner).get(attr) is not original
        ]
        self._patched.clear()
        return leftover

    def take(self) -> list[tuple]:
        """The spans recorded so far, clearing the buffer.

        Call only when no hooked call is in flight: every backend has
        joined its threads by the time ``run`` returns.
        """
        taken = self.spans[:]
        del self.spans[:]
        return taken


@dataclass
class SampleSpans:
    """Self time and call count per span name, for one sample."""

    self_s: dict[str, float]
    calls: dict[str, int]
    #: thread ident -> summed self time of every span on that thread.
    thread_self_s: dict[int, float]
    #: wall seconds of the sample's root span.
    wall_s: float


def self_times(spans: list[tuple]) -> SampleSpans:
    """Aggregate one sample's spans into per-name self time and calls.

    Self time is a span's duration minus that of its children; children
    are only ever on the parent's own thread (the stack is
    thread-local), so per thread the self times sum to the time covered
    by that thread's top-level spans.
    """
    child_s: dict[int, float] = defaultdict(float)
    for span_id, _, start, end, parent, _, _ in spans:
        if parent != -1:
            child_s[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    thread_self_s: dict[int, float] = defaultdict(float)
    wall = 0.0
    for span_id, name, start, end, parent, thread, _ in spans:
        own = (end - start) - child_s.get(span_id, 0.0)
        if name == SAMPLE_SPAN:
            wall = end - start
            continue
        self_s[name] += own
        calls[name] += 1
        thread_self_s[thread] += own
    return SampleSpans(dict(self_s), dict(calls), dict(thread_self_s), wall)


def chrome_events(spans: list[tuple], origin: float,
                  sample_names: dict[int, str]) -> list[dict]:
    """Chrome trace-event JSON for ``spans`` (open it in Perfetto).

    Each sample is a process; threads are numbered per sample.  The
    span and parent ids and the sample id ride in ``args``.
    """
    layer_of = {hook.span: hook.layer for hook in HOOKS}
    layer_of[SAMPLE_SPAN] = "bench"
    layer_of[STREAM_SPAN] = "workloads"
    events: list[dict] = []
    tids: dict[tuple[int, int], int] = {}
    for sample, name in sorted(sample_names.items()):
        events.append({
            "ph": "M", "name": "process_name", "pid": sample, "tid": 0,
            "args": {"name": f"{sample} {name}"},
        })
    for span_id, name, start, end, parent, thread, sample in spans:
        key = (sample, thread)
        if key not in tids:
            tids[key] = sum(1 for s, _ in tids if s == sample)
        events.append({
            "name": name,
            "cat": layer_of.get(name, "bench"),
            "ph": "X",
            "ts": (start - origin) * 1e6,
            "dur": (end - start) * 1e6,
            "pid": sample,
            "tid": tids[key],
            "args": {"span": span_id, "parent": parent, "sample": sample},
        })
    return events


def write_chrome_trace(path: str, events: list[dict]) -> None:
    """Write a gzipped Chrome trace-event file."""
    # ``dumps`` runs the C encoder; ``dump`` would not.
    text = json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
        out.write(text)
