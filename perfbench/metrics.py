"""End-to-end and per-layer metric definitions.

Every metric here is listed in ``BENCHMARK.json`` under the same name;
``test_perfbench.py`` keeps the two in step.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Any, Callable

from perfbench.layers import SampleSpans
from perfbench.suite import REFERENCE_S, TIMED_CONFIGS, Timings

#: (name, unit) of every end-to-end metric, in print order.
END_TO_END: tuple[tuple[str, str], ...] = (
    *((f"{config}_tps", "txn/s") for config in TIMED_CONFIGS),
    ("audit_overhead_x", "x"),
    ("committed_frac", "share"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles`` gives them
    (needs 2 or more values; a run times at least 3 rounds)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def raw_tps(timings: Timings, config: str) -> list[float]:
    """Committed txn per wall second, one value per sample."""
    return [
        committed / seconds
        for committed, seconds in zip(
            timings.committed[config], timings.seconds[config]
        )
    ]


def host_speed(timings: Timings) -> float:
    """This run's median reference time over the nominal one (above 1:
    a slow host)."""
    every = [r for values in timings.reference.values() for r in values]
    return statistics.median(every) / REFERENCE_S


def end_to_end(timings: Timings, peak_rss_mb: float) -> dict[str, float]:
    """The end-to-end metrics of one run's timed rounds.

    Throughput is the median over samples, each corrected to the
    nominal host speed by the references bracketing it (see
    :data:`perfbench.suite.REFERENCE_S`).  A set-up probe lasts too
    long for that (the host's speed flips within it), so set-up time
    is the probes' median divided by the run's :func:`host_speed`.
    """
    out: dict[str, float] = {}
    for config in TIMED_CONFIGS:
        out[f"{config}_tps"] = statistics.median(
            tps * reference / REFERENCE_S
            for tps, reference in zip(
                raw_tps(timings, config), timings.reference[config]
            )
        )
    # Pairing the two samples of one round cancels host drift.
    out["audit_overhead_x"] = statistics.median(
        audited / plain
        for audited, plain in zip(
            timings.seconds["planner_audited"], timings.seconds["planner"]
        )
    )
    committed = sum(sum(v) for v in timings.committed.values())
    expected = sum(sum(v) for v in timings.expected.values())
    out["committed_frac"] = committed / expected
    out["setup_s"] = statistics.median(timings.setup) / host_speed(timings)
    out["peak_rss_mb"] = peak_rss_mb
    return out


@dataclass
class TracedSample:
    """One traced sample of one config, with what it returned."""

    config: str
    n: int
    keys: int
    spans: SampleSpans
    report: Any

    def self_us(self, *names: str) -> float:
        """Self time of the named spans, in µs per submitted txn."""
        total = sum(self.spans.self_s.get(name, 0.0) for name in names)
        return total * 1e6 / self.n

    def calls(self, *names: str) -> int:
        return sum(self.spans.calls.get(name, 0) for name in names)

    @property
    def committed(self) -> int:
        return self.report.committed

    def counter(self, name: str) -> float:
        telemetry = self.report.telemetry()
        return {**telemetry["counters"], **telemetry["gauges"]}[name]


@dataclass(frozen=True)
class Layer:
    """A per-layer metric, read off one config's traced sample."""

    name: str
    unit: str
    config: str
    #: span names the metric reads; each must fire in every traced
    #: sample of ``config`` on the workloads in ``fires_on``.
    spans: tuple[str, ...]
    value: Callable[[TracedSample], float]
    #: workloads where the spans must fire (None: timing-dependent,
    #: so unchecked).
    fires_on: tuple[str, ...] | None = ("*",)
    #: workloads where the value must be > 0.
    positive_on: tuple[str, ...] = ()


def _self(name: str, config: str, *spans: str, **kw) -> Layer:
    return Layer(name, "us", config, spans,
                 lambda s: s.self_us(*spans), **kw)


def _count(name: str, config: str, value, spans=(), **kw) -> Layer:
    return Layer(name, "count", config, tuple(spans), value, **kw)


def _overlap(sample: TracedSample) -> float:
    metrics = sample.report.metrics
    if metrics.plan_elapsed <= 0:
        return 0.0
    return metrics.overlap_elapsed / metrics.plan_elapsed


def _ms(sample: TracedSample) -> dict:
    return sample.report.mode_specific


PLAN = "plan_batch"
EMITS = ("Tracer.instant", "Tracer.begin", "Tracer.end")

#: every per-layer metric, grouped by layer; see README.md for what
#: each should move.
PER_LAYER: tuple[Layer, ...] = (
    # planner: plan / execute / re-exec / settle
    _self("planner.plan_us_per_txn", "planner", PLAN),
    _self("planner.execute_us_per_txn", "planner", "PlanExecutor.execute"),
    _self("planner.reexec_us_per_txn", "planner", "reexecute_poisoned"),
    _self("planner.settle_us_per_txn", "planner", "BatchPlanner.run"),
    _count("planner.reexecuted_per_txn", "planner",
           lambda s: _ms(s)["reexecuted"] / s.n,
           positive_on=("abort-heavy",)),
    _count("planner.steps_per_commit", "planner",
           lambda s: _ms(s)["engine"]["steps"] / s.committed),
    _self("pipelined.plan_us_per_txn", "pipelined", PLAN),
    _self("pipelined.settle_us_per_txn", "pipelined",
          "PipelinedPlanner.run"),
    _self("planner_threaded.plan_us_per_txn", "planner_threaded", PLAN),
    _self("planner_threaded.execute_us_per_txn", "planner_threaded",
          "PlanExecutor.execute"),
    _self("planner_threaded.placeholder_wait_us_per_txn",
          "planner_threaded", "PlaceholderVersion.wait", fires_on=None),
    Layer("pipelined_threaded.overlap_frac", "share", "pipelined_threaded",
          (), _overlap),
    # storage
    _self("storage.reserve_us_per_txn", "planner",
          "ShardedMultiversionStore.reserve"),
    _self("storage.fill_us_per_txn", "planner",
          "ShardedMultiversionStore.fill"),
    _self("storage.remove_us_per_txn", "planner",
          "ShardedMultiversionStore.remove", fires_on=("abort-heavy",)),
    _self("storage.install_us_per_txn", "serial",
          "ShardedMultiversionStore.install"),
    _count("storage.reserves_per_txn", "planner",
           lambda s: s.calls("ShardedMultiversionStore.reserve") / s.n,
           positive_on=("*",)),
    _count("storage.versions_per_key", "planner",
           lambda s: _ms(s)["engine"]["final_versions"] / s.keys),
    _count("storage.peak_versions_per_key", "serial",
           lambda s: s.counter("engine.gc.peak_versions") / s.keys),
    # engine.gc
    _self("gc.collect_us_per_txn", "planner", "WatermarkGC.collect"),
    _count("gc.pruned_per_txn", "planner",
           lambda s: s.counter("engine.gc.versions_pruned") / s.n),
    # engine
    _self("engine.submit_us_per_txn", "serial", "OnlineEngine.submit"),
    _self("engine.finish_us_per_txn", "serial", "OnlineEngine.finish"),
    _count("engine.attempts_per_commit", "serial",
           lambda s: _ms(s)["attempts"] / s.committed),
    _count("engine.replays_per_txn", "serial",
           lambda s: s.counter("engine.replays") / s.n),
    # schedulers
    _self("schedulers.submit_us_per_txn", "serial", "Scheduler.submit"),
    _count("schedulers.submits_per_commit", "serial",
           lambda s: s.calls("Scheduler.submit") / s.committed,
           spans=("Scheduler.submit",)),
    # runtime
    _self("runtime.dispatch_us_per_txn", "parallel", "ShardRuntime.run"),
    _self("runtime.worker_execute_us_per_txn", "parallel",
          "ShardWorker.execute"),
    _self("runtime.flush_us_per_txn", "parallel",
          "ShardWorker.flush_votes", "ShardWorker.flush_apply"),
    _self("runtime.commit_closure_us_per_txn", "parallel",
          "GroupCommitLog.commit_closure"),
    _count("runtime.attempts_per_commit", "parallel",
           lambda s: (s.committed + s.report.aborted) / s.committed),
    _self("parallel_threaded.future_wait_us_per_txn", "parallel_threaded",
          "WorkerFuture.wait", fires_on=None),
    # audit / classes / graphs
    _self("audit.feed_us_per_txn", "planner_audited", "Auditor.feed"),
    _self("classes.mvsr_fixed_us_per_txn", "planner_audited",
          "is_mvsr_fixed"),
    _self("graphs.cycle_check_us_per_txn", "planner_audited",
          "Digraph.would_close_cycle"),
    _count("graphs.cycle_checks_per_txn", "planner_audited",
           lambda s: s.calls("Digraph.would_close_cycle") / s.n,
           spans=("Digraph.would_close_cycle",), positive_on=("*",)),
    # obs
    _self("obs.emit_us_per_txn", "planner_audited", *EMITS),
    _count("obs.events_per_txn", "planner_audited",
           lambda s: s.calls(*EMITS) / s.n, spans=EMITS),
    # db
    _self("db.run_us_per_txn", "planner", "BackendAdapter.run"),
)

#: per-layer metrics the harness measures itself: stream generation
#: (timed around the workload's generator, outside any sample) and
#: traced ÷ untraced sample time.
HARNESS: tuple[tuple[str, str], ...] = (
    ("workloads.stream_us_per_txn", "us"),
    ("bench.trace_overhead_x", "x"),
)
