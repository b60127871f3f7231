"""The per-layer pass: untraced then traced sample per config, checked.

Integrity rules the pass enforces (a breach raises ``CheckFailed``):

* every hook target still exists (a renamed function is named, never
  reported as 0);
* every patched attribute is restored after each traced sample;
* a deterministic config's report is byte-identical traced and
  untraced, and its span counts repeat exactly across rounds;
* each metric's spans fire on the workloads it is meant to measure.
"""

from __future__ import annotations

import json
import statistics
import time

from perfbench.layers import (
    SAMPLE_SPAN,
    STREAM_SPAN,
    SpanRecorder,
    chrome_events,
    missing_hooks,
    self_times,
    write_chrome_trace,
)
from perfbench.metrics import PER_LAYER, TracedSample
from perfbench.suite import (
    CONFIGS,
    DETERMINISTIC,
    REFERENCE_S,
    CheckFailed,
    checked_sample,
    reference_seconds,
)


def _fail(why: str) -> None:
    raise CheckFailed(why)


def _check_fires(setup, samples: dict[str, TracedSample]) -> None:
    for layer in PER_LAYER:
        sample = samples[layer.config]
        if layer.fires_on is not None and (
            "*" in layer.fires_on or setup.workload in layer.fires_on
        ):
            idle = [name for name in layer.spans if not sample.calls(name)]
            if idle:
                _fail(f"{layer.name}: {idle} never fired in "
                      f"{layer.config} on {setup.workload}")
        if "*" in layer.positive_on or setup.workload in layer.positive_on:
            if not layer.value(sample) > 0:
                _fail(f"{layer.name} is 0 on {setup.workload}")


def traced_pass(setup, oracles, seconds: float,
                trace_path: str) -> tuple[dict[str, float], int, int]:
    """Rounds of (untraced, traced) samples per config until
    ``seconds`` pass (at least one round), all on the first stream so
    exact counts can repeat.  Returns the per-layer metrics (medians
    over rounds, times corrected to the nominal host speed), the
    number of samples run and the transactions they lost against the
    oracle (given up or cascaded)."""
    gone = missing_hooks()
    if gone:
        _fail("hook targets no longer exist: " + ", ".join(gone))
    recorder = SpanRecorder()

    def root_span(run):
        return recorder.wrap(SAMPLE_SPAN, run)

    stream = setup.streams[0]
    keys = len(stream.initial)
    n = len(stream.items)
    expected = len(oracles[0].committed)
    values: dict[str, list[float]] = {layer.name: [] for layer in PER_LAYER}
    values["workloads.stream_us_per_txn"] = []
    values["bench.trace_overhead_x"] = []
    first_counts: dict[str, dict[str, int]] = {}
    chrome: list[tuple] = []
    names: dict[int, str] = {}
    samples_run = lost = 0
    references: list[float] = []
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < 1 or time.perf_counter() < deadline:
        rounds += 1
        recorder.sample += 1
        # The generator does its work as it is drained, so the span
        # wraps the draining.
        recorder.wrap(
            STREAM_SPAN, lambda: list(stream.scenario.transaction_stream(n))
        )()
        stream_spans = recorder.take()
        values["workloads.stream_us_per_txn"].append(
            self_times(stream_spans).self_s[STREAM_SPAN] * 1e6 / n
        )
        if rounds == 1:
            chrome.extend(stream_spans)
            names[recorder.sample] = "workload stream"
        plain_s = traced_s = 0.0
        samples: dict[str, TracedSample] = {}
        for config in CONFIGS:
            references.append(reference_seconds())
            elapsed, plain = checked_sample(setup, oracles, config)
            plain_s += elapsed
            recorder.sample += 1
            recorder.install()
            try:
                elapsed, report = checked_sample(
                    setup, oracles, config, wrap=root_span
                )
            finally:
                leftover = recorder.uninstall()
            if leftover:
                _fail(f"patched attributes not restored: {leftover}")
            samples_run += 2
            lost += 2 * expected - plain.committed - report.committed
            traced_s += elapsed
            spans = recorder.take()
            if config in DETERMINISTIC and (
                json.dumps(plain.as_dict()) != json.dumps(report.as_dict())
            ):
                _fail(f"{config}: traced report differs from untraced")
            sample = TracedSample(config, n, keys, self_times(spans), report)
            samples[config] = sample
            if rounds == 1:
                first_counts[config] = sample.spans.calls
                chrome.extend(spans)
                names[recorder.sample] = config
            elif (config in DETERMINISTIC
                  and sample.spans.calls != first_counts[config]):
                _fail(f"{config}: span counts changed between rounds")
        if rounds == 1:
            _check_fires(setup, samples)
        for layer in PER_LAYER:
            values[layer.name].append(layer.value(samples[layer.config]))
        values["bench.trace_overhead_x"].append(traced_s / plain_s)
    origin = min((span[2] for span in chrome), default=0.0)
    write_chrome_trace(trace_path, chrome_events(chrome, origin, names))
    correction = REFERENCE_S / statistics.median(references)
    timed = {x.name for x in PER_LAYER if x.unit == "us"}
    timed.add("workloads.stream_us_per_txn")
    return {
        name: statistics.median(series) * (
            correction if name in timed else 1.0
        )
        for name, series in values.items()
    }, samples_run, lost
