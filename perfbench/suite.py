"""Workloads, mode configurations, the serial oracle and output checks.

Load model: closed loop, one caller.  A sample drains one
pre-generated stream through ``get_backend(mode).run`` and is timed
from the call to its return; the next sample starts only after that.
The program only ever sees the materialised streams, never the seed.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass, field
from typing import Any

#: workload name -> (scenario, scenario params, stream length).  The
#: length is the same for every mode within a workload.  Each is sized
#: so one timed round takes 0.5-0.8 s on a 2-core host: many short
#: samples give a steadier median than a few long ones, because the
#: host's speed drifts by 15-20% within seconds.
WORKLOADS: dict[str, tuple[str, dict[str, Any], int]] = {
    "transfer-wide": (
        "sharded-bank",
        {"accounts_per_shard": 64, "cross_fraction": 0.1},
        1024,
    ),
    "read-hot": ("read-mostly", {}, 1024),
    "abort-heavy": ("abort-heavy", {}, 128),
}

#: streams per run, each from its own seed derived from ``--seed``.
#: Rounds cycle through them, so a run's medians average over many
#: streams instead of one stream's luck (serial throughput on read-hot
#: varies by ~25% between single streams, the audit ratio by ~20%).
SUBSTREAMS = 32

#: retry budget (``RetryPolicy.max_attempts``) of the online configs.
#: The default budget of 8 gives transactions up, and a given-up
#: transaction is a failed operation.  Over every stream of two seeds,
#: with 8 attempts serial gives up 0.7% of read-hot's transactions
#: (writers to the 2 hot keys keep losing to later readers under MVTO)
#: and 0.03% of abort-heavy's, threaded parallel a few per 10 000 on
#: read-hot.  With 32, none of them gave anything up over every stream
#: of five read-hot and three abort-heavy seeds.  The cost: serial and
#: parallel retry every injected logic abort 32 times, not 8, which
#: makes them about 3x slower on abort-heavy.
ONLINE_RETRY = 32

#: mode configuration name -> RunConfig keyword arguments.  The machine
#: this was tuned on has 2 cores, so the threaded configs use 2 workers;
#: the online ones retry up to ``ONLINE_RETRY`` times; everything else
#: is the mode's default.  Order matters: samples run
#: round-robin in this order, and ``planner_audited`` directly follows
#: ``planner`` so their per-round ratio pairs adjacent samples.
CONFIGS: dict[str, dict[str, Any]] = {
    "serial": {"mode": "serial", "retry": ONLINE_RETRY},
    "parallel": {
        "mode": "parallel", "deterministic": True, "retry": ONLINE_RETRY,
    },
    "parallel_threaded": {
        "mode": "parallel", "workers": 2, "retry": ONLINE_RETRY,
    },
    "planner": {"mode": "planner", "deterministic": True},
    "planner_audited": {
        "mode": "planner", "deterministic": True, "audit": True,
    },
    "planner_threaded": {"mode": "planner", "workers": 2},
    "pipelined": {"mode": "pipelined", "deterministic": True},
    "pipelined_threaded": {"mode": "pipelined", "workers": 2},
}

#: configs whose throughput is an end-to-end metric.  The threaded ones
#: are not: across runs their medians spread 12-27% (IQR / median)
#: against 4-14% for the rest, because GIL hand-offs between the
#: driver and 2 worker threads amplify the host's speed swings.  They
#: still run, checked, in every warm-up and in the traced pass.
TIMED_CONFIGS = ("serial", "parallel", "planner", "planner_audited",
                 "pipelined")

#: configs whose committed set and final state must equal the oracle's
#: exactly (the abort-free planner family, deterministic or threaded).
PLANNER_FAMILY = frozenset(
    name for name, kw in CONFIGS.items()
    if kw["mode"] in ("planner", "pipelined")
)

#: configs whose runs are deterministic (serial always is): their
#: reports and exact counts must repeat.
DETERMINISTIC = frozenset(
    name for name, kw in CONFIGS.items()
    if kw.get("deterministic") or kw["mode"] == "serial"
)

#: every module a run imports lazily; set-up imports them up front so
#: no sample pays an import.
LAZY_MODULES = (
    "repro.db",
    "repro.engine",
    "repro.runtime.dispatch",
    "repro.planner.driver",
    "repro.planner.pipeline",
    "repro.audit",
    "repro.classes.mvsr",
    "repro.obs",
)


#: The host's speed swings by up to 1.8x, far beyond any usable
#: regression bound, and it moves every piece of interpreter work
#: alike: the ratio of two configs' sample times stays within a few
#: percent through such a swing.  The swings are spells of a fast and
#: a slow speed lasting from a fraction of a second to minutes, so
#: every sample is bracketed by two timings of this fixed,
#: repro-independent reference, and reported as if the host ran the
#: reference in ``REFERENCE_S`` while the sample ran.
REFERENCE_LOOPS = 40000
REFERENCE_S = 0.010


def reference_seconds() -> float:
    """Wall time of the fixed reference work (dict, tuple, list ops).

    Collects garbage first, so the reference never pays for a sample's.
    """
    gc.collect()
    started = time.perf_counter()
    table: dict[int, int] = {}
    pairs = []
    for i in range(REFERENCE_LOOPS):
        key = i % 251
        table[key] = table.get(key, 0) + i
        if i % 7 == 0:
            pairs.append((key, i))
    pairs.sort()
    return time.perf_counter() - started


class CheckFailed(Exception):
    """An output check failed; the run must exit non-zero."""


@dataclass
class Stream:
    """One materialised stream and the scenario that generated it."""

    scenario: Any
    items: list
    initial: dict


@dataclass
class Setup:
    """Everything a run needs before its first sample."""

    workload: str
    streams: list[Stream]
    configs: dict[str, Any]


def build(workload: str, seed: int, n: int | None = None,
          substreams: int = SUBSTREAMS) -> Setup:
    """Import every backend, build the scenarios, materialise streams.

    This is the span ``setup_s`` times (in a fresh process).  ``n``
    overrides the workload's stream length (tests use short streams).
    """
    import importlib

    for module in LAZY_MODULES:
        importlib.import_module(module)
    from repro.db import RunConfig
    from repro.workloads.registry import scenario_factory

    name, params, length = WORKLOADS[workload]
    n = length if n is None else n
    streams = []
    for k in range(substreams):
        # Distinct per (seed, k) since k < substreams.
        scenario = scenario_factory(
            name, seed=seed * substreams + k, **params
        )
        streams.append(Stream(
            scenario, list(scenario.transaction_stream(n)),
            scenario.initial_state(),
        ))
    configs = {
        config: RunConfig(seed=seed, **kw) for config, kw in CONFIGS.items()
    }
    return Setup(workload, streams, configs)


@dataclass
class Oracle:
    """A stream applied serially, in stream order."""

    final_state: dict
    committed: list[str]


def serial_oracle(initial: dict, stream: list) -> Oracle:
    """Apply each transaction in stream order; one whose program raises
    commits nothing.  Shares only ``write_value`` with the program, so
    write semantics cannot diverge."""
    from repro.storage.executor import write_value

    state = dict(initial)
    committed = []
    for txn, program in stream:
        reads: list = []
        writes: dict = {}
        write_index = 0
        try:
            for step in txn.steps:
                if step.is_read:
                    reads.append(writes.get(step.entity, state[step.entity]))
                else:
                    writes[step.entity] = write_value(
                        program, txn.txn, write_index, reads
                    )
                    write_index += 1
        except Exception:  # noqa: BLE001 - any raise is a logic abort
            continue
        state.update(writes)
        committed.append(str(txn.txn))
    return Oracle(state, committed)


def oracles_for(setup: Setup) -> list[Oracle]:
    return [serial_oracle(s.initial, s.items) for s in setup.streams]


def run_sample(setup: Setup, config: str, index: int = 0, wrap=None):
    """One timed sample of stream ``index``: ``(wall seconds, report)``.

    ``wrap`` decorates the backend's ``run`` inside the timed region
    (the traced pass records its root span that way).
    """
    from repro.db.backends import get_backend

    cfg = setup.configs[config]
    backend = get_backend(cfg.mode)
    stream = setup.streams[index]
    run = backend.run if wrap is None else wrap(backend.run)
    gc.collect()
    started = time.perf_counter()
    report = run(
        stream.items, stream.initial, cfg,
        scenario=setup.workload,
        invariant=stream.scenario.invariant_holds,
    )
    return time.perf_counter() - started, report


def check(config: str, report, stream: Stream, oracle: Oracle) -> None:
    """Raise :class:`CheckFailed` unless ``report`` is a correct output."""

    def fail(why: str) -> None:
        raise CheckFailed(f"{report.scenario}/{config}: {why}")

    if report.submitted != len(stream.items):
        fail(f"submitted {report.submitted} of {len(stream.items)}")
    if not report.invariant_ok:
        fail("invariant violated")
    expected = len(oracle.committed)
    if config in PLANNER_FAMILY:
        if report.cc_aborts != 0:
            fail(f"{report.cc_aborts} cc aborts in an abort-free mode")
        if report.committed != expected:
            fail(f"committed {report.committed}, oracle {expected}")
        state = {**stream.initial, **report.final_state}
        if state != oracle.final_state:
            wrong = sorted(
                k for k in oracle.final_state
                if state.get(k) != oracle.final_state[k]
            )
            fail(f"final state differs from the oracle on {wrong[:5]}")
    elif report.committed > expected:
        fail(f"committed {report.committed} > oracle {expected}")
    if CONFIGS[config].get("audit"):
        audit = report.audit
        if audit is None or not audit.ok:
            fail(f"audit did not certify the run: {audit}")
        if audit.certified != audit.segments:
            fail(
                f"audit certified {audit.certified} of "
                f"{audit.segments} segments"
            )


def checked_sample(setup: Setup, oracles: list[Oracle], config: str,
                   index: int = 0, wrap=None):
    """:func:`run_sample`, then :func:`check` its output."""
    elapsed, report = run_sample(setup, config, index, wrap)
    check(config, report, setup.streams[index], oracles[index])
    return elapsed, report


@dataclass
class Timings:
    """Per-config sample times and commit counts, in round order."""

    seconds: dict[str, list[float]] = field(default_factory=dict)
    committed: dict[str, list[int]] = field(default_factory=dict)
    #: the oracle's commit count for each sample's stream.
    expected: dict[str, list[int]] = field(default_factory=dict)
    #: geometric mean of the :func:`reference_seconds` timed right
    #: before and right after each sample.
    reference: dict[str, list[float]] = field(default_factory=dict)
    #: wall seconds of each set-up probe.
    setup: list[float] = field(default_factory=list)

    def add(self, config: str, seconds: float, committed: int,
            expected: int, reference: float) -> None:
        self.seconds.setdefault(config, []).append(seconds)
        self.committed.setdefault(config, []).append(committed)
        self.expected.setdefault(config, []).append(expected)
        self.reference.setdefault(config, []).append(reference)

    @property
    def rounds(self) -> int:
        return min((len(v) for v in self.seconds.values()), default=0)


def warm_up(setup: Setup, oracles: list[Oracle]) -> None:
    """One checked, untimed sample per config (caches, lazy set-up)."""
    for config in CONFIGS:
        checked_sample(setup, oracles, config)


def timed_rounds(setup: Setup, oracles: list[Oracle], seconds: float,
                 min_rounds: int = 3, probe=None,
                 probes: int = 0) -> Timings:
    """Round-robin over the timed configs until ``seconds`` have passed;
    round ``r`` drains stream ``r mod SUBSTREAMS`` in every config.

    ``probe`` (a set-up measurement) runs ``probes`` times, spread
    evenly over the rounds so that it meets the same host speed as the
    samples.  A reference is timed after every sample and probe, so
    each sample is bracketed by two.  Every sample's output is checked;
    a failed check raises.
    """
    timings = Timings()
    last = reference_seconds()

    def bracket() -> float:
        nonlocal last
        before, last = last, reference_seconds()
        return math.sqrt(before * last)

    def run_probe() -> None:
        nonlocal last
        timings.setup.append(probe())
        last = reference_seconds()

    started = time.perf_counter()
    deadline = started + seconds
    while timings.rounds < min_rounds or time.perf_counter() < deadline:
        due = started + seconds * len(timings.setup) / max(probes, 1)
        if len(timings.setup) < probes and time.perf_counter() >= due:
            run_probe()
        index = timings.rounds % len(setup.streams)
        for config in TIMED_CONFIGS:
            elapsed, report = checked_sample(setup, oracles, config, index)
            timings.add(config, elapsed, report.committed,
                        len(oracles[index].committed), bracket())
    while len(timings.setup) < probes:
        run_probe()
    return timings
