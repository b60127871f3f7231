"""The benchmark's own tests: names, oracle agreement, self-time sums
and the traced pass's integrity checks, all on short streams."""

import json
import os
import re

import pytest

from perfbench import layers
from perfbench.layers import (
    SAMPLE_SPAN,
    SpanRecorder,
    missing_hooks,
    self_times,
)
from perfbench.metrics import END_TO_END, HARNESS, PER_LAYER, end_to_end
from perfbench.suite import (
    CONFIGS,
    REFERENCE_S,
    TIMED_CONFIGS,
    WORKLOADS,
    CheckFailed,
    Timings,
    build,
    check,
    checked_sample,
    oracles_for,
    run_sample,
)
from perfbench.tracing import traced_pass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SHORT = 60


def short(workload, seed=11):
    setup = build(workload, seed, n=SHORT, substreams=2)
    return setup, oracles_for(setup)


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_names_match_benchmark_json(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    assert end_to_end == list(END_TO_END)
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert per_layer == [(x.name, x.unit) for x in PER_LAYER] + list(HARNESS)
    names = [n for n, _ in end_to_end + per_layer] + list(WORKLOADS)
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_config_agrees_with_the_oracle(workload):
    setup, oracles = short(workload)
    for index in range(len(setup.streams)):
        for config in CONFIGS:
            _, report = checked_sample(setup, oracles, config, index)
            # Nothing is given up: the result line's `failed` stays 0.
            assert report.committed == len(oracles[index].committed)


def test_check_rejects_a_wrong_final_state():
    setup, oracles = short("transfer-wide")
    _, report = run_sample(setup, "planner")
    oracle = oracles[0]
    entity = next(iter(oracle.final_state))
    oracle.final_state[entity] += 1
    with pytest.raises(CheckFailed, match="final state"):
        check("planner", report, setup.streams[0], oracle)


def test_each_sample_is_corrected_by_its_own_references():
    timings = Timings()
    # The same work on a nominal, a half-speed and a double-speed host.
    for seconds, speed in ((1.0, 1.0), (2.0, 2.0), (0.5, 0.5)):
        for config in TIMED_CONFIGS:
            timings.add(config, seconds, 100, 100, speed * REFERENCE_S)
    timings.setup = [0.8, 0.9, 1.0]
    metrics = end_to_end(timings, peak_rss_mb=10.0)
    for config in TIMED_CONFIGS:
        assert metrics[f"{config}_tps"] == pytest.approx(100.0)
    assert metrics["setup_s"] == pytest.approx(0.9)
    assert metrics["committed_frac"] == 1.0


def test_self_times_subtract_children_on_the_same_thread():
    spans = [
        (0, SAMPLE_SPAN, 0.0, 10.0, -1, 1, 1),
        (1, "outer", 1.0, 9.0, 0, 1, 1),
        (2, "inner", 2.0, 5.0, 1, 1, 1),
        (3, "inner", 5.0, 6.0, 1, 1, 1),
        (4, "worker", 2.0, 8.0, -1, 2, 1),
    ]
    agg = self_times(spans)
    assert agg.wall_s == 10.0
    assert agg.self_s == {"outer": 4.0, "inner": 4.0, "worker": 6.0}
    assert agg.calls == {"outer": 1, "inner": 2, "worker": 1}
    assert agg.thread_self_s == {1: 8.0, 2: 6.0}


@pytest.mark.parametrize("config", list(CONFIGS))
def test_self_time_per_thread_never_exceeds_the_sample(config):
    setup, _ = short("abort-heavy", seed=5)
    recorder = SpanRecorder()
    recorder.install()
    try:
        run_sample(setup, config, 0,
                   wrap=lambda run: recorder.wrap(SAMPLE_SPAN, run))
    finally:
        assert recorder.uninstall() == []
    agg = self_times(recorder.take())
    assert agg.calls
    for thread_s in agg.thread_self_s.values():
        assert thread_s <= agg.wall_s + 1e-9


def test_hooks_resolve_and_are_restored():
    assert missing_hooks() == []
    originals = [layers._resolve(h.target)[2] for h in layers.HOOKS]
    recorder = SpanRecorder()
    recorder.install()
    patched = [layers._resolve(h.target)[2] for h in layers.HOOKS]
    assert all(p is not o for p, o in zip(patched, originals))
    assert recorder.uninstall() == []
    restored = [layers._resolve(h.target)[2] for h in layers.HOOKS]
    assert all(r is o for r, o in zip(restored, originals))


def test_a_missing_hook_is_named_not_zeroed(monkeypatch, tmp_path):
    gone = layers.Hook("planner", "repro.planner.driver:no_such_function")
    monkeypatch.setattr(layers, "HOOKS", layers.HOOKS + (gone,))
    assert missing_hooks() == [gone.target]
    setup, oracles = short("abort-heavy", seed=5)
    with pytest.raises(CheckFailed, match="no_such_function"):
        traced_pass(setup, oracles, 0.0, str(tmp_path / "t.json.gz"))


def test_traced_pass_on_a_short_stream(tmp_path):
    setup, oracles = short("abort-heavy", seed=5)
    path = tmp_path / "trace.json.gz"
    metrics, samples, lost = traced_pass(setup, oracles, 0.0, str(path))
    assert samples == 2 * len(CONFIGS)
    assert lost == 0
    assert set(metrics) == {x.name for x in PER_LAYER} | dict(HARNESS).keys()
    assert metrics["planner.reexecuted_per_txn"] > 0
    assert metrics["storage.reserves_per_txn"] == 2.0
    assert path.stat().st_size > 0
