"""The auditor's first pass, differentially against the polygraph search.

``is_mvsr_fixed`` first checks the serialization graph under the
installed version order and falls back to the paper's polygraph search
only when that graph has a cycle.  On every scenario × deterministic
mode × seed the first pass certifies every clean segment on its own,
never disagrees with the search, and the audit report is byte-identical
to one certified by the search alone.
"""

import pytest

from repro.audit import ScheduleReconstructor, audit_events
from repro.classes import mvsr
from repro.db import Database, RunConfig, backend_names
from repro.obs import Tracer
from repro.workloads import scenario_names

SEEDS = (1, 2, 3)


def traced_audited_run(mode, scenario, seed):
    tracer = Tracer(capacity=None)
    config = RunConfig(
        mode=mode, workers=2, deterministic=True, seed=seed,
        trace=tracer, audit=True,
    )
    report = Database().run(scenario, config, txns=60)
    return report, list(tracer.log)


def segments_of(events):
    rec = ScheduleReconstructor()
    for event in events:
        rec.feed(event)
    return rec.finish()


def search_only(schedule, fixed=None):
    """``is_mvsr_fixed`` without its first pass."""
    return mvsr._polygraph_search(mvsr._core(schedule), fixed or {})


@pytest.mark.parametrize("scenario", scenario_names())
@pytest.mark.parametrize("mode", backend_names())
def test_first_pass_certifies_every_clean_segment(mode, scenario, monkeypatch):
    for seed in SEEDS:
        report, events = traced_audited_run(mode, scenario, seed)
        assert report.audit.ok, report.audit.format()
        segments = segments_of(events)
        assert segments and len(segments) == report.audit.certified
        for segment in segments:
            assert not segment.violations
            core = mvsr._core(segment.schedule)
            pins = dict(segment.read_sources)
            assert mvsr._installed_order_certifies(core, pins), (
                mode, scenario, seed, segment.track, segment.index,
            )
        # The search alone certifies the same segments (the first pass's
        # True is never the search's False), so the report bytes match.
        with monkeypatch.context() as patch:
            patch.setattr(mvsr, "is_mvsr_fixed", search_only)
            searched = audit_events(events)
        assert searched.certified == len(segments)
        assert searched.as_json() == report.audit.as_json()
