"""The auditor: structural checks + online 1-SR certification.

Drives a :class:`~repro.audit.reconstruct.ScheduleReconstructor` and
certifies every segment the moment it closes: the reconstructed epoch
schedule, with its observed reads-from relation pinned per read, goes
through :func:`repro.classes.mvsr.is_mvsr_fixed`.  A pass means a
serial order exists in which every read is served exactly the version
the run actually served it — 1-SR, certified from the trace rather
than assumed from the scheduler.

Structural violations (reads-from consistency, version-chain
integrity, the recoverability commit rule) are detected during
reconstruction; a segment carrying any is reported broken and skipped
by the decider (a forged reads-from relation makes its verdict
meaningless).  Drops void everything: an incomplete stream certifies
nothing, which is why audited runs use an unbounded event log.

Certification runs in two passes.  The first takes the version order
the run installed — each writer's first write of an entity, in step
order, which the reconstructor's ``chain-regression`` check holds the
engines to — and checks that the multiversion serialization graph
under it (Bernstein & Goodman's MVSG) is acyclic: O(V+E) on a digraph
with an incremental topological order, and it certifies every clean
segment of every mode.  Only when that graph has a cycle does the
paper's polygraph search decide.  It must stay: another version order
may still serialize the pinned reads, and finding one is the
NP-complete problem; on epoch-sized instances with every read pinned
its propagation almost always resolves without search.  The first
pass's graph is one compatible digraph of the search's polygraph, so
verdicts (and report bytes) are the search's own.
"""

# repro: deterministic-contract — equal seeds must yield byte-identical output

from __future__ import annotations

import threading

from repro.audit.reconstruct import ScheduleReconstructor, Segment
from repro.audit.report import AuditReport
from repro.audit.violations import Violation
from repro.obs.tracer import TraceEvent


class Auditor:
    """Folds a trace stream and certifies each segment as it closes."""

    def __init__(self) -> None:
        self._reconstructor = ScheduleReconstructor(
            on_segment=self._judge
        )
        #: certification verdicts per segment, in close order.
        self.certified_segments = 0
        self.violations: list[Violation] = []
        self._counts = {"reads": 0, "writes": 0, "committed": 0}
        #: threaded backends emit from worker threads; the fold itself
        #: is per-track but the shared tallies need the lock.
        self._lock = threading.Lock()
        self._report: AuditReport | None = None

    # -- live wiring -------------------------------------------------------

    @classmethod
    def attach(cls, tracer) -> "Auditor":
        """Subscribe a fresh auditor to ``tracer``'s event stream."""
        auditor = cls()
        tracer.subscribe(auditor.feed)
        return auditor

    def feed(self, event: TraceEvent) -> None:
        """The tracer-sink entry point (also usable post-hoc)."""
        with self._lock:
            self._reconstructor.feed(event)

    # -- judgment ----------------------------------------------------------

    def _judge(self, segment: Segment) -> None:
        """Certify one closed segment (runs inside the feed lock when
        live — online certification happens as the run progresses)."""
        from repro.classes.mvsr import is_mvsr_fixed

        self._counts["committed"] += len(segment.committed)
        for step in segment.schedule:
            key = "reads" if step.is_read else "writes"
            self._counts[key] += 1
        if segment.violations:
            self.violations.extend(segment.violations)
            return
        if is_mvsr_fixed(segment.schedule, dict(segment.read_sources)):
            self.certified_segments += 1
        else:
            self.violations.append(Violation(
                "not-serializable", segment.track, segment.index, "",
                f"no serial order serves the observed reads-from "
                f"relation ({len(segment.schedule)} steps, "
                f"{len(segment.committed)} transactions)",
            ))

    def finish(self, dropped: int = 0) -> AuditReport:
        """Flush residual segments and assemble the report (idempotent)."""
        with self._lock:
            if self._report is not None:
                return self._report
            if dropped:
                # An incomplete stream voids every conclusion: refuse
                # rather than certify a schedule with holes in it.
                self.violations.append(Violation(
                    "trace-dropped", "", -1, "",
                    f"{dropped} event(s) dropped by the ring buffer; "
                    f"run with an unbounded log (capacity=None) to audit",
                ))
            else:
                self._reconstructor.finish()
            rec = self._reconstructor
            violations = tuple(sorted(
                self.violations,
                key=lambda v: (v.track, v.segment, v.code, v.txn, v.detail),
            ))
            self._report = AuditReport(
                ok=not violations,
                events=rec.events_seen,
                dropped=dropped,
                tracks=len(rec.tracks_with_data),
                segments=len(rec.segments),
                certified=self.certified_segments,
                committed_attempts=self._counts["committed"],
                reads=self._counts["reads"],
                writes=self._counts["writes"],
                violations=violations,
            )
            return self._report


def audit_events(events, dropped: int = 0) -> AuditReport:
    """Post-hoc audit of an in-memory event list."""
    auditor = Auditor()
    if not dropped:
        for event in events:
            auditor.feed(event)
    return auditor.finish(dropped=dropped)


def audit_file(path: str) -> AuditReport:
    """Post-hoc audit of a ``repro run --trace`` JSONL file.

    Checks the meta header's drop count first — a truncated trace is
    refused with a ``trace-dropped`` violation, never part-audited.
    Raises ``ValueError`` (the CLI's usage-error class) for files that
    are not traces.
    """
    from repro.obs.export import read_jsonl

    meta, events = read_jsonl(path)
    return audit_events(events, dropped=int(meta.get("dropped", 0) or 0))
