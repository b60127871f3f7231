"""E18 — pipelined planner vs the sequential batch planner.

Runs the ``e18`` bench suite (:mod:`repro.bench`): the identical stream
through the ``planner`` (PR 3, strictly plan-execute-settle in
sequence) and ``pipelined`` (PR 5, plans batch k+1 while batch k
executes) backends via the typed Database API, on the two E17
workloads: the sharded bank (write-heavy) and the read-mostly hot-key
scenario.  Both modes build the *same plan* — the pipeline only moves
planning off the execution's critical path — so this experiment
isolates the cost of stage sequencing.  Threaded cases run with
``repeats=2`` and quote the best repeat (wall-clock smoothing, the
runner's ``best`` rule); the run leaves ``BENCH_e18.json`` next to the
txt table.

Pinned claims:

* **zero concurrency-control aborts** in every pipelined configuration
  (workers x lookahead x deterministic/threaded) — same measured-zero
  contract as the sequential planner (the engine abort counters are
  reused and never touched);
* **pipelined >= sequential planner throughput** at 4 workers on both
  workloads (threaded, wall-clock; best of two measurements per mode;
  disengaged below 200 txns where CI smoke noise swamps the ratio);
* **deterministic plan-equivalence**: a same-seed deterministic
  pipelined run serializes ``metrics.as_dict()`` byte-identical to the
  *sequential planner's* — the pipeline changes when planning happens,
  never what is planned — and two pipelined runs produce byte-identical
  bench records at every lookahead;
* plan/execute **overlap is real**: threaded pipelined runs report the
  planning seconds hidden under execution windows.
"""

import json
import os

from repro.bench import get_suite, make_record, run_case

SUITE = get_suite("e18")
N_TXNS = int(os.environ.get("REPRO_BENCH_TXNS", "400"))
LOOKAHEADS = [1, 2]
WORKLOADS = ["sharded-bank", "read-mostly"]
#: wall-clock comparisons take the best of this many runs per
#: threaded case (deterministic repeats are identical by contract).
ROUNDS = 2


def test_bench_pipeline(benchmark, table_writer, bench_document_writer):
    def run_all():
        return [
            run_case(
                case,
                repeats=1 if case.deterministic else ROUNDS,
                txns=N_TXNS,
            )
            for case in SUITE.cases
        ]

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    by_id = {r.case.case_id: r for r in results}

    rows = []
    for wname in WORKLOADS:
        planner_thr = by_id[f"{wname}/planner/thr"].best
        rows.append(
            {
                "workload": wname,
                "mode": "planner-thr",
                "lookahead": "-",
                "committed": planner_thr.committed,
                "txn/s": round(planner_thr.throughput),
                "speedup": 1.0,
                "cc_aborts": planner_thr.cc_aborts,
                "overlap_ms": "-",
                "lat_p50": planner_thr.latency.p50,
                "lat_p95": planner_thr.latency.p95,
                "lat_p99": planner_thr.latency.p99,
            }
        )
        for lookahead in LOOKAHEADS:
            r = by_id[f"{wname}/pipelined/la{lookahead}/thr"].best
            native = r.metrics
            rows.append(
                {
                    "workload": wname,
                    "mode": "pipelined-thr",
                    "lookahead": lookahead,
                    "committed": r.committed,
                    "txn/s": round(r.throughput),
                    "speedup": round(
                        r.throughput / planner_thr.throughput, 2
                    ) if planner_thr.throughput else "-",
                    "cc_aborts": r.cc_aborts,
                    "overlap_ms": round(
                        1000 * native.overlap_elapsed, 1
                    ),
                    "lat_p50": r.latency.p50,
                    "lat_p95": r.latency.p95,
                    "lat_p99": r.latency.p99,
                }
            )

        # Headline 1: zero CC aborts, nothing dropped, in every
        # pipelined configuration (these workloads have no logic aborts).
        for tag in ("det", "thr"):
            for lookahead in LOOKAHEADS:
                result = by_id[f"{wname}/pipelined/la{lookahead}/{tag}"]
                for r in result.reports:
                    assert r.cc_aborts == 0, (wname, tag, lookahead)
                    assert r.metrics.logic_aborted == 0
                    assert r.metrics.cascade_aborted == 0
                    assert r.committed == r.submitted == N_TXNS

        # Headline 2: pipelining never loses to the sequential planner
        # at 4 workers, and planning overlap actually happened.
        if N_TXNS >= 200:
            best_pipelined = max(
                by_id[f"{wname}/pipelined/la{la}/thr"].best.throughput
                for la in LOOKAHEADS
            )
            assert best_pipelined >= planner_thr.throughput, (
                wname, best_pipelined, planner_thr.throughput,
            )
            for lookahead in LOOKAHEADS:
                native = by_id[
                    f"{wname}/pipelined/la{lookahead}/thr"
                ].best.metrics
                assert native.batches_overlapped > 0
                assert native.overlap_elapsed > 0.0

    # Headline 3: deterministic plan-equivalence.  The pipelined native
    # metrics dict is byte-identical to the *sequential planner's* for
    # equal seeds (lookahead=1), and re-run pipelined records are
    # byte-identical at every lookahead.
    for wname in WORKLOADS:
        planner_det = by_id[f"{wname}/planner/det"].representative
        pipelined_det = by_id[f"{wname}/pipelined/la1/det"].representative
        assert json.dumps(planner_det.metrics.as_dict()) == json.dumps(
            pipelined_det.metrics.as_dict()
        ), wname
        for lookahead in LOOKAHEADS:
            case = SUITE.case(f"{wname}/pipelined/la{lookahead}/det")
            first = make_record(
                "e18", by_id[case.case_id], sha="pinned"
            )
            again = make_record(
                "e18", run_case(case, txns=N_TXNS), sha="pinned"
            )
            assert json.dumps(first) == json.dumps(again), (
                wname, lookahead,
            )

    # Headline 4: re-executed schedules keep the plan-equivalence
    # contract.  On the abort-heavy stream both abort-free modes
    # re-execute (not cascade), commit the same set, stay CC-abort
    # free, and serialize byte-identical native metrics — re-execution
    # changes neither determinism nor the cross-mode agreement, and a
    # re-run of either case reproduces its record byte-for-byte.
    planner_ah = by_id["abort-heavy/planner/reexec-det"].representative
    pipelined_ah = by_id["abort-heavy/pipelined/reexec-det"].representative
    for r in (planner_ah, pipelined_ah):
        assert r.cc_aborts == 0
        assert r.metrics.reexecuted > 0
        assert r.metrics.cascade_aborted == 0
        assert r.metrics.logic_aborted > 0
        assert r.committed < r.submitted == N_TXNS
    assert planner_ah.committed == pipelined_ah.committed
    assert json.dumps(planner_ah.metrics.as_dict()) == json.dumps(
        pipelined_ah.metrics.as_dict()
    )
    for case_id in (
        "abort-heavy/planner/reexec-det",
        "abort-heavy/pipelined/reexec-det",
    ):
        case = SUITE.case(case_id)
        first = make_record("e18", by_id[case_id], sha="pinned")
        again = make_record(
            "e18", run_case(case, txns=N_TXNS), sha="pinned"
        )
        assert json.dumps(first) == json.dumps(again), case_id

    table_writer(
        "E18_pipeline",
        "pipelined planner vs sequential batch planner "
        f"({N_TXNS} txns, 4 workers, batch 64)",
        rows,
        wallclock=True,
    )
    bench_document_writer("e18", results)
