"""E17 — abort-free batch planner vs the online execution modes.

Runs the ``e17`` bench suite (:mod:`repro.bench`): the identical stream
through all three execution modes via the typed Database API — serial
engine (abort/retry), parallel shard runtime (group commit), batch
planner (plan-then-execute) — on two workloads: the sharded bank
scenario (E16's write-heavy baseline) and the read-mostly hot-key
scenario, where nearly every transaction is a multi-key read racing a
trickle of hot writes — the abort machine of the optimistic modes, and
exactly the reads planning resolves for free.  The run leaves
``BENCH_e17.json`` next to the txt table.

Pinned claims:

* the planner path reports **zero concurrency-control aborts** on both
  workloads, every worker count, both execution modes — by construction,
  but measured (``cc_aborts`` is the engine's abort counters, which the
  planner reuses and never touches);
* planner throughput at 4 workers ≥ the serial engine's (wall-clock
  ratios disengage below 200 txns, where CI smoke noise swamps them);
* two same-seed deterministic planner runs produce **byte-identical
  bench records** (throughput is tick-based, so the whole record —
  counters, latency percentiles, telemetry — is the contract).
"""

import json
import os

from repro.bench import get_suite, make_record, run_case, run_suite

SUITE = get_suite("e17")
N_TXNS = int(os.environ.get("REPRO_BENCH_TXNS", "400"))
WORKER_COUNTS = [1, 2, 4]
WORKLOADS = ["sharded-bank", "read-mostly"]


def test_bench_planner(benchmark, table_writer, bench_document_writer):
    def run_all():
        return run_suite(SUITE, txns=N_TXNS)

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    by_id = {r.case.case_id: r for r in results}
    report = {cid: r.representative for cid, r in by_id.items()}

    rows = []
    for wname in WORKLOADS:
        serial = report[f"{wname}/serial"]
        parallel = report[f"{wname}/parallel-det"]
        rows.append(
            {
                "workload": wname,
                "mode": "serial-engine",
                "workers": 4,
                "committed": serial.committed,
                "txn/s": round(serial.throughput),
                "speedup": 1.0,
                "cc_aborts": serial.cc_aborts,
                "lat_mean": round(serial.latency.mean, 1),
                "lat_p50": serial.latency.p50,
                "lat_p95": serial.latency.p95,
                "lat_p99": serial.latency.p99,
            }
        )
        rows.append(
            {
                "workload": wname,
                "mode": "runtime-det",
                "workers": 4,
                "committed": parallel.committed,
                "txn/s": round(parallel.throughput),
                "speedup": round(
                    parallel.throughput / serial.throughput, 2
                ) if serial.throughput else "-",
                "cc_aborts": parallel.cc_aborts,
                "lat_mean": round(parallel.latency.mean, 1),
                "lat_p50": parallel.latency.p50,
                "lat_p95": parallel.latency.p95,
                "lat_p99": parallel.latency.p99,
            }
        )
        for workers in WORKER_COUNTS:
            for tag, deterministic in (("det", True), ("thr", False)):
                m = report[f"{wname}/planner/w{workers}/{tag}"]
                rows.append(
                    {
                        "workload": wname,
                        "mode": "planner-det"
                        if deterministic
                        else "planner-thr",
                        "workers": workers,
                        "committed": m.committed,
                        "txn/s": round(m.throughput),
                        "speedup": round(
                            m.throughput / serial.throughput, 2
                        ) if serial.throughput else "-",
                        "cc_aborts": m.cc_aborts,
                        "lat_mean": round(m.latency.mean, 1),
                        "lat_p50": m.latency.p50,
                        "lat_p95": m.latency.p95,
                        "lat_p99": m.latency.p99,
                    }
                )

        # The headline claims.  Zero CC aborts on the planner path — in
        # every configuration, not just the headline one — and nothing
        # silently dropped (these workloads have no logic aborts).
        for workers in WORKER_COUNTS:
            for tag in ("det", "thr"):
                m = report[f"{wname}/planner/w{workers}/{tag}"]
                assert m.cc_aborts == 0, (wname, workers, tag)
                native = m.metrics
                assert native.logic_aborted == 0
                assert native.cascade_aborted == 0
                assert m.committed == m.submitted == N_TXNS
        # Throughput: the planner at 4 workers clears the serial engine
        # (wall-clock; disengaged at CI smoke sizes like E16).
        if N_TXNS >= 200:
            best_at_4 = max(
                report[f"{wname}/planner/w4/{tag}"].throughput
                for tag in ("det", "thr")
            )
            assert best_at_4 >= serial.throughput, (
                wname,
                best_at_4,
                serial.throughput,
            )

    # The re-execution claim (abort-heavy column): the planner with
    # re-execution strictly beats the poison cascade on committed
    # transactions, matches the serial engine's committed set size
    # (both realize the serial-oracle outcome), and neither planner
    # run pays a single concurrency-control abort.
    serial_ah = report["abort-heavy/serial"]
    cascade = report["abort-heavy/planner/cascade"]
    reexec = report["abort-heavy/planner/reexec"]
    for label, m in (
        ("serial", serial_ah), ("planner-cascade", cascade),
        ("planner-reexec", reexec),
    ):
        rows.append(
            {
                "workload": "abort-heavy",
                "mode": label,
                "workers": 4,
                "committed": m.committed,
                "txn/s": round(m.throughput),
                "speedup": round(
                    m.throughput / serial_ah.throughput, 2
                ) if serial_ah.throughput else "-",
                "cc_aborts": m.cc_aborts,
                "lat_mean": round(m.latency.mean, 1),
                "lat_p50": m.latency.p50,
                "lat_p95": m.latency.p95,
                "lat_p99": m.latency.p99,
            }
        )
    assert reexec.cc_aborts == cascade.cc_aborts == 0
    assert reexec.committed > cascade.committed
    assert reexec.committed == serial_ah.committed
    assert reexec.metrics.reexecuted > 0
    assert reexec.metrics.cascade_aborted == 0
    assert cascade.metrics.cascade_aborted > 0
    assert cascade.metrics.reexecuted == 0

    # Reproducibility: same seed, deterministic mode, byte-identical
    # bench record — the planner's determinism contract, now pinned at
    # the record level (what `repro bench compare` consumes).
    for wname, case_id in [
        (wname, f"{wname}/planner/w4/det") for wname in WORKLOADS
    ] + [("abort-heavy", "abort-heavy/planner/reexec")]:
        case = SUITE.case(case_id)
        first = make_record(
            "e17", by_id[case.case_id], sha="pinned"
        )
        again = make_record(
            "e17", run_case(case, txns=N_TXNS), sha="pinned"
        )
        assert json.dumps(first) == json.dumps(again), wname

    table_writer(
        "E17_planner",
        "abort-free batch planner vs serial engine and shard runtime "
        f"({N_TXNS} txns)",
        rows,
        wallclock=True,
    )
    bench_document_writer("e17", results)
