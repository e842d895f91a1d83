"""Wall-clock microbenchmarks for the simulation stack.

The repo's true performance axis is *how fast a simulated run executes on
the host*: every figure replays millions of kernel events and protocol
operations, so the hot paths measured here (event loop, snapshot algebra,
version sets, the end-to-end simulated TPC-C deployment) bound how large
an experiment is affordable.

Four microbenchmarks:

* ``sim_kernel``   -- raw event-loop throughput (events/second),
* ``snapshot``     -- snapshot-descriptor/committed-set ops (ops/second),
* ``record``       -- versioned-record reads+writes (ops/second),
* ``tpcc_e2e``     -- a small but complete simulated TPC-C run
  (committed transactions per wall-clock second), plus the metrics
  digest used to prove behaviour invariance.

Optimizations must be *behaviour-invariant*: the ``tpcc_e2e`` benchmark
records :meth:`repro.bench.metrics.TxnMetrics.digest` and
:func:`build_report` refuses to claim a speedup when the digest moved.

Use via ``tools/perf_report.py`` (writes the ``benchmarks`` section of
``BENCH_perf.json`` and keeps the others) or the ``repro-perf`` console
script after ``pip install -e .``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional

from repro.bench.suites import merge_report

BENCH_SCHEMA = "repro-perf/1"


# ---------------------------------------------------------------------------
# individual microbenchmarks
# ---------------------------------------------------------------------------


def bench_sim_kernel(events: int = 200_000) -> Dict[str, Any]:
    """Event-loop throughput: Delay-driven processes plus call_at storms."""
    from repro.sim.kernel import Delay, Simulator

    sim = Simulator()
    n_procs = 50
    per_proc = events // (2 * n_procs)

    def ticker(step: float):
        pause = Delay(step)
        for _ in range(per_proc):
            yield pause

    for i in range(n_procs):
        sim.spawn(ticker(1.0 + 0.01 * i), name=f"tick-{i}")
    counter = [0]

    def cb() -> None:
        counter[0] += 1

    for i in range(events // 2):
        sim.call_at(float(i % 1000), cb)
    started = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - started
    total = n_procs * per_proc + counter[0]
    return {
        "name": "sim_kernel",
        "unit": "events/s",
        "value": total / elapsed,
        "wall_s": elapsed,
        "work": total,
    }


def bench_snapshot(iterations: int = 60_000) -> Dict[str, Any]:
    """Snapshot algebra: contains / with_completed / union / mark_completed."""
    from repro.core.snapshot import CommittedSet, SnapshotDescriptor

    started = time.perf_counter()
    ops = 0
    committed = CommittedSet()
    # Out-of-order completions keep a ragged bitset alive, which is the
    # interesting (non-contiguous) regime for the normalization path.
    for tid in range(1, iterations + 1):
        committed.mark_completed(tid + 2)
        committed.mark_completed(tid)
        ops += 2
        if tid % 64 == 0:
            committed.mark_completed(tid + 1)
            ops += 1
    snap = SnapshotDescriptor(100, 0b1011001)
    other = SnapshotDescriptor(104, 0b1101)
    sink = 0
    for tid in range(95, 95 + 64):
        for _ in range(iterations // 2_000):
            sink += tid in snap
            ops += 1
    for _ in range(iterations // 4):
        merged = snap.union(other)
        grown = merged.with_completed(merged.base + 5)
        sink += grown.base
        ops += 2
    elapsed = time.perf_counter() - started
    return {
        "name": "snapshot",
        "unit": "ops/s",
        "value": ops / elapsed,
        "wall_s": elapsed,
        "work": ops,
        "check": sink,
    }


def bench_record(iterations: int = 30_000) -> Dict[str, Any]:
    """Version-set writes (with_version) and MVCC reads (latest_visible)."""
    from repro.core.record import Version, VersionedRecord
    from repro.core.snapshot import SnapshotDescriptor

    started = time.perf_counter()
    ops = 0
    base = VersionedRecord.initial(1, ("row", 0))
    records: List[VersionedRecord] = []
    for i in range(iterations // 10):
        record = base
        for tid in (7, 3, 12, 9, 20):
            record = record.with_version(Version(tid + i % 3 * 100, ("row", tid)))
            ops += 1
        records.append(record)
    snapshots = [
        SnapshotDescriptor(5, 0b101),
        SnapshotDescriptor(0, 0),
        SnapshotDescriptor(10_000, 0),
    ]
    sink = 0
    for _ in range(10):
        for record in records:
            for snapshot in snapshots:
                version = record.latest_visible(snapshot)
                sink += 0 if version is None else version.tid
                ops += 1
    elapsed = time.perf_counter() - started
    return {
        "name": "record",
        "unit": "ops/s",
        "value": ops / elapsed,
        "wall_s": elapsed,
        "work": ops,
        "check": sink,
    }


def bench_tpcc_e2e(
    duration_us: float = 200_000.0, seed: int = 1
) -> Dict[str, Any]:
    """End-to-end simulated TPC-C: wall-clock committed txns per second.

    Runs the real protocol code under the simulator at a reduced scale;
    the metrics digest doubles as the behaviour-invariance witness.
    """
    from repro.bench.config import TellConfig
    from repro.bench.simcluster import run_tell_experiment
    from repro.workloads.tpcc.params import TpccScale

    config = TellConfig(
        processing_nodes=2,
        storage_nodes=3,
        threads_per_pn=8,
        scale=TpccScale.small(2),
        duration_us=duration_us,
        warmup_us=duration_us / 10,
        seed=seed,
    )
    started = time.perf_counter()
    metrics = run_tell_experiment(config)
    elapsed = time.perf_counter() - started
    finished = metrics.total_finished
    latency = metrics.latency()
    return {
        "name": "tpcc_e2e",
        "unit": "txns/s",
        "value": finished / elapsed,
        "wall_s": elapsed,
        "work": finished,
        "digest": metrics.digest(),
        "sim": {
            "tpmc": metrics.tpmc,
            "abort_rate": metrics.abort_rate,
            "committed": metrics.total_committed,
            "p50_us": latency.p50_us,
            "p99_us": latency.p99_us,
            "p999_us": latency.p999_us,
        },
    }


BENCHMARKS: Dict[str, Callable[..., Dict[str, Any]]] = {
    "sim_kernel": bench_sim_kernel,
    "snapshot": bench_snapshot,
    "record": bench_record,
    "tpcc_e2e": bench_tpcc_e2e,
}

#: Reduced workloads for CI smoke runs (one iteration, no thresholds).
SMOKE_KWARGS: Dict[str, Dict[str, Any]] = {
    "sim_kernel": {"events": 20_000},
    "snapshot": {"iterations": 6_000},
    "record": {"iterations": 3_000},
    "tpcc_e2e": {"duration_us": 30_000.0},
}


# ---------------------------------------------------------------------------
# suite driver + report
# ---------------------------------------------------------------------------


def run_suite(
    names: Optional[List[str]] = None,
    repeat: int = 3,
    smoke: bool = False,
    verbose: bool = True,
) -> Dict[str, Any]:
    """Run the selected benchmarks; keep each one's best-of-``repeat``."""
    selected = names or list(BENCHMARKS)
    results: Dict[str, Any] = {}
    for name in selected:
        if name not in BENCHMARKS:
            raise ValueError(
                f"unknown benchmark {name!r} (known: {', '.join(BENCHMARKS)})"
            )
        func = BENCHMARKS[name]
        kwargs = SMOKE_KWARGS[name] if smoke else {}
        best: Optional[Dict[str, Any]] = None
        for _ in range(max(1, repeat)):
            result = func(**kwargs)
            if best is None or result["value"] > best["value"]:
                best = result
        assert best is not None
        results[name] = best
        if verbose:
            print(
                f"  {name:12s} {best['value']:>14,.0f} {best['unit']:9s}"
                f" ({best['wall_s']:.3f}s wall)",
                file=sys.stderr,
            )
    return results


def build_report(
    after: Dict[str, Any], before: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Assemble the BENCH_perf.json payload, with speedups when a
    baseline ("before") measurement is available."""
    report: Dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "created_unix": int(time.time()),
        "host_python": sys.version.split()[0],
        "benchmarks": {},
    }
    for name, result in after.items():
        entry: Dict[str, Any] = {"after": result}
        if before and name in before:
            entry["before"] = before[name]
            entry["speedup"] = result["value"] / before[name]["value"]
        report["benchmarks"][name] = entry
    after_digest = after.get("tpcc_e2e", {}).get("digest")
    before_digest = (before or {}).get("tpcc_e2e", {}).get("digest")
    if after_digest is not None:
        report["invariance"] = {
            "digest_after": after_digest,
            "digest_before": before_digest,
            "identical": (
                None if before_digest is None else after_digest == before_digest
            ),
        }
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-perf",
        description="Run the simulation-stack microbenchmarks and write "
                    "a BENCH_perf.json report.",
    )
    parser.add_argument("benchmarks", nargs="*",
                        help=f"subset of: {', '.join(BENCHMARKS)}")
    parser.add_argument("--output", "-o", default="BENCH_perf.json",
                        help="report path (default: BENCH_perf.json); "
                             "'-' prints to stdout")
    parser.add_argument("--baseline", help="earlier report (or raw suite "
                        "output) to diff against as 'before'")
    parser.add_argument("--repeat", type=int, default=3,
                        help="repetitions per benchmark, best kept (default 3)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workloads, one repetition (CI smoke)")
    args = parser.parse_args(argv)

    # Load the baseline before benchmarking so a bad path fails in
    # milliseconds, not after minutes of measurement.
    before: Optional[Dict[str, Any]] = None
    if args.baseline:
        with open(args.baseline, "r", encoding="utf-8") as handle:
            loaded = json.load(handle)
        if loaded.get("schema") == BENCH_SCHEMA:  # a full report: unwrap
            before = {
                name: entry["after"]
                for name, entry in loaded.get("benchmarks", {}).items()
                if "after" in entry
            }
        else:  # raw run_suite() output
            before = loaded

    repeat = 1 if args.smoke else args.repeat
    print("running microbenchmarks...", file=sys.stderr)
    after = run_suite(args.benchmarks or None, repeat=repeat, smoke=args.smoke)

    report = build_report(after, before)
    if args.output == "-":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        # Replace only the microbenchmarks' keys: the sections other
        # suites merged into the report stay, and a stale `invariance`
        # goes when this run has no tpcc_e2e digest.
        merge_report(args.output, {"invariance": None, **report})
        print(f"wrote {args.output}", file=sys.stderr)
    for name, entry in report["benchmarks"].items():
        if "speedup" in entry:
            print(f"  {name:12s} speedup {entry['speedup']:.2f}x",
                  file=sys.stderr)
    invariance = report.get("invariance")
    if invariance and invariance.get("identical") is False:
        print("ERROR: tpcc_e2e metrics digest changed vs baseline -- the "
              "optimization is not behaviour-invariant", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
