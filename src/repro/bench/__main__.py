"""Command-line entry point: run any of the paper's experiments.

Examples::

    python -m repro.bench --list
    python -m repro.bench fig5
    REPRO_BENCH_PROFILE=smoke python -m repro.bench fig8 table3
    python -m repro.bench fig10 --profile full
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.bench import experiments
from repro.bench.suites import SUITES, get_suite, record_rows, run_suite
from repro.bench.tables import TABLE1_HEADERS, TABLE1_ROWS, print_table


def _fig5():
    rows = experiments.run_scaleout_processing("standard")
    print_table(
        ["RF", "PNs", "TpmC", "Abort rate", "Latency (ms)"],
        [(r["rf"], r["pns"], r["tpmc"], f"{r['abort_rate'] * 100:.2f}%",
          r["latency_ms"]) for r in rows],
        title="Figure 5: scale-out processing (write-intensive)",
    )


def _fig6():
    rows = experiments.run_scaleout_processing("read-intensive")
    print_table(
        ["RF", "PNs", "Tps", "Abort rate", "Latency (ms)"],
        [(r["rf"], r["pns"], r["tps"], f"{r['abort_rate'] * 100:.2f}%",
          r["latency_ms"]) for r in rows],
        title="Figure 6: scale-out processing (read-intensive)",
    )


def _fig7():
    rows = experiments.run_scaleout_storage()
    print_table(
        ["SNs", "PNs", "TpmC", "Abort rate"],
        [(r["sns"], r["pns"], r["tpmc"], f"{r['abort_rate'] * 100:.2f}%")
         for r in rows],
        title="Figure 7: scale-out storage (RF3)",
    )


def _fig8():
    rows = experiments.run_system_comparison("standard")
    print_table(
        ["System", "Cores", "TpmC", "Latency (ms)"],
        [(r["system"], r["cores"], r["tpmc"], r["latency_ms"]) for r in rows],
        title="Figure 8: system comparison (standard mix, RF3)",
    )


def _fig9():
    rows = experiments.run_system_comparison("shardable", (1, 3))
    print_table(
        ["System", "RF", "Cores", "TpmC"],
        [(r["system"], r["rf"], r["cores"], r["tpmc"]) for r in rows],
        title="Figure 9: system comparison (shardable mix)",
    )


def _fig10():
    rows = experiments.run_network_comparison()
    print_table(
        ["Network", "PNs", "TpmC", "Latency (ms)", "TP99", "TP999"],
        [(r["network"], r["pns"], r["tpmc"], r["latency_ms"], r["tp99_ms"],
          r["tp999_ms"]) for r in rows],
        title="Figure 10 / Table 5: network technology",
    )


def _fig11():
    rows = experiments.run_buffering_strategies()
    print_table(
        ["Strategy", "PNs", "TpmC", "Hit ratio"],
        [(r["strategy"], r["pns"], r["tpmc"],
          f"{r['hit_ratio'] * 100:.2f}%") for r in rows],
        title="Figure 11: buffering strategies",
    )


def _table1():
    print_table(TABLE1_HEADERS, TABLE1_ROWS, title="Table 1")


def _table4():
    from repro.obs import PHASE_TABLE_HEADERS, phase_table_rows

    snapshot = experiments.run_phase_breakdown()
    print_table(
        PHASE_TABLE_HEADERS, phase_table_rows(snapshot),
        title="Table 4: response-time decomposition by phase",
    )


def _table3():
    rows = experiments.run_commit_managers()
    print_table(
        ["Commit managers", "TpmC", "Abort rate"],
        [(r["commit_managers"], r["tpmc"], f"{r['abort_rate'] * 100:.2f}%")
         for r in rows],
        title="Table 3: commit managers",
    )


def _ablations():
    for name, func in (
        ("batching", experiments.run_ablation_batching),
        ("sync-interval", experiments.run_ablation_sync_interval),
        ("tid-ranges", experiments.run_ablation_tid_ranges),
    ):
        rows = func()
        headers = list(rows[0].keys())
        print_table(headers, [[r[h] for h in headers] for r in rows],
                    title=f"Ablation: {name}")


def _ycsb():
    from repro.bench.config import TellConfig
    from repro.bench.ycsb_sim import SimulatedYcsb

    profile = experiments.bench_profile()
    rows = []
    for mix in ("A", "B", "C"):
        for pns in profile.pn_counts:
            config = TellConfig(
                processing_nodes=pns, storage_nodes=5,
                threads_per_pn=profile.threads_per_pn, mix=mix,
                duration_us=profile.duration_us / 2,
                warmup_us=profile.warmup_us / 2,
            )
            deployment = SimulatedYcsb(config, record_count=20_000)
            deployment.load()
            metrics = deployment.run()
            rows.append((f"YCSB-{mix}", pns, metrics.tps,
                         f"{metrics.abort_rate * 100:.2f}%"))
    print_table(["Mix", "PNs", "Tps", "Abort rate"], rows,
                title="Extension: YCSB zipfian scaling")


EXPERIMENTS = {
    "table1": _table1,
    "table4": _table4,
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7": _fig7,
    "table3": _table3,
    "fig8": _fig8,
    "fig9": _fig9,
    "fig10": _fig10,
    "table5": _fig10,
    "fig11": _fig11,
    "ablations": _ablations,
    "ycsb": _ycsb,
}


def _write_snapshots(directory, experiment, snapshots) -> int:
    """Write each ``(label, snapshot)`` pair next to the printed results
    as ``<experiment>-<NN>-<label>.json`` (+ Prometheus text)."""
    from repro.obs import to_json, to_prometheus

    os.makedirs(directory, exist_ok=True)
    for index, (label, snapshot) in enumerate(snapshots):
        stem = os.path.join(directory, f"{experiment}-{index:02d}-{label}")
        with open(stem + ".json", "w", encoding="utf-8") as handle:
            handle.write(to_json(snapshot))
        with open(stem + ".prom", "w", encoding="utf-8") as handle:
            handle.write(to_prometheus(snapshot))
    return len(snapshots)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("experiments", nargs="*",
                        help=f"one or more of: {', '.join(EXPERIMENTS)}; "
                             f"with --suite: labels of the suite's points "
                             f"to run (default: all, or the smoke subset)")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments")
    parser.add_argument("--suite", choices=tuple(SUITES),
                        help="run a benchmark suite instead of the paper "
                             "experiments (scale: 16/64/128-node + "
                             "100-warehouse deployments; isolation: the "
                             "same skew workload under SI/WSI/SSI; "
                             "elastic: live SN double/halve cycles with "
                             "before/during/after throughput; each "
                             "merged into its section of the perf "
                             "report)")
    parser.add_argument("--smoke", action="store_true",
                        help="with --suite: run only the smoke-sized "
                             "configuration (the CI gate)")
    parser.add_argument("--report", default="BENCH_perf.json",
                        help="with --suite: perf report to merge results "
                             "into (default: BENCH_perf.json); '-' skips "
                             "the write")
    parser.add_argument("--profile", choices=("smoke", "quick", "full"),
                        help="sizing profile (default: REPRO_BENCH_PROFILE "
                             "or 'quick')")
    parser.add_argument("--cprofile", metavar="STATS_FILE", nargs="?",
                        const="-", default=None,
                        help="run under cProfile; write pstats to STATS_FILE "
                             "or print the top functions when omitted")
    parser.add_argument("--sanitize", action="store_true",
                        help="attach the repro.san sanitizers to every "
                             "simulated cluster (slow; fails on SI/GC "
                             "invariant violations)")
    parser.add_argument("--obs", metavar="DIR", nargs="?",
                        const="obs-snapshots", default=None,
                        help="enable repro.obs on every simulated cluster "
                             "and write one metrics snapshot per run into "
                             "DIR (default: obs-snapshots/)")
    args = parser.parse_args(argv)

    if args.suite:
        suite = get_suite(args.suite)
        if args.sanitize:
            os.environ["REPRO_SANITIZE"] = "1"
        rows = run_suite(suite, args.experiments, smoke=args.smoke)
        print(suite.render(rows))
        if args.report != "-":
            record_rows(suite, args.report, rows)
            print(f"[{suite.section} {suite.rows} merged into {args.report}]")
        return 0

    if args.list or not args.experiments:
        for name in EXPERIMENTS:
            print(name)
        return 0
    if args.profile:
        os.environ["REPRO_BENCH_PROFILE"] = args.profile
    if args.sanitize:
        os.environ["REPRO_SANITIZE"] = "1"
    sink = None
    if args.obs is not None:
        from repro import obs

        os.environ[obs.ENV_FLAG] = "1"
        sink = obs.install_sink()

    profiler = None
    if args.cprofile is not None:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        for name in args.experiments:
            if name not in EXPERIMENTS:
                parser.error(f"unknown experiment {name!r}")
            started = time.time()
            first_snapshot = len(sink) if sink is not None else 0
            EXPERIMENTS[name]()
            print(f"[{name} finished in {time.time() - started:.1f}s]")
            if sink is not None:
                written = _write_snapshots(args.obs, name,
                                           sink[first_snapshot:])
                if written:
                    print(f"[{written} obs snapshot(s) written to "
                          f"{args.obs}/]")
    finally:
        if profiler is not None:
            profiler.disable()
            if args.cprofile == "-":
                import pstats

                stats = pstats.Stats(profiler, stream=sys.stderr)
                stats.sort_stats("cumulative").print_stats(30)
            else:
                profiler.dump_stats(args.cprofile)
                print(f"[cProfile stats written to {args.cprofile}]",
                      file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
