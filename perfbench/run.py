"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload tpcc_rf3 --seed 7 --seconds 20 --trace 0

A run makes :data:`PARTS` inputs from ``--seed`` and repeats *set up,
measure, check* on them in turn until the measured phases add up to
``--seconds``, and at least :data:`MIN_REPS` times, so one input always
runs twice and must reproduce its digest.  Host metrics are medians over
all repetitions; the metrics on the clients' clock pool the first
repetition of each input, so for the simulated workloads they repeat
exactly for a seed.  With ``--trace 1`` one more repetition of input 0
runs with every layer's entry points wrapped, must reproduce the
untraced digest, and the run prints the per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it holds the details: seed, digest, sample counts and the numbers that
only one workload has.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Each run measures this many inputs made from its seed, which halves
#: the spread across seeds that one input's population and terminal
#: streams give the simulated metrics.
PARTS = 2
#: Every run repeats at least this often, so one input always runs twice
#: and must give the same digest both times.
MIN_REPS = PARTS + 1

#: Host latency per statement class of the embedded SQL workload.
SQL_CLASS_PERCENTILES = (
    ("sql_point_p50_us", "point", 0.50),
    ("sql_point_p90_us", "point", 0.90),
    ("sql_transfer_p50_us", "transfer", 0.50),
    ("sql_transfer_p90_us", "transfer", 0.90),
    ("sql_range_p50_us", "range", 0.50),
    ("sql_agg_p50_us", "agg", 0.50),
)


@dataclass
class Rep:
    setup_s: float
    measure_s: float
    outcome: Any
    failures: List[str]
    layers: Dict[str, Any] = field(default_factory=dict)


def run_rep(workload: Any, inputs: Any, tracer: Any = None,
            untraced_s: float = 0.0) -> Rep:
    """Set up, measure, summarize and check once; with a tracer, trace
    the measured phase and compute the per-layer metrics."""
    clock = time.perf_counter
    gc.collect()
    started = clock()
    state = workload.build(inputs)
    setup_s = clock() - started
    layers: Dict[str, Any] = {}
    if tracer is not None:
        from layers import layer_metrics, read_counters
        from tracer import OFF, TRACE

        setup_counters = dict(tracer.counters)
        tracer.counters.clear()
        before = read_counters(workload.parts(state), tracer)
    gc.collect()
    if tracer is not None:
        tracer.mode = TRACE
    started = clock()
    raw = workload.measure(state)
    measure_s = clock() - started
    if tracer is not None:
        tracer.mode = OFF
        layers = layer_metrics(tracer, workload.parts(state), before,
                               setup_counters, measure_s, untraced_s)
    outcome = workload.summarize(state, raw)
    failures = list(outcome.failures) + workload.check(state)
    workload.close(state)
    return Rep(setup_s, measure_s, outcome, failures, layers)


def run_workload(workload: Any, seed: int, seconds: float,
                 trace: bool) -> Dict[str, Any]:
    """Repeat ``workload`` for ``seconds``; returns the detail line and
    the result line."""
    from stats import percentile

    inputs = [workload.inputs(seed, part) for part in range(PARTS)]
    reps: List[Rep] = []
    while len(reps) < MIN_REPS or sum(r.measure_s for r in reps) < seconds:
        reps.append(run_rep(workload, inputs[len(reps) % PARTS]))
    failures = [f for rep in reps for f in rep.failures]
    digests = [rep.outcome.digest for rep in reps[:PARTS]]
    for index, rep in enumerate(reps[PARTS:], PARTS):
        if rep.outcome.digest != digests[index % PARTS]:
            failures.append(f"repetition {index} of input {index % PARTS} "
                            f"gave digest {rep.outcome.digest}, not "
                            f"{digests[index % PARTS]}")
    # One repetition per input: the simulated results, identical on reruns.
    distinct = [rep.outcome for rep in reps[:PARTS]]
    attempted = sum(o.attempted for o in distinct)
    committed = sum(o.committed for o in distinct)
    conflicts = sum(o.conflicts for o in distinct)
    failed_distinct = sum(o.failed for o in distinct)
    details: Dict[str, Any] = {
        "workload": workload.name, "seed": seed,
        "program_seeds": [part.seed for part in inputs],
        "digest": hashlib.sha256(" ".join(digests).encode()).hexdigest(),
        "input_digests": digests,
        "reps": [{"input": index % PARTS, "setup_s": r.setup_s,
                  "measure_s": r.measure_s, "attempted": r.outcome.attempted}
                 for index, r in enumerate(reps)],
    }
    if workload.simulated:
        latencies = [ms for o in distinct for ms in o.latencies_ms]
        client_s = sum(o.client_s for o in distinct)
        txn_per_s = committed / client_s
        counts = {key: dict(sum((Counter(o.details[key]) for o in distinct),
                                Counter()))
                  for key in ("committed", "conflicts", "user_aborts")}
        details.update(counts)
        details["sim_tps"] = {"value": txn_per_s, "unit": "txn/s"}
        details["abort_rate"] = {"value": conflicts / attempted, "unit": "ratio"}
        if "new_order" in counts["committed"]:
            details["sim_tpmc"] = {
                "value": counts["committed"]["new_order"] / (client_s / 60),
                "unit": "txn/min"}
    else:
        latencies = [ms for rep in reps for ms in rep.outcome.latencies_ms]
        txn_per_s = statistics.median(
            rep.outcome.committed / rep.measure_s for rep in reps)
        for label, kind, fraction in SQL_CLASS_PERCENTILES:
            value, count = percentile(
                [us for rep in reps for us in rep.outcome.by_class_us[kind]],
                fraction)
            details[label] = {"value": value, "unit": "us", "samples": count}
    p50, p50_samples = percentile(latencies, 0.50)
    p99, p99_samples = percentile(latencies, 0.99)
    details["txn_latency_samples"] = {"p50": p50_samples, "p99": p99_samples}
    metrics = {
        "setup_s": (statistics.median(r.setup_s for r in reps), "s"),
        "host_txn_per_s": (statistics.median(
            r.outcome.attempted / r.measure_s for r in reps), "txn/s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "commit_ratio": (
            (attempted - conflicts - failed_distinct) / attempted, "ratio"),
        "txn_per_s": (txn_per_s, "txn/s"),
        "txn_p50_ms": (p50, "ms"),
        "txn_p99_ms": (p99, "ms"),
    }
    attempted = sum(rep.outcome.attempted for rep in reps)
    failed = sum(rep.outcome.failed for rep in reps)
    if trace:
        from tracer import COUNT, Tracer, install

        tracer = Tracer()
        tracer.calibrate()
        untraced_s = statistics.median(
            r.measure_s for r in reps[::PARTS])  # the same input as traced
        with install(tracer):
            tracer.mode = COUNT  # count during set-up, trace from measuring on
            traced = run_rep(workload, inputs[0], tracer, untraced_s)
        failures += traced.failures
        if traced.outcome.digest != digests[0]:
            failures.append(f"tracing changed the digest of input 0 to "
                            f"{traced.outcome.digest}")
        attempted += traced.outcome.attempted
        failed += traced.outcome.failed
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{workload.name}-seed{seed}.jsonl"
        tracer.write_spans(str(span_file))
        details["span_file"] = str(span_file.relative_to(HERE.parent))
        details["traced_digest"] = traced.outcome.digest
        metrics = traced.layers
    details["failures"] = failures
    return {
        "details": details,
        "result": {
            "correct": not failures,
            "attempted": attempted,
            "failed": failed,
            "metrics": {key: {"value": value, "unit": unit}
                        for key, (value, unit) in metrics.items()},
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    report = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(report["details"], sort_keys=True))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
