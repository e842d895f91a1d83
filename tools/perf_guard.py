#!/usr/bin/env python
"""CI perf guard: compare ``tpcc_e2e`` against the committed baseline.

Re-runs the end-to-end TPC-C benchmark and checks it against the
``after`` entry in ``BENCH_perf.json``:

* **Digest** (hard gate): the run's :meth:`TxnMetrics.digest` must match
  the baseline byte for byte.  The benchmark is a deterministic
  simulation, so any divergence is a behaviour change, not noise --
  exactly what the dispatch-pipeline refactor must not introduce.
* **Throughput** (soft gate, ``--tolerance``): the best-of-``--repeat``
  wall-clock txns/s must stay within the tolerance band below the
  baseline value.  Single runs on shared CI runners swing by 20%+
  (locally observed 273..345 txns/s for the same build), which is why
  the guard takes the *best* of several runs rather than one sample.

With ``--scale-smoke`` the guard instead runs the smallest ``scale``
suite configuration (see :mod:`repro.bench.scale`) and checks it against
the ``scale`` section of the report: digest byte-match (hard gate) plus
the same throughput window on host events/s (soft gate).  This is the CI
job that keeps the 64-256 node path honest without paying for the full
sweep on every PR.

Usage::

    python tools/perf_guard.py                     # BENCH_perf.json, best-of-3, -10%
    python tools/perf_guard.py --repeat 5 --tolerance 0.15
    python tools/perf_guard.py --scale-smoke       # smallest scale config
"""

import argparse
import json
import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.bench.perfsuite import run_suite  # noqa: E402

BENCHMARK = "tpcc_e2e"


def run_scale_smoke(args):
    """Digest + events/s gate on the smallest scale-suite deployment."""
    from repro.bench import suites
    from repro.bench.scale import SUITE

    label = SUITE.smoke[0]
    with open(args.baseline) as handle:
        points = json.load(handle).get("scale", {}).get("points", [])
    baseline = next((p for p in points if p["label"] == label), None)
    if baseline is None:
        print(f"perf-guard: FAIL: no '{label}' point in {args.baseline} "
              f"(run `python -m repro.bench --suite scale --smoke` and "
              f"commit the report)", file=sys.stderr)
        return 1

    print(f"perf-guard: scale-smoke '{label}' best-of-{args.repeat} "
          f"vs {args.baseline} ({baseline['events_per_s']:,.0f} events/s)")
    best = None
    for _ in range(max(1, args.repeat)):
        result = suites.run_suite(SUITE, [label], verbose=False)[0]
        if best is None or result["events_per_s"] > best["events_per_s"]:
            best = result

    failures = []
    if best["digest"] != baseline["digest"]:
        failures.append(
            f"digest mismatch: {best['digest']} != baseline "
            f"{baseline['digest']} -- the scale-path behaviour changed"
        )
    floor = (1.0 - args.tolerance) * baseline["events_per_s"]
    if best["events_per_s"] < floor:
        failures.append(
            f"host throughput {best['events_per_s']:,.0f} events/s below "
            f"floor {floor:,.0f} ({args.tolerance:.0%} under baseline "
            f"{baseline['events_per_s']:,.0f})"
        )
    if failures:
        for failure in failures:
            print(f"perf-guard: FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"perf-guard: OK: {best['events_per_s']:,.0f} events/s "
          f"(floor {floor:,.0f}), digest matches")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default="BENCH_perf.json",
                        help="baseline report (default: BENCH_perf.json)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="runs to take the best of (default: 3)")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed fractional slowdown (default: 0.10)")
    parser.add_argument("--scale-smoke", action="store_true",
                        help="gate the smallest scale-suite config instead "
                             "of tpcc_e2e (digest + events/s window against "
                             "the report's 'scale' section)")
    args = parser.parse_args(argv)

    if args.scale_smoke:
        return run_scale_smoke(args)

    with open(args.baseline) as handle:
        baseline = json.load(handle)[
            "benchmarks"][BENCHMARK]["after"]

    print(f"perf-guard: {BENCHMARK} best-of-{args.repeat} "
          f"vs {args.baseline} ({baseline['value']:,.1f} {baseline['unit']})")
    result = run_suite([BENCHMARK], repeat=args.repeat)[BENCHMARK]

    failures = []
    if result.get("digest") != baseline.get("digest"):
        failures.append(
            f"digest mismatch: {result.get('digest')} != baseline "
            f"{baseline.get('digest')} -- the simulated behaviour changed"
        )
    floor = (1.0 - args.tolerance) * baseline["value"]
    if result["value"] < floor:
        failures.append(
            f"throughput {result['value']:,.1f} {result['unit']} below "
            f"floor {floor:,.1f} ({args.tolerance:.0%} under baseline "
            f"{baseline['value']:,.1f})"
        )

    if failures:
        for failure in failures:
            print(f"perf-guard: FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"perf-guard: OK: {result['value']:,.1f} {result['unit']} "
          f"(floor {floor:,.1f}), digest matches")
    return 0


if __name__ == "__main__":
    sys.exit(main())
