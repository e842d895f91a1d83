"""The ``scale`` benchmark suite: deployment sizes beyond the paper's testbed.

The paper's Figure 5-7 sweeps stop at 12 servers; ROADMAP item 2 asks the
deterministic simulator to reach 64-256 node deployments so throughput
curves flatten for *measured* reasons (commit-manager ceiling, replication
fan-out) rather than small-N noise.  This suite runs the full simulated
TPC-C deployment at 16/64/128 nodes plus a 100-warehouse configuration and
records *host* event-loop throughput (``Simulator.events_processed`` per
wall second) next to the simulated txns/s -- the first number tracks how
affordable large experiments are, the second is the science.

Every point reports the run's metrics digest, pinned by the same
determinism contract as ``tpcc_e2e``.

Use via ``python -m repro.bench --suite scale`` (merges the points into
the ``scale`` section of ``BENCH_perf.json``) or through :data:`SUITE`
and :func:`repro.bench.suites.run_suite`.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List

from repro.bench.config import TellConfig
from repro.bench.suites import Suite
from repro.workloads.tpcc.params import TpccScale


def _point(
    label: str,
    pns: int,
    sns: int,
    *,
    warehouses: int,
    duration_us: float,
    threads_per_pn: int = 16,
    commit_managers: int = 1,
    customers_per_district: int = 120,
) -> Dict[str, Any]:
    scale = TpccScale(
        warehouses=warehouses,
        districts_per_warehouse=10,
        customers_per_district=customers_per_district,
        initial_orders_per_district=customers_per_district,
        items=1000,
    )
    config = TellConfig(
        processing_nodes=pns,
        storage_nodes=sns,
        commit_managers=commit_managers,
        threads_per_pn=threads_per_pn,
        scale=scale,
        duration_us=duration_us,
        warmup_us=duration_us / 10,
        seed=1,
    )
    return {"label": label, "config": config}


def run_scale_point(label: str, config: TellConfig) -> Dict[str, Any]:
    """Load + run one deployment; report host and simulated throughput."""
    from repro.bench.simcluster import SimulatedTell

    deployment = SimulatedTell(config)
    deployment.load()
    started = time.perf_counter()
    metrics = deployment.run()
    wall = time.perf_counter() - started
    events = deployment.sim.events_processed
    return {
        "label": label,
        "nodes": config.processing_nodes + config.storage_nodes,
        "pns": config.processing_nodes,
        "sns": config.storage_nodes,
        "warehouses": config.scale.warehouses,
        "duration_us": config.duration_us,
        "events": events,
        "events_per_s": events / wall,
        "txns_per_s": metrics.total_finished / wall,
        "tpmc": metrics.tpmc,
        "abort_rate": metrics.abort_rate,
        "wall_s": wall,
        "digest": metrics.digest(),
    }


def render_scale_curve(points: List[Dict[str, Any]]) -> str:
    """ASCII events/s-vs-deployment-size curve for the report/terminal."""
    rows = sorted(points, key=lambda point: point["nodes"])
    if not rows:
        return "(no scale points recorded)"
    peak = max(point["events_per_s"] for point in rows)
    width = 40
    lines = ["host event-loop throughput vs deployment size:"]
    for point in rows:
        bar = "#" * max(1, round(width * point["events_per_s"] / peak))
        lines.append(
            f"  {point['nodes']:4d} nodes ({point['label']:>8s}) "
            f"{point['events_per_s']:>12,.0f} events/s {bar}"
        )
    return "\n".join(lines)


#: The suite, smallest first.  ``smoke16`` is the CI gate
#: (``tools/perf_guard.py --scale-smoke``): small enough for every PR,
#: digest-pinned like ``tpcc_e2e``.  The node-count points share the
#: paper's 1:3 PN:SN ratio; ``wh100`` holds the deployment at 32 nodes
#: and scales the *database* instead (100 warehouses, reduced rows per
#: district so population stays affordable).
SUITE = Suite(
    section="scale",
    points=(
        _point("smoke16", 4, 12, warehouses=4, duration_us=30_000.0,
               threads_per_pn=8),
        _point("nodes16", 4, 12, warehouses=8, duration_us=100_000.0),
        _point("nodes64", 16, 48, warehouses=16, duration_us=60_000.0),
        _point("nodes128", 32, 96, warehouses=32, duration_us=40_000.0),
        _point("wh100", 8, 24, warehouses=100, duration_us=40_000.0,
               customers_per_district=30),
    ),
    smoke=("smoke16",),
    run_point=lambda point: run_scale_point(point["label"], point["config"]),
    render=render_scale_curve,
)
