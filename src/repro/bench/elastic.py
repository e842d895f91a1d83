"""The ``elastic`` benchmark suite: throughput through live topology change.

ROADMAP item 1 asks for online elasticity; this suite measures what it
*costs*.  Each point runs the full simulated TPC-C deployment through a
diurnal storage cycle -- double the SN fleet mid-run, then drain back to
the original size -- while terminals keep committing, and reports
throughput and tail latency **before**, **during**, and **after** the
topology churn.  Migration batches are timed messages charged against
the same SN core pools as foreground traffic, so the "during" dip is a
measured quantity, not an annotation.

Phase capture works by swapping the deployment's live ``TxnMetrics``
sink at the phase boundaries (terminals read it per record, so the swap
is free and adds no simulated time); the digest covers the merged
series across all three phases plus the coordinator's event log, making
every point reproducible byte-for-byte under a fixed seed.

The ``autoscale16`` point replaces the fixed schedule with the
deterministic :class:`repro.elastic.Autoscaler` driving the same
coordinator, and records its decision log.

Use via ``python -m repro.bench --suite elastic`` (merges the points
into the ``elastic`` section of ``BENCH_perf.json``) or through
:data:`SUITE` and :func:`repro.bench.suites.run_suite`.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Any, Dict, List

from repro.bench.config import TellConfig
from repro.bench.metrics import TxnMetrics
from repro.bench.suites import Suite
from repro.workloads.tpcc.params import TpccScale

#: Phase boundaries as fractions of the run: the doubling starts at
#: ``_DOUBLE_AT``, the drain back at ``_HALVE_AT``, and everything after
#: ``_SETTLE_AT`` counts as the recovered steady state.
_DOUBLE_AT = 0.25
_HALVE_AT = 0.55
_SETTLE_AT = 0.85

PHASES = ("before", "during", "after")


def _point(
    label: str,
    pns: int,
    sns: int,
    *,
    warehouses: int,
    duration_us: float,
    threads_per_pn: int = 8,
    customers_per_district: int = 60,
    batch_cells: int = 256,
    autoscale: bool = False,
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
        threads_per_pn=threads_per_pn,
        scale=scale,
        duration_us=duration_us,
        warmup_us=duration_us / 10,
        seed=1,
    )
    return {
        "label": label,
        "config": config,
        "batch_cells": batch_cells,
        "autoscale": autoscale,
    }


def _phase_stats(metrics: TxnMetrics, window_us: float) -> Dict[str, Any]:
    finished = metrics.total_finished
    seconds = window_us / 1e6 if window_us > 0 else 0.0
    stats = metrics.latency()
    return {
        "txns": finished,
        "committed": metrics.total_committed,
        "txns_per_s": finished / seconds if seconds else 0.0,
        "p99_ms": stats.p99_us / 1000.0,
        "abort_rate": metrics.abort_rate,
    }


def _run_digest(phase_metrics: Dict[str, TxnMetrics],
                events: List) -> str:  # noqa: ANN001 - (time, str) pairs
    """One digest over the merged measurement series *and* the elastic
    event log: identical behaviour -- including the exact simulated
    instant of every migration step -- produces an identical digest."""
    merged = TxnMetrics()
    for name in PHASES:
        merged.merge(phase_metrics[name])
    payload = json.dumps(
        [f"{at:.3f} {what}" for at, what in events], sort_keys=True
    ).encode()
    mixer = hashlib.sha256(payload)
    mixer.update(merged.digest().encode())
    return mixer.hexdigest()


def run_elastic_point(point: Dict[str, Any]) -> Dict[str, Any]:
    """Run one diurnal double/halve cycle and report the three phases."""
    from repro.bench.simcluster import SimulatedTell
    from repro.dispatch import WrongOwnerRedirect
    from repro.elastic.coordinator import ElasticCoordinator

    config: TellConfig = point["config"]
    deployment = SimulatedTell(config)
    deployment.load()
    coordinator = ElasticCoordinator(
        deployment, batch_cells=point["batch_cells"]
    )
    sim = deployment.sim
    duration = config.duration_us
    t_double = duration * _DOUBLE_AT
    t_halve = duration * _HALVE_AT
    t_settle = duration * _SETTLE_AT

    phase_metrics = {name: TxnMetrics() for name in PHASES}
    deployment.metrics = phase_metrics["before"]
    sim.call_at(
        t_double,
        lambda: setattr(deployment, "metrics", phase_metrics["during"]),
    )
    sim.call_at(
        t_settle,
        lambda: setattr(deployment, "metrics", phase_metrics["after"]),
    )

    base_sns = config.storage_nodes
    autoscaler = None
    if point["autoscale"]:
        from repro.elastic.autoscaler import Autoscaler, AutoscalerPolicy

        autoscaler = Autoscaler(
            coordinator,
            AutoscalerPolicy(
                interval_us=duration / 12,
                evidence_ticks=2,
                cooldown_ticks=1,
                min_storage_nodes=base_sns,
                max_storage_nodes=base_sns * 4,
            ),
        )
        sim.spawn(autoscaler.process(duration), name="autoscaler")
    else:
        sim.call_at(t_double, lambda: sim.spawn(
            coordinator.scale_storage_to(base_sns * 2), name="elastic-double"
        ))
        sim.call_at(t_halve, lambda: sim.spawn(
            coordinator.scale_storage_to(base_sns), name="elastic-halve"
        ))

    started = time.perf_counter()
    deployment.run()
    wall = time.perf_counter() - started

    warmup = config.warmup_us
    windows = {
        "before": t_double - warmup,
        "during": t_settle - t_double,
        "after": duration - t_settle,
    }
    for name in PHASES:
        phase_metrics[name].measured_time_us = windows[name]

    redirects = sum(
        mw.redirects for mw in deployment.interceptors
        if isinstance(mw, WrongOwnerRedirect)
    )
    result = {
        "label": point["label"],
        "pns": config.processing_nodes,
        "sns": base_sns,
        "sns_final": len(deployment.cluster.nodes),
        "warehouses": config.scale.warehouses,
        "duration_us": duration,
        "autoscale": point["autoscale"],
        "phases": {
            name: _phase_stats(phase_metrics[name], windows[name])
            for name in PHASES
        },
        "migration": coordinator.stats.as_dict(),
        "redirects": redirects,
        "epoch": deployment.cluster.topology.epoch,
        "events": deployment.sim.events_processed,
        "wall_s": wall,
        "digest": _run_digest(phase_metrics, coordinator.events),
    }
    if autoscaler is not None:
        result["decisions"] = autoscaler.decision_log()
    return result


def _cycle(point: Dict[str, Any]) -> str:
    """Human label for the point's SN trajectory."""
    if point["autoscale"]:
        return f"{point['sns']}->auto->{point['sns_final']} SNs"
    return (f"{point['sns']}->{2 * point['sns']}->"
            f"{point['sns_final']} SNs")


def render_elastic_table(points: List[Dict[str, Any]]) -> str:
    """ASCII before/during/after throughput per point."""
    if not points:
        return "(no elastic points recorded)"
    width = 30
    peak = max(
        phase["txns_per_s"]
        for point in points for phase in point["phases"].values()
    ) or 1.0
    lines = ["throughput through the diurnal SN double/halve cycle:"]
    for point in points:
        mover = point["migration"]
        lines.append(
            f"  {point['label']:>12s} ({_cycle(point)}, "
            f"{mover['partitions_moved']} moves, "
            f"{point['redirects']} redirects)"
        )
        for name in PHASES:
            phase = point["phases"][name]
            bar = "#" * max(1, round(width * phase["txns_per_s"] / peak))
            lines.append(
                f"    {name:>7s} {phase['txns_per_s']:>9,.0f} txns/s "
                f"p99={phase['p99_ms']:6.2f}ms {bar}"
            )
        if point.get("decisions"):
            acted = [entry for entry in point["decisions"]
                     if not entry.endswith(" -")]
            lines.append(f"    autoscaler: {', '.join(acted) or '(held)'}")
    return "\n".join(lines)


#: The suite, smallest first.  ``smoke`` is the CI gate: a 2->4->2 SN
#: cycle small enough for every PR.  ``elastic64`` is the acceptance
#: configuration -- a 64-node deployment (16 PNs + 48 SNs) doubling and
#: halving its SN count under live TPC-C.  ``autoscale16`` starts the
#: same 16-node deployment deliberately storage-tight and lets the
#: deterministic autoscaler do the scaling instead of the schedule.
SUITE = Suite(
    section="elastic",
    points=(
        _point("smoke", 2, 2, warehouses=1, duration_us=240_000.0,
               threads_per_pn=4, customers_per_district=40,
               batch_cells=128),
        _point("diurnal16", 4, 12, warehouses=4, duration_us=300_000.0),
        _point("elastic64", 16, 48, warehouses=8, duration_us=240_000.0,
               customers_per_district=30),
        _point("autoscale16", 4, 4, warehouses=2, duration_us=300_000.0,
               threads_per_pn=16, autoscale=True),
    ),
    smoke=("smoke",),
    run_point=run_elastic_point,
    render=render_elastic_table,
)
