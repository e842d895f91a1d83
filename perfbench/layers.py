"""Per-layer metrics of a traced repetition.

Counts come from counters the program's public objects already keep
(``FabricStats``, ``StorageNode.ops_*``, ``BTreeStats``/``IndexCache``,
``CommitManager.starts_served``/``range_refills``, ``PnStats``), read
before and after the measured phase.  Times come from the tracer's
spans; simulated waits and utilisation come from ``CorePool.reserve``.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from tracer import Tracer
from workloads import Parts, stored_shape

from repro.dispatch import (
    KIND_BATCH,
    KIND_CM_ABORTED,
    KIND_CM_COMMITTED,
    KIND_CM_START,
    KIND_CM_VALIDATE,
    KIND_SCAN,
    KIND_STORE,
)

#: Every per-layer metric with its unit, in report order.
UNITS = {
    "sim.events": "count",
    "sim.self_s": "s",
    "sim.ns_per_event": "ns",
    "fabric.messages": "count",
    "fabric.store_ops": "count",
    "fabric.bytes_sent": "B",
    "fabric.self_s": "s",
    "fabric.us_per_message": "us",
    "fabric.sn_wait_us": "us",
    "fabric.cm_wait_us": "us",
    "fabric.sn_busy": "ratio",
    "fabric.pn_busy": "ratio",
    "store.reads": "count",
    "store.writes": "count",
    "store.scans": "count",
    "store.replica_writes": "count",
    "store.self_s": "s",
    "store.us_per_op": "us",
    "store.size_calls_per_op": "calls/op",
    "store.cond_fail_ratio": "ratio",
    "store.bytes_per_user_byte": "ratio",
    "index.lookups": "count",
    "index.inserts": "count",
    "index.node_fetches_per_lookup": "fetches/op",
    "index.cache_hit_ratio": "ratio",
    "index.smo_retries": "count",
    "index.entries_pruned": "count",
    "index.self_s": "s",
    "core.txns_begun": "count",
    "core.txns_committed": "count",
    "core.txns_aborted": "count",
    "core.read_us": "us",
    "core.commit_us": "us",
    "core.cm_starts": "count",
    "core.cm_range_refills": "count",
    "core.self_s": "s",
    "core.cm.self_s": "s",
    "core.versions_per_record": "ratio",
    "sql.statements": "count",
    "sql.parse_us": "us",
    "sql.exec_us": "us",
    "sql.rows_examined_per_returned": "ratio",
    "sql.self_s": "s",
    "sql.table.self_s": "s",
    "sql.table.calls": "count",
    "sql.local_rows_scanned": "rows/call",
    "sql.load_local_rows_scanned": "rows/call",
    "dispatch.requests": "count",
    "dispatch.requests.store": "count",
    "dispatch.requests.batch": "count",
    "dispatch.requests.scan": "count",
    "dispatch.requests.cm": "count",
    "dispatch.self_s": "s",
    "workloads.self_s": "s",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}

_CM_KINDS = (KIND_CM_START, KIND_CM_COMMITTED, KIND_CM_VALIDATE, KIND_CM_ABORTED)


def read_counters(parts: Parts, tracer: Tracer) -> Dict[str, float]:
    """The program's own counters, summed over the deployment."""
    nodes = list(parts.cluster.nodes.values())
    counts = {
        "sim.events": parts.sim.events_processed if parts.sim else 0,
        "fabric.messages": parts.fabric.stats.messages if parts.fabric else 0,
        "fabric.store_ops": parts.fabric.stats.store_ops if parts.fabric else 0,
        "fabric.bytes_sent": parts.fabric.stats.bytes_sent if parts.fabric else 0,
        "store.reads": sum(node.ops_read for node in nodes),
        "store.writes": sum(node.ops_write for node in nodes),
        "store.scans": sum(node.ops_scan for node in nodes),
        "store.replica_writes": parts.cluster.replication_copies,
        "index.node_fetches": sum(t.stats.node_fetches for t in tracer.trees),
        "index.smo_retries": sum(t.stats.smo_retries for t in tracer.trees),
        "index.entries_pruned": sum(t.stats.entries_pruned for t in tracer.trees),
        "index.cache_hits": sum(t.cache.hits for t in tracer.trees),
        "index.cache_misses": sum(t.cache.misses for t in tracer.trees),
        "core.cm_starts": sum(cm.starts_served for cm in parts.commit_managers),
        "core.cm_range_refills": sum(
            cm.range_refills for cm in parts.commit_managers),
        "core.txns_begun": sum(pn.stats.begun for pn in parts.pns),
    }
    return counts


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _pool_stats(tracer: Tracer, pools: Any, sim_now: float) -> Tuple[float, float]:
    """(mean wait per reservation in us, busy share) over ``pools``."""
    reservations = wait = busy = capacity = 0.0
    for pool in pools:
        _pool, cores, count, wait_sum, busy_sum = tracer.pools[id(pool)]
        reservations += count
        wait += wait_sum
        busy += busy_sum
        capacity += cores * sim_now
    return _ratio(wait, reservations), _ratio(busy, capacity)


def layer_metrics(tracer: Tracer, parts: Parts, before: Dict[str, float],
                  setup_counters: Dict[str, int], wall_s: float,
                  untraced_s: float) -> Dict[str, Tuple[float, str]]:
    """Every metric in :data:`UNITS` for one traced measured phase."""
    after = read_counters(parts, tracer)
    delta = {key: after[key] - before[key] for key in after}
    counters = tracer.counters
    own = tracer.layer_self_s()
    calls, entries, incl = tracer.calls, tracer.entry_calls, tracer.incl_s
    values: Dict[str, float] = {key: delta[key] for key in (
        "sim.events", "fabric.messages", "fabric.store_ops",
        "fabric.bytes_sent", "store.reads", "store.writes", "store.scans",
        "store.replica_writes", "index.smo_retries", "index.entries_pruned",
        "core.cm_starts", "core.cm_range_refills", "core.txns_begun")}
    for layer in ("sim", "fabric", "store", "index", "core", "core.cm",
                  "sql", "sql.table", "dispatch", "workloads"):
        values[f"{layer}.self_s"] = own[layer]

    values["sim.ns_per_event"] = _ratio(own["sim"] * 1e9, delta["sim.events"])
    values["fabric.us_per_message"] = _ratio(own["fabric"] * 1e6,
                                             delta["fabric.messages"])
    sn_wait = cm_wait = sn_busy = pn_busy = 0.0
    if parts.fabric is not None:
        now = parts.sim.now
        sn_wait, sn_busy = _pool_stats(tracer, parts.fabric.sn_pools.values(), now)
        cm_wait, _cm_busy = _pool_stats(tracer, parts.fabric.cm_pools, now)
        _pn_wait, pn_busy = _pool_stats(tracer, parts.pn_pools, now)
    values.update({"fabric.sn_wait_us": sn_wait, "fabric.cm_wait_us": cm_wait,
                   "fabric.sn_busy": sn_busy, "fabric.pn_busy": pn_busy})

    store_ops = delta["store.reads"] + delta["store.writes"] + delta["store.scans"]
    values["store.us_per_op"] = _ratio(own["store"] * 1e6, store_ops)
    values["store.size_calls_per_op"] = _ratio(counters["store.size_calls"],
                                               store_ops)
    values["store.cond_fail_ratio"] = _ratio(
        counters["store.conditional_failed"], counters["store.conditional"])

    lookups = sum(entries[f"index.{name}"]
                  for name in ("lookup", "lookup_many", "range_entries"))
    values["index.lookups"] = lookups
    values["index.inserts"] = entries["index.insert"]
    values["index.node_fetches_per_lookup"] = _ratio(
        delta["index.node_fetches"], lookups)
    values["index.cache_hit_ratio"] = _ratio(
        delta["index.cache_hits"],
        delta["index.cache_hits"] + delta["index.cache_misses"])

    committed = counters["core.commits_returned"]
    values["core.txns_committed"] = committed
    values["core.txns_aborted"] = (calls["core.commit"] - committed
                                   + calls["core.abort"])
    values["core.read_us"] = _ratio(incl["core.read_many"] * 1e6,
                                    calls["core.read_many"])
    values["core.commit_us"] = _ratio(incl["core.commit"] * 1e6,
                                      calls["core.commit"])

    statements = counters["sql.statements"]
    values["sql.statements"] = statements
    values["sql.parse_us"] = _ratio(incl["sql.parse"] * 1e6, calls["sql.parse"])
    values["sql.exec_us"] = _ratio(
        (incl["sql.execute"] - incl["sql.parse"]) * 1e6, statements)
    values["sql.rows_examined_per_returned"] = _ratio(
        counters["sql.rows_examined"], counters["sql.rows_returned"])
    values["sql.table.calls"] = sum(
        count for name, count in entries.items()
        if name.startswith("sql.table."))
    values["sql.local_rows_scanned"] = _ratio(
        counters["sql.local_rows_walked"], counters["sql.local_rows_calls"])
    values["sql.load_local_rows_scanned"] = _ratio(
        setup_counters.get("sql.local_rows_walked", 0),
        setup_counters.get("sql.local_rows_calls", 0))

    kinds = {int(key.rsplit(".", 1)[1]): count
             for key, count in counters.items()
             if key.startswith("dispatch.kind.")}
    values["dispatch.requests"] = sum(kinds.values())
    values["dispatch.requests.store"] = kinds.get(KIND_STORE, 0)
    values["dispatch.requests.batch"] = kinds.get(KIND_BATCH, 0)
    values["dispatch.requests.scan"] = kinds.get(KIND_SCAN, 0)
    values["dispatch.requests.cm"] = sum(kinds.get(k, 0) for k in _CM_KINDS)

    versions, amplification = stored_shape(parts.cluster)
    values["core.versions_per_record"] = versions
    values["store.bytes_per_user_byte"] = amplification

    values["trace.wall_s"] = wall_s
    values["trace.unattributed_s"] = wall_s - tracer.root_s
    values["trace.overhead_s"] = tracer.overhead_s
    values["trace.overhead_ratio"] = _ratio(wall_s, untraced_s)
    return {name: (float(values[name]), unit) for name, unit in UNITS.items()}
