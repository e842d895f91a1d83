"""Throughput and latency accounting for benchmark runs."""

from __future__ import annotations

import hashlib
import json
import math
from typing import Dict, List, Optional, Tuple

# The percentile lives in repro.obs; perfbench/stats.py imports it from
# here under this name.
from repro.obs import percentile as _percentile


class LatencyStats:
    """Mean, standard deviation, and tail percentiles of a latency set."""

    __slots__ = ("count", "mean_us", "std_us", "p50_us", "p99_us", "p999_us",
                 "max_us")

    def __init__(self, latencies_us: List[float]):
        self.count = len(latencies_us)
        if not latencies_us:
            self.mean_us = self.std_us = self.p50_us = 0.0
            self.p99_us = self.p999_us = self.max_us = 0.0
            return
        ordered = sorted(latencies_us)
        self.count = len(ordered)
        self.mean_us = sum(ordered) / self.count
        variance = sum((x - self.mean_us) ** 2 for x in ordered) / self.count
        self.std_us = math.sqrt(variance)
        self.p50_us = _percentile(ordered, 0.50)
        self.p99_us = _percentile(ordered, 0.99)
        self.p999_us = _percentile(ordered, 0.999)
        self.max_us = ordered[-1]

    @property
    def mean_ms(self) -> float:
        return self.mean_us / 1000.0

    @property
    def std_ms(self) -> float:
        return self.std_us / 1000.0

    def __repr__(self) -> str:
        return (
            f"LatencyStats(n={self.count}, mean={self.mean_ms:.2f}ms, "
            f"sigma={self.std_ms:.2f}ms, p99={self.p99_us / 1000:.2f}ms)"
        )


class TxnMetrics:
    """Per-transaction-type counters collected during a (simulated) run.

    ``record`` is called by terminal workers; throughput properties follow
    the paper's definitions: TpmC counts only *successful* new-order
    transactions per minute; aborted transactions are excluded.
    """

    def __init__(self) -> None:
        self.committed: Dict[str, int] = {}
        self.conflicts: Dict[str, int] = {}
        self.user_aborts: Dict[str, int] = {}
        self.latencies_us: Dict[str, List[float]] = {}
        self.measured_time_us: float = 0.0
        #: Per-request-class dispatch trace, attached by
        #: :class:`repro.dispatch.TraceInterceptor` when one is installed.
        #: Deliberately outside :meth:`digest` -- tracing is observational
        #: and must not change the behaviour fingerprint.
        self.request_trace: Optional[object] = None
        #: ``repro-obs/1`` snapshot, attached by observability-enabled
        #: deployments when the run finishes.  Also outside the digest.
        self.obs_snapshot: Optional[dict] = None

    def record(
        self, txn_name: str, outcome: str, latency_us: float
    ) -> None:
        """outcome: 'committed' | 'conflict' | 'user_abort'."""
        if outcome == "committed":
            self.committed[txn_name] = self.committed.get(txn_name, 0) + 1
            self.latencies_us.setdefault(txn_name, []).append(latency_us)
        elif outcome == "conflict":
            self.conflicts[txn_name] = self.conflicts.get(txn_name, 0) + 1
        elif outcome == "user_abort":
            self.user_aborts[txn_name] = self.user_aborts.get(txn_name, 0) + 1
        else:
            raise ValueError(f"unknown outcome {outcome!r}")

    # -- totals -----------------------------------------------------------------

    @property
    def total_committed(self) -> int:
        return sum(self.committed.values())

    @property
    def total_conflicts(self) -> int:
        return sum(self.conflicts.values())

    @property
    def total_finished(self) -> int:
        return (
            self.total_committed
            + self.total_conflicts
            + sum(self.user_aborts.values())
        )

    @property
    def abort_rate(self) -> float:
        """Conflict aborts over all finished transactions (the paper's
        "overall transaction abort rate")."""
        finished = self.total_finished
        return self.total_conflicts / finished if finished else 0.0

    # -- throughput ---------------------------------------------------------------

    @property
    def tpmc(self) -> float:
        """Successful new-order transactions per minute."""
        if self.measured_time_us <= 0:
            return 0.0
        minutes = self.measured_time_us / 60e6
        return self.committed.get("new_order", 0) / minutes

    @property
    def tps(self) -> float:
        """All committed transactions per second."""
        if self.measured_time_us <= 0:
            return 0.0
        return self.total_committed / (self.measured_time_us / 1e6)

    # -- latency ------------------------------------------------------------------

    def latency(self, txn_name: Optional[str] = None) -> LatencyStats:
        if txn_name is not None:
            return LatencyStats(self.latencies_us.get(txn_name, []))
        merged: List[float] = []
        for values in self.latencies_us.values():
            merged.extend(values)
        return LatencyStats(merged)

    def merge(self, other: "TxnMetrics") -> None:
        for name, count in other.committed.items():
            self.committed[name] = self.committed.get(name, 0) + count
        for name, count in other.conflicts.items():
            self.conflicts[name] = self.conflicts.get(name, 0) + count
        for name, count in other.user_aborts.items():
            self.user_aborts[name] = self.user_aborts.get(name, 0) + count
        for name, values in other.latencies_us.items():
            self.latencies_us.setdefault(name, []).extend(values)

    def digest(self) -> str:
        """SHA-256 over every raw simulated measurement.

        Two runs with identical behaviour produce identical digests: the
        digest covers per-type commit/conflict/abort counts, the measured
        window, and the full latency series (which pins TpmC, abort rate,
        and all percentiles).  This is the behaviour-invariance check for
        performance work: an optimization must not change the digest.
        """
        payload = {
            "committed": dict(sorted(self.committed.items())),
            "conflicts": dict(sorted(self.conflicts.items())),
            "user_aborts": dict(sorted(self.user_aborts.items())),
            "measured_time_us": self.measured_time_us,
            "latencies_us": {
                name: self.latencies_us[name]
                for name in sorted(self.latencies_us)
            },
        }
        encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(encoded.encode("utf-8")).hexdigest()

    def trace_json(self, indent: int = 2) -> Optional[str]:
        """JSON dump of the dispatch trace (``repro-dispatch-trace/1``
        schema, see ``docs/dispatch.md``), or ``None`` when the run was
        not traced."""
        trace = self.request_trace
        if trace is None:
            return None
        return trace.dump_json(indent=indent)  # type: ignore[attr-defined]

    def summary(self) -> str:
        lat = self.latency()
        return (
            f"committed={self.total_committed} conflicts={self.total_conflicts} "
            f"abort_rate={self.abort_rate * 100:.2f}% tpmc={self.tpmc:,.0f} "
            f"tps={self.tps:,.0f} latency={lat.mean_ms:.2f}ms"
        )
