"""``repro.obs`` -- metrics registry + span tracing for the whole stack.

The observability layer is **off by default** and near-zero-cost when
off: instrumented components carry an ``obs`` attribute that is ``None``
unless a deployment opts in, and every instrumentation site is a single
``is None`` check.  Statistics the codebase already tracks
unconditionally (``PnStats``, ``BufferStats``, ``FabricStats``, ...) are
harvested by collector callbacks at snapshot time instead of being
mirrored on the hot path.

Enable it with ``TellConfig(observability=True)``,
``repro.connect(observability=True)``, ``python -m repro.bench --obs``,
or the ``REPRO_OBS=1`` environment variable.  See
``docs/observability.md``.
"""

from __future__ import annotations

import os
from typing import Callable, List, Optional, Tuple

from repro.obs.exporters import (OBS_SCHEMA, PHASE_TABLE_HEADERS,
                                 phase_table_rows, to_json, to_prometheus,
                                 validate_snapshot)
from repro.obs.registry import (Counter, Gauge, Histogram, MetricsRegistry,
                                percentile)
from repro.obs.tracing import PHASES, PhaseBreakdown, Span, Tracer

#: Environment flag mirroring ``REPRO_SANITIZE``: any non-empty value
#: other than "0" enables observability on every deployment.
ENV_FLAG = "REPRO_OBS"

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "Observability", "PhaseBreakdown", "PHASES", "Span", "Tracer",
    "OBS_SCHEMA", "PHASE_TABLE_HEADERS", "ENV_FLAG", "obs_enabled",
    "install_sink",
    "clear_sink", "emit", "percentile", "phase_table_rows", "to_json",
    "to_prometheus", "validate_snapshot",
]


def obs_enabled() -> bool:
    """True when ``REPRO_OBS`` asks for observability everywhere."""
    value = os.environ.get(ENV_FLAG, "")
    return bool(value) and value != "0"


class _StepClock:
    """Deterministic fallback clock for direct (untimed) deployments.

    Each read advances by one "tick", so span durations in direct mode
    count instrumentation steps rather than simulated microseconds --
    ordering-faithful and reproducible, if not physically meaningful.
    """

    __slots__ = ("_now",)

    def __init__(self) -> None:
        self._now = 0.0

    def __call__(self) -> float:
        self._now += 1.0
        return self._now


class Observability:
    """The per-deployment hub: one registry + one tracer + one clock.

    ``clock`` should be the deployment's time source (the simulator
    clock in simulated runs).  Without one, a deterministic step
    counter is used so direct-mode traces still order correctly.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 max_roots: int = 1000) -> None:
        self.clock_kind = "sim" if clock is not None else "steps"
        self.clock: Callable[[], float] = clock or _StepClock()
        self.registry = MetricsRegistry()
        self.tracer = Tracer(self.clock, max_roots=max_roots)

    def snapshot(self) -> dict:
        """Collect and export everything as a ``repro-obs/1`` document."""
        metrics = self.registry.snapshot()
        return {
            "schema": OBS_SCHEMA,
            "meta": {"clock": self.clock_kind},
            "counters": metrics["counters"],
            "gauges": metrics["gauges"],
            "histograms": metrics["histograms"],
            "phases": self.tracer.phases.to_dict(),
            "spans": self.tracer.to_dict(),
        }


# -- snapshot sink -----------------------------------------------------------
#
# The bench CLI installs a sink before running experiments; deployments
# emit ``(label, snapshot)`` pairs into it when their run completes, and
# the CLI writes them next to the printed results.  Programmatic users
# read ``TxnMetrics.obs_snapshot`` instead.

_SINK: Optional[List[Tuple[str, dict]]] = None


def install_sink() -> List[Tuple[str, dict]]:
    """Install (or return the existing) global snapshot sink."""
    global _SINK
    if _SINK is None:
        _SINK = []
    return _SINK


def clear_sink() -> None:
    global _SINK
    _SINK = None


def emit(label: str, snapshot: dict) -> None:
    """Hand a finished deployment's snapshot to the sink, if installed."""
    if _SINK is not None:
        _SINK.append((label, snapshot))
