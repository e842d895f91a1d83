"""Prometheus-style metrics primitives: counters, gauges, log2 histograms.

Everything here is stdlib-only and deterministic: metric values are plain
numbers keyed by insertion-ordered label tuples, and snapshots sort every
key so two identical runs serialize to byte-identical JSON.

The registry supports *collector callbacks*: instead of making hot protocol
code call ``counter.inc()`` for statistics the codebase already tracks
(``PnStats``, ``BufferStats``, ``FabricStats``, ...), a collector harvests
those always-on structures once, at snapshot time.  The hot path pays
nothing; the snapshot pays a handful of attribute reads.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

LabelKey = Tuple[Tuple[str, str], ...]


def percentile(ordered: List[float], fraction: float) -> float:
    """The ``fraction`` quantile of an ascending-sorted sample.

    Linear interpolation between closest ranks (numpy's default):
    rank = fraction * (n - 1), and the value is interpolated between
    floor(rank) and ceil(rank).  Nearest-rank rounding could be off by
    most of one inter-sample gap on small or skewed samples.  An empty
    sample gives 0.0.
    """
    if not ordered:
        return 0.0
    rank = fraction * (len(ordered) - 1)
    lower = int(rank)
    upper = lower + 1
    if upper >= len(ordered):
        return ordered[-1]
    weight = rank - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight


def _label_key(labels: Dict[str, str]) -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing sum, optionally split by labels."""

    __slots__ = ("name", "help", "_series")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._series: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (amount={amount})")
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        return self._series.get(_label_key(labels), 0.0)

    def series(self) -> Dict[LabelKey, float]:
        return dict(self._series)


class Gauge:
    """A point-in-time value that can go up or down."""

    __slots__ = ("name", "help", "_series")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._series: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: str) -> None:
        self._series[_label_key(labels)] = float(value)

    def value(self, **labels: str) -> float:
        return self._series.get(_label_key(labels), 0.0)

    def series(self) -> Dict[LabelKey, float]:
        return dict(self._series)


class Histogram:
    """Power-of-two bucket histogram (same shape as ``TraceInterceptor``).

    ``observe(v)`` drops ``v`` into bucket ``ceil(log2(v))`` (bucket 0
    holds everything <= 1) and tracks count/sum/max so means survive the
    bucketing.  Buckets are cheap, unbounded in range, and merge trivially.
    """

    __slots__ = ("name", "help", "_series")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        # label key -> [count, sum, max, {bucket: count}]
        self._series: Dict[LabelKey, list] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = _label_key(labels)
        cell = self._series.get(key)
        if cell is None:
            cell = [0, 0.0, 0.0, {}]
            self._series[key] = cell
        cell[0] += 1
        cell[1] += value
        if value > cell[2]:
            cell[2] = value
        bucket = 0
        scaled = value
        while scaled > 1.0:
            scaled /= 2.0
            bucket += 1
        buckets = cell[3]
        buckets[bucket] = buckets.get(bucket, 0) + 1

    def count(self, **labels: str) -> int:
        cell = self._series.get(_label_key(labels))
        return cell[0] if cell else 0

    def sum(self, **labels: str) -> float:
        cell = self._series.get(_label_key(labels))
        return cell[1] if cell else 0.0

    def mean(self, **labels: str) -> float:
        cell = self._series.get(_label_key(labels))
        if not cell or not cell[0]:
            return 0.0
        return cell[1] / cell[0]

    def series(self) -> Dict[LabelKey, list]:
        return {k: [v[0], v[1], v[2], dict(v[3])]
                for k, v in self._series.items()}


class MetricsRegistry:
    """Named metrics plus collector callbacks run at snapshot time."""

    __slots__ = ("_metrics", "_collectors")

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []

    def _get_or_create(self, cls: type, name: str, help: str) -> object:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help)
            self._metrics[name] = metric
            return metric
        if not isinstance(metric, cls):
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}")
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)  # type: ignore[return-value]

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get_or_create(Histogram, name, help)  # type: ignore[return-value]

    def register_collector(
            self, collector: Callable[["MetricsRegistry"], None]) -> None:
        """Register a callback invoked by :meth:`collect`.

        Collectors pull numbers out of live components (stats structs,
        caches, commit managers) and write them into gauges/counters.
        They run only when a snapshot is taken, never on the hot path.
        """
        self._collectors.append(collector)

    def collect(self) -> None:
        for collector in self._collectors:
            collector(self)

    def metrics(self) -> Iterable[object]:
        return list(self._metrics.values())

    def get(self, name: str) -> Optional[object]:
        return self._metrics.get(name)

    def snapshot(self, run_collectors: bool = True) -> Dict[str, dict]:
        """Deterministic nested-dict dump: ``{counters: {...}, ...}``.

        Label keys serialize as ``name{k=v,k2=v2}`` strings sorted
        lexicographically, so identical runs produce identical JSON.
        """
        if run_collectors:
            self.collect()
        counters: Dict[str, float] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, dict] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                for key, value in sorted(metric.series().items()):
                    counters[_render_series(name, key)] = value
            elif isinstance(metric, Gauge):
                for key, value in sorted(metric.series().items()):
                    gauges[_render_series(name, key)] = value
            elif isinstance(metric, Histogram):
                for key, cell in sorted(metric.series().items()):
                    histograms[_render_series(name, key)] = {
                        "count": cell[0],
                        "sum": cell[1],
                        "max": cell[2],
                        "buckets": {str(b): c
                                    for b, c in sorted(cell[3].items())},
                    }
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}


def _render_series(name: str, key: LabelKey) -> str:
    if not key:
        return name
    labels = ",".join(f"{k}={v}" for k, v in key)
    return f"{name}{{{labels}}}"
