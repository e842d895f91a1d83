"""Percentiles that say how many samples they rest on."""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.bench.metrics import _percentile

#: A percentile needs at least this many samples above it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], fraction: float) -> Tuple[float, int]:
    """``(value, sample_count)`` of the ``fraction`` percentile.

    The value is the program's own percentile (linear interpolation
    between closest ranks, as :class:`repro.bench.metrics.LatencyStats`
    reports it).  Raises ``ValueError`` when fewer than
    :data:`MIN_BEYOND` samples lie beyond the percentile, because such a
    tail is a handful of outliers.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction {fraction} is not inside (0, 1)")
    count = len(values)
    beyond = int((1.0 - fraction) * count + 1e-9)
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{fraction * 100:g} of {count} samples has {beyond} beyond it; "
            f"need {MIN_BEYOND}"
        )
    return _percentile(sorted(values), fraction), count
