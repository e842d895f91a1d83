"""One registry for the benchmark suites recorded in ``BENCH_perf.json``.

Each suite module (:mod:`~repro.bench.scale`, :mod:`~repro.bench.isolation`,
:mod:`~repro.bench.elastic`) exports one :class:`Suite` record named
``SUITE``.  :func:`run_suite` selects and runs its points, and
:func:`record_rows` merges the resulting rows into the suite's report
section through :func:`merge_report`, the one writer of the shared report
-- the perf microbenchmarks (:mod:`repro.bench.perfsuite`) write through it
too, so no writer can drop another writer's sections.

Use via ``python -m repro.bench --suite NAME [LABEL ...] [--smoke]``.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Registered suites: CLI name (= report section) -> defining module.
SUITES = {
    "scale": "repro.bench.scale",
    "isolation": "repro.bench.isolation",
    "elastic": "repro.bench.elastic",
}


@dataclass(frozen=True)
class Suite:
    """What the harness needs to know to run and record one suite."""

    #: Report section the rows are merged into; also the CLI name.
    section: str
    #: Every point in canonical (report) order; each carries its ``key``.
    points: Tuple[Dict[str, Any], ...]
    #: Keys of the points ``--smoke`` runs (the CI-sized subset).
    smoke: Tuple[str, ...]
    #: Runs one point and returns its report row.
    run_point: Callable[[Dict[str, Any]], Dict[str, Any]]
    #: Renders rows as the terminal table/curve.
    render: Callable[[List[Dict[str, Any]]], str]
    #: The section's list field holding the rows.
    rows: str = "points"
    #: The row field that identifies a point (rows are replaced by it).
    key: str = "label"


def get_suite(name: str) -> Suite:
    """The registered suite ``name`` (imports its module on first use)."""
    return importlib.import_module(SUITES[name]).SUITE


def run_suite(
    suite: Suite,
    labels: Optional[Sequence[str]] = None,
    smoke: bool = False,
    verbose: bool = True,
) -> List[Dict[str, Any]]:
    """Run the selected points in canonical order (default: all of them,
    or the smoke subset) and return their rows.

    Every label is checked before anything runs, so a typo fails in
    milliseconds with the known labels in the message.
    """
    known = [point[suite.key] for point in suite.points]
    selected = list(labels or (suite.smoke if smoke else known))
    for label in selected:
        if label not in known:
            raise ValueError(
                f"unknown {suite.section} point {label!r} "
                f"(known: {', '.join(known)})"
            )
    rows = []
    for point in suite.points:
        if point[suite.key] not in selected:
            continue
        started = time.perf_counter()
        rows.append(suite.run_point(point))
        if verbose:
            print(f"  {suite.section} {point[suite.key]}: "
                  f"{time.perf_counter() - started:.1f}s wall",
                  file=sys.stderr)
    return rows


def read_report(path: str) -> Dict[str, Any]:
    """The report at ``path``, or ``{}`` when there is none yet."""
    if not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def merge_report(path: str, sections: Dict[str, Any]) -> None:
    """Replace the top-level ``sections`` of the report at ``path``.

    Every other key of the report is kept as it was; a section given as
    ``None`` is removed.
    """
    report = read_report(path)
    for name, value in sections.items():
        if value is None:
            report.pop(name, None)
        else:
            report[name] = value
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(report, indent=2, sort_keys=True) + "\n")


def record_rows(suite: Suite, path: str, rows: List[Dict[str, Any]]) -> None:
    """Merge ``rows`` into ``suite``'s section of the report at ``path``.

    Rows are replaced by key, so a smoke run refreshes its point without
    clobbering the rest of the suite; rows keep the canonical point
    order, with unknown keys last.
    """
    section = dict(read_report(path).get(suite.section, {}))
    merged = {row[suite.key]: row for row in section.get(suite.rows, [])}
    merged.update((row[suite.key], row) for row in rows)
    order = [point[suite.key] for point in suite.points]
    section[suite.rows] = sorted(
        merged.values(),
        key=lambda row: (
            order.index(row[suite.key])
            if row[suite.key] in order else len(order)
        ),
    )
    section["created_unix"] = int(time.time())
    merge_report(path, {suite.section: section})
