"""The benchmark-suite registry and the shared perf-report writer."""

from __future__ import annotations

import json

import pytest

from repro.bench import perfsuite
from repro.bench.suites import SUITES, get_suite, merge_report, run_suite

#: Sections other writers own; the microbenchmark report must keep them.
_OTHER_SECTIONS = {
    "scale": {"created_unix": 1, "points": [
        {"label": "smoke16", "digest": "abc", "events_per_s": 1.5},
    ]},
    "isolation": {"created_unix": 2, "modes": [
        {"mode": "si", "committed": 10},
    ]},
    "elastic": {"created_unix": 3, "points": [
        {"label": "smoke", "phases": {"before": {"txns_per_s": 2.0}}},
    ]},
}


def _encoded(value):
    return json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_registered_suite_is_consistent(name):
    suite = get_suite(name)
    assert suite.section == name
    keys = [point[suite.key] for point in suite.points]
    assert len(set(keys)) == len(keys)
    assert suite.smoke and set(suite.smoke) <= set(keys)


def test_unknown_label_names_the_known_ones():
    from repro.bench.__main__ import main

    with pytest.raises(ValueError) as excinfo:
        main(["--suite", "scale", "nodes9999", "--report", "-"])
    message = str(excinfo.value)
    assert "nodes9999" in message
    for point in get_suite("scale").points:
        assert point["label"] in message


def test_run_suite_validates_before_running():
    suite = get_suite("scale")
    with pytest.raises(ValueError, match="known: smoke16"):
        run_suite(suite, ["smoke16", "bogus"], verbose=False)


def test_merge_report_replaces_only_given_sections(tmp_path):
    path = tmp_path / "perf.json"
    path.write_text(json.dumps({"a": 1, "b": {"x": 2}, "c": 3}))
    merge_report(str(path), {"b": {"y": 4}, "c": None, "d": 5})
    assert json.loads(path.read_text()) == {"a": 1, "b": {"y": 4}, "d": 5}


def test_perfsuite_keeps_other_sections(tmp_path):
    path = tmp_path / "BENCH_perf.json"
    path.write_text(_encoded({
        "schema": perfsuite.BENCH_SCHEMA,
        "benchmarks": {"tpcc_e2e": {"after": {"value": 1.0}}},
        "invariance": {"digest_after": "stale"},
        **_OTHER_SECTIONS,
    }) + "\n")
    assert perfsuite.main(["snapshot", "--smoke", "-o", str(path)]) == 0
    report = json.loads(path.read_text())
    for name, section in _OTHER_SECTIONS.items():
        assert _encoded(report[name]) == _encoded(section)
    assert list(report["benchmarks"]) == ["snapshot"]
    # The invariance check belongs to the tpcc_e2e run it came from.
    assert "invariance" not in report
