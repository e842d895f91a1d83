"""Self-tests of the benchmark at smoke size.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from layers import UNITS  # noqa: E402
from stats import percentile  # noqa: E402
from tracer import COUNT, Tracer, install  # noqa: E402
from workloads import WORKLOADS, SqlBank, TpccRf3, YcsbB  # noqa: E402

SMOKE = {
    "tpcc_rf3": TpccRf3(duration_us=60_000.0),
    "ycsb_b": YcsbB(duration_us=20_000.0, records=2_000),
    "sql_bank": SqlBank(accounts=600, region_count=6, operations=600),
}


def _benchmark_json() -> dict:
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_workload_runs_and_its_checks_pass(name):
    workload = SMOKE[name]
    inputs = workload.inputs(7, 0)
    first = run.run_rep(workload, inputs)
    second = run.run_rep(workload, inputs)
    assert first.failures == [] and second.failures == []
    assert first.outcome.attempted > 0
    assert first.outcome.digest == second.outcome.digest


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_traced_rep_is_digest_neutral_and_adds_up(name):
    workload = SMOKE[name]
    inputs = workload.inputs(3, 1)
    untraced = run.run_rep(workload, inputs)
    tracer = Tracer()
    tracer.calibrate(calls=2_000)
    assert tracer.seg_cost > 0 and tracer.child_cost > 0
    with install(tracer):
        tracer.mode = COUNT
        traced = run.run_rep(workload, inputs, tracer, untraced.measure_s)
    assert traced.failures == []
    assert traced.outcome.digest == untraced.outcome.digest
    layers = traced.layers
    assert set(layers) == set(UNITS)
    own = sum(value for key, (value, _unit) in layers.items()
              if key.endswith(".self_s"))
    wall = layers["trace.wall_s"][0]
    assert own + layers["trace.overhead_s"][0] + layers[
        "trace.unattributed_s"][0] == pytest.approx(wall, rel=1e-6)
    assert layers["trace.overhead_s"][0] > 0
    if workload.simulated:
        assert layers["sim.events"][0] > 0 and layers["fabric.messages"][0] > 0
        assert layers["sql.statements"][0] == 0
    else:
        assert layers["sim.self_s"][0] == 0 and layers["fabric.self_s"][0] == 0
        assert layers["sql.statements"][0] > 0 and layers["sql.parse_us"][0] > 0


def test_sql_bank_check_catches_a_balance_the_transfers_did_not_leave():
    workload = SMOKE["sql_bank"]
    bank = workload.build(workload.inputs(7, 0))
    try:
        outcome = workload.summarize(bank, workload.measure(bank))
        assert outcome.failures == [] and workload.check(bank) == []
        bank.balances[0] += 1  # as if a transfer's UPDATE had been lost
        assert any("differ from the replayed" in failure
                   for failure in workload.check(bank))
    finally:
        workload.close(bank)


def test_wrappers_are_removed_after_the_block():
    from repro.sql.table import Table
    from repro.store import cell, cluster

    before = (Table.get, cell.approx_size, cluster.approx_size)
    with install(Tracer()):
        assert Table.get is not before[0]
    assert (Table.get, cell.approx_size, cluster.approx_size) == before


def test_printed_metric_names_match_benchmark_json():
    spec = _benchmark_json()
    untraced = run.run_workload(SMOKE["ycsb_b"], 5, 0.01, trace=False)["result"]
    traced = run.run_workload(SMOKE["ycsb_b"], 5, 0.01, trace=True)["result"]
    assert untraced["correct"] and traced["correct"]
    assert list(untraced["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert list(traced["metrics"]) == [m["name"] for m in spec["per_layer"]]
    for section, printed in (("end_to_end", untraced), ("per_layer", traced)):
        for metric in spec[section]:
            assert printed["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_percentile_reports_its_sample_count():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == (50.5, 100)
    assert percentile(values, 0.9) == pytest.approx((90.1, 100))


def test_percentile_refuses_a_thin_tail():
    with pytest.raises(ValueError):
        percentile(list(range(999)), 0.99)  # 9 samples beyond p99
    assert percentile(list(range(1000)), 0.99)[1] == 1000
    with pytest.raises(ValueError):
        percentile(list(range(19)), 0.5)
