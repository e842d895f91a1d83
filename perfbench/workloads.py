"""The benchmark's three workloads.

Each workload is a closed loop with zero think time, driven from outside
the program through its public entry points, and each exists for its
own reason (see README.md):

* ``tpcc_rf3`` -- simulated TPC-C, standard mix, SI with TB buffering,
  1 CM, 2 PNs x 8 terminals, 3 SNs at RF3, 4 warehouses (the paper's
  Figure 8 setting).  Write-heavy multi-row transactions.
* ``ycsb_b``  -- simulated YCSB-B (95% read, 5% update, zipf 0.99) over
  20k records, 2 PNs x 8 terminals, 3 SNs at RF1.  Short single-key
  transactions.
* ``sql_bank`` -- the embedded database (``repro.connect``) driven with
  SQL text from one session in direct mode, with no simulator.

A workload turns a seed into inputs (:meth:`inputs`, untimed), builds
and populates a deployment from them (:meth:`build`, timed as set-up),
runs the measured phase (:meth:`measure`, timed), then summarizes and
checks the result (:meth:`summarize`, :meth:`check`, untimed).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Optional, Sequence, Tuple

from repro import effects
from repro.api.runner import DirectRunner, Router
from repro.bench.config import TellConfig
from repro.bench.metrics import TxnMetrics
from repro.bench.simcluster import SimulatedTell
from repro.bench.ycsb_sim import SimulatedYcsb
from repro.core.processing_node import ProcessingNode
from repro.core.record import TOMBSTONE
from repro.core.spaces import DATA_SPACE
from repro.errors import TellError
from repro.sql.table import IndexManager, Table
from repro.store.cell import approx_size
from repro.workloads.tpcc.params import TpccScale


def derive_seed(workload: str, seed: int, part: int) -> int:
    """The seed of input ``part``, a pure function of ``--seed``."""
    return random.Random(f"{workload}:{seed}:{part}").randrange(1, 2**31)


@dataclass
class Outcome:
    """What one measured phase produced, on the client's clock.

    ``client_s`` is the length of the measured window on the clock the
    clients see: simulated seconds for a simulated deployment, ``None``
    for the embedded database (its clients see the host clock)."""

    attempted: int
    committed: int
    conflicts: int
    failed: int
    client_s: Optional[float]
    latencies_ms: List[float]
    digest: str
    details: Dict[str, Any] = field(default_factory=dict)
    #: Host latency per statement class in microseconds (embedded SQL).
    by_class_us: Dict[str, List[float]] = field(default_factory=dict)
    #: Wrong answers found while summarizing.
    failures: List[str] = field(default_factory=list)


@dataclass
class Parts:
    """The public objects the per-layer counters are read from."""

    cluster: Any
    commit_managers: Sequence[Any]
    pns: Sequence[Any]
    sim: Any = None
    fabric: Any = None
    pn_pools: Sequence[Any] = ()


# ---------------------------------------------------------------------------
# simulated workloads
# ---------------------------------------------------------------------------


def _sim_parts(deployment: SimulatedTell) -> Parts:
    handles = []
    for pn_id in range(deployment.config.processing_nodes):
        try:
            handles.append(deployment.pn_handle(pn_id))
        except KeyError:
            pass  # processing nodes are created when the run starts
    return Parts(
        cluster=deployment.cluster,
        commit_managers=deployment.commit_managers,
        pns=[handle[0] for handle in handles],
        sim=deployment.sim,
        fabric=deployment.fabric,
        pn_pools=[handle[1] for handle in handles],
    )


def _sim_outcome(metrics: TxnMetrics) -> Outcome:
    latencies_ms = [
        latency / 1000.0
        for name in sorted(metrics.latencies_us)
        for latency in metrics.latencies_us[name]
    ]
    details: Dict[str, Any] = {
        "committed": dict(sorted(metrics.committed.items())),
        "conflicts": dict(sorted(metrics.conflicts.items())),
        "user_aborts": dict(sorted(metrics.user_aborts.items())),
    }
    return Outcome(
        attempted=metrics.total_finished,
        committed=metrics.total_committed,
        conflicts=metrics.total_conflicts,
        failed=0,
        client_s=metrics.measured_time_us / 1e6,
        latencies_ms=latencies_ms,
        digest=metrics.digest(),
        details=details,
    )


def _reader(deployment: SimulatedTell) -> Tuple[ProcessingNode, DirectRunner]:
    """A fresh processing node outside the simulation, for checks."""
    pn = ProcessingNode(10_000)
    router = Router(deployment.cluster, deployment.commit_managers[0],
                    pn_id=pn.pn_id)
    return pn, DirectRunner(router)


def _table_rows(deployment: SimulatedTell, name: str) -> List[Dict[str, Any]]:
    pn, runner = _reader(deployment)
    schema = deployment.catalog.table(name)
    txn = runner.run(pn.begin())
    rows = runner.run(Table(schema, txn, IndexManager()).scan())
    runner.run(txn.commit())
    return [schema.row_to_dict(row) for _rid, row in rows]


class _Simulated:
    """Measuring, summarizing and reading a simulated deployment."""

    simulated: ClassVar[bool] = True

    def measure(self, deployment: SimulatedTell) -> TxnMetrics:
        return deployment.run()

    def summarize(self, deployment: SimulatedTell,
                  metrics: TxnMetrics) -> Outcome:
        return _sim_outcome(metrics)

    def parts(self, deployment: SimulatedTell) -> Parts:
        return _sim_parts(deployment)

    def close(self, deployment: SimulatedTell) -> None:
        pass


@dataclass
class TpccRf3(_Simulated):
    name: ClassVar[str] = "tpcc_rf3"
    warehouses: ClassVar[int] = 4
    duration_us: float = 400_000.0

    def inputs(self, seed: int, part: int) -> TellConfig:
        return TellConfig(
            processing_nodes=2, threads_per_pn=8,
            storage_nodes=3, replication_factor=3, commit_managers=1,
            buffering="tb", isolation="si", mix="standard",
            scale=TpccScale.small(self.warehouses),
            duration_us=self.duration_us, warmup_us=self.duration_us / 10,
            seed=derive_seed(self.name, seed, part),
        )

    def build(self, config: TellConfig) -> SimulatedTell:
        deployment = SimulatedTell(config)
        deployment.load()
        return deployment

    def check(self, deployment: SimulatedTell) -> List[str]:
        """TPC-C consistency conditions 1-3 after rolling back in-flight
        transactions, as in ``tests/test_tpcc_consistency.py``."""
        deployment.quiesce()
        failures: List[str] = []
        orders: Dict[Tuple[int, int], List[int]] = {}
        for row in _table_rows(deployment, "orders"):
            orders.setdefault((row["o_w_id"], row["o_d_id"]), []).append(row["o_id"])
        neworders: Dict[Tuple[int, int], List[int]] = {}
        for row in _table_rows(deployment, "neworder"):
            neworders.setdefault((row["no_w_id"], row["no_d_id"]), []).append(
                row["no_o_id"])
        districts = _table_rows(deployment, "district")
        if len(districts) != self.warehouses * 10:
            failures.append(f"tpcc: {len(districts)} districts")
        for district in districts:
            key = (district["d_w_id"], district["d_id"])
            last = district["d_next_o_id"] - 1
            if max(orders.get(key, [0])) != last:
                failures.append(f"tpcc condition 1: district {key} max(o_id)")
            if key in neworders and max(neworders[key]) != last:
                failures.append(f"tpcc condition 1: district {key} max(no_o_id)")
        for key, ids in orders.items():
            if sorted(ids) != list(range(1, len(ids) + 1)):
                failures.append(f"tpcc condition 2: district {key} order ids")
        for key, ids in neworders.items():
            ids.sort()
            if ids != list(range(ids[0], ids[0] + len(ids))):
                failures.append(f"tpcc condition 3: district {key} new-orders")
        return failures


@dataclass
class YcsbB(_Simulated):
    name: ClassVar[str] = "ycsb_b"
    duration_us: float = 200_000.0
    records: int = 20_000

    def inputs(self, seed: int, part: int) -> TellConfig:
        return TellConfig(
            processing_nodes=2, threads_per_pn=8,
            storage_nodes=3, replication_factor=1, commit_managers=1,
            mix="B", duration_us=self.duration_us,
            warmup_us=self.duration_us / 10,
            seed=derive_seed(self.name, seed, part),
        )

    def build(self, config: TellConfig) -> SimulatedYcsb:
        deployment = SimulatedYcsb(config, record_count=self.records,
                                   zipf_theta=0.99)
        deployment.load()
        return deployment

    def check(self, deployment: SimulatedYcsb) -> List[str]:
        """Every record is still readable after the run."""
        deployment.quiesce()
        pn, runner = _reader(deployment)
        table_schema = deployment.catalog.table("usertable")
        indexes = IndexManager()
        unreadable = 0
        for start in range(0, self.records, 1000):
            keys = [(key,) for key in range(start, min(start + 1000, self.records))]
            txn = runner.run(pn.begin())
            found = runner.run(Table(table_schema, txn, indexes).get_many(keys))
            runner.run(txn.commit())
            unreadable += sum(
                1 for key in keys
                if found[key] is None or found[key][1][0] != key[0]
            )
        return [f"ycsb: {unreadable} records unreadable"] if unreadable else []


# ---------------------------------------------------------------------------
# embedded SQL
# ---------------------------------------------------------------------------

POINT = "SELECT id, region, balance FROM accounts WHERE id = ?"
DEBIT = "UPDATE accounts SET balance = balance - ? WHERE id = ?"
CREDIT = "UPDATE accounts SET balance = balance + ? WHERE id = ?"
RANGE = "SELECT id, balance FROM accounts WHERE id >= ? AND id < ?"
AGGREGATE = ("SELECT region, COUNT(*), SUM(balance) FROM accounts "
             "WHERE region = ? GROUP BY region")
TOTALS = "SELECT COUNT(*), SUM(balance) FROM accounts"
ALL_ACCOUNTS = "SELECT id, region, balance FROM accounts"


@dataclass
class BankInputs:
    seed: int
    regions: List[int]           # region of account i
    ops: List[Tuple[str, tuple]]  # (class, parameters)


@dataclass
class Bank:
    db: Any
    session: Any
    inputs: BankInputs
    #: Expected balance of every account, replayed from the operations
    #: that succeeded; summarizing brings it up to the end of the run.
    balances: List[int]


@dataclass
class SqlBank:
    name: ClassVar[str] = "sql_bank"
    simulated: ClassVar[bool] = False
    #: (class, cumulative share): 60% point, 30% transfer, 8% range, 2% agg.
    mix: ClassVar[tuple] = (("point", 0.60), ("transfer", 0.90),
                            ("range", 0.98), ("agg", 1.0))
    range_rows: ClassVar[int] = 50
    initial_balance: ClassVar[int] = 1000
    batch_rows: ClassVar[int] = 250
    accounts: int = 4000
    region_count: int = 40
    operations: int = 10_000

    def inputs(self, seed: int, part: int) -> BankInputs:
        program_seed = derive_seed(self.name, seed, part)
        rng = random.Random(program_seed)
        regions = [rng.randrange(self.region_count) for _ in range(self.accounts)]
        ops: List[Tuple[str, tuple]] = []
        for _ in range(self.operations):
            roll = rng.random()
            kind = next(name for name, share in self.mix if roll < share)
            if kind == "point":
                params: tuple = (rng.randrange(self.accounts),)
            elif kind == "transfer":
                source, target = rng.sample(range(self.accounts), 2)
                params = (rng.randint(1, 100), source, target)
            elif kind == "range":
                low = rng.randrange(self.accounts - self.range_rows + 1)
                params = (low, low + self.range_rows)
            else:
                params = (rng.randrange(self.region_count),)
            ops.append((kind, params))
        return BankInputs(program_seed, regions, ops)

    def build(self, inputs: BankInputs) -> Bank:
        import repro

        db = repro.connect(storage_nodes=3)
        session = db.session()
        session.execute(
            "CREATE TABLE accounts (id INT PRIMARY KEY, region INT, balance INT)")
        session.execute("CREATE INDEX accounts_region ON accounts (region)")
        for start in range(0, self.accounts, self.batch_rows):
            ids = range(start, min(start + self.batch_rows, self.accounts))
            values = []
            for account in ids:
                values += [account, inputs.regions[account], self.initial_balance]
            session.execute(
                "INSERT INTO accounts VALUES "
                + ", ".join("(?, ?, ?)" for _ in ids), values)
        return Bank(db, session, inputs,
                    [self.initial_balance] * self.accounts)

    def measure(self, bank: Bank) -> List[Tuple[str, float, Any]]:
        """Run every operation; returns (class, seconds, rows or error)."""
        from time import perf_counter

        execute = bank.session.execute
        results: List[Tuple[str, float, Any]] = []
        append = results.append
        for kind, params in bank.inputs.ops:
            started = perf_counter()
            try:
                if kind == "transfer":
                    amount, source, target = params
                    execute("BEGIN")
                    execute(DEBIT, (amount, source))
                    execute(CREDIT, (amount, target))
                    execute("COMMIT")
                    rows: Any = None
                elif kind == "point":
                    rows = execute(POINT, params).rows
                elif kind == "range":
                    rows = execute(RANGE, params).rows
                else:
                    rows = execute(AGGREGATE, params).rows
            except TellError as exc:
                if bank.session.in_transaction:
                    bank.session.rollback()
                rows = exc
            append((kind, perf_counter() - started, rows))
        return results

    def summarize(self, bank: Bank,
                  results: List[Tuple[str, float, Any]]) -> Outcome:
        """Replay the operations into the expected balances and check
        every answer against them."""
        regions = bank.inputs.regions
        balances = bank.balances
        region_sizes = [0] * self.region_count
        region_sums = [0] * self.region_count
        for account, region in enumerate(regions):
            region_sizes[region] += 1
            region_sums[region] += balances[account]
        digest = hashlib.sha256()
        failed = 0
        failures: List[str] = []
        by_class: Dict[str, List[float]] = {name: [] for name, _ in self.mix}
        for (kind, params), (_kind, seconds, rows) in zip(bank.inputs.ops,
                                                         results):
            by_class[kind].append(seconds * 1e6)
            if isinstance(rows, Exception):
                failed += 1
                rows = type(rows).__name__
            elif kind == "transfer":
                amount, source, target = params
                balances[source] -= amount
                balances[target] += amount
                region_sums[regions[source]] -= amount
                region_sums[regions[target]] += amount
            else:
                answer = [tuple(row) for row in rows]
                if kind == "point":
                    account = params[0]
                    expected = [(account, regions[account], balances[account])]
                elif kind == "range":
                    answer.sort()
                    expected = [(account, balances[account])
                                for account in range(*params)]
                else:
                    region = params[0]
                    expected = [(region, region_sizes[region],
                                 region_sums[region])] if region_sizes[region] else []
                if answer != expected:
                    got, want = next(
                        (pair for pair in zip(answer, expected)
                         if pair[0] != pair[1]),
                        (f"{len(answer)} rows", f"{len(expected)} rows"))
                    failures.append(f"sql_bank: {kind} {params} gave {got}, "
                                    f"expected {want}")
            digest.update(repr((kind, rows)).encode("utf-8"))
        return Outcome(
            attempted=len(results),
            committed=len(results) - failed,
            conflicts=0,
            failed=failed,
            client_s=None,
            latencies_ms=[seconds * 1e3 for _kind, seconds, _rows in results],
            digest=digest.hexdigest(),
            by_class_us=by_class,
            failures=failures,
        )

    def parts(self, bank: Bank) -> Parts:
        return Parts(cluster=bank.db.cluster,
                     commit_managers=bank.db.commit_managers,
                     pns=[bank.session.pn])

    def check(self, bank: Bank) -> List[str]:
        """Money and accounts are conserved, every account holds the
        balance its transfers left, and the aggregates over all regions
        add up to every account."""
        failures: List[str] = []
        count, total = bank.session.execute(TOTALS).one()
        if count != self.accounts:
            failures.append(f"sql_bank: {count} accounts, expected {self.accounts}")
        if total != self.accounts * self.initial_balance:
            failures.append(f"sql_bank: balance total {total} not conserved")
        stored = sorted(tuple(row) for row in
                        bank.session.execute(ALL_ACCOUNTS).rows)
        expected = [(account, region, balance) for account, (region, balance)
                    in enumerate(zip(bank.inputs.regions, bank.balances))]
        wrong = sum(1 for got, want in zip(stored, expected) if got != want)
        if wrong or len(stored) != len(expected):
            failures.append(f"sql_bank: {wrong} of {len(stored)} accounts "
                            f"differ from the replayed balances")
        counted = summed = 0
        for region in range(self.region_count):
            for _region, region_count, region_sum in bank.session.execute(
                    AGGREGATE, (region,)).rows:
                counted += region_count
                summed += region_sum
        if counted != self.accounts or summed != total:
            failures.append(
                f"sql_bank: regions hold {counted} accounts, {summed} balance")
        return failures

    def close(self, bank: Bank) -> None:
        bank.session.close()
        bank.db.close()


WORKLOADS = {workload.name: workload
             for workload in (TpccRf3(), YcsbB(), SqlBank())}


def stored_shape(cluster: Any) -> Tuple[float, float]:
    """(mean versions per record, stored bytes per user byte) of the data
    space: user bytes are the newest payload of every live record."""
    rows = cluster.execute(effects.Scan(DATA_SPACE, None, None))
    versions = user_bytes = 0
    for _key, record, _cell_version in rows:
        versions += len(record)
        payload = record.payload_of(record.newest_tid)
        if payload is not None and payload is not TOMBSTONE:
            user_bytes += approx_size(payload)
    mean_versions = versions / len(rows) if rows else 0.0
    return mean_versions, (cluster.total_bytes() / user_bytes if user_bytes else 0.0)
