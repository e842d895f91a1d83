"""Spans around the calls into each layer, recorded from outside the program.

:func:`install` replaces the public entry points of each layer with
wrappers for the life of a ``with`` block and restores them afterwards.
It must run *before* the deployment is built, because deployments bind
some of these methods once at construction (the commit manager keeps
``StorageCluster.execute``, the fabric's driver loop keeps
``SimFabric.prepare_single``).

A wrapper only calls through while :attr:`Tracer.mode` is ``OFF``.  In
``COUNT`` mode it also runs its counting hooks; in ``TRACE`` mode it
records a span as well.  Effect coroutines (the protocol's generators)
are timed per resume, not per call: a coroutine suspended in simulated
time is not using the host, so each ``send``/``throw`` into it is one
segment of the same span.

Self time is a segment's duration minus the time its child wrappers
take.  What a wrapper spends outside its own segment -- reading the
clock, the span bookkeeping, the counting hooks, the extra generator
frame of a timed coroutine -- is charged to :attr:`Tracer.overhead_s`,
not to the enclosing segment, so a layer's self time does not grow with
the number of wrapped calls it makes.  What a wrapper cannot help
leaving inside spans (the tail of ``push`` after its clock read, the
frame switches between a span and its child) is measured once by
:meth:`Tracer.calibrate` and moved to the overhead per segment and per
child.  Per-layer self times plus the tracer's overhead plus the
unattributed time equal the wall time of the traced phase.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from types import GeneratorType
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

OFF, COUNT, TRACE = 0, 1, 2

#: Layers, longest prefix first so ``core.cm.start`` maps to ``core.cm``.
LAYERS = ("core.cm", "sql.table", "sim", "fabric", "store", "index",
          "core", "sql", "dispatch", "workloads")

#: Span records kept for the trace file; aggregation covers every span.
SPAN_CAP = 50_000


def layer_of(name: str) -> str:
    for layer in LAYERS:
        if name == layer or name.startswith(layer + "."):
            return layer
    raise ValueError(f"span {name!r} belongs to no layer")


class Tracer:
    """In-memory spans plus per-name aggregates."""

    def __init__(self) -> None:
        self.mode = OFF
        self.clock = time.perf_counter
        # frame: [name, layer, start, child_time, txn, call_id]
        self._stack: List[list] = []
        self._next_call = 0
        self.spans: List[Tuple[int, str, float, float, int, Any]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: Calls made from outside the callee's layer.
        self.entry_calls: Counter = Counter()
        self.counters: Counter = Counter()
        #: Time covered by root wrappers, their overhead included.
        self.root_s = 0.0
        #: Time wrappers spent outside their own segments, plus the
        #: calibrated costs below.
        self.overhead_s = 0.0
        #: Tracer time left inside each segment, and inside the parent's
        #: segment per child wrapper; see :meth:`calibrate`.
        self.seg_cost = 0.0
        self.child_cost = 0.0
        #: id(CorePool) -> [pool, cores, reservations, wait_sum, busy_sum]
        self.pools: Dict[int, list] = {}
        #: Every DistributedBTree built while installed.
        self.trees: List[Any] = []

    # -- span stack ------------------------------------------------------------

    def push(self, name: str, layer: str, txn: Any = None,
             call: Optional[int] = None) -> int:
        stack = self._stack
        if call is None:
            call = self._next_call
            self._next_call += 1
            self.calls[name] += 1
            if not stack or stack[-1][1] != layer:
                self.entry_calls[name] += 1
        if txn is None and stack:
            txn = stack[-1][4]
        stack.append([name, layer, self.clock(), 0.0, txn, call])
        return call

    def pop(self) -> float:
        """Close the innermost segment; returns its duration."""
        end = self.clock()
        stack = self._stack
        name, _layer, start, child, txn, call = stack.pop()
        duration = end - start
        self.self_s[name] += duration - child - self.seg_cost
        self.overhead_s += self.seg_cost
        self.incl_s[name] += duration
        if stack:
            stack[-1][3] += duration
            parent = stack[-1][5]
        else:
            self.root_s += duration
            parent = -1
        if len(self.spans) < SPAN_CAP:
            self.spans.append((call, name, start, end, parent, txn))
        return duration

    def settle(self, entry: float, covered: float) -> None:
        """Charge a wrapper's time since ``entry`` outside its ``covered``
        segment to the overhead, and take it out of the parent's self time."""
        spent = self.clock() - entry - covered
        if self._stack:
            spent += self.child_cost
            self._stack[-1][3] += spent
        else:
            self.root_s += spent
        self.overhead_s += spent

    def calibrate(self, calls: int = 20_000, rounds: int = 5) -> None:
        """Set :attr:`seg_cost` and :attr:`child_cost` from an empty
        function wrapped under a wrapped caller, the median of ``rounds``.

        The empty function's self time is all tracer; the caller's self
        time per call, less the same loop untraced, is what each child
        wrapper leaves in its parent."""
        def empty() -> None:
            return None

        def caller(inner: Callable[[], None]) -> None:
            for _ in range(calls):
                inner()

        segs, children = [], []
        for _ in range(rounds):
            started = self.clock()
            caller(empty)
            plain = self.clock() - started
            probe = Tracer()
            probe.mode = TRACE
            _wrap(probe, "core.probe", caller)(_wrap(probe, "store.probe", empty))
            segs.append(probe.self_s["store.probe"] / calls)
            children.append((probe.self_s["core.probe"] - plain) / calls)
        self.seg_cost = max(0.0, statistics.median(segs))
        self.child_cost = max(0.0, statistics.median(children))

    def top_layer(self) -> Optional[str]:
        return self._stack[-1][1] if self._stack else None

    def resumes(self, gen: Iterator, name: str, layer: str, call: int,
                txn: Any, done: Optional[Callable[[Any], None]]) -> Iterator:
        """Delegate to ``gen``, timing each resume as a segment of ``call``."""
        value: Any = None
        error: Optional[BaseException] = None
        clock = self.clock
        entry = 0.0
        while True:
            traced = self.mode == TRACE
            if traced:
                entry = clock()
                self.push(name, layer, txn, call)
            try:
                if error is None:
                    item = gen.send(value)
                else:
                    item, error = gen.throw(error), None
            except StopIteration as stop:
                covered = self.pop() if traced else 0.0
                if done is not None and self.mode != OFF:
                    done(stop.value)
                if traced:
                    self.settle(entry, covered)
                return stop.value
            except BaseException:
                if traced:
                    self.settle(entry, self.pop())
                raise
            if traced:
                self.settle(entry, self.pop())
            try:
                value = yield item
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # thrown in by the driver
                value, error = None, exc

    # -- output ------------------------------------------------------------------

    def layer_self_s(self) -> Dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_s.items():
            totals[layer_of(name)] += seconds
        return totals

    def write_spans(self, path: str) -> None:
        """One JSON object per line: call, name, start, end, parent, txn.

        Times are seconds on the host clock; the segments of one
        coroutine call share ``call``; ``parent`` is the enclosing call,
        or -1 for a root segment."""
        with open(path, "w", encoding="utf-8") as handle:
            for call, name, start, end, parent, txn in self.spans:
                handle.write(json.dumps({
                    "call": call, "name": name, "start": start, "end": end,
                    "parent": parent, "txn": txn,
                }) + "\n")


def _wrap(tracer: Tracer, name: str, fn: Callable,
          txn_of: Optional[Callable[[tuple], Any]] = None,
          before: Optional[Callable[[tuple], None]] = None,
          after: Optional[Callable[[tuple, Any], None]] = None) -> Callable:
    """A stand-in for ``fn`` that records span ``name`` when tracing.

    ``before(args)`` and ``after(args, result)`` are counting hooks that
    run in COUNT and TRACE mode, outside the span.  For an effect
    coroutine, ``after`` receives the coroutine's return value."""
    layer = layer_of(name)
    clock = tracer.clock

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        mode = tracer.mode
        if mode == OFF:
            return fn(*args, **kwargs)
        if mode == COUNT:
            done = None if after is None else (lambda value: after(args, value))
            if before is not None:
                before(args)
            result = fn(*args, **kwargs)
            if result.__class__ is GeneratorType:
                if done is None:
                    return result
                return tracer.resumes(result, name, layer, -1, None, done)
            if done is not None:
                done(result)
            return result
        entry = clock()
        done = None if after is None else (lambda value: after(args, value))
        if before is not None:
            before(args)
        txn = txn_of(args) if txn_of is not None else None
        call = tracer.push(name, layer, txn)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.settle(entry, tracer.pop())
            raise
        covered = tracer.pop()
        if result.__class__ is GeneratorType:
            result = tracer.resumes(result, name, layer, call, txn, done)
        elif done is not None:
            done(result)
        tracer.settle(entry, covered)
        return result

    return wrapper


def _txn_id(txn: Any) -> Any:
    return getattr(txn, "tid", None)


@contextlib.contextmanager
def install(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every layer's entry points on ``tracer`` inside the block."""
    from repro import effects
    from repro.bench.simcluster import CorePool, SimFabric, SimulatedTell
    from repro.bench.ycsb_sim import SimulatedYcsb
    from repro.core.commit_manager import CommitManager
    from repro.core.processing_node import ProcessingNode
    from repro.core.transaction import Transaction
    from repro.dispatch import Dispatcher, kind_of
    from repro.index.btree import DistributedBTree
    from repro.sim.kernel import Simulator
    from repro.sql import parser, session
    from repro.sql.session import Session
    from repro.sql.table import Table
    from repro.store import cell
    from repro.store.cluster import StorageCluster
    from repro.workloads.tpcc import transactions
    from repro.workloads.tpcc.mixes import TpccMix
    from repro.workloads.tpcc.params import ParamGenerator
    from repro.workloads.ycsb import YcsbClient

    saved: List[Tuple[Any, str, Any]] = []
    counters = tracer.counters

    def patch(owner: Any, attr: str, replacement: Any) -> None:
        if isinstance(owner, dict):  # the TPC-C transaction table
            saved.append((owner, attr, owner[attr]))
            owner[attr] = replacement
        else:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)

    def method(cls: type, attr: str, name: str, **hooks: Any) -> None:
        patch(cls, attr, _wrap(tracer, name, cls.__dict__[attr], **hooks))

    def registering(cls: type, register: Callable[[Any, tuple], None]) -> None:
        original = cls.__dict__["__init__"]

        def init(obj: Any, *args: Any, **kwargs: Any) -> None:
            original(obj, *args, **kwargs)
            register(obj, args)

        patch(cls, "__init__", init)

    try:
        # -- sim and fabric ------------------------------------------------------
        method(Simulator, "run", "sim.run")
        # The process body of every simulated terminal: the driver loop
        # that hands each request to the fabric.  It has no public
        # equivalent; unwrapped, its time would count as kernel time.
        method(SimulatedTell, "_drive", "fabric.drive")
        method(SimFabric, "perform", "fabric.perform")
        method(SimFabric, "prepare_single", "fabric.prepare_single")
        method(SimFabric, "prepare_cm", "fabric.prepare_cm")

        def new_pool(pool: Any, args: tuple) -> None:
            tracer.pools[id(pool)] = [pool, args[0], 0, 0.0, 0.0]

        registering(CorePool, new_pool)

        def reserved(args: tuple, result: Tuple[float, float]) -> None:
            entry = tracer.pools.get(id(args[0]))
            if entry is not None:
                start, end = result
                entry[2] += 1
                entry[3] += start - args[1]
                entry[4] += end - start

        method(CorePool, "reserve", "fabric.reserve", after=reserved)

        # -- store ---------------------------------------------------------------
        conditional = (effects.PutIfVersion, effects.DeleteIfVersion)

        def applied(args: tuple, result: Any) -> None:
            if args[1].__class__ in conditional:
                counters["store.conditional"] += 1
                if not result[0][0]:
                    counters["store.conditional_failed"] += 1

        method(StorageCluster, "apply", "store.apply", after=applied)
        method(StorageCluster, "replicate", "store.replicate")
        method(StorageCluster, "execute", "store.execute")
        method(StorageCluster, "execute_scan", "store.execute_scan")

        original_size = cell.approx_size

        def counted_size(value: Any) -> int:
            if tracer.mode != OFF:
                counters["store.size_calls"] += 1
            return original_size(value)

        # approx_size is imported by name into several modules; every
        # binding must count, its own recursive calls included.
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, "approx_size", None) is original_size):
                patch(module, "approx_size", counted_size)

        # -- index ---------------------------------------------------------------
        registering(DistributedBTree, lambda tree, _args: tracer.trees.append(tree))
        for attr in ("lookup", "lookup_many", "range_entries", "insert"):
            method(DistributedBTree, attr, f"index.{attr}")

        # -- core ----------------------------------------------------------------
        def txn_self(args: tuple) -> Any:
            return _txn_id(args[0])

        def committed(_args: tuple, _value: Any) -> None:
            counters["core.commits_returned"] += 1

        method(ProcessingNode, "begin", "core.begin")
        method(Transaction, "read_many", "core.read_many", txn_of=txn_self)
        method(Transaction, "commit", "core.commit", txn_of=txn_self,
               after=committed)
        method(Transaction, "abort", "core.abort", txn_of=txn_self)
        method(CommitManager, "start", "core.cm.start")

        # -- sql -----------------------------------------------------------------
        def table_txn(args: tuple) -> Any:
            return _txn_id(args[0].txn)

        def rows_examined(_args: tuple, value: Any) -> None:
            if value is None or tracer.top_layer() == "sql.table":
                return  # nested table calls were counted by their caller
            if isinstance(value, dict):  # get_many: {pk: match or None}
                count = sum(1 for match in value.values() if match is not None)
            elif isinstance(value, list):
                count = len(value)
            else:
                count = 1
            counters["sql.rows_examined"] += count

        def local_walk(args: tuple) -> None:
            txn = args[0].txn
            if txn is not None:
                counters["sql.local_rows_walked"] += len(txn.local_writes())
                counters["sql.local_rows_calls"] += 1

        for attr in ("get", "get_many", "lookup", "insert", "update_by_rid",
                     "scan", "index_range"):
            hooks: Dict[str, Any] = {"txn_of": table_txn}
            if attr not in ("insert", "update_by_rid"):
                hooks["after"] = rows_examined
            if attr in ("lookup", "scan"):
                hooks["before"] = local_walk
            method(Table, attr, f"sql.table.{attr}", **hooks)

        def returned(_args: tuple, result: Any) -> None:
            counters["sql.statements"] += 1
            counters["sql.rows_returned"] += max(len(result.rows),
                                                 result.rowcount)

        method(Session, "execute", "sql.execute", after=returned)
        traced_parse = _wrap(tracer, "sql.parse", parser.parse)
        patch(parser, "parse", traced_parse)
        patch(session, "parse", traced_parse)

        # -- dispatch ------------------------------------------------------------
        def dispatched(args: tuple) -> None:
            counters[f"dispatch.kind.{kind_of(args[1])}"] += 1

        method(Dispatcher, "execute", "dispatch.execute", before=dispatched)

        # -- workloads -----------------------------------------------------------
        table = transactions.TRANSACTIONS
        for txn_name in list(table):
            patch(table, txn_name, _wrap(
                tracer, f"workloads.tpcc.{txn_name}", table[txn_name],
                txn_of=lambda args: _txn_id(args[0].txn),
            ))
            if txn_name in ParamGenerator.__dict__:
                method(ParamGenerator, txn_name, "workloads.tpcc.params")
        # The per-transaction glue of the simulated terminals: begin, the
        # client code, commit.  Unwrapped, its own time would count as
        # the fabric's, whose driver loop resumes it.
        method(SimulatedTell, "_transaction_script", "workloads.tpcc.script")
        method(SimulatedYcsb, "_ycsb_script", "workloads.ycsb.script")
        method(TpccMix, "pick", "workloads.tpcc.pick")
        method(YcsbClient, "execute", "workloads.ycsb.execute",
               txn_of=lambda args: _txn_id(args[1]))
        method(YcsbClient, "next_operation", "workloads.ycsb.next_operation")
        yield tracer
    finally:
        tracer.mode = OFF
        for owner, attr, original in reversed(saved):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
