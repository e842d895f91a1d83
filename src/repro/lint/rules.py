"""The repro-lint rule catalog.

Every rule is a :class:`Rule` subclass with a stable code (``RL001``..),
a one-line title, and an ``explain`` docstring shown by
``repro-lint --explain RL00N``.  Rules receive the parsed module plus the
cross-module :class:`~repro.lint.index.ProjectIndex` and emit
:class:`~repro.lint.engine.Finding` objects.

The catalog is documented for humans in ``docs/static-analysis.md``; keep
the two in sync when adding rules.
"""

from __future__ import annotations

import ast
from typing import (FrozenSet, Iterator, List, NamedTuple, Optional, Sequence,
                    Tuple)

from repro.lint.index import ModuleSummary, ProjectIndex

# Packages whose code runs on *simulated* time.  Wall-clock reads here
# bypass the event kernel and (worse) vary run to run, breaking the
# determinism contract of repro/sim/kernel.py.  repro.bench is excluded:
# measuring real elapsed time is its job.
SIMULATED_TIME_PACKAGES: Tuple[str, ...] = (
    "repro.sim",
    "repro.core",
    "repro.store",
    "repro.index",
    "repro.net",
    "repro.baselines",
)

WALL_CLOCK_ATTRS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns", "sleep",
    "perf_counter", "perf_counter_ns", "process_time", "process_time_ns",
})

MUTABLE_DEFAULT_CALLS = frozenset({
    "list", "dict", "set", "bytearray",
    "defaultdict", "deque", "Counter", "OrderedDict",
})


def in_packages(module: str, prefixes: Sequence[str]) -> bool:
    return any(module == p or module.startswith(p + ".") for p in prefixes)


class Rule:
    """Base class: subclasses set ``code``/``title``/``explain`` and
    implement :meth:`check`."""

    code = "RL000"
    title = "internal"
    explain = ""

    def check(self, module: ModuleSummary, tree: ast.Module,
              index: ProjectIndex) -> Iterator[Tuple[ast.AST, str]]:
        """Yield ``(node, message)`` pairs; the engine adds location."""
        raise NotImplementedError
        yield  # pragma: no cover


class _FunctionContext:
    __slots__ = ("node", "is_generator", "class_name")

    def __init__(self, node: ast.AST, is_generator: bool,
                 class_name: Optional[str]) -> None:
        self.node = node
        self.is_generator = is_generator
        self.class_name = class_name


def _walk_functions(tree: ast.Module) -> Iterator[_FunctionContext]:
    """Every function/method in the module with its enclosing class."""
    from repro.lint.index import function_is_generator

    def visit(node: ast.AST, class_name: Optional[str]) -> Iterator[_FunctionContext]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield _FunctionContext(
                    child, function_is_generator(child), class_name
                )
                yield from visit(child, class_name)
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, child.name)
            else:
                yield from visit(child, class_name)

    return visit(tree, None)


def _effect_call_name(node: ast.expr, module: ModuleSummary,
                      index: ProjectIndex) -> Optional[str]:
    """If ``node`` is a call constructing an effect (or calling an effect
    factory like ``multi_get``), return the effect's display name."""
    if not isinstance(node, ast.Call):
        return None
    symbol = module.resolve_callable(node.func)
    if index.is_effect_symbol(symbol):
        return symbol[1]
    return None


def _resolve_generator_call(node: ast.expr, module: ModuleSummary,
                            index: ProjectIndex,
                            class_name: Optional[str]) -> Optional[str]:
    """If ``node`` calls a *resolvable* generator coroutine, return its
    display name.  Resolvable means: a local/imported module-level
    generator function, ``self.method`` / ``cls.method`` of the enclosing
    class, or ``LocalClass.method``.  Arbitrary receivers stay unresolved
    (no speculative findings)."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Name):
        symbol = module.resolve_name(func.id)
        if index.is_generator_symbol(symbol):
            return func.id
        return None
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        receiver = func.value.id
        if receiver in ("self", "cls") and class_name is not None:
            if func.attr in index.generator_methods_of(module, class_name):
                return f"{receiver}.{func.attr}"
            return None
        cls = module.classes.get(receiver)
        if cls is not None:
            if func.attr in index.generator_methods_of(module, receiver):
                return f"{receiver}.{func.attr}"
            return None
        symbol = module.resolve_callable(func)
        if index.is_generator_symbol(symbol):
            return f"{receiver}.{func.attr}"
    return None


class RL001DroppedEffect(Rule):
    code = "RL001"
    title = "effect constructed but never yielded"
    explain = """\
Protocol code communicates with its driver exclusively by *yielding*
repro.effects.Request objects: `ok, _ = yield effects.PutIfVersion(...)`.
An effect that is constructed but never yielded is silently dropped -- the
driver never executes it.  The classic instance is a deleted `yield` in
front of a store-conditional write, which skips the LL/SC write-write
conflict check that snapshot isolation depends on and corrupts the run
without any error.

RL001 fires when an effect construction (or a call to an effect factory
such as `multi_get` / `delay_of`) appears as

  * a bare expression statement:   `effects.PutIfVersion(space, k, v, ver)`
  * a tuple-unpacking assignment:  `ok, _ = effects.PutIfVersion(...)`
    (unpacking the request object itself -- a deleted `yield`)
  * the operand of `yield from`:   `yield from effects.Get(space, k)`
    (requests are not iterable; use a plain `yield`)

Building an effect and *binding or passing* it is fine -- that is how
batches are assembled:  `puts.append(effects.PutIfVersion(...))`.

Fix: reinstate the `yield` (or pass the effect into the batch that yields
it).  If the construction is intentional, add
`# repro-lint: ignore[RL001]` with a justification.
"""

    def check(self, module: ModuleSummary, tree: ast.Module,
              index: ProjectIndex) -> Iterator[Tuple[ast.AST, str]]:
        for stmt in ast.walk(tree):
            if isinstance(stmt, ast.Expr):
                name = _effect_call_name(stmt.value, module, index)
                if name is not None:
                    yield stmt, (
                        f"effect {name!r} is constructed but never yielded; "
                        f"a dropped `yield` skips the request entirely"
                    )
            elif isinstance(stmt, ast.Assign):
                if any(isinstance(t, (ast.Tuple, ast.List))
                       for t in stmt.targets):
                    name = _effect_call_name(stmt.value, module, index)
                    if name is not None:
                        yield stmt, (
                            f"unpacking effect {name!r} directly -- this "
                            f"looks like a deleted `yield` before the "
                            f"request"
                        )
            elif isinstance(stmt, ast.YieldFrom):
                name = _effect_call_name(stmt.value, module, index)
                if name is not None:
                    yield stmt, (
                        f"`yield from` on effect {name!r}; requests are "
                        f"not iterable -- use a plain `yield`"
                    )


class RL002GeneratorNotDelegated(Rule):
    code = "RL002"
    title = "generator coroutine called without `yield from`"
    explain = """\
Every protocol operation in this repository (Transaction.read,
BTree.insert, TxLog.append, ...) is a generator coroutine.  Calling one
like a plain function only *creates* the generator -- none of its code
runs.  This is the repo's equivalent of an un-awaited coroutine.

RL002 fires when a call to a resolvable generator coroutine appears as

  * a bare expression statement:    `self.abort()`     (nothing runs)
  * `yield` instead of `yield from`: `yield self.read(key)`  (yields the
    generator object to the driver as if it were an effect)
  * `return` inside another generator: `return self.read(key)` (returns
    the raw generator as the coroutine's StopIteration value)

"Resolvable" means the callee is a module-level generator function
(local or imported), `self.<method>` / `cls.<method>` of the enclosing
class, or `LocalClass.<method>`.  Calls through arbitrary receivers are
not flagged -- repro-lint prefers silence over speculation.

Passing a freshly created generator *into* something that drives it
(`sim.spawn(worker())`, `run_direct(txn(), router)`) is fine: the call is
an argument, not a dropped statement.

Fix: delegate with `yield from`, or drive the generator explicitly.
"""

    def check(self, module: ModuleSummary, tree: ast.Module,
              index: ProjectIndex) -> Iterator[Tuple[ast.AST, str]]:
        for ctx in _walk_functions(tree):
            cls = ctx.class_name
            for child in ast.iter_child_nodes(ctx.node):
                yield from self._check_body(child, module, index, ctx, cls)

    def _check_body(self, node: ast.AST, module: ModuleSummary,
                    index: ProjectIndex, ctx: _FunctionContext,
                    cls: Optional[str]) -> Iterator[Tuple[ast.AST, str]]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            return  # nested defs get their own _FunctionContext
        if isinstance(node, ast.Expr) and not isinstance(
                node.value, (ast.Yield, ast.YieldFrom)):
            name = _resolve_generator_call(node.value, module, index, cls)
            if name is not None:
                yield node, (
                    f"generator coroutine {name}(...) called as a plain "
                    f"statement; none of its code runs -- use `yield from`"
                )
        elif isinstance(node, ast.Yield):
            inner = node.value
            name = _resolve_generator_call(inner, module, index, cls) \
                if inner is not None else None
            if name is not None:
                yield node, (
                    f"`yield {name}(...)` hands the raw generator to the "
                    f"driver -- use `yield from {name}(...)`"
                )
        elif isinstance(node, ast.Return) and ctx.is_generator:
            name = _resolve_generator_call(node.value, module, index, cls) \
                if node.value is not None else None
            if name is not None:
                yield node, (
                    f"returning un-driven generator {name}(...) from a "
                    f"generator coroutine -- use `return (yield from "
                    f"{name}(...))`"
                )
        for child in ast.iter_child_nodes(node):
            yield from self._check_body(child, module, index, ctx, cls)


class RL003WallClock(Rule):
    code = "RL003"
    title = "wall-clock time in simulated-time code"
    explain = """\
Code under repro.sim / core / store / index / net / baselines runs on
*simulated* time: the event kernel's clock, advanced deterministically by
the scheduler.  Reading the wall clock there (time.time, time.monotonic,
time.perf_counter, time.sleep, ...) has two failure modes: the value has
nothing to do with simulated time, and -- worse -- it differs between
runs, so the "fixed seed reproduces the exact same run" contract of
repro/sim/kernel.py is broken in a way the digest-invariance harness can
only detect after the fact.

Use `sim.now` / `SimClock.now` (or take a clock as a dependency) instead.
repro.bench is exempt: measuring real elapsed time is its job.

RL003 fires on any use of a wall-clock attribute of the `time` module and
on `from time import ...` of those names, inside the simulated-time
packages.
"""

    def check(self, module: ModuleSummary, tree: ast.Module,
              index: ProjectIndex) -> Iterator[Tuple[ast.AST, str]]:
        if not in_packages(module.module, SIMULATED_TIME_PACKAGES):
            return
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                if (node.attr in WALL_CLOCK_ATTRS
                        and isinstance(node.value, ast.Name)
                        and module.resolve_qualifier(node.value.id) == "time"):
                    yield node, (
                        f"wall-clock `time.{node.attr}` in simulated-time "
                        f"module {module.module}; use the simulator clock"
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "time" and not node.level:
                    for alias in node.names:
                        if alias.name in WALL_CLOCK_ATTRS:
                            yield node, (
                                f"importing wall-clock `time.{alias.name}` "
                                f"in simulated-time module {module.module}"
                            )


class RL004GlobalRandom(Rule):
    code = "RL004"
    title = "module-level random or unseeded Random()"
    explain = """\
Library code must draw randomness only from an explicitly seeded
`random.Random(seed)` instance that is threaded through from the caller.
The module-level functions (`random.random()`, `random.choice()`, ...)
share one process-global, unseeded generator: any call sneaks
nondeterminism past the simulation's determinism digest, and state leaks
between otherwise independent runs.  An argument-less `random.Random()`
seeds from the OS and is just as bad.

RL004 fires on any use of a module-level `random.<fn>` (everything except
the `Random` / `SystemRandom` classes) and on `random.Random()` calls
without a seed argument.

Fix: accept an `rng: random.Random` (or a seed) as a parameter, the way
repro.workloads and repro.bench.simcluster already do.
"""

    _CLASS_NAMES = frozenset({"Random", "SystemRandom"})

    def check(self, module: ModuleSummary, tree: ast.Module,
              index: ProjectIndex) -> Iterator[Tuple[ast.AST, str]]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            # random.<fn>(...) through the imported module
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and module.resolve_qualifier(func.value.id) == "random"):
                if func.attr not in self._CLASS_NAMES:
                    yield node, (
                        f"module-level `random.{func.attr}` uses the "
                        f"shared unseeded generator; thread a seeded "
                        f"random.Random through instead"
                    )
                elif func.attr == "Random" and not node.args:
                    yield node, (
                        "`random.Random()` without a seed is "
                        "nondeterministic; pass an explicit seed"
                    )
            # from random import Random; Random(...)
            elif isinstance(func, ast.Name):
                symbol = module.resolve_name(func.id)
                if symbol == ("random", "Random") and not node.args:
                    yield node, (
                        "`Random()` without a seed is nondeterministic; "
                        "pass an explicit seed"
                    )


class RL005SetIteration(Rule):
    code = "RL005"
    title = "iteration over a set"
    explain = """\
Set iteration order in CPython depends on insertion history and hash
randomization of the element types.  In this codebase, iteration order
routinely feeds the scheduler (which request is issued first), result
assembly, and the determinism digest -- so looping over a set literal,
set comprehension, or `set(...)` / `frozenset(...)` call is a latent
nondeterminism bug even when it happens to pass today.

RL005 fires when the iterable of a `for` statement or a comprehension is
a set display, a set comprehension, or a direct `set(...)` /
`frozenset(...)` call.

Fix: iterate a list/tuple, or wrap the set in `sorted(...)` to pin an
order.  Membership *tests* against sets are of course fine.
"""

    @staticmethod
    def _is_set_expr(node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("set", "frozenset")):
            return True
        return False

    def check(self, module: ModuleSummary, tree: ast.Module,
              index: ProjectIndex) -> Iterator[Tuple[ast.AST, str]]:
        for node in ast.walk(tree):
            iters: List[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if self._is_set_expr(it):
                    yield it, (
                        "iterating a set: order is nondeterministic and "
                        "feeds scheduling/digests -- use sorted(...) or a "
                        "list"
                    )


class RL006MissingSlots(Rule):
    code = "RL006"
    title = "Request/Delay/Event subclass without __slots__"
    explain = """\
Effect classes (repro.effects.Request subclasses) and the kernel's
Delay/Event are allocated on the hottest paths in the repository -- one
or more per simulated request.  PR 1 established the contract
(docs/performance.md) that every class in these hierarchies declares
`__slots__`: a single slotless subclass re-introduces a per-instance
`__dict__`, roughly doubling allocation cost and memory for every
instance *of that subclass*, and silently weakens the exact-class
dispatch assumptions in Process._step.

RL006 fires on any class that resolves (transitively, across the linted
files) to a subclass of Request, Delay, or Event and whose body does not
assign `__slots__`.  Subclasses that add no attributes still need
`__slots__ = ()`.
"""

    def check(self, module: ModuleSummary, tree: ast.Module,
              index: ProjectIndex) -> Iterator[Tuple[ast.AST, str]]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            cls = module.classes.get(node.name)
            if cls is None or cls.has_slots:
                continue
            if (module.module, node.name) in index.effect_classes:
                base = "repro.effects.Request"
            elif (module.module, node.name) in index.kernel_classes:
                base = "Delay/Event"
            else:
                continue
            yield node, (
                f"class {node.name!r} subclasses {base} but does not "
                f"declare __slots__ (hot-path contract, "
                f"docs/performance.md); add `__slots__ = (...)`"
            )


class RL007MutableDefault(Rule):
    code = "RL007"
    title = "mutable default argument"
    explain = """\
Default argument values are evaluated once, at function definition time,
and shared across every call.  A mutable default (`def f(x, acc=[])`)
therefore accumulates state between calls -- in this codebase that means
state leaking between transactions, simulations, or test runs, which the
determinism digest will eventually surface as an unexplained divergence.

RL007 fires when a parameter default is a list/dict/set display or
comprehension, or a direct call to list/dict/set/bytearray/defaultdict/
deque/Counter/OrderedDict.

Fix: default to None and create the container inside the function.
"""

    @classmethod
    def _is_mutable(cls, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None
            )
            return name in MUTABLE_DEFAULT_CALLS
        return False

    def check(self, module: ModuleSummary, tree: ast.Module,
              index: ProjectIndex) -> Iterator[Tuple[ast.AST, str]]:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield default, (
                        "mutable default argument is shared across calls; "
                        "default to None and build the container inside"
                    )


class RL008BypassedDispatch(Rule):
    code = "RL008"
    title = "dispatcher bypassed from protocol code"
    explain = """\
PR 3 unified request routing into the repro.dispatch pipeline: every
request a protocol coroutine needs served must be *yielded* as an effect
so it flows through the interceptor chain (tracing, fault injection,
retry policy).  Calling the backing components directly from protocol
code -- `cluster.execute(...)`, `commit_manager.start(...)` /
`.set_committed(...)` / `.set_aborted(...)` -- resurrects the pre-PR-3
ad-hoc ladders: the call is invisible to every interceptor, takes no
simulated time, and bypasses fault injection, so recovery scenarios
silently stop covering it.

RL008 fires inside the protocol packages (repro.core, repro.index,
repro.sql, repro.workloads) on any call whose receiver name (or final
attribute) is `cluster` with method `execute` / `execute_scan`, or
`commit_manager` / `manager` with method `start` / `set_committed` /
`set_aborted`.

Drivers (repro.dispatch, repro.bench, repro.api) are exempt: serving
these calls is their job.  Legitimate direct uses -- e.g. the commit
manager's own tid-counter refill -- carry
`# repro-lint: ignore[RL008]` with a justification.
"""

    #: Packages holding protocol coroutines that must yield effects.
    PROTOCOL_PACKAGES: Tuple[str, ...] = (
        "repro.core",
        "repro.index",
        "repro.sql",
        "repro.workloads",
    )

    _CLUSTER_METHODS = frozenset({"execute", "execute_scan"})
    _CM_METHODS = frozenset({"start", "set_committed", "set_aborted"})
    _CLUSTER_NAMES = frozenset({"cluster", "storage_cluster"})
    _CM_NAMES = frozenset({"commit_manager", "manager"})

    @staticmethod
    def _receiver_name(node: ast.expr) -> Optional[str]:
        """Final name of the receiver chain: `a.b.cluster` -> 'cluster'."""
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        return None

    def check(self, module: ModuleSummary, tree: ast.Module,
              index: ProjectIndex) -> Iterator[Tuple[ast.AST, str]]:
        if not in_packages(module.module, self.PROTOCOL_PACKAGES):
            return
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            receiver = self._receiver_name(func.value)
            if receiver is None:
                continue
            if (receiver in self._CLUSTER_NAMES
                    and func.attr in self._CLUSTER_METHODS):
                yield node, (
                    f"direct `{receiver}.{func.attr}(...)` from protocol "
                    f"module {module.module} bypasses the dispatch "
                    f"pipeline; yield the request as an effect instead"
                )
            elif (receiver in self._CM_NAMES
                    and func.attr in self._CM_METHODS):
                yield node, (
                    f"direct `{receiver}.{func.attr}(...)` from protocol "
                    f"module {module.module} bypasses the dispatch "
                    f"pipeline; yield the commit-manager effect instead"
                )


class RL009SanitizerMutation(Rule):
    code = "RL009"
    title = "sanitizer mutates protocol state"
    explain = """\
The sanitizers under repro.san are strictly *observational*: they watch
the request stream, maintain their own shadow history, and must never
change the run they are checking.  A sanitizer that mutates a protocol
object -- assigning an attribute on a record/snapshot/transaction,
or calling a mutating method on the store, commit manager, or a
transaction -- silently perturbs the very interleaving under test and
turns the checker into a heisenbug generator.  (It can also mask the bug
being hunted: "fixing" a version chain before the axiom check runs.)

RL009 fires inside the observer modules of repro.san (everything except
the drivers: scenarios, explorer, __main__, which own their deployments)
on:

  * attribute assignment whose receiver chain ends in a protocol-object
    name (`record`, `snapshot`, `txn`, `cluster`, `manager`, ...) and is
    not rooted at `self`/`cls` -- includes `recv.attr[k] = v` stores;
  * method calls on those receivers outside the read-only accessor
    allow-list (`version_numbers`, `latest_visible`, `payload_of`,
    `as_pair`, `contains`, `as_dict`, `active_transactions`,
    `completed_view`, ...).

Sanitizer-owned mutable state must therefore avoid protocol receiver
names: shadow cells are `sc`, transaction views are `view`, the history
is `shadow`.  Genuinely read-only uses that trip the name heuristic can
carry `# repro-lint: ignore[RL009]` with a justification.
"""

    #: Modules where the observational contract is enforced.
    OBSERVER_PACKAGE = "repro.san"
    #: Driver modules inside the package: they *own* deployments and may
    #: mutate protocol state freely (that is their job).
    DRIVER_MODULES: Tuple[str, ...] = (
        "repro.san.scenarios",
        "repro.san.explorer",
        "repro.san.__main__",
    )

    #: Receiver names that (by repo-wide convention) bind protocol
    #: objects.  Final-attribute matching, same scheme as RL008.
    _PROTOCOL_RECEIVERS = frozenset({
        "record", "version", "cell", "snapshot", "descriptor",
        "txn", "transaction", "start",
        "cluster", "storage_cluster", "node", "storage_node", "store",
        "manager", "commit_manager", "pn", "processing_node",
        "btree", "tree", "index",
        "request", "op", "ctx", "env",
    })

    #: Methods a sanitizer may call on protocol receivers: read-only
    #: accessors (several added expressly for the sanitizers).
    _READ_ONLY_METHODS = frozenset({
        # records / versions
        "version_numbers", "latest_visible", "payload_of", "get",
        "collectable_versions", "fully_deleted", "approx_size",
        # snapshots
        "as_pair", "contains", "issubset",
        # commit manager / gc
        "active_transactions", "completed_view", "as_dict",
        "local_lav", "lowest_active_version", "highest_known_tid",
        "active_tids_of",
        # misc read-only
        "keys", "values", "items", "copy",
    })

    @staticmethod
    def _root_name(node: ast.expr) -> Optional[str]:
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        if isinstance(node, ast.Name):
            return node.id
        return None

    def _flagged_receiver(self, node: ast.expr) -> Optional[str]:
        """Receiver's final name if it matches a protocol object bound
        outside the sanitizer itself (chains rooted at self/cls are the
        sanitizer's own state)."""
        receiver = RL008BypassedDispatch._receiver_name(node)
        if receiver is None or receiver not in self._PROTOCOL_RECEIVERS:
            return None
        if self._root_name(node) in ("self", "cls"):
            return None
        return receiver

    def check(self, module: ModuleSummary, tree: ast.Module,
              index: ProjectIndex) -> Iterator[Tuple[ast.AST, str]]:
        name = module.module
        if not in_packages(name, (self.OBSERVER_PACKAGE,)):
            return
        if name in self.DRIVER_MODULES:
            return
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    while isinstance(target, ast.Subscript):
                        target = target.value
                    if not isinstance(target, ast.Attribute):
                        continue
                    receiver = self._flagged_receiver(target.value)
                    if receiver is not None:
                        yield node, (
                            f"sanitizer module {name} assigns state on "
                            f"protocol object `{receiver}`; sanitizers "
                            f"are read-only observers"
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                if not isinstance(func, ast.Attribute):
                    continue
                if func.attr in self._READ_ONLY_METHODS:
                    continue
                receiver = self._flagged_receiver(func.value)
                if receiver is not None:
                    yield node, (
                        f"sanitizer module {name} calls "
                        f"`{receiver}.{func.attr}(...)`, which is not on "
                        f"the read-only accessor allow-list; sanitizers "
                        f"must not drive or mutate protocol objects"
                    )


class RL010SanitizerObservability(Rule):
    code = "RL010"
    title = "sanitizer touches observability instrumentation"
    explain = """\
The repro.obs metrics/tracing layer and the repro.san sanitizers are
both observers, but they must stay independent: the sanitizers verify
protocol axioms over a shadow history, and the observability layer
harvests live component state.  Shadow code that imports repro.obs, or
records into a registry/tracer/span it was handed, couples the two --
metric values would then depend on whether a sanitizer is attached
(breaking obs snapshot determinism), and a tracing bug could perturb a
sanitized run.  Instrumentation belongs in the protocol and driver
layers; sanitizers report through their own finding channels.

RL010 fires inside the observer modules of repro.san (the same set
RL009 polices -- everything except the drivers scenarios, explorer,
__main__) on:

  * `import repro.obs` / `from repro.obs import ...` (any submodule);
  * calls whose receiver chain ends in an observability object name
    (`obs`, `tracer`, `registry`, `span`).
"""

    OBSERVER_PACKAGE = RL009SanitizerMutation.OBSERVER_PACKAGE
    DRIVER_MODULES = RL009SanitizerMutation.DRIVER_MODULES

    _OBS_RECEIVERS = frozenset({"obs", "tracer", "registry", "span"})

    def check(self, module: ModuleSummary, tree: ast.Module,
              index: ProjectIndex) -> Iterator[Tuple[ast.AST, str]]:
        name = module.module
        if not in_packages(name, (self.OBSERVER_PACKAGE,)):
            return
        if name in self.DRIVER_MODULES:
            return
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "repro.obs" or \
                            alias.name.startswith("repro.obs."):
                        yield node, (
                            f"sanitizer module {name} imports "
                            f"`{alias.name}`; shadow code must not use "
                            f"observability instrumentation"
                        )
            elif isinstance(node, ast.ImportFrom):
                source = node.module or ""
                if source == "repro.obs" or source.startswith("repro.obs."):
                    yield node, (
                        f"sanitizer module {name} imports from "
                        f"`{source}`; shadow code must not use "
                        f"observability instrumentation"
                    )
            elif isinstance(node, ast.Call):
                func = node.func
                if not isinstance(func, ast.Attribute):
                    continue
                receiver = RL008BypassedDispatch._receiver_name(func.value)
                if receiver in self._OBS_RECEIVERS:
                    yield node, (
                        f"sanitizer module {name} calls "
                        f"`{receiver}.{func.attr}(...)`; shadow code must "
                        f"not record metrics or spans"
                    )


class RL011UninternedDelay(Rule):
    code = "RL011"
    title = "per-yield Delay() with a constant/recurring duration"
    explain = """\
`yield Delay(x)` allocates a fresh Delay object on every suspension.  For
a duration that never changes -- a literal constant, or a loop-invariant
variable re-yielded on every iteration -- that is one garbage object per
event on the simulator's hottest path.  `repro.sim.kernel.delay_of`
interns Delay instances by duration (Delays are immutable, so sharing one
across yields, processes, and simulators is safe), and a loop can equally
hoist a single instance out of the loop body.

RL011 fires inside the hot-path packages (repro.sim / core / store /
index / net / baselines / bench / workloads) on:

* `yield Delay(<numeric literal>)` anywhere, and
* `yield Delay(<name>)` directly inside a for/while loop when `<name>`
  is never rebound in the loop body (the duration is the same object
  every iteration, so the Delay should be too).

A computed duration (`yield Delay(end - now)`) is exempt: the value
genuinely varies, so an allocation-free yield needs a driver-private
mutable Delay, which is a deliberate, documented pattern rather than a
lint-enforced one.

Fix: `yield delay_of(duration)` for recurring durations, or build the
Delay once before the loop (`pause = delay_of(step)` ... `yield pause`).
"""

    _HOT_PATH_PACKAGES = SIMULATED_TIME_PACKAGES + (
        "repro.bench", "repro.workloads",
    )
    _DELAY_SYMBOLS = frozenset({
        ("repro.sim.kernel", "Delay"),
        ("repro.sim", "Delay"),
    })

    def _is_delay_call(self, node: ast.expr,
                       module: ModuleSummary) -> bool:
        if not (isinstance(node, ast.Call)
                and len(node.args) == 1 and not node.keywords):
            return False
        symbol = module.resolve_callable(node.func)
        return symbol in self._DELAY_SYMBOLS

    @staticmethod
    def _names_bound_in(loop: ast.AST) -> frozenset:
        bound = set()
        for node in ast.walk(loop):
            targets = ()
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = (node.target,)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                targets = (node.target,)
            elif isinstance(node, ast.NamedExpr):
                targets = (node.target,)
            elif isinstance(node, ast.withitem):
                if node.optional_vars is not None:
                    targets = (node.optional_vars,)
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        bound.add(leaf.id)
        return frozenset(bound)

    def check(self, module: ModuleSummary, tree: ast.Module,
              index: ProjectIndex) -> Iterator[Tuple[ast.AST, str]]:
        if not in_packages(module.module, self._HOT_PATH_PACKAGES):
            return

        def visit(node: ast.AST,
                  loops: Tuple[ast.AST, ...]
                  ) -> Iterator[Tuple[ast.AST, str]]:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.Lambda)):
                    # A nested function's yields do not repeat per
                    # enclosing-loop iteration; restart the loop stack.
                    yield from visit(child, ())
                elif isinstance(child, (ast.For, ast.AsyncFor, ast.While)):
                    yield from visit(child, loops + (child,))
                else:
                    yield from visit(child, loops)
            if (isinstance(node, ast.Yield) and node.value is not None
                    and self._is_delay_call(node.value, module)):
                arg = node.value.args[0]
                if (isinstance(arg, ast.Constant)
                        and isinstance(arg.value, (int, float))
                        and not isinstance(arg.value, bool)):
                    yield node.value, (
                        f"`yield Delay({arg.value!r})` allocates per "
                        f"yield for a constant duration; use "
                        f"`delay_of({arg.value!r})`"
                    )
                elif loops and isinstance(arg, ast.Name):
                    if arg.id not in self._names_bound_in(loops[-1]):
                        yield node.value, (
                            f"`yield Delay({arg.id})` inside a loop "
                            f"re-allocates a Delay for the same duration "
                            f"every iteration; use `delay_of({arg.id})` "
                            f"or hoist one instance out of the loop"
                        )

        yield from visit(tree, ())


class _Fence(NamedTuple):
    """One row of the ownership fence: ``attrs`` belong to ``owner``."""

    attrs: FrozenSet[str]
    owner: str
    #: True: only mutations are fenced (reads are the public surface);
    #: False: any access (load, store, delete) is.
    mutation_only: bool
    state: str
    surface: str


class RL012OwnershipFence(Rule):
    code = "RL012"
    title = "package-owned state touched outside its owning package"
    explain = """\
Some state belongs to one package, and only that package may touch it;
everything else goes through the owner's surface.  RL012 is one table
of such fences, one row each:

* The isolation strategy layer (repro.core.isolation) owns all read-set
  and commit-validation state: the per-transaction read-key capture
  (`txn._read_keys`, installed by `IsolationProtocol.attach`) and the
  validator's window (`_commit_window`, `_validation_horizon`).  That
  ownership is what makes protocols pluggable -- SI never allocates
  the state, and WSI/SSI can change its representation freely.  Code
  elsewhere that touches it breaks under SI (the attribute does not
  exist), desynchronizes the validator window, and defeats the
  strategy seam.  Any access (load, store, or delete) is fenced; go
  through `txn.tracks_reads` / `protocol.note_reads(...)` / the
  yielded `effects.ValidateCommit` request instead.
* The versioned topology (repro.elastic) owns all ownership state: the
  epoch counter (`epoch`), its audit trail (`epoch_log`), and the
  in-flight handoff registry (`_handoffs`).  Every mutation goes
  through `begin_handoff` / `finish_handoff` / `abort_handoff` /
  `fail_over`, each a single atomic epoch step -- the invariant that
  lets in-flight requests detect a stale route with one `WrongOwner`
  check and lets migrations abort cleanly.  Only *mutation* is fenced
  -- assignment, augmented assignment, deletion, or a mutating method
  call (`append`, `pop`, `clear`, ...); reading is fine (the obs
  collectors and benches do).

The rule fires in `repro.*` modules outside the owning package.  Tests
and tools are out of scope (their module names are not under `repro.`).
A new package fence is a new row of `FENCES`.
"""

    FENCES = (
        _Fence(
            frozenset({"_read_keys", "_commit_window", "_validation_horizon"}),
            "repro.core.isolation", False, "isolation-protocol state",
            "the protocol surface (tracks_reads / note_reads / "
            "ValidateCommit)",
        ),
        _Fence(
            frozenset({"epoch", "epoch_log", "_handoffs"}),
            "repro.elastic", True, "topology state",
            "the Topology surface (begin/finish/abort_handoff, fail_over)",
        ),
    )

    _MUTATORS = frozenset({
        "append", "extend", "insert", "remove", "pop", "popitem", "clear",
        "update", "setdefault",
    })

    def _touched(self, node: ast.AST, fence: _Fence) -> Optional[str]:
        """How ``node`` touches ``fence``'s state, or None if it does not."""
        if isinstance(node, ast.Attribute) and node.attr in fence.attrs:
            if (not fence.mutation_only
                    or isinstance(node.ctx, (ast.Store, ast.Del))):
                return node.attr
        elif (fence.mutation_only
                and isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._MUTATORS
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr in fence.attrs):
            return f"{node.func.value.attr}.{node.func.attr}(...)"
        return None

    def check(self, module: ModuleSummary, tree: ast.Module,
              index: ProjectIndex) -> Iterator[Tuple[ast.AST, str]]:
        name = module.module
        if not in_packages(name, ("repro",)):
            return
        fences = [fence for fence in self.FENCES
                  if not in_packages(name, (fence.owner,))]
        if not fences:
            return
        for node in ast.walk(tree):
            for fence in fences:
                touched = self._touched(node, fence)
                if touched is not None:
                    verb = "mutates" if fence.mutation_only else "touches"
                    yield node, (
                        f"module {name} {verb} {fence.state} `{touched}` "
                        f"directly; only {fence.owner} may -- go through "
                        f"{fence.surface}"
                    )


ALL_RULES: List[Rule] = [
    RL001DroppedEffect(),
    RL002GeneratorNotDelegated(),
    RL003WallClock(),
    RL004GlobalRandom(),
    RL005SetIteration(),
    RL006MissingSlots(),
    RL007MutableDefault(),
    RL008BypassedDispatch(),
    RL009SanitizerMutation(),
    RL010SanitizerObservability(),
    RL011UninternedDelay(),
    RL012OwnershipFence(),
]

RULES_BY_CODE = {rule.code: rule for rule in ALL_RULES}
