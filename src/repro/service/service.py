"""Concurrent snapshot-isolated query serving over a :class:`QuerySession`.

The rest of the stack is deliberately single-threaded: a
:class:`~repro.query.session.QuerySession` owns mutable LRU caches, a mutable
head index, and maintained views, all under an external-synchronisation
contract.  This module packages the standard arrangement that turns those
primitives into a server — **one writer, many concurrent readers over a
versioned store**:

* a single background **writer thread** owns the session.  Every mutation —
  ``add_facts`` / ``remove_facts`` — is enqueued, applied by the writer
  through :meth:`QuerySession.apply_batch`, and acknowledged through a
  per-call :class:`~concurrent.futures.Future` carrying the exact count the
  direct call would have returned;
* after each batch the writer **publishes an epoch**: an immutable object
  pairing the session revision with a detached
  :class:`~repro.engine.index.RelationSnapshot` and a frozen copy of the
  answer cache (see :meth:`QuerySession.epoch`).  Publication is one
  attribute store — an atomic reference swap — so readers never wait for the
  writer and the writer never waits for readers;
* any number of **reader threads** call :meth:`DatalogService.answers`
  concurrently on the last published epoch without ever waiting on the
  writer or on each other's evaluations: a published or epoch-local cached
  answer is a dictionary probe; a miss evaluates the query's compiled plan
  against the epoch's snapshot in a private overlay fork.  (The only locks
  a read touches are one brief counter update and, first-use-per-pattern,
  the snapshot's cold-table build lock — never around evaluation.)  Reads
  are snapshot-isolated — a reader observes exactly the fact base of *some*
  published revision, never a half-applied batch — and the revision a
  reader observes is monotone over its lifetime;
* a **write-coalescing queue** with admission control sits in front of the
  writer: ops enqueued while a batch is being applied ride the next batch
  together (one ``apply_batch``, one epoch publish, per-call counts intact),
  an optional linger window (``coalesce_window``) lets bursts amortise into
  a single publish, and a bounded queue either blocks or rejects
  (``backpressure``) once writers outrun the drain.

Cache flow: a reader miss is memoised on its epoch (so within one epoch a
hot query is computed once) and recorded as a *warm hint*; before the next
publish the writer replays warm hints through the session, whose maintained
views then repair those answers in place under future mutations — so a hot
query's answers keep arriving pre-computed in every subsequent epoch without
ever being recomputed from scratch.

Beyond polling, clients can **subscribe**: :meth:`DatalogService.subscribe`
registers a standing query and streams ordered per-epoch answer deltas
(:class:`~repro.service.subscriptions.Notification`) into a bounded
per-subscriber queue, derived from the maintained views' exact
``ViewDelta``\\ s at publish time — see :mod:`repro.service.subscriptions`
and ``docs/subscriptions.md``.

See ``docs/serving.md`` for the epoch-publication diagram and the knob
reference, and ``benchmarks/bench_service_throughput.py`` for the measured
reader-scaling and write-amortisation claims.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.atoms import Atom
from ..core.database import Database
from ..core.queries import ConjunctiveQuery
from ..core.terms import Term
from ..engine.intern import global_symbols
from ..engine.stats import EngineStatistics
from ..obs.metrics import MetricsRegistry, MetricsSnapshot, global_registry
from ..obs.trace import get_tracer
from ..errors import (
    DurabilityError,
    ServiceClosedError,
    ServiceOverloadedError,
    StratificationError,
    UnsupportedClassError,
)
from ..query.session import (
    QueryPlan,
    QuerySession,
    SessionEpoch,
    _as_rule_set,
    _query_shape,
    compile_query_plan,
)
from .durability import DurabilityConfig, DurabilityManager
from .subscriptions import Subscription, SubscriptionRegistry

__all__ = ["DatalogService", "Epoch", "ServiceStatistics"]

#: Bound on per-epoch memoised reader misses: a long-lived epoch (e.g. a
#: read-only service that never publishes again) must not grow without
#: limit.  Past the cap, misses are still answered — just not memoised.
_EPOCH_MEMO_CAP = 4096


@dataclass
class ServiceStatistics:
    """Counters of one :class:`DatalogService`.

    ``epochs_published`` counts atomic epoch swaps (including the initial
    one); ``batches_applied`` the writer drain cycles, ``batches_coalesced``
    the drains that carried more than one enqueued op, and ``coalesced_ops``
    the ops beyond the first in such drains — i.e. the epoch publishes (and
    repair passes) the coalescing queue saved.  ``queue_high_water`` is the
    largest pending-queue length observed at enqueue time.  ``reads_served``
    counts every answered read; ``read_cache_hits`` the ones served from a
    published or epoch-memoised answer set without evaluating anything, and
    ``reads_fallback`` the ones answered by cautious stable-model reasoning
    because the rules (or the query) are outside the rewritable fragment.
    ``engine`` accumulates the per-evaluation engine counters of reader-side
    misses (merged under the statistics lock); writer-side work lands on the
    session's own statistics.  Cold pattern-table builds on a published
    snapshot do **not** land here — a plain dataclass field cannot be
    updated race-free from both reader and writer threads — but they are no
    longer lost: each published snapshot's build hook feeds the service's
    thread-safe ``service_snapshot_index_builds`` registry counter (see
    :meth:`DatalogService.stats`).
    """

    epochs_published: int = 0
    reads_served: int = 0
    read_cache_hits: int = 0
    reads_fallback: int = 0
    writes_enqueued: int = 0
    batches_applied: int = 0
    batches_coalesced: int = 0
    coalesced_ops: int = 0
    queue_high_water: int = 0
    backpressure_rejections: int = 0
    #: lifetime subscription registrations, notifications enqueued across
    #: all subscribers, and gap markers enqueued (exported flattened as
    #: ``service_subscriptions_registered`` / ``service_notifications_sent``
    #: / ``service_subscription_gaps``; the *live* subscriber count is the
    #: ``service_subscriptions_active`` gauge).
    subscriptions_registered: int = 0
    notifications_sent: int = 0
    subscription_gaps: int = 0
    #: replication fan-out: net fact deltas handed to attached sinks and
    #: sink failures swallowed (a broken sink must never take down the
    #: writer); exported flattened as ``service_replication_records`` /
    #: ``service_replication_errors``.
    replication_records: int = 0
    replication_errors: int = 0
    engine: EngineStatistics = field(default_factory=EngineStatistics)


class Epoch:
    """One published revision: an immutable fact-base + answer-cache view.

    Readers obtain the current epoch with :meth:`DatalogService.epoch` (or
    implicitly through :meth:`DatalogService.answers`) and may keep using it
    for as long as they like — it never changes, no matter how far the
    service's head moves on.  ``answers`` evaluates against this epoch's
    pinned snapshot; repeated misses of the same query within one epoch are
    memoised on the epoch (a benign-racy dictionary: two threads may both
    compute the same frozen answer set once).
    """

    __slots__ = (
        "revision",
        "snapshot",
        "_published",
        "_memo",
        "_infix_safety",
        "_service",
    )

    def __init__(self, service: "DatalogService", exported: SessionEpoch) -> None:
        self.revision: int = exported.revision
        self.snapshot = exported.snapshot
        # Cold pattern-table builds on the published snapshot happen on
        # reader threads under the snapshot's own lock; recording them on
        # the writer session's counters (racy) or the service's engine
        # counters (guarded by a *different* lock — lost updates) would
        # both be wrong.  They are routed to the service's thread-safe
        # registry counter instead: the hook runs under this snapshot's
        # build lock, but two epochs' locks are unrelated, and Counter.inc
        # locks internally.  Per-evaluation reader counters are still
        # merged under the service's statistics lock.
        self.snapshot._stats = None
        self.snapshot._obs_build_hook = service._record_cold_build
        self._published = exported.answers
        self._memo: Dict[ConjunctiveQuery, frozenset] = {}
        self._infix_safety: Dict[str, bool] = {}
        self._service = service

    def facts(self) -> frozenset[Atom]:
        """The exact fact base of this revision."""
        return self.snapshot.atoms()

    def cached(self, query: ConjunctiveQuery) -> Optional[frozenset]:
        """The answer set if already known on this epoch, else ``None``."""
        result = self._published.get(query)
        if result is None:
            result = self._memo.get(query)
        return result

    def answers(self, query: ConjunctiveQuery) -> frozenset[Tuple[Term, ...]]:
        """The certain answers of *query* at this revision."""
        return self._service._read(self, query)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Epoch(revision={self.revision}, facts={len(self.snapshot)}, "
            f"cached={len(self._published)}+{len(self._memo)})"
        )


class _PendingOp:
    """One enqueued op awaiting the writer: kind, atoms, payload, ack future.

    Mutations (``add`` / ``remove``) carry atoms; control ops ride the same
    queue with empty atoms — ``checkpoint`` (no payload), ``subscribe``
    (payload: the keyword dict for the registry, future resolves to the
    :class:`Subscription`) and ``unsubscribe`` (payload: the subscription
    whose session-side pin the writer releases).
    """

    __slots__ = ("kind", "atoms", "payload", "future")

    def __init__(
        self, kind: str, atoms: Tuple[Atom, ...], payload=None
    ) -> None:
        self.kind = kind
        self.atoms = atoms
        self.payload = payload
        self.future: Future = Future()


class DatalogService:
    """A thread-safe serving facade: one writer session, epoch readers.

    Parameters
    ----------
    database / rules:
        Forwarded to the owned :class:`~repro.query.session.QuerySession`.
    max_pending:
        Admission-control bound on the write queue (number of enqueued,
        not-yet-applied ops).
    backpressure:
        What a full queue does to ``add_facts``/``remove_facts``:
        ``"block"`` (default) waits for space — bounded by
        *enqueue_timeout* seconds if given, then raising
        :class:`~repro.errors.ServiceOverloadedError` — while ``"reject"``
        raises immediately.
    enqueue_timeout:
        Optional bound, in seconds, on how long a blocked enqueue waits.
    coalesce_window:
        Optional linger, in seconds, between the writer waking up and
        draining the queue; bursts submitted within the window ride one
        batch — one ``apply_batch``, one epoch — instead of one publish
        each.  ``0`` (default) drains immediately.
    warm_cache:
        Replay reader cache-misses through the session before each publish
        (default).  Warmed answers are maintained incrementally by the
        session's views and arrive pre-computed in every later epoch.
    fallback / maintenance / max_atoms / session options:
        Forwarded to the session (see :class:`QuerySession`).
    metrics:
        The :class:`~repro.obs.metrics.MetricsRegistry` the service (and
        its inner session) reports into: flattened ``service_*`` counters,
        the read-latency histogram, the snapshot cold-build counter, and
        the queue-depth / epoch-lag / pending-futures gauges.  Defaults to
        :func:`repro.obs.global_registry`; pass a private registry for
        isolation.  :meth:`stats` snapshots it.
    durability:
        ``None`` (default) keeps the PR 5 behaviour — everything in memory,
        nothing survives the process.  A path (or a
        :class:`~repro.service.durability.DurabilityConfig`) makes the
        service durable: every coalesced batch is appended to a
        write-ahead fact log and fsynced *before* it is applied or its
        futures acknowledged, checkpoints snapshot the facts plus the
        session's warm state every ``checkpoint_every`` batches (and on
        close), and constructing a service over an existing store recovers
        it — latest valid checkpoint, warm-state restore, then idempotent
        log-tail replay — before serving the first read.
        :meth:`DatalogService.open` is the ergonomic spelling.  An
        acknowledged write is never lost by a crash and never applied
        twice by recovery; see ``docs/durability.md``.

    The service starts its writer thread on construction and must be closed
    (``close()`` or ``with DatalogService(...) as service:``) to release it.
    After ``close()`` reads keep working on the last epoch; mutations raise
    :class:`~repro.errors.ServiceClosedError`.
    """

    def __init__(
        self,
        database: Database | Iterable[Atom] = (),
        rules=(),
        *,
        max_pending: int = 1024,
        backpressure: str = "block",
        enqueue_timeout: Optional[float] = None,
        coalesce_window: float = 0.0,
        warm_cache: bool = True,
        plan_cache_size: int = 64,
        fallback: bool = True,
        maintenance: bool = True,
        max_atoms: Optional[int] = None,
        stable_options: Optional[dict] = None,
        metrics: Optional[MetricsRegistry] = None,
        durability: "Optional[DurabilityConfig | str]" = None,
    ) -> None:
        if backpressure not in ("block", "reject"):
            raise ValueError(
                f"backpressure must be 'block' or 'reject', got {backpressure!r}"
            )
        # The registry is resolved before the durability layer so recovery
        # counters (torn tails, replayed batches) land on it too.
        self._metrics = metrics if metrics is not None else global_registry()
        initial: Iterable[Atom] = (
            database.atoms if isinstance(database, Database) else tuple(database)
        )
        self._durability: Optional[DurabilityManager] = None
        #: id the next logged batch gets; ids are contiguous per store
        #: lifetime and make log replay idempotent across restarts.
        self._next_batch_id = 1
        recovered = None
        config = DurabilityConfig.of(durability)
        if config is not None:
            self._durability = DurabilityManager(config, metrics=self._metrics)
            recovered = self._durability.recover()
            if not recovered.fresh and initial:
                self._durability.close()
                raise DurabilityError(
                    "cannot seed an existing durable store with an initial "
                    "database; open it without facts and mutate instead"
                )
            if not recovered.fresh:
                initial = recovered.facts
        self._session = QuerySession(
            initial,
            rules,
            fallback=fallback,
            maintenance=maintenance,
            max_atoms=max_atoms,
            stable_options=stable_options,
            plan_cache_size=plan_cache_size,
            metrics=self._metrics,
        )
        if recovered is not None and not recovered.fresh:
            if (
                recovered.warm is not None
                and recovered.digest == self._session.digest
            ):
                # Same rules as the checkpointing process: the maintained
                # views and cached answers pick up where they left off.  A
                # digest mismatch (rules changed across restarts) keeps the
                # facts and silently drops the warmth — the views would be
                # materialisations of the *old* program.
                self._session.restore_warm_state(recovered.warm)
            # Continue the previous incarnation's revision line so the
            # revisions readers observe stay monotone across a restart.
            self._session._revision = recovered.revision
            for logged_id, ops in recovered.tail:
                # O(tail) repair, not O(rebuild): each logged batch goes
                # through apply_batch, whose maintained views absorb it as
                # an incremental delta over the checkpointed support tables.
                self._session.apply_batch(ops)
                self._next_batch_id = logged_id + 1
            if not recovered.tail:
                self._next_batch_id = recovered.batch_id + 1
        if recovered is not None and recovered.fresh:
            # A brand-new store immediately checkpoints the initial database:
            # the log only ever carries *mutations*, so the base facts must
            # be durable before the first batch is acknowledged.
            self._durability.checkpoint(
                batch_id=0,
                revision=self._session.revision,
                digest=self._session.digest,
                facts=self._session.facts,
                warm=None,
            )
        self._fallback = fallback
        self._stable_options = dict(stable_options or {})
        self._max_atoms = max_atoms
        self._max_pending = max(1, max_pending)
        self._backpressure = backpressure
        self._enqueue_timeout = enqueue_timeout
        self._coalesce_window = coalesce_window
        self._warm_cache = warm_cache
        self.statistics = ServiceStatistics()
        self._subscriptions = SubscriptionRegistry(
            self, self._session, self.statistics
        )
        #: replication sinks, writer-thread only: each is called once per
        #: epoch publish with ``(revision, added_facts, removed_facts)``.
        #: Attach/detach ride the write queue as control ops, so the list
        #: (and the session's fact capture flag) is never touched
        #: concurrently with a drain.
        self._replication_sinks: List[Callable] = []

        # ---- observability plumbing (see repro.obs and docs/observability.md)
        # Flattened ``service_*`` counters; weakly referenced, so the
        # registry never extends the service's lifetime.
        self._metrics.register_stats(self.statistics, "service")
        self._read_latency = self._metrics.histogram(
            "service_read_latency_seconds",
            help="End-to-end DatalogService read latency (hits and misses).",
        )
        # Cold pattern-table builds performed by reader threads on published
        # snapshots; thread-safe, unlike the dataclass counters above.
        self._snapshot_builds = self._metrics.counter(
            "service_snapshot_index_builds",
            help="Cold pattern-table builds on published (detached) snapshots.",
        )
        # Publish instants are tracked on the monotonic clock: the lag gauge
        # must survive NTP steps and slews, which walk time.time() backwards
        # or sideways.  The wall timestamp exists only for the absolute
        # "published at" reading in stats()/debugging — nothing is ever
        # derived from it.
        self._published_monotonic = time.monotonic()
        self._published_at = time.time()
        self._inflight = 0
        self._queue_depth_gauge = self._metrics.gauge(
            "service_queue_depth",
            help="Enqueued, not-yet-draining write ops.",
        )
        self._epoch_lag_gauge = self._metrics.gauge(
            "service_epoch_lag_seconds",
            help=(
                "Seconds since the last epoch publish (monotonic clock, "
                "clamped at 0 — immune to wall-clock steps)."
            ),
        )
        self._pending_futures_gauge = self._metrics.gauge(
            "service_pending_futures",
            help="Unacknowledged write futures (queued + in-flight batch).",
        )
        self._subscriptions_gauge = self._metrics.gauge(
            "service_subscriptions_active",
            help="Live (not unsubscribed, not closed) subscriptions.",
        )
        # What grows with the data: the interned terms and the decode cache
        # of canonical atoms, both held by the process-wide symbol table.
        symbols = global_symbols()
        self._gauge_callbacks = [
            (
                self._metrics.gauge(
                    "engine_symbols_interned",
                    help="Ground terms interned by the process-wide symbol table.",
                ),
                symbols.__len__,
            ),
            (
                self._metrics.gauge(
                    "engine_atom_cache_entries",
                    help="Canonical atoms held by the symbol table's decode cache.",
                ),
                symbols.cached_atoms,
            ),
            (
                self._subscriptions_gauge,
                lambda: self._subscriptions.active_count(),
            ),
            (self._queue_depth_gauge, lambda: len(self._pending)),
            (
                self._epoch_lag_gauge,
                lambda: max(
                    0.0, time.monotonic() - self._published_monotonic
                ),
            ),
            (
                self._pending_futures_gauge,
                lambda: len(self._pending) + self._inflight,
            ),
        ]
        for gauge, callback in self._gauge_callbacks:
            gauge.add_callback(callback)

        # Reader-side compiled-plan cache: query shape -> plan (or the scope
        # error that made compilation impossible).  Plans are immutable, the
        # dict is only ever extended; reads are lock-free dict probes and
        # compilation is serialised by _plan_lock.
        self._plan_cache_size = max(1, plan_cache_size)
        self._plans: Dict[tuple, QueryPlan] = {}
        self._plan_failures: Dict[tuple, Exception] = {}
        self._plan_lock = threading.Lock()

        self._stats_lock = threading.Lock()
        #: reader cache-misses to replay through the session pre-publish
        self._hot: "OrderedDict[ConjunctiveQuery, None]" = OrderedDict()
        self._hot_cap = 128

        self._queue_lock = threading.Lock()
        self._not_empty = threading.Condition(self._queue_lock)
        self._not_full = threading.Condition(self._queue_lock)
        self._pending: List[_PendingOp] = []
        self._closed = False

        self._epoch: Epoch = Epoch(self, self._session.epoch())
        self.statistics.epochs_published = 1
        self._writer = threading.Thread(
            target=self._writer_loop, name="repro-datalog-writer", daemon=True
        )
        self._writer.start()

    # ----------------------------------------------------------------- reads
    def epoch(self) -> Epoch:
        """The last published epoch (atomic reference read, never blocks)."""
        return self._epoch

    def answers(self, query: ConjunctiveQuery) -> frozenset[Tuple[Term, ...]]:
        """The certain answers of *query* on the last published epoch.

        Safe to call from any number of threads; never blocks on the writer.
        """
        return self._read(self._epoch, query)

    def read(
        self, query: ConjunctiveQuery
    ) -> Tuple[int, frozenset[Tuple[Term, ...]]]:
        """Like :meth:`answers`, but also reports the revision served."""
        epoch = self._epoch
        return epoch.revision, self._read(epoch, query)

    def holds(self, query: ConjunctiveQuery) -> bool:
        """Boolean entailment on the last published epoch."""
        return bool(self.answers(query))

    @property
    def facts(self) -> frozenset[Atom]:
        """The fact base of the last published epoch."""
        return self._epoch.facts()

    @property
    def revision(self) -> int:
        """The revision of the last published epoch."""
        return self._epoch.revision

    def _record_cold_build(self) -> None:
        """Build hook of published snapshots (thread-safe by Counter.inc)."""
        self._snapshot_builds.inc()

    def _read(
        self, epoch: Epoch, query: ConjunctiveQuery
    ) -> frozenset[Tuple[Term, ...]]:
        # No lock is ever held around evaluation; counters are batched into
        # exactly one brief statistics-lock acquisition per read.
        t0 = time.perf_counter()
        tracer = get_tracer()
        tracing = tracer.enabled
        cached = epoch.cached(query)
        if cached is not None:
            with self._stats_lock:
                self.statistics.reads_served += 1
                self.statistics.read_cache_hits += 1
            self._read_latency.observe(time.perf_counter() - t0)
            if tracing:
                tracer.start(
                    "service.read", cache="hit", revision=epoch.revision
                ).finish(answers=len(cached))
            return cached
        span = (
            tracer.start(
                "service.read", cache="miss", revision=epoch.revision
            )
            if tracing
            else None
        )
        local = EngineStatistics()
        try:
            result, fell_back = self._evaluate(epoch, query, local)
        except BaseException as error:
            self._read_latency.observe(time.perf_counter() - t0)
            if span is not None:
                span.finish(error=type(error).__name__)
            raise
        if len(epoch._memo) < _EPOCH_MEMO_CAP:
            epoch._memo[query] = result
        with self._stats_lock:
            self.statistics.reads_served += 1
            if fell_back:
                self.statistics.reads_fallback += 1
            self.statistics.engine.merge(local)
            # Warm only what the maintenance machinery can keep repaired:
            # a fallback (out-of-fragment) answer has no plan or view, so
            # replaying it would put a from-scratch stable-model evaluation
            # on the serialised write path at every publish.
            if (
                self._warm_cache
                and not fell_back
                and len(self._hot) < self._hot_cap
            ):
                self._hot[query] = None
        self._read_latency.observe(time.perf_counter() - t0)
        if span is not None:
            span.finish(answers=len(result), fallback=fell_back)
        return result

    def _evaluate(
        self,
        epoch: Epoch,
        query: ConjunctiveQuery,
        local: EngineStatistics,
    ) -> Tuple[frozenset[Tuple[Term, ...]], bool]:
        """Evaluate on the epoch; returns (answers, used-the-fallback)."""
        plan, error = self._plan_for(query)
        if plan is None:
            assert error is not None
            if not self._fallback:
                raise error
            return self._fallback_answers(epoch, query), True
        if self._overlay_safe(epoch, plan):
            result = plan.execute_on(
                epoch.snapshot,
                query,
                max_atoms=self._max_atoms,
                statistics=local,
            )
        else:
            # A base predicate name embeds the plan's generated namespace
            # infix; stream through the filtering evaluation path instead.
            result = plan.execute_for(
                epoch.snapshot,
                query,
                max_atoms=self._max_atoms,
                statistics=local,
            )
        return result, False

    def _plan_for(
        self, query: ConjunctiveQuery
    ) -> Tuple[Optional[QueryPlan], Optional[Exception]]:
        """The memoised reader-side plan for the query's shape (or the
        memoised compilation failure)."""
        try:
            key = _query_shape(query)
        except UnsupportedClassError as error:
            # Query terms outside the Datalog fragment (nulls, function
            # terms): not memoisable by shape, fall back per query.
            return None, error
        plan = self._plans.get(key)
        if plan is not None:
            return plan, None
        failure = self._plan_failures.get(key)
        if failure is not None:
            return None, failure
        with self._plan_lock:
            plan = self._plans.get(key)
            if plan is not None:
                return plan, None
            failure = self._plan_failures.get(key)
            if failure is not None:
                return None, failure
            try:
                plan = compile_query_plan(self._session.rules, query)
            except (UnsupportedClassError, StratificationError) as error:
                if len(self._plan_failures) >= self._plan_cache_size:
                    self._plan_failures.clear()
                self._plan_failures[key] = error
                return None, error
            if len(self._plans) >= self._plan_cache_size:
                # Wholesale reset: plan compilation is cheap relative to the
                # evaluations a plan amortises, and a bounded dict with no
                # LRU bookkeeping keeps the read path lock-free.
                self._plans.clear()
            self._plans[key] = plan
            return plan, None

    def _overlay_safe(self, epoch: Epoch, plan: QueryPlan) -> bool:
        infix = plan.program.infix
        safe = epoch._infix_safety.get(infix)
        if safe is None:
            safe = not any(
                infix in predicate.name
                for predicate in epoch.snapshot.predicates()
            )
            epoch._infix_safety[infix] = safe
        return safe

    def _fallback_answers(
        self, epoch: Epoch, query: ConjunctiveQuery
    ) -> frozenset:
        # Deferred import: repro.stable sits above the query subsystem.
        from ..stable import cautious_answers

        return cautious_answers(
            Database.of(epoch.facts()),
            _as_rule_set(self._session.rules),
            query,
            goal_directed=False,
            **self._stable_options,
        )

    # ---------------------------------------------------------------- writes
    def add_facts(self, atoms: Iterable[Atom]) -> "Future[int]":
        """Enqueue an insertion; the future resolves to the exact count of
        atoms that were actually new when the writer applied it."""
        return self._enqueue("add", atoms)

    def remove_facts(self, atoms: Iterable[Atom]) -> "Future[int]":
        """Enqueue a removal; the future resolves to the exact count of
        atoms that were actually present when the writer applied it."""
        return self._enqueue("remove", atoms)

    def checkpoint(self, timeout: Optional[float] = None) -> int:
        """Force a durable checkpoint now; returns its sequence number.

        Rides the write queue like any mutation, so every batch enqueued
        before this call is inside the snapshot it writes.  Requires the
        service to have been constructed with ``durability=``.
        """
        if self._durability is None:
            raise ValueError(
                "checkpoint() requires a durable service; pass durability= "
                "or use DatalogService.open(path)"
            )
        return self._enqueue("checkpoint", ()).result(timeout)

    def flush(self, timeout: Optional[float] = None) -> None:
        """Block until everything enqueued so far is applied and published.

        Implemented as a no-op barrier op riding the queue, so when it
        resolves, every earlier mutation's epoch is visible to new reads.
        """
        self._enqueue("add", ()).result(timeout)

    def subscribe(
        self,
        query: ConjunctiveQuery,
        *,
        mode: str = "iterator",
        callback: Optional[Callable] = None,
        max_queue: int = 256,
        on_overflow: str = "block",
        timeout: Optional[float] = None,
    ) -> Subscription:
        """Register a standing query; returns a live :class:`Subscription`.

        The registration rides the write queue as a control op, so the
        subscription's ``snapshot_answers`` are the answers at some published
        revision and every later relevant epoch delivers exactly one
        :class:`~repro.service.subscriptions.Notification` (or
        :class:`~repro.service.subscriptions.Gap`) — derived from the
        maintained view's exact ``ViewDelta``, never by re-evaluation.

        Parameters
        ----------
        mode:
            ``"iterator"`` (default): consume by iterating the subscription
            or calling ``get()``.  ``"callback"``: a dedicated pump thread
            invokes *callback* once per stream item, in order.
        max_queue:
            Bound on queued, unconsumed items (≥ 1).
        on_overflow:
            What a full queue does to a delivery: ``"block"`` (default)
            stalls the writer — backpressure reaches mutators, mirroring the
            write queue's own ``block`` policy — while
            ``"drop_and_mark_gap"`` coalesces the backlog into a single
            :class:`Gap` carrying a full-resync answer set.
        timeout:
            Bound, in seconds, on waiting for the writer's acknowledgement.

        Raises the plan's scope error for out-of-fragment queries,
        :class:`~repro.errors.SubscriptionError` when exact deltas are
        impossible (``maintenance=False``, budget, namespace collision), and
        :class:`~repro.errors.ServiceClosedError` after ``close()``.
        """
        if mode not in ("iterator", "callback"):
            raise ValueError(
                f"mode must be 'iterator' or 'callback', got {mode!r}"
            )
        if (callback is not None) != (mode == "callback"):
            raise ValueError(
                "pass callback= exactly when mode='callback'"
            )
        if on_overflow not in ("block", "drop_and_mark_gap"):
            raise ValueError(
                "on_overflow must be 'block' or 'drop_and_mark_gap', "
                f"got {on_overflow!r}"
            )
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        payload = dict(
            query=query,
            mode=mode,
            callback=callback,
            max_queue=max_queue,
            on_overflow=on_overflow,
        )
        return self._enqueue("subscribe", (), payload=payload).result(timeout)

    @property
    def subscriptions_active(self) -> int:
        """Live (not unsubscribed, not closed) subscription count."""
        return self._subscriptions.active_count()

    def attach_replication(
        self, sink: Callable, timeout: Optional[float] = None
    ) -> int:
        """Attach a replication *sink*; returns the attach-point revision.

        The sink is called on the **writer thread**, once per epoch publish
        carrying a net base-fact change, as ``sink(revision, added,
        removed)`` — exactly the delta that takes revision ``n-1``'s fact
        base to revision ``n``'s.  The attachment rides the write queue as a
        control op, so deltas start at the first batch applied after the
        returned revision: bootstrapping replicas from any epoch at or after
        it composes exactly.  Sinks must not block (see
        :class:`~repro.service.net.replication.ReplicationPublisher` for the
        backlog-and-sender-threads arrangement); a sink that raises is
        counted in ``service_replication_errors`` and skipped for that
        record, never allowed to take down the writer.
        """
        return self._enqueue("replicate", (), payload=sink).result(timeout)

    def detach_replication(
        self, sink: Callable, timeout: Optional[float] = None
    ) -> None:
        """Detach a previously attached replication sink (idempotent).

        Safe on a closed service: the writer is gone, so the sink can no
        longer be called and the detachment is a no-op.
        """
        try:
            self._enqueue(
                "unreplicate", (), payload=sink, force=True
            ).result(timeout)
        except ServiceClosedError:
            pass

    @property
    def published_at(self) -> float:
        """Wall-clock timestamp of the last epoch publish.

        Informational only (an absolute "published at" for dashboards); the
        ``service_epoch_lag_seconds`` gauge is derived from the monotonic
        clock, never from this value.
        """
        return self._published_at

    def _enqueue(
        self,
        kind: str,
        atoms: Iterable[Atom],
        payload=None,
        force: bool = False,
    ) -> Future:
        op = _PendingOp(kind, tuple(atoms), payload)
        deadline = (
            time.monotonic() + self._enqueue_timeout
            if self._enqueue_timeout is not None
            else None
        )
        with self._queue_lock:
            if self._closed:
                raise ServiceClosedError("service is closed")
            while not force and len(self._pending) >= self._max_pending:
                if self._backpressure == "reject":
                    with self._stats_lock:
                        self.statistics.backpressure_rejections += 1
                    raise ServiceOverloadedError(
                        f"write queue full ({self._max_pending} pending ops)"
                    )
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        with self._stats_lock:
                            self.statistics.backpressure_rejections += 1
                        raise ServiceOverloadedError(
                            "timed out waiting for write-queue space"
                        )
                self._not_full.wait(remaining)
                if self._closed:
                    raise ServiceClosedError("service is closed")
            self._pending.append(op)
            depth = len(self._pending)
            self._not_empty.notify()
        with self._stats_lock:
            self.statistics.writes_enqueued += 1
            if depth > self.statistics.queue_high_water:
                self.statistics.queue_high_water = depth
        return op.future

    # ---------------------------------------------------------------- writer
    def _writer_loop(self) -> None:
        while True:
            with self._queue_lock:
                while not self._pending and not self._closed:
                    self._not_empty.wait()
                if not self._pending and self._closed:
                    break
            if self._coalesce_window > 0:
                # Linger: let a burst accumulate so it rides one batch (and
                # pays for one epoch publish) instead of one publish per op.
                time.sleep(self._coalesce_window)
            with self._queue_lock:
                batch = self._pending
                self._pending = []
                self._not_full.notify_all()
            try:
                self._apply(batch)
            except BaseException as error:  # pragma: no cover - last-ditch
                # The writer thread must survive anything: a dead writer
                # would hang every future (and, once the queue fills, every
                # "block"-mode caller) forever.  Fail whatever futures the
                # broken drain left unresolved instead of stranding them.
                for op in batch:
                    if not op.future.done():
                        try:
                            op.future.set_exception(error)
                        except Exception:
                            pass
                continue
        # Drained and closing: one final checkpoint makes the next open warm
        # (and empties the log), without a single acknowledged batch at risk
        # — everything the log holds is already inside the snapshot.
        if (
            self._durability is not None
            and self._durability.config.checkpoint_on_close
        ):
            self._checkpoint_now()

    def _apply(self, batch: List[_PendingOp]) -> None:
        # Transition every future to RUNNING; a future the caller already
        # cancelled is dropped here — its op is never applied, and a later
        # set_result on it can no longer raise InvalidStateError.
        batch = [
            op for op in batch if op.future.set_running_or_notify_cancel()
        ]
        if not batch:
            return
        self._inflight = len(batch)
        tracer = get_tracer()
        span = (
            tracer.start("service.drain", ops=len(batch))
            if tracer.enabled
            else None
        )
        try:
            mutations = [op for op in batch if op.kind in ("add", "remove")]
            controls = [op for op in batch if op.kind == "checkpoint"]
            # Subscriptions register *before* the drain's mutations are
            # applied: the registration snapshot is at the pre-batch
            # revision, and this very batch produces the subscriber's first
            # notification — no revision is skipped and none arrives twice.
            for op in batch:
                if op.kind != "subscribe":
                    continue
                try:
                    subscription = self._subscriptions.register(**op.payload)
                except BaseException as error:
                    op.future.set_exception(error)
                else:
                    op.future.set_result(subscription)
            # Replication sinks attach *before* the drain's mutations are
            # applied: a sink that bootstraps its replicas from the current
            # epoch (pre-batch revision) then receives this very batch's
            # delta as its first record — nothing is skipped or doubled.
            for op in batch:
                if op.kind == "replicate":
                    self._replication_sinks.append(op.payload)
                    self._session.set_fact_capture(True)
                    op.future.set_result(self._session.revision)
                elif op.kind == "unreplicate":
                    try:
                        self._replication_sinks.remove(op.payload)
                    except ValueError:
                        pass
                    if not self._replication_sinks:
                        self._session.set_fact_capture(False)
                    op.future.set_result(None)
            if self._durability is not None and any(
                op.atoms for op in mutations
            ):
                # Write-ahead: the batch is durable (fsynced, one sync per
                # drain) before anything is applied or acknowledged, so an
                # acknowledged write survives any crash after this point.
                batch_id = self._next_batch_id
                try:
                    self._durability.log_batch(
                        batch_id,
                        [(op.kind, op.atoms) for op in mutations],
                    )
                except BaseException as error:
                    # Nothing was applied; fail every future in the drain
                    # (controls included) rather than acknowledging writes
                    # the log could not hold.
                    for op in batch:
                        if not op.future.done():
                            op.future.set_exception(error)
                    return
                self._next_batch_id = batch_id + 1
            if mutations:
                self._apply_inner(mutations)
            for op in batch:
                if op.kind != "unsubscribe":
                    continue
                try:
                    self._subscriptions.release(op.payload)
                except BaseException as error:
                    op.future.set_exception(error)
                else:
                    op.future.set_result(None)
            if self._durability is not None and (
                controls or self._durability.should_checkpoint()
            ):
                # A control-only drain still drains the reader-hot set
                # first, so an explicit ``checkpoint()`` call captures the
                # warmth a restart will want.
                if not mutations and self._warm():
                    self._publish()
                self._checkpoint_now(controls)
        finally:
            self._inflight = 0
            if span is not None:
                span.finish(revision=self._session.revision)

    def _checkpoint_now(self, controls: Sequence[_PendingOp] = ()) -> None:
        """Write a checkpoint, resolving any waiting ``checkpoint()`` calls.

        Failures resolve the waiters exceptionally but never escape: a
        cadence-triggered checkpoint that cannot be written (disk full)
        must not kill the writer thread — the log keeps growing and the
        checkpoint is retried at the next cadence hit.
        """
        assert self._durability is not None
        try:
            try:
                warm = self._session.export_warm_state()
            except Exception:  # pragma: no cover - warmth is best-effort
                warm = None
            sequence = self._durability.checkpoint(
                batch_id=self._next_batch_id - 1,
                revision=self._session.revision,
                digest=self._session.digest,
                facts=self._session.facts,
                warm=warm,
            )
        except BaseException as error:
            for op in controls:
                if not op.future.done():
                    op.future.set_exception(error)
            return
        for op in controls:
            if not op.future.done():
                op.future.set_result(sequence)

    def _apply_inner(self, batch: List[_PendingOp]) -> None:
        revision_before = self._session.revision
        counts: Optional[List[int]] = None
        error: Optional[BaseException] = None
        try:
            counts = self._session.apply_batch(
                [(op.kind, op.atoms) for op in batch]
            )
        except BaseException as exc:  # pragma: no cover - defensive
            error = exc
        # Drained exactly once per batch, before _warm() can repair views
        # for unrelated reasons: the per-plan ViewDeltas this batch produced,
        # net-composed across its mutations.
        standing = self._session.drain_standing_deltas()
        warmed = self._warm()
        if (
            error is not None
            or warmed
            or self._session.revision != revision_before
        ):
            # Publish even after a failed batch: apply_batch settles derived
            # state for whatever reached the index before the failure.
            self._publish()
        if self._replication_sinks:
            # Fan out the net base-fact delta right after the epoch swap —
            # before the (possibly blocking) subscription deliveries — so
            # replica staleness is bounded by the publish path alone.  Sinks
            # are non-blocking by contract (they append to a backlog and
            # wake sender threads); one that raises is counted, never fatal.
            drained = self._session.drain_fact_deltas()
            if drained is not None and (drained[0] or drained[1]):
                revision = self._epoch.revision
                for sink in list(self._replication_sinks):
                    try:
                        sink(revision, drained[0], drained[1])
                    except Exception:
                        with self._stats_lock:
                            self.statistics.replication_errors += 1
                    else:
                        with self._stats_lock:
                            self.statistics.replication_records += 1
        if standing and self._subscriptions.active_count():
            # Fan out after the epoch swap (a woken subscriber polling the
            # service sees at least its notification's revision) and before
            # acknowledging the batch — a "block"-policy slow consumer
            # therefore backpressures mutators, exactly like a full write
            # queue.
            tracer = get_tracer()
            span = (
                tracer.start(
                    "service.notify",
                    revision=self._epoch.revision,
                    subscribers=self._subscriptions.active_count(),
                )
                if tracer.enabled
                else None
            )
            notified, gaps = self._subscriptions.fan_out(
                self._epoch.revision, standing
            )
            with self._stats_lock:
                self.statistics.notifications_sent += notified
                self.statistics.subscription_gaps += gaps
            if span is not None:
                span.finish(notifications=notified, gaps=gaps)
        with self._stats_lock:
            self.statistics.batches_applied += 1
            if len(batch) > 1:
                self.statistics.batches_coalesced += 1
                self.statistics.coalesced_ops += len(batch) - 1
        # Acknowledge only after the epoch swap: a caller that waits on the
        # future and then reads is guaranteed to observe its own write.
        if counts is not None:
            for op, count in zip(batch, counts):
                op.future.set_result(count)
        else:
            for op in batch:
                op.future.set_exception(error)

    def _warm(self) -> int:
        """Replay reader cache-misses through the session pre-publish."""
        if not self._warm_cache:
            return 0
        with self._stats_lock:
            if not self._hot:
                return 0
            queries = list(self._hot)
            self._hot.clear()
        warmed = 0
        for query in queries:
            try:
                self._session.answers(query)
                warmed += 1
            except Exception:
                # A query that cannot be answered (budget, scope) simply
                # stays unwarmed; the reader that cares sees the error on
                # its own evaluation path.
                continue
        return warmed

    def _publish(self) -> None:
        tracer = get_tracer()
        span = tracer.start("service.publish") if tracer.enabled else None
        self._epoch = Epoch(self, self._session.epoch())
        self._published_monotonic = time.monotonic()
        self._published_at = time.time()
        with self._stats_lock:
            self.statistics.epochs_published += 1
        if span is not None:
            span.finish(
                revision=self._epoch.revision, facts=len(self._epoch.snapshot)
            )

    # ---------------------------------------------------------- observability
    def stats(self) -> MetricsSnapshot:
        """A point-in-time :class:`~repro.obs.metrics.MetricsSnapshot`.

        The snapshot carries everything the service's registry knows: the
        flattened ``service_*`` (and, same registry, ``session_*``) counters,
        the ``service_read_latency_seconds`` histogram, the thread-safe
        ``service_snapshot_index_builds`` counter, and the live gauges —
        ``service_queue_depth``, ``service_epoch_lag_seconds``,
        ``service_pending_futures``, and the symbol-table growth gauges
        ``engine_symbols_interned`` / ``engine_atom_cache_entries``.  Feed
        it to :func:`repro.obs.prometheus_text` /
        :func:`repro.obs.json_snapshot` to export, or ``.diff(earlier)`` two
        of them for interval rates.
        """
        return self._metrics.snapshot()

    # ------------------------------------------------------------- lifecycle
    @classmethod
    def open(
        cls, path, rules=(), **kwargs
    ) -> "DatalogService":
        """Open (or create) a durable service over the store at *path*.

        A fresh directory starts an empty durable service; an existing one
        is recovered — latest valid checkpoint, warm-state restore, then
        idempotent replay of the log tail — before the first read is
        served.  Equivalent to ``DatalogService((), rules,
        durability=path, **kwargs)``; all other constructor keywords pass
        through.
        """
        return cls((), rules, durability=path, **kwargs)

    @property
    def durable(self) -> bool:
        """``True`` iff the service persists through a durability store."""
        return self._durability is not None

    def close(self, timeout: Optional[float] = None) -> None:
        """Drain the queue, stop the writer thread, and join it.

        Ops enqueued before ``close`` are still applied and acknowledged;
        later mutations (and ``subscribe()`` calls) raise
        :class:`~repro.errors.ServiceClosedError`.  Reads remain available
        on the last published epoch.  Subscriptions are closed in order:
        deliveries blocked on full queues are woken *before* the writer is
        joined (they coalesce into gaps, so a slow consumer can never
        deadlock ``close()``), and streams are ended only *after* the
        writer is gone — every in-flight notification is flushed to its
        queue and stays consumable; iterators then stop, callback pumps
        drain their backlog and are joined.  Idempotent.
        """
        with self._queue_lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()
        # After _closed is visible: any writer-side delivery that blocks (or
        # is already blocked) on a full "block"-policy queue must give up and
        # gap out, or join() below would wait on a consumer that may never
        # come.
        self._subscriptions.begin_close()
        self._writer.join(timeout)
        self._subscriptions.finish_close(timeout)
        if self._durability is not None:
            # After the join: the writer's close-time checkpoint (if
            # configured) has been written, nothing touches the log again.
            self._durability.close()
        # Unhook the gauge callbacks: they close over ``self``, and a shared
        # (global) registry would otherwise keep every closed service alive
        # and keep summing its queue depth into the gauges.
        for gauge, callback in self._gauge_callbacks:
            gauge.remove_callback(callback)
        self._gauge_callbacks = []

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "DatalogService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "serving"
        return (
            f"DatalogService({state}, revision={self.revision}, "
            f"facts={len(self._epoch.snapshot)})"
        )
