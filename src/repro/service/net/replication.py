"""Epoch replication: one writer, N snapshot-consistent read replicas.

The GIL caps a single :class:`~repro.service.DatalogService` process at
roughly one core of evaluation work no matter how many reader threads it
runs.  This module is the way past that ceiling: the **writer** node keeps
owning all mutations, and every epoch publish fans a replication record out
to any number of **replica processes**, each serving reads from its own
:class:`~repro.query.session.QuerySession` on its own core.

The wire protocol deliberately reuses what the durability layer already
trusts:

* **framing** — every record travels as a length + CRC-32 frame
  (:mod:`repro.service.framing`), byte-compatible with write-ahead-log
  records, so torn frames and corruption are detected the same way in both
  layers;
* **term codec** — atoms are encoded as per-record interned term tables
  plus integer rows (:class:`repro.service.durability._TermInterner`),
  exactly the WAL v2 record layout;
* **deltas** — the payload of a ``delta`` record is the session's **net**
  base-fact change for one revision, captured by the same machinery that
  feeds standing-query subscriptions
  (:meth:`~repro.query.session.QuerySession.drain_fact_deltas`, the
  base-fact twin of ``drain_standing_deltas``), so a replica applying it
  through ordinary ``apply_batch`` lands on exactly the writer's fact base
  at that revision.

Record kinds::

    delta     {revision, published, syms, added, removed, touched}
    snapshot  {revision, published, syms, facts}
    hello     {replica, last}          (replica -> writer, transports only)
    ack       {replica, revision}      (replica -> writer, transports only)

``published`` is the writer's ``time.monotonic()`` at publish time.  On one
host (and across fork/spawn on Linux) the monotonic clock is shared, so a
replica can measure true apply staleness; the measurement is clamped at 0,
so a platform with per-process monotonic clocks degrades to a noisy gauge,
never a negative one.

**Idempotence and resync.**  Every record carries its revision.  A replica
applies a ``delta`` only when it extends its last-applied revision by
exactly one; a record at or below the watermark is *skipped* (the at-least-
once delivery of reconnecting transports becomes exactly-once application —
the replication twin of the WAL's batch-id replay guard), and a revision
gap raises :class:`~repro.errors.ReplicationError` so the transport
resynchronises from a ``snapshot`` record instead of serving wrong answers.
The publisher keeps a bounded **backlog** of recent delta frames; a replica
whose cursor fell off the backlog (slow consumer, long disconnect) is
handed a fresh snapshot and rejoins the delta stream from there.

**Staleness contract.**  Replicas report their applied revision back
(``ack`` records); the publisher tracks per-replica watermarks and exposes
the worst lag as a gauge.  A replica's answer is always exact *for its
revision* — the staleness bound is operational (publish interval + one
transport hop), never a correctness caveat.  ``docs/replication.md`` walks
through the full contract; ``benchmarks/bench_replication.py`` measures the
multi-process read scaling and enforces the oracle equality.
"""

from __future__ import annotations

import itertools
import json
import os
import socket
import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ...core.atoms import Atom
from ...core.queries import ConjunctiveQuery
from ...errors import ReplicationError
from ...obs.metrics import MetricsRegistry, MetricsSnapshot, global_registry
from ...obs.trace import get_tracer
from ...query.session import QuerySession
from ..durability import _TermInterner, _atom_from_row, decode_term
from ..framing import frame, read_frame, scan_frames, write_frame

__all__ = [
    "LocalReplicaLink",
    "Replica",
    "ReplicationClient",
    "ReplicationPublisher",
    "ReplicationServer",
    "decode_record",
    "encode_delta",
    "encode_snapshot",
]


# --------------------------------------------------------------------------
# wire records
# --------------------------------------------------------------------------


def _encode_rows(atoms: Sequence[Atom], interner: _TermInterner) -> list:
    return [interner.atom_row(atom) for atom in atoms]


def encode_delta(
    revision: int,
    added: Sequence[Atom],
    removed: Sequence[Atom],
    *,
    published: Optional[float] = None,
) -> bytes:
    """Encode one revision's net fact change as a framed ``delta`` record."""
    interner = _TermInterner()
    added_rows = _encode_rows(added, interner)
    removed_rows = _encode_rows(removed, interner)
    touched = sorted(
        {atom.predicate.name for atom in added}
        | {atom.predicate.name for atom in removed}
    )
    payload = json.dumps(
        {
            "kind": "delta",
            "revision": revision,
            "published": (
                time.monotonic() if published is None else published
            ),
            "syms": interner.encoded,
            "added": added_rows,
            "removed": removed_rows,
            "touched": touched,
        },
        separators=(",", ":"),
    ).encode("utf-8")
    return frame(payload)


def encode_snapshot(
    revision: int,
    facts: Sequence[Atom],
    *,
    published: Optional[float] = None,
) -> bytes:
    """Encode a full fact base as a framed ``snapshot`` record."""
    interner = _TermInterner()
    rows = _encode_rows(facts, interner)
    payload = json.dumps(
        {
            "kind": "snapshot",
            "revision": revision,
            "published": (
                time.monotonic() if published is None else published
            ),
            "syms": interner.encoded,
            "facts": rows,
        },
        separators=(",", ":"),
    ).encode("utf-8")
    return frame(payload)


def _control_frame(record: dict) -> bytes:
    return json.dumps(record, separators=(",", ":")).encode("utf-8")


def decode_record(payload: bytes) -> dict:
    """Decode a record payload; atoms come back as :class:`Atom` tuples."""
    try:
        record = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ReplicationError(f"malformed replication record: {error}")
    if not isinstance(record, dict) or "kind" not in record:
        raise ReplicationError("replication record without a kind")
    kind = record["kind"]
    if kind in ("hello", "ack"):
        return record
    try:
        table = [decode_term(entry) for entry in record["syms"]]
        if kind == "delta":
            record["added"] = tuple(
                _atom_from_row(row, table) for row in record["added"]
            )
            record["removed"] = tuple(
                _atom_from_row(row, table) for row in record["removed"]
            )
        elif kind == "snapshot":
            record["facts"] = tuple(
                _atom_from_row(row, table) for row in record["facts"]
            )
        else:
            raise ReplicationError(f"unknown record kind {kind!r}")
        record["revision"] = int(record["revision"])
    except ReplicationError:
        raise
    except Exception as error:
        raise ReplicationError(f"malformed {kind} record: {error!r}")
    return record


# --------------------------------------------------------------------------
# the writer side: publisher + backlog + watermarks
# --------------------------------------------------------------------------


class ReplicationPublisher:
    """The writer-side hub: captures per-epoch fact deltas, keeps a bounded
    backlog of encoded frames, serves snapshots, and tracks replica
    watermarks.

    Construction attaches to the service
    (:meth:`~repro.service.DatalogService.attach_replication`): from the
    attach revision on, every epoch publish carrying a net fact change lands
    here as one encoded ``delta`` frame — on the writer thread, but the work
    is one JSON encode plus a deque append, never a network wait.  Transports
    (:class:`LocalReplicaLink`, :class:`ReplicationServer`) follow the
    backlog with per-consumer cursors via :meth:`frames_since` /
    :meth:`wait_frames` and fall back to :meth:`snapshot_record` when a
    cursor falls off the backlog.

    ``backlog`` bounds the frames kept for catch-up: a replica that falls
    more than *backlog* revisions behind resynchronises from a snapshot
    instead of replaying the gap.
    """

    def __init__(
        self,
        service,
        *,
        backlog: int = 1024,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._service = service
        self._metrics = metrics if metrics is not None else global_registry()
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._backlog: Deque[Tuple[int, bytes]] = deque(maxlen=max(1, backlog))
        self._last_revision: Optional[int] = None
        #: replica id -> (applied revision, monotonic instant of the ack)
        self._watermarks: Dict[str, Tuple[int, float]] = {}
        self._closed = False
        self._frames = self._metrics.counter(
            "service_replication_frames",
            help="Delta frames encoded and enqueued for replication.",
        )
        self._bytes = self._metrics.counter(
            "service_replication_bytes",
            help="Framed bytes enqueued on the replication backlog.",
        )
        self._snapshots = self._metrics.counter(
            "service_replication_snapshots",
            help="Snapshot records served to (re)synchronising replicas.",
        )
        self._acks = self._metrics.counter(
            "service_replication_acks",
            help="Watermark acknowledgements received from replicas.",
        )
        self._lag_gauge = self._metrics.gauge(
            "service_replication_watermark_lag_revisions",
            help=(
                "Writer revision minus the slowest replica's acknowledged "
                "revision (0 with no replicas attached)."
            ),
        )
        self._lag_gauge.add_callback(self._watermark_lag)
        self.attach_revision = service.attach_replication(self._on_publish)

    # ------------------------------------------------------------- fan-in
    def _on_publish(
        self,
        revision: int,
        added: Tuple[Atom, ...],
        removed: Tuple[Atom, ...],
    ) -> None:
        """The service's replication sink (writer thread, non-blocking)."""
        tracer = get_tracer()
        span = (
            tracer.start(
                "replication.publish",
                revision=revision,
                added=len(added),
                removed=len(removed),
            )
            if tracer.enabled
            else None
        )
        encoded = encode_delta(revision, added, removed)
        with self._cond:
            self._backlog.append((revision, encoded))
            self._last_revision = revision
            self._cond.notify_all()
        self._frames.inc()
        self._bytes.inc(len(encoded))
        if span is not None:
            span.finish(bytes=len(encoded))

    # ------------------------------------------------------------ fan-out
    @property
    def last_revision(self) -> Optional[int]:
        """The newest replicated revision (``None`` before the first)."""
        with self._lock:
            return self._last_revision

    @property
    def closed(self) -> bool:
        return self._closed

    def snapshot_record(self) -> Tuple[int, bytes]:
        """A framed ``snapshot`` of the service's current epoch.

        Returns ``(revision, frame)``.  Safe from any thread — the epoch is
        an atomic reference read and the fact set is immutable.  Composes
        with the delta stream by construction: a replica that applies this
        snapshot then skips deltas at or below its revision and applies the
        rest lands on the writer's fact base.
        """
        epoch = self._service.epoch()
        encoded = encode_snapshot(epoch.revision, tuple(epoch.facts()))
        self._snapshots.inc()
        return epoch.revision, encoded

    def frames_since(
        self, revision: Optional[int]
    ) -> Optional[List[Tuple[int, bytes]]]:
        """Backlogged ``(revision, frame)`` pairs newer than *revision*.

        ``None`` means the backlog cannot serve that cursor — *revision* is
        unknown (``None``) or older than the oldest retained frame — and the
        consumer must resynchronise from :meth:`snapshot_record`.  An empty
        list means the cursor is current.
        """
        with self._lock:
            return self._frames_since_locked(revision)

    def _frames_since_locked(
        self, revision: Optional[int]
    ) -> Optional[List[Tuple[int, bytes]]]:
        if revision is None:
            return None
        if self._last_revision is None or revision >= self._last_revision:
            return []
        if not self._backlog or self._backlog[0][0] > revision + 1:
            return None
        return [(rev, data) for rev, data in self._backlog if rev > revision]

    def wait_frames(
        self, revision: Optional[int], timeout: Optional[float] = None
    ) -> Optional[List[Tuple[int, bytes]]]:
        """Like :meth:`frames_since`, blocking up to *timeout* for news.

        Returns ``[]`` on timeout or once the publisher is closed.
        """
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        with self._cond:
            while True:
                frames = self._frames_since_locked(revision)
                if frames is None or frames or self._closed:
                    return frames
                if deadline is None:
                    self._cond.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._cond.wait(remaining):
                        return self._frames_since_locked(revision)

    # ---------------------------------------------------------- watermarks
    def ack(self, replica_id: str, revision: int) -> None:
        """Record a replica's applied-revision watermark."""
        instant = time.monotonic()
        with self._lock:
            current = self._watermarks.get(replica_id)
            if current is None or revision >= current[0]:
                self._watermarks[replica_id] = (int(revision), instant)
        self._acks.inc()

    def watermarks(self) -> Dict[str, int]:
        """Per-replica applied revisions, as last acknowledged."""
        with self._lock:
            return {
                replica: revision
                for replica, (revision, _) in self._watermarks.items()
            }

    def min_watermark(self) -> Optional[int]:
        """The slowest replica's applied revision (``None`` with none)."""
        with self._lock:
            if not self._watermarks:
                return None
            return min(rev for rev, _ in self._watermarks.values())

    def _watermark_lag(self) -> float:
        floor = self.min_watermark()
        if floor is None:
            return 0.0
        return max(0.0, float(self._service.revision - floor))

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Detach from the service and wake every waiting consumer."""
        if self._closed:
            return
        self._closed = True
        self._service.detach_replication(self._on_publish)
        with self._cond:
            self._cond.notify_all()
        self._lag_gauge.remove_callback(self._watermark_lag)

    def __enter__(self) -> "ReplicationPublisher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# --------------------------------------------------------------------------
# the replica side
# --------------------------------------------------------------------------

_replica_ids = itertools.count(1)


class Replica:
    """One read replica: a :class:`QuerySession` fed by replication records.

    Records arrive through :meth:`apply_frame` (framed bytes off a
    transport) or :meth:`apply_record` (decoded dicts).  A ``snapshot``
    diff-applies the full fact base (one ``apply_batch`` of the symmetric
    difference — plan caches and maintained views survive a resync); a
    ``delta`` must extend the last-applied revision by exactly one and goes
    through ordinary ``apply_batch``, so maintained views and cached
    answers repair incrementally exactly as they would on the writer.

    Reads (:meth:`read` / :meth:`answers`) serve the **last-applied
    revision** under the replica's lock: every answer is exact for the
    revision reported next to it — snapshot consistency, with staleness
    bounded by the publish interval plus one transport hop.  The
    ``replica_apply_lag_seconds`` gauge is monotonic-clock based and
    clamped at 0 from day one.
    """

    def __init__(
        self,
        rules=(),
        *,
        replica_id: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
        maintenance: bool = True,
        fallback: bool = True,
        max_atoms: Optional[int] = None,
    ) -> None:
        self.replica_id = (
            replica_id
            if replica_id is not None
            else f"replica-{os.getpid()}-{next(_replica_ids)}"
        )
        self._metrics = metrics if metrics is not None else global_registry()
        self._lock = threading.RLock()
        self._session = QuerySession(
            (),
            rules,
            maintenance=maintenance,
            fallback=fallback,
            max_atoms=max_atoms,
            metrics=self._metrics,
        )
        self._applied_revision: Optional[int] = None
        #: writer-side publish instant (monotonic) of the last applied record
        self._last_published: Optional[float] = None
        self._last_staleness = 0.0
        self.records_applied = 0
        self.records_skipped = 0
        self.snapshots_applied = 0
        self._applied_counter = self._metrics.counter(
            "replica_records_applied",
            help="Delta records applied through the replica's session.",
        )
        self._skipped_counter = self._metrics.counter(
            "replica_records_skipped",
            help=(
                "Records skipped as already applied (at-least-once delivery "
                "made exactly-once by the revision watermark)."
            ),
        )
        self._snapshot_counter = self._metrics.counter(
            "replica_snapshots_applied",
            help="Snapshot resyncs diff-applied into the replica session.",
        )
        self._staleness = self._metrics.histogram(
            "replica_staleness_seconds",
            help=(
                "Apply-time staleness per record: replica monotonic clock "
                "minus the writer's publish instant, clamped at 0."
            ),
        )
        self._lag_gauge = self._metrics.gauge(
            "replica_apply_lag_seconds",
            help=(
                "Monotonic seconds since the publish instant of the last "
                "applied record (0 before the first; clamped at 0)."
            ),
        )
        self._lag_gauge.add_callback(self._apply_lag)

    # --------------------------------------------------------------- apply
    def apply_frame(self, data: bytes) -> str:
        """Decode and apply one *framed* record (header + payload, i.e. a
        backlog entry or WAL-style frame off the wire); returns the outcome
        (``"applied"`` / ``"resynced"`` / ``"skipped"``).  The frame's
        CRC is verified exactly as durable-log recovery would."""
        payloads, end = scan_frames(data, 0)
        if len(payloads) != 1 or end != len(data):
            raise ReplicationError(
                "expected exactly one intact framed record"
            )
        return self.apply_record(decode_record(payloads[0]))

    def apply_record(self, record: dict) -> str:
        kind = record.get("kind")
        if kind not in ("delta", "snapshot"):
            raise ReplicationError(
                f"replica cannot apply a {kind!r} record"
            )
        tracer = get_tracer()
        span = (
            tracer.start(
                "replica.apply", kind=kind, revision=record["revision"]
            )
            if tracer.enabled
            else None
        )
        outcome = "error"
        try:
            with self._lock:
                outcome = self._apply_locked(kind, record)
        finally:
            if span is not None:
                span.finish(outcome=outcome)
        return outcome

    def _apply_locked(self, kind: str, record: dict) -> str:
        revision = record["revision"]
        if (
            self._applied_revision is not None
            and revision <= self._applied_revision
        ):
            self.records_skipped += 1
            self._skipped_counter.inc()
            return "skipped"
        if kind == "snapshot":
            target = set(record["facts"])
            current = self._session.facts
            to_remove = tuple(atom for atom in current if atom not in target)
            to_add = tuple(atom for atom in target if atom not in current)
            if to_remove or to_add:
                self._session.apply_batch(
                    (("remove", to_remove), ("add", to_add))
                )
            self.snapshots_applied += 1
            self._snapshot_counter.inc()
            outcome = "resynced"
        else:
            if self._applied_revision is None:
                raise ReplicationError(
                    "replica has no base revision; resynchronise from a "
                    "snapshot before applying deltas"
                )
            if revision != self._applied_revision + 1:
                raise ReplicationError(
                    f"revision gap: replica at {self._applied_revision}, "
                    f"delta record at {revision}; resynchronise from a "
                    "snapshot"
                )
            self._session.apply_batch(
                (("add", record["added"]), ("remove", record["removed"]))
            )
            self.records_applied += 1
            self._applied_counter.inc()
            outcome = "applied"
        self._applied_revision = revision
        published = record.get("published")
        if isinstance(published, (int, float)):
            self._last_published = float(published)
            self._last_staleness = max(0.0, time.monotonic() - published)
            self._staleness.observe(self._last_staleness)
        return outcome

    # --------------------------------------------------------------- reads
    @property
    def applied_revision(self) -> Optional[int]:
        """The writer revision this replica has applied up to."""
        with self._lock:
            return self._applied_revision

    @property
    def facts(self) -> frozenset:
        with self._lock:
            return self._session.facts

    @property
    def last_staleness(self) -> float:
        """Apply-time staleness of the most recent record, in seconds."""
        with self._lock:
            return self._last_staleness

    def read(
        self, query: ConjunctiveQuery
    ) -> Tuple[Optional[int], frozenset]:
        """``(applied revision, certain answers)`` — snapshot-consistent:
        the answers are exact for exactly that revision."""
        with self._lock:
            return self._applied_revision, self._session.answers(query)

    def answers(self, query: ConjunctiveQuery) -> frozenset:
        return self.read(query)[1]

    def holds(self, query: ConjunctiveQuery) -> bool:
        return bool(self.answers(query))

    def stats(self) -> MetricsSnapshot:
        """A snapshot of the replica's metrics registry."""
        return self._metrics.snapshot()

    def _apply_lag(self) -> float:
        with self._lock:
            if self._last_published is None:
                return 0.0
            return max(0.0, time.monotonic() - self._last_published)

    def close(self) -> None:
        """Unhook the gauge callback (a shared registry must not keep a
        dead replica reporting)."""
        self._lag_gauge.remove_callback(self._apply_lag)

    def __enter__(self) -> "Replica":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Replica({self.replica_id}, revision={self.applied_revision}, "
            f"applied={self.records_applied}, skipped={self.records_skipped})"
        )


# --------------------------------------------------------------------------
# transports
# --------------------------------------------------------------------------


class LocalReplicaLink:
    """In-process transport: one replica following one publisher's backlog.

    The test-and-docs transport — deterministic by default: :meth:`sync`
    pulls everything available *now* (resynchronising from a snapshot when
    the cursor is unknown or fell off the backlog), applies it, and acks.
    :meth:`start` runs the same loop on a background pump thread for
    in-process deployments.
    """

    def __init__(
        self, publisher: ReplicationPublisher, replica: Replica
    ) -> None:
        self._publisher = publisher
        self._replica = replica
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    @property
    def replica(self) -> Replica:
        return self._replica

    def sync(self) -> int:
        """Catch the replica up to the publisher's current revision.

        Returns the number of records applied (snapshots included).
        """
        applied = 0
        while True:
            frames = self._publisher.frames_since(
                self._replica.applied_revision
            )
            if frames is None:
                _, snapshot = self._publisher.snapshot_record()
                if self._replica.apply_frame(snapshot) == "resynced":
                    applied += 1
                continue
            if not frames:
                break
            for _, payload in frames:
                if self._replica.apply_frame(payload) == "applied":
                    applied += 1
        revision = self._replica.applied_revision
        if revision is not None:
            self._publisher.ack(self._replica.replica_id, revision)
        return applied

    def start(self, poll_interval: float = 0.2) -> "LocalReplicaLink":
        """Follow the publisher continuously on a daemon pump thread."""
        if self._thread is not None:
            return self
        self._stop.clear()

        def pump() -> None:
            while not self._stop.is_set() and not self._publisher.closed:
                self._publisher.wait_frames(
                    self._replica.applied_revision, poll_interval
                )
                try:
                    self.sync()
                except ReplicationError:  # pragma: no cover - resync race
                    continue

        self._thread = threading.Thread(
            target=pump,
            name=f"repro-replica-link-{self._replica.replica_id}",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(5)
            self._thread = None


class ReplicationServer:
    """TCP fan-out: streams the publisher's records to connected replicas.

    One listening socket; per connection, a **sender** thread follows the
    backlog from the replica's ``hello`` cursor (serving a snapshot first
    when the cursor is unknown or stale) and an **ack reader** thread feeds
    watermarks back to the publisher.  All sockets speak framed records —
    the same bytes a WAL would hold.
    """

    def __init__(
        self,
        publisher: ReplicationPublisher,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._publisher = publisher
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(16)
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._closed = threading.Event()
        self._lock = threading.Lock()
        self._connections: set = set()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-replication-accept",
            daemon=True,
        )
        self._accept_thread.start()

    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                connection, _ = self._listener.accept()
            except OSError:
                return
            connection.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
            with self._lock:
                if self._closed.is_set():
                    connection.close()
                    return
                self._connections.add(connection)
            threading.Thread(
                target=self._serve_connection,
                args=(connection,),
                name="repro-replication-sender",
                daemon=True,
            ).start()

    def _serve_connection(self, connection: socket.socket) -> None:
        try:
            hello_payload = read_frame(connection)
            if hello_payload is None:
                return
            hello = json.loads(hello_payload.decode("utf-8"))
            if not isinstance(hello, dict) or hello.get("kind") != "hello":
                return
            cursor: Optional[int] = hello.get("last")
            if cursor is not None and type(cursor) is not int:
                return  # not a revision (``type`` also rejects bools)
            threading.Thread(
                target=self._ack_loop,
                args=(connection,),
                name="repro-replication-acks",
                daemon=True,
            ).start()
            while not self._closed.is_set():
                frames = self._publisher.wait_frames(cursor, 0.25)
                if frames is None:
                    # Unknown or fallen-off-the-backlog cursor: resync.
                    revision, snapshot = self._publisher.snapshot_record()
                    connection.sendall(snapshot)
                    cursor = (
                        revision
                        if cursor is None or revision > cursor
                        else cursor
                    )
                    continue
                for revision, payload in frames:
                    connection.sendall(payload)
                    cursor = revision
                if self._publisher.closed:
                    return
        except (OSError, ValueError, json.JSONDecodeError):
            pass  # the peer went away (or spoke garbage): drop the link
        finally:
            with self._lock:
                self._connections.discard(connection)
            try:
                connection.close()
            except OSError:  # pragma: no cover - already closed
                pass

    def _ack_loop(self, connection: socket.socket) -> None:
        while True:
            try:
                payload = read_frame(connection)
            except (OSError, ValueError):
                return
            if payload is None:
                return
            try:
                record = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                return
            if isinstance(record, dict) and record.get("kind") == "ack":
                try:
                    self._publisher.ack(
                        str(record["replica"]), int(record["revision"])
                    )
                except (KeyError, TypeError, ValueError, OverflowError):
                    continue

    def close(self) -> None:
        """Stop accepting and drop every connection."""
        self._closed.set()
        # close() alone does not wake a thread blocked in accept();
        # shutting the listener down first does.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - already closed
            pass
        with self._lock:
            connections = list(self._connections)
            self._connections.clear()
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                connection.close()
            except OSError:  # pragma: no cover - already closed
                pass
        self._accept_thread.join(5)

    def __enter__(self) -> "ReplicationServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ReplicationClient:
    """Replica-side TCP transport: connect, hello, apply, ack.

    Sends ``hello`` carrying the replica's last-applied revision — a
    reconnect therefore resumes the delta stream exactly where it left off
    (the server may overlap; overlapping records are skipped by the
    replica's watermark) or receives a fresh snapshot when the gap outgrew
    the server's backlog.  A revision gap mid-stream tears the connection
    down rather than applying it; reconnecting resynchronises.
    """

    def __init__(
        self,
        address: Tuple[str, int],
        replica: Replica,
        *,
        acks: bool = True,
        connect_timeout: float = 10.0,
    ) -> None:
        self._replica = replica
        self._acks = acks
        self._sock = socket.create_connection(
            address, timeout=connect_timeout
        )
        self._sock.settimeout(None)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._closed = threading.Event()
        write_frame(
            self._sock,
            _control_frame(
                {
                    "kind": "hello",
                    "replica": replica.replica_id,
                    "last": replica.applied_revision,
                }
            ),
        )
        self._thread = threading.Thread(
            target=self._run,
            name=f"repro-replication-client-{replica.replica_id}",
            daemon=True,
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._closed.is_set():
            try:
                payload = read_frame(self._sock)
            except (OSError, ValueError):
                break
            if payload is None:
                break
            try:
                self._replica.apply_record(decode_record(payload))
            except ReplicationError:
                # A gap (or garbage) mid-stream: tear down; a reconnect
                # resynchronises from the server's snapshot path.
                break
            if self._acks:
                revision = self._replica.applied_revision
                if revision is None:
                    continue
                try:
                    write_frame(
                        self._sock,
                        _control_frame(
                            {
                                "kind": "ack",
                                "replica": self._replica.replica_id,
                                "revision": revision,
                            }
                        ),
                    )
                except OSError:
                    break
        self._closed.set()
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - already closed
            pass

    @property
    def running(self) -> bool:
        """``True`` while the stream thread is alive and applying."""
        return not self._closed.is_set()

    def wait_for_revision(
        self, revision: int, timeout: float = 30.0
    ) -> bool:
        """Block until the replica has applied *revision* (or timeout)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            applied = self._replica.applied_revision
            if applied is not None and applied >= revision:
                return True
            if self._closed.is_set():
                return False
            time.sleep(0.005)
        return False

    def close(self) -> None:
        self._closed.set()
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - already closed
            pass
        self._thread.join(5)

    def __enter__(self) -> "ReplicationClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
