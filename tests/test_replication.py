"""Epoch replication: wire codec, publisher, replica, transports.

Four tiers, mirroring the module's structure:

* **codec tier** — delta/snapshot records roundtrip through the shared
  WAL framing + interned term codec; malformed payloads and corrupt
  frames raise :class:`~repro.errors.ReplicationError`, never apply;
* **publisher tier** — backlog cursor semantics (``frames_since`` /
  ``wait_frames``), snapshot fallback when a cursor falls off the
  backlog, watermark bookkeeping, detach-on-close;
* **replica tier** — the correctness heart: a replica's answers equal a
  from-scratch oracle session at its applied revision, records at or
  below the watermark are skipped exactly (at-least-once delivery made
  exactly-once), revision gaps raise instead of applying;
* **transport tier** — the in-process link and the TCP server/client,
  including reconnect-resumes-without-double-apply.  The multi-process
  kill/restart battery (a real replica subprocess SIGKILLed and
  restarted against a live writer) rides ``tests/replica_worker.py``.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import parse_program, parse_query
from repro.core.atoms import Atom, Predicate
from repro.core.terms import Constant, FunctionTerm, Null
from repro.errors import ReplicationError
from repro.obs.metrics import MetricsRegistry
from repro.query import QuerySession
from repro.service import DatalogService
from repro.service.framing import frame, write_frame
from repro.service.net import (
    LocalReplicaLink,
    Replica,
    ReplicationClient,
    ReplicationPublisher,
    ReplicationServer,
)
from repro.service.net.replication import (
    decode_record,
    encode_delta,
    encode_snapshot,
)

LINK = Predicate("link", 2)

RULES = parse_program(
    """
    link(X, Y) -> reachable(X, Y)
    link(X, Z), reachable(Z, Y) -> reachable(X, Y)
    """
)

QUERY = parse_query("?(Y) :- reachable(a, Y)")


def link(source: str, target: str) -> Atom:
    return Atom(LINK, (Constant(source), Constant(target)))


def service(**kwargs) -> DatalogService:
    kwargs.setdefault("metrics", MetricsRegistry())
    return DatalogService(rules=RULES, **kwargs)


def replica(**kwargs) -> Replica:
    kwargs.setdefault("metrics", MetricsRegistry())
    return Replica(RULES, **kwargs)


def oracle_answers(facts):
    """From-scratch evaluation of QUERY over *facts* — the replica oracle."""
    return QuerySession(facts, RULES).answers(QUERY)


# --------------------------------------------------------------------------
# codec tier
# --------------------------------------------------------------------------


class TestWireCodec:
    def test_delta_roundtrip_preserves_atoms_and_touched(self):
        added = (
            link("a", "b"),
            Atom(LINK, (Null("n1"), FunctionTerm("f", (Constant("x"),)))),
        )
        removed = (link("c", "d"),)
        framed = encode_delta(7, added, removed, published=123.5)
        record = decode_record(_payload_of(framed))
        assert record["kind"] == "delta"
        assert record["revision"] == 7
        assert record["published"] == 123.5
        assert record["added"] == added
        assert record["removed"] == removed
        assert record["touched"] == ["link"]

    def test_snapshot_roundtrip(self):
        facts = (link("a", "b"), link("b", "c"))
        framed = encode_snapshot(3, facts)
        record = decode_record(_payload_of(framed))
        assert record["kind"] == "snapshot"
        assert record["revision"] == 3
        assert set(record["facts"]) == set(facts)

    def test_malformed_payloads_raise(self):
        with pytest.raises(ReplicationError):
            decode_record(b"\xff\xfe not json")
        with pytest.raises(ReplicationError):
            decode_record(b'{"no": "kind"}')
        with pytest.raises(ReplicationError):
            decode_record(b'{"kind": "wat", "syms": []}')
        with pytest.raises(ReplicationError):  # truncated syms reference
            decode_record(
                b'{"kind": "delta", "revision": 1, "syms": [],'
                b' "added": [["p", [0]]], "removed": [], "touched": []}'
            )

    def test_corrupt_frame_never_applies(self):
        target = replica()
        framed = bytearray(encode_snapshot(1, (link("a", "b"),)))
        framed[-1] ^= 0xFF  # flip one payload byte: CRC must catch it
        with pytest.raises(ReplicationError):
            target.apply_frame(bytes(framed))
        assert target.applied_revision is None
        target.close()


def _payload_of(framed: bytes) -> bytes:
    """Strip the frame header (tests only — transports use scan/read)."""
    from repro.service.framing import FRAME_HEADER

    return framed[FRAME_HEADER.size :]


# --------------------------------------------------------------------------
# publisher tier
# --------------------------------------------------------------------------


class TestPublisher:
    def test_deltas_are_published_per_revision(self):
        svc = service()
        publisher = ReplicationPublisher(svc)
        try:
            assert publisher.last_revision is None
            assert publisher.frames_since(None) is None  # unknown cursor
            svc.add_facts([link("a", "b")]).result()
            svc.add_facts([link("b", "c")]).result()
            frames = publisher.frames_since(0)
            assert frames is not None
            assert [revision for revision, _ in frames] == [1, 2]
            assert publisher.frames_since(2) == []  # cursor is current
        finally:
            publisher.close()
            svc.close()

    def test_noop_mutations_publish_nothing(self):
        svc = service()
        svc.add_facts([link("a", "b")]).result()
        publisher = ReplicationPublisher(svc)
        try:
            svc.add_facts([link("a", "b")]).result()  # already present
            svc.remove_facts([link("x", "y")]).result()  # never present
            assert publisher.frames_since(svc.revision) == []
            assert publisher.last_revision is None
        finally:
            publisher.close()
            svc.close()

    def test_backlog_overflow_demands_snapshot(self):
        svc = service()
        publisher = ReplicationPublisher(svc, backlog=2)
        try:
            for index in range(5):
                svc.add_facts([link("a", f"t{index}")]).result()
            # Revisions 1..5 happened but only 4, 5 are retained: a cursor
            # at 1 cannot be served from the backlog any more.
            assert publisher.frames_since(1) is None
            assert publisher.frames_since(4) is not None
            revision, framed = publisher.snapshot_record()
            assert revision == svc.revision
            target = replica()
            assert target.apply_frame(framed) == "resynced"
            assert target.facts == svc.facts
            target.close()
        finally:
            publisher.close()
            svc.close()

    def test_watermarks_track_slowest_replica(self):
        svc = service()
        publisher = ReplicationPublisher(svc)
        try:
            assert publisher.min_watermark() is None
            publisher.ack("r1", 5)
            publisher.ack("r2", 3)
            publisher.ack("r1", 2)  # stale ack never regresses a watermark
            assert publisher.watermarks() == {"r1": 5, "r2": 3}
            assert publisher.min_watermark() == 3
        finally:
            publisher.close()
            svc.close()

    def test_watermark_lag_gauge(self):
        registry = MetricsRegistry()
        svc = service(metrics=registry)
        publisher = ReplicationPublisher(svc, metrics=registry)
        try:
            svc.add_facts([link("a", "b")]).result()
            svc.add_facts([link("b", "c")]).result()
            publisher.ack("r1", 1)
            lag = registry.snapshot().gauges[
                "service_replication_watermark_lag_revisions"
            ]
            assert lag == pytest.approx(float(svc.revision - 1))
        finally:
            publisher.close()
            svc.close()

    def test_close_detaches_from_the_service(self):
        svc = service()
        publisher = ReplicationPublisher(svc)
        svc.add_facts([link("a", "b")]).result()
        publisher.close()
        svc.add_facts([link("b", "c")]).result()  # service keeps working
        assert publisher.last_revision == 1  # nothing published post-close
        svc.close()

    def test_wait_frames_blocks_until_news(self):
        svc = service()
        publisher = ReplicationPublisher(svc)
        try:
            assert publisher.wait_frames(0, timeout=0.05) == []
            svc.add_facts([link("a", "b")]).result()
            frames = publisher.wait_frames(0, timeout=5)
            assert frames and frames[0][0] == 1
        finally:
            publisher.close()
            svc.close()


# --------------------------------------------------------------------------
# replica tier
# --------------------------------------------------------------------------


class TestReplica:
    def test_snapshot_then_deltas_match_oracle(self):
        svc = service()
        svc.add_facts([link("a", "b")]).result()
        publisher = ReplicationPublisher(svc)
        target = replica()
        try:
            _, snapshot = publisher.snapshot_record()
            assert target.apply_frame(snapshot) == "resynced"
            svc.add_facts([link("b", "c"), link("c", "d")]).result()
            svc.remove_facts([link("a", "b")]).result()
            for _, framed in publisher.frames_since(target.applied_revision):
                assert target.apply_frame(framed) == "applied"
            revision, answers = target.read(QUERY)
            assert revision == svc.revision
            assert target.facts == svc.facts
            assert answers == oracle_answers(svc.facts)
            assert answers == svc.answers(QUERY)
        finally:
            target.close()
            publisher.close()
            svc.close()

    def test_duplicate_records_skip_exactly(self):
        svc = service()
        svc.add_facts([link("a", "b")]).result()
        publisher = ReplicationPublisher(svc)
        target = replica()
        try:
            _, snapshot = publisher.snapshot_record()
            target.apply_frame(snapshot)
            svc.add_facts([link("b", "c")]).result()
            (frame_pair,) = publisher.frames_since(1)
            _, framed = frame_pair
            assert target.apply_frame(framed) == "applied"
            # At-least-once delivery: the same frame again must be a no-op.
            assert target.apply_frame(framed) == "skipped"
            assert target.apply_frame(snapshot) == "skipped"
            assert target.records_applied == 1
            assert target.records_skipped == 2
            assert target.facts == svc.facts
        finally:
            target.close()
            publisher.close()
            svc.close()

    def test_revision_gap_raises_instead_of_applying(self):
        target = replica()
        try:
            target.apply_frame(encode_snapshot(1, (link("a", "b"),)))
            gap = encode_delta(3, (link("b", "c"),), ())
            with pytest.raises(ReplicationError, match="gap"):
                target.apply_frame(gap)
            assert target.applied_revision == 1  # nothing applied
            assert link("b", "c") not in target.facts
        finally:
            target.close()

    def test_delta_before_any_snapshot_raises(self):
        target = replica()
        try:
            with pytest.raises(ReplicationError, match="snapshot"):
                target.apply_frame(encode_delta(1, (link("a", "b"),), ()))
        finally:
            target.close()

    def test_snapshot_resync_replaces_diverged_state(self):
        target = replica()
        try:
            target.apply_frame(
                encode_snapshot(1, (link("a", "b"), link("x", "y")))
            )
            target.apply_frame(
                encode_snapshot(4, (link("a", "b"), link("b", "c")))
            )
            assert target.applied_revision == 4
            assert target.facts == frozenset(
                (link("a", "b"), link("b", "c"))
            )
            assert target.answers(QUERY) == oracle_answers(target.facts)
        finally:
            target.close()

    def test_apply_lag_gauge_is_clamped_and_reported(self):
        registry = MetricsRegistry()
        target = Replica(RULES, metrics=registry)
        try:
            assert registry.snapshot().gauges[
                "replica_apply_lag_seconds"
            ] == pytest.approx(0.0)
            # A publish instant in the future (cross-host monotonic skew)
            # must clamp to 0, never go negative.
            target.apply_frame(
                encode_snapshot(
                    1,
                    (link("a", "b"),),
                    published=time.monotonic() + 3600,
                )
            )
            assert registry.snapshot().gauges[
                "replica_apply_lag_seconds"
            ] == pytest.approx(0.0)
            assert target.last_staleness == 0.0
        finally:
            target.close()


# --------------------------------------------------------------------------
# transport tier: in-process link
# --------------------------------------------------------------------------


class TestLocalReplicaLink:
    def test_sync_catches_up_from_nothing_and_acks(self):
        svc = service()
        svc.add_facts([link("a", "b"), link("b", "c")]).result()
        publisher = ReplicationPublisher(svc)
        target = replica(replica_id="local-1")
        linkage = LocalReplicaLink(publisher, target)
        try:
            assert linkage.sync() >= 1  # snapshot bootstrap
            assert target.read(QUERY)[1] == svc.answers(QUERY)
            svc.add_facts([link("c", "d")]).result()
            svc.remove_facts([link("a", "b")]).result()
            assert linkage.sync() == 2  # exactly the two deltas
            assert target.facts == svc.facts
            assert target.read(QUERY)[1] == oracle_answers(svc.facts)
            assert publisher.watermarks() == {"local-1": svc.revision}
        finally:
            linkage.close()
            target.close()
            publisher.close()
            svc.close()

    def test_sync_resyncs_after_backlog_overflow(self):
        svc = service()
        publisher = ReplicationPublisher(svc, backlog=2)
        target = replica()
        linkage = LocalReplicaLink(publisher, target)
        try:
            svc.add_facts([link("a", "b")]).result()
            linkage.sync()
            snapshots_before = target.snapshots_applied
            for index in range(6):  # push the replica's cursor off the edge
                svc.add_facts([link("a", f"t{index}")]).result()
            linkage.sync()
            assert target.snapshots_applied == snapshots_before + 1
            assert target.facts == svc.facts
        finally:
            linkage.close()
            target.close()
            publisher.close()
            svc.close()

    def test_background_pump_follows_writes(self):
        svc = service()
        publisher = ReplicationPublisher(svc)
        target = replica()
        linkage = LocalReplicaLink(publisher, target).start(
            poll_interval=0.05
        )
        try:
            svc.add_facts([link("a", "b"), link("b", "c")]).result()
            deadline = time.monotonic() + 10
            while (
                target.applied_revision != svc.revision
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert target.applied_revision == svc.revision
            assert target.read(QUERY)[1] == svc.answers(QUERY)
        finally:
            linkage.close()
            target.close()
            publisher.close()
            svc.close()


# --------------------------------------------------------------------------
# transport tier: TCP
# --------------------------------------------------------------------------


class TestTCPTransport:
    def test_close_wakes_the_accept_thread(self):
        svc = service()
        publisher = ReplicationPublisher(svc)
        server = ReplicationServer(publisher)
        try:
            started = time.monotonic()
            server.close()
            assert time.monotonic() - started < 1.0
            assert not server._accept_thread.is_alive()
        finally:
            publisher.close()
            svc.close()

    def test_malformed_peer_frames_never_raise_in_server_threads(
        self, monkeypatch
    ):
        """A peer that speaks well-framed nonsense is dropped or ignored:
        no server thread dies with an uncaught exception, and a well-formed
        replica still syncs afterwards."""
        uncaught: list = []
        monkeypatch.setattr(threading, "excepthook", uncaught.append)

        def connect(*payloads: bytes) -> socket.socket:
            peer = socket.create_connection(server.address, timeout=5)
            for payload in payloads:
                write_frame(peer, payload)
            return peer

        def dropped(peer: socket.socket) -> bool:
            try:
                while peer.recv(65536):
                    pass  # drain whatever the server streams first
            except socket.timeout:
                return False
            return True

        svc = service()
        publisher = ReplicationPublisher(svc)
        server = ReplicationServer(publisher)
        target = replica(replica_id="tcp-after-garbage")
        peers = []
        client = None
        try:
            not_a_hello = connect(b"[]")
            peers.append(not_a_hello)
            bad_cursor = connect(b'{"kind":"hello","last":"x"}')
            peers.append(bad_cursor)
            bad_acks = connect(
                b'{"kind":"hello","last":null}',
                b"[]",
                b'{"kind":"ack","replica":"junk","revision":1e999}',
                b'{"kind":"ack","replica":"probe","revision":0}',
            )
            peers.append(bad_acks)
            # The well-formed ack behind the garbage proves the ack reader
            # survived it.
            deadline = time.monotonic() + 10
            while (
                "probe" not in publisher.watermarks()
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            # A publish wakes every sender, including one holding a
            # non-integer cursor had it been accepted.
            svc.add_facts([link("a", "b")]).result()
            links_dropped = [dropped(not_a_hello), dropped(bad_cursor)]
            client = ReplicationClient(server.address, target)
            assert client.wait_for_revision(svc.revision, timeout=30)
            assert target.facts == svc.facts
        finally:
            if client is not None:
                client.close()
            for peer in peers:
                peer.close()
            server.close()
            target.close()
            publisher.close()
            svc.close()
        assert not uncaught, [
            f"{hook.thread.name}: {hook.exc_value!r}" for hook in uncaught
        ]
        assert links_dropped == [True, True]
        assert "probe" in publisher.watermarks()
        assert "junk" not in publisher.watermarks()

    def test_late_joiner_bootstraps_from_snapshot(self):
        svc = service()
        svc.add_facts([link("a", "b"), link("b", "c")]).result()
        publisher = ReplicationPublisher(svc)
        server = ReplicationServer(publisher)
        target = replica(replica_id="tcp-late")
        client = ReplicationClient(server.address, target)
        try:
            assert client.wait_for_revision(svc.revision, timeout=30)
            assert target.snapshots_applied == 1
            assert target.facts == svc.facts
            assert target.read(QUERY)[1] == svc.answers(QUERY)
        finally:
            client.close()
            server.close()
            target.close()
            publisher.close()
            svc.close()

    def test_streams_deltas_and_acks_watermarks(self):
        svc = service()
        publisher = ReplicationPublisher(svc)
        server = ReplicationServer(publisher)
        target = replica(replica_id="tcp-stream")
        client = ReplicationClient(server.address, target)
        try:
            svc.add_facts([link("a", "b")]).result()
            svc.add_facts([link("b", "c")]).result()
            svc.remove_facts([link("a", "b")]).result()
            assert client.wait_for_revision(svc.revision, timeout=30)
            assert target.facts == svc.facts
            assert target.read(QUERY)[1] == oracle_answers(svc.facts)
            deadline = time.monotonic() + 10
            while (
                publisher.watermarks().get("tcp-stream") != svc.revision
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert publisher.watermarks()["tcp-stream"] == svc.revision
        finally:
            client.close()
            server.close()
            target.close()
            publisher.close()
            svc.close()

    def test_reconnect_resumes_without_double_apply(self):
        svc = service()
        publisher = ReplicationPublisher(svc)
        server = ReplicationServer(publisher)
        target = replica(replica_id="tcp-reconnect")
        try:
            svc.add_facts([link("a", "b")]).result()
            client = ReplicationClient(server.address, target)
            assert client.wait_for_revision(svc.revision, timeout=30)
            applied_before = target.records_applied
            client.close()  # drop the link; the replica keeps its state
            svc.add_facts([link("b", "c")]).result()
            svc.add_facts([link("c", "d")]).result()
            # Reconnect: hello carries the replica's watermark, so the
            # server resumes the delta stream — no second snapshot, and
            # anything overlapping is skipped, never applied twice.
            client = ReplicationClient(server.address, target)
            assert client.wait_for_revision(svc.revision, timeout=30)
            assert target.snapshots_applied == 1
            assert target.records_applied == applied_before + 2
            assert target.facts == svc.facts
            assert target.read(QUERY)[1] == svc.answers(QUERY)
            client.close()
        finally:
            server.close()
            target.close()
            publisher.close()
            svc.close()


# --------------------------------------------------------------------------
# multi-process battery
# --------------------------------------------------------------------------


WORKER = Path(__file__).parent / "replica_worker.py"


def _spawn_worker(address) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).parent.parent / "src")
    env["PYTHONFAULTHANDLER"] = "1"
    return subprocess.Popen(
        [sys.executable, str(WORKER), address[0], str(address[1])],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=env,
        text=True,
    )


def _ask(worker: subprocess.Popen, command: dict) -> dict:
    worker.stdin.write(json.dumps(command) + "\n")
    worker.stdin.flush()
    line = worker.stdout.readline()
    assert line, "replica worker died mid-command"
    return json.loads(line)


class TestMultiProcess:
    def test_replica_process_kill_and_restart_resyncs_exactly_once(self):
        svc = service()
        svc.add_facts([link("a", "b"), link("b", "c")]).result()
        publisher = ReplicationPublisher(svc)
        server = ReplicationServer(publisher)
        worker = None
        try:
            worker = _spawn_worker(server.address)
            state = _ask(worker, {"op": "wait", "revision": svc.revision})
            assert state["revision"] == svc.revision
            assert state["snapshots"] == 1  # bootstrapped exactly once
            first = _ask(worker, {"op": "query"})
            assert first["answers"] == sorted(
                str(row[0]) for row in oracle_answers(svc.facts)
            )
            # SIGKILL: no cleanup, no goodbye — the hard crash case.
            worker.kill()
            worker.wait(timeout=30)
            svc.add_facts([link("c", "d")]).result()
            svc.remove_facts([link("a", "b")]).result()
            # A fresh process joins with no state: exactly one snapshot
            # resync, then deltas; revision-skip makes any server overlap
            # harmless (no double-apply).
            worker = _spawn_worker(server.address)
            state = _ask(worker, {"op": "wait", "revision": svc.revision})
            assert state["revision"] == svc.revision
            assert state["snapshots"] == 1
            assert state["applied"] + state["skipped"] >= 0  # sanity
            answers = _ask(worker, {"op": "query"})["answers"]
            assert answers == sorted(
                str(row[0]) for row in oracle_answers(svc.facts)
            )
            facts = _ask(worker, {"op": "facts"})["count"]
            assert facts == len(svc.facts)
            _ask(worker, {"op": "exit"})
            worker.wait(timeout=30)
            worker = None
        finally:
            if worker is not None:
                worker.kill()
                worker.wait(timeout=30)
            server.close()
            publisher.close()
            svc.close()
