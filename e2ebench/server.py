"""Server helper: the system under test for the serving workloads.

Runs a durable ``DatalogService`` (fsync on, default checkpoint cadence)
over the seed facts in ``--facts``, behind ``serve_http``, with a
``ReplicationPublisher`` and a ``ReplicationServer``.  Prints one JSON line
with its addresses, then obeys JSON commands on stdin (see
:func:`common.serve_commands`):

``mark``    snapshot the metrics registry; ``report`` diffs against it
``trace``   install the outside-in layer timers and a program tracer
``report``  facts, revision, peak RSS, counter deltas, layer timings
``stop``    close everything and exit

Run it only from ``run.py``; it is not a user-facing command.
"""

from __future__ import annotations

import argparse
import sys
import threading
import time

from common import (
    RULES_TEXT,
    WRITE_PATH,
    Layers,
    peak_rss_mb,
    send,
    serve_commands,
    use_source_tree,
)

#: registry counters reported as interval deltas since ``mark``
COUNTERS = (
    "service_reads_served",
    "service_read_cache_hits",
    "service_epochs_published",
    "service_batches_applied",
    "service_batches_coalesced",
    "service_wal_bytes",
    "service_wal_records",
    "service_checkpoints",
    "service_replication_frames",
    "service_replication_bytes",
    "service_notifications_sent",
    "service_subscription_gaps",
    "session_answer_hits",
    "session_answer_misses",
    "session_answers_repaired",
    "session_invalidations",
)


class Server:
    def __init__(self, store: str, facts_path: str, plant_wrong: bool) -> None:
        from repro import parse_database, parse_program
        from repro.obs import global_registry
        from repro.service import DatalogService
        from repro.service.net import (
            ReplicationPublisher,
            ReplicationServer,
            serve_http,
        )

        with open(facts_path) as handle:
            database = parse_database(handle.read())
        self.registry = global_registry()
        self.service = DatalogService(
            database, parse_program(RULES_TEXT), durability=store
        )
        self.http = serve_http(self.service)
        self.publisher = ReplicationPublisher(self.service)
        self.replication = ReplicationServer(self.publisher)
        self.layers = None
        self.tracer = None
        self.mark_snapshot = self.registry.snapshot()
        if plant_wrong:
            self._plant_wrong_answer()

    def address(self) -> dict:
        return {
            "http": list(self.http.address),
            "replication": list(self.replication.address),
        }

    def _plant_wrong_answer(self) -> None:
        """Self-test hook: every 25th read loses one answer tuple."""
        read = self.service.read
        counter = iter(range(1, 1 << 62))

        def wrong(query):
            revision, answers = read(query)
            if next(counter) % 25 == 0 and answers:
                answers = frozenset(sorted(answers, key=str)[1:])
            return revision, answers

        self.service.read = wrong

    # --------------------------------------------------------------- commands
    def mark(self) -> None:
        self.mark_snapshot = self.registry.snapshot()

    def trace(self) -> None:
        """Install wrappers on the live objects and the program's classes."""
        from repro.engine.maintenance import MaterializedView
        from repro.obs import Tracer, use_tracer
        from repro.query import QuerySession
        from repro.service import DurabilityManager
        from repro.service.net import replication
        from repro.service.subscriptions import SubscriptionRegistry

        layers = self.layers = Layers()
        self.reads = []  # (cache hit?, seconds) per read
        self.windows = []  # (enqueued, future resolved) per write
        self.statuses = {}
        self.checkpoint_bytes = 0
        lock = threading.Lock()

        handler = self.http.RequestHandlerClass
        send_response = handler.send_response

        def counted_send_response(request, code, message=None):
            with lock:
                self.statuses[code] = self.statuses.get(code, 0) + 1
            return send_response(request, code, message)

        layers.install(handler, "send_response", counted_send_response)

        # The HTTP query handler calls DatalogService.read (revision and
        # answers from one pinned epoch).
        read = self.service.read

        def timed_read(query):
            hit = self.service.epoch().cached(query) is not None
            t0 = time.perf_counter()
            try:
                return read(query)
            finally:
                elapsed = time.perf_counter() - t0
                with lock:
                    self.reads.append((hit, elapsed))

        layers.install(self.service, "read", timed_read)

        for verb in ("add_facts", "remove_facts"):
            layers.install(self.service, verb, self._timed_mutation(verb, lock))

        layers.patch(DurabilityManager, "log_batch", "durability.log_batch")
        checkpoint = DurabilityManager.checkpoint

        def measured_checkpoint(manager, **kwargs):
            sequence = checkpoint(manager, **kwargs)
            written = manager.store.directory / f"checkpoint-{sequence:010d}.ckpt"
            with lock:
                self.checkpoint_bytes += written.stat().st_size
            return sequence

        layers.install(DurabilityManager, "checkpoint", measured_checkpoint)
        layers.patch(DurabilityManager, "checkpoint", "durability.checkpoint")
        layers.patch(QuerySession, "apply_batch", "session.apply_batch")
        layers.patch(QuerySession, "answers", "session.warm_answers")
        layers.patch(QuerySession, "epoch", "session.epoch_export")
        layers.patch(QuerySession, "export_warm_state", "session.export_warm_state")
        layers.patch(QuerySession, "drain_standing_deltas", "session.drain_deltas")
        layers.patch(QuerySession, "drain_fact_deltas", "session.drain_deltas")
        layers.patch(MaterializedView, "apply_delta", "engine.view_repair")
        layers.patch(replication, "encode_delta", "replication.encode")
        layers.patch(SubscriptionRegistry, "fan_out", "subscriptions.fan_out")

        self.tracer = Tracer(capacity=1 << 16)
        self.tracing = use_tracer(self.tracer)
        self.tracing.__enter__()
        self.mark()

    def _timed_mutation(self, verb: str, lock):
        original = getattr(self.service, verb)

        def timed(atoms):
            t0 = time.perf_counter()
            future = original(atoms)

            def resolved(_future):
                window = (t0, time.perf_counter())
                with lock:
                    self.windows.append(window)

            future.add_done_callback(resolved)
            return future

        return timed

    def report(self, facts: bool = False) -> dict:
        snapshot = self.registry.snapshot()
        delta = snapshot.diff(self.mark_snapshot)
        reply = {
            "revision": self.service.revision,
            "peak_rss_mb": peak_rss_mb(),
            "counters": {name: delta.get(name) for name in COUNTERS},
            "queue_high_water": snapshot.get("service_queue_high_water"),
        }
        if facts:
            reply["facts"] = sorted(str(atom) for atom in self.service.facts)
        if self.layers is not None:
            spans = {}
            for span in self.tracer.spans():
                entry = spans.setdefault(span.name, [0, 0.0])
                entry[0] += 1
                entry[1] += (span.wall_s or 0.0) * 1e3
            reply.update(
                layers=self.layers.table(),
                calls={name: self.layers.calls.get(name, []) for name in WRITE_PATH},
                reads=self.reads,
                windows=self.windows,
                statuses=self.statuses,
                checkpoint_bytes=self.checkpoint_bytes,
                spans=spans,
            )
        return reply

    def stop(self) -> None:
        if self.layers is not None:
            self.layers.restore()
            self.tracing.__exit__(None, None, None)
        self.http.close()
        # ReplicationServer.close() is not called: closing its listener does
        # not wake the accept thread, so close() spends its full 5 s join
        # timeout.  The process exits right after this; that releases the
        # sockets, and the replica sees end-of-stream.
        self.publisher.close()
        self.service.close()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--facts", required=True)
    parser.add_argument("--plant-wrong", action="store_true")
    args = parser.parse_args()
    use_source_tree()
    server = Server(args.store, args.facts, args.plant_wrong)
    send(sys.stdout, server.address())
    serve_commands(
        {
            "mark": server.mark,
            "trace": server.trace,
            "report": server.report,
            "stop": server.stop,
        }
    )


if __name__ == "__main__":
    main()
