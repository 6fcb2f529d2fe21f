"""Replica helper: one ``Replica`` fed by a ``ReplicationClient`` over TCP.

Connects to the replication address given as ``--address host:port``,
prints one JSON line once the client is running, then obeys JSON commands
on stdin:

``wait``    block until the replica applied a revision (or a timeout)
``report``  facts, applied revisions with their CLOCK_MONOTONIC instants,
            apply durations and the replica's public counters
``stop``    close the client and the replica, then exit

Every applied record is timed by a wrapper installed on the live
``Replica.apply_record``.  ``time.monotonic`` is CLOCK_MONOTONIC on Linux,
one clock for every process on the machine, so the generator compares these
instants with its own send instants to get write-to-replica visibility.

Run it only from ``run.py``; it is not a user-facing command.
"""

from __future__ import annotations

import argparse
import sys
import time

from common import RULES_TEXT, send, serve_commands, use_source_tree


class ReplicaHelper:
    def __init__(self, host: str, port: int) -> None:
        from repro import parse_program
        from repro.service.net import Replica, ReplicationClient

        self.replica = Replica(parse_program(RULES_TEXT))
        #: (revision, monotonic instant applied, seconds spent applying)
        self.applied = []
        apply_record = self.replica.apply_record

        def timed_apply(record):
            t0 = time.monotonic()
            outcome = apply_record(record)
            t1 = time.monotonic()
            self.applied.append((record["revision"], t1, t1 - t0))
            return outcome

        self.replica.apply_record = timed_apply
        self.client = ReplicationClient((host, port), self.replica)

    def wait(self, revision: int, within: float) -> dict:
        reached = self.client.wait_for_revision(revision, within)
        return {"reached": reached, "applied": self.replica.applied_revision}

    def report(self, facts: bool = False) -> dict:
        reply = {
            "applied": self.applied,
            "applied_revision": self.replica.applied_revision,
            "records_skipped": self.replica.records_skipped,
            "snapshots": self.replica.snapshots_applied,
        }
        if facts:
            reply["facts"] = sorted(str(atom) for atom in self.replica.facts)
        return reply

    def stop(self) -> None:
        self.client.close()
        self.replica.close()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--address", required=True)
    args = parser.parse_args()
    use_source_tree()
    host, port = args.address.rsplit(":", 1)
    helper = ReplicaHelper(host, int(port))
    send(sys.stdout, {"ready": True})
    serve_commands(
        {
            "wait": helper.wait,
            "report": helper.report,
            "stop": helper.stop,
        }
    )


if __name__ == "__main__":
    main()
