"""End-to-end benchmark of the serving stack and the paper's reasoning jobs.

Usage (from the root of a checkout)::

    python3 e2ebench/run.py --workload serve-write --seed 1 --seconds 30 --trace 0

Every run deploys the system under test in its own processes -- a durable
``DatalogService`` behind ``serve_http`` with a ``ReplicationServer``
(``server.py``) and one replica (``replica.py``) -- and drives it from this
process, the load generator, over two connections: one closed-loop request
connection (the next request goes out only after the previous reply) and one
subscriber connection long-polling one HTTP subscription.  The workload picks
the traffic mix.  Every reply, the final fact bases and the subscriber's fold
are checked against oracles; any mismatch is a failed op and the run exits 1.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` splits the timed
loop into an untraced and a traced half, installs the outside-in layer timers
for the second half, then stops the deployment and runs the paper's reasoning
jobs (``reason.py``, each checked against its oracle) untraced and traced; it
prints the per-layer metrics, the write-path layer table and the tracing
overhead.  ``--smoke`` is a few-second run for the self-test;
``--plant-wrong`` plants wrong answers that the oracles must catch.

The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
See ``README.md`` for the metric catalogue and the reasons behind each
workload.
"""

from __future__ import annotations

import argparse
import http.client
import json
import queue
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time

from common import (
    CHAINS,
    HERE,
    LENGTH,
    SUBSCRIBED_QUERY,
    WORK,
    WRITE_PATH,
    LinkModel,
    WriteStream,
    ZipfKeys,
    base_facts,
    beyond,
    percentile,
    reach_query,
    self_time_within,
    send,
    use_source_tree,
)

#: read share, read keys (the first *starts* nodes of every chain) and the
#: Zipf exponent of the key popularity of each workload
WORKLOADS = {
    "serve-write": {"read_share": 0.30, "starts": 1, "zipf": 0.0},
    "serve-read": {"read_share": 0.80, "starts": LENGTH, "zipf": 1.0},
}
SETUPS = 3
WARM_READS = 72
REASON_REPS = 3
REQUEST_TIMEOUT_S = 30.0
POLL_TIMEOUT_S = 0.5

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "write_ack_p50_ms": "ms",
    "read_p50_ms": "ms",
    "read_p90_ms": "ms",
    "notify_p50_ms": "ms",
    "server_peak_rss_mb": "MB",
}
#: measured in every run but reported per-layer: these are CPU time with no
#: HTTP stall to dilute it, and CPU speed on a shared host drifts between
#: runs by more than any bound allowed here (see README.md)
CPU_BOUND = ("replica_visible_p50_ms",)
REASONING = ("sms_s", "closure_s", "chase_s")
#: per-layer metrics of the traced run (see README.md for what each should
#: move); obs.tracing_overhead.<metric> exists for every timed end-to-end one
PER_LAYER = {
    "http.overhead_p50_ms": "ms",
    "http.requests": "count",
    "http.errors": "count",
    "service.enqueue_to_ack_p50_ms": "ms",
    "service.read_hit_ratio": "ratio",
    "service.read_miss_p50_ms": "ms",
    "service.epochs_per_write": "ratio",
    "service.batches_coalesced": "count",
    "service.queue_high_water": "count",
    "durability.log_batch_p50_ms": "ms",
    "durability.checkpoint_ms": "ms",
    "durability.checkpoints": "count",
    "durability.bytes_per_user_byte": "ratio",
    "session.apply_batch_p50_ms": "ms",
    "session.warm_answers_ms": "ms",
    "session.answers_repaired": "count",
    "session.invalidations": "count",
    "session.answer_hit_ratio": "ratio",
    "engine.view_repair_p50_ms": "ms",
    "engine.fixpoint_s": "s",
    "engine.us_per_derived_tuple": "us",
    "session.cold_over_fixpoint": "ratio",
    "engine.triggers_fired": "count",
    "subscriptions.fan_out_p50_ms": "ms",
    "subscriptions.notifications": "count",
    "subscriptions.gaps": "count",
    "replication.frames": "count",
    "replication.frame_bytes": "bytes",
    "replica.apply_p50_ms": "ms",
    "replica.visible_p50_ms": "ms",
    "replica.snapshots": "count",
    "replica.records_skipped": "count",
    "stable.generate_s": "s",
    "stable.check_s": "s",
    "stable.states_visited": "count",
    "stable.moves_explored": "count",
    "stable.candidates": "count",
    "stable.stable_per_candidate": "ratio",
    "lp.stable_models_s": "s",
    "chase.atoms_per_s": "1/s",
    "chase.atoms": "count",
    **{f"reason.{name}": "s" for name in REASONING},
    "writepath.attributed_share": "ratio",
    "writepath.unattributed_ms": "ms",
    **{
        f"obs.tracing_overhead.{name}": "ratio"
        for name in (*END_TO_END, *CPU_BOUND, *REASONING)
        if name not in ("setup_s", "server_peak_rss_mb")
    },
}
#: tails printed in the report (with how many samples lie beyond them), not
#: gated: a minority op of one workload never has ten samples beyond its p95
REPORTED_TAILS = ("write_ack", "read", "replica_visible", "notify")


# ------------------------------------------------------------------ helpers
class Helper:
    """A helper process spoken to in JSON lines over its stdin/stdout."""

    def __init__(self, argv: list) -> None:
        self.process = subprocess.Popen(
            [sys.executable, *argv],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=str(HERE),
        )
        self.lines: "queue.Queue[str | None]" = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        for line in self.process.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def receive(self, timeout: float = 60.0) -> dict:
        try:
            line = self.lines.get(timeout=timeout)
        except queue.Empty:
            raise RuntimeError(f"{self.process.args[1]}: no reply") from None
        if line is None:
            raise RuntimeError(
                f"{self.process.args[1]} exited ({self.process.wait()})"
            )
        return json.loads(line)

    def call(self, cmd: str, timeout: float = 60.0, **args) -> dict:
        send(self.process.stdin, {"cmd": cmd, **args})
        return self.receive(timeout)

    def stop(self) -> None:
        """Ask the helper to stop; kill it if it does not, and reap it."""
        if self.process.poll() is None:
            try:
                self.call("stop", timeout=30)
            except (RuntimeError, OSError):
                pass
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdin.close()
        self.reader.join(5)
        self.process.stdout.close()


class Client:
    """One keep-alive HTTP connection (http.client, no socket tuning)."""

    def __init__(self, address) -> None:
        self.address = tuple(address)
        self.connection = http.client.HTTPConnection(
            *self.address, timeout=REQUEST_TIMEOUT_S
        )

    def request(self, method: str, path: str, body=None):
        """``(status, payload)``; raises OSError / HTTPException on failure,
        after dropping the connection so the next request reconnects."""
        data = None if body is None else json.dumps(body)
        headers = {} if body is None else {"Content-Type": "application/json"}
        try:
            self.connection.request(method, path, data, headers)
            response = self.connection.getresponse()
            return response.status, json.loads(response.read())
        except (OSError, http.client.HTTPException, ValueError):
            self.connection.close()
            raise

    def close(self) -> None:
        self.connection.close()


class Subscriber(threading.Thread):
    """Long-polls one subscription and keeps every item it receives."""

    def __init__(self, address, token: str) -> None:
        super().__init__(daemon=True)
        self.client = Client(address)
        self.path = f"/v1/subscriptions/{token}?timeout={POLL_TIMEOUT_S}"
        self.items = []  # (monotonic instant received, payload)
        self.errors = 0
        self.stopping = threading.Event()
        self.seen = threading.Condition()
        self.last_revision = -1

    def run(self) -> None:
        while not self.stopping.is_set():
            try:
                status, payload = self.client.request("GET", self.path)
            except (OSError, http.client.HTTPException, ValueError):
                self.errors += 1
                time.sleep(POLL_TIMEOUT_S)
                continue
            received = time.monotonic()
            if status != 200:
                self.errors += 1
                continue
            if payload.get("timeout"):
                continue
            if payload.get("ended"):
                return
            with self.seen:
                self.items.append((received, payload))
                self.last_revision = payload["revision"]
                self.seen.notify_all()

    def wait_for(self, revision: int, timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        with self.seen:
            while self.last_revision < revision:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self.seen.wait(remaining)
        return True

    def finish(self) -> None:
        self.stopping.set()
        self.join(REQUEST_TIMEOUT_S)
        self.client.close()


class Deployment:
    """Server and replica processes plus the generator's two connections."""

    def __init__(self, store, facts_path, plant_wrong: bool) -> None:
        self.server = self.replica = None
        self.requests = self.subscriber = None
        argv = [str(HERE / "server.py"), "--store", str(store)]
        argv += ["--facts", str(facts_path)]
        if plant_wrong:
            argv.append("--plant-wrong")
        try:
            self.server = Helper(argv)
            addresses = self.server.receive()
            host, port = addresses["replication"]
            self.replica = Helper(
                [str(HERE / "replica.py"), "--address", f"{host}:{port}"]
            )
            self.replica.receive()
            self.http_address = addresses["http"]
            self.requests = Client(self.http_address)
            status, payload = self.requests.request(
                "POST", "/v1/subscribe", {"query": SUBSCRIBED_QUERY}
            )
            if status != 200:
                raise RuntimeError(f"subscribe answered {status}: {payload}")
            self.subscription = payload
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        if self.subscriber is not None and self.subscriber.is_alive():
            self.subscriber.finish()
        if self.requests is not None:
            self.requests.close()
        for helper in (self.replica, self.server):
            if helper is not None:
                helper.stop()


# ----------------------------------------------------------------- the run
class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons = {}

    def op(self, ok: bool, reason: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.fail(reason)
        return ok

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1


class ServingRun:
    """Set-up, the timed loop and the final checks of one serving run."""

    def __init__(self, args, tally: Tally) -> None:
        self.args = args
        self.tally = tally
        self.workload = WORKLOADS[args.workload]
        self.rng = random.Random(args.seed)
        starts = self.workload["starts"]
        self.keys = ZipfKeys(
            self.rng,
            [(c, i) for c in range(CHAINS) for i in range(starts)],
            self.workload["zipf"],
        )
        #: the most popular keys are read once during set-up
        self.warm_keys = self.keys.keys[:WARM_READS]
        self.reads = []  # (rtt seconds, traced?)
        self.writes = []  # dict per acknowledged write

    # -------------------------------------------------------------- set-up
    def set_up(self, run_dir, setups: int):
        facts_path = run_dir / "facts.dl"
        facts_path.write_text("".join(f"{fact}.\n" for fact in base_facts()))
        durations = []
        deployment = None
        for attempt in range(setups):
            if deployment is not None:
                deployment.close()
            t0 = time.perf_counter()
            deployment = Deployment(
                run_dir / f"store{attempt}", facts_path, self.args.plant_wrong
            )
            try:
                self.warm(deployment)
            except BaseException:
                deployment.close()
                raise
            durations.append(time.perf_counter() - t0)
        return deployment, durations

    def warm(self, deployment: Deployment) -> None:
        """Warm reads, one empty write that publishes the warmed answers,
        and the replica caught up with the resulting revision."""
        subscription = deployment.subscription
        self.model = LinkModel(subscription["revision"])
        for chain, start in self.warm_keys:
            self.read(deployment, chain, start, sample=False)
        status, payload = deployment.requests.request(
            "POST", "/v1/add", {"facts": []}
        )
        if status != 200:
            raise RuntimeError(f"warm-up flush answered {status}: {payload}")
        self.model.commit(payload["revision"], self.model.alive)
        reply = deployment.replica.call(
            "wait", revision=payload["revision"], within=30, timeout=40
        )
        if not reply["reached"]:
            raise RuntimeError("replica did not bootstrap within 30 s")

    # ---------------------------------------------------------------- ops
    def read(self, deployment, chain, start, traced=False, sample=True):
        query = reach_query(chain, start)
        t0 = time.monotonic()
        try:
            status, payload = deployment.requests.request(
                "POST", "/v1/query", {"query": query}
            )
        except (OSError, http.client.HTTPException, ValueError) as error:
            self.tally.op(False, f"read: {type(error).__name__}")
            return
        rtt = time.monotonic() - t0
        if status != 200:
            self.tally.op(False, f"read: HTTP {status}")
            return
        expected = self.model.answers(chain, start, payload["revision"])
        got = {row[0] for row in payload["answers"]}
        self.tally.op(got == expected, "read: wrong answers")
        if sample:
            self.reads.append((rtt, traced))

    def write(self, deployment, stream: WriteStream, traced=False) -> None:
        kind, facts, after, notifies = stream.next()
        t0 = time.monotonic()
        try:
            status, payload = deployment.requests.request(
                "POST", f"/v1/{kind}", {"facts": facts}
            )
        except (OSError, http.client.HTTPException, ValueError) as error:
            self.tally.op(False, f"write: {type(error).__name__}")
            return
        rtt = time.monotonic() - t0
        key = "added" if kind == "add" else "removed"
        ok = (
            status == 200
            and payload.get(key) == len(facts)
            and payload.get("revision") == self.model.revision + 1
        )
        if not self.tally.op(ok, f"write: HTTP {status} {payload}"):
            return
        self.model.commit(payload["revision"], after)
        self.writes.append(
            {
                "sent": t0,
                "rtt": rtt,
                "revision": payload["revision"],
                "notifies": notifies,
                "traced": traced,
                "user_bytes": sum(len(fact) for fact in facts),
            }
        )

    # ---------------------------------------------------------- timed loop
    def loop(self, deployment, seconds: float, on_half=None) -> float:
        """Run the closed loop for *seconds*; *on_half* is called once at
        the half-way point (the traced run installs its timers there)."""
        stream = WriteStream(self.rng, self.model)
        read_share = self.workload["read_share"]
        start = time.monotonic()
        half = start + seconds / 2
        deadline = start + seconds
        traced = False
        while True:
            now = time.monotonic()
            if now >= deadline:
                break
            if on_half is not None and not traced and now >= half:
                on_half()
                traced = True
            if self.rng.random() < read_share:
                chain, first = self.keys.draw()
                self.read(deployment, chain, first, traced)
            else:
                self.write(deployment, stream, traced)
        return time.monotonic() - start

    # -------------------------------------------------------------- checks
    def finish(self, deployment) -> dict:
        """Final oracles; returns the helpers' reports."""
        final = self.model.revision
        notifying = [w["revision"] for w in self.writes if w["notifies"]]
        subscriber = deployment.subscriber
        if notifying:
            subscriber.wait_for(notifying[-1], 10.0)
        subscriber.finish()
        deployment.replica.call("wait", revision=final, within=20, timeout=30)
        replica = deployment.replica.call("report", facts=True)
        server = deployment.server.call("report", facts=True)
        expected = {fact.replace(" ", "") for fact in self.model.facts()}
        self.tally.op(set(server["facts"]) == expected, "server facts")
        self.tally.op(set(replica["facts"]) == expected, "replica facts")
        self.check_subscription(deployment.subscription, subscriber, final)

        applied = {}
        for revision, instant, _ in replica["applied"]:
            applied.setdefault(revision, instant)
        received = {
            payload["revision"]: instant
            for instant, payload in subscriber.items
        }
        for write in self.writes:
            seen = applied.get(write["revision"])
            if seen is None:
                self.tally.fail("replica never applied a write")
            else:
                write["replica_visible"] = seen - write["sent"]
            if write["notifies"]:
                got = received.get(write["revision"])
                if got is None:
                    self.tally.fail("subscriber never notified of a write")
                else:
                    write["notify"] = got - write["sent"]
        return {"server": server, "replica": replica}

    def check_subscription(self, snapshot, subscriber, final) -> None:
        state = {row[0] for row in snapshot["answers"]}
        revision = snapshot["revision"]
        gaps = 0
        ordered = True
        for _, item in subscriber.items:
            ordered &= item["revision"] > revision
            revision = item["revision"]
            if item["gap"]:
                gaps += 1
                state = {row[0] for row in item["resync"]}
            else:
                state -= {row[0] for row in item["removed"]}
                state |= {row[0] for row in item["added"]}
        self.tally.op(
            state == self.model.answers(0, 0, final)
            and gaps == 0
            and ordered
            and subscriber.errors == 0,
            "subscription fold",
        )


# ------------------------------------------------------------------ metrics
def p(values, q: int) -> float:
    return percentile(values, q) * 1e3 if values else 0.0


def serving_metrics(run: ServingRun, elapsed: float, traced: bool) -> dict:
    """End-to-end serving metrics over the ops of one half (or all)."""
    reads = [rtt for rtt, t in run.reads if t == traced]
    writes = [w for w in run.writes if w["traced"] == traced]
    acks = [w["rtt"] for w in writes]
    visible = [w["replica_visible"] for w in writes if "replica_visible" in w]
    notify = [w["notify"] for w in writes if "notify" in w]
    return {
        "ops_per_s": (len(reads) + len(writes)) / elapsed,
        "write_ack_p50_ms": p(acks, 50),
        "read_p50_ms": p(reads, 50),
        "read_p90_ms": p(reads, 90),
        "replica_visible_p50_ms": p(visible, 50),
        "notify_p50_ms": p(notify, 50),
        "_samples": {
            "write_ack": acks,
            "read": reads,
            "replica_visible": visible,
            "notify": notify,
        },
    }


def run_reasoning(jobs, reps: int, tally: Tally, trace=None) -> dict:
    times = {"sms_s": [], "closure_s": [], "chase_s": []}
    atoms = 0
    for _ in range(reps):
        for name, job in (
            ("sms_s", jobs.sms),
            ("closure_s", jobs.closure),
            ("chase_s", jobs.chase),
        ):
            t0 = time.perf_counter()
            if name == "sms_s":
                result = job(trace.layers if trace is not None else None)
            else:
                result = job()
            times[name].append(time.perf_counter() - t0)
            if name == "chase_s":
                result, atoms = result
            for failure in result:
                tally.fail(failure)
            tally.attempted += 1
    metrics = {name: statistics.median(values) for name, values in times.items()}
    metrics["_chase_atoms"] = atoms
    return metrics


def per_layer(run, reports, untraced, traced, reason_plain, reason_traced,
              trace, jobs) -> tuple:
    """The per-layer metrics of a traced run, and the write-path table."""
    server, replica = reports["server"], reports["replica"]
    counters = server["counters"]
    layers = server["layers"]
    writes = [w for w in run.writes if w["traced"]]
    write_rtts = [w["rtt"] for w in writes]
    reads = [rtt for rtt, t in run.reads if t]
    n_writes = max(1, len(writes))

    def layer_p50(name):
        return layers[name]["p50_ms"] if name in layers else 0.0

    def layer_total(name):
        return layers[name]["total_ms"] if name in layers else 0.0

    # HTTP overhead: client RTT minus the server-side backend call, paired
    # in order (one closed-loop request connection).
    windows = server["windows"]
    server_writes = [end - start for start, end in windows]
    server_reads = [seconds for _, seconds in server["reads"]]
    overheads = [rtt - call for rtt, call in zip(write_rtts, server_writes)]
    overheads += [rtt - call for rtt, call in zip(reads, server_reads)]
    misses = [seconds for hit, seconds in server["reads"] if not hit]
    statuses = {int(code): count for code, count in server["statuses"].items()}
    traced_since = min((w["revision"] for w in writes), default=None)
    applies = [
        seconds
        for revision, _, seconds in replica["applied"]
        if traced_since is not None and revision >= traced_since
    ]
    user_bytes = sum(w["user_bytes"] for w in writes)
    answers = counters["session_answer_hits"] + counters["session_answer_misses"]
    gen = trace.counters()
    fixpoint_s, fixpoint_stats = jobs.fixpoint()
    overhead = {}
    for name in PER_LAYER:
        if not name.startswith("obs.tracing_overhead."):
            continue
        name = name[len("obs.tracing_overhead."):]
        before = {**untraced, **reason_plain}[name]
        after = {**traced, **reason_traced}[name]
        if name == "ops_per_s":
            before, after = after, before  # fewer ops per second is worse
        overhead[f"obs.tracing_overhead.{name}"] = (
            after / before - 1.0 if before else 0.0
        )

    # Write-path table: per layer, the self time that fell inside the
    # writes' enqueue-to-ack windows (work between writes, such as the tail
    # of a checkpoint, counts only where a write waited for it).
    http_ms = sum(rtt - call for rtt, call in zip(write_rtts, server_writes))
    rows = [("http (client RTT - enqueue-to-ack)", len(writes), http_ms * 1e3)]
    for name in WRITE_PATH:
        calls = server["calls"][name]
        if calls:
            rows.append(
                (name, len(calls), self_time_within(calls, windows) * 1e3)
            )
    total_ms = sum(write_rtts) * 1e3
    attributed_ms = sum(row[2] for row in rows)
    metrics = {
        "http.overhead_p50_ms": p(overheads, 50),
        "http.requests": sum(statuses.values()),
        "http.errors": sum(c for code, c in statuses.items() if code >= 400),
        "service.enqueue_to_ack_p50_ms": p(server_writes, 50),
        "service.read_hit_ratio": counters["service_read_cache_hits"]
        / max(1, counters["service_reads_served"]),
        "service.read_miss_p50_ms": p(misses, 50),
        "service.epochs_per_write": counters["service_epochs_published"]
        / n_writes,
        "service.batches_coalesced": counters["service_batches_coalesced"],
        "service.queue_high_water": server["queue_high_water"],
        "durability.log_batch_p50_ms": layer_p50("durability.log_batch"),
        "durability.checkpoint_ms": layer_p50("durability.checkpoint"),
        "durability.checkpoints": counters["service_checkpoints"],
        "durability.bytes_per_user_byte": (
            counters["service_wal_bytes"] + server["checkpoint_bytes"]
        )
        / max(1, user_bytes),
        "session.apply_batch_p50_ms": layer_p50("session.apply_batch"),
        "session.warm_answers_ms": layer_total("session.warm_answers") / n_writes,
        "session.answers_repaired": counters["session_answers_repaired"],
        "session.invalidations": counters["session_invalidations"],
        "session.answer_hit_ratio": counters["session_answer_hits"]
        / max(1, answers),
        "engine.view_repair_p50_ms": layer_p50("engine.view_repair"),
        "engine.fixpoint_s": fixpoint_s,
        "engine.us_per_derived_tuple": fixpoint_s
        * 1e6
        / max(1, fixpoint_stats.tuples_derived),
        "session.cold_over_fixpoint": reason_plain["closure_s"] / fixpoint_s,
        "engine.triggers_fired": fixpoint_stats.triggers_fired,
        "subscriptions.fan_out_p50_ms": layer_p50("subscriptions.fan_out"),
        "subscriptions.notifications": counters["service_notifications_sent"],
        "subscriptions.gaps": counters["service_subscription_gaps"],
        "replication.frames": counters["service_replication_frames"],
        "replication.frame_bytes": counters["service_replication_bytes"],
        "replica.apply_p50_ms": p(applies, 50),
        "replica.visible_p50_ms": traced["replica_visible_p50_ms"],
        "replica.snapshots": replica["snapshots"],
        "replica.records_skipped": replica["records_skipped"],
        "stable.generate_s": trace.layers.total_s("stable.generate"),
        "stable.check_s": trace.layers.total_s("stable.check"),
        "stable.states_visited": gen["states_visited"],
        "stable.moves_explored": gen["moves_explored"],
        "stable.candidates": gen["candidates"],
        "stable.stable_per_candidate": gen["stable"] / max(1, gen["candidates"]),
        "lp.stable_models_s": trace.layers.total_s("lp.stable_models"),
        "chase.atoms_per_s": reason_traced["_chase_atoms"]
        / reason_traced["chase_s"],
        "chase.atoms": reason_traced["_chase_atoms"],
        **{f"reason.{name}": reason_plain[name] for name in REASONING},
        "writepath.attributed_share": attributed_ms / total_ms if total_ms else 0.0,
        "writepath.unattributed_ms": (total_ms - attributed_ms) / n_writes,
        **overhead,
    }
    table = {
        "rows": rows,
        "writes": len(writes),
        "total_ms": total_ms,
        "attributed_ms": attributed_ms,
        "spans": server["spans"],
    }
    return metrics, table


# ------------------------------------------------------------------ report
def print_report(args, metrics, units, samples, tally, table=None) -> None:
    print(f"e2ebench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:14.4f} {units[name]}")
    for kind in REPORTED_TAILS:
        values = samples.get(kind, [])
        if not values:
            print(f"  {kind:<12} no samples")
            continue
        p50, p95 = percentile(values, 50), percentile(values, 95)
        over = beyond(values, p95)
        print(
            f"  {kind:<16} n={len(values):<5} p50={p50 * 1e3:9.2f} ms "
            f"p95={p95 * 1e3:9.2f} ms ({over} beyond p95"
            f"{'' if over >= 10 else ': too few, p95 not valid'})"
        )
    print(f"  failed_share {tally.failed / max(1, tally.attempted):.4f} "
          f"({tally.failed} of {tally.attempted} ops)")
    for reason, count in sorted(tally.reasons.items()):
        print(f"    failed: {reason} x{count}")
    if table is not None:
        print(f"  write path, traced half: {table['writes']} writes, "
              f"{table['total_ms']:.1f} ms of client-observed write time")
        print(f"    {'layer':<36} {'calls':>7} {'self ms':>10} {'ms/write':>9}")
        writes = max(1, table["writes"])
        for name, count, self_ms in table["rows"]:
            print(f"    {name:<36} {count:7d} {self_ms:10.1f} "
                  f"{self_ms / writes:9.3f}")
        rest = table["total_ms"] - table["attributed_ms"]
        print(f"    {'unattributed (queue wake, drain bookkeeping)':<36} "
              f"{'':7} {rest:10.1f} {rest / writes:9.3f}")
        print("    program spans (cross-check):")
        for name, (count, total) in sorted(table["spans"].items()):
            print(f"      {name:<34} {count:7d} {total:10.1f} ms")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one set-up and one reasoning rep (self-test)")
    parser.add_argument("--plant-wrong", action="store_true",
                        help="plant wrong answers the oracles must catch")
    args = parser.parse_args()
    use_source_tree()
    from reason import Jobs, ReasonTrace

    tally = Tally()
    run = ServingRun(args, tally)
    run_dir = WORK / f"run-{args.workload}-{args.seed}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    setups = 1 if args.smoke else SETUPS
    reps = 1 if args.smoke else REASON_REPS
    deployment = None
    try:
        deployment, setup_times = run.set_up(run_dir, setups)
        deployment.subscriber = Subscriber(
            deployment.http_address, deployment.subscription["subscription"]
        )
        deployment.subscriber.start()
        deployment.server.call("mark")
        on_half = None
        if args.trace:
            def on_half():
                deployment.server.call("trace")
        elapsed = run.loop(deployment, args.seconds, on_half)
        reports = run.finish(deployment)
    finally:
        if deployment is not None:
            deployment.close()
        shutil.rmtree(run_dir, ignore_errors=True)

    if not args.trace:
        serving = serving_metrics(run, elapsed, traced=False)
        samples = serving.pop("_samples")
        metrics = {
            "setup_s": statistics.median(setup_times),
            **{k: v for k, v in serving.items() if k in END_TO_END},
            "server_peak_rss_mb": reports["server"]["peak_rss_mb"],
        }
        table = None
    else:
        untraced = serving_metrics(run, elapsed / 2, traced=False)
        traced = serving_metrics(run, elapsed / 2, traced=True)
        samples = traced.pop("_samples")
        untraced.pop("_samples")
        jobs = Jobs(args.seed, args.plant_wrong)
        reason_plain = run_reasoning(jobs, reps, tally)
        trace = ReasonTrace()
        try:
            reason_traced = run_reasoning(jobs, reps, tally, trace)
        finally:
            trace.restore()
        metrics, table = per_layer(
            run, reports, untraced, traced, reason_plain, reason_traced,
            trace, jobs,
        )
    units = END_TO_END if not args.trace else PER_LAYER
    print_report(args, metrics, units, samples, tally, table)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
