"""The HTTP/JSON front end: endpoints, error mapping, long-poll.

Each test runs a real ``ThreadingHTTPServer`` on an ephemeral port and
talks to it with ``urllib`` — the full network stack, no handler mocking.
Three groups:

* **read/write** — query answers carry the revision they are exact for,
  mutations acknowledge exact counts, stats serve the metrics snapshot;
* **subscriptions** — subscribe returns the registration snapshot,
  long-poll GETs deliver per-revision notifications in order, timeouts
  and cancellation are explicit responses, not hangs;
* **error mapping** — bad Datalog 400, unknown endpoints/subscriptions
  404, wrong verbs 405, writes on a replica backend 403, a bug behind a
  route 500 (and the server keeps serving).
"""

from __future__ import annotations

import json
import socket
import urllib.error
import urllib.request

import pytest

from repro import parse_program, parse_query
from repro.core.atoms import Atom, Predicate
from repro.core.terms import Constant
from repro.obs.metrics import MetricsRegistry
from repro.service import DatalogService
from repro.service.net import (
    LocalReplicaLink,
    Replica,
    ReplicationPublisher,
    serve_http,
)

LINK = Predicate("link", 2)

RULES = parse_program(
    """
    link(X, Y) -> reachable(X, Y)
    link(X, Z), reachable(Z, Y) -> reachable(X, Y)
    """
)

QUERY_TEXT = "?(Y) :- reachable(a, Y)"


def link(source: str, target: str) -> Atom:
    return Atom(LINK, (Constant(source), Constant(target)))


@pytest.fixture
def served():
    service = DatalogService(rules=RULES, metrics=MetricsRegistry())
    service.add_facts([link("a", "b"), link("b", "c")]).result()
    server = serve_http(service)
    yield service, server
    server.close()
    service.close()


def request(server, path, *, body=None, method=None, timeout=30):
    host, port = server.address
    data = None if body is None else json.dumps(body).encode("utf-8")
    req = urllib.request.Request(
        f"http://{host}:{port}{path}", data=data, method=method
    )
    with urllib.request.urlopen(req, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def status_of(error: urllib.error.HTTPError) -> int:
    error.read()
    return error.code


class TestReadWrite:
    def test_query_carries_revision_and_sorted_answers(self, served):
        service, server = served
        status, payload = request(
            server, "/v1/query", body={"query": QUERY_TEXT}
        )
        assert status == 200
        assert payload == {"revision": 1, "answers": [["b"], ["c"]]}

    def test_add_remove_acknowledge_exact_counts(self, served):
        service, server = served
        _, added = request(
            server,
            "/v1/add",
            body={"facts": ["link(c, d)", "link(a, b)"]},  # one is present
        )
        assert added == {"added": 1, "revision": 2}
        _, removed = request(
            server, "/v1/remove", body={"facts": ["link(c, d)"]}
        )
        assert removed == {"removed": 1, "revision": 3}
        # Read-your-writes through the front end:
        _, payload = request(server, "/v1/query", body={"query": QUERY_TEXT})
        assert payload["revision"] == 3
        assert payload["answers"] == [["b"], ["c"]]

    def test_stats_serves_the_metrics_snapshot(self, served):
        service, server = served
        status, payload = request(server, "/v1/stats")
        assert status == 200
        assert "service_epoch_lag_seconds" in payload["gauges"]
        assert payload["gauges"]["service_epoch_lag_seconds"] >= 0.0
        assert payload["counters"]["service_batches_applied"] >= 1


class TestSubscriptions:
    def test_subscribe_poll_cancel_roundtrip(self, served):
        service, server = served
        _, opened = request(
            server, "/v1/subscribe", body={"query": QUERY_TEXT}
        )
        token = opened["subscription"]
        assert opened["revision"] == 1
        assert opened["answers"] == [["b"], ["c"]]
        service.add_facts([link("c", "d")]).result()
        _, note = request(
            server, f"/v1/subscriptions/{token}?timeout=10"
        )
        assert note == {
            "gap": False,
            "revision": 2,
            "added": [["d"]],
            "removed": [],
        }
        _, cancelled = request(
            server, f"/v1/subscriptions/{token}", method="DELETE"
        )
        assert cancelled == {"cancelled": True}
        with pytest.raises(urllib.error.HTTPError) as exc:
            request(server, f"/v1/subscriptions/{token}?timeout=1")
        assert status_of(exc.value) == 404

    def test_unpolled_subscription_never_stalls_the_writer(self, served):
        # Regression: HTTP subscriptions used the service default
        # on_overflow="block", so a client that subscribed and never polled
        # wedged every write after its 256-item queue filled.
        service, server = served
        _, opened = request(
            server, "/v1/subscribe", body={"query": QUERY_TEXT}
        )
        token = opened["subscription"]
        for i in range(300):
            service.add_facts([link("a", f"n{i}")]).result(timeout=10)
        # Loss is marked, never silent: the stream opens with a gap, and
        # its resync folded with the notifications after it is exactly the
        # current answer set.
        _, first = request(server, f"/v1/subscriptions/{token}?timeout=1")
        assert first["gap"] is True and first["dropped"] > 0
        answers = {tuple(row) for row in first["resync"]}
        while True:
            _, item = request(
                server, f"/v1/subscriptions/{token}?timeout=0.2"
            )
            if item.get("timeout"):
                break
            assert item["gap"] is False
            answers |= {tuple(row) for row in item["added"]}
            answers -= {tuple(row) for row in item["removed"]}
        current = service.answers(parse_query(QUERY_TEXT))
        assert answers == {tuple(str(term) for term in row) for row in current}

    def test_poll_timeout_is_an_explicit_response(self, served):
        service, server = served
        _, opened = request(
            server, "/v1/subscribe", body={"query": QUERY_TEXT}
        )
        token = opened["subscription"]
        _, note = request(
            server, f"/v1/subscriptions/{token}?timeout=0.1"
        )
        assert note == {"timeout": True}


class TestErrorMapping:
    def test_bad_datalog_is_400(self, served):
        _, server = served
        for body in (
            {"query": "?(X) :- reachable(a X)"},  # parse error
            {"query": 7},  # not a string
            {"nope": True},  # missing field
        ):
            with pytest.raises(urllib.error.HTTPError) as exc:
                request(server, "/v1/query", body=body)
            assert status_of(exc.value) == 400

    def test_unknown_endpoint_is_404(self, served):
        _, server = served
        with pytest.raises(urllib.error.HTTPError) as exc:
            request(server, "/v1/nope", body={})
        assert status_of(exc.value) == 404

    def test_wrong_method_is_405(self, served):
        _, server = served
        with pytest.raises(urllib.error.HTTPError) as exc:
            request(server, "/v1/query")  # GET on a POST endpoint
        assert status_of(exc.value) == 405
        with pytest.raises(urllib.error.HTTPError) as exc:
            request(server, "/v1/stats", body={})  # POST on a GET endpoint
        assert status_of(exc.value) == 405

    def test_unsafe_query_is_400(self, served):
        _, server = served
        with pytest.raises(urllib.error.HTTPError) as exc:
            request(
                server, "/v1/query", body={"query": "?(X) :- not link(X, X)"}
            )
        assert status_of(exc.value) == 400


    def test_unexpected_backend_error_is_500_and_server_keeps_serving(
        self, served, monkeypatch, caplog
    ):
        service, server = served

        def broken_read(query):
            raise RuntimeError("read path bug")

        monkeypatch.setattr(service, "read", broken_read)
        with pytest.raises(urllib.error.HTTPError) as caught:
            request(server, "/v1/query", body={"query": QUERY_TEXT})
        assert caught.value.code == 500
        assert json.loads(caught.value.read()) == {"error": "internal server error"}
        assert "read path bug" in caplog.text  # traceback logged, not lost
        monkeypatch.undo()
        status, payload = request(server, "/v1/query", body={"query": QUERY_TEXT})
        assert status == 200
        assert payload["answers"] == [["b"], ["c"]]
        assert service.stats().counters["http_internal_errors_total"] == 1


class TestUnreadBody:
    @pytest.mark.parametrize("length", ["99999999999", "-1", "nope"])
    def test_rejected_body_is_never_parsed_as_a_request(self, served, length):
        # Regression: a body rejected for its Content-Length stayed unread
        # on a keep-alive connection, so its bytes were served as the next
        # request (here a smuggled GET /v1/stats answered 200).
        _, server = served
        smuggled = b"GET /v1/stats HTTP/1.1\r\nHost: x\r\n\r\n"
        head = (
            "POST /v1/query HTTP/1.1\r\nHost: x\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {length}\r\n\r\n"
        ).encode("ascii")
        received = b""
        with socket.create_connection(server.address, timeout=5) as sock:
            sock.sendall(head + smuggled)
            try:
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break  # the server closed the connection
                    received += chunk
            except socket.timeout:
                pytest.fail("the connection stayed open after the 400")
        assert received.startswith(b"HTTP/1.1 400")
        assert received.count(b"HTTP/1.1 ") == 1


class TestReplicaBackend:
    def test_replica_serves_reads_at_applied_revision(self):
        service = DatalogService(rules=RULES, metrics=MetricsRegistry())
        service.add_facts([link("a", "b"), link("b", "c")]).result()
        publisher = ReplicationPublisher(service)
        replica = Replica(RULES, metrics=MetricsRegistry())
        linkage = LocalReplicaLink(publisher, replica)
        linkage.sync()
        server = serve_http(replica)
        try:
            _, payload = request(
                server, "/v1/query", body={"query": QUERY_TEXT}
            )
            assert payload["revision"] == service.revision
            assert payload["answers"] == [["b"], ["c"]]
            # The replica's HTTP surface is read-only:
            with pytest.raises(urllib.error.HTTPError) as exc:
                request(server, "/v1/add", body={"facts": ["link(c, d)"]})
            assert status_of(exc.value) == 403
            with pytest.raises(urllib.error.HTTPError) as exc:
                request(server, "/v1/subscribe", body={"query": QUERY_TEXT})
            assert status_of(exc.value) == 403
            # Reads show replication staleness directly: a write the
            # replica has not applied yet leaves its revision behind.
            service.add_facts([link("c", "d")]).result()
            _, stale = request(
                server, "/v1/query", body={"query": QUERY_TEXT}
            )
            assert stale["revision"] == service.revision - 1
            linkage.sync()
            _, fresh = request(
                server, "/v1/query", body={"query": QUERY_TEXT}
            )
            assert fresh["revision"] == service.revision
            assert fresh["answers"] == [["b"], ["c"], ["d"]]
        finally:
            server.close()
            linkage.close()
            publisher.close()
            replica.close()
            service.close()
