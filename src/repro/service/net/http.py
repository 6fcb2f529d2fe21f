"""HTTP/JSON front end for the serving layer — stdlib only.

A thin, dependency-free network surface over a
:class:`~repro.service.DatalogService` (full read/write) or a
:class:`~repro.service.net.replication.Replica` (read-only): one
``ThreadingHTTPServer`` whose worker threads call straight into the
backend's thread-safe read path, so the service's concurrency story —
lock-free epoch reads, single writer — carries over unchanged to network
clients.

Endpoints (all payloads JSON)::

    POST   /v1/query               {"query": "?(X) :- edge(a, X)"}
                                   -> {"revision": R, "answers": [[...]]}
    POST   /v1/add                 {"facts": ["edge(a, b)", ...]}
                                   -> {"added": n, "revision": R}
    POST   /v1/remove              {"facts": [...]}
                                   -> {"removed": n, "revision": R}
    GET    /v1/stats               -> metrics snapshot (counters/gauges/
                                      histograms, same shape as
                                      repro.obs.export.json_snapshot)
    POST   /v1/subscribe           {"query": "..."} ->
                                   {"subscription": id, "revision": R,
                                    "answers": [[...]]}
    GET    /v1/subscriptions/<id>?timeout=S     (long poll)
                                   -> one notification / gap / timeout
    DELETE /v1/subscriptions/<id>  -> {"cancelled": true}

Answer tuples serialise as lists of term strings (``str(term)``, the same
surface syntax the parser accepts).  Query answers always carry the
revision they are exact for — on a replica that is the *applied* revision,
so a client can observe replication staleness directly.

Error mapping: parse/safety/validation errors -> 400, unknown paths or
subscription ids -> 404, wrong method -> 405, write on a read-only backend
(a replica) -> 403, backpressure rejection -> 429, closed service -> 503,
anything unexpected -> 500 (logged with its traceback, counted in
``http_internal_errors_total``, connection closed).

Use :func:`serve_http` to start a server on a background thread::

    server = serve_http(service)          # (host, port) in server.address
    ...
    server.close()
"""

from __future__ import annotations

import json
import logging
import threading
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ...core.parser import parse_atom, parse_query
from ...errors import (
    ReproError,
    ServiceClosedError,
    ServiceOverloadedError,
    SubscriptionError,
)
from ...obs.metrics import global_registry
from ...obs.trace import get_tracer

__all__ = ["DatalogHTTPServer", "serve_http"]

#: default long-poll wait (seconds) when the client does not pass one
DEFAULT_POLL_TIMEOUT = 30.0
#: hard ceiling on client-supplied long-poll timeouts
MAX_POLL_TIMEOUT = 120.0
#: request bodies larger than this are rejected outright (16 MiB)
MAX_BODY_BYTES = 16 << 20

_log = logging.getLogger(__name__)


class _HTTPError(Exception):
    """Internal: carries an HTTP status + message to the response writer."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _tuples(answers) -> list:
    """Answer tuples -> JSON-ready lists of term strings (sorted for
    deterministic output)."""
    return sorted([str(term) for term in row] for row in answers)


class _Handler(BaseHTTPRequestHandler):
    """One request; the server instance carries the backend and state."""

    protocol_version = "HTTP/1.1"
    server: "DatalogHTTPServer"

    # ------------------------------------------------------------- plumbing
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # request logging goes through the tracer, not stderr

    def _read_json(self) -> dict:
        length = self.headers.get("Content-Length")
        try:
            count = int(length)
        except (TypeError, ValueError):
            count = None
        if count is None or count < 0 or count > MAX_BODY_BYTES:
            # The body stays unread, so whatever the client sent as one
            # would be parsed as the next request: end the connection.
            self.close_connection = True
            if count is None:
                raise _HTTPError(400, "missing or invalid Content-Length")
            raise _HTTPError(400, "request body too large")
        body = self.rfile.read(count)
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _HTTPError(400, f"invalid JSON body: {error}")
        if not isinstance(payload, dict):
            raise _HTTPError(400, "JSON body must be an object")
        return payload

    def _respond(self, status: int, payload: dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _dispatch(self, method: str) -> None:
        tracer = get_tracer()
        parts = urlsplit(self.path)
        span = (
            tracer.start("http.request", method=method, path=parts.path)
            if tracer.enabled
            else None
        )
        status = 500
        try:
            status, payload = self.server._route(method, parts, self)
            self._respond(status, payload)
        except _HTTPError as error:
            status = error.status
            self._respond(error.status, {"error": str(error)})
        except ServiceOverloadedError as error:
            status = 429
            self._respond(429, {"error": str(error)})
        except ServiceClosedError as error:
            status = 503
            self._respond(503, {"error": str(error)})
        except (SubscriptionError, ReproError) as error:
            # Parse errors, safety violations, unsupported-class scope
            # errors: the request was well-formed HTTP but bad Datalog.
            status = 400
            self._respond(400, {"error": str(error)})
        except (BrokenPipeError, ConnectionResetError):
            status = 499  # client went away mid-response
        except Exception as error:
            # A bug behind the route (e.g. in the backend's read path): the
            # client gets a 500 instead of a dropped connection, and the
            # server thread keeps serving.
            status = 500
            self.server._internal_errors.inc()
            _log.exception("unhandled error serving %s %s", method, parts.path)
            if span is not None:
                span.set(error=repr(error))
            self.close_connection = True
            self._respond(500, {"error": "internal server error"})
        finally:
            if span is not None:
                span.finish(status=status)

    # --------------------------------------------------------------- verbs
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("DELETE")


class DatalogHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one backend.

    The backend is duck-typed: anything with ``answers``/``stats`` serves
    reads; ``add_facts``/``remove_facts`` (a :class:`DatalogService`)
    enables writes; ``subscribe`` enables standing queries.  A
    :class:`~repro.service.net.replication.Replica` therefore comes up
    automatically as a read-only endpoint whose answers carry the applied
    revision.
    """

    daemon_threads = True

    def __init__(
        self, backend, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        super().__init__((host, port), _Handler)
        self.backend = backend
        self.writable = hasattr(backend, "add_facts")
        self.subscribable = hasattr(backend, "subscribe")
        self._subscriptions: Dict[str, object] = {}
        self._subscriptions_lock = threading.Lock()
        self._serve_thread: Optional[threading.Thread] = None
        # Counted on the backend's registry (services and replicas both keep
        # one) so ``/v1/stats`` reports it.
        registry = getattr(backend, "_metrics", None) or global_registry()
        self._internal_errors = registry.counter(
            "http_internal_errors_total",
            "HTTP requests that failed with an unexpected server error (500)",
        )

    # ------------------------------------------------------------ lifecycle
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — port is concrete even for port 0."""
        return self.server_address[:2]

    def start(self) -> "DatalogHTTPServer":
        """Serve on a daemon thread; returns self."""
        if self._serve_thread is None:
            self._serve_thread = threading.Thread(
                target=self.serve_forever,
                kwargs={"poll_interval": 0.1},
                name="repro-http-server",
                daemon=True,
            )
            self._serve_thread.start()
        return self

    def close(self) -> None:
        """Stop serving and cancel every HTTP-created subscription."""
        self.shutdown()
        self.server_close()
        with self._subscriptions_lock:
            subscriptions = list(self._subscriptions.values())
            self._subscriptions.clear()
        for subscription in subscriptions:
            subscription.unsubscribe()
        if self._serve_thread is not None:
            self._serve_thread.join(5)
            self._serve_thread = None

    def __enter__(self) -> "DatalogHTTPServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -------------------------------------------------------------- routing
    def _route(
        self, method: str, parts, handler: _Handler
    ) -> Tuple[int, dict]:
        path = parts.path.rstrip("/")
        if path == "/v1/query":
            self._require(method, "POST")
            return self._handle_query(handler._read_json())
        if path in ("/v1/add", "/v1/remove"):
            self._require(method, "POST")
            return self._handle_mutation(path[4:], handler._read_json())
        if path == "/v1/stats":
            self._require(method, "GET")
            return 200, self.backend.stats().as_dict()
        if path == "/v1/subscribe":
            self._require(method, "POST")
            return self._handle_subscribe(handler._read_json())
        if path.startswith("/v1/subscriptions/"):
            token = path[len("/v1/subscriptions/") :]
            if method == "GET":
                return self._handle_poll(token, parts.query)
            if method == "DELETE":
                return self._handle_cancel(token)
            raise _HTTPError(405, f"method {method} not allowed here")
        raise _HTTPError(404, f"no such endpoint: {parts.path}")

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise _HTTPError(405, f"use {expected} for this endpoint")

    @staticmethod
    def _query_of(payload: dict):
        text = payload.get("query")
        if not isinstance(text, str):
            raise _HTTPError(400, 'body must carry a "query" string')
        return parse_query(text)

    # ------------------------------------------------------------ endpoints
    def _handle_query(self, payload: dict) -> Tuple[int, dict]:
        query = self._query_of(payload)
        backend = self.backend
        if hasattr(backend, "read"):  # a Replica: revision + answers atomic
            revision, answers = backend.read(query)
        else:  # a DatalogService: pin one epoch for the pair
            epoch = backend.epoch()
            revision, answers = epoch.revision, epoch.answers(query)
        return 200, {"revision": revision, "answers": _tuples(answers)}

    def _handle_mutation(
        self, operation: str, payload: dict
    ) -> Tuple[int, dict]:
        if not self.writable:
            raise _HTTPError(
                403, "this endpoint is read-only (replica backend)"
            )
        facts = payload.get("facts")
        if not isinstance(facts, list):
            raise _HTTPError(400, 'body must carry a "facts" list')
        atoms = []
        for text in facts:
            if not isinstance(text, str):
                raise _HTTPError(400, "facts must be strings")
            atoms.append(parse_atom(text))
        if operation == "add":
            count = self.backend.add_facts(atoms).result()
            key = "added"
        else:
            count = self.backend.remove_facts(atoms).result()
            key = "removed"
        return 200, {key: count, "revision": self.backend.revision}

    def _handle_subscribe(self, payload: dict) -> Tuple[int, dict]:
        if not self.subscribable:
            raise _HTTPError(
                403, "this backend does not support subscriptions"
            )
        query = self._query_of(payload)
        # An HTTP client may stop polling at any time; a full queue must
        # not stall the writer, so overflow coalesces into a resync gap.
        subscription = self.backend.subscribe(
            query, on_overflow="drop_and_mark_gap"
        )
        token = uuid.uuid4().hex
        with self._subscriptions_lock:
            self._subscriptions[token] = subscription
        return 200, {
            "subscription": token,
            "revision": subscription.snapshot_revision,
            "answers": _tuples(subscription.snapshot_answers),
        }

    def _handle_poll(self, token: str, query_string: str) -> Tuple[int, dict]:
        with self._subscriptions_lock:
            subscription = self._subscriptions.get(token)
        if subscription is None:
            raise _HTTPError(404, f"no such subscription: {token}")
        params = parse_qs(query_string)
        try:
            timeout = float(params["timeout"][0])
        except (KeyError, IndexError, ValueError):
            timeout = DEFAULT_POLL_TIMEOUT
        timeout = max(0.0, min(timeout, MAX_POLL_TIMEOUT))
        try:
            item = subscription.get(timeout)
        except TimeoutError:
            return 200, {"timeout": True}
        if item is None:  # stream ended (service close / unsubscribe)
            with self._subscriptions_lock:
                self._subscriptions.pop(token, None)
            return 200, {"ended": True}
        if item.is_gap:
            return 200, {
                "gap": True,
                "revision": item.revision,
                "resync": _tuples(item.resync),
                "dropped": item.dropped,
            }
        return 200, {
            "gap": False,
            "revision": item.revision,
            "added": _tuples(item.added),
            "removed": _tuples(item.removed),
        }

    def _handle_cancel(self, token: str) -> Tuple[int, dict]:
        with self._subscriptions_lock:
            subscription = self._subscriptions.pop(token, None)
        if subscription is None:
            raise _HTTPError(404, f"no such subscription: {token}")
        subscription.unsubscribe()
        return 200, {"cancelled": True}


def serve_http(
    backend, host: str = "127.0.0.1", port: int = 0
) -> DatalogHTTPServer:
    """Start a :class:`DatalogHTTPServer` over *backend* on a daemon thread.

    ``port=0`` binds an ephemeral port; read the concrete one from
    ``server.address``.  The caller owns the returned server and must
    ``close()`` it (it is also a context manager).
    """
    return DatalogHTTPServer(backend, host, port).start()
