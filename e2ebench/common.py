"""Shared pieces of the end-to-end benchmark.

* where the program's source tree is, and how a helper process imports it;
* the workload inputs: the 72x16 ``link`` chains, the extension-chain writes
  and the read keys, all drawn from one seeded ``random.Random``;
* :class:`LinkModel`, the generator's own model of the ``link`` graph, which
  is the oracle for every read, for the final fact bases and for the
  subscriber's fold;
* the JSON-lines control protocol between the generator and its helpers;
* :class:`Layers`, the outside-in timers: wrappers installed on live objects
  and classes that record per-layer call count, total time and self time.
"""

from __future__ import annotations

import bisect
import functools
import json
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: working space for durable stores, inside the checkout and git-ignored
WORK = ROOT / ".e2ebench_work"

RULES_TEXT = """
link(X, Y) -> reachable(X, Y)
link(X, Z), reachable(Z, Y) -> reachable(X, Y)
"""

#: base data: CHAINS disjoint chains n{c}_0 -> ... -> n{c}_LENGTH
CHAINS = 72
LENGTH = 16
#: one write adds (or removes) an extension chain of this many link facts
EXTENSION_FACTS = 12
#: live extension chains are capped so the fact base stays bounded
MAX_EXTENSIONS = 8
#: share of added extensions hung on chain 0, the subscribed chain
SUBSCRIBED_SHARE = 0.5
SUBSCRIBED_QUERY = "?(Y) :- reachable(n0_0, Y)"

#: the timed layers on the writer thread, in request-path order
WRITE_PATH = (
    "durability.log_batch",
    "session.apply_batch",
    "engine.view_repair",
    "session.warm_answers",
    "session.epoch_export",
    "session.drain_deltas",
    "replication.encode",
    "subscriptions.fan_out",
    "durability.checkpoint",
    "session.export_warm_state",
)


def use_source_tree() -> None:
    """Make ``import repro`` resolve to this checkout's ``src`` tree.

    Exits non-zero (without printing a result) when the checkout holds no
    program source, so a stripped checkout can never report a measurement.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"e2ebench: no program source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def base_facts() -> list:
    """The seed database as fact strings (parse_database syntax)."""
    return [
        f"link(n{c}_{i}, n{c}_{i + 1})"
        for c in range(CHAINS)
        for i in range(LENGTH)
    ]


def reach_query(chain: int, start: int) -> str:
    return f"?(Y) :- reachable(n{chain}_{start}, Y)"


class LinkModel:
    """The generator's model of the ``link`` graph, per revision.

    The base chains never change; an extension ``k`` hangs
    ``x{k}_1 -> ... -> x{k}_12`` off node ``n{c}_{j}``.  ``alive_at`` maps
    each revision the generator produced to the extensions live at it, so a
    read is checked at exactly the revision its reply carries.
    """

    def __init__(self, revision: int) -> None:
        self.extensions = {}  # id -> (chain, attach node)
        self.alive = ()
        self.alive_at = {revision: self.alive}
        self.revision = revision

    @staticmethod
    def extension_facts(ext: int, chain: int, node: int) -> list:
        facts = [f"link(n{chain}_{node}, x{ext}_1)"]
        facts += [
            f"link(x{ext}_{m}, x{ext}_{m + 1})"
            for m in range(1, EXTENSION_FACTS)
        ]
        return facts

    def commit(self, revision: int, alive: tuple) -> None:
        self.alive = alive
        self.alive_at[revision] = alive
        self.revision = revision

    def answers(self, chain: int, start: int, revision: int):
        """Expected answers of ``reachable(n{chain}_{start}, Y)``, or
        ``None`` for a revision the generator never produced."""
        alive = self.alive_at.get(revision)
        if alive is None:
            return None
        expected = {f"n{chain}_{j}" for j in range(start + 1, LENGTH + 1)}
        for ext in alive:
            ext_chain, node = self.extensions[ext]
            if ext_chain == chain and node >= start:
                expected.update(
                    f"x{ext}_{m}" for m in range(1, EXTENSION_FACTS + 1)
                )
        return expected

    def facts(self) -> set:
        facts = set(base_facts())
        for ext in self.alive:
            facts.update(self.extension_facts(ext, *self.extensions[ext]))
        return facts


class WriteStream:
    """Seeded writes: add a fresh extension chain or remove a live one."""

    def __init__(self, rng, model: LinkModel) -> None:
        self.rng = rng
        self.model = model
        self.next_id = 0

    def next(self):
        """``(kind, facts, live extensions after it, on chain 0?)``."""
        rng, model = self.rng, self.model
        alive = model.alive
        add = not alive or (
            len(alive) < MAX_EXTENSIONS and rng.random() < 0.5
        )
        if add:
            ext = self.next_id
            self.next_id += 1
            chain = (
                0
                if rng.random() < SUBSCRIBED_SHARE
                else rng.randrange(1, CHAINS)
            )
            model.extensions[ext] = (chain, rng.randrange(0, LENGTH + 1))
            after = alive + (ext,)
            kind = "add"
        else:
            ext = alive[rng.randrange(len(alive))]
            after = tuple(e for e in alive if e != ext)
            kind = "remove"
        chain, node = model.extensions[ext]
        facts = model.extension_facts(ext, chain, node)
        return kind, facts, after, chain == 0


class ZipfKeys:
    """Zipf-like draws with exponent *s* (0: uniform) over a seeded
    permutation of *keys*; ``keys`` is that permutation, most popular first."""

    def __init__(self, rng, keys: list, s: float) -> None:
        self.rng = rng
        self.keys = list(keys)
        rng.shuffle(self.keys)
        weights = [1.0 / (rank + 1) ** s for rank in range(len(self.keys))]
        total = sum(weights)
        running = 0.0
        self.cumulative = []
        for weight in weights:
            running += weight / total
            self.cumulative.append(running)

    def draw(self):
        index = bisect.bisect_left(self.cumulative, self.rng.random())
        return self.keys[min(index, len(self.keys) - 1)]


# ----------------------------------------------------------------- protocol
def send(stream, message: dict) -> None:
    stream.write(json.dumps(message, separators=(",", ":")) + "\n")
    stream.flush()


def serve_commands(handlers: dict) -> None:
    """Helper-side loop: one JSON command per stdin line, one JSON reply per
    stdout line, until ``stop`` (or stdin closes)."""
    for line in sys.stdin:
        command = json.loads(line)
        name = command.pop("cmd")
        reply = handlers[name](**command)
        send(sys.stdout, reply if reply is not None else {"ok": True})
        if name == "stop":
            return


def peak_rss_mb() -> float:
    """This process's peak resident set size (VmHWM), in MB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found in /proc/self/status")


# ------------------------------------------------------------------ timing
def percentile(values, q: int) -> float:
    """The *q*-th percentile (1-99), inclusive interpolation."""
    ordered = sorted(values)
    if len(ordered) < 2:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method="inclusive")[q - 1]


def beyond(values, threshold: float) -> int:
    return sum(1 for value in values if value > threshold)


class Layers:
    """Outside-in layer timers with self time.

    :meth:`wrap` returns a timing wrapper around a callable; nested wrapped
    calls on the same thread subtract from their caller's self time, so self
    times summed over layers never count a second twice.  Every call is kept
    as ``(start, end, self seconds)`` on the ``perf_counter`` clock, so a
    caller can both take percentiles and ask how much of a layer's time fell
    inside given windows.  :meth:`patch` installs a wrapper on a live object
    or class and remembers how to undo it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.calls = {}  # name -> [(start, end, self seconds), ...]
        self._undo = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        stack.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            children = stack.pop()
            if stack:
                stack[-1] += t1 - t0
            with self._lock:
                self.calls.setdefault(name, []).append(
                    (t0, t1, t1 - t0 - children)
                )

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return timed

    def wrap_iterator(self, name: str, fn):
        """Like :meth:`wrap` for a function returning an iterator: each
        ``next`` is timed (the time a lazy producer spends producing)."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            iterator = iter(fn(*args, **kwargs))
            while True:
                with self.span(name):
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                yield item

        return timed

    def patch(self, owner, attribute: str, name: str) -> None:
        self.install(owner, attribute, self.wrap(name, getattr(owner, attribute)))

    def install(self, owner, attribute: str, replacement) -> None:
        """Install a wrapper on *owner*, remembering the original."""
        self._undo.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def total_s(self, name: str) -> float:
        with self._lock:
            return sum(end - start for start, end, _ in self.calls.get(name, ()))

    def table(self) -> dict:
        """``{layer: {count, total_ms, self_ms, p50_ms}}``."""
        with self._lock:
            calls = {name: list(entries) for name, entries in self.calls.items()}
        return {
            name: {
                "count": len(entries),
                "total_ms": sum(end - start for start, end, _ in entries) * 1e3,
                "self_ms": sum(own for _, _, own in entries) * 1e3,
                "p50_ms": statistics.median(end - start for start, end, _ in entries)
                * 1e3,
            }
            for name, entries in calls.items()
        }


def self_time_within(calls, windows) -> float:
    """Self seconds of *calls* that fall inside *windows*.

    *windows* are sorted, disjoint ``(start, end)`` intervals.  A call that
    straddles a window edge contributes its self time in proportion to the
    overlap (a checkpoint that started before a write was enqueued delays
    that write only for the part that was still to run).
    """
    starts = [start for start, _ in windows]
    total = 0.0
    for start, end, own in calls:
        if end <= start:
            continue
        overlap = 0.0
        index = max(0, bisect.bisect_right(starts, start) - 1)
        while index < len(windows) and windows[index][0] < end:
            low, high = windows[index]
            overlap += max(0.0, min(end, high) - max(start, low))
            index += 1
        total += own * overlap / (end - start)
    return total
