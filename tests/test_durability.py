"""Recovery-property suite for the durability layer.

Three tiers, matching the module's structure:

* **file tier** — :class:`~repro.service.durability.FactLog` and
  :class:`~repro.service.durability.CheckpointStore` unit behaviour: torn
  tails truncated to the longest valid prefix (an exhaustive corpus —
  truncation at *every* offset inside the last record, and a single-byte
  flip at every offset of it), double-open locking, atomic checkpoint
  writes with fallback past a corrupt newest file;
* **manager tier** — idempotent replay: logged batches at or below the
  checkpoint's high-water batch id are never offered for replay;
* **service tier** — the Hypothesis property at the heart of the PR: for
  random interleaved add/remove batches, ``recover(checkpoint + log
  tail)`` is *extensionally equal* to applying the same batches
  sequentially through one session — facts, per-op counts, revisions,
  and answers — regardless of where the checkpoint cadence fell; plus
  warm-restart behaviour (restored answer caches serve hits; a rules
  change across restarts drops warmth but keeps facts) and the
  ``compact_log=False`` full-log fallback.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.atoms import Atom, Literal, Predicate
from repro.core.queries import ConjunctiveQuery
from repro.core.terms import Constant, FunctionTerm, Null, Variable
from repro.errors import DurabilityError
from repro.obs.metrics import MetricsRegistry
from repro.query.session import QuerySession
from repro.service import DatalogService, DurabilityConfig
from repro.service.framing import frame
from repro.service.durability import (
    CheckpointStore,
    DurabilityManager,
    FactLog,
    decode_atom,
    decode_term,
    encode_atom,
    encode_term,
)

LINK = Predicate("link", 2)
REACHABLE = Predicate("reachable", 2)


def rules():
    x, y, z = Variable("X"), Variable("Y"), Variable("Z")
    from repro.lp.programs import NormalRule

    return (
        NormalRule(Atom(REACHABLE, (x, y)), (Literal(Atom(LINK, (x, y))),)),
        NormalRule(
            Atom(REACHABLE, (x, y)),
            (Literal(Atom(LINK, (x, z))), Literal(Atom(REACHABLE, (z, y)))),
        ),
    )


def edge(i, j):
    return Atom(LINK, (Constant(f"v{i}"), Constant(f"v{j}")))


def probe():
    y = Variable("Y")
    return ConjunctiveQuery(
        (Literal(Atom(REACHABLE, (Constant("v0"), y))),), (y,)
    )


# ---------------------------------------------------------------- the codec


def test_term_codec_round_trips_every_term_kind():
    terms = [
        Constant("alice"),
        Constant("weird name\x1f\n"),
        Null("n1"),
        Variable("X"),
        FunctionTerm("f", (Constant("a"), Null("n2"))),
        FunctionTerm("g", (FunctionTerm("f", (Constant("a"),)),)),
    ]
    for term in terms:
        assert decode_term(json.loads(json.dumps(encode_term(term)))) == term
    atom = Atom(Predicate("p q", 3), (terms[0], terms[2], terms[4]))
    assert decode_atom(json.loads(json.dumps(encode_atom(atom)))) == atom


# ------------------------------------------------------------- the fact log


def _build_log(path: Path, batches):
    log = FactLog(path)
    assert log.open_and_recover() == []
    for batch_id, ops in batches:
        log.append(batch_id, ops)
        log.sync()
    log.close()
    return path.read_bytes()


SAMPLE_BATCHES = [
    (1, [("add", (edge(0, 1), edge(1, 2)))]),
    (2, [("remove", (edge(0, 1),)), ("add", (edge(2, 3),))]),
    (3, [("add", (edge(3, 4),))]),
]


def test_log_round_trips_batches(tmp_path):
    _build_log(tmp_path / "facts.wal", SAMPLE_BATCHES)
    log = FactLog(tmp_path / "facts.wal")
    assert log.open_and_recover() == [
        (batch_id, [(kind, tuple(atoms)) for kind, atoms in ops])
        for batch_id, ops in SAMPLE_BATCHES
    ]
    log.close()


def test_torn_tail_corpus_truncation_at_every_offset(tmp_path):
    """Truncating anywhere inside the last record recovers the prefix."""
    data = _build_log(tmp_path / "ref.wal", SAMPLE_BATCHES)
    # Find where the last record starts: scan the two leading frames.
    header = struct.Struct("<II")
    offset = len(b"REPROWAL1\n")
    for _ in range(len(SAMPLE_BATCHES) - 1):
        length, _ = header.unpack_from(data, offset)
        offset += header.size + length
    expected_prefix = SAMPLE_BATCHES[:-1]
    for cut in range(offset, len(data)):
        path = tmp_path / "torn.wal"
        path.write_bytes(data[:cut])
        log = FactLog(path)
        recovered = log.open_and_recover()
        assert [bid for bid, _ in recovered] == [
            bid for bid, _ in expected_prefix
        ], f"cut at {cut}"
        assert log.torn_tails == (1 if cut > offset else 0)
        # The truncated log must stay appendable, and the append durable.
        log.append(9, [("add", (edge(7, 8),))])
        log.sync()
        log.close()
        reread = FactLog(path)
        assert [bid for bid, _ in reread.open_and_recover()] == [
            bid for bid, _ in expected_prefix
        ] + [9]
        reread.close()


def test_torn_tail_corpus_byte_flip_at_every_offset(tmp_path):
    """Flipping any single byte of the last record recovers the prefix."""
    data = _build_log(tmp_path / "ref.wal", SAMPLE_BATCHES)
    header = struct.Struct("<II")
    offset = len(b"REPROWAL1\n")
    for _ in range(len(SAMPLE_BATCHES) - 1):
        length, _ = header.unpack_from(data, offset)
        offset += header.size + length
    expected = [bid for bid, _ in SAMPLE_BATCHES[:-1]]
    for position in range(offset, len(data)):
        corrupted = bytearray(data)
        corrupted[position] ^= 0x41
        path = tmp_path / "flip.wal"
        path.write_bytes(bytes(corrupted))
        log = FactLog(path)
        assert [bid for bid, _ in log.open_and_recover()] == expected, (
            f"flip at {position}"
        )
        log.close()


def test_log_detects_foreign_file(tmp_path):
    path = tmp_path / "facts.wal"
    path.write_bytes(b"definitely not a WAL file, much longer than magic")
    with pytest.raises(DurabilityError):
        FactLog(path).open_and_recover()


def test_log_double_open_is_refused(tmp_path):
    first = FactLog(tmp_path / "facts.wal")
    first.open_and_recover()
    try:
        with pytest.raises(DurabilityError):
            FactLog(tmp_path / "facts.wal").open_and_recover()
    finally:
        first.close()
    # Released on close: reopening afterwards works.
    second = FactLog(tmp_path / "facts.wal")
    assert second.open_and_recover() == []
    second.close()


def test_log_reset_compacts(tmp_path):
    path = tmp_path / "facts.wal"
    log = FactLog(path)
    log.open_and_recover()
    log.append(1, [("add", (edge(0, 1),))])
    log.sync()
    log.reset()
    log.append(2, [("add", (edge(1, 2),))])
    log.sync()
    log.close()
    reread = FactLog(path)
    assert [bid for bid, _ in reread.open_and_recover()] == [2]
    reread.close()


# ------------------------------------------------------- the checkpoint store


def test_checkpoint_store_atomic_write_and_fallback(tmp_path):
    store = CheckpointStore(tmp_path, keep=2)
    assert store.latest() is None
    store.write({"batch_id": 1, "facts": []})
    store.write({"batch_id": 2, "facts": []})
    sequence, payload = store.latest()
    assert sequence == 2 and payload["batch_id"] == 2
    # Corrupt the newest: latest() falls back to the previous checkpoint.
    newest = sorted(tmp_path.glob("checkpoint-*.ckpt"))[-1]
    newest.write_bytes(newest.read_bytes()[:-3])
    sequence, payload = store.latest()
    assert sequence == 1 and payload["batch_id"] == 1


def test_checkpoint_store_prunes_old_and_orphan_tmp(tmp_path):
    store = CheckpointStore(tmp_path, keep=2)
    (tmp_path / "stale.ckpt.tmp").write_bytes(b"crashed mid-checkpoint")
    for batch_id in range(1, 5):
        store.write({"batch_id": batch_id})
    kept = sorted(path.name for path in tmp_path.iterdir())
    assert kept == ["checkpoint-0000000003.ckpt", "checkpoint-0000000004.ckpt"]


def test_checkpoint_garbage_file_is_invalid(tmp_path):
    store = CheckpointStore(tmp_path)
    (tmp_path / "checkpoint-0000000007.ckpt").write_bytes(b"REPROCKP1\nzz")
    assert store.latest() is None


# ------------------------------------------------------------- manager tier


def test_recovery_skips_batches_at_or_below_checkpoint(tmp_path):
    """The idempotence invariant, isolated: replay never re-offers logged
    batches the checkpoint already covers (crash between checkpoint rename
    and log compaction)."""
    manager = DurabilityManager(
        DurabilityConfig(path=tmp_path, compact_log=False),
        metrics=MetricsRegistry(),
    )
    manager.recover()
    for batch_id in (1, 2, 3, 4):
        manager.log_batch(batch_id, [("add", (edge(batch_id, batch_id),))])
    manager.checkpoint(
        batch_id=2, revision=2, digest="d", facts=[edge(1, 1), edge(2, 2)]
    )
    # compact_log=False keeps records 1..4 in the log, as a crash between
    # rename and reset would have; recovery must offer only 3 and 4.
    manager.close()
    reopened = DurabilityManager(
        DurabilityConfig(path=tmp_path, compact_log=False),
        metrics=MetricsRegistry(),
    )
    recovered = reopened.recover()
    reopened.close()
    assert not recovered.fresh
    assert recovered.batch_id == 2
    assert [bid for bid, _ in recovered.tail] == [3, 4]
    assert set(recovered.facts) == {edge(1, 1), edge(2, 2)}


# ------------------------------------------------------------- service tier


def _durable_service(path, *, checkpoint_every=4, close_checkpoint=True,
                     compact_log=True, the_rules=None):
    return DatalogService(
        (),
        rules() if the_rules is None else the_rules,
        durability=DurabilityConfig(
            path=path,
            checkpoint_every=checkpoint_every,
            checkpoint_on_close=close_checkpoint,
            compact_log=compact_log,
        ),
        metrics=MetricsRegistry(),
    )


#: one random op: kind plus a small bag of edges over a 6-node universe
_ops = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove"]),
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=3
        ),
    ),
    min_size=1,
    max_size=12,
)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(operations=_ops, checkpoint_every=st.integers(1, 5))
def test_recovery_equals_sequential_application(
    tmp_path_factory, operations, checkpoint_every
):
    """replay(checkpoint + tail) ≡ apply_batch, for any cadence alignment.

    Facts, per-op acknowledged counts, revisions, and answers must all
    agree with one session applying the same ops sequentially — whether a
    given op landed inside the last checkpoint or on the replayed tail is
    an implementation detail the equivalence quantifies over (the close
    below deliberately skips the close-time checkpoint so a tail remains).
    """
    tmp_path = tmp_path_factory.mktemp("durable")
    ops = [
        (kind, tuple(edge(i, j) for i, j in atoms))
        for kind, atoms in operations
    ]
    service = _durable_service(
        tmp_path, checkpoint_every=checkpoint_every, close_checkpoint=False
    )
    service_counts = [
        (
            service.add_facts(atoms)
            if kind == "add"
            else service.remove_facts(atoms)
        ).result(timeout=30)
        for kind, atoms in ops
    ]
    service.answers(probe())
    service.flush()
    service.close()

    oracle = QuerySession((), rules())
    oracle_counts = [
        oracle.apply_batch([(kind, atoms)])[0] for kind, atoms in ops
    ]
    assert service_counts == oracle_counts

    recovered = _durable_service(tmp_path, checkpoint_every=checkpoint_every)
    try:
        assert recovered.facts == oracle.facts
        assert recovered.revision == oracle.revision
        assert recovered.answers(probe()) == oracle.answers(probe())
    finally:
        recovered.close()


def test_warm_restart_serves_restored_answers_as_cache_hits(tmp_path):
    service = _durable_service(tmp_path)
    service.add_facts([edge(i, i + 1) for i in range(6)]).result()
    expected = service.answers(probe())
    service.flush()
    service.checkpoint()
    service.close()

    reopened = _durable_service(tmp_path)
    try:
        assert reopened.answers(probe()) == expected
        # Served straight from the restored answer cache on the recovered
        # epoch: no evaluation, a read_cache_hit on a fresh registry.
        assert reopened.statistics.read_cache_hits == 1
        assert reopened.statistics.reads_served == 1
    finally:
        reopened.close()


def test_rules_change_across_restart_keeps_facts_drops_warmth(tmp_path):
    service = _durable_service(tmp_path)
    facts = [edge(i, i + 1) for i in range(4)]
    service.add_facts(facts).result()
    service.answers(probe())
    service.flush()
    service.close()

    x, y = Variable("X"), Variable("Y")
    from repro.lp.programs import NormalRule

    flipped = Predicate("flipped", 2)
    new_rules = (
        NormalRule(Atom(flipped, (y, x)), (Literal(Atom(LINK, (x, y))),)),
    )
    reopened = _durable_service(tmp_path, the_rules=new_rules)
    try:
        assert reopened.facts == frozenset(facts)
        query = ConjunctiveQuery(
            (Literal(Atom(flipped, (x, y))),), (x, y)
        )
        expected = QuerySession(facts, new_rules).answers(query)
        assert reopened.answers(query) == expected
        # The old program's warmth was dropped, not misapplied: the first
        # read under the new rules is a miss, never a stale hit.
        assert reopened.statistics.read_cache_hits == 0
    finally:
        reopened.close()


def test_existing_store_refuses_initial_database(tmp_path):
    service = _durable_service(tmp_path)
    service.add_facts([edge(0, 1)]).result()
    service.close()
    with pytest.raises(DurabilityError):
        DatalogService(
            [edge(5, 5)],
            rules(),
            durability=DurabilityConfig(path=tmp_path),
            metrics=MetricsRegistry(),
        )
    # The refusal released the store lock: a clean reopen works.
    reopened = _durable_service(tmp_path)
    try:
        assert edge(0, 1) in reopened.facts
    finally:
        reopened.close()


def test_compact_log_false_recovers_through_corrupt_checkpoints(tmp_path):
    """The lossless fallback: with the full log retained, even every
    checkpoint failing validation costs warmth, never facts."""
    service = _durable_service(tmp_path, compact_log=False)
    service.add_facts([edge(i, i + 1) for i in range(5)]).result()
    service.remove_facts([edge(2, 3)]).result()
    service.flush()
    expected_facts = service.facts
    service.close()
    for checkpoint in tmp_path.glob("checkpoint-*.ckpt"):
        checkpoint.write_bytes(b"REPROCKP1\ncorrupt")
    reopened = _durable_service(tmp_path, compact_log=False)
    try:
        assert reopened.facts == expected_facts
    finally:
        reopened.close()


def test_v1_store_recovers(tmp_path):
    """Stores written before interning stay readable: a format-1 checkpoint
    and v1 log records, both with structural atoms inline, recover to the
    same facts, revision and answers."""

    def record(payload: dict) -> bytes:
        return frame(json.dumps(payload).encode("utf-8"))

    (tmp_path / "checkpoint-0000000001.ckpt").write_bytes(
        b"REPROCKP1\n"
        + record(
            {
                "batch_id": 1,
                "revision": 1,
                "digest": None,
                "facts": [encode_atom(edge(0, 1))],
                "warm": None,
            }
        )
    )
    (tmp_path / "facts.wal").write_bytes(
        b"REPROWAL1\n"
        # Batch 1 is inside the checkpoint already: recovery must skip it.
        + record({"batch": 1, "ops": [["add", [encode_atom(edge(0, 1))]]]})
        + record({"batch": 2, "ops": [["add", [encode_atom(edge(1, 2))]]]})
    )
    registry = MetricsRegistry()
    service = DatalogService(
        (), rules(), durability=DurabilityConfig(path=tmp_path), metrics=registry
    )
    try:
        assert service.facts == frozenset({edge(0, 1), edge(1, 2)})
        assert service.revision == 2
        assert registry.snapshot().counters["service_recovered_batches"] == 1
        assert service.answers(probe()) == {
            (Constant("v1"),),
            (Constant("v2"),),
        }
    finally:
        service.close()


def test_checkpoint_requires_durability():
    service = DatalogService((), rules(), metrics=MetricsRegistry())
    try:
        assert not service.durable
        with pytest.raises(ValueError):
            service.checkpoint()
    finally:
        service.close()


def test_checkpoint_bounds_recovery_tail(tmp_path):
    """The cadence works: after checkpoint_every batches the tail resets,
    so recovery replays at most checkpoint_every - 1 batches."""
    registry = MetricsRegistry()
    service = DatalogService(
        (),
        rules(),
        durability=DurabilityConfig(
            path=tmp_path, checkpoint_every=3, checkpoint_on_close=False
        ),
        metrics=registry,
    )
    for i in range(7):
        service.add_facts([edge(i, i + 1)]).result()
    service.flush()
    service.close()
    registry2 = MetricsRegistry()
    reopened = DatalogService(
        (),
        rules(),
        durability=DurabilityConfig(path=tmp_path),
        metrics=registry2,
    )
    try:
        snapshot = registry2.snapshot()
        replayed = snapshot.counters["service_recovered_batches"]
        assert 0 < replayed <= 2
        assert reopened.facts == frozenset(edge(i, i + 1) for i in range(7))
    finally:
        reopened.close()


class TestLockFileFallback:
    """The double-open guard without ``fcntl``.

    Regression: on platforms where the ``fcntl`` import fails, the guard
    used to be a silent no-op — two services could interleave appends on
    one WAL undetected.  Without ``flock`` the log must fall back to an
    ``O_CREAT|O_EXCL`` pid-stamped lock file: a second open **raises**, a
    lock left by a dead process is broken automatically, and only an
    environment where even the lock file cannot be created degrades — with
    a one-time ``RuntimeWarning``, never silently.
    """

    @pytest.fixture(autouse=True)
    def no_fcntl(self, monkeypatch):
        import repro.service.durability as durability_module

        monkeypatch.setattr(durability_module, "fcntl", None)
        monkeypatch.setattr(durability_module, "_lock_guard_warned", False)

    def test_second_open_raises_instead_of_no_op(self, tmp_path):
        first = FactLog(tmp_path / "facts.wal")
        first.open_and_recover()
        try:
            with pytest.raises(DurabilityError, match="already open"):
                FactLog(tmp_path / "facts.wal").open_and_recover()
        finally:
            first.close()
        # close() released the lock file: reopening works, no stale file.
        assert not (tmp_path / "facts.wal.lock").exists()
        second = FactLog(tmp_path / "facts.wal")
        assert second.open_and_recover() == []
        second.close()

    def test_second_service_open_raises(self, tmp_path):
        first = DatalogService(
            (),
            rules(),
            durability=DurabilityConfig(path=tmp_path),
            metrics=MetricsRegistry(),
        )
        try:
            with pytest.raises(DurabilityError):
                DatalogService(
                    (),
                    rules(),
                    durability=DurabilityConfig(path=tmp_path),
                    metrics=MetricsRegistry(),
                )
        finally:
            first.close()

    def test_stale_lock_from_dead_pid_is_broken(self, tmp_path):
        import subprocess
        import sys

        # A pid that certainly existed and is certainly dead now:
        probe = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True,
            text=True,
            check=True,
        )
        dead_pid = int(probe.stdout.strip())
        (tmp_path / "facts.wal.lock").write_text(f"{dead_pid}\n")
        log = FactLog(tmp_path / "facts.wal")
        assert log.open_and_recover() == []  # stale lock recovered
        log.close()

    def test_garbage_lock_payload_is_treated_as_stale(self, tmp_path):
        # A crash mid-write can leave an empty or unparsable lock file.
        (tmp_path / "facts.wal.lock").write_text("")
        log = FactLog(tmp_path / "facts.wal")
        assert log.open_and_recover() == []
        log.close()

    def test_live_pid_lock_is_respected(self, tmp_path):
        import os

        (tmp_path / "facts.wal.lock").write_text(f"{os.getpid()}\n")
        with pytest.raises(DurabilityError, match="already open"):
            FactLog(tmp_path / "facts.wal").open_and_recover()

    def test_unavailable_guard_warns_once_not_silently(self, tmp_path):
        from repro.service.durability import _LockFileGuard

        # A lock path whose directory does not exist: O_CREAT|O_EXCL fails
        # with an error that is not FileExistsError, so no guard can be
        # installed at all — that degradation must be loud, exactly once.
        missing = tmp_path / "gone" / "facts.wal.lock"
        with pytest.warns(RuntimeWarning, match="no double-open guard"):
            _LockFileGuard(missing).acquire()
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")  # second warn would raise
            _LockFileGuard(missing).acquire()
