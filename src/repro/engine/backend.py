"""Tuple storage under :class:`~repro.engine.index.RelationIndex`.

The evaluation engine separates *what* is stored (ground atoms, grouped by
predicate) from *how* it is accessed.  A backend stores interned rows with
dedup, answers membership, per-predicate scans and counts, and supports two
versioning operations — ``snapshot`` (a stable read-only view of the current
contents) and the :class:`OverlayBackend` wrapper (a cheap writable branch
over a shared base).  Hash indexes, delta tracking and join planning live in
the layers above.

Writes happen only on the *row plane* (``insert_row``/``remove_row``),
trading in interned integer tuples (see :mod:`repro.engine.intern`): atoms
are encoded once, at the index's API edge.  Reads come in both forms —
``contains_row``/``rows_of`` for the join executor, and
``in``/``iter``/``atoms_of`` for the atom edge, where rows are decoded
into fresh atoms (a per-relation scan list is kept until the next write) —
so the join engine never hashes a term tree.

Two backends ship with the engine:

* :class:`MemoryBackend` — per-predicate :class:`TupleRelation` storage
  (int-tuple rows with columnar scan arrays) with predicate-level
  copy-on-write: ``snapshot()`` is O(#predicates) and shares each relation
  until either side of the split writes it.
* :class:`OverlayBackend` — a writable layer over a read-only base view:
  additions live in a private :class:`MemoryBackend`, removals of base rows
  become **tombstones**.  Creating one is O(1) regardless of base size,
  which is what makes per-query and per-repair evaluation branches
  affordable.

All sharing between snapshots and forks is sharing of flat int structures.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Protocol, Sequence, Set

from ..core.atoms import Atom, Predicate
from .intern import Row, SymbolTable, TupleRelation, global_symbols

__all__ = [
    "StorageBackend",
    "MemoryBackend",
    "OverlayBackend",
]


class StorageBackend(Protocol):
    """What the engine requires of a store: row writes, row and atom reads."""

    @property
    def symbols(self) -> SymbolTable:
        """The interning table rows of this backend are encoded against."""
        ...

    # ------------------------------------------------------------ atom plane
    def snapshot(self) -> "StorageBackend":
        """A read-only view that stays valid across later base mutations."""
        ...

    def __contains__(self, atom: Atom) -> bool: ...

    def __len__(self) -> int: ...

    def __iter__(self) -> Iterator[Atom]: ...

    def atoms_of(self, predicate: Predicate) -> Sequence[Atom]:
        """All stored atoms over *predicate*, in insertion order."""
        ...

    def count(self, predicate: Predicate) -> int:
        """The number of stored atoms over *predicate* (cardinality estimate)."""
        ...

    def predicates(self) -> Iterable[Predicate]: ...

    # ------------------------------------------------------------- row plane
    def insert_row(self, predicate: Predicate, row: Row) -> bool:
        """Store an already-encoded row; ``True`` iff it was new."""
        ...

    def remove_row(self, predicate: Predicate, row: Row) -> bool:
        """Delete an already-encoded row; ``True`` iff it was present."""
        ...

    def contains_row(self, predicate: Predicate, row: Row) -> bool: ...

    def rows_of(self, predicate: Predicate) -> Sequence[Row]:
        """All stored rows over *predicate*, in insertion order."""
        ...


class MemoryBackend:
    """Default in-memory storage with predicate-level copy-on-write.

    Each predicate owns a :class:`~repro.engine.intern.TupleRelation`
    (insertion-ordered dict of int-tuple rows with cached scan lists and
    columnar arrays).  ``snapshot()`` shares every relation with the new view
    and marks it ``shared``; the first subsequent write to a shared relation
    — from either side — copies it, so a snapshot costs O(#predicates) and
    later mutations cost O(|mutated relation|) once.  What is shared and
    copied are dicts of small int tuples, never term-object graphs.
    """

    __slots__ = ("_rows", "_size", "_symbols")

    def __init__(self, symbols: Optional[SymbolTable] = None) -> None:
        self._rows: Dict[Predicate, TupleRelation] = {}
        self._size = 0
        self._symbols = symbols if symbols is not None else global_symbols()

    @property
    def symbols(self) -> SymbolTable:
        return self._symbols

    def relation(self, predicate: Predicate) -> Optional[TupleRelation]:
        """The raw columnar relation of *predicate* (for bulk readers)."""
        return self._rows.get(predicate)

    def _writable(self, predicate: Predicate) -> TupleRelation:
        relation = self._rows.get(predicate)
        if relation is None:
            relation = TupleRelation(predicate.arity)
            self._rows[predicate] = relation
        elif relation.shared:
            relation = relation.copy()
            self._rows[predicate] = relation
        return relation

    # ------------------------------------------------------------- row plane
    def insert_row(self, predicate: Predicate, row: Row) -> bool:
        # Hot path: two dict probes in the common case.
        relation = self._rows.get(predicate)
        if relation is None:
            relation = TupleRelation(predicate.arity)
            self._rows[predicate] = relation
        elif row in relation.rows:
            return False
        elif relation.shared:
            relation = relation.copy()
            self._rows[predicate] = relation
        relation.append(row)
        self._size += 1
        return True

    def remove_row(self, predicate: Predicate, row: Row) -> bool:
        relation = self._rows.get(predicate)
        if relation is None or row not in relation.rows:
            return False
        relation = self._writable(predicate)
        # O(1) on the ordered dict; the cached scan list is invalidated and
        # rebuilt once per removal batch (insertion order is preserved, as
        # the protocol promises and deterministic chase runs rely on).
        relation.discard(row)
        self._size -= 1
        return True

    def contains_row(self, predicate: Predicate, row: Row) -> bool:
        relation = self._rows.get(predicate)
        return relation is not None and row in relation.rows

    def rows_of(self, predicate: Predicate) -> Sequence[Row]:
        relation = self._rows.get(predicate)
        return relation.scan() if relation is not None else ()

    # ------------------------------------------------------------ atom plane
    def snapshot(self) -> "MemoryBackend":
        """An O(#predicates) copy-on-write view of the current contents.

        Invariant: a relation marked ``shared`` is referenced by at least two
        backends and must never be mutated in place — every write path goes
        through ``_writable`` (or the inlined equivalent in ``insert_row``),
        which copies first.  The mark is sticky (cleared only by copying),
        so chains of snapshots stay safe: sharing with a newer view cannot
        un-protect an older one.
        """
        clone = MemoryBackend(self._symbols)
        for predicate, relation in self._rows.items():
            relation.shared = True
            clone._rows[predicate] = relation
        clone._size = self._size
        return clone

    def __contains__(self, atom: Atom) -> bool:
        relation = self._rows.get(atom.predicate)
        if relation is None:
            return False
        row = self._symbols.try_encode_atom(atom)
        return row is not None and row in relation.rows

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Atom]:
        for predicate, relation in list(self._rows.items()):
            yield from relation.atoms(self._symbols, predicate)

    def atoms_of(self, predicate: Predicate) -> Sequence[Atom]:
        relation = self._rows.get(predicate)
        if relation is None:
            return ()
        return relation.atoms(self._symbols, predicate)

    def count(self, predicate: Predicate) -> int:
        relation = self._rows.get(predicate)
        return len(relation.rows) if relation is not None else 0

    def predicates(self) -> Iterable[Predicate]:
        return self._rows.keys()


class OverlayBackend:
    """A writable branch layered over a shared read-only *base* view.

    Additions live in a private :class:`MemoryBackend` (sharing the base's
    symbol table, so rows from both layers are directly comparable);
    removing a base row records a **row tombstone** instead of touching the
    base, so any number of overlays can branch off one base concurrently and
    each costs O(1) to create plus O(its own writes) to hold.  Re-inserting
    a tombstoned row clears the tombstone (the row is visible through the
    base again).

    The base must not be mutated while overlays over it are alive; take it
    from ``snapshot()``, whose copy-on-write views never change.
    """

    __slots__ = ("_base", "_local", "_tombstones", "_tombstone_counts", "_tombstone_total")

    def __init__(self, base: StorageBackend) -> None:
        self._base = base
        self._local = MemoryBackend(base.symbols)
        self._tombstones: Dict[Predicate, Set[Row]] = {}
        self._tombstone_counts: Dict[Predicate, int] = {}
        self._tombstone_total = 0

    # ------------------------------------------------------------ layering
    @property
    def symbols(self) -> SymbolTable:
        return self._local.symbols

    @property
    def base(self) -> StorageBackend:
        return self._base

    @property
    def local(self) -> MemoryBackend:
        return self._local

    def has_tombstones(self, predicate: Predicate) -> bool:
        return self._tombstone_counts.get(predicate, 0) > 0

    def is_tombstoned_row(self, predicate: Predicate, row: Row) -> bool:
        tombstones = self._tombstones.get(predicate)
        return tombstones is not None and row in tombstones

    # ------------------------------------------------------------- row plane
    def insert_row(self, predicate: Predicate, row: Row) -> bool:
        """Make the row visible in this branch; ``True`` iff it was not.

        Three disjoint cases, in check order: a **tombstoned base row** is
        resurrected (the tombstone is cleared; the row is served by the
        *base* again, not copied into the local layer — readers that keep
        separate base/local access paths rely on this, cf.
        ``OverlayRelationIndex._note_added``); a row **visible via the
        base** is a duplicate (``False``); anything else goes to the private
        local backend.  The base itself is never written.
        """
        tombstones = self._tombstones.get(predicate)
        if tombstones is not None and row in tombstones:
            tombstones.discard(row)
            self._tombstone_counts[predicate] -= 1
            self._tombstone_total -= 1
            return True
        if self._base.contains_row(predicate, row):
            return False
        return self._local.insert_row(predicate, row)

    def remove_row(self, predicate: Predicate, row: Row) -> bool:
        """Hide the row from this branch; ``True`` iff it was visible.

        A local addition is physically deleted; a visible base row gets a
        **tombstone** (per-predicate tombstone counts let readers skip the
        filter for untouched relations); an already-tombstoned or unknown
        row is a no-op.  The base itself is never written.
        """
        if self._local.remove_row(predicate, row):
            return True
        tombstones = self._tombstones.get(predicate)
        if tombstones is not None and row in tombstones:
            return False
        if self._base.contains_row(predicate, row):
            if tombstones is None:
                tombstones = self._tombstones.setdefault(predicate, set())
            tombstones.add(row)
            self._tombstone_counts[predicate] = (
                self._tombstone_counts.get(predicate, 0) + 1
            )
            self._tombstone_total += 1
            return True
        return False

    def contains_row(self, predicate: Predicate, row: Row) -> bool:
        if self._local.contains_row(predicate, row):
            return True
        if not self._base.contains_row(predicate, row):
            return False
        return not self.is_tombstoned_row(predicate, row)

    def rows_of(self, predicate: Predicate) -> Sequence[Row]:
        base_rows = self._base.rows_of(predicate)
        tombstones = self._tombstones.get(predicate)
        if tombstones:
            base_rows = [row for row in base_rows if row not in tombstones]
        local_rows = self._local.rows_of(predicate)
        if not local_rows:
            return base_rows
        if not base_rows:
            return local_rows
        return list(base_rows) + list(local_rows)

    # ------------------------------------------------------------ atom plane
    def snapshot(self) -> "OverlayBackend":
        clone = OverlayBackend(self._base)
        clone._local = self._local.snapshot()
        clone._tombstones = {
            predicate: set(rows) for predicate, rows in self._tombstones.items()
        }
        clone._tombstone_counts = dict(self._tombstone_counts)
        clone._tombstone_total = self._tombstone_total
        return clone

    def __contains__(self, atom: Atom) -> bool:
        row = self.symbols.try_encode_atom(atom)
        if row is None:
            return False
        return self.contains_row(atom.predicate, row)

    def __len__(self) -> int:
        return len(self._base) - self._tombstone_total + len(self._local)

    def __iter__(self) -> Iterator[Atom]:
        if self._tombstone_total:
            symbols = self.symbols
            for atom in self._base:
                tombstones = self._tombstones.get(atom.predicate)
                if tombstones:
                    row = symbols.try_encode_atom(atom)
                    if row is not None and row in tombstones:
                        continue
                yield atom
        else:
            yield from self._base
        yield from self._local

    def atoms_of(self, predicate: Predicate) -> Sequence[Atom]:
        if self.has_tombstones(predicate) or self._local.count(predicate):
            # Merge on the row plane, decode only the merged result.
            decode = self.symbols.atom
            return [decode(predicate, row) for row in self.rows_of(predicate)]
        return self._base.atoms_of(predicate)

    def count(self, predicate: Predicate) -> int:
        return (
            self._base.count(predicate)
            - self._tombstone_counts.get(predicate, 0)
            + self._local.count(predicate)
        )

    def predicates(self) -> Iterable[Predicate]:
        seen: Dict[Predicate, None] = {}
        for predicate in self._base.predicates():
            seen.setdefault(predicate, None)
        for predicate in self._local.predicates():
            seen.setdefault(predicate, None)
        return seen.keys()
