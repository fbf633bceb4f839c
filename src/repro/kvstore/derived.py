"""One lifecycle for the structures derived from a table's entries.

Secondary indexes (:mod:`repro.kvstore.indexes`) and sketches
(:mod:`repro.approx.registry`) are two *families* of per-partition
structure derived from a partitioned table's ``(key, value)`` entries.
What they hold has nothing in common; how they live is one rule, the
one the paper's isolation levels rest on, and it is written here once:

* **live state (Table I)** — the registry is created and backfilled by
  DDL, then maintained synchronously inside the mirror write
  (``on_put`` / ``on_remove``, under the write's key-level lock) and
  re-derived per partition on a bulk replacement
  (``rebuild_partition``), so a read at any instant agrees with the
  partition dicts at that instant — the read-uncommitted contract live
  queries already have;
* **snapshot versions (Table II)** — copy-on-write: every retained
  version owns its registry (:class:`VersionedRegistries`), rebuilt as
  the version's instance writes land and **frozen** when the version
  commits.  From then on a maintenance call fires the
  ``on_frozen_mutation`` hook (the runtime sanitizers listen) and
  raises :class:`~repro.errors.StoreError`; reads only serve frozen
  versions.  The registry goes when the store retires the version;
  its maintenance ops stay in the rollup.

:class:`DerivedRegistry` is the part of that contract the two
registries share; holders (an ``IMap``, and every snapshot policy
through :class:`~repro.state.snapshots.SnapshotTableBase`, whatever it
stores versions as) keep registries by family name and never ask which
family they hold.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable, Iterator

from ..errors import StoreError

#: Family name -> plural, in the order holders iterate the families
#: (the order maintenance is priced and violations are reported in).
FAMILIES = {"index": "indexes", "sketch": "sketches"}


class DerivedRegistry:
    """Every structure of one family over one backing table (a map's
    partition dicts, or one retained snapshot version).

    ``entries_of_partition(partition)`` yields the backing store's
    ``(key, value)`` pairs in iteration order.  A family supplies
    ``family`` (a key of :data:`FAMILIES`), ``add_definition`` (create
    and backfill), ``on_put`` / ``on_remove`` / ``rebuild_partition``
    (each bumping ``maintenance_ops`` per entry touched) and
    ``coherence_errors``; its definitions carry ``name``, ``slot``
    (what one table can hold one of) and ``validate()``.
    """

    family: str

    def __init__(self, partition_count: int,
                 entries_of_partition: Callable[[int], Iterable]) -> None:
        # A structure covers exactly the column SQL row shaping
        # produces, so it reads values through the same definition.
        # Imported on use — the state package builds on this one.
        from ..state.rows import ColumnReader

        self.partition_count = partition_count
        self._entries_of = entries_of_partition
        self._column_of = ColumnReader().get
        self._defs: dict = {}
        self.frozen = False
        #: entry touches on the write path (observability).
        self.maintenance_ops = 0
        #: called with a message when a frozen registry is mutated,
        #: just before :class:`StoreError` is raised (sanitizer hook).
        self.on_frozen_mutation: Callable[[str], None] | None = None

    def __len__(self) -> int:
        return len(self._defs)

    def defs(self) -> list:
        return [self._defs[slot] for slot in sorted(self._defs)]

    def freeze(self) -> None:
        """Make the registry immutable (snapshot-commit time)."""
        self.frozen = True

    @classmethod
    def declared(cls, definitions: dict, definition):
        """The definition already in ``definition``'s slot of
        ``definitions`` (DDL is idempotent), ``None`` when the slot is
        free; a different occupant is a conflict."""
        definition.validate()
        existing = definitions.get(definition.slot)
        if existing is not None and existing != definition:
            raise StoreError(
                f"cannot create {cls.family} {definition.name}: "
                f"{existing.name} already exists with a different "
                "definition"
            )
        return existing

    def _ensure_mutable(self, operation: str) -> None:
        if not self.frozen:
            return
        message = (
            f"{operation} on a frozen {self.family} registry: committed "
            f"snapshot versions (and their {FAMILIES[self.family]}) are "
            "immutable"
        )
        if self.on_frozen_mutation is not None:
            self.on_frozen_mutation(message)
        raise StoreError(message)


class VersionedRegistries:
    """One family over a versioned table: definitions shared by every
    version, one copy-on-write registry per retained version."""

    def __init__(self, registry_class: type[DerivedRegistry],
                 partition_count: int,
                 entries_of: Callable[[int, int], Iterable]) -> None:
        """``entries_of(ssid, partition)`` yields that version's
        entries of one partition."""
        self._registry_class = registry_class
        self._partition_count = partition_count
        self._entries_of = entries_of
        self.definitions: dict = {}
        self.versions: dict[int, DerivedRegistry] = {}
        #: Maintenance ops of registries retired with their snapshots
        #: (keeps the observability rollup monotonic).
        self._retired_ops = 0
        self._hook: Callable[[str], None] | None = None

    def __len__(self) -> int:
        return len(self.definitions)

    def for_version(self, ssid: int) -> DerivedRegistry:
        registry = self.versions.get(ssid)
        if registry is None:
            registry = self._registry_class(
                self._partition_count, partial(self._entries_of, ssid)
            )
            registry.on_frozen_mutation = self._hook
            for definition in self.definitions.values():
                registry.add_definition(definition)
            self.versions[ssid] = registry
        return registry

    def add(self, definition, ssids: Iterable[int]):
        """Declare ``definition`` and backfill it into the retained
        versions ``ssids``: the one write a frozen (committed) registry
        admits, which leaves it frozen."""
        existing = self._registry_class.declared(
            self.definitions, definition
        )
        if existing is not None:
            return existing
        self.definitions[definition.slot] = definition
        for ssid in ssids:
            registry = self.for_version(ssid)
            frozen, registry.frozen = registry.frozen, False
            registry.add_definition(definition)
            registry.frozen = frozen
        return definition

    def rebuild(self, ssid: int, partition: int) -> None:
        """Re-derive ``partition`` of version ``ssid`` once its entries
        landed; a registry created now derives them in its backfill."""
        if not self.definitions:
            return
        registry = self.versions.get(ssid)
        if registry is None:
            self.for_version(ssid)
        else:
            registry.rebuild_partition(partition)

    def drop(self, ssid: int) -> None:
        registry = self.versions.pop(ssid, None)
        if registry is not None:
            self._retired_ops += registry.maintenance_ops

    def freeze(self, ssid: int) -> None:
        """Commit time: the version's registry becomes immutable (a
        version holds one from its first write or backfill on)."""
        registry = self.versions.get(ssid)
        if registry is not None:
            registry.freeze()

    def at(self, ssid: int) -> DerivedRegistry | None:
        """The version's registry once frozen: reads only serve
        committed versions."""
        registry = self.versions.get(ssid)
        return registry if registry is not None and registry.frozen \
            else None

    @property
    def maintenance_ops(self) -> int:
        return self._retired_ops + sum(
            registry.maintenance_ops
            for registry in self.versions.values()
        )

    def set_mutation_hook(self, hook: Callable[[str], None]) -> None:
        """Observe frozen-registry mutation attempts (sanitizers)."""
        self._hook = hook
        for registry in self.versions.values():
            registry.on_frozen_mutation = hook


def coherence_findings(
    store, families: Iterable[str] = FAMILIES
) -> Iterator[tuple[str, str, str | None]]:
    """Check every table's derived structures against its backing
    store: ``(family, subject, problem)`` per divergence, ``problem``
    being ``None`` for a committed version whose registry never froze.
    Tables lacking the surface (tests register minimal fakes) are
    skipped."""
    available = store.available_ssids()
    for family in families:
        for name in store.live_table_names():
            errors = getattr(
                store.get_live_table(name), "coherence_errors", None
            )
            if errors is None:
                continue
            for problem in errors(family):
                yield family, f"live table {name!r}", problem
        for name in store.snapshot_table_names():
            table = store.get_snapshot_table(name)
            count = getattr(table, "definition_count", None)
            if count is None or not count(family):
                continue
            for ssid in available:
                if not table.has_snapshot(ssid):
                    continue
                subject = f"snapshot table {name!r} ssid {ssid}"
                if not table.ready(family, ssid):
                    yield family, subject, None
                    continue
                for problem in table.coherence_errors(family, ssid):
                    yield family, subject, problem
