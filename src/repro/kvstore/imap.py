"""Partitioned distributed maps and key-placement strategies.

An :class:`IMap` is a named map whose keys are attributed to cluster
nodes by a :class:`Placement`.  Two placements exist:

* :class:`HashPlacement` — generic IMDG behaviour: key → hash partition
  → owner node;
* :class:`InstancePlacement` — operator-state behaviour: key → operator
  instance → that instance's node.  This realises the paper's
  co-partitioning of state and compute, guaranteeing that live-state
  mirroring and snapshot writes are node-local.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Iterator

from ..cluster.partition import Partitioner, stable_hash
from ..errors import StoreError
from .derived import DerivedRegistry
from .indexes import MISSING as _NO_VALUE


class Placement:
    """Maps keys to partitions and partitions to owner nodes."""

    @property
    def partition_count(self) -> int:
        raise NotImplementedError

    def partition_of(self, key: Hashable) -> int:
        raise NotImplementedError

    def owner_of_partition(self, partition: int) -> int:
        raise NotImplementedError

    def owner_of(self, key: Hashable) -> int:
        return self.owner_of_partition(self.partition_of(key))

    def partitions_on_node(self, node_id: int) -> list[int]:
        """Partitions ``node_id`` owns, ascending."""
        return [
            partition for partition in range(self.partition_count)
            if self.owner_of_partition(partition) == node_id
        ]

    def backup_of_partition(self, partition: int) -> int | None:
        """Node holding the backup replica, or ``None`` if none."""
        raise NotImplementedError


class HashPlacement(Placement):
    """Generic placement via the cluster-wide partitioner."""

    def __init__(self, partitioner: Partitioner) -> None:
        self._partitioner = partitioner

    @property
    def partition_count(self) -> int:
        return self._partitioner.partition_count

    def partition_of(self, key: Hashable) -> int:
        return self._partitioner.partition_of(key)

    def owner_of_partition(self, partition: int) -> int:
        return self._partitioner.owner_of_partition(partition)

    def partitions_on_node(self, node_id: int) -> list[int]:
        return self._partitioner.partitions_owned_by(node_id)

    def backup_of_partition(self, partition: int) -> int | None:
        backups = self._partitioner.backups_of_partition(partition)
        return backups[0] if backups else None


class InstancePlacement(Placement):
    """Operator-state placement: partition index == instance index.

    ``node_of_instance`` is a live callable into the job's current
    instance assignment so that placement follows operator rescheduling
    after failures.
    """

    def __init__(self, parallelism: int,
                 node_of_instance: Callable[[int], int],
                 node_count: int) -> None:
        if parallelism < 1:
            raise StoreError("parallelism must be >= 1")
        self._parallelism = parallelism
        self._node_of_instance = node_of_instance
        self._node_count = node_count

    @property
    def partition_count(self) -> int:
        return self._parallelism

    def partition_of(self, key: Hashable) -> int:
        return stable_hash(key) % self._parallelism

    def owner_of_partition(self, partition: int) -> int:
        return self._node_of_instance(partition)

    def backup_of_partition(self, partition: int) -> int | None:
        if self._node_count < 2:
            return None
        return (self._node_of_instance(partition) + 1) % self._node_count


class IMap:
    """A named partitioned map.

    Data is held per partition.  Entry values are arbitrary Python
    objects (the paper stores complex Java/Python state objects).  The
    map tracks a per-key version counter used by torn-read detection in
    the isolation tests.
    """

    def __init__(self, name: str, placement: Placement) -> None:
        self.name = name
        self.placement = placement
        self._partitions: list[dict[Hashable, object]] = [
            {} for _ in range(placement.partition_count)
        ]
        self._versions: dict[Hashable, int] = {}
        self._writes = 0
        #: Derived-structure registries by family name (see
        #: :mod:`~repro.kvstore.derived`), each created by its first
        #: DDL; while empty, a mutation pays one truthiness test.
        self.registries: dict[str, DerivedRegistry] = {}

    def add_definition(self, registry_class: type[DerivedRegistry],
                       definition):
        """Create (or return the existing) structure of
        ``registry_class``'s family on one value column."""
        family = registry_class.family
        if family not in self.registries:
            self.registries[family] = registry_class(
                self.placement.partition_count,
                lambda partition: self._partitions[partition].items(),
            )
        return self.registries[family].add_definition(definition)

    def partition_state(self, partition: int) -> dict[Hashable, object]:
        """One partition's ``{key: value}`` as stored: shared and
        read-only.  Scans read it in place, and a stored value changes
        only through a write to the map (which moves
        :attr:`write_count`), never in place."""
        return self._partitions[partition]

    # -- single-key operations -------------------------------------------

    def put(self, key: Hashable, value: object) -> None:
        partition = self.placement.partition_of(key)
        bucket = self._partitions[partition]
        if self.registries:
            old = bucket.get(key, _NO_VALUE)
            for registry in self.registries.values():
                registry.on_put(partition, key, old, value)
        bucket[key] = value
        self._versions[key] = self._versions.get(key, 0) + 1
        self._writes += 1

    def get(self, key: Hashable, default: object = None) -> object:
        partition = self.placement.partition_of(key)
        return self._partitions[partition].get(key, default)

    def contains(self, key: Hashable) -> bool:
        partition = self.placement.partition_of(key)
        return key in self._partitions[partition]

    def delete(self, key: Hashable) -> bool:
        partition = self.placement.partition_of(key)
        removed = self._partitions[partition].pop(key, _MISSING)
        if removed is _MISSING:
            return False
        if self.registries:
            for registry in self.registries.values():
                registry.on_remove(partition, key, removed)
        self._versions[key] = self._versions.get(key, 0) + 1
        self._writes += 1
        return True

    def version_of(self, key: Hashable) -> int:
        return self._versions.get(key, 0)

    # -- bulk access --------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(p) for p in self._partitions)

    @property
    def write_count(self) -> int:
        """The map's write stamp: it changes on every mutation (each
        ``put`` and ``delete``, each ``drop_partitions`` and ``clear``),
        so a reader that saw a stamp unchanged saw the same entries."""
        return self._writes

    def keys(self) -> Iterator[Hashable]:
        for partition in self._partitions:
            yield from partition.keys()

    def entries(self) -> Iterator[tuple[Hashable, object]]:
        for partition in self._partitions:
            yield from partition.items()

    def partition_entries(
        self, partition: int
    ) -> Iterator[tuple[Hashable, object]]:
        yield from self._partitions[partition].items()

    def partition_size(self, partition: int) -> int:
        return len(self._partitions[partition])

    def entries_on_node(
        self, node_id: int
    ) -> Iterator[tuple[Hashable, object]]:
        for partition in self.placement.partitions_on_node(node_id):
            yield from self._partitions[partition].items()

    def partitions_on_node(self, node_id: int) -> list[int]:
        return self.placement.partitions_on_node(node_id)

    def clear(self) -> None:
        self.drop_partitions(range(len(self._partitions)))

    def drop_partitions(self, partitions: Iterable[int]) -> int:
        """Discard the given partitions' entries; returns entries lost.

        Used when a node dies and a partition has no surviving replica
        (or the replica is not synchronously maintained, as for live
        state).
        """
        lost = 0
        for partition in partitions:
            lost += len(self._partitions[partition])
            self._partitions[partition].clear()
            for registry in self.registries.values():
                registry.rebuild_partition(partition)
        self._writes += 1
        return lost


_MISSING = object()
