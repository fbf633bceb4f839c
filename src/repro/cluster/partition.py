"""Hash partitioning shared by the dataflow layer and the KV store.

Both layers must agree on key placement so that an operator instance and
the store partition holding its state land on the same node (S-QUERY's
co-partitioning optimisation).  The partitioner is therefore a standalone
object handed to both.
"""

from __future__ import annotations

import zlib
from bisect import insort
from typing import Hashable

from ..errors import ConfigurationError


def stable_hash(key: Hashable) -> int:
    """Deterministic, process-independent hash of a key.

    Python's built-in ``hash`` is randomised per process for strings, so
    we hash the repr through CRC32 instead.  Integers map to themselves
    (cheap and well spread by the modulo below for our workloads).
    """
    if isinstance(key, int):
        return key & 0x7FFFFFFF
    data = repr(key).encode("utf-8")
    return zlib.crc32(data) & 0x7FFFFFFF


def stable_hashes(keys: list) -> list:
    """:func:`stable_hash` of each key, ``None`` for a ``None`` key."""
    if set(map(type, keys)) <= {int}:
        return [key & 0x7FFFFFFF for key in keys]
    return [None if key is None else stable_hash(key) for key in keys]


class Partitioner:
    """Maps keys → partitions → (owner node, backup nodes)."""

    def __init__(self, partition_count: int, node_count: int,
                 backup_count: int = 1) -> None:
        if partition_count < 1:
            raise ConfigurationError("partition_count must be >= 1")
        if node_count < 1:
            raise ConfigurationError("node_count must be >= 1")
        if not 0 <= backup_count < node_count:
            raise ConfigurationError("backup_count must be in [0, nodes)")
        self.partition_count = partition_count
        self.node_count = node_count
        self.backup_count = backup_count
        # Round-robin partition table, as IMDG does after rebalancing.
        self._owner = [p % node_count for p in range(partition_count)]
        #: Per node, the partitions it owns (ascending); kept in step
        #: with ``_owner`` by its only other writer, ``reassign_node``.
        self._owned = [
            list(range(node, partition_count, node_count))
            for node in range(node_count)
        ]

    def partition_of(self, key: Hashable) -> int:
        return stable_hash(key) % self.partition_count

    def owner_of_partition(self, partition: int) -> int:
        return self._owner[partition]

    def owner_of(self, key: Hashable) -> int:
        return self.owner_of_partition(self.partition_of(key))

    def backups_of_partition(self, partition: int) -> list[int]:
        """Backup nodes for a partition: the next nodes in ring order."""
        owner = self._owner[partition]
        return [
            (owner + i) % self.node_count
            for i in range(1, self.backup_count + 1)
        ]

    def partitions_owned_by(self, node: int) -> list[int]:
        return list(self._owned[node])

    def reassign_node(self, dead_node: int,
                      alive: list[int] | None = None) -> dict[int, int]:
        """Move partitions owned by ``dead_node`` to their first backup.

        ``alive`` restricts promotion targets to nodes that are still
        members — without it, repeated failures could promote a backup
        that itself died earlier (the ring is computed from node ids,
        not liveness), silently orphaning the partition.  When backups
        are configured but every ring backup is dead, the partition
        falls to the first alive node (its data, if any, is lost —
        matching the drop semantics of asynchronously replicated
        state); with no backups configured at all the reassignment is
        impossible and raises.  Returns the mapping of reassigned
        partition → new owner.  Mirrors IMDG's promotion of backup
        replicas after a member failure.
        """
        is_alive = (
            (lambda n: n != dead_node) if alive is None
            else set(alive).__contains__
        )
        moved: dict[int, int] = {}
        for partition in self.partitions_owned_by(dead_node):
            backups = self.backups_of_partition(partition)
            candidates = [n for n in backups if is_alive(n)]
            if not candidates and self.backup_count > 0:
                candidates = sorted(
                    n for n in range(self.node_count) if is_alive(n)
                )
            if not candidates:
                raise ConfigurationError(
                    f"partition {partition} has no surviving replica"
                )
            self._owner[partition] = candidates[0]
            self._owned[dead_node].remove(partition)
            insort(self._owned[candidates[0]], partition)
            moved[partition] = candidates[0]
        return moved

    def instance_of(self, key: Hashable, parallelism: int) -> int:
        """Operator-instance index for a key at a given parallelism.

        Dataflow routing uses the same stable hash as store placement, so
        instance and state co-locate when instances are placed with
        :meth:`node_of_instance`.
        """
        return stable_hash(key) % parallelism

    def node_of_instance(self, instance: int, parallelism: int) -> int:
        """Placement of operator instances: striped across nodes."""
        del parallelism  # placement depends only on the stripe position
        return instance % self.node_count


def copartitioned_tables(left_table, right_table,
                         node_ids: list[int]) -> bool:
    """True when two state tables place equal join keys on equal nodes.

    Every backend maps a key to ``stable_hash(key) % partition_count``,
    so two tables use the same key→partition function exactly when
    their partition counts match.  Rather than reach into placement
    internals (live tables, snapshot versions, and LSM runs all store
    theirs differently), compare behaviour: if each node hosts the same
    partition-id set for both tables, the id spaces coincide (ids are
    dense in ``[0, count)``) and so does the key→node mapping — even
    after failures, because reassignment histories that diverged show
    up as differing per-node sets.
    """
    for node_id in node_ids:
        if set(left_table.partitions_on_node(node_id)) != \
                set(right_table.partitions_on_node(node_id)):
            return False
    return True
