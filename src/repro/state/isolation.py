"""Isolation levels offered by S-QUERY (§VII).

============================  =============================================
Level                         How S-QUERY provides it
============================  =============================================
``READ_UNCOMMITTED``          Live-state queries: operator updates are
                              uncommitted until the next checkpoint; a
                              failure rolls them back, so a live read may
                              turn out to be dirty (Fig. 5).
``READ_COMMITTED``            Live-state queries *assuming no failures*,
                              thanks to key-level locking around each
                              read/write; or with an HA/active-replication
                              setup (not simulated).
``REPEATABLE_READ``           Live-state queries that hold every key lock
                              for the whole query duration
                              (``QueryService(repeatable_read=True)``);
                              expensive, off by default.
``SNAPSHOT`` / ``SERIALIZABLE``  Snapshot-state queries: they execute on an
                              atomically committed snapshot, and because
                              state updates are serialised by design
                              (single-threaded operators on disjoint
                              partitions) there are no write conflicts —
                              snapshot isolation is serialisable here
                              (Fig. 6).
============================  =============================================
"""

from __future__ import annotations

import enum


class IsolationLevel(enum.Enum):
    READ_UNCOMMITTED = "read uncommitted"
    READ_COMMITTED = "read committed"
    REPEATABLE_READ = "repeatable read"
    SNAPSHOT = "snapshot"
    SERIALIZABLE = "serializable"

    def at_least(self, other: "IsolationLevel") -> bool:
        """Whether this level is as strong as ``other``."""
        return _STRENGTH[self] >= _STRENGTH[other]


_STRENGTH = {
    IsolationLevel.READ_UNCOMMITTED: 0,
    IsolationLevel.READ_COMMITTED: 1,
    IsolationLevel.REPEATABLE_READ: 2,
    IsolationLevel.SNAPSHOT: 3,
    IsolationLevel.SERIALIZABLE: 4,
}


def isolation_of_query(targets_snapshot: bool, repeatable_read_locks: bool,
                       assume_no_failures: bool = False) -> IsolationLevel:
    """The isolation level a query effectively runs under (§VII-B).

    Snapshot queries are serialisable by the paper's deduction; live
    queries are read-uncommitted, upgraded to read-committed under a
    no-failure assumption and to repeatable-read when locks are held for
    the whole query.
    """
    if targets_snapshot:
        return IsolationLevel.SERIALIZABLE
    if repeatable_read_locks:
        return IsolationLevel.REPEATABLE_READ
    if assume_no_failures:
        return IsolationLevel.READ_COMMITTED
    return IsolationLevel.READ_UNCOMMITTED
