"""S-QUERY state management — the paper's core contribution.

Exposes operator state through the KV store in two queryable forms:

* **live state** (Table I): one row per key, mirrored on every state
  update (:mod:`~repro.state.live`);
* **snapshot state** (Table II): one row per (key, snapshot id),
  written at each checkpoint into a per-instance version trace
  (:mod:`~repro.state.snapshots`), kept as full copies, delta chains
  with backward reconstruction and pruning, or LSM runs.

:class:`~repro.state.manager.SQueryBackend` plugs these into the
dataflow engine's state-backend interface, and
:mod:`~repro.state.isolation` documents and enforces the isolation
levels of §VII.
"""

from .isolation import IsolationLevel, isolation_of_query
from .live import LiveStateTable
from .manager import SQueryBackend
from .rows import live_row, snapshot_row, value_to_columns
from .savepoints import bootstrap_job, export_snapshot
from .snapshots import (
    FullSnapshotTable, IncrementalSnapshotTable, LsmSnapshotTable,
)

__all__ = [
    "FullSnapshotTable",
    "IncrementalSnapshotTable",
    "IsolationLevel",
    "LiveStateTable",
    "LsmSnapshotTable",
    "SQueryBackend",
    "bootstrap_job",
    "export_snapshot",
    "isolation_of_query",
    "live_row",
    "snapshot_row",
    "value_to_columns",
]
