"""System-wide invariants a chaos run must preserve.

Whatever interleaving of kills, restarts, and queries a scenario plays
out, once the simulation drains the system must be clean:

* **no hung queries** — every submitted execution completed (with a
  result or an error); no query-service in-flight records remain;
* **no leaked locks** — the lock table holds zero keys and has no
  stranded waiters (a repeatable-read query that died mid-acquisition
  must have given everything back);
* **snapshot determinism** — a committed snapshot query returns
  bit-identical rows before and after a kill/recovery, checked via
  :func:`snapshot_fingerprint`;
* **index / sketch coherence** — whatever partitions were dropped,
  rebuilt, or promoted along the way, every derived structure
  (:mod:`repro.kvstore.derived`) must agree with its backing store — a
  secondary index entry for entry, a count-min/HLL/reservoir summary by
  being rebuildable bit-identically — and committed snapshot versions
  must carry frozen registries.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable

from ..env import Environment
from ..errors import InvariantViolationError
from ..kvstore.derived import FAMILIES, coherence_findings
from ..query.service import QueryExecution
from ..sql.executor import QueryResult


def check_invariants(
    env: Environment,
    executions: Iterable[QueryExecution] = (),
) -> list[str]:
    """Return human-readable violations (empty list = clean)."""
    violations: list[str] = []

    for service in getattr(env, "query_services", ()):
        if service.inflight_queries:
            violations.append(
                f"query service still tracks {service.inflight_queries} "
                "in-flight queries after drain"
            )

    locks = env.store.locks
    if locks.held_count:
        violations.append(
            f"lock table leaked {locks.held_count} keys: "
            f"{locks.held_keys()[:5]!r}"
        )
    if locks.waiting_count:
        violations.append(
            f"lock table stranded {locks.waiting_count} waiters"
        )

    for family, subject, problem in coherence_findings(env.store):
        if problem is None:
            violations.append(
                f"{subject} committed with unfrozen {FAMILIES[family]}"
            )
        else:
            violations.append(f"{subject} {family} incoherent: {problem}")

    for execution in executions:
        if not execution.done:
            violations.append(
                f"query {execution.qid} ({execution.sql!r}) hung: "
                f"submitted at {execution.submitted_ms} ms, never "
                "completed"
            )
        elif execution.error is None and execution.result is None and \
                execution.materialize:
            violations.append(
                f"query {execution.qid} completed with neither result "
                "nor error"
            )
    return violations


def assert_invariants(
    env: Environment,
    executions: Iterable[QueryExecution] = (),
) -> None:
    """Raise :class:`InvariantViolationError` listing all violations."""
    violations = check_invariants(env, executions)
    if violations:
        raise InvariantViolationError(
            "chaos invariants violated:\n  - " + "\n  - ".join(violations)
        )


def snapshot_fingerprint(result: QueryResult) -> str:
    """Order-independent content hash of a query result.

    Rows are serialised canonically (sorted keys, sorted row order), so
    two results fingerprint equal iff they contain exactly the same
    rows — the check behind "snapshot queries are bit-identical across
    a kill and recovery".
    """
    canonical = sorted(
        json.dumps(row, sort_keys=True, default=repr)
        for row in result.rows
    )
    digest = hashlib.sha256("\n".join(canonical).encode("utf-8"))
    return digest.hexdigest()
