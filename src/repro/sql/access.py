"""Pricing and cost-based access-path selection for scan fragments.

Everything the query path charges a store server, the entry node's
pool or the network for, or estimates it will, is priced here and
nowhere else: :func:`shard_read_ms` (a scan or index-backed shard
read), :func:`point_read_ms`, :func:`sketch_read_ms`,
:func:`join_stage_ms`, the fixed statement, snapshot-id and merge
costs, and :func:`shipped_bytes`.  ``QueryService._read`` bills each
chunk with the function the chooser estimated the whole shard with, so
what ``explain`` prints is what a warm execution bills.

For each scan fragment the query service must decide *how* to read the
fragment's partitions: sweep them (the pruned full scan of PR 3),
resolve candidates through a secondary index and fetch only those rows,
or — for sketch-answerable ``APPROX`` aggregates — skip the rows
entirely and read one probabilistic summary per partition:

* full scan — every surviving partition entry pays the per-entry scan
  rate plus the fragment's pushed-filter and bounded-state surcharges,
  every chunk its batch overhead;
* index path — each per-partition probe pays ``index_probe_ms``, and
  each *candidate* row pays ``index_entry_ms`` plus the same surcharges
  (candidates still run the full pushed-conjunct filter, so index-on
  results stay bit-identical to index-off);
* sketch path — one ``sketch_probe_ms`` per partition, independent of
  partition size (the estimate carries an error bound instead of
  touching rows).

The chooser is strictly conservative: it only considers a column when
the fragment's leading pushed conjuncts imply a value restriction on it
(:func:`~repro.sql.fragments.extract_column_filter`, which reads the
leading ones only: a row the index skips leaves at one of them, so the
read is exact, errors included), and it asks the
table for exact per-partition candidate counts — a partition that
cannot be probed soundly (missing columns, mixed types, a degraded
structure) vetoes the whole index path for this fragment.

Every candidate that loses records *why* in ``AccessPath.rejected``,
which ``QueryService.explain`` renders — the difference between "the
index lost on cost" and "the index was never applicable" matters when
debugging sketch/index/scan selection.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..kvstore.indexes import EqProbe, RangeProbe
from .fragments import (
    KeyFilter,
    KeySet,
    ScanFragment,
    extract_column_filter,
)


#: What a scan-side top-k stage is billed per entry, as a share of the
#: partial-aggregate rate: both update one bounded state per surviving
#: entry.  Measured on the host over a 4,000-row shard, the stage alone
#: costs 0.40 us/row against 1.36 us/row for a two-aggregate GROUP BY
#: fold (docs/ARCHITECTURE.md).
TOP_K_ENTRY_SHARE = 0.3


def pushed_stage(fragment: ScanFragment | None,
                 entries: int) -> str | None:
    """What a shard of ``entries`` entries runs per entry beside the
    read: nothing (``None``: whole rows ship), the pushed ``"filter"``
    and projection alone, or those plus one bounded state — the
    ``"partial"`` aggregate fold, or the ``"top-k"`` stage when the
    shard holds more rows than it keeps."""
    if fragment is None:
        return None
    if fragment.partial is not None:
        return "partial"
    if fragment.top_k_keep(entries) is not None:
        return "top-k"
    return "filter"


def shard_read_ms(costs, entries: int, stage: str | None = None,
                  probes: int = 0, indexed: bool = False,
                  compiles: bool = False) -> float:
    """Store-server time of reading ``entries`` entries of one shard.

    ``stage`` is the shard's :func:`pushed_stage`; ``indexed`` reads
    fetch candidates by key after ``probes`` index probes instead of
    sweeping partitions; ``compiles`` adds the one-off compilation of
    the fragment (a compile-cache miss).  Every started chunk of
    ``scan_chunk_entries`` assembles one column batch.  Called once for
    a whole shard this is the chooser's estimate; called per chunk
    (probes and compilation with the first) it is the bill."""
    rate = costs.index_entry_ms if indexed else costs.scan_entry_ms
    if stage is not None:
        rate += costs.pushed_filter_entry_ms
        if stage == "partial":
            rate += costs.partial_agg_entry_ms
        elif stage == "top-k":
            rate += TOP_K_ENTRY_SHARE * costs.partial_agg_entry_ms
    chunks = -(-entries // costs.scan_chunk_entries)
    return (
        entries * rate + chunks * costs.batch_fixed_ms
        + (probes * costs.index_probe_ms
           + (costs.predicate_compile_ms if compiles else 0.0))
    )


def point_read_ms(costs, keys: int) -> float:
    """Store-server time of getting ``keys`` keys from their owner: a
    seek and an entry read per key, a handful of store operations."""
    return 4 * costs.store_entry_ms * keys


def sketch_read_ms(costs, probes: int) -> float:
    """Store-server time of reading ``probes`` partition sketches."""
    return probes * costs.sketch_probe_ms


def statement_ms(costs) -> float:
    """Entry-pool time of parsing and planning one statement."""
    return costs.sql_fixed_ms


def snapshot_id_read_ms(costs) -> float:
    """Store-server time of the atomic committed-snapshot pointer read."""
    return costs.snapshot_id_read_ms


def merge_ms(costs, rows: int) -> float:
    """Entry-pool time of merging ``rows`` shipped rows."""
    return rows * costs.merge_row_ms


def shipped_bytes(costs, rows: int, columns: int | None = None) -> int:
    """Network bytes of ``rows`` rows: a flat ``row_bytes`` each for
    whole rows (``columns`` is ``None``), else a framing header each
    plus ``columns`` column values in all — the shape that ships."""
    if columns is None:
        return rows * costs.row_bytes
    return rows * costs.row_overhead_bytes + columns * costs.column_bytes


def join_stage_ms(costs, build_rows: int, probe_rows: int) -> float:
    """Time one worker spends inserting ``build_rows`` into a hash-join
    build table and probing it with ``probe_rows``."""
    return (build_rows * costs.join_build_entry_ms
            + probe_rows * costs.join_probe_entry_ms)


@dataclass(frozen=True)
class SketchCandidate:
    """A priced sketch read: one probe per partition, no row touches."""

    label: str  # e.g. "countmin('state')"
    probes: int


@dataclass(frozen=True)
class AccessPath:
    """One priced way of reading a fragment's partitions on one node."""

    kind: str  # "scan" | "index-eq" | "index-range" | "sketch" | "point"
    column: str | None
    probe: EqProbe | RangeProbe | None
    #: index probes issued (one per partition-and-value / range), sketch
    #: probes (one per partition), or keys a point get seeks.
    probes: int
    #: rows the path touches (== scan_entries for a full scan, 0 for a
    #: sketch, the keys sought for a point get).
    candidates: int
    scan_entries: int
    cost_ms: float
    scan_cost_ms: float
    #: Display label for sketch paths.
    label: str | None = None
    #: Why each losing candidate was not chosen, in evaluation order.
    rejected: tuple[str, ...] = ()

    def describe(self) -> str:
        if self.kind == "scan":
            return (
                f"full scan ({self.scan_entries} rows, est. "
                f"{self.cost_ms:.3f} ms; no cheaper index)"
            )
        if self.kind == "sketch":
            return (
                f"sketch {self.label}: {self.probes} probe(s) "
                f"summarising {self.scan_entries} rows "
                f"(est. {self.cost_ms:.3f} ms vs scan "
                f"{self.scan_cost_ms:.3f} ms)"
            )
        shape = (
            "index probe" if self.kind == "index-eq" else "index range"
        )
        return (
            f"{shape} on {self.column!r}: {self.candidates} of "
            f"{self.scan_entries} rows via {self.probes} probe(s) "
            f"(est. {self.cost_ms:.3f} ms vs scan "
            f"{self.scan_cost_ms:.3f} ms)"
        )


def probe_for(key_filter: KeyFilter,
              needs_str: bool) -> EqProbe | RangeProbe:
    """Translate a planner value restriction into an index probe."""
    if isinstance(key_filter, KeySet):
        # NULL never satisfies an equality/IN predicate, and sorted
        # structures exclude NULLs — probing without them is exact.
        return EqProbe(
            values=tuple(
                value for value in key_filter.keys if value is not None
            ),
            needs_str=needs_str,
        )
    return RangeProbe(
        low=key_filter.low,
        high=key_filter.high,
        low_inclusive=key_filter.low_inclusive,
        high_inclusive=key_filter.high_inclusive,
        needs_str=needs_str,
    )


def _scan_path(scan_entries: int, scan_cost: float) -> AccessPath:
    return AccessPath(
        kind="scan",
        column=None,
        probe=None,
        probes=0,
        candidates=scan_entries,
        scan_entries=scan_entries,
        cost_ms=scan_cost,
        scan_cost_ms=scan_cost,
    )


def sketch_path(costs, probes: int, scan_entries: int = 0,
                scan_cost: float = 0.0, label=None) -> AccessPath:
    """Reading ``probes`` partition sketches instead of their rows."""
    return AccessPath("sketch", None, None, probes, 0, scan_entries,
                      sketch_read_ms(costs, probes), scan_cost, label)


def index_path(fragment: ScanFragment | None, view,
               partitions: list[int], scan_entries: int, costs,
               column: str, probe: EqProbe | RangeProbe
               ) -> AccessPath | int:
    """Reading ``partitions`` through ``column``'s index with ``probe``,
    priced on exact counts; else the first partition not soundly
    probeable."""
    probes = 0
    candidates = 0
    for partition in partitions:
        counted = view.index_probe_count(partition, column, probe)
        if counted is None:
            return partition
        probes += counted[0]
        candidates += counted[1]
    return AccessPath(
        kind="index-eq" if isinstance(probe, EqProbe) else "index-range",
        column=column,
        probe=probe,
        probes=probes,
        candidates=candidates,
        scan_entries=scan_entries,
        cost_ms=shard_read_ms(costs, candidates,
                              pushed_stage(fragment, candidates),
                              probes, indexed=True),
        scan_cost_ms=shard_read_ms(costs, scan_entries,
                                   pushed_stage(fragment, scan_entries)),
    )


def _candidate_label(path: AccessPath) -> str:
    if path.kind == "sketch":
        return f"sketch {path.label}"
    if path.kind == "scan":
        return "full scan"
    return f"index on {path.column!r}"


def choose_access_path(fragment: ScanFragment | None, view,
                       partitions: list[int], scan_entries: int,
                       costs, sketch: SketchCandidate | None = None,
                       indexes: bool = True) -> AccessPath:
    """Pick the cheapest way to read ``partitions`` of ``view``.

    ``view`` is a :class:`~repro.state.view.TableView` (anything
    exposing ``index_columns()`` and ``index_probe_count(partition,
    column, probe)``), already bound to the version it reads.  The
    full scan is the baseline; an index or sketch path must be strictly
    cheaper to win.  ``fragment`` is what the shard runs over the
    entries it reads (``None``: it ships whole rows, and nothing
    restricts an index).  ``sketch`` is an already-validated sketch
    read the caller wants priced against the exact paths;
    ``indexes=False`` drops index candidates entirely (the
    service-level ablation knob — a disabled index is not a legal exact
    path to price against).
    """
    rejected: list[str] = []
    scan_cost = shard_read_ms(costs, scan_entries,
                              pushed_stage(fragment, scan_entries))
    best = _scan_path(scan_entries, scan_cost)

    def offer(label: str, path: AccessPath) -> None:
        """Take ``path`` if it beats the best so far; say why not."""
        nonlocal best
        if path.cost_ms < best.cost_ms:
            if best.kind != "scan":
                rejected.append(
                    f"{_candidate_label(best)}: est. "
                    f"{best.cost_ms:.3f} ms beaten by a cheaper path"
                )
            best = path
        else:
            rejected.append(
                f"{label}: est. {path.cost_ms:.3f} ms >= "
                f"best {best.cost_ms:.3f} ms"
            )

    columns = (view.index_columns()
               if indexes and fragment is not None else {})
    for column, kind in columns.items():
        extracted = extract_column_filter(
            fragment.pushed, column, fragment.binding,
        )
        if extracted is None:
            rejected.append(
                f"index {kind}({column!r}): no leading pushed "
                "equality/range restriction on the column"
            )
            continue
        key_filter, needs_str = extracted
        probe = probe_for(key_filter, needs_str)
        if isinstance(probe, RangeProbe) and kind == "hash":
            rejected.append(
                f"index {kind}({column!r}): range restriction needs a "
                "sorted index"
            )
            continue
        path = index_path(fragment, view, partitions, scan_entries, costs,
                          column, probe)
        if isinstance(path, int):
            rejected.append(
                f"index {kind}({column!r}): partition {path} not "
                "probeable (missing or mixed-type values)"
            )
            continue
        offer(f"index {kind}({column!r})", path)
    if sketch is not None:
        offer(f"sketch {sketch.label}", sketch_path(
            costs, sketch.probes, scan_entries, scan_cost, sketch.label,
        ))
    if best.kind != "scan":
        rejected.append(
            f"full scan: est. {scan_cost:.3f} ms >= chosen "
            f"{best.cost_ms:.3f} ms"
        )
    return replace(best, rejected=tuple(rejected))


# -- join strategy selection --------------------------------------------------


@dataclass(frozen=True)
class JoinCandidate:
    """Estimated inputs for pricing one JOIN step's physical strategies.

    Row counts are *estimates*: build-side counts come from sketch or
    zone-map cardinalities when PR 6 structures cover the pushed
    equality (``estimate_source`` says which), falling back to raw
    entry counts.  The chooser never needs them to be exact — only the
    executed rows are billed — but a wrong estimate picks a slower
    strategy, which the ablation benchmark would surface.
    """

    table: str
    kind: str  # 'INNER' | 'LEFT'
    #: estimated probe-side rows reaching this step (whole cluster).
    left_rows: int
    #: estimated build-side rows after its fragment's pushdown.
    right_rows: int
    #: estimated shipped bytes per probe/build row (projection-aware).
    left_row_bytes: int
    right_row_bytes: int
    node_count: int
    #: the join key is the partition key on both sides.
    partition_key_join: bool = False
    #: both tables place equal keys on equal nodes (behavioural check).
    copartitioned: bool = False
    #: probe side still sits on its scan nodes (no earlier shuffle).
    left_native: bool = True
    #: index kind on the build column, when the build table has one.
    index_kind: str | None = None
    estimate_source: str = "entries"  # 'entries' | 'sketch' | 'zone-map'


@dataclass(frozen=True)
class JoinPath:
    """The chosen strategy for one JOIN step, with its pricing."""

    strategy: str  # 'copartitioned' | 'broadcast' | 'shuffle'
    #           | 'index-nested-loop' | 'central'
    table: str
    kind: str
    cost_ms: float
    central_cost_ms: float
    left_rows: int
    right_rows: int
    estimate_source: str = "entries"
    rejected: tuple[str, ...] = ()

    def describe(self) -> str:
        est = (
            f"est. {self.cost_ms:.3f} ms vs central "
            f"{self.central_cost_ms:.3f} ms, "
            f"~{self.right_rows} build rows from "
            f"{self.estimate_source}"
        )
        if self.strategy == "copartitioned":
            return f"co-partitioned hash join ({est})"
        if self.strategy == "broadcast":
            return f"broadcast hash join ({est})"
        if self.strategy == "shuffle":
            return f"shuffle-hash join ({est})"
        if self.strategy == "index-nested-loop":
            return f"index-nested-loop join ({est})"
        return (
            "central hash join (no strictly cheaper distributed "
            "strategy)"
        )


def _join_compute_ms(candidate: JoinCandidate, costs,
                     parallel: bool) -> float:
    """Build + probe entry costs, spread across nodes when parallel."""
    compute = join_stage_ms(costs, candidate.right_rows,
                            candidate.left_rows)
    if parallel:
        return compute / max(1, candidate.node_count)
    return compute


def choose_join_path(candidate: JoinCandidate, costs) -> JoinPath:
    """Pick the cheapest physical strategy for one JOIN step.

    The central join is the baseline: ship both sides to the entry
    node (priced at the shuffle byte rate — same links, same rows) and
    build/probe there on one core.  A distributed strategy must be
    strictly cheaper to win; every loser records why, in evaluation
    order (co-partitioned, index-nested-loop, broadcast, shuffle), and
    ``QueryService.explain`` renders the list.
    """
    rejected: list[str] = []
    nodes = max(1, candidate.node_count)
    left_bytes = candidate.left_rows * candidate.left_row_bytes
    right_bytes = candidate.right_rows * candidate.right_row_bytes
    central_cost = (
        (left_bytes + right_bytes) * costs.join_shuffle_byte_ms
        + _join_compute_ms(candidate, costs, parallel=False)
    )
    best_strategy = "central"
    best_cost = central_cost

    def offer(strategy: str, cost: float, label: str = "") -> None:
        """Take ``strategy`` if it beats the best so far; say why not."""
        nonlocal best_strategy, best_cost
        if cost < best_cost:
            if best_strategy != "central":
                rejected.append(
                    f"{best_strategy}: est. {best_cost:.3f} ms beaten "
                    "by a cheaper strategy"
                )
            best_strategy, best_cost = strategy, cost
        else:
            rejected.append(
                f"{label or strategy}: est. {cost:.3f} ms >= best "
                f"{best_cost:.3f} ms"
            )

    # co-partitioned: no row leaves its node; compute is fully parallel.
    if not candidate.partition_key_join:
        rejected.append(
            "co-partitioned: join key is not the partition key on "
            "both sides"
        )
    elif not candidate.left_native:
        rejected.append(
            "co-partitioned: probe side was repartitioned by an "
            "earlier shuffle step"
        )
    elif not candidate.copartitioned:
        rejected.append(
            "co-partitioned: tables do not share partition placement"
        )
    else:
        offer("copartitioned",
              _join_compute_ms(candidate, costs, parallel=True),
              label="co-partitioned")

    # index-nested-loop: resolve build rows through the build-column
    # index instead of sweeping the build table.  Candidate rows are
    # then broadcast like a small build side.  LEFT joins need every
    # build row for NULL padding, which defeats the point.
    if candidate.index_kind is None:
        rejected.append(
            "index-nested-loop: no hash/sorted index on the build "
            "column, or build-side conjuncts that must see every row"
        )
    elif candidate.kind != "INNER":
        rejected.append(
            "index-nested-loop: LEFT join needs the full build side "
            "for NULL padding"
        )
    else:
        probed = min(candidate.right_rows, candidate.left_rows)
        offer("index-nested-loop", (
            shard_read_ms(costs, probed, probes=candidate.left_rows,
                          indexed=True)
            + probed * candidate.right_row_bytes * nodes
            * costs.join_broadcast_byte_ms
            + join_stage_ms(costs, probed * nodes, candidate.left_rows)
            / nodes
        ))

    # broadcast: replicate the build side to every probe fragment;
    # each node builds its own copy, probes stay local.
    offer("broadcast", (
        right_bytes * nodes * costs.join_broadcast_byte_ms
        + join_stage_ms(costs, candidate.right_rows, 0)
        + join_stage_ms(costs, 0, candidate.left_rows) / nodes
    ))

    # shuffle-hash: repartition both sides by join key; the general
    # fallback — same bytes as central but parallel build/probe.
    offer("shuffle", (
        (left_bytes + right_bytes) * costs.join_shuffle_byte_ms
        + _join_compute_ms(candidate, costs, parallel=True)
    ))

    if best_strategy != "central":
        rejected.append(
            f"central: est. {central_cost:.3f} ms >= chosen "
            f"{best_cost:.3f} ms"
        )
    return JoinPath(
        strategy=best_strategy,
        table=candidate.table,
        kind=candidate.kind,
        cost_ms=best_cost,
        central_cost_ms=central_cost,
        left_rows=candidate.left_rows,
        right_rows=candidate.right_rows,
        estimate_source=candidate.estimate_source,
        rejected=tuple(rejected),
    )
