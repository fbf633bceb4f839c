"""Property-based tests: incremental reconstruction always matches a
directly-maintained reference state, under arbitrary interleavings of
puts, deletes, and snapshots."""

from hypothesis import given, settings, strategies as st

from repro.state import (
    FullSnapshotTable, IncrementalSnapshotTable, LsmSnapshotTable,
)


#: An operation: (key, value) put, or (key, None) delete.
operations = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=12),
        st.one_of(st.none(), st.integers(min_value=0, max_value=99)),
    ),
    min_size=0,
    max_size=60,
)

#: Snapshot boundaries: after how many operations each checkpoint fires.
boundaries = st.lists(st.integers(min_value=0, max_value=10),
                      min_size=1, max_size=8)


def apply_trace(table, trace, checkpoints):
    """Feed operations into a dirty-tracked state; snapshot at the
    boundaries.  Returns {ssid: reference state dict}."""
    reference = {}
    state = {}
    dirty = {}
    deleted = set()
    ssid = 0
    position = 0
    for chunk in checkpoints:
        for key, value in trace[position:position + chunk]:
            if value is None:
                if key in state:
                    del state[key]
                    dirty.pop(key, None)
                    deleted.add(key)
            else:
                state[key] = value
                dirty[key] = value
                deleted.discard(key)
        position += chunk
        ssid += 1
        table.write_instance(ssid, 0, dict(dirty), set(deleted))
        dirty.clear()
        deleted.clear()
        reference[ssid] = dict(state)
    return reference


@settings(max_examples=80)
@given(operations, boundaries)
def test_reconstruction_matches_reference(trace, checkpoints):
    table = IncrementalSnapshotTable("t", 1, lambda i: 0,
                                     prune_chain_length=100)
    reference = apply_trace(table, trace, checkpoints)
    for ssid, expected in reference.items():
        state, scanned = table.materialize_instance(ssid, 0)
        assert state == expected
        assert scanned >= len(expected)


@settings(max_examples=80)
@given(operations, boundaries,
       st.integers(min_value=1, max_value=4))
def test_pruning_never_changes_answers(trace, checkpoints, prune_at):
    pruned = IncrementalSnapshotTable("p", 1, lambda i: 0,
                                      prune_chain_length=prune_at)
    unpruned = IncrementalSnapshotTable("u", 1, lambda i: 0,
                                        prune_chain_length=1000)
    apply_trace(pruned, trace, checkpoints)
    reference = apply_trace(unpruned, trace, checkpoints)
    last = max(reference)
    pruned.compact(last)
    assert pruned.materialize_instance(last, 0)[0] == reference[last]


@settings(max_examples=80)
@given(operations, boundaries)
def test_incremental_agrees_with_full_table(trace, checkpoints):
    incremental = IncrementalSnapshotTable("i", 1, lambda i: 0,
                                           prune_chain_length=100)
    full = FullSnapshotTable("f", 1, lambda i: 0)
    reference = apply_trace(incremental, trace, checkpoints)
    for ssid, state in reference.items():
        full.write_instance(ssid, 0, state)
    for ssid in reference:
        incr_rows = sorted(
            (row["key"], row.get("value")) for row in
            incremental.rows_for_snapshot(ssid)
        )
        full_rows = sorted(
            (row["key"], row.get("value")) for row in
            full.rows_for_snapshot(ssid)
        )
        assert incr_rows == full_rows


@settings(max_examples=80)
@given(operations, boundaries)
def test_scan_cost_bounded_by_total_entries(trace, checkpoints):
    table = IncrementalSnapshotTable("t", 1, lambda i: 0,
                                     prune_chain_length=100)
    reference = apply_trace(table, trace, checkpoints)
    for ssid in reference:
        _, scanned = table.materialize_instance(ssid, 0)
        assert scanned <= table.total_entries()


@settings(max_examples=80)
@given(operations, boundaries, st.lists(st.booleans(), max_size=8),
       st.integers(min_value=1, max_value=4))
def test_every_policy_serves_one_history_in_one_order(
        trace, checkpoints, aborts, prune_at):
    """Checkpoints commit or abort (after writing a stray version),
    keep-2 retention retires and compacts as the store does, and the
    LSM merges on every flush: after every commit each policy serves
    the retained versions only, each equal to the reference state in
    the walk's order — the newest written key first — and billed as
    its policy says."""
    tables = {
        "full": FullSnapshotTable("f", 1, lambda i: 0),
        "chain": IncrementalSnapshotTable("c", 1, lambda i: 0,
                                          prune_chain_length=prune_at),
        "lsm": LsmSnapshotTable("l", 1, lambda i: 0, memtable_limit=3,
                                l0_compaction_threshold=1),
    }

    def write(ssid, state, changed, deleted):
        # A full copy holds the state; the others record the delta.
        for kind, table in tables.items():
            if kind == "full":
                table.write_instance(ssid, 0, state)
            else:
                table.write_instance(ssid, 0, changed, deleted)

    reference = {}
    #: The live state, newest written key first.
    ordered = {}
    state = {}
    dirty = {}
    deleted = set()
    ssid = 0
    position = 0
    retained = []
    for index, chunk in enumerate(checkpoints):
        for key, value in trace[position:position + chunk]:
            if value is None:
                if key in state:
                    del state[key]
                    dirty.pop(key, None)
                    deleted.add(key)
            else:
                state[key] = value
                dirty[key] = value
                deleted.discard(key)
        position += chunk
        ssid += 1
        if index < len(aborts) and aborts[index]:
            stray = {key: -1 for key in list(state)[1:]} | {99: -1}
            write(ssid, stray, stray, set(list(state)[:1]))
            for table in tables.values():
                table.abort(ssid)
            ssid += 1
        ordered = dict(dirty) | {
            key: value for key, value in ordered.items()
            if key not in dirty and key not in deleted
        }
        assert ordered == state
        write(ssid, dict(ordered), dict(dirty), set(deleted))
        dirty.clear()
        deleted.clear()
        reference[ssid] = dict(ordered)
        retained.append(ssid)
        retired = retained[:-2]
        del retained[:-2]
        for table in tables.values():
            for old in retired:
                table.drop_snapshot(old)
            table.compact(retained[0])
        for kind, table in tables.items():
            assert table.available_ssids() == retained
            for version in retained:
                rebuilt, billed = table.materialize_instance(version, 0)
                assert list(rebuilt.items()) == list(
                    reference[version].items())
                if kind == "full":
                    assert billed == len(rebuilt)
                elif kind == "lsm":
                    assert billed == table.total_entries()
                else:
                    assert len(rebuilt) <= billed <= table.total_entries()
