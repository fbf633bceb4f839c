"""Property-based tests: the LSM snapshot policy always agrees with a
naive reference history, across arbitrary writes, merges and retention
watermarks."""

from hypothesis import given, settings, strategies as st

from repro.state import LsmSnapshotTable
from repro.state.snapshots import TOMBSTONE

#: Checkpoints, each a list of ``(key, value)`` puts and ``(key, None)``
#: deletes, or ``None``: merge every run now.
checkpoints = st.lists(
    st.one_of(
        st.none(),
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=9),
                      st.one_of(st.none(),
                                st.integers(min_value=0, max_value=99))),
            max_size=6,
        ),
    ),
    max_size=20,
)


def apply(table: LsmSnapshotTable, trace) -> dict[int, dict]:
    """Write every checkpoint as a version; returns {version: state}."""
    history: dict[int, dict] = {}
    state: dict = {}
    for operations in trace:
        if operations is None:
            table.compact_all()
            continue
        changed, deleted = {}, set()
        for key, value in operations:
            if value is None:
                if key in state:
                    del state[key]
                    changed.pop(key, None)
                    deleted.add(key)
            else:
                state[key] = value
                changed[key] = value
                deleted.discard(key)
        version = len(history) + 1
        table.write_instance(version, 0, changed, deleted)
        history[version] = dict(state)
    return history


def make_table(threshold: int) -> LsmSnapshotTable:
    return LsmSnapshotTable("l", 1, lambda i: 0, memtable_limit=2,
                            l0_compaction_threshold=threshold)


def retire_below(table: LsmSnapshotTable, history: dict,
                 cut: int) -> int | None:
    """Retire every version below ``cut``; returns the watermark, the
    oldest version served after a retirement (``None`` if none)."""
    retired = [version for version in history if version < cut]
    for version in retired:
        table.drop_snapshot(version)
    if not retired:
        return None
    return min(table.available_ssids(), default=None)


@settings(max_examples=80)
@given(checkpoints)
def test_every_version_reconstructs(trace):
    table = make_table(threshold=2)
    history = apply(table, trace)
    for version, expected in history.items():
        assert table.instance_state(version, 0) == expected
        for key in range(10):
            rows = table.point_rows(key, version)
            assert [row["value"] for row in rows] == (
                [expected[key]] if key in expected else [])


@settings(max_examples=80)
@given(checkpoints, st.integers(min_value=0, max_value=25))
def test_gc_keeps_every_version_from_the_watermark_and_each_keys_anchor(
        trace, cut):
    table = make_table(threshold=1000)
    history = apply(table, trace)
    stored = {version: dict(batch)
              for version, batch in table._traces.get(0, {}).items()}
    watermark = retire_below(table, history, cut)
    if watermark is None:
        return
    table.compact_all()
    for version, expected in history.items():
        if version >= watermark:
            assert table.instance_state(version, 0) == expected
    # What stays: every entry above the watermark, and each key's
    # newest entry at or below it unless that is a tombstone (the key
    # is dead at the watermark, and vanishes).
    anchors: dict = {}
    for version in sorted(stored):
        if version <= watermark:
            for key, value in stored[version].items():
                anchors[key] = (version, value)
    expected = {
        version: batch for version, batch in stored.items()
        if version > watermark
    }
    for key, (version, value) in anchors.items():
        if value is not TOMBSTONE:
            expected.setdefault(version, {})[key] = value
    kept = {version: dict(batch)
            for version, batch in table._traces.get(0, {}).items()}
    assert kept == expected


@settings(max_examples=80)
@given(checkpoints, st.integers(min_value=0, max_value=25))
def test_compaction_never_grows_the_entry_count(trace, cut):
    table = make_table(threshold=1000)
    history = apply(table, trace)
    retire_below(table, history, cut)
    before = table.total_entries()
    table.compact_all()
    assert table.total_entries() <= before


@settings(max_examples=80)
@given(checkpoints, st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=3))
def test_merges_under_keep_two_retention_keep_every_served_version(
        trace, limit, threshold):
    # Writes, retention and the merges they trigger interleave as in a
    # job: after each version the oldest goes once three are served.
    table = LsmSnapshotTable("l", 1, lambda i: 0, memtable_limit=limit,
                             l0_compaction_threshold=threshold)
    history: dict[int, dict] = {}
    state: dict = {}
    for operations in trace:
        if operations is None:
            continue
        changed, deleted = {}, set()
        for key, value in operations:
            if value is None:
                if key in state:
                    del state[key]
                    changed.pop(key, None)
                    deleted.add(key)
            else:
                state[key] = value
                changed[key] = value
                deleted.discard(key)
        version = len(history) + 1
        table.write_instance(version, 0, changed, deleted)
        history[version] = dict(state)
        served = table.available_ssids()
        if len(served) > 2:
            table.drop_snapshot(served[0])
        for served_version in table.available_ssids():
            assert (table.instance_state(served_version, 0)
                    == history[served_version])


@settings(max_examples=80)
@given(checkpoints, st.integers(min_value=0, max_value=25))
def test_a_scan_bills_every_stored_entry_at_any_version(trace, cut):
    table = make_table(threshold=2)
    history = apply(table, trace)
    retire_below(table, history, cut)
    for version in table.available_ssids():
        _, billed = table.materialize_instance(version, 0)
        assert billed == table.total_entries()
        assert table.entries_on_node(0, version) == billed
