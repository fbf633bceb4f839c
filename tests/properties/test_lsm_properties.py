"""Property-based tests: the MVCC LSM store always agrees with a
naive reference implementation, across arbitrary write/flush/compact
interleavings and retention watermarks."""

from hypothesis import given, settings, strategies as st

from repro.lsm import LsmStore


#: Operations: ("put", key, value) / ("del", key) applied at increasing
#: versions, with occasional flush/compact maintenance.
operations = st.lists(
    st.one_of(
        st.tuples(st.just("put"),
                  st.integers(min_value=0, max_value=9),
                  st.integers(min_value=0, max_value=99)),
        st.tuples(st.just("del"),
                  st.integers(min_value=0, max_value=9)),
        st.tuples(st.just("flush")),
        st.tuples(st.just("compact")),
    ),
    max_size=60,
)


class Reference:
    """Ground truth: full version history in plain dicts."""

    def __init__(self):
        self.history: dict[int, dict] = {}  # version -> state after it
        self.state: dict = {}
        self.version = 0

    def put(self, key, value):
        self.version += 1
        self.state[key] = value
        self.history[self.version] = dict(self.state)

    def delete(self, key):
        self.version += 1
        self.state.pop(key, None)
        self.history[self.version] = dict(self.state)


def apply(store: LsmStore, reference: Reference, trace) -> None:
    for op in trace:
        if op[0] == "put":
            reference.put(op[1], op[2])
            store.put(op[1], reference.version, op[2])
        elif op[0] == "del":
            reference.delete(op[1])
            store.delete(op[1], reference.version)
        elif op[0] == "flush":
            store.flush()
        else:
            store.compact()


@settings(max_examples=80)
@given(operations)
def test_every_version_reconstructs(trace):
    store = LsmStore(memtable_limit=5, l0_compaction_threshold=3)
    reference = Reference()
    apply(store, reference, trace)
    for version, expected in reference.history.items():
        assert dict(store.scan_at(version)) == expected
        for key, value in expected.items():
            assert store.get(key, ssid=version) == value


@settings(max_examples=80)
@given(operations, st.integers(min_value=0, max_value=60))
def test_gc_preserves_versions_at_and_above_watermark(trace, cut):
    store = LsmStore(memtable_limit=4, l0_compaction_threshold=2)
    reference = Reference()
    apply(store, reference, trace)
    watermark = min(cut, reference.version)
    store.set_watermark(watermark)
    store.flush()
    store.compact()
    for version, expected in reference.history.items():
        if version < watermark:
            continue
        assert dict(store.scan_at(version)) == expected


@settings(max_examples=80)
@given(operations)
def test_compaction_never_increases_entries(trace):
    store = LsmStore(memtable_limit=4, l0_compaction_threshold=1000)
    reference = Reference()
    apply(store, reference, trace)
    store.flush()
    before = store.total_entries()
    store.compact()
    assert store.total_entries() <= before
    assert store.read_amplification_bound <= 1


@settings(max_examples=80)
@given(operations)
def test_versions_of_matches_history(trace):
    store = LsmStore(memtable_limit=3, l0_compaction_threshold=2)
    reference = Reference()
    apply(store, reference, trace)
    for key in range(10):
        lsm_versions = {v for v, _ in store.versions_of(key)}
        # Every version at which the reference changed this key is
        # present (no GC ran: watermark unset).
        expected = set()
        previous = "<absent>"
        for version in sorted(reference.history):
            current = reference.history[version].get(key, "<absent>")
            if current != previous:
                expected.add(version)
            previous = current
        assert expected <= lsm_versions | {0}
