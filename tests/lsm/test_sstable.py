"""Tests for SSTables and bloom filters."""

from repro.lsm import BloomFilter, SSTable, TOMBSTONE


def test_bloom_no_false_negatives():
    keys = list(range(0, 2000, 3))
    bloom = BloomFilter(keys)
    assert all(bloom.might_contain(key) for key in keys)


def test_bloom_filters_most_absent_keys():
    bloom = BloomFilter(range(1000))
    absent = range(100_000, 102_000)
    false_positives = sum(1 for k in absent if bloom.might_contain(k))
    assert false_positives < len(list(absent)) * 0.3


def test_bloom_empty():
    bloom = BloomFilter([])
    assert bloom.size_bits >= 8


def test_sstable_sorted_by_key_then_version_desc():
    table = SSTable([(2, 1, "a"), (1, 5, "b"), (1, 9, "c"), (2, 3, "d")])
    assert table.entries == [
        (1, 9, "c"), (1, 5, "b"), (2, 3, "d"), (2, 1, "a"),
    ]
    assert table.min_key == 1
    assert table.max_key == 2


def test_sstable_get_newest_visible_version():
    table = SSTable([(1, 5, "v5"), (1, 9, "v9"), (1, 2, "v2")])
    assert table.get(1, 9) == ("found", "v9", 1)
    assert table.get(1, 7)[0:2] == ("found", "v5")
    assert table.get(1, 2)[0:2] == ("found", "v2")


def test_sstable_get_newer_only():
    table = SSTable([(1, 9, "v9")])
    status, value, touched = table.get(1, 5)
    assert status == "newer_only"
    assert touched == 1


def test_sstable_get_absent():
    table = SSTable([(1, 9, "v9")])
    assert table.get(42, 100) == ("absent", None, 0)


def test_sstable_get_tombstone_is_found():
    table = SSTable([(1, 5, TOMBSTONE)])
    status, value, _ = table.get(1, 6)
    assert status == "found"
    assert value is TOMBSTONE


def test_versions_of_newest_first():
    table = SSTable([(1, 2, "a"), (1, 8, "b"), (2, 1, "x")])
    assert table.versions_of(1) == [(8, "b"), (2, "a")]
    assert table.versions_of(3) == []


def test_empty_sstable():
    table = SSTable([])
    assert len(table) == 0
    assert table.min_key is None
    assert table.get(1, 1) == ("absent", None, 0)


def test_sstable_keeps_write_order_within_a_version_for_any_key():
    table = SSTable([("b", 1, 1), (2, 2, 2), ("a", 1, 3), (2, 1, 4)])
    assert table.entries == [(2, 2, 2), ("b", 1, 1), ("a", 1, 3),
                             (2, 1, 4)]
    assert table.get(2, 1) == ("found", 4, 2)
    assert table.min_key is None  # 2 and "a" do not order
