"""Tests for the Bloom filter, including the no-false-negative property."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.bloom import BloomFilter, item_positions, optimal_parameters


class TestBasics:
    def test_added_item_is_member(self):
        bloom = BloomFilter(m=128, k=3)
        bloom.add("http://example.org/onto1")
        assert "http://example.org/onto1" in bloom

    def test_fresh_filter_is_empty(self):
        bloom = BloomFilter(m=128, k=3)
        assert "anything" not in bloom
        assert bloom.fill_ratio == 0.0

    def test_update_adds_all(self):
        bloom = BloomFilter(m=256, k=4)
        items = [f"item-{i}" for i in range(20)]
        bloom.update(items)
        assert all(item in bloom for item in items)

    def test_might_contain_alias(self):
        bloom = BloomFilter(m=64, k=2)
        bloom.add("x")
        assert bloom.might_contain("x")

    def test_clear(self):
        bloom = BloomFilter(m=64, k=2)
        bloom.add("x")
        bloom.clear()
        assert "x" not in bloom
        assert bloom.approximate_items == 0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            BloomFilter(m=0, k=1)
        with pytest.raises(ValueError):
            BloomFilter(m=8, k=0)


class TestItemPositions:
    @given(items=st.lists(st.text(max_size=40), min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_memo_agrees_with_double_hashing(self, items):
        for item in items * 2:
            digest = hashlib.sha256(item.encode("utf-8")).digest()
            h1 = int.from_bytes(digest[:8], "big")
            h2 = int.from_bytes(digest[8:16], "big") | 1
            expected = tuple((h1 + i * h2) % 509 for i in range(5))
            assert item_positions(item, 509, 5) == expected
            assert item_positions.__wrapped__(item, 509, 5) == expected


class TestNoFalseNegatives:
    @given(st.lists(st.text(min_size=1, max_size=30), min_size=1, max_size=50))
    @settings(max_examples=100)
    def test_every_added_item_found(self, items):
        bloom = BloomFilter(m=64, k=3)
        bloom.update(items)
        assert all(item in bloom for item in items)

    @given(
        st.lists(st.text(min_size=1, max_size=20), min_size=1, max_size=30),
        st.integers(min_value=1, max_value=512),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=50)
    def test_no_false_negatives_any_parameters(self, items, m, k):
        bloom = BloomFilter(m=m, k=k)
        bloom.update(items)
        assert all(item in bloom for item in items)


class TestFalsePositiveRate:
    def test_rate_reasonable_at_design_capacity(self):
        m, k = optimal_parameters(100, 0.01)
        bloom = BloomFilter(m=m, k=k)
        bloom.update(f"member-{i}" for i in range(100))
        false_hits = sum(1 for i in range(10_000) if f"absent-{i}" in bloom)
        assert false_hits / 10_000 < 0.05  # generous bound over the 1% design

    def test_probability_estimate_tracks_fill(self):
        bloom = BloomFilter(m=64, k=2)
        assert bloom.false_positive_probability() == 0.0
        bloom.update(f"x{i}" for i in range(64))
        assert bloom.false_positive_probability() > 0.3


class TestUnion:
    def test_union_contains_both_sides(self):
        a = BloomFilter(m=128, k=3)
        b = BloomFilter(m=128, k=3)
        a.add("left")
        b.add("right")
        merged = a.union(b)
        assert "left" in merged and "right" in merged

    def test_union_rejects_mismatched_parameters(self):
        with pytest.raises(ValueError):
            BloomFilter(m=128, k=3).union(BloomFilter(m=64, k=3))
        with pytest.raises(ValueError):
            BloomFilter(m=128, k=3).union(BloomFilter(m=128, k=4))

    def test_copy_is_independent(self):
        a = BloomFilter(m=64, k=2)
        a.add("x")
        b = a.copy()
        b.add("y")
        assert "y" not in a and "y" in b


class TestSerialization:
    def test_roundtrip(self):
        bloom = BloomFilter(m=200, k=4)
        bloom.update(f"onto-{i}" for i in range(30))
        restored = BloomFilter.from_bytes(bloom.to_bytes(), m=200, k=4)
        assert restored == bloom
        assert all(f"onto-{i}" in restored for i in range(30))

    def test_rejects_oversized_payload(self):
        with pytest.raises(ValueError):
            BloomFilter.from_bytes(b"\xff\xff", m=8, k=2)

    @given(st.lists(st.text(min_size=1, max_size=10), max_size=20))
    @settings(max_examples=50)
    def test_roundtrip_property(self, items):
        bloom = BloomFilter(m=96, k=3)
        bloom.update(items)
        assert BloomFilter.from_bytes(bloom.to_bytes(), 96, 3) == bloom


class TestOptimalParameters:
    def test_known_sizing(self):
        m, k = optimal_parameters(1000, 0.01)
        assert 9000 < m < 10500  # ≈ 9.6 bits/item for 1%
        assert k in (6, 7)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            optimal_parameters(0, 0.01)
        with pytest.raises(ValueError):
            optimal_parameters(10, 0.0)
        with pytest.raises(ValueError):
            optimal_parameters(10, 1.0)
