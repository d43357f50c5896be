"""The AMNT hot-region history buffer (Section 4.2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.history_buffer import HistoryBuffer


class TestRecording:
    def test_empty_has_no_head(self):
        assert HistoryBuffer().head_region() is None

    def test_single_record_becomes_head(self):
        buffer = HistoryBuffer()
        buffer.record(5)
        assert buffer.head_region() == 5
        assert buffer.head_count() == 1

    def test_most_frequent_region_reaches_head(self):
        buffer = HistoryBuffer()
        for region in (1, 2, 2, 2, 3):
            buffer.record(region)
        assert buffer.head_region() == 2

    def test_tie_keeps_incumbent(self):
        # Section 4.2: "In the event of a tie, the current subtree root
        # stays at the head of the buffer."
        buffer = HistoryBuffer()
        buffer.record(1)
        buffer.record(2)  # tie at 1 each: 1 stays
        assert buffer.head_region() == 1
        buffer.record(2)  # now strictly greater
        assert buffer.head_region() == 2

    def test_negative_region_rejected(self):
        with pytest.raises(ValueError):
            HistoryBuffer().record(-1)

    def test_capacity_minimum(self):
        with pytest.raises(ValueError):
            HistoryBuffer(capacity=1)


class TestEviction:
    def test_full_buffer_displaces_least_counted_non_head(self):
        buffer = HistoryBuffer(capacity=2)
        buffer.record(1)
        buffer.record(1)
        buffer.record(2)
        buffer.record(3)  # displaces 2 (count 1), never head (1)
        regions = [region for region, _ in buffer.contents()]
        assert 1 in regions
        assert 3 in regions
        assert 2 not in regions

    def test_head_never_displaced(self):
        buffer = HistoryBuffer(capacity=2)
        for _ in range(5):
            buffer.record(9)
        for region in (1, 2, 3):
            buffer.record(region)
        assert buffer.head_region() == 9


class TestInterval:
    def test_reset_zeroes_counters_and_keeps_incumbent(self):
        buffer = HistoryBuffer(capacity=4)
        for _ in range(4):
            buffer.record(7)
        buffer.reset_interval(keep_region=7)
        assert buffer.head_region() == 7
        assert buffer.head_count() == 0

    def test_reset_without_keeper_empties(self):
        buffer = HistoryBuffer()
        buffer.record(1)
        buffer.reset_interval()
        assert buffer.head_region() is None


class TestArea:
    def test_default_buffer_is_768_bits(self):
        # 64 entries x (6 index bits + 6 counter bits) — Table 3's 96 B.
        assert HistoryBuffer(capacity=64).area_bits == 768

    def test_area_scales_with_capacity(self):
        assert HistoryBuffer(capacity=128).area_bits == 128 * 14


@settings(max_examples=100, deadline=None)
@given(
    regions=st.lists(st.integers(min_value=0, max_value=15), max_size=300),
    capacity=st.sampled_from([2, 4, 8, 64]),
)
def test_head_max_invariant_property(regions, capacity):
    """The hardware invariant: the head always holds the maximum count,
    no matter the recording sequence."""
    buffer = HistoryBuffer(capacity=capacity)
    for region in regions:
        buffer.record(region)
        assert buffer.check_head_invariant()
        assert len(buffer.contents()) <= capacity
