"""Tests for the gap-aware resource timelines and pools."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched import Pool, Timeline
from repro.sched.events import reserve_pair2
from tests.oracles.events import (
    common_start,
    legacy_next_fit,
    pool_reserve,
    reserve,
    reserve_at,
)


def clone_timeline(timeline: Timeline) -> Timeline:
    clone = Timeline(timeline.name)
    clone._starts = list(timeline._starts)
    clone._ends = list(timeline._ends)
    clone.busy_seconds = timeline.busy_seconds
    clone.reservations = timeline.reservations
    clone._gapless = timeline._gapless
    clone._last_end = timeline._last_end
    return clone


class TestTimeline:
    def test_sequential_reservations(self):
        timeline = Timeline("t")
        assert reserve(timeline, 0.0, 2.0) == (0.0, 2.0)
        assert reserve(timeline, 0.0, 3.0) == (2.0, 5.0)

    def test_backfills_gaps(self):
        timeline = Timeline("t")
        reserve(timeline, 10.0, 5.0)         # busy [10, 15]
        start, end = reserve(timeline, 0.0, 4.0)
        assert (start, end) == (0.0, 4.0)    # fits before the future block

    def test_gap_too_small_skipped(self):
        timeline = Timeline("t")
        reserve(timeline, 0.0, 2.0)          # [0, 2]
        reserve(timeline, 3.0, 2.0)          # [3, 5]
        start, _ = reserve(timeline, 0.0, 2.0)
        assert start == 5.0                  # 1-wide gap at [2,3] skipped

    def test_exact_fit_gap_used(self):
        timeline = Timeline("t")
        reserve(timeline, 0.0, 2.0)
        reserve(timeline, 4.0, 2.0)
        start, _ = reserve(timeline, 0.0, 2.0)
        assert start == 2.0

    def test_earliest_respected_inside_gap(self):
        timeline = Timeline("t")
        reserve(timeline, 10.0, 2.0)
        start, _ = reserve(timeline, 3.0, 2.0)
        assert start == 3.0

    def test_busy_seconds_accumulate(self):
        timeline = Timeline("t")
        reserve(timeline, 0.0, 2.0)
        reserve(timeline, 5.0, 3.0)
        assert timeline.busy_seconds == pytest.approx(5.0)
        assert timeline.utilization(10.0) == pytest.approx(0.5)

    def test_zero_duration_allowed(self):
        timeline = Timeline("t")
        assert reserve(timeline, 1.0, 0.0) == (1.0, 1.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            reserve(Timeline("t"), 0.0, -1.0)

    def test_reserve_at_requires_free_slot(self):
        timeline = Timeline("t")
        reserve(timeline, 0.0, 5.0)
        with pytest.raises(ValueError):
            reserve_at(timeline, 2.0, 1.0)

    @given(st.lists(st.tuples(
        st.floats(min_value=0, max_value=100),
        st.floats(min_value=0, max_value=10)), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_reservations_never_overlap(self, requests):
        timeline = Timeline("t")
        intervals = []
        for earliest, duration in requests:
            granted = reserve(timeline, earliest, duration)
            if granted[1] > granted[0]:   # zero-width grants (including
                intervals.append(granted)  # underflowed ones) occupy nothing
        intervals.sort()
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert e1 <= s2 + 1e-9

    @given(st.lists(st.tuples(
        st.floats(min_value=0, max_value=100),
        st.floats(min_value=0.1, max_value=10)), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_start_never_before_earliest(self, requests):
        timeline = Timeline("t")
        for earliest, duration in requests:
            start, _ = reserve(timeline, earliest, duration)
            assert start >= earliest - 1e-12


class TestNextFitParity:
    """The O(1) fast paths must place requests exactly where the legacy
    scan would — bit-identical floats, not approximately equal."""

    request_lists = st.lists(st.tuples(
        st.floats(min_value=0, max_value=100),
        st.floats(min_value=0, max_value=10)), min_size=1, max_size=60)

    @given(request_lists)
    @settings(max_examples=100, deadline=None)
    def test_next_fit_matches_legacy_scan(self, requests):
        timeline = Timeline("t")
        for earliest, duration in requests:
            assert timeline.next_fit(earliest, duration) == \
                legacy_next_fit(timeline, earliest, duration)
            reserve(timeline, earliest, duration)

    @given(request_lists)
    @settings(max_examples=100, deadline=None)
    def test_gapless_flag_never_lies(self, requests):
        """When the flag says gapless, the busy set really is one block."""
        timeline = Timeline("t")
        for earliest, duration in requests:
            reserve(timeline, earliest, duration)
            if timeline._gapless:
                for end, nxt in zip(timeline._ends, timeline._starts[1:]):
                    assert end >= nxt
            # either way the interval lists stay sorted and disjoint
            for end, nxt in zip(timeline._ends, timeline._starts[1:]):
                assert end <= nxt + 1e-9

    @given(request_lists,
           st.floats(min_value=0, max_value=120),
           st.floats(min_value=0, max_value=10))
    @settings(max_examples=100, deadline=None)
    def test_forced_slow_path_agrees_with_fast_path(self, requests,
                                                    earliest, duration):
        """Clearing the flag on a genuinely gapless timeline must not
        change any answer: the flag is an optimization, not a semantic."""
        timeline = Timeline("t")
        for req_earliest, req_duration in requests:
            reserve(timeline, req_earliest, req_duration)
        forced = clone_timeline(timeline)
        forced._gapless = False
        assert timeline.next_fit(earliest, duration) == \
            forced.next_fit(earliest, duration)

    def test_sequential_appends_stay_gapless(self):
        timeline = Timeline("t")
        for i in range(10):
            reserve(timeline, 0.0, 1.0)
        assert timeline._gapless

    def test_future_reservation_clears_flag(self):
        timeline = Timeline("t")
        reserve(timeline, 0.0, 1.0)
        reserve(timeline, 5.0, 1.0)
        assert not timeline._gapless
        # and the gap is then found by the general scan
        assert timeline.next_fit(0.0, 2.0) == 1.0


class TestReservePairParity:
    joint_requests = st.lists(st.tuples(
        st.floats(min_value=0, max_value=50),
        st.floats(min_value=0, max_value=5),
        st.floats(min_value=0, max_value=5)), min_size=1, max_size=30)

    @given(joint_requests)
    @settings(max_examples=100, deadline=None)
    def test_matches_common_start_plus_reserve_at(self, requests):
        """reserve_pair2 on (channel, array) pairs must produce the same
        starts and the same timeline state as the legacy three-fit
        sequence, reservation by reservation."""
        channel, array = Timeline("chan"), Timeline("arr")
        legacy_channel, legacy_array = Timeline("chan"), Timeline("arr")
        for earliest, hold, duration in requests:
            start = reserve_pair2(earliest, channel, hold, array, duration)
            expected = common_start(earliest, [(legacy_channel, hold),
                                               (legacy_array, duration)])
            reserve_at(legacy_channel, expected, hold)
            reserve_at(legacy_array, expected, duration)
            assert start == expected
            assert channel._starts == legacy_channel._starts
            assert channel._ends == legacy_channel._ends
            assert array._starts == legacy_array._starts
            assert array._ends == legacy_array._ends
        assert channel.busy_seconds == legacy_channel.busy_seconds
        assert array.busy_seconds == legacy_array.busy_seconds
        assert array.reservations == legacy_array.reservations


class TestCommonStart:
    def test_both_free(self):
        a, b = Timeline("a"), Timeline("b")
        assert common_start(1.0, [(a, 2.0), (b, 3.0)]) == 1.0

    def test_pushed_by_busier_resource(self):
        a, b = Timeline("a"), Timeline("b")
        reserve(a, 0.0, 5.0)
        assert common_start(0.0, [(a, 1.0), (b, 1.0)]) == 5.0

    def test_finds_shared_gap(self):
        a, b = Timeline("a"), Timeline("b")
        reserve(a, 0.0, 2.0)      # a busy [0,2]
        reserve(b, 3.0, 2.0)      # b busy [3,5]
        # A 1-second joint reservation fits at [2,3].
        assert common_start(0.0, [(a, 1.0), (b, 1.0)]) == 2.0


class TestPool:
    def test_parallel_servers(self):
        pool = Pool.with_servers("host", 2)
        s1, _ = pool_reserve(pool, 0.0, 5.0)
        s2, _ = pool_reserve(pool, 0.0, 5.0)
        s3, _ = pool_reserve(pool, 0.0, 5.0)
        assert s1 == 0.0 and s2 == 0.0
        assert s3 == 5.0

    def test_utilization_across_servers(self):
        pool = Pool.with_servers("host", 2)
        pool_reserve(pool, 0.0, 4.0)
        assert pool.utilization(4.0) == pytest.approx(0.5)

    def test_zero_servers_rejected(self):
        with pytest.raises(ValueError):
            Pool.with_servers("host", 0)

    @given(st.lists(st.tuples(
        st.floats(min_value=0, max_value=50),
        st.floats(min_value=0, max_value=5)), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_reserve_named_matches_min_then_reserve(self, requests):
        """Reserving at the fit found during the min-scan must pick the
        same server and place identically to the legacy min + re-fit."""
        pool = Pool.with_servers("host", 3)
        legacy_pool = Pool.with_servers("host", 3)
        for earliest, duration in requests:
            start, end, name = pool.reserve_named(earliest, duration)
            best = min(legacy_pool.servers,
                       key=lambda s: s.next_fit(earliest, duration))
            legacy_start, legacy_end = reserve(best, earliest, duration)
            assert (start, end, name) == (legacy_start, legacy_end,
                                          best.name)
