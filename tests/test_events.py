"""Tests for the scheduler's placement kernel and its timeline oracles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched.orchestrator import _fit, _reserve
from tests.oracles.events import (
    Pool,
    Timeline,
    common_start,
    legacy_next_fit,
    pool_reserve,
    reserve,
    reserve_at,
    reserve_pair2,
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


def kernel_state():
    """One resource's kernel state: runs, last end and busy seconds."""
    return [[]], [[]], [float("-inf")], [0.0]


def kernel_reserve(state, earliest, duration):
    """Place one request on one resource the way the kernel does."""
    starts, ends, last, busy = state
    if earliest >= last[0]:
        start = earliest
    else:
        start = _fit(starts[0], ends[0], earliest, duration)
    _reserve(starts, ends, last, busy, 0, start, duration)
    return start


def coalesced(timeline):
    """The oracle's busy intervals with exactly touching ones merged."""
    runs = []
    for start, end in zip(timeline._starts, timeline._ends):
        if runs and runs[-1][1] == start:
            runs[-1][1] = end
        else:
            runs.append([start, end])
    return runs


class TestKernelParity:
    """``_fit`` + the coalescing ``_reserve`` against the oracle
    :class:`Timeline`: bit-identical starts, the same busy set and busy
    seconds, and never more intervals."""

    # Grid values make exact touches (and so merges) common.
    times = st.one_of(st.integers(0, 40).map(float),
                      st.floats(min_value=0, max_value=100))
    durations = st.one_of(st.sampled_from([0.5, 1.0, 2.0, 3.0]),
                          st.floats(min_value=0, max_value=10,
                                    exclude_min=True))

    @given(st.lists(st.tuples(times, durations), min_size=1, max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle_timeline(self, requests):
        state = kernel_state()
        oracle = Timeline("t")
        for earliest, duration in requests:
            start = kernel_reserve(state, earliest, duration)
            assert start == reserve(oracle, earliest, duration)[0]
            starts, ends, last, busy = state
            assert [list(run) for run in zip(starts[0], ends[0])] == \
                coalesced(oracle)
            assert len(starts[0]) <= len(oracle._starts)
            assert last[0] == oracle._last_end
            assert busy[0] == oracle.busy_seconds

    def test_touching_reservations_merge(self):
        state = kernel_state()
        kernel_reserve(state, 0.0, 1.0)
        kernel_reserve(state, 3.0, 1.0)      # runs [0, 1] and [3, 4]
        kernel_reserve(state, 0.0, 2.0)      # fills [1, 3] exactly
        assert state[0] == [[0.0]] and state[1] == [[4.0]]
        assert state[3] == [4.0]

    def test_zero_width_request_rule(self):
        """A zero-width request starts at ``earliest`` unless that lies
        strictly inside a busy run; then it starts at the run's end."""
        state = kernel_state()
        kernel_reserve(state, 0.0, 1.0)
        kernel_reserve(state, 1.0, 1.0)      # one run [0, 2]
        kernel_reserve(state, 3.0, 1.0)      # and [3, 4]
        starts, ends, _, _ = state
        assert _fit(starts[0], ends[0], 0.5, 0.0) == 2.0
        assert _fit(starts[0], ends[0], 1.0, 0.0) == 2.0
        assert _fit(starts[0], ends[0], 0.0, 0.0) == 0.0
        assert _fit(starts[0], ends[0], 2.5, 0.0) == 2.5
        assert _fit(starts[0], ends[0], 3.0, 0.0) == 3.0
        assert _fit(starts[0], ends[0], 3.5, 0.0) == 4.0
        # The oracle keeps [0, 1] and [1, 2] apart, and answers inside
        # the first of them with its own end.
        oracle = Timeline("t")
        reserve(oracle, 0.0, 1.0)
        reserve(oracle, 1.0, 1.0)
        assert oracle.next_fit(0.5, 0.0) == 1.0

    def test_zero_width_reservation_occupies_nothing(self):
        state = kernel_state()
        kernel_reserve(state, 1.0, 0.0)
        assert state == ([[]], [[]], [float("-inf")], [0.0])


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
